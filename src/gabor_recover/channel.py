"""Random erasure of transform values, one independent coin per grid position.

Every position ``(x, y)`` is lost with probability ``theta``, independently of
all others, driven by numpy's PCG64 generator so identical ``(dims, theta,
seed)`` triples give identical patterns on every platform. A one-seed call
opens ``np.random.default_rng(seed)``, that is ``Generator(PCG64(seed))``, and
``_streams`` opens the same streams for a stack of seeds, one Generator each: it
hashes a block of seeds as SeedSequence does, and numpy's PCG64 seeds from the words.
"""

from __future__ import annotations

import itertools
import json

from dataclasses import dataclass

import numpy as np

from .signal import GridDims, Signal2D, _grid_array, _int_at_least, _strict_float, _strict_int
from .transforms import TransformKind

__all__ = [
    "ErasurePattern",
    "ErasureStats",
    "RecoveryProblem",
    "sample_erasure",
    "erasure_stats",
    "apply_erasure",
    "pattern_to_json",
    "pattern_from_json",
]


@dataclass
class ErasurePattern:
    """Which grid positions were lost.

    ``mask`` has shape ``(t, n)`` with True marking a missing position.
    Count vectors and the position set are derived views of the mask.
    """

    dims: GridDims
    mask: np.ndarray

    def __post_init__(self):
        mask = _grid_array(self.mask, self.dims, bool, "mask")
        mask.flags.writeable = False
        self.mask = mask

    @property
    def missing(self) -> frozenset:
        ys, xs = np.nonzero(self.mask)
        return frozenset((int(x), int(y)) for x, y in zip(xs, ys))

    @property
    def per_row_counts(self) -> np.ndarray:
        return self.mask.sum(axis=1)

    def missing_count(self) -> int:
        return int(self.mask.sum())

    @classmethod
    def from_missing(cls, dims: GridDims, positions) -> "ErasurePattern":
        mask = np.zeros((dims.t, dims.n), dtype=bool)
        for x, y in positions:
            x, y = _strict_int(x, "x"), _strict_int(y, "y")
            if not (0 <= x < dims.n and 0 <= y < dims.t):
                raise ValueError(f"position ({x}, {y}) outside grid {dims.n}x{dims.t}")
            mask[y, x] = True
        return cls(dims=dims, mask=mask)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ErasurePattern):
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self.mask, other.mask)


@dataclass
class RecoveryProblem:
    """Surviving transform values plus the pattern that produced them.

    ``observed_values`` is dense ``(t, n)`` with NaN poison at missing
    positions; the pattern's mask is the authority on what is observed, and
    its dims are the problem's.
    """

    kind: TransformKind
    observed_values: np.ndarray
    pattern: ErasurePattern

    def __post_init__(self):
        vals = _grid_array(self.observed_values, self.dims, np.complex128, "observed values")
        if not isinstance(self.kind, TransformKind):
            raise ValueError(f"kind must be a TransformKind, got {self.kind!r}")
        mask = self.pattern.mask
        kept = vals[~mask]
        if not np.all(np.isfinite(kept)):
            raise ValueError("observed values must be finite at non-missing positions")
        vals[mask] = complex(np.nan, np.nan)
        vals.flags.writeable = False
        self.observed_values = vals

    @property
    def dims(self) -> GridDims:
        return self.pattern.dims


@dataclass(frozen=True)
class ErasureStats:
    """Extremes of the per-row missing counts."""

    m_max: int
    m_min: int


# numpy's SeedSequence: (first, multiplier) of each hash stage, and the mix multipliers
_POOL_HASH, _STATE_HASH = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R, _FOLD = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_SEED_BLOCK = 2048  # seeds hashed together, so memory is flat in the count


def _hash_constants(first: int, mult: int, count: int) -> np.ndarray:
    """The first ``count`` hash constants of a SeedSequence stage, as a uint32 column."""
    consts = itertools.accumulate([first] + [mult] * (count - 1), lambda c, m: c * m & 0xFFFFFFFF)
    return np.array(list(consts), dtype=np.uint32)[:, None]


def _hashmix(values, consts):
    """SeedSequence's ``hashmix``, row ``k`` with hash constants ``k`` and ``k + 1``."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ values >> _FOLD


def _mix(x, y):
    value = _MIX_L * x - _MIX_R * y
    return value ^ value >> _FOLD


def _seed_words(seeds: list) -> np.ndarray:
    """SeedSequence's ``generate_state(4, uint64)`` for each int seed in ``[0, 2**128)``, as
    ``(len(seeds), 4)`` words, one C-contiguous row a seed: numpy's hash, seeds abreast."""
    # a seed is the pool's four 32-bit words, low first; a short seed's missing words hash as 0
    pool = np.array([[seed >> 32 * k & 0xFFFFFFFF for seed in seeds] for k in range(4)],
                    dtype=np.uint32)
    consts = _hash_constants(*_POOL_HASH, 17)
    mixer = _hashmix(pool, consts[:5])
    for src in range(4):
        dst = [k for k in range(4) if k != src]
        mixer[dst] = _mix(mixer[dst], _hashmix(mixer[src], consts[4 + 3 * src:8 + 3 * src]))
    # generate_state(4, uint64): the pool cycled twice, each pair of words low first
    out = _hashmix(np.tile(mixer, (2, 1)), _hash_constants(*_STATE_HASH, 9)).astype(np.uint64)
    return (out[0::2] | out[1::2] << 32).T.copy()


@dataclass
class _Words(np.random.bit_generator.ISeedSequence):
    """One seed's four hashed words, which PCG64 asks for as ``generate_state(4, uint64)``.
    PCG64 reads the array's buffer and not its strides, so the row must be C-contiguous."""

    words: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _streams(seeds):
    """For each int seed >= 0 in order, a new ``Generator(PCG64(seed))``, each an independent
    object. Hashes are computed ``_SEED_BLOCK`` seeds at a time, by the block kernel, or by
    numpy's own SeedSequence in a block holding a seed of ``2**128`` or more, and numpy's
    PCG64 seeds each stream from its seed's row of words."""
    seeds = iter(seeds)
    while block := list(itertools.islice(seeds, _SEED_BLOCK)):
        words = _seed_words(block) if max(block) < 1 << 128 else (
            np.array([np.random.SeedSequence(s).generate_state(4, np.uint64) for s in block]))
        for row in words:
            yield np.random.Generator(np.random.PCG64(_Words(row)))


def _sample_masks(dims: GridDims, theta: float, rngs, count: int) -> np.ndarray:
    """The masks the next ``count`` streams of ``rngs`` draw, stacked ``(count, t, n)``."""
    theta = _strict_float(theta, "theta")
    if not (0.0 <= theta <= 1.0):
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    draw = np.empty((dims.t, dims.n))  # each stream fills it as random((t, n)) does
    masks = np.empty((count, dims.t, dims.n), dtype=bool)
    for mask, rng in zip(masks, rngs):  # masks first: zip takes no stream past the last
        np.less(rng.random(out=draw), theta, out=mask)
    return masks


def sample_erasure(dims: GridDims, theta: float, seed: int) -> ErasurePattern:
    """Draw one erasure pattern at an int seed >= 0; each position lost independently w.p. theta."""
    rngs = [np.random.default_rng(_int_at_least(seed, "seed", 0))]
    return ErasurePattern(dims=dims, mask=_sample_masks(dims, theta, rngs, 1)[0])


def erasure_stats(pattern: ErasurePattern) -> ErasureStats:
    counts = pattern.per_row_counts
    return ErasureStats(m_max=int(counts.max()), m_min=int(counts.min()))


def apply_erasure(transform: Signal2D, pattern: ErasurePattern,
                  kind: TransformKind = TransformKind.GaborRow) -> RecoveryProblem:
    """Erase the pattern's positions from a transform, yielding a recovery problem.

    The surviving values are kept dense with NaN poison at missing positions;
    consumers must gate reads on the pattern's mask.
    """
    if transform.dims != pattern.dims:
        raise ValueError(
            f"transform dims {transform.dims} do not match pattern dims {pattern.dims}"
        )
    return RecoveryProblem(kind=kind, observed_values=transform.values, pattern=pattern)


def pattern_to_json(pattern: ErasurePattern) -> str:
    """Canonical JSON: ``{"n", "t", "missing": [[x, y], ...]}`` sorted lexicographically."""
    positions = sorted(pattern.missing)
    payload = {
        "n": pattern.dims.n,
        "t": pattern.dims.t,
        "missing": [[x, y] for x, y in positions],
    }
    return json.dumps(payload, sort_keys=True)


def pattern_from_json(text: str) -> ErasurePattern:
    payload = json.loads(text)
    try:
        dims = GridDims(_strict_int(payload["n"], "n"), _strict_int(payload["t"], "t"))
        return ErasurePattern.from_missing(dims, payload["missing"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed pattern JSON: {exc}") from exc
