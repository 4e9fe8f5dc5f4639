"""Random erasure of transform values, one independent coin per grid position.

Every position ``(x, y)`` is lost with probability ``theta``, independently of
all others, driven by numpy's PCG64 generator so identical ``(dims, theta,
seed)`` triples give identical patterns on every platform. A one-seed call
opens ``np.random.default_rng(seed)``, that is ``Generator(PCG64(seed))``, and
``_streams`` gives a stack of seeds, erasures' and test signals' alike, the
same streams bit for bit, hashing a block of seeds at once as SeedSequence does.
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
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
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
    ``(4, len(seeds))`` words: numpy's hash, seeds abreast."""
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
    return out[0::2] | out[1::2] << 32


def _streams(seeds):
    """For each int seed >= 0 in order, a Generator in the state ``Generator(PCG64(seed))``
    starts in: the same Generator each time, reseeded as the next is taken, so a seed's
    draws come first. Hashes are computed ``_SEED_BLOCK`` seeds at a time, by the block
    kernel, or by numpy's own SeedSequence in a block holding a seed of ``2**128`` or more,
    and each seed's 128-bit state only as it is taken."""
    bitgen = np.random.PCG64(0)
    rng, seeds, mask = np.random.Generator(bitgen), iter(seeds), (1 << 128) - 1
    while block := list(itertools.islice(seeds, _SEED_BLOCK)):
        words = _seed_words(block) if max(block) <= mask else (
            np.array([np.random.SeedSequence(s).generate_state(4, np.uint64) for s in block]).T)
        for lo in range(0, len(block), 256):  # 256 seeds' words become Python ints at a time
            for s_hi, s_lo, i_hi, i_lo in words[:, lo:lo + 256].T.tolist():
                inc = (i_hi << 65 | i_lo << 1 | 1) & mask  # PCG64's srandom, modulo 2**128
                state = (((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc) & mask
                bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                "has_uint32": 0, "uinteger": 0}
                yield rng


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
