"""Random erasure of transform values, one independent coin per grid position.

Every position ``(x, y)`` is lost with probability ``theta``, independently of
all others, driven by numpy's PCG64 generator so identical ``(dims, theta,
seed)`` triples give identical patterns on every platform.
"""

from __future__ import annotations

import json

from dataclasses import dataclass

import numpy as np

from .signal import GridDims, Signal2D, _grid_array, _strict_float, _strict_int
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


def _sample_masks(dims: GridDims, theta: float, seeds) -> np.ndarray:
    """The masks :func:`sample_erasure` draws at these seeds, stacked ``(len(seeds), t, n)``."""
    theta = _strict_float(theta, "theta")
    if not (0.0 <= theta <= 1.0):
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    draw = np.empty((dims.t, dims.n))  # each seed's own PCG64 fills it as random((t, n)) does
    masks = np.empty((len(seeds), dims.t, dims.n), dtype=bool)
    for mask, seed in zip(masks, seeds):
        np.less(np.random.Generator(np.random.PCG64(seed)).random(out=draw), theta, out=mask)
    return masks


def sample_erasure(dims: GridDims, theta: float, seed: int) -> ErasurePattern:
    """Draw one erasure pattern; each position lost independently w.p. theta."""
    return ErasurePattern(dims=dims, mask=_sample_masks(dims, theta, [seed])[0])


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
