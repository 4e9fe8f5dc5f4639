"""Dense 2D signals on Z_n x Z_t and their support queries.

A signal assigns a complex value to each grid position ``(x, y)`` with
``x`` in ``{0..n-1}`` (position inside a row) and ``y`` in ``{0..t-1}``
(row index). Storage is row-major by row index: ``values[y, x]``.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_REL_TOL",
    "GridDims",
    "Signal2D",
    "SupportProfile",
    "support",
    "support_profile",
    "column_support_max",
    "signal_to_json",
    "signal_from_json",
]

# Relative factor applied to the max modulus when no explicit tolerance is given.
DEFAULT_REL_TOL = 1e-9


@dataclass(frozen=True)
class GridDims:
    """Grid shape: rows of length ``n``, ``t`` rows."""

    n: int
    t: int

    def __post_init__(self):
        for name in ("n", "t"):  # plain ints, so serialization stays plain
            value = _int_at_least(getattr(self, name), f"grid dimension {name}")
            object.__setattr__(self, name, value)

    @property
    def size(self) -> int:
        return self.n * self.t


def _grid_array(values, dims: GridDims, dtype, name: str) -> np.ndarray:
    """A fresh ``dtype`` copy of ``values``, which must have the grid's ``(t, n)`` shape."""
    arr = np.asarray(values, dtype=dtype).copy()
    if arr.shape != (dims.t, dims.n):
        raise ValueError(
            f"{name} shape {arr.shape} does not match dims (t={dims.t}, n={dims.n})"
        )
    return arr


def _strict_int(value, name: str) -> int:
    """An integer read from outside: an int or an integral float, never a bool; else ValueError."""
    integral = isinstance(value, (int, np.integer)) or (
        isinstance(value, (float, np.floating)) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _strict_ints(values, name: str) -> set:
    """A set of integers read from outside: plain ints pass in one scan, the rest by :func:`_strict_int`."""
    values = set(values)
    if {int}.issuperset(map(type, values)):
        return values
    return {_strict_int(v, name) for v in values}


def _strict_float(value, name: str) -> float:
    """A real number read from outside: an int or a float, never a bool, string or None."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _int_at_least(value, name: str, least: int = 1) -> int:
    """``value`` as a plain ``int``: an integer, numpy's too, never a bool, and ``>= least``."""
    # a plain int skips the Integral check, an abstract-base-class lookup that is slow per call
    if type(value) is not int and (not isinstance(value, numbers.Integral)
                                   or isinstance(value, bool)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return int(value)


@dataclass
class Signal2D:
    """A dense complex signal on the grid.

    ``values`` has shape ``(t, n)``: ``values[y, x]`` is the entry at row
    ``y``, position ``x``. The array is copied, cast to complex128 and
    locked against writes. All entries must be finite.
    """

    dims: GridDims
    values: np.ndarray

    def __post_init__(self):
        vals = _grid_array(self.values, self.dims, np.complex128, "values")
        if not np.all(np.isfinite(vals)):
            raise ValueError("signal entries must be finite")
        vals.flags.writeable = False
        self.values = vals

    def max_modulus(self) -> float:
        return float(np.abs(self.values).max())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Signal2D):
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self.values, other.values)


@dataclass(frozen=True)
class SupportProfile:
    """Per-row support sizes; their max and total are computed from them."""

    row_supports: tuple

    def __post_init__(self):
        object.__setattr__(self, "row_supports", tuple(
            _strict_int(s, "row support") for s in self.row_supports))
        if any(s < 0 for s in self.row_supports):
            raise ValueError("row supports must be non-negative")

    @property
    def e_max(self) -> int:
        return max(self.row_supports, default=0)

    @property
    def total_support(self) -> int:
        return sum(self.row_supports)


def _active(values: np.ndarray, tol) -> np.ndarray:
    """Where the modulus exceeds ``tol``, or 1e-9 of its own grid's max modulus when ``tol`` is
    None; ``values`` is one ``(t, n)`` grid or a stack of them."""
    mag = np.abs(values)
    if tol is None:
        return mag > DEFAULT_REL_TOL * mag.max(axis=(-2, -1), keepdims=True)
    tol = _strict_float(tol, "tol")
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be non-negative and finite, got {tol!r}")
    return mag > tol


def support(signal: Signal2D, tol=None) -> set:
    """Positions ``(x, y)`` whose modulus exceeds the threshold.

    ``tol`` is an absolute modulus threshold; when omitted it defaults to
    1e-9 relative to the signal's max modulus.
    """
    ys, xs = np.nonzero(_active(signal.values, tol))
    return {(int(x), int(y)) for x, y in zip(xs, ys)}


def support_profile(signal: Signal2D, tol=None) -> SupportProfile:
    """Per-row support counts of the signal."""
    return SupportProfile(row_supports=_active(signal.values, tol).sum(axis=1))


def column_support_max(signal: Signal2D, tol=None) -> int:
    """Max over columns ``x`` of the number of rows where ``(x, y)`` is active.

    Typically applied to a column-wise transform to measure its largest
    per-column spectral support.
    """
    return int(_active(signal.values, tol).sum(axis=0).max())


def signal_payload(signal: Signal2D) -> dict:
    """The canonical JSON object of a signal, before encoding.

    Schema: ``{"n", "t", "re": [...], "im": [...]}`` with both coefficient
    lists flattened row-major by row index (entry index ``y*n + x``).
    """
    flat = signal.values.reshape(-1)
    return {
        "n": signal.dims.n,
        "t": signal.dims.t,
        "re": [float(v) for v in flat.real],
        "im": [float(v) for v in flat.imag],
    }


def signal_to_json(signal: Signal2D) -> str:
    """Serialize to the canonical JSON form, :func:`signal_payload` encoded."""
    return json.dumps(signal_payload(signal), sort_keys=True)


def signal_from_json(text: str) -> Signal2D:
    """Inverse of :func:`signal_to_json`, validating shape and finiteness."""
    payload = json.loads(text)
    try:
        dims = GridDims(_strict_int(payload["n"], "n"), _strict_int(payload["t"], "t"))
        re = np.asarray(payload["re"], dtype=np.float64)
        im = np.asarray(payload["im"], dtype=np.float64)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed signal JSON: {exc}") from exc
    if re.shape != (dims.size,) or im.shape != (dims.size,):
        raise ValueError(
            f"coefficient lists must have length n*t={dims.size}, "
            f"got re={re.shape}, im={im.shape}"
        )
    values = (re + 1j * im).reshape(dims.t, dims.n)
    return Signal2D(dims=dims, values=values)
