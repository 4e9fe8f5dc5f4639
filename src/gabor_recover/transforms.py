"""Unitary discrete Fourier transforms on the grid.

Three transform families, all unitary:

* ``dft2`` / ``idft2``: full 2D DFT, kernel ``exp(-2j*pi*(x*m/n + y*k/t)) / sqrt(n*t)``.
* ``gabor_row`` / ``gabor_row_inverse``: 1D DFT applied to each length-``n`` row,
  normalized by ``1/sqrt(n)``.
* ``gabor_col`` / ``gabor_col_inverse``: 1D DFT applied to each length-``t`` column,
  normalized by ``1/sqrt(t)``.

Forward transforms use the ``e^{-2 pi i}`` kernel, inverses the conjugate.
All of them use numpy's FFT with matching normalization.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .signal import Signal2D

__all__ = [
    "TransformKind",
    "dft2",
    "idft2",
    "gabor_row",
    "gabor_row_inverse",
    "gabor_col",
    "gabor_col_inverse",
]


class TransformKind(Enum):
    """Which transform produced a set of observed values."""

    Fourier2D = "Fourier2D"
    GaborRow = "GaborRow"
    GaborCol = "GaborCol"


def _dft(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """The unitary 1D DFT of ``v`` along ``axis``."""
    out = np.fft.fft(v, axis=axis)
    return np.divide(out, math.sqrt(v.shape[axis]), out=out)


def _idft(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """The inverse of :func:`_dft`, also its adjoint."""
    out = np.fft.ifft(v, axis=axis)
    return np.multiply(out, math.sqrt(v.shape[axis]), out=out)


def gabor_row(signal: Signal2D) -> Signal2D:
    """Forward 1D unitary DFT of every row: output[y, m] = DFT_n(row y)[m]."""
    return Signal2D(dims=signal.dims, values=_dft(signal.values, axis=1))


def gabor_row_inverse(signal: Signal2D) -> Signal2D:
    return Signal2D(dims=signal.dims, values=_idft(signal.values, axis=1))


def gabor_col(signal: Signal2D) -> Signal2D:
    """Forward 1D unitary DFT of every column: output[k, x] = DFT_t(col x)[k]."""
    return Signal2D(dims=signal.dims, values=_dft(signal.values, axis=0))


def gabor_col_inverse(signal: Signal2D) -> Signal2D:
    return Signal2D(dims=signal.dims, values=_idft(signal.values, axis=0))


def dft2(signal: Signal2D) -> Signal2D:
    """Full 2D unitary DFT; equals the row transform followed by the column one."""
    n, t = signal.dims.n, signal.dims.t
    return Signal2D(dims=signal.dims, values=np.fft.fft2(signal.values) / np.sqrt(n * t))


def idft2(signal: Signal2D) -> Signal2D:
    n, t = signal.dims.n, signal.dims.t
    return Signal2D(dims=signal.dims, values=np.fft.ifft2(signal.values) * np.sqrt(n * t))
