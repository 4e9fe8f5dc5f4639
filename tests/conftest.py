"""Shared independent oracles for the test suite.

These deliberately avoid the package's own transform and probability code:
the 2D transform oracle builds its phase matrices from scratch, and the
binomial oracle works in exact rational arithmetic. Test expectations are
frozen against these, not against the implementation under test.
"""

from fractions import Fraction
from math import comb

import numpy as np
import pytest


def oracle_dft2(values: np.ndarray) -> np.ndarray:
    """Unitary 2D DFT by the defining double sum, via explicit phase matrices.

    values has shape (t, n) with row index a and in-row index x; output
    [k, m] = (nt)^(-1/2) sum_a sum_x values[a, x] exp(-2i pi (x m / n + a k / t)).
    """
    t, n = values.shape
    mx = np.arange(n)
    ky = np.arange(t)
    phase_n = np.exp(-2j * np.pi * np.outer(mx, mx) / n)
    phase_t = np.exp(-2j * np.pi * np.outer(ky, ky) / t)
    return phase_t @ values @ phase_n.T / np.sqrt(n * t)


def oracle_idft2(values: np.ndarray) -> np.ndarray:
    """Inverse unitary 2D DFT: the defining double sum with the conjugate kernel."""
    t, n = values.shape
    mx = np.arange(n)
    ky = np.arange(t)
    phase_n = np.exp(2j * np.pi * np.outer(mx, mx) / n)
    phase_t = np.exp(2j * np.pi * np.outer(ky, ky) / t)
    return phase_t @ values @ phase_n.T / np.sqrt(n * t)


def oracle_dft2_loops(values: np.ndarray) -> np.ndarray:
    """Literal quadruple-loop double sum; tiny grids only."""
    t, n = values.shape
    out = np.zeros((t, n), dtype=complex)
    for k in range(t):
        for m in range(n):
            acc = 0.0 + 0.0j
            for a in range(t):
                for x in range(n):
                    acc += values[a, x] * np.exp(-2j * np.pi * (x * m / n + a * k / t))
            out[k, m] = acc / np.sqrt(n * t)
    return out


def oracle_gabor_row(values: np.ndarray) -> np.ndarray:
    """Per-row unitary DFT by explicit summation matrices."""
    t, n = values.shape
    mx = np.arange(n)
    phase = np.exp(-2j * np.pi * np.outer(mx, mx) / n)
    return values @ phase.T / np.sqrt(n)


def oracle_gabor_col(values: np.ndarray) -> np.ndarray:
    t, n = values.shape
    ky = np.arange(t)
    phase = np.exp(-2j * np.pi * np.outer(ky, ky) / t)
    return phase @ values / np.sqrt(t)


def binom_pmf_frac(n: int, y: int, theta: Fraction) -> Fraction:
    """Exact Binomial(n, theta) pmf at y, rational arithmetic."""
    if y < 0 or y > n:
        return Fraction(0)
    return comb(n, y) * theta ** y * (1 - theta) ** (n - y)


def binom_upper_frac(n: int, theta: Fraction, threshold: float) -> Fraction:
    """Exact P(X >= threshold) for X ~ Binomial(n, theta)."""
    import math

    start = max(0, math.ceil(threshold - 1e-9))
    return sum((binom_pmf_frac(n, y, theta) for y in range(start, n + 1)), Fraction(0))


def binom_lower_frac(n: int, theta: Fraction, threshold: float) -> Fraction:
    import math

    stop = min(n, math.floor(threshold + 1e-9))
    if stop < 0:
        return Fraction(0)
    return sum((binom_pmf_frac(n, y, theta) for y in range(0, stop + 1)), Fraction(0))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
