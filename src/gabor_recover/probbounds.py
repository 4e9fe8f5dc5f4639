"""Binomial tail probabilities and the geometric tail bound.

Row erasure counts are Binomial(n, theta). This module computes exact tails in
log domain (log-gamma terms, compensated summation), the closed-form
probabilities for the max/min per-row erasure count across ``t`` independent
rows, the geometric-series upper bound on the upper tail, and the sparsity
budget implied by an erasure rate.

Threshold convention: ``P(X >= c)`` sums the pmf from ``ceil(c)`` upward and
``P(X <= c)`` up to ``floor(c)``. Real thresholds within 1e-9 of an integer
are treated as that integer before rounding, so expressions like ``400*0.35``
keep their exact-math value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .signal import _int_at_least, _strict_float

__all__ = [
    "TailBoundResult",
    "binom_tail_upper",
    "binom_tail_lower",
    "lemma_tail_bound",
    "prob_mmax_below",
    "prob_mmin_below",
    "support_budget",
]

# snap guard for float thresholds that are integers in exact arithmetic
_SNAP = 1e-9


def _ceil_snapped(v: float) -> int:
    return math.ceil(v - _SNAP)


def _validate_n_theta(n: int, theta: float) -> tuple[int, float]:
    """``n`` as a plain ``int`` and ``theta`` as a ``float`` in [0, 1]; else ValueError."""
    n = _int_at_least(n, "n")
    theta = _strict_float(theta, "theta")
    if not (0.0 <= theta <= 1.0):
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    return n, theta


def _threshold(value, name: str) -> float:
    """A tail threshold as a ``float``: a number, infinite too, but never NaN; else ValueError."""
    value = _strict_float(value, name)
    if math.isnan(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


def _log_pmf(n: int, j: int, theta: float) -> float:
    """log P(X = j) for X ~ Binomial(n, theta), theta strictly inside (0, 1)."""
    log_comb = math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
    return log_comb + j * math.log(theta) + (n - j) * math.log1p(-theta)


def binom_tail_upper(n: int, theta: float, threshold: float) -> float:
    """P(X >= threshold) for X ~ Binomial(n, theta).

    Summation starts at ``ceil(threshold)`` (snapped); thresholds at or below
    zero give 1, thresholds above ``n`` give 0. It stops at the first term
    past the mode that underflows to 0.0: the pmf only falls from there, so
    every later term is 0.0 as well and the sum is unchanged.
    """
    n, theta = _validate_n_theta(n, theta)
    # clamped to [-1, n + 1], an infinite threshold falls on its side of the support
    j = _ceil_snapped(min(max(_threshold(threshold, "threshold"), -1.0), n + 1.0))
    if j <= 0:
        return 1.0
    if j > n:
        return 0.0
    if theta == 0.0:
        return 0.0  # X is identically 0 and j >= 1
    if theta == 1.0:
        return 1.0  # X is identically n and j <= n
    terms = []
    for y in range(j, n + 1):
        term = math.exp(_log_pmf(n, y, theta))
        if term == 0.0 and y > n * theta:
            break
        terms.append(term)
    return min(1.0, math.fsum(terms))


def binom_tail_lower(n: int, theta: float, threshold: float) -> float:
    """P(X <= threshold), summing the pmf up to ``floor(threshold)`` (snapped).

    It is ``binom_tail_upper(n, 1-theta, n-threshold)``, the upper tail of
    ``n - X``, as ``ceil(n-c-snap) = n - floor(c+snap)``; it stops early too.
    """
    n, theta = _validate_n_theta(n, theta)
    return binom_tail_upper(n, 1.0 - theta, n - _threshold(threshold, "threshold"))


@dataclass(frozen=True)
class TailBoundResult:
    """Exact upper tail next to its geometric-series bound.

    ``valid`` is true when the bound's term ratio is strictly below one, so the geometric
    sum converges and ``lemma_bound`` is finite; for ``n`` below about ``10**9``, always.
    """

    exact_tail: float
    lemma_bound: float
    geometric_prefactor: float
    valid: bool


def lemma_tail_bound(n: int, theta: float, k: float) -> TailBoundResult:
    """Geometric-series bound on P(X >= n*k) for X ~ Binomial(n, theta).

    With ``j = ceil(n*k)``, consecutive pmf terms beyond ``j`` shrink by at
    least ``r = (n-j)*theta / ((j+1)*(1-theta))``, so when ``r < 1`` the tail
    is at most ``pmf(j) / (1 - r)``. Requires ``0 < theta < k < 1``, so ``r < 1`` for
    ``n`` below about ``10**9``: ``j + 1 - (n+1)*theta >= n*(k - theta) + 1 - theta - 1e-9``,
    or ``j = n`` within 1e-9 of ``theta = 1``. The ``r >= 1`` guard is for floats past that.
    """
    n, theta = _validate_n_theta(n, theta)
    k = _strict_float(k, "k")
    if not (0.0 < theta < k < 1.0):
        raise ValueError(f"need 0 < theta < k < 1, got theta={theta}, k={k}")
    j = _ceil_snapped(n * k)  # in [0, n], as 0 < n*k < n
    r = (n - j) * theta / ((j + 1) * (1.0 - theta))
    exact = binom_tail_upper(n, theta, n * k)
    if r >= 1.0:
        return TailBoundResult(exact, math.inf, math.inf, False)
    prefactor = 1.0 / (1.0 - r)
    bound = prefactor * math.exp(_log_pmf(n, j, theta))
    return TailBoundResult(exact, bound, prefactor, True)


def prob_mmax_below(n: int, t: int, theta: float, c: float) -> float:
    """P(max of t iid Binomial(n, theta) draws < c), in log domain.

    This is the probability that every row's erasure count stays below ``c``,
    i.e. ``(1 - P(X >= c))**t`` computed as ``exp(t*log1p(-tail))``.
    """
    t = _int_at_least(t, "t")
    tail = binom_tail_upper(n, theta, _threshold(c, "c"))
    if tail >= 1.0:
        return 0.0
    return math.exp(t * math.log1p(-tail))  # exactly 1.0 at a tail of 0.0


def prob_mmin_below(n: int, t: int, theta: float, c: float) -> float:
    """P(min of t iid Binomial(n, theta) draws < c) = 1 - P(X >= c)**t."""
    t = _int_at_least(t, "t")
    tail = binom_tail_upper(n, theta, _threshold(c, "c"))
    if tail == 0.0:
        return 1.0
    if tail >= 1.0:
        return 0.0
    return -math.expm1(t * math.log(tail))


def support_budget(theta: float, t: int) -> tuple[int, int]:
    """Largest per-row support with a recovery guarantee at erasure rate theta.

    Returns ``(per_row, total)`` with ``per_row = ceil(1/(2*theta)) - 1`` and
    ``total = t * per_row``. The snap guard keeps exact reciprocals (e.g.
    ``theta = 1/6``) from rounding up spuriously.
    """
    t = _int_at_least(t, "t")
    theta = _strict_float(theta, "theta")
    if not (0.0 < theta <= 1.0):
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    per_row = _ceil_snapped(1.0 / (2.0 * theta)) - 1
    per_row = max(per_row, 0)
    return per_row, t * per_row
