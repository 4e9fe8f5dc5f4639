import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gabor_recover.probbounds import (
    TailBoundResult,
    binom_tail_lower,
    binom_tail_upper,
    lemma_tail_bound,
    prob_mmax_below,
    prob_mmin_below,
    support_budget,
)

from conftest import binom_lower_frac, binom_pmf_frac, binom_upper_frac

# frozen from the exact-rational oracle in conftest
UPPER_10_03_5 = 0.15026833259999997
LOWER_10_07_3 = 0.01059207840000001


class TestBinomTailUpper:
    @pytest.mark.parametrize("n,theta", [(1, 0.0), (5, 0.3), (40, 1.0)])
    def test_whole_support_gives_one(self, n, theta):
        assert binom_tail_upper(n, theta, 0) == 1.0
        assert binom_tail_upper(n, theta, -3.7) == 1.0

    def test_above_support_gives_zero(self):
        assert binom_tail_upper(10, 0.5, 11) == 0.0

    def test_six_term_tail_frozen(self):
        got = binom_tail_upper(10, 0.3, 5)
        assert abs(got - UPPER_10_03_5) <= 1e-12

    def test_degenerate_theta(self):
        assert binom_tail_upper(12, 0.0, 1) == 0.0
        assert binom_tail_upper(12, 1.0, 12) == 1.0

    def test_threshold_snapped_to_exact_integer(self):
        # 400*0.35 lands a hair above 140; ceil must not jump to 141
        assert binom_tail_upper(400, 0.3, 400 * 0.35) == binom_tail_upper(400, 0.3, 140)

    def test_fractional_threshold_rounds_up(self):
        assert binom_tail_upper(10, 0.3, 4.2) == binom_tail_upper(10, 0.3, 5)

    @pytest.mark.parametrize("n", [1, 2, 5, 13, 30])
    @pytest.mark.parametrize("theta", [0.02, 0.3, 0.5, 0.77])
    def test_matches_rational_oracle(self, n, theta):
        th = Fraction(theta)
        for c in {0, 1, n // 3, n // 2, n - 1, n}:
            want = float(binom_upper_frac(n, th, c))
            assert abs(binom_tail_upper(n, theta, c) - want) <= 1e-12

    def test_stop_at_underflow_matches_full_sum(self):
        # past the mode the terms underflow to 0.0 long before y = n
        n, theta, j = 30000, 0.1, 3100

        def term(y):
            log_comb = math.lgamma(n + 1) - math.lgamma(y + 1) - math.lgamma(n - y + 1)
            return math.exp(log_comb + y * math.log(theta) + (n - y) * math.log1p(-theta))

        terms = [term(y) for y in range(j, n + 1)]
        assert terms[0] > 0.0 and terms[-1] == 0.0
        assert binom_tail_upper(n, theta, j) == min(1.0, math.fsum(terms))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            binom_tail_upper(0, 0.5, 1)
        with pytest.raises(ValueError):
            binom_tail_upper(4, 1.5, 1)
        for n in (True, np.bool_(True), 10.0):
            with pytest.raises(ValueError, match="n must be an integer"):
                binom_tail_upper(n, 0.5, 1)
        # theta and k are numbers, never a bool or a string
        for theta in (True, np.bool_(True), "0.1", None):
            for call in (lambda: binom_tail_upper(16, theta, 4),
                         lambda: binom_tail_lower(16, theta, 4),
                         lambda: prob_mmax_below(16, 4, theta, 4),
                         lambda: prob_mmin_below(16, 4, theta, 4),
                         lambda: lemma_tail_bound(16, theta, 0.5),
                         lambda: support_budget(theta, 4)):
                with pytest.raises(ValueError, match="theta must be a number"):
                    call()
        for k in (True, "0.5", None):
            with pytest.raises(ValueError, match="k must be a number"):
                lemma_tail_bound(16, 0.1, k)
        # tail thresholds are numbers too, never NaN, and each failure names its argument
        for value in (math.nan, np.float64(math.nan), True, np.bool_(True), "3", None):
            for name, call in (("threshold", lambda: binom_tail_upper(16, 0.1, value)),
                               ("threshold", lambda: binom_tail_lower(16, 0.1, value)),
                               ("c", lambda: prob_mmax_below(16, 4, 0.1, value)),
                               ("c", lambda: prob_mmin_below(16, 4, 0.1, value))):
                with pytest.raises(ValueError, match=f"^{name} must be a number"):
                    call()

    def test_infinite_thresholds_fall_outside_the_support(self):
        # above n the upper tail is 0, at or below 0 it is 1, and the lower tail mirrors it
        for theta in (0.0, 0.3, 1.0):
            assert binom_tail_upper(16, theta, math.inf) == 0.0
            assert binom_tail_upper(16, theta, -math.inf) == 1.0
            assert binom_tail_lower(16, theta, math.inf) == 1.0
            assert binom_tail_lower(16, theta, -math.inf) == 0.0
        for below in (prob_mmax_below, prob_mmin_below):
            assert below(16, 4, 0.3, math.inf) == 1.0
            assert below(16, 4, 0.3, -math.inf) == 0.0

    @pytest.mark.parametrize("n", [np.int64(10), np.int32(10), np.uint8(10)],
                             ids=lambda n: type(n).__name__)
    def test_numpy_integer_n_reads_as_its_int(self, n):
        assert binom_tail_upper(n, 0.3, 3) == binom_tail_upper(10, 0.3, 3)
        assert binom_tail_lower(n, 0.3, 3) == binom_tail_lower(10, 0.3, 3)
        assert prob_mmax_below(n, 4, 0.3, 3) == prob_mmax_below(10, 4, 0.3, 3)
        assert prob_mmin_below(n, 4, 0.3, 3) == prob_mmin_below(10, 4, 0.3, 3)
        assert lemma_tail_bound(n, 0.1, 0.5) == lemma_tail_bound(10, 0.1, 0.5)


class TestBinomTailLower:
    def test_whole_support_gives_one(self):
        assert binom_tail_lower(10, 0.4, 10) == 1.0
        assert binom_tail_lower(10, 0.4, 25) == 1.0

    def test_below_support_gives_zero(self):
        assert binom_tail_lower(10, 0.4, -1) == 0.0

    def test_reflection_example_frozen(self):
        got = binom_tail_lower(10, 0.7, 3)
        assert abs(got - LOWER_10_07_3) <= 1e-12
        assert got == pytest.approx(binom_tail_upper(10, 0.3, 7), abs=1e-12)

    @pytest.mark.parametrize("n", [3, 10, 27])
    @pytest.mark.parametrize("theta", [0.1, 0.5, 0.9])
    def test_reflection_identity(self, n, theta):
        for c in range(-1, n + 2):
            lhs = binom_tail_lower(n, theta, c)
            rhs = binom_tail_upper(n, 1.0 - theta, n - c)
            assert abs(lhs - rhs) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 5, 13, 30])
    @pytest.mark.parametrize("theta", [0.02, 0.3, 0.5, 0.77])
    def test_matches_rational_oracle(self, n, theta):
        th = Fraction(theta)
        for c in {0, 1, n // 3, n // 2, n - 1, n}:
            want = float(binom_lower_frac(n, th, c))
            assert abs(binom_tail_lower(n, theta, c) - want) <= 1e-12

    def test_far_tail_at_large_n_is_the_reflected_upper_tail(self):
        # summing from 0 walked 750001 underflowing terms here
        assert binom_tail_lower(1000000, 0.9, 750000) == binom_tail_upper(1000000, 1 - 0.9,
                                                                          1000000 - 750000)


TAIL_THETAS = [1 / 1000, 1 / 10, 1 / 6, 1 / 3, 2 / 5, 1 / 2, 9 / 10, 999 / 1000]


def assert_matches_exact(got, exact):
    # relative to the exact tail where it is a normal float; an exact 0 stays 0
    if exact == 0:
        assert got == 0.0
    elif exact >= sys.float_info.min:
        assert abs(got - float(exact)) <= 1e-11 * float(exact)


class TestTailsAgainstExactSums:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.integers(1, 80), theta=st.sampled_from(TAIL_THETAS),
           threshold=st.one_of(st.integers(-2, 82),
                               st.floats(-2.0, 82.0, allow_nan=False)))
    def test_upper_and_lower_tails(self, n, theta, threshold):
        # the reference sums the exact pmf of the float theta the tails are given
        th = Fraction(theta)
        assert_matches_exact(binom_tail_upper(n, theta, threshold),
                             binom_upper_frac(n, th, threshold))
        assert_matches_exact(binom_tail_lower(n, theta, threshold),
                             binom_lower_frac(n, th, threshold))


class TestLemmaTailBound:
    def test_reference_point(self):
        res = lemma_tail_bound(100, 0.1, 0.3)
        assert isinstance(res, TailBoundResult)
        assert res.valid
        assert res.exact_tail == pytest.approx(2.445112239390969e-08, rel=1e-12)
        assert res.exact_tail <= res.lemma_bound
        # j = ceil(100*0.3) = 30, r = 70*0.1 / (31*0.9)
        r = 70 * 0.1 / (31 * 0.9)
        assert res.geometric_prefactor == pytest.approx(1.0 / (1.0 - r), rel=1e-12)
        pmf = float(binom_pmf_frac(100, 30, Fraction(0.1)))
        assert res.lemma_bound == pytest.approx(res.geometric_prefactor * pmf, rel=1e-10)

    def test_bound_and_scaled_bound_decrease_in_n(self):
        ns = [100, 200, 400, 800]
        bounds = [lemma_tail_bound(n, 0.1, 0.3).lemma_bound for n in ns]
        for a, b in zip(bounds, bounds[1:]):
            assert b < a
        scaled = [n * b for n, b in zip(ns, bounds)]
        for a, b in zip(scaled, scaled[1:]):
            assert b < a
        assert scaled[-1] < 1e-50

    def test_rejects_k_not_above_theta(self):
        with pytest.raises(ValueError):
            lemma_tail_bound(100, 0.3, 0.3)
        with pytest.raises(ValueError):
            lemma_tail_bound(100, 0.3, 0.1)
        with pytest.raises(ValueError):
            lemma_tail_bound(100, 0.3, 1.0)

    def test_exact_never_exceeds_bound_on_grid(self):
        for n in [*range(2, 501, 7), 500]:
            for theta in (0.05, 0.1, 0.2):
                for k in (theta + 0.05, theta + 0.35, 0.65, 0.9):
                    res = lemma_tail_bound(n, theta, k)
                    assert 0.0 <= res.exact_tail <= 1.0
                    if res.valid:
                        assert res.exact_tail <= res.lemma_bound * (1 + 1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(1, 10**5), a=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           b=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), one_ulp=st.booleans())
    def test_bound_is_valid_whenever_theta_is_below_k(self, n, a, b, one_ulp):
        # j = ceil(n*k) >= n*k, so j + 1 - (n+1)*theta >= n*(k - theta) + 1 - theta > 0,
        # which is r < 1; near theta = 1, j = n and r = 0
        theta = min(a, b)
        k = math.nextafter(theta, 1.0) if one_ulp else max(a, b)
        assume(theta < k < 1.0)
        res = lemma_tail_bound(n, theta, k)
        assert res.valid and math.isfinite(res.lemma_bound)


class TestProbMmaxBelow:
    def test_single_row_is_binomial_cdf(self):
        got = prob_mmax_below(12, 1, 0.3, 5)
        assert got == pytest.approx(binom_tail_lower(12, 0.3, 4), abs=1e-12)
        assert got == pytest.approx(1.0 - binom_tail_upper(12, 0.3, 5), abs=1e-12)

    def test_certain_event(self):
        assert prob_mmax_below(8, 5, 0.9, 9) == 1.0

    def test_impossible_event(self):
        assert prob_mmax_below(8, 5, 0.9, 0) == 0.0

    def test_monte_carlo_agreement(self):
        n, t, theta, c = 64, 8, 0.05, 16.0
        p = prob_mmax_below(n, t, theta, c)
        gen = np.random.default_rng(20240817)
        trials = 100_000
        draws = gen.binomial(n, theta, size=(trials, t))
        freq = float((draws.max(axis=1) < c).mean())
        se = math.sqrt(max(p * (1 - p), 1e-300) / trials)
        assert abs(freq - p) <= 3 * se + 1e-12

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            prob_mmax_below(8, 0, 0.5, 2)


class TestProbMminBelow:
    def test_single_row_matches_mmax(self):
        assert prob_mmin_below(12, 1, 0.3, 5) == pytest.approx(
            prob_mmax_below(12, 1, 0.3, 5), abs=1e-15
        )

    def test_everything_erased(self):
        assert prob_mmin_below(8, 4, 1.0, 8) == 0.0

    def test_monte_carlo_agreement_and_small(self):
        n, t, theta, c = 64, 8, 0.4, 16.0
        p = prob_mmin_below(n, t, theta, c)
        assert p < 0.1
        gen = np.random.default_rng(424987)
        trials = 100_000
        draws = gen.binomial(n, theta, size=(trials, t))
        freq = float((draws.min(axis=1) < c).mean())
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(freq - p) <= 3 * se

    def test_complement_relation_one_row(self):
        # for t=1 both probabilities describe the same event
        for c in (0, 3, 7, 13):
            a = prob_mmax_below(12, 1, 0.25, c)
            b = prob_mmin_below(12, 1, 0.25, c)
            assert a == pytest.approx(b, abs=1e-15)


class TestSupportBudget:
    def test_frozen_examples(self):
        assert support_budget(0.05, 10) == (9, 90)
        assert support_budget(0.5, 4) == (0, 0)
        assert support_budget(1.0, 4) == (0, 0)
        assert support_budget(0.25, 4) == (1, 4)

    def test_exact_reciprocal_not_rounded_up(self):
        # 1/(2*(1/6)) is 3 up to float noise; budget must be 2, not 3
        assert support_budget(1 / 6, 8) == (2, 16)

    def test_budget_is_largest_below_reciprocal(self):
        for theta in (0.03, 0.1, 1 / 6, 0.2, 0.33, 0.49, 0.8):
            per_row, total = support_budget(theta, 5)
            assert total == 5 * per_row
            assert 2 * per_row * theta < 1.0 + 1e-9
            assert 2 * (per_row + 1) * theta >= 1.0 - 1e-9

    def test_rejects_zero_theta(self):
        with pytest.raises(ValueError):
            support_budget(0.0, 4)
        with pytest.raises(ValueError):
            support_budget(0.3, 0)

    @pytest.mark.parametrize("theta", [5e-324, 2.7e-309], ids=["least-subnormal", "subnormal"])
    def test_rejects_theta_whose_reciprocal_overflows(self, theta):
        # 1/(2*theta) is inf here, which math.ceil once turned into an OverflowError
        with pytest.raises(ValueError, match="theta=.* is too small"):
            support_budget(theta, 4)


class TestRowCountValidation:
    """``t`` is read like ``n``: an integer, numpy's too, never a bool, and at least 1."""

    @pytest.mark.parametrize("t", [2.5, 16.0, True, np.bool_(True), "16", None],
                             ids=["fraction", "integral-float", "bool", "numpy-bool", "string",
                                  "none"])
    def test_rejects_t_that_is_not_an_integer(self, t):
        with pytest.raises(ValueError, match="t must be an integer"):
            prob_mmax_below(64, t, 0.1, 16)
        with pytest.raises(ValueError, match="t must be an integer"):
            prob_mmin_below(64, t, 0.1, 16)
        with pytest.raises(ValueError, match="t must be an integer"):
            support_budget(0.1, t)

    @pytest.mark.parametrize("t", [np.int64(16), np.int32(16), np.uint8(16)],
                             ids=lambda t: type(t).__name__)
    def test_numpy_integer_t_reads_as_its_int(self, t):
        assert prob_mmax_below(64, t, 0.1, 16) == prob_mmax_below(64, 16, 0.1, 16)
        assert prob_mmin_below(64, t, 0.1, 16) == prob_mmin_below(64, 16, 0.1, 16)
        per_row, total = support_budget(0.1, t)
        assert (per_row, total) == (4, 64) and type(total) is int


class TestAsymptoticSweeps:
    def test_mmax_probability_climbs_to_one(self):
        # theta below the recoverable-rate threshold for per-row support 2
        theta, t, e_max = 0.1, 16, 2
        sizes = [2 ** p for p in range(4, 13)]
        vals = [prob_mmax_below(n, t, theta, n / (2 * e_max)) for n in sizes]
        assert vals[-1] > 0.999
        first_peak = next(
            (i for i in range(len(vals) - 1) if vals[i] >= vals[i + 1]),
            len(vals) - 1,
        )
        tail = vals[first_peak + 1 :]
        for a, b in zip(tail, tail[1:]):
            assert b >= a

    def test_mmin_probability_drops_to_zero(self):
        theta, t, e_max = 0.4, 16, 2
        sizes = [2 ** p for p in range(4, 13)]
        vals = [prob_mmin_below(n, t, theta, n / (2 * e_max)) for n in sizes]
        assert vals[-1] < 1e-3
