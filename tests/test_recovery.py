import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gabor_recover import recovery
from gabor_recover.channel import ErasurePattern, apply_erasure, sample_erasure
from gabor_recover.experiments import ProfileShape, generate_test_signal
from gabor_recover.recovery import (
    L1Domain,
    RecoveryProblem,
    RecoveryReport,
    RecoveryStage,
    RowStatus,
    ds_condition,
    l1_recover_1d,
    l1_recover_many,
    recover_rows,
    recover_two_stage,
    report_to_json,
    uniqueness_oracle_1d,
)
from gabor_recover.signal import GridDims, Signal2D, support_profile
from gabor_recover.transforms import TransformKind, gabor_col, gabor_row, gabor_row_inverse


def row_spectrum(sig_row):
    n = sig_row.shape[0]
    return np.fft.fft(sig_row) / math.sqrt(n)


def row_spectrum_many(rows):
    return np.fft.fft(rows, axis=-1) / math.sqrt(rows.shape[-1])


def freq_map(sig_row, missing):
    spec = row_spectrum(sig_row)
    return {m: complex(spec[m]) for m in range(len(sig_row)) if m not in missing}


def planted_instance(sparse, domain):
    """``(signal, data)`` for a sparse vector planted on the L1 side of ``domain``.

    For MinimizeSignalL1 the sparse vector is the signal and the data is its
    spectrum; for MinimizeFreqL1 it is the spectrum and the data is the signal.
    """
    if domain is L1Domain.MinimizeSignalL1:
        return sparse, row_spectrum(sparse)
    sig = np.fft.ifft(sparse) * math.sqrt(sparse.shape[0])
    return sig, sig


BOTH_DOMAINS = pytest.mark.parametrize("domain", list(L1Domain), ids=lambda d: d.value)


class TestDsCondition:
    def test_examples(self):
        assert ds_condition(1, 5, 4, 3) is True
        assert ds_condition(2, 3, 4, 3) is False
        assert ds_condition(0, 6, 4, 3) is True
        assert ds_condition(0, 0, 1, 1) is True

    def test_default_single_row(self):
        assert ds_condition(1, 1, 4) is True
        assert ds_condition(1, 2, 4) is False

    def test_elementwise_over_arrays(self):
        got = ds_condition(np.array([1, 2, 0]), np.array([1, 1, 9]), 4)
        assert got.tolist() == [True, False, True]
        assert ds_condition(np.int64(1), np.int64(1), 4) is True
        with pytest.raises(ValueError):
            ds_condition(np.array([1, 1]), np.array([1, -1]), 4)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            ds_condition(-1, 2, 4, 3)
        with pytest.raises(ValueError):
            ds_condition(1, 2, 0, 3)


@st.composite
def width_support_missing(draw, widths):
    """A width from ``widths``, a nonempty support and a missing set sparing one position."""
    n = draw(st.sampled_from(widths))
    positions = st.integers(0, n - 1)
    return n, draw(st.sets(positions, min_size=1)), draw(st.sets(positions, max_size=n - 1))


def dft_submatrix(n, support, missing):
    """The unitary DFT submatrix on the observed rows and the ``support`` columns."""
    k = np.arange(n)
    F = np.exp(-2j * np.pi * np.outer(k, k) / n) / math.sqrt(n)
    return F[np.ix_([m for m in k if m not in missing], sorted(support))]


def least_squares_dual(n, support, missing, signs):
    """``(E^H A (A^H A)^{-1} signs, A^H A)`` from the dense unitary DFT.

    ``E`` holds its observed rows and ``A`` their ``support`` columns, so the
    first entry is the polish's dual for the sign vector ``signs`` on ``S``.
    """
    E = dft_submatrix(n, range(n), missing)
    A = E[:, sorted(support)]
    gram = A.conj().T @ A
    return E.conj().T @ (A @ np.linalg.solve(gram, signs)), gram


def explicit_rank_test(n, support, missing):
    """Whether that submatrix has full column rank at ``matrix_rank``'s default cutoff."""
    return int(np.linalg.matrix_rank(dft_submatrix(n, support, missing))) == len(support)


def sigma_ratio(n, support, missing):
    """sigma_min/sigma_max of that submatrix, 0 when the columns outnumber the rows."""
    sv = np.linalg.svd(dft_submatrix(n, support, missing), compute_uv=False)
    return float(sv[len(support) - 1] / sv[0]) if len(support) <= sv.size else 0.0


def picket_fences(n):
    """``(support, missing)`` of the Donoho-Stark witnesses ``chi_b * 1_{a+H}`` on ``Z_n``.

    ``H`` runs over the subgroups of ``Z_n`` and ``(a, b)`` over a few shifts;
    the witness's spectrum lies on ``b + H^perp``.
    """
    for d in (d for d in range(1, n + 1) if n % d == 0):
        for a, b in itertools.product((0, 1, n - 1), repeat=2):
            yield {(a + h) % n for h in range(0, n, n // d)}, {(b + h) % n for h in range(0, n, d)}


class TestUniquenessOracle:
    def test_no_missing_always_unique(self):
        assert uniqueness_oracle_1d(set(), set(), 5) is True
        assert uniqueness_oracle_1d({0, 2, 4}, set(), 5) is True
        assert uniqueness_oracle_1d(set(range(5)), set(), 5) is True

    def test_full_support_with_missing_not_unique(self):
        assert uniqueness_oracle_1d(set(range(6)), {3}, 6) is False

    def test_more_unknowns_than_equations(self):
        assert uniqueness_oracle_1d({0, 1, 2}, {0, 1, 2, 3}, 5) is False

    def test_extremal_comb_not_unique(self):
        # two-point support whose difference vector lies in the kernel
        assert uniqueness_oracle_1d({0, 2}, {0, 2}, 4) is False

    def test_product_condition_implies_unique_small(self):
        for n in (4, 5, 6):
            positions = range(n)
            for s_size in range(0, n + 1):
                for m_size in range(0, n + 1):
                    if 2 * s_size * m_size >= n:
                        continue
                    for supp in itertools.combinations(positions, s_size):
                        for miss in itertools.combinations(positions, m_size):
                            assert uniqueness_oracle_1d(set(supp), set(miss), n)

    def test_prime_width_contiguous_blocks_are_unique(self):
        # Chebotarev: at prime p any |S| <= p - |M| is unique; a float rank
        # test at p=257 rejects some of these ill-conditioned blocks
        p = 257
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = int(rng.integers(1, p))
            start = int(rng.integers(0, p))
            miss = {(start + k) % p for k in range(m)}
            supp = set(rng.choice(p, size=p - m, replace=False).tolist())
            assert uniqueness_oracle_1d(supp, miss, p) is True

    # The float test decides well-conditioned pairs. Below a sigma ratio of
    # 1e-8 every pair is exactly dependent: an exhaustive sweep at n <= 10
    # finds every exactly full-rank pair above 0.02, while matrix_rank's
    # cutoff calls some dependent pairs at 5e-16 full rank.
    @pytest.mark.parametrize("widths", [[2, 3, 5, 7, 11, 13, 17, 19, 23], [4, 6, 8, 9, 10, 12]],
                             ids=["prime", "composite"])
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_the_explicit_rank_test(self, widths, data):
        n, supp, miss = data.draw(width_support_missing(widths))
        got = uniqueness_oracle_1d(supp, miss, n)
        if sigma_ratio(n, supp, miss) > 1e-8:
            assert got is explicit_rank_test(n, supp, miss)
        else:
            assert got is False

    @pytest.mark.parametrize("n", range(4, 17))
    def test_rejects_picket_fences(self, n):
        # |S| * |M| = n: the strict Donoho-Stark bound the oracle uses is tight
        for supp, miss in picket_fences(n):
            assert len(supp) * len(miss) == n
            cols = sorted(supp)
            g = np.zeros(n, dtype=complex)
            g[cols] = np.exp(2j * np.pi * min(miss) * np.array(cols) / n)
            assert np.abs(row_spectrum(g)[[m for m in range(n) if m not in miss]]).max(initial=0) < 1e-9
            assert uniqueness_oracle_1d(supp, miss, n) is False

    # exactly rank-deficient pairs whose sigma ratio sits at rounding level
    @pytest.mark.parametrize("n, supp, miss", [
        (6, {0, 3}, {0, 2, 3, 4}),
        (8, {0, 3, 7}, {0, 2, 3, 4, 6}),
        (9, {0, 2, 5}, {0, 1, 3, 4, 6, 7}),
        (10, {0, 5}, {0, 1, 2, 3, 4, 6, 8}),
        (12, {5, 9}, {0, 2, 3, 4, 5, 6, 8, 9, 10, 11}),
    ])
    def test_rejects_pairs_below_the_float_cutoff(self, n, supp, miss):
        assert sigma_ratio(n, supp, miss) < 1e-12
        assert uniqueness_oracle_1d(supp, miss, n) is False

    # the exact rank, without the Donoho-Stark shortcut, on pairs it settles
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_donoho_stark_pairs_have_full_exact_rank(self, data):
        n = data.draw(st.sampled_from([4, 6, 8, 9, 10, 12, 14, 15, 16, 18, 20, 21, 24, 25, 27, 32]))
        positions = st.integers(0, n - 1)
        miss = data.draw(st.sets(positions, min_size=1, max_size=n - 1))
        supp = data.draw(st.sets(positions, min_size=1, max_size=(n - 1) // len(miss)))
        observed = [m for m in range(n) if m not in miss]
        assert recovery._dft_rank(observed, sorted(supp), n) == len(supp)

    @pytest.mark.parametrize("n", [9, 10, 12])
    def test_exact_rank_does_not_depend_on_the_primes(self, n, monkeypatch):
        # primes just above n divide some nonzero minors, so there the rank
        # must come from the stopping bound, not from the first ideal tried
        rng = np.random.default_rng(n)
        pairs = [(sorted(rng.choice(n, size=s, replace=False).tolist()),
                  sorted(rng.choice(n, size=s, replace=False).tolist()))
                 for s in rng.integers(3, 5, size=400).tolist()]
        ranks = [recovery._dft_rank(rows, cols, n) for rows, cols in pairs]
        p, w = recovery._next_degree_one_prime(n, 0)
        first = [recovery._rank_mod([[pow(w, -j * k % n, p) for j in rows] for k in cols], p)
                 for rows, cols in pairs]
        assert any(f < r for f, r in zip(first, ranks))
        monkeypatch.setattr(recovery, "_PRIMES_PAST", 0)
        assert [recovery._dft_rank(rows, cols, n) for rows, cols in pairs] == ranks

    def test_degree_one_primes(self):
        assert [q for q in range(60) if recovery._is_prime(q)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
        # a Carmichael number and a strong pseudoprime to every base up to 23
        assert not recovery._is_prime(561)
        assert not recovery._is_prime(3825123056546413051)
        assert recovery._is_prime(2**61 - 1)
        for n in (4, 6, 9, 10, 12, 16):
            p = 0
            for _ in range(3):
                after, (p, w) = p, recovery._next_degree_one_prime(n, p)
                assert p > after and p % n == 1 and recovery._is_prime(p)
                assert not any(recovery._is_prime(q) for q in range(after + 1, p) if q % n == 1)
                assert pow(w, n, p) == 1
                assert all(pow(w, n // q, p) != 1 for q in (2, 3, 5) if n % q == 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            uniqueness_oracle_1d({5}, set(), 5)
        with pytest.raises(ValueError):
            uniqueness_oracle_1d({0}, {-1}, 5)

    # a position is never truncated or read from a bool, and the width is an integer
    @pytest.mark.parametrize("supp, miss, n, name", [
        ({1.5}, set(), 4, "support position"),
        ({0}, {True}, 4, "missing position"),
        ({0, 1}, {2.7}, 4, "missing position"),
        ({0}, {1}, 4.0, "n"),
        ({0}, {1}, True, "n"),
        ({0}, {1}, 0, "n"),
    ], ids=["float-support", "bool-missing", "float-missing", "float-n", "bool-n", "zero-n"])
    def test_reads_positions_and_width_strictly(self, supp, miss, n, name):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            uniqueness_oracle_1d(supp, miss, n)

    def test_numpy_integers_read_as_their_ints(self):
        # {0, 2} against {0, 2} at n=4 is the comb pair, not unique; {0} against {1} is
        for supp, miss, n in (({0, 2}, {0, 2}, 4), ({0}, {1}, 4), ({0, 3}, {0, 2, 3, 4}, 6)):
            as_numpy = ({np.int64(s) for s in supp}, {np.int32(m) for m in miss}, np.int64(n))
            mixed = ({np.uint8(s) if s else s for s in supp}, {float(m) for m in miss}, n)
            expected = uniqueness_oracle_1d(supp, miss, n)
            assert uniqueness_oracle_1d(*as_numpy) is expected
            assert uniqueness_oracle_1d(*mixed) is expected


class TestL1Recover1d:
    def test_nothing_missing_inverts_spectrum(self, rng):
        n = 8
        sig = rng.normal(size=n) + 1j * rng.normal(size=n)
        got = l1_recover_1d(freq_map(sig, set()), set(), n)
        assert np.allclose(got, sig, atol=1e-12)

    def test_nothing_missing_freq_domain_returns_samples(self, rng):
        n = 6
        sig = rng.normal(size=n) + 1j * rng.normal(size=n)
        observed = {i: complex(sig[i]) for i in range(n)}
        got = l1_recover_1d(observed, set(), n, domain=L1Domain.MinimizeFreqL1)
        assert np.allclose(got, sig, atol=1e-12)

    def test_scaled_delta_recovered_from_five_of_eight(self):
        n = 8
        sig = np.zeros(n, dtype=complex)
        sig[2] = 3.0
        missing = {1, 4, 6}
        assert uniqueness_oracle_1d({2}, missing, n) is True
        got = l1_recover_1d(freq_map(sig, missing), missing, n)
        assert got is not None
        assert np.linalg.norm(got - sig) / np.linalg.norm(sig) < 1e-6

    def test_zero_budget_returns_only_what_the_first_polish_certifies(self):
        # the polish before any step is not an iteration, so it runs at max_iter=0;
        # both rows are Donoho-Stark certified, and the budget decides the second
        n = 16
        polished, rejected = np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
        polished[[3, 12]] = [1.0 - 0.5j, 0.6 + 0.2j]
        rejected[[7, 10]] = [-0.846 + 0.629j, 0.157 + 0.009j]
        for sig, missing in ((polished, {1, 6, 11}), (rejected, {0})):
            assert ds_condition(np.count_nonzero(sig), len(missing), n)
        got = l1_recover_1d(freq_map(polished, {1, 6, 11}), {1, 6, 11}, n, max_iter=0)
        assert np.allclose(got, polished, atol=1e-12)
        assert l1_recover_1d(freq_map(rejected, {0}), {0}, n, max_iter=0) is None
        assert np.allclose(l1_recover_1d(freq_map(rejected, {0}), {0}, n), rejected, atol=1e-12)

    def test_reads_positions_and_width_strictly(self):
        # n=4 with position 2 missing; a position is never truncated or read from a bool
        observed = {0: 1.0, 1: 0.5j, 3: -0.25}
        assert l1_recover_1d(observed, {2}, 4) is not None
        for obs, missing, n, name in (({0: 1.0, 1.5: 0.5j, 3: -0.25}, {2}, 4, "observed key"),
                                      (observed, {2.7}, 4, "missing position"),
                                      ({0: 1.0, 2: 0.5j, 3: -0.25}, {True}, 4, "missing position"),
                                      (observed, {2}, 4.0, "n")):
            with pytest.raises(ValueError, match=f"^{name} must be "):
                l1_recover_1d(obs, missing, n)
        got = l1_recover_1d({0.0: 1.0, np.int64(1): 0.5j, 3: -0.25}, {2.0}, np.int64(4))
        assert got.tobytes() == l1_recover_1d(observed, {2}, 4).tobytes()

    def test_ambiguous_extremal_instance(self):
        # support {0,2} with spectrum missing at {0,2}: the comb 1,0,1,0 has
        # zero observed spectrum, so the zero signal beats it in L1 norm
        n = 4
        sig = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex)
        missing = {0, 2}
        observed = freq_map(sig, missing)
        assert all(abs(v) < 1e-12 for v in observed.values())
        assert uniqueness_oracle_1d({0, 2}, missing, n) is False
        got = l1_recover_1d(observed, missing, n)
        assert got is not None
        spec = row_spectrum(got)
        for m, v in observed.items():
            assert abs(spec[m] - v) <= 1e-9
        assert np.abs(got).sum() <= np.abs(sig).sum() + 1e-6

    def test_ambiguous_pair_with_matching_observations(self):
        # 2*delta at 0 and -2*delta at 2 share their spectrum off {0, 2}
        n = 4
        a = np.array([2.0, 0, 0, 0], dtype=complex)
        b = np.array([0, 0, -2.0, 0], dtype=complex)
        missing = {0, 2}
        obs_a, obs_b = freq_map(a, missing), freq_map(b, missing)
        assert all(abs(obs_a[m] - obs_b[m]) < 1e-12 for m in obs_a)
        got = l1_recover_1d(obs_a, missing, n)
        assert got is not None
        spec = row_spectrum(got)
        for m, v in obs_a.items():
            assert abs(spec[m] - v) <= 1e-9
        # any output is a minimizer of the shared optimum value 2
        assert abs(np.abs(got).sum() - 2.0) <= 1e-6

    def test_rejects_inconsistent_cover(self):
        with pytest.raises(ValueError):
            l1_recover_1d({0: 1.0}, {1}, 4)
        with pytest.raises(ValueError):
            l1_recover_1d({0: 1.0, 1: 0.0, 2: 0.0, 3: 0.0}, {1}, 4)

    @pytest.mark.parametrize("position", [4, -1])
    def test_rejects_missing_position_outside_the_row(self, position):
        # every position of the row is observed, so only the range check can refuse it
        with pytest.raises(ValueError, match="missing positions must lie in range"):
            l1_recover_1d({0: 1.0, 1: 0.0, 2: 0.0, 3: 0.0}, {position}, 4)

    @BOTH_DOMAINS
    def test_soundness_on_certified_instances(self, rng, domain):
        # whenever the product test passes, the oracle agrees and the solver
        # returns the planted signal (the rank test is the same for the
        # spectral orientation, whose operator is the conjugate DFT)
        for n in (4, 6, 8):
            for s_size in range(1, n):
                for m_size in range(1, n):
                    if 2 * s_size * m_size >= n:
                        continue
                    for _ in range(3):
                        supp = rng.choice(n, size=s_size, replace=False)
                        miss = set(int(v) for v in rng.choice(n, size=m_size, replace=False))
                        assert uniqueness_oracle_1d(set(int(s) for s in supp), miss, n)
                        sparse = np.zeros(n, dtype=complex)
                        sparse[supp] = rng.normal(size=s_size) + 1j * rng.normal(size=s_size)
                        sig, data = planted_instance(sparse, domain)
                        observed = {m: complex(data[m]) for m in range(n) if m not in miss}
                        got = l1_recover_1d(observed, miss, n, domain=domain)
                        assert got is not None
                        err = np.linalg.norm(got - sig) / np.linalg.norm(sig)
                        assert err < 1e-6


class TestL1RecoverMany:
    @BOTH_DOMAINS
    def test_matches_scalar_op(self, rng, domain):
        n, batch = 8, 12
        sparse = np.zeros((batch, n), dtype=complex)
        masks = np.zeros((batch, n), dtype=bool)
        vals = np.zeros((batch, n), dtype=complex)
        for i in range(batch):
            k = int(rng.integers(0, 3))
            supp = rng.choice(n, size=max(k, 1), replace=False)
            sparse[i, supp] = rng.normal(size=supp.size) + 1j * rng.normal(size=supp.size)
            m = int(rng.integers(0, n + 1)) if i % 4 == 0 else int(rng.integers(0, 2))
            miss = rng.choice(n, size=m, replace=False)
            masks[i, miss] = True
            _, data = planted_instance(sparse[i], domain)
            vals[i] = np.where(masks[i], np.nan, data)
        batch_sols, batch_conv, _ = l1_recover_many(np.where(masks, 0, vals), masks, domain)
        for i in range(batch):
            miss = {int(m) for m in np.nonzero(masks[i])[0]}
            observed = {j: complex(vals[i, j]) for j in range(n) if j not in miss}
            single = l1_recover_1d(observed, miss, n, domain=domain)
            if single is None:
                assert not batch_conv[i]
            else:
                assert batch_conv[i]
                assert batch_sols[i].tobytes() == single.tobytes()

    # a nan tol fails every comparison, so no row could polish; a float budget
    # cannot count iterations, and a negative one would run none
    @pytest.mark.parametrize("bad", [{"tol": math.nan}, {"tol": 0.0}, {"tol": math.inf},
                                     {"tol": True}, {"tol": "1e-9"},
                                     {"max_iter": 10.0}, {"max_iter": -1}, {"max_iter": True}],
                             ids=["nan-tol", "zero-tol", "inf-tol", "bool-tol", "str-tol",
                                  "float-budget", "negative-budget", "bool-budget"])
    def test_rejects_bad_tolerance_and_budget(self, bad):
        masks = np.array([[True, False, False, False]])
        (name,) = bad
        with pytest.raises(ValueError, match=f"^{name} "):
            l1_recover_many(np.ones((1, 4), dtype=complex), masks, **bad)

    @BOTH_DOMAINS
    def test_fully_observed_rows_report_their_mismatch(self, domain):
        # a fully observed row inverts directly and misses its data by rounding, not by 0
        n = 8
        _, masks, data = planted_batch(5, n, domain)
        masks[[0, 3]] = False
        sols, conv, resid = l1_recover_many(np.where(masks, 0, data), masks, domain)
        transform = row_spectrum_many(sols) if domain is L1Domain.MinimizeSignalL1 else sols
        mismatch = np.where(masks, 0.0, np.abs(transform - data)).max(axis=1)
        assert conv[[0, 3]].all() and (mismatch[[0, 3]] > 0).any()
        assert resid[[0, 3]].tobytes() == mismatch[[0, 3]].tobytes()

    def test_rejects_zero_width_rows(self):
        with pytest.raises(ValueError, match="width n"):
            l1_recover_many(np.ones((1, 0), dtype=complex), np.zeros((1, 0), dtype=bool))

    @pytest.mark.parametrize("values, mask", [
        (np.ones((1, 4)), np.zeros((1, 5), dtype=bool)),
        (np.ones(4), np.zeros(4, dtype=bool)),
    ], ids=["widths-differ", "one-dimensional"])
    def test_rejects_values_and_mask_of_other_shapes(self, values, mask):
        with pytest.raises(ValueError, match="must share a"):
            l1_recover_many(values, mask)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)],
                             ids=["nan", "inf", "imaginary-inf"])
    def test_nonfinite_values_refused_where_observed_only(self, bad):
        masks = np.array([[True, False, False, False]])
        vals = np.ones((1, 4), dtype=complex)
        vals[0, 2] = bad
        with pytest.raises(ValueError, match="observed values must be finite"):
            l1_recover_many(vals, masks)
        # at a missing position the value is never read
        vals = np.ones((1, 4), dtype=complex)
        got = l1_recover_many(vals, masks)
        vals[0, 0] = bad
        assert all(a.tobytes() == b.tobytes() for a, b in zip(l1_recover_many(vals, masks), got))

    def test_rejects_a_domain_given_by_its_name(self):
        with pytest.raises(ValueError, match="unknown domain"):
            l1_recover_many(np.ones((1, 4), dtype=complex), np.zeros((1, 4), dtype=bool),
                            domain="MinimizeSignalL1")

    def test_polish_memory_flat_across_erasure_patterns(self):
        # every row has its own erasure pattern, so nothing built per pattern
        # may outlive the row's polish
        rng = np.random.default_rng(4)
        n, batch = 256, 64
        sparse = np.zeros((batch, n), dtype=complex)
        for i in range(batch):
            supp = rng.choice(n, size=3, replace=False)
            sparse[i, supp] = rng.normal(size=3) + 1j * rng.normal(size=3)
        masks = rng.random((batch, n)) < 0.1
        assert len({row.tobytes() for row in masks}) == batch
        vals = np.where(masks, 0, np.fft.fft(sparse, axis=1) / math.sqrt(n))
        tracemalloc.start()
        try:
            sols, conv, _ = l1_recover_many(vals, masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert conv.all()
        assert np.allclose(sols, sparse, atol=1e-9)
        assert peak < 8 * 2**20

    def test_split_first_check_keeps_stack_copies_out(self):
        # three fully observed rows split the unsolved rows into four runs; the first
        # check polishes the entry arrays a chunk at a time and gathers only what it
        # leaves, about 6 stacks at the peak, where copying the runs out and shrinking
        # them whole reads 9.5
        rng = np.random.default_rng(11)
        n, batch = 256, 64
        sparse = np.zeros((batch, n), dtype=complex)
        for i in range(batch):
            supp = rng.choice(n, size=3, replace=False)
            sparse[i, supp] = rng.normal(size=3) + 1j * rng.normal(size=3)
        masks = rng.random((batch, n)) < 0.1
        masks[[5, 21, 40]] = False
        vals = np.where(masks, 0, row_spectrum_many(sparse))
        l1_recover_many(vals, masks)  # first-call set-up
        tracemalloc.start()
        try:
            sols, conv, _ = l1_recover_many(vals, masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert conv.all() and np.allclose(sols, sparse, atol=1e-9)
        assert peak < 8 * vals.nbytes

    @BOTH_DOMAINS
    @pytest.mark.parametrize("max_iter", [0, 16, recovery.DEFAULT_MAX_ITER])
    def test_reads_read_only_inputs(self, domain, max_iter):
        # the engine reads its entry arrays in place, so it must never write into them
        _, masks, data = planted_batch(7, 16, domain)
        masks[0], masks[3] = True, False  # a fully erased row and a fully observed one
        values = np.where(masks, 0, data)
        expected = l1_recover_many(values.copy(), masks.copy(), domain, max_iter=max_iter)
        values.flags.writeable = masks.flags.writeable = False
        got = l1_recover_many(values, masks, domain, max_iter=max_iter)
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()

    def test_support_past_the_gram_stack_cap_polishes(self):
        # the polish before any step sees all 380 entries of a dense +-1 vector,
        # and a 380x380 Gram alone exceeds the entries stacked per solve
        rng = np.random.default_rng(0)
        n = 400
        dense = np.zeros(n, dtype=complex)
        dense[rng.choice(n, size=380, replace=False)] = np.repeat([1.0, -1.0], 190)
        masks = np.zeros((1, n), dtype=bool)
        masks[0, 0] = True  # the data is 0 there, so the signs certify the vector
        assert 380**2 > recovery._GRAM_ENTRIES
        sols, conv, _ = l1_recover_many(row_spectrum(dense)[None], masks, max_iter=0)
        assert conv[0]
        assert np.allclose(sols[0], dense, atol=1e-9)


def planted_batch(seed, n, domain):
    """Six random sparse rows, random erasure masks and the rows' data in ``domain``."""
    rng = np.random.default_rng(seed)
    batch = 6
    sparse = np.zeros((batch, n), dtype=complex)
    masks = np.zeros((batch, n), dtype=bool)
    for i in range(batch):
        supp = rng.choice(n, size=int(rng.integers(1, n // 4 + 2)), replace=False)
        sparse[i, supp] = rng.normal(size=supp.size) + 1j * rng.normal(size=supp.size)
        masks[i, rng.choice(n, size=int(rng.integers(0, n // 2 + 1)), replace=False)] = True
    return sparse, masks, np.stack([planted_instance(row, domain)[1] for row in sparse])


def l1_side(sols, domain):
    return sols if domain is L1Domain.MinimizeSignalL1 else row_spectrum_many(sols)


class TestBatchSplitting:
    @BOTH_DOMAINS
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(4, 24), seed=st.integers(0, 2**32 - 1),
           max_iter=st.sampled_from([1, 2, 8, recovery.DEFAULT_MAX_ITER]),
           cuts=st.lists(st.integers(0, 6), max_size=4))
    def test_pieces_concatenate_to_the_whole_batch(self, domain, n, seed, max_iter, cuts):
        # each row is solved exactly as it would be alone, so a batch cut anywhere,
        # into pieces that may be empty, gives the whole batch's bytes
        _, masks, data = planted_batch(seed, n, domain)
        masks[0], masks[1] = True, False  # one fully erased row, one erasure-free row
        values = np.where(masks, 0, data)
        whole = l1_recover_many(values, masks, domain, max_iter=max_iter)
        edges = [0, *sorted(cuts), len(values)]
        pieces = [l1_recover_many(values[a:b], masks[a:b], domain, max_iter=max_iter)
                  for a, b in zip(edges, edges[1:])]
        for k, array in enumerate(whole):
            assert np.concatenate([piece[k] for piece in pieces]).tobytes() == array.tobytes()


class TestShiftCovariance:
    @BOTH_DOMAINS
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(4, 24), shift=st.integers(1, 23), seed=st.integers(0, 2**32 - 1),
           max_iter=st.sampled_from([8, 64, recovery.DEFAULT_MAX_ITER]))
    def test_shifted_planted_vector_shifts_the_solution(self, domain, n, shift, seed, max_iter):
        # rolling the sparse vector by k multiplies its transform by a phase
        # ramp on the same mask; the solve must follow to within float noise
        sparse, masks, data = planted_batch(seed, n, domain)
        sign = -1.0 if domain is L1Domain.MinimizeSignalL1 else 1.0
        ramp = np.exp(sign * 2j * np.pi * np.arange(n) * shift / n)
        assert np.allclose(np.stack([planted_instance(np.roll(row, shift), domain)[1]
                                     for row in sparse]), data * ramp, atol=1e-12)

        sols, conv, _ = l1_recover_many(np.where(masks, 0, data), masks, domain, max_iter=max_iter)
        moved, moved_conv, _ = l1_recover_many(np.where(masks, 0, data * ramp), masks, domain,
                                               max_iter=max_iter)
        assert moved_conv.tolist() == conv.tolist()
        assert np.abs(l1_side(moved, domain)
                      - np.roll(l1_side(sols, domain), shift, axis=1)).max() <= 1e-9


class TestModulationCovariance:
    @BOTH_DOMAINS
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(4, 24), k=st.integers(1, 23), seed=st.integers(0, 2**32 - 1),
           max_iter=st.sampled_from([8, 64, recovery.DEFAULT_MAX_ITER]))
    def test_modulated_planted_vector_modulates_the_solution(self, domain, n, k, seed,
                                                             max_iter):
        # a phase ramp on the sparse vector rolls its data and the mask by +-k
        # (the dual of TestShiftCovariance); the solve must take the same ramp
        sparse, masks, data = planted_batch(seed, n, domain)
        ramp = np.exp(2j * np.pi * np.arange(n) * k / n)
        roll = k if domain is L1Domain.MinimizeSignalL1 else -k
        assert np.allclose(np.stack([planted_instance(row * ramp, domain)[1] for row in sparse]),
                           np.roll(data, roll, axis=1), atol=1e-12)

        sols, conv, _ = l1_recover_many(np.where(masks, 0, data), masks, domain, max_iter=max_iter)
        moved_masks = np.roll(masks, roll, axis=1)
        moved, moved_conv, _ = l1_recover_many(
            np.where(moved_masks, 0, np.roll(data, roll, axis=1)), moved_masks, domain,
            max_iter=max_iter)
        assert moved_conv.tolist() == conv.tolist()
        assert np.abs(l1_side(moved, domain) - l1_side(sols, domain) * ramp).max() <= 1e-9


class TestDomainSymmetry:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(4, 32), seed=st.integers(0, 2**32 - 1),
           max_iter=st.sampled_from([8, 64, recovery.DEFAULT_MAX_ITER]))
    def test_spectral_solve_is_the_reversed_signal_solve(self, n, seed, max_iter):
        # applying the unitary DFT twice reverses the index order, so F^H u at k is
        # (F u) at -k: matching samples s with the spectrum u of least L1 norm is the
        # signal-side problem for the data s[-k] on the reversed mask, and the signal
        # is the inverse DFT of its solution
        _, masks, data = planted_batch(seed, n, L1Domain.MinimizeFreqL1)
        samples = np.where(masks, 0, data)
        rev = -np.arange(n) % n
        sols, conv, _ = l1_recover_many(samples, masks, L1Domain.MinimizeFreqL1,
                                        max_iter=max_iter)
        spec, spec_conv, _ = l1_recover_many(samples[:, rev], masks[:, rev],
                                             L1Domain.MinimizeSignalL1, max_iter=max_iter)
        assert spec_conv.tolist() == conv.tolist()
        assert np.abs(sols - np.fft.ifft(spec, axis=1) * math.sqrt(n)).max() <= 1e-9


def tiers(x):
    # the engine's support tiers of iterates whose nonzero entries all exceed
    # 1e-2 of their row's peak
    return np.where(x != 0, 3, 0)


def polish(tier, b, obs, feas):
    # _polish as the mask of the rows it takes and their solutions, zero elsewhere
    took = np.zeros(len(tier), dtype=bool)
    sols = np.zeros(tier.shape, dtype=complex)
    for rows, coeffs, _ in recovery._polish(tier, b, obs, feas):
        took[rows], sols[rows] = True, coeffs
    return took, sols


class TestPolish:
    def test_exact_zero_refit_coefficient_is_not_certified(self, monkeypatch):
        # a zero coefficient has no sign, so its candidate has no dual certificate
        n = 16
        planted = np.zeros(n, dtype=complex)
        planted[2], planted[5] = 1.0, -0.7j
        x = planted.copy()
        x[9], x[13] = 0.5, 0.3
        obs = np.ones(n, dtype=bool)
        obs[[1, 6, 10, 14]] = False
        b = np.where(obs, row_spectrum(planted), 0.0)
        real_solve = recovery._normal_solve
        supports = []

        def fit_with_exact_zero(S, *rest):
            coeffs, fitted = real_solve(S, *rest)
            if len(S) == 0:  # the dual of no candidate
                return coeffs, fitted
            if S[0, 13]:
                coeffs[0, 9], coeffs[0, 13] = 1.0, 0.0  # 13 is dead: refit
            else:
                coeffs[0, 9] = 0.0  # still feasible, since b has nothing at 9
            supports.append(np.nonzero(S[0])[0].tolist())
            return coeffs, fitted

        monkeypatch.setattr(recovery, "_normal_solve", fit_with_exact_zero)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before its sign is ever divided out
            took, _ = polish(tiers(x)[None], b[None], obs[None], np.array([1e-9]))
        assert supports == [[2, 5, 9, 13], [2, 5, 9]]
        assert not took[0]

    def test_rank_deficient_gram_leaves_its_group_polishing(self):
        # at n=10 the even columns repeat with period 5 over the rows, so
        # observing all but rows 0 and 5 leaves the middle row's five support
        # columns rank 4; its Gram is flagged alone, and the rest of its stack polishes
        n = 10
        rng = np.random.default_rng(0)
        rows = [((0, 1, 2, 3, 4), (0, 5)), ((0, 2, 4, 6, 8), (0, 5)), ((0, 1, 2, 3, 5), (1, 3))]
        planted = np.zeros((3, n), dtype=complex)
        obs = np.ones((3, n), dtype=bool)
        for k, (supp, miss) in enumerate(rows):
            planted[k, list(supp)] = rng.normal(size=5) + 1j * rng.normal(size=5)
            obs[k, list(miss)] = False
        b = np.where(obs, row_spectrum_many(planted), 0.0)
        took, sols = polish(tiers(planted), b, obs, np.full(3, 1e-9))
        assert took.tolist() == [True, False, True]
        assert np.allclose(sols[took], planted[took], atol=1e-12)
        assert not sols[1].any()

    def test_normal_solve_flags_each_gram_alone(self, monkeypatch):
        # one stack of five-entry supports at n=10: good Grams around the rank-4 one
        # above and a Hermitian Gram -I that fails Cholesky though it solves; a second
        # stack holds a three-entry support
        n = 10
        rows = [((0, 1, 2, 3, 4), (0, 5)), ((0, 2, 4, 6, 8), (0, 5)), ((0, 1, 2, 3, 5), (1, 3)),
                ((1, 3, 5, 7, 9), (2,)), ((2, 4, 7), (0, 9)), ((0, 1, 3, 6, 8), (4, 7))]
        S = np.zeros((len(rows), n), dtype=bool)
        obs = np.ones((len(rows), n), dtype=bool)
        for k, (supp, miss) in enumerate(rows):
            S[k, list(supp)], obs[k, list(miss)] = True, False
        spec = np.fft.fft(obs, axis=1)
        spec = (spec + spec[:, -np.arange(n) % n].conj()) / (2 * n)
        spec[3] = 0.0
        spec[3, 0] = -1.0
        rng = np.random.default_rng(1)
        rhs = rng.normal(size=S.shape) + 1j * rng.normal(size=S.shape)
        real_solve, calls = recovery._normal_solve, []

        def spy(*args):
            calls.append(len(args[0]))
            return real_solve(*args)

        monkeypatch.setattr(recovery, "_normal_solve", spy)
        x, ok = recovery._normal_solve(S, rhs, spec)
        assert calls == [len(rows)]  # no retry on a failed Gram
        assert ok.tolist() == [True, False, True, False, True, True]
        assert not x[~ok].any() and not x[~S].any()
        for k in range(len(rows)):
            alone = real_solve(S[k:k + 1], rhs[k:k + 1], spec[k:k + 1])
            assert alone[1][0] == ok[k] and alone[0][0].tobytes() == x[k].tobytes()
        dft = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / math.sqrt(n)
        for k in np.flatnonzero(ok):
            A = dft[np.ix_(obs[k], S[k])]
            assert np.allclose(A.conj().T @ A @ x[k, S[k]], rhs[k, S[k]], atol=1e-12)

    # with r = |S||M|/n < 1/2 the Gram I - M_S^H M_S keeps its eigenvalues above 1 - r, and
    # the least-squares dual is the signs on S and at most r/(1 - r) < 1 off it, so a
    # Donoho-Stark certified support needs no dual solve
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_donoho_stark_support_has_a_strict_dual(self, data):
        n = data.draw(st.integers(1, 64))
        positions = st.integers(0, n - 1)
        supp = data.draw(st.sets(positions, min_size=1))
        miss = data.draw(st.sets(positions, max_size=(n - 1) // (2 * len(supp))))
        assert ds_condition(len(supp), len(miss), n)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        coeffs = rng.normal(size=len(supp)) + 1j * rng.normal(size=len(supp))
        signs = coeffs / np.abs(coeffs)
        dual, gram = least_squares_dual(n, supp, miss, signs)
        r = len(supp) * len(miss) / n
        assert np.linalg.eigvalsh(gram).min() >= 1 - r - 1e-12
        assert np.abs(dual[sorted(supp)] - signs).max() <= 1e-12
        off = sorted(set(range(n)) - supp)
        assert np.abs(dual[off]).max(initial=0.0) <= r / (1 - r) + 1e-12 < 1

    def test_donoho_stark_rows_skip_the_dual_solve(self, monkeypatch):
        # every row is certified, so each passes _normal_solve once, for its coefficients
        n, rows = 16, 40
        rng = np.random.default_rng(5)
        planted = np.zeros((rows, n), dtype=complex)
        obs = np.ones((rows, n), dtype=bool)
        for k in range(rows):
            planted[k, rng.choice(n, size=2, replace=False)] = (rng.normal(size=2)
                                                                + 1j * rng.normal(size=2))
            obs[k, rng.choice(n, size=3, replace=False)] = False
        assert ds_condition(np.full(rows, 2), (~obs).sum(axis=1), n).all()
        b = np.where(obs, row_spectrum_many(planted), 0.0)
        real_solve, solved = recovery._normal_solve, []

        def spy(S, *rest):
            solved.append(len(S))
            return real_solve(S, *rest)

        monkeypatch.setattr(recovery, "_normal_solve", spy)
        took, sols = polish(tiers(planted), b, obs, np.full(rows, 1e-9))
        assert took.all() and np.allclose(sols, planted, atol=1e-12)
        assert sum(solved) == rows

    def test_support_past_donoho_stark_still_needs_its_dual(self):
        # |S||M| = 9 < 12 <= 2|S||M|: the support has full rank and fits the data, but
        # its least-squares dual reaches 1.049 off S, so it is not L1-optimal
        n, supp, miss = 12, [1, 9, 11], [8, 9, 10]
        planted = np.zeros(n, dtype=complex)
        planted[supp] = [1.0, 0.5, -0.8]
        obs = np.ones(n, dtype=bool)
        obs[miss] = False
        dual, gram = least_squares_dual(n, supp, miss, np.sign(planted[supp]))
        assert np.linalg.eigvalsh(gram).min() > 0.5 and np.abs(dual).max() > 1.04
        b = np.where(obs, row_spectrum(planted), 0.0)
        took, sols = polish(tiers(planted)[None], b[None], obs[None], np.array([1e-9]))
        assert not took[0] and not sols[0].any()

    def test_first_check_comes_before_any_step(self):
        # a Donoho-Stark certified row is polished on its zero-filled inverse and
        # leaves at iteration 0; a row that polish rejects runs the 8-step blocks
        n = 16
        planted = np.zeros((2, n), dtype=complex)
        planted[0, [3, 12]] = [1.0 - 0.5j, 0.6 + 0.2j]
        planted[1, [7, 10]] = [-0.846 + 0.629j, 0.157 + 0.009j]
        masks = np.zeros((2, n), dtype=bool)
        masks[0, [1, 6, 11]], masks[1, 0] = True, True
        assert ds_condition(np.array([2, 2]), masks.sum(axis=1), n).all()
        sols, conv, _, iters = recovery._solve_l1_batch(
            np.where(masks, 0, row_spectrum_many(planted)), masks)
        assert conv.all() and iters.tolist() == [0, 8]
        assert np.allclose(sols, planted, atol=1e-12)

    @pytest.mark.parametrize("n, rows", [(10, 3000), (256, 300)])
    def test_results_do_not_depend_on_the_polish_batch(self, monkeypatch, n, rows):
        # a call polishes at most _POLISH_ENTRIES // n candidate rows, and every row
        # solves as it would alone, so one row a call gives the same bytes
        rng = np.random.default_rng(n)
        sparse = np.zeros((rows, n), dtype=complex)
        masks = np.zeros((rows, n), dtype=bool)
        for i in range(rows):
            e = int(rng.integers(1, 5 if n == 10 else 9))
            m = int(rng.integers(0, -(-n // (2 * e)))) if n == 10 else int(rng.integers(0, 65))
            supp = rng.choice(n, size=e, replace=False)
            sparse[i, supp] = rng.normal(size=e) + 1j * rng.normal(size=e)
            masks[i, rng.choice(n, size=m, replace=False)] = True
        values = np.where(masks, 0, row_spectrum_many(sparse))
        real_polish, calls = recovery._polish, []

        def spy(tier, *rest):
            calls.append(len(tier))
            return real_polish(tier, *rest)

        monkeypatch.setattr(recovery, "_polish", spy)
        batched = recovery._solve_l1_batch(values, masks)
        cap = recovery._POLISH_ENTRIES // n
        assert max(calls) == cap and len(calls) > 2
        calls.clear()
        monkeypatch.setattr(recovery, "_POLISH_ENTRIES", n)
        alone = recovery._solve_l1_batch(values, masks)
        assert set(calls) == {1}
        assert batched[1].all() and np.allclose(batched[0], sparse, atol=1e-9)
        for a, b in zip(batched, alone):
            assert a.tobytes() == b.tobytes()

    def test_exactly_dependent_support_is_not_certified(self):
        # on the odd rows of n=8, column 7 is minus column 3; a rank cutoff of
        # eps*max(m, s) called such supports full rank
        n = 8
        planted = np.zeros(n, dtype=complex)
        planted[3], planted[7] = 1.0, 0.5j
        obs = np.zeros(n, dtype=bool)
        obs[[1, 3, 5, 7]] = True
        b = np.where(obs, row_spectrum(planted), 0.0)
        took, sols = polish(tiers(planted)[None], b[None], obs[None], np.array([1e-9]))
        assert not took[0]
        assert not sols[0].any()



def sparse_grid_signal(rng, dims, e_max):
    vals = np.zeros((dims.t, dims.n), dtype=complex)
    for y in range(dims.t):
        supp = rng.choice(dims.n, size=e_max, replace=False)
        phases = rng.uniform(0, 2 * np.pi, size=e_max)
        vals[y, supp] = np.exp(1j * phases) * (1.0 + rng.random(e_max))
    return Signal2D(dims=dims, values=vals)


class TestRecoveryProblem:
    def test_rejects_nan_at_observed_position(self):
        dims = GridDims(n=4, t=2)
        pat = ErasurePattern.from_missing(dims, [(0, 0)])
        vals = np.ones((2, 4), dtype=complex)
        vals[1, 1] = np.nan
        with pytest.raises(ValueError):
            RecoveryProblem(kind=TransformKind.GaborRow,
                            observed_values=vals, pattern=pat)

    def test_poisons_missing_and_locks(self):
        dims = GridDims(n=4, t=2)
        pat = ErasurePattern.from_missing(dims, [(2, 1)])
        prob = RecoveryProblem(kind=TransformKind.GaborRow,
                               observed_values=np.ones((2, 4), complex), pattern=pat)
        assert np.isnan(prob.observed_values[1, 2])
        with pytest.raises(ValueError):
            prob.observed_values[0, 0] = 0.0
        observed = ~np.isnan(prob.observed_values)
        assert np.array_equal(observed, ~pat.mask)
        assert int(observed.sum()) == 7

    def test_rejects_nonfinite_imaginary_part_at_observed_position(self):
        dims = GridDims(n=4, t=2)
        pat = ErasurePattern.from_missing(dims, [(0, 0)])
        vals = np.ones((2, 4), dtype=complex)
        vals[1, 1] = complex(1.0, np.inf)
        with pytest.raises(ValueError):
            RecoveryProblem(kind=TransformKind.GaborRow,
                            observed_values=vals, pattern=pat)

    def test_rejects_wrong_kind_object(self):
        dims = GridDims(n=4, t=2)
        pat = ErasurePattern.from_missing(dims, [])
        with pytest.raises(ValueError):
            RecoveryProblem(kind="GaborRow",
                            observed_values=np.ones((2, 4), complex), pattern=pat)


class TestRecoverRows:
    def test_requires_row_transform(self, rng):
        dims = GridDims(n=4, t=2)
        sig = sparse_grid_signal(rng, dims, 1)
        prob = apply_erasure(gabor_row(sig), ErasurePattern.from_missing(dims, []),
                             TransformKind.Fourier2D)
        with pytest.raises(ValueError):
            recover_rows(prob)

    def test_no_erasures_inverts_exactly(self, rng):
        dims = GridDims(n=8, t=3)
        sig = sparse_grid_signal(rng, dims, 3)
        transform = gabor_row(sig)
        prob = apply_erasure(transform, ErasurePattern.from_missing(dims, []))
        report = recover_rows(prob)
        assert report.stage is RecoveryStage.RowOnly
        assert all(s is RowStatus.Recovered for s in report.row_status)
        assert report.guarantee_held == (True,)
        # each row inverts directly and misses its data by rounding only
        mismatch = np.abs(gabor_row(report.recovered).values - transform.values)
        assert report.residual == mismatch.max()
        assert np.allclose(report.recovered.values,
                           gabor_row_inverse(transform).values, atol=1e-12)
        assert np.allclose(report.recovered.values, sig.values, atol=1e-12)

    def test_one_row_fully_erased(self, rng):
        dims = GridDims(n=8, t=3)
        sig = sparse_grid_signal(rng, dims, 2)
        missing = [(x, 1) for x in range(8)]
        prob = apply_erasure(gabor_row(sig), ErasurePattern.from_missing(dims, missing))
        report = recover_rows(prob)
        assert report.row_status[1] is RowStatus.Failed
        assert report.row_status[0] is RowStatus.Recovered
        assert report.row_status[2] is RowStatus.Recovered
        assert np.allclose(report.recovered.values[1], 0.0)
        assert np.allclose(report.recovered.values[0], sig.values[0], atol=1e-9)
        assert np.allclose(report.recovered.values[2], sig.values[2], atol=1e-9)

    def test_sparse_grid_with_random_erasures(self, rng):
        dims = GridDims(n=64, t=4)
        sig = sparse_grid_signal(rng, dims, 2)
        pat = sample_erasure(dims, 0.05, seed=424242)
        counts = pat.per_row_counts
        assert counts.max() < 16  # product condition 2*2*m < 64 for every row
        prob = apply_erasure(gabor_row(sig), pat)
        report = recover_rows(prob, profile=support_profile(sig))
        assert all(s is RowStatus.Recovered for s in report.row_status)
        assert report.guarantee_held == (True,)
        err = np.linalg.norm(report.recovered.values - sig.values)
        assert err / np.linalg.norm(sig.values) < 1e-6
        for y in range(dims.t):
            supp = {x for x in range(64) if abs(sig.values[y, x]) > 0}
            miss = {x for (x, yy) in pat.missing if yy == y}
            assert uniqueness_oracle_1d(supp, miss, 64) is True

    def test_profile_gates_uncertified_rows(self, monkeypatch):
        # one row, comb signal, spectrum missing on its own support pattern:
        # converged answer exists but the certificate fails, so the profile
        # fails the row without sending it to the engine
        dims = GridDims(n=4, t=1)
        sig = Signal2D(dims=dims, values=np.array([[1.0, 0, 1.0, 0]], dtype=complex))
        pat = ErasurePattern.from_missing(dims, [(0, 0), (2, 0)])
        prob = apply_erasure(gabor_row(sig), pat)
        solved = []

        def spy(values, masks, *args, **kwargs):
            solved.append(len(masks))
            return l1_recover_many(values, masks, *args, **kwargs)

        monkeypatch.setattr(recovery, "l1_recover_many", spy)
        gated = recover_rows(prob, profile=support_profile(sig))
        assert gated.row_status == (RowStatus.Failed,)
        assert gated.recovered is None
        free = recover_rows(prob)
        assert free.row_status == (RowStatus.Recovered,)
        assert free.guarantee_held == (False,)
        assert solved == [0, 1]

    def test_profile_solves_exactly_the_certified_rows(self, rng, monkeypatch):
        # (support, missing) per row: 1*4, 3*4, 2*3, 4*6 and 5*0 against n/2 = 8, so rows
        # 0, 2 and 4 (erasure-free) are certified and rows 1 and 3 are not
        dims = GridDims(n=16, t=5)
        supports = ([3], [1, 5, 11], [0, 9], [2, 6, 7, 13], [1, 4, 8, 10, 15])
        missing = ([0, 5, 9, 14], [2, 3, 7, 12], [1, 6, 11], [0, 2, 4, 8, 10, 15], [])
        values = np.zeros((dims.t, dims.n), dtype=complex)
        for y, sup in enumerate(supports):
            values[y, sup] = rng.normal(size=len(sup)) + 1j * rng.normal(size=len(sup))
        sig = Signal2D(dims=dims, values=values)
        pat = ErasurePattern.from_missing(dims, [(x, y) for y, m in enumerate(missing) for x in m])
        prob = apply_erasure(gabor_row(sig), pat)
        sent = []

        def spy(values, masks, *args, **kwargs):
            sent.append((values.copy(), masks.copy()))
            return l1_recover_many(values, masks, *args, **kwargs)

        monkeypatch.setattr(recovery, "l1_recover_many", spy)
        gated = recover_rows(prob, profile=support_profile(sig))
        free = recover_rows(prob)
        cert = np.array([True, False, True, False, True])
        (solved, masks), _ = sent
        assert masks.tolist() == pat.mask[cert].tolist()
        assert solved.tolist() == np.where(pat.mask, 0, prob.observed_values)[cert].tolist()
        assert [s is RowStatus.Recovered for s in gated.row_status] == cert.tolist()
        for y in np.flatnonzero(cert):
            assert free.row_status[y] is RowStatus.Recovered
            assert gated.recovered.values[y].tobytes() == free.recovered.values[y].tobytes()
        assert not gated.recovered.values[~cert].any()

    def test_mismatched_profile_rejected_before_solving(self, rng, monkeypatch):
        dims = GridDims(n=16, t=4)
        sig = sparse_grid_signal(rng, dims, 2)
        prob = apply_erasure(gabor_row(sig), sample_erasure(dims, 0.3, 5))
        short = support_profile(Signal2D(dims=GridDims(n=16, t=2), values=sig.values[:2]))

        def no_solve(*args, **kwargs):
            raise AssertionError("the engine ran before the profile was checked")

        monkeypatch.setattr(recovery, "_solve_l1_batch", no_solve)
        with pytest.raises(ValueError, match="profile row count"):
            recover_rows(prob, profile=short)

    # at max_iter=3 the row stage of this grid leaves rows 1, 3 and 4 unconverged and
    # every column converges, so the column stage repairs all three; the repairs miss
    # their own observations and must be demoted
    @pytest.mark.parametrize("two_stage", [False, True], ids=["recover_rows", "recover_two_stage"])
    def test_feasibility_of_reported_rows(self, rng, monkeypatch, two_stage):
        dims = GridDims(n=16, t=5)
        sig = sparse_grid_signal(rng, dims, 2)
        pat = sample_erasure(dims, 0.35, seed=103)
        prob = apply_erasure(gabor_row(sig), pat)
        solves = []

        def spy(*args, **kwargs):
            solves.append(l1_recover_many(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(recovery, "l1_recover_many", spy)
        report = recover_two_stage(prob, max_iter=3) if two_stage else recover_rows(prob)
        if two_stage:
            (_, row_conv, _), (_, col_conv, _) = solves
            assert (~row_conv).tolist() == [False, True, False, True, True] and col_conv.all()
        got = gabor_row(report.recovered).values if report.recovered else None
        for y, status in enumerate(report.row_status):
            if status is not RowStatus.Recovered:
                continue
            obs = ~pat.mask[y]
            scale = max(1.0, np.abs(prob.observed_values[y, obs]).max(initial=0.0))
            err = np.abs(got[y, obs] - prob.observed_values[y, obs]).max(initial=0.0)
            assert err <= 1e-9 * scale + 1e-12
        assert report.residual <= 1e-9 * max(
            1.0, np.abs(prob.observed_values[~pat.mask]).max(initial=0.0)
        )

    def test_row_permutation_permutes_statuses(self, rng):
        dims = GridDims(n=12, t=4)
        sig = sparse_grid_signal(rng, dims, 2)
        mask = np.zeros((4, 12), dtype=bool)
        mask[0, :5] = True          # heavy erasure: likely fails certificate
        mask[2, [1, 7]] = True
        base_pat = ErasurePattern(dims=dims, mask=mask)
        prob = apply_erasure(gabor_row(sig), base_pat)
        report = recover_rows(prob)

        perm = [2, 0, 3, 1]
        psig = Signal2D(dims=dims, values=sig.values[perm])
        ppat = ErasurePattern(dims=dims, mask=mask[perm])
        preport = recover_rows(apply_erasure(gabor_row(psig), ppat))
        assert preport.row_status == tuple(report.row_status[p] for p in perm)

    def test_deterministic_report(self, rng):
        dims = GridDims(n=16, t=3)
        sig = sparse_grid_signal(rng, dims, 2)
        pat = sample_erasure(dims, 0.15, seed=5)
        prob1 = apply_erasure(gabor_row(sig), pat)
        prob2 = apply_erasure(gabor_row(sig), pat)
        assert report_to_json(recover_rows(prob1)) == report_to_json(recover_rows(prob2))


def stack_problems(problems):
    """The ``(G, t, n)`` values (zero where missing) and masks of these problems."""
    mask = np.array([p.pattern.mask for p in problems])
    return np.where(mask, 0.0 + 0.0j, [p.observed_values for p in problems]), mask


def assert_reports_match(stacked, reports):
    """Each grid of ``recovery._recover_many``'s stacked result reads as its own report."""
    out, ok, residual, row_guarantee, col_guarantee, column_stage = stacked
    for g, report in enumerate(reports):
        stage = RecoveryStage.RowThenColumn if column_stage[g] else RecoveryStage.RowOnly
        assert report.stage is stage
        assert report.row_status == tuple(RowStatus.Recovered if r else RowStatus.Failed
                                          for r in ok[g])
        assert report.residual == residual[g]
        assert report.guarantee_held == (row_guarantee[g], col_guarantee[g])[:1 + column_stage[g]]
        recovered = np.zeros_like(out[g]) if report.recovered is None else report.recovered.values
        assert np.array_equal(out[g], recovered)


def two_level_column_signal(rng, n, t, active_cols):
    """Signal whose column transform has per-column support <= 2."""
    vals = np.zeros((t, n), dtype=complex)
    y = np.arange(t)
    for x in active_cols:
        nu = int(rng.integers(t))
        amp = 1.0 + rng.random()
        partner = amp * np.exp(1j * rng.uniform(0, 2 * np.pi))
        vals[:, x] = (amp * np.exp(2j * np.pi * nu * y / t)
                      + partner * np.exp(2j * np.pi * ((nu + t // 2) % t) * y / t))
    return Signal2D(dims=GridDims(n=n, t=t), values=vals)


class TestRecoverTwoStage:
    def test_no_failures_equals_row_stage(self, rng):
        dims = GridDims(n=16, t=4)
        sig = sparse_grid_signal(rng, dims, 2)
        pat = ErasurePattern.from_missing(dims, [(3, 0), (9, 2)])
        prob = apply_erasure(gabor_row(sig), pat)
        two = recover_two_stage(prob)
        one = recover_rows(prob)
        assert report_to_json(two) == report_to_json(one)
        assert two.stage is RecoveryStage.RowOnly

    def test_column_stage_repairs_fully_erased_row(self, rng):
        n, t = 16, 8
        sig = two_level_column_signal(rng, n, t, active_cols=[2, 7, 11])
        smax = 2
        dense_row = 3
        missing = [(x, dense_row) for x in range(n)]
        prob = apply_erasure(gabor_row(sig),
                             ErasurePattern.from_missing(GridDims(n=n, t=t), missing))
        stage1 = recover_rows(prob)
        assert stage1.row_status[dense_row] is RowStatus.Failed
        report = recover_two_stage(prob, col_transform_support_max=smax)
        assert report.stage is RecoveryStage.RowThenColumn
        assert all(s is RowStatus.Recovered for s in report.row_status)
        assert report.guarantee_held[1] is True
        err = np.linalg.norm(report.recovered.values - sig.values)
        assert err / np.linalg.norm(sig.values) < 1e-6

    def test_dense_columns_not_certifiable(self, rng):
        n, t = 8, 6
        vals = rng.normal(size=(t, n)) + 1j * rng.normal(size=(t, n))
        sig = Signal2D(dims=GridDims(n=n, t=t), values=vals)
        missing = [(x, 0) for x in range(n)]
        prob = apply_erasure(gabor_row(sig),
                             ErasurePattern.from_missing(GridDims(n=n, t=t), missing))
        report = recover_two_stage(prob, col_transform_support_max=t)
        assert report.stage is RecoveryStage.RowThenColumn
        assert report.row_status[0] is RowStatus.Failed
        assert report.guarantee_held[1] is False

    def test_optimistic_attempt_without_side_info(self, rng):
        n, t = 16, 8
        sig = two_level_column_signal(rng, n, t, active_cols=[1, 8])
        missing = [(x, 5) for x in range(n)]
        prob = apply_erasure(gabor_row(sig),
                             ErasurePattern.from_missing(GridDims(n=n, t=t), missing))
        report = recover_two_stage(prob)
        assert all(s is RowStatus.Recovered for s in report.row_status)
        # without the support bound the repair happens but stays uncertified
        assert report.guarantee_held[1] is False
        err = np.linalg.norm(report.recovered.values - sig.values)
        assert err / np.linalg.norm(sig.values) < 1e-6

    def test_dominance_over_row_stage(self, rng):
        for trial in range(5):
            dims = GridDims(n=12, t=6)
            sig = sparse_grid_signal(rng, dims, 2)
            pat = sample_erasure(dims, 0.25, seed=1000 + trial)
            prob = apply_erasure(gabor_row(sig), pat)
            rows_only = recover_rows(prob)
            two = recover_two_stage(prob)
            for a in range(dims.t):
                if rows_only.row_status[a] is RowStatus.Recovered:
                    assert two.row_status[a] is RowStatus.Recovered

    def test_stacked_grids_report_as_each_alone(self, rng):
        # grids that repair different erased rows, are not certified (at bound 2, or at bound t
        # where bound 2 would certify), attempt without a bound, fail nothing or fail every
        # row, stacked into one pair of solves
        n, t = 16, 8
        dims = GridDims(n=n, t=t)
        cases = [([3], 2), ([0], None), ([5], 2), ([1, 2, 6], 2), ([], 2), (range(t), None),
                 ([4], t)]
        problems = []
        for rows, _ in cases:
            sig = two_level_column_signal(rng, n, t, active_cols=rng.choice(n, 3, replace=False))
            pat = sample_erasure(dims, 0.15, seed=int(rng.integers(1 << 30)))
            lost = pat.mask.copy()
            lost[list(rows)] = True
            problems.append(apply_erasure(gabor_row(sig), ErasurePattern(dims, lost)))
        bounds = [bound for _, bound in cases]
        stacked = recovery._recover_many(*stack_problems(problems), None, bounds)
        alone = [recover_two_stage(p, bound) for p, bound in zip(problems, bounds)]
        assert_reports_match(stacked, alone)
        assert [r.stage for r in alone].count(RecoveryStage.RowThenColumn) == 6
        assert alone[-1].guarantee_held[1] is False
        # three repairs (two certified) and the erasure-free grid
        assert sum(all(s is RowStatus.Recovered for s in r.row_status) for r in alone) == 4

    def test_stacked_grid_repairs_when_another_grids_columns_do_not_converge(self, rng):
        # at a budget of two iterations the dense grid's columns do not converge, while the
        # zero grid's converge at once; each grid's repair waits only on its own columns
        dims = GridDims(n=16, t=8)
        lost = np.zeros((8, 16), dtype=bool)
        lost[3] = True
        dense = Signal2D(dims, rng.normal(size=(8, 16)) + 1j * rng.normal(size=(8, 16)))
        problems = [apply_erasure(gabor_row(sig), ErasurePattern(dims, lost))
                    for sig in (dense, Signal2D(dims, np.zeros((8, 16))))]
        stacked = recovery._recover_many(*stack_problems(problems), None, [None, None],
                                         max_iter=2)
        assert stacked[1].sum(axis=1).tolist() == [7, 8]
        assert_reports_match(stacked, [recover_two_stage(p, max_iter=2) for p in problems])

    def test_demoted_repair_withdraws_the_column_guarantee(self, rng):
        # a column bound of 1 understates these columns' support, so it certifies the repair
        # of the row that the row stage fails at a 2-step budget; the repaired row misses its
        # own observations and is demoted, which takes back the certificate
        dims = GridDims(n=16, t=8)
        sig = sparse_grid_signal(np.random.default_rng(1), dims, 2)
        demoted = apply_erasure(gabor_row(sig), sample_erasure(dims, 0.35, 1))
        failed = recover_rows(demoted, max_iter=2).row_status
        report = recover_two_stage(demoted, col_transform_support_max=1, max_iter=2)
        assert report.stage is RecoveryStage.RowThenColumn and RowStatus.Failed in failed
        assert report.row_status == failed
        assert report.guarantee_held == (False, False)
        # stacked with a grid whose lost row repairs cleanly and an erasure-free grid
        lost = np.zeros((dims.t, dims.n), dtype=bool)
        lost[3] = True
        clean = two_level_column_signal(rng, dims.n, dims.t, active_cols=[2, 7, 11])
        problems = [demoted, apply_erasure(gabor_row(clean), ErasurePattern(dims, lost)),
                    apply_erasure(gabor_row(sig), ErasurePattern(dims, np.zeros_like(lost)))]
        bounds = [1, 2, 1]
        stacked = recovery._recover_many(*stack_problems(problems), None, bounds, max_iter=2)
        alone = [recover_two_stage(p, bound, max_iter=2) for p, bound in zip(problems, bounds)]
        assert_reports_match(stacked, alone)
        assert [r.guarantee_held for r in alone] == [(False, False), (True, True), (True,)]

    def test_chunk_without_a_repair_makes_only_the_row_call(self, monkeypatch, rng):
        # an erasure-free grid, a fully erased one, and one whose three lost rows are not
        # certified at column bound 2; the last grid, one lost row at bound 2, repairs
        n, t = 16, 8
        dims = GridDims(n=n, t=t)
        cases = [([], 2), (range(t), None), ([1, 2, 6], 2), ([3], 2)]
        problems = []
        for rows, _ in cases:
            sig = two_level_column_signal(rng, n, t, active_cols=rng.choice(n, 3, replace=False))
            lost = np.zeros((t, n), dtype=bool)
            lost[list(rows)] = True
            problems.append(apply_erasure(gabor_row(sig), ErasurePattern(dims, lost)))
        bounds = [bound for _, bound in cases]
        b, mask = stack_problems(problems)
        calls, original = [], recovery.l1_recover_many

        def engine(values, *args, **kwargs):
            calls.append(len(values))
            return original(values, *args, **kwargs)

        monkeypatch.setattr(recovery, "l1_recover_many", engine)
        with_repair = recovery._recover_many(b, mask, None, bounds)
        assert calls == [4 * t, n]
        calls.clear()
        without = recovery._recover_many(b[:3], mask[:3], None, bounds[:3])
        assert calls == [3 * t]
        assert all(np.array_equal(a, full[:3]) for a, full in zip(without, with_repair))
        assert without[5].tolist() == [False, True, True]  # the grids that ran the column stage
        assert with_repair[1][3].all()

    @pytest.mark.parametrize("certified_only", [False, True], ids=["every-row", "certified"])
    def test_stack_is_read_not_written(self, rng, certified_only):
        # the engine sees views of the stack; each grid loses one whole row, so without
        # supports the column stage runs, and with them only some rows are certified
        dims = GridDims(n=16, t=4)
        sigs, problems = [sparse_grid_signal(rng, dims, 2) for _ in range(3)], []
        for g, sig in enumerate(sigs):
            lost = sample_erasure(dims, 0.2, seed=40 + g).mask.copy()
            lost[g] = True
            problems.append(apply_erasure(gabor_row(sig), ErasurePattern(dims, lost)))
        b, mask = stack_problems(problems)
        supports = np.array([support_profile(sig).row_supports for sig in sigs])
        args = (supports, None) if certified_only else (None, [None] * 3)
        expected = recovery._recover_many(b.copy(), mask.copy(), *args)
        b.flags.writeable = mask.flags.writeable = False
        got = recovery._recover_many(b, mask, *args)
        for a, e in zip(got, expected):
            assert a.tobytes() == e.tobytes()
        cert = ds_condition(supports, mask.sum(axis=2), dims.n)
        if certified_only:
            assert 0 < cert.sum() < cert.size
        else:
            assert got[5].all()

    def test_stacked_grids_must_share_a_shape(self):
        # a ragged stack cannot be built, so this is values whose grids differ from the mask's
        with pytest.raises(ValueError):
            recovery._recover_many(np.zeros((2, 2, 4), dtype=complex),
                                   np.zeros((2, 3, 4), dtype=bool), None, [None, None])

    def test_rejects_bad_support_bound(self, rng):
        dims = GridDims(n=4, t=2)
        sig = sparse_grid_signal(rng, dims, 1)
        prob = apply_erasure(gabor_row(sig), ErasurePattern.from_missing(dims, []))
        # the bound is None or a positive integer, numpy's too, never a bool or a fraction
        for bad in (0, -1, True, np.bool_(True), 2.5, 2.0, "2"):
            with pytest.raises(ValueError, match="^col_transform_support_max must be "):
                recover_two_stage(prob, col_transform_support_max=bad)
        for good in (None, 1, np.int64(2)):
            assert recover_two_stage(prob, col_transform_support_max=good) == recover_rows(prob)

    # n=4, t=8, theta=0.25, SkewedRows at e_max 3: seed 94 erases a whole row, which only
    # the column repair restores; seed 26 at a 32-step budget leaves three observed rows
    # unconverged, and the repair restores them
    @pytest.mark.parametrize("seed, max_iter", [(94, recovery.DEFAULT_MAX_ITER), (26, 32)],
                             ids=["whole-row", "observed-rows"])
    def test_repaired_report_residual_is_its_observed_mismatch(self, seed, max_iter):
        prob, pattern = skewed_problem(seed)
        failed = [s is RowStatus.Failed for s in recover_rows(prob, max_iter=max_iter).row_status]
        report = recover_two_stage(prob, max_iter=max_iter)
        assert report.stage is RecoveryStage.RowThenColumn and any(failed)
        assert all(s is RowStatus.Recovered for s in report.row_status)
        mismatch = np.abs(gabor_row(report.recovered).values - prob.observed_values)
        assert report.residual == mismatch[~pattern.mask].max()

    # the same grids: seed 6 at a 2-step budget and seed 29 at the default leave the column
    # stage idle and hold erasure-free rows, whose residual is their rounding, not 0
    @pytest.mark.parametrize("two_stage, seed, max_iter",
                             [(False, 6, 2), (True, 29, recovery.DEFAULT_MAX_ITER)],
                             ids=["recover_rows", "recover_two_stage-row-only"])
    def test_row_stage_report_residual_is_its_observed_mismatch(self, two_stage, seed, max_iter):
        prob, pattern = skewed_problem(seed)
        report = (recover_two_stage if two_stage else recover_rows)(prob, max_iter=max_iter)
        assert report.stage is RecoveryStage.RowOnly and (pattern.per_row_counts == 0).any()
        recovered = np.array([s is RowStatus.Recovered for s in report.row_status])
        mismatch = np.abs(gabor_row(report.recovered).values - prob.observed_values)
        assert report.residual == mismatch[~pattern.mask & recovered[:, None]].max()


def skewed_problem(seed):
    """An n=4, t=8 SkewedRows grid at e_max 3 and its pattern, erased at theta 0.25."""
    dims = GridDims(n=4, t=8)
    sig = generate_test_signal(dims, 3, 2 * seed, ProfileShape.SkewedRows)
    pattern = sample_erasure(dims, 0.25, 2 * seed + 1)
    return apply_erasure(gabor_row(sig), pattern), pattern


class TestReportJson:
    def test_schema(self, rng):
        dims = GridDims(n=8, t=2)
        sig = sparse_grid_signal(rng, dims, 1)
        prob = apply_erasure(gabor_row(sig), ErasurePattern.from_missing(dims, [(0, 0)]))
        data = json.loads(report_to_json(recover_rows(prob)))
        assert set(data) == {"stage", "row_status", "residual", "guarantee_held", "recovered"}
        assert data["stage"] == "RowOnly"
        assert isinstance(data["row_status"], list) and len(data["row_status"]) == 2
        assert isinstance(data["guarantee_held"], bool)
        assert set(data["recovered"]) == {"n", "t", "re", "im"}

    def test_recovered_null_when_nothing_recovered(self):
        dims = GridDims(n=4, t=1)
        pat = sample_erasure(dims, 1.0, seed=0)
        prob = RecoveryProblem(kind=TransformKind.GaborRow,
                               observed_values=np.zeros((1, 4), complex), pattern=pat)
        data = json.loads(report_to_json(recover_rows(prob)))
        assert data["recovered"] is None
        assert data["row_status"] == ["Failed"]
