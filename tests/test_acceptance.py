"""Acceptance gate: one test per numbered criterion, run with ``pytest -v``.

Each test prints a ``CRITERION n: PASS/FAIL`` line (visible with ``-s`` or in
the failure report) and then asserts, so the verbose test listing doubles as
the scorecard.  Criterion 4 is expected to fail: the slowest-decaying cell of
its parameter grid genuinely violates the squared-width decay it checks.  The
test states the offending cell rather than hiding it.  The property test
beside criterion 2 (Tao's floor at prime widths) is not a criterion and
prints no scorecard line.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import oracle_dft2, oracle_gabor_col, oracle_gabor_row

from gabor_recover import (
    GridDims,
    Signal2D,
    column_support_max,
    dft2,
    gabor_col,
    gabor_col_inverse,
    gabor_row,
    gabor_row_inverse,
    idft2,
    l1_recover_1d,
    l1_recover_many,
    lemma_tail_bound,
    prob_mmax_below,
    prob_mmin_below,
    support,
    support_budget,
    support_profile,
    uniqueness_oracle_1d,
)
from gabor_recover.cli import main as cli_main
from gabor_recover.experiments import (
    WILSON_Z_99,
    ExperimentConfig,
    ExperimentMode,
    ProfileShape,
    emit_results,
    generate_test_signal,
    run_experiment,
    run_sweep,
    wilson_interval,
)


def _report(num, ok, detail=""):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)


def test_criterion_1_transforms_match_oracles_and_stay_unitary():
    """200 random grids: fast paths agree with the double-sum oracles to
    1e-10, preserve energy, and invert exactly; includes 64x64; under 10s."""
    start = time.perf_counter()
    rng = np.random.default_rng(8128)
    cases = [(int(rng.integers(1, 17)), int(rng.integers(1, 17))) for _ in range(195)]
    cases += [(64, 64)] * 5
    routes = (
        (dft2, idft2, oracle_dft2),
        (gabor_row, gabor_row_inverse, oracle_gabor_row),
        (gabor_col, gabor_col_inverse, oracle_gabor_col),
    )
    for n, t in cases:
        vals = rng.normal(size=(t, n)) + 1j * rng.normal(size=(t, n))
        sig = Signal2D(dims=GridDims(n=n, t=t), values=vals)
        energy = np.linalg.norm(vals)
        for fast, inverse, oracle in routes:
            out = fast(sig)
            assert np.max(np.abs(out.values - oracle(vals))) <= 1e-10
            assert abs(np.linalg.norm(out.values) - energy) <= 1e-10 * max(1.0, energy)
            back = inverse(out)
            assert np.max(np.abs(back.values - vals)) <= 1e-10
            assert back.dims == sig.dims
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, True, f"{len(cases)} grids in {elapsed:.2f}s")


def test_criterion_2_support_product_at_least_grid_size():
    """500 nonzero signals (point masses, subgroup indicators, random sparse):
    |supp f| * |supp dft2 f| >= n*t at the default support tolerance."""
    rng = np.random.default_rng(496)
    built = []
    for _ in range(170):
        n, t = int(rng.integers(1, 17)), int(rng.integers(1, 17))
        vals = np.zeros((t, n), dtype=complex)
        mag = 0.5 + rng.random()
        vals[int(rng.integers(t)), int(rng.integers(n))] = mag * np.exp(2j * np.pi * rng.random())
        built.append(vals)
    sizes = (4, 6, 8, 9, 12, 16)
    for _ in range(165):
        n, t = int(rng.choice(sizes)), int(rng.choice(sizes))
        dn = int(rng.choice([d for d in range(1, n + 1) if n % d == 0]))
        dt = int(rng.choice([d for d in range(1, t + 1) if t % d == 0]))
        vals = np.zeros((t, n), dtype=complex)
        vals[::dt, ::dn] = 1.0
        built.append(vals)
    for _ in range(165):
        n, t = int(rng.integers(2, 17)), int(rng.integers(2, 17))
        k = int(rng.integers(1, min(n * t, 6) + 1))
        spots = rng.choice(n * t, size=k, replace=False)
        flat = np.zeros(n * t, dtype=complex)
        flat[spots] = (0.5 + rng.random(k)) * np.exp(2j * np.pi * rng.random(k))
        built.append(flat.reshape(t, n))
    assert len(built) == 500

    violations = []
    for vals in built:
        t, n = vals.shape
        sig = Signal2D(dims=GridDims(n=n, t=t), values=vals)
        prod = len(support(sig)) * len(support(dft2(sig)))
        if prod < n * t:
            violations.append((n, t, prod))
    assert violations == []
    _report(2, True, "500 signals, zero violations")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_tao_floor_is_tight_at_prime_widths(data):
    """Beside criterion 2: at prime p, |supp f| + |supp f^| >= p + 1 (Tao 2005).

    f lives on a random k-subset S and its spectrum vanishes on k - 1 chosen
    frequencies: it is the null vector of that (k - 1) x k DFT submatrix. Every
    square DFT minor at prime p is nonzero (Chebotarev), so f is nonzero on all
    of S and its spectrum on every other frequency, which meets the floor exactly.
    """
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23]))
    k = data.draw(st.integers(1, p))
    supp = data.draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k, unique=True))
    zeros = data.draw(st.lists(st.integers(0, p - 1), min_size=k - 1, max_size=k - 1,
                               unique=True))
    sub = np.exp(-2j * np.pi * np.outer(zeros, supp) / p)
    vals = np.zeros((1, p), dtype=complex)
    vals[0, supp] = np.linalg.svd(sub)[2][-1].conj()
    sig = Signal2D(dims=GridDims(n=p, t=1), values=vals)
    assert len(support(sig)) + len(support(gabor_row(sig))) == p + 1


def test_criterion_3_certified_pairs_recover_exhaustively():
    """All (support, missing) pairs with 2*|support|*|missing| < n over
    n = 4..12: the uniqueness oracle accepts, and minimum-L1 completion
    recovers 20 coefficient draws per pair below 1e-6 relative error,
    inside five minutes."""
    start = time.perf_counter()
    rng = np.random.default_rng(33550336)
    draws = 20
    chunk_rows = 40000
    pair_total = 0
    instance_total = 0
    probe_pairs = []

    for n in range(4, 13):
        root = math.sqrt(n)
        mask_blocks, truth_blocks = [], []
        pending = 0

        def flush():
            nonlocal mask_blocks, truth_blocks, pending, instance_total
            if not pending:
                return
            mask = np.concatenate(mask_blocks)
            truth = np.concatenate(truth_blocks)
            mask_blocks, truth_blocks = [], []
            pending = 0
            spec = np.fft.fft(truth, axis=1) / root
            spec[mask] = 0.0
            sols, converged, _ = l1_recover_many(spec, mask)
            assert bool(converged.all())
            err = np.linalg.norm(sols - truth, axis=1)
            ref = np.linalg.norm(truth, axis=1)
            planted = ref > 0
            assert bool((err[planted] < 1e-6 * ref[planted]).all())
            assert bool((err[~planted] <= 1e-9).all())
            instance_total += sols.shape[0]

        for e in range(n + 1):
            for m in range(n + 1):
                if 2 * e * m >= n:
                    continue
                miss_sets = list(itertools.combinations(range(n), m))
                for supp in itertools.combinations(range(n), e):
                    cols = list(supp)
                    for miss in miss_sets:
                        pair_total += 1
                        assert uniqueness_oracle_1d(set(supp), set(miss), n)
                        if pair_total % 977 == 1 and e:
                            probe_pairs.append((n, supp, miss))
                        truth = np.zeros((draws, n), dtype=complex)
                        if e:
                            truth[:, cols] = rng.normal(size=(draws, e)) + 1j * rng.normal(size=(draws, e))
                        row_mask = np.zeros(n, dtype=bool)
                        if m:
                            row_mask[list(miss)] = True
                        mask_blocks.append(np.broadcast_to(row_mask, (draws, n)))
                        truth_blocks.append(truth)
                        pending += draws
                        if pending >= chunk_rows:
                            flush()
        flush()

    assert pair_total == 102033
    assert instance_total == draws * pair_total

    # a stripe of the same pairs through the scalar operation
    probe_rng = np.random.default_rng(2801)
    for n, supp, miss in probe_pairs:
        truth = np.zeros(n, dtype=complex)
        truth[list(supp)] = probe_rng.normal(size=len(supp)) + 1j * probe_rng.normal(size=len(supp))
        spec = np.fft.fft(truth) / math.sqrt(n)
        observed = {j: complex(spec[j]) for j in range(n) if j not in miss}
        got = l1_recover_1d(observed, set(miss), n)
        assert got is not None
        assert np.linalg.norm(got - truth) < 1e-6 * np.linalg.norm(truth)

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(3, True, f"{pair_total} pairs, {instance_total} instances, "
                     f"{len(probe_pairs)} scalar probes, {elapsed:.0f}s")


def test_criterion_4_tail_bound_ordering_and_squared_width_decay():
    """Grid of widths and rates: the closed-form tail never exceeds the
    analytic bound, and the bound should shrink faster than the grid area
    grows between n=50 and n=400.

    The second half genuinely fails at (theta=0.2, k=0.25): that cell decays
    slower than n**-2, so bound * n**2 rises from 556.098 to 1493.04.  Left
    failing on purpose instead of loosening the check.
    """
    widths = (50, 100, 200, 400)
    ordering_bad = []
    witness_bad = []
    for theta in (0.05, 0.1, 0.2):
        for k in (theta + 0.05, theta + 0.15, 0.5, 0.8):
            res = {n: lemma_tail_bound(n, theta, k) for n in widths}
            for n, r in res.items():
                if r.valid and r.exact_tail > r.lemma_bound:
                    ordering_bad.append((n, theta, k))
            if res[50].valid and res[400].valid:
                if not res[400].lemma_bound * 400.0**2 < res[50].lemma_bound * 50.0**2:
                    witness_bad.append((theta, round(k, 6)))
    ok = not ordering_bad and not witness_bad
    _report(4, ok, "" if ok else f"squared-width decay fails at {witness_bad}")
    assert ordering_bad == []
    assert witness_bad == [], (
        "bound * n**2 grew between n=50 and n=400; the bound at these cells "
        "decays slower than the grid area grows"
    )


def test_criterion_5_closed_forms_match_monte_carlo():
    """Closed-form erasure-count probabilities: asymptotic values at width
    4096, and Wilson 99% agreement with 10000-trial Monte Carlo runs at
    widths 64 and 256; under two minutes."""
    start = time.perf_counter()
    assert prob_mmax_below(4096, 16, 0.1, 1024) >= 0.999
    assert prob_mmin_below(4096, 16, 0.4, 1024) <= 1e-3
    points = (
        (ExperimentMode.MmaxSweep, 0.1, 64, 910000),
        (ExperimentMode.MmaxSweep, 0.1, 256, 920000),
        (ExperimentMode.MminSweep, 0.4, 64, 930000),
        (ExperimentMode.MminSweep, 0.4, 256, 940000),
    )
    for mode, theta, n, base in points:
        cfg = ExperimentConfig(dims=GridDims(n=n, t=16), theta=theta, e_max_target=2,
                               trials=10000, base_seed=base, mode=mode)
        summary, _ = run_experiment(cfg)
        key = "mmax_below_count" if mode is ExperimentMode.MmaxSweep else "mmin_below_count"
        lo, hi = wilson_interval(summary[key], cfg.trials, z=WILSON_Z_99)
        assert lo <= summary["closed_form"] <= hi, (mode.value, n, summary[key])
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(5, True, f"4 Monte Carlo points in {elapsed:.1f}s")


def test_criterion_6_guarded_trials_are_always_exact():
    """2000 seeded row-recovery trials at n=64, t=4, theta=0.05: every trial
    whose worst row lost fewer than 16 samples recovers exactly."""
    cfg = ExperimentConfig(dims=GridDims(n=64, t=4), theta=0.05, e_max_target=2,
                           trials=2000, base_seed=0, mode=ExperimentMode.RowRecovery)
    summary, records = run_experiment(cfg)
    assert summary["threshold_c"] == 16.0
    assert summary["guarded_trials"] > 0
    exceptions = [r.seed for r in records if r.m_max < 16 and not r.exact_recovery]
    assert exceptions == []
    assert summary["guarded_exact"] == summary["guarded_trials"]
    _report(6, True, f"{summary['guarded_trials']} guarded trials, zero exceptions")


def test_criterion_7_skewed_profile_rate_climbs_with_width():
    """Skewed-profile two-stage recovery at t=8: success rate over 1000
    trials is non-decreasing across widths 32..256 and at least 0.99 at the
    top, for erasure rates 1/6 and 1/6 + 0.05; under ten minutes."""
    start = time.perf_counter()
    sig = generate_test_signal(GridDims(n=32, t=8), 3, 1, ProfileShape.SkewedRows)
    profile = support_profile(sig)
    assert profile.e_max == 3
    assert sum(1 for s in profile.row_supports if s < profile.e_max) == 7
    assert column_support_max(gabor_col(sig)) == 2

    widths = (32, 64, 128, 256)
    for delta in (0.0, 0.05):
        cfg = ExperimentConfig(dims=GridDims(n=widths[0], t=8), theta=1.0 / 6.0 + delta,
                               e_max_target=3, trials=1000, base_seed=424000,
                               mode=ExperimentMode.TwoStage,
                               profile_shape=ProfileShape.SkewedRows, sweep=widths)
        rates = [summary["exact_rate"] for summary, _ in run_sweep(cfg)]
        assert all(b >= a for a, b in zip(rates, rates[1:])), (delta, rates)
        assert rates[-1] >= 0.99, (delta, rates)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(7, True, f"both erasure rates in {elapsed:.0f}s")


def test_criterion_8_budget_value_and_ambiguity_witness():
    """Pinned budget value, plus the width-4 pair the oracle must reject:
    two distinct signals of equal L1 that agree on every surviving sample."""
    assert support_budget(0.05, 10) == (9, 90)
    assert uniqueness_oracle_1d({0, 2}, {0, 2}, 4) is False

    a = np.array([2.0, 0.0, 0.0, 0.0], dtype=complex)
    b = np.array([0.0, 0.0, -2.0, 0.0], dtype=complex)
    spec_a = np.fft.fft(a) / 2.0
    spec_b = np.fft.fft(b) / 2.0
    keep = [1, 3]
    assert np.allclose(spec_a[keep], spec_b[keep], atol=1e-15)
    assert np.abs(a).sum() == np.abs(b).sum()
    _report(8, True, "")


def test_criterion_9_reruns_emit_byte_identical_artifacts(tmp_path):
    """Re-running a config reproduces every CSV and JSON byte for byte, both
    through the library and through the command line."""
    configs = [
        ExperimentConfig(dims=GridDims(n=16, t=4), theta=0.1, e_max_target=2,
                         trials=25, base_seed=11, mode=ExperimentMode.RowRecovery),
        ExperimentConfig(dims=GridDims(n=32, t=8), theta=1.0 / 6.0, e_max_target=3,
                         trials=10, base_seed=5, mode=ExperimentMode.TwoStage,
                         profile_shape=ProfileShape.SkewedRows),
        ExperimentConfig(dims=GridDims(n=64, t=8), theta=0.1, e_max_target=2,
                         trials=1, base_seed=0, mode=ExperimentMode.TailBounds),
    ]
    for i, cfg in enumerate(configs):
        emitted = {}
        for tag in ("first", "second"):
            out_dir = tmp_path / f"lib{i}_{tag}"
            out_dir.mkdir()
            summary, records = run_experiment(cfg)
            emitted[tag] = sorted(Path(p) for p in emit_results(summary, records, out_dir))
        assert [p.name for p in emitted["first"]] == [p.name for p in emitted["second"]]
        for p1, p2 in zip(emitted["first"], emitted["second"]):
            assert p1.read_bytes() == p2.read_bytes(), p1.name

    for tag in ("first", "second"):
        out_dir = tmp_path / f"cli_{tag}"
        out_dir.mkdir()
        code = cli_main(["row-recovery", "--n", "16", "--t", "4", "--theta", "0.1",
                         "--e-max", "2", "--trials", "10", "--seed", "3",
                         "--out", str(out_dir)])
        assert code == 0
    first = sorted((tmp_path / "cli_first").iterdir())
    second = sorted((tmp_path / "cli_second").iterdir())
    assert [f.name for f in first] == [f.name for f in second]
    for f1, f2 in zip(first, second):
        assert f1.read_bytes() == f2.read_bytes(), f1.name
    _report(9, True, "3 library configs and one command-line rerun")
