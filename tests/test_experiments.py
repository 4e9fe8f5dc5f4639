import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as scipy_stats

from gabor_recover import experiments
from gabor_recover.channel import _streams, apply_erasure, erasure_stats, sample_erasure
from gabor_recover.experiments import (
    EXACT_REL_TOL,
    TRIAL_CSV_HEADER,
    ExperimentConfig,
    ExperimentMode,
    ProfileShape,
    TrialRecord,
    config_from_mapping,
    emit_results,
    generate_test_signal,
    run_experiment,
    run_sweep,
    wilson_interval,
)
from gabor_recover.probbounds import prob_mmax_below
from gabor_recover.recovery import RecoveryStage, RowStatus, recover_rows, recover_two_stage
from gabor_recover.signal import GridDims, Signal2D, column_support_max, support, support_profile
from gabor_recover.transforms import gabor_col, gabor_row

def skewed_one_column_at_a_time(dims, e_max, rng):
    """A SkewedRows grid drawn one column at a time from the raw words of ``rng``'s stream,
    read one scalar at a time, each wave its own scalar exponential: the stack's reference.
    ``rng`` is a Generator at its stream's start."""
    n, t = dims.n, dims.t
    levels = (np.sort(np.arange(e_max) % (t.bit_length() - 1)) + 1).tolist()
    shift = 64 - (t.bit_length() - 1)  # a word's top log2(t) bits
    words = [rng.bit_generator.random_raw() for _ in range(n + 1 + 2 * e_max)]
    cols = sorted(range(n), key=lambda col: words[col])[:e_max]
    dense_row = words[n] >> shift
    y = np.arange(t)
    grid = np.zeros((t, n), dtype=np.complex128)
    for k, (col, level) in enumerate(zip(cols, levels)):
        step = t >> level
        freq = words[n + 1 + k] >> shift
        phase = (words[n + 1 + e_max + k] >> 11) * 2.0 ** -53
        amp = np.exp(2j * np.pi * phase)
        pair = np.exp(2j * np.pi * (phase - dense_row / (1 << level)))
        grid[:, col] = (amp * np.exp(2j * np.pi * freq * y / t)
                        + pair * np.exp(2j * np.pi * ((freq + step) % t) * y / t))
    return grid


def make_config(**overrides):
    base = dict(
        dims=GridDims(n=16, t=4),
        theta=0.1,
        e_max_target=2,
        trials=4,
        base_seed=0,
        mode=ExperimentMode.RowRecovery,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_config(theta=1.5)
        with pytest.raises(ValueError):
            make_config(trials=0)
        with pytest.raises(ValueError):
            make_config(e_max_target=17)
        with pytest.raises(ValueError):
            make_config(e_max_target=0)
        with pytest.raises(ValueError):
            make_config(tol=0.0)
        with pytest.raises(ValueError):
            make_config(tol=float("nan"))
        with pytest.raises(ValueError):
            make_config(tol=float("inf"))
        with pytest.raises(ValueError):
            make_config(mode="RowRecovery")
        with pytest.raises(ValueError):
            make_config(sweep=(8, 8))
        with pytest.raises(ValueError):
            make_config(sweep=(16, 8))

    @pytest.mark.parametrize("field, value", [
        ("theta", True), ("theta", "0.1"), ("theta", None), ("tol", True), ("tol", "1e-9"),
        ("trials", True), ("trials", 2.5), ("trials", "4"), ("base_seed", True),
        ("base_seed", None), ("e_max_target", True), ("e_max_target", np.bool_(True)),
        ("dims", (16, 8)), ("profile_shape", "SkewedRows"),
    ])
    def test_fields_read_strictly_by_name(self, field, value):
        # a bool is never a number here, and each failure names its field
        with pytest.raises(ValueError, match=f"^{field} must be an? "):
            make_config(**{field: value})

    def test_rejects_a_sweep_width_below_one(self):
        with pytest.raises(ValueError, match="sweep values must be positive"):
            make_config(sweep=(0, 4))

    def test_from_mapping_rejects_a_list(self):
        with pytest.raises(ValueError, match="malformed config"):
            config_from_mapping([1, 2])

    def test_sweep_normalized(self):
        cfg = make_config(sweep=[np.int64(8), 16])
        assert cfg.sweep == (8, 16)

    def test_from_mapping_roundtrip(self):
        data = {
            "n": 32, "t": 8, "theta": 0.2, "e_max_target": 3, "trials": 7,
            "base_seed": 11, "mode": "MmaxSweep", "sweep": [16, 32],
            "profile_shape": "SkewedRows", "tol": 1e-8, "output_path": "out",
        }
        cfg = config_from_mapping(data)
        assert cfg.dims == GridDims(n=32, t=8)
        assert cfg.mode is ExperimentMode.MmaxSweep
        assert cfg.profile_shape is ProfileShape.SkewedRows
        assert cfg.sweep == (16, 32)
        assert cfg.output_path == "out"

    def test_from_mapping_defaults(self):
        cfg = config_from_mapping({
            "n": 8, "t": 2, "theta": 0.0, "e_max_target": 1, "mode": "RowRecovery",
        })
        assert cfg.trials == 1 and cfg.base_seed == 0
        assert cfg.profile_shape is ProfileShape.UniformRows
        assert cfg.sweep == ()
        assert cfg.tol == 1e-9
        assert cfg.output_path is None

    def test_from_mapping_names_unknown_keys(self):
        # "trails" and "seed" once fell back to 1 trial at base_seed 0
        with pytest.raises(ValueError, match=r"^config has unknown fields \['seed', 'trails'\]$"):
            config_from_mapping({"n": 16, "t": 4, "theta": 0.1, "e_max_target": 2,
                                 "mode": "RowRecovery", "trails": 500, "seed": 9})
        with pytest.raises(ValueError, match=r"unknown fields \['dims'\]"):
            config_from_mapping({"n": 16, "t": 4, "theta": 0.1, "e_max_target": 2,
                                 "mode": "RowRecovery", "dims": GridDims(n=16, t=4)})

    def test_from_mapping_missing_field(self):
        with pytest.raises(ValueError, match="missing required field"):
            config_from_mapping({"n": 8, "t": 2})


class TestGenerateTestSignal:
    def test_uniform_single_support_rows(self):
        sig = generate_test_signal(GridDims(n=4, t=3), 1, seed=0)
        prof = support_profile(sig)
        assert prof.row_supports == (1, 1, 1)
        assert prof.e_max == 1

    def test_uniform_dense_rows(self):
        sig = generate_test_signal(GridDims(n=5, t=2), 5, seed=1)
        assert support_profile(sig).row_supports == (5, 5)

    def test_uniform_unit_modulus_entries(self):
        sig = generate_test_signal(GridDims(n=12, t=6), 3, seed=9)
        mags = np.abs(sig.values[np.abs(sig.values) > 0])
        assert np.allclose(mags, 1.0, atol=1e-12)
        assert support_profile(sig).row_supports == (3,) * 6

    def test_deterministic(self):
        a = generate_test_signal(GridDims(n=16, t=8), 3, seed=5, profile_shape=ProfileShape.SkewedRows)
        b = generate_test_signal(GridDims(n=16, t=8), 3, seed=5, profile_shape=ProfileShape.SkewedRows)
        c = generate_test_signal(GridDims(n=16, t=8), 3, seed=6, profile_shape=ProfileShape.SkewedRows)
        assert a == b and a != c

    def test_skewed_shape(self):
        # T=8, K=4: one dense row carrying every active column, all other rows
        # strictly smaller, and per-column spectra exactly 2-sparse
        dims = GridDims(n=16, t=8)
        sig = generate_test_signal(dims, 4, seed=21, profile_shape=ProfileShape.SkewedRows)
        prof = support_profile(sig)
        assert prof.e_max == 4
        assert sorted(prof.row_supports).count(4) == 1
        small = sum(1 for s in prof.row_supports if s < 4)
        assert small == 7
        smax = column_support_max(gabor_col(sig))
        assert smax == 2
        # hypothesis fraction: small-support rows exceed (2*smax-1)/(2*smax)
        assert small / dims.t > (2 * smax - 1) / (2 * smax)

    @pytest.mark.parametrize("t,e", [(4, 2), (8, 3), (16, 7)])
    def test_skewed_spectral_sparsity(self, t, e):
        sig = generate_test_signal(GridDims(n=2 * t, t=t), e, seed=33,
                                   profile_shape=ProfileShape.SkewedRows)
        assert support_profile(sig).e_max == e
        assert column_support_max(gabor_col(sig)) == 2

    # a change in any seed's draw order moves these: positions exactly, values to 1e-12
    @pytest.mark.parametrize("shape, dims, e_max, seed, frozen", [
        (ProfileShape.UniformRows, GridDims(n=5, t=3), 2, 11, {
            (0, 0): -0.47976706429624993 - 0.8773958992476304j,
            (3, 0): 0.23674071186204312 - 0.9715728667202749j,
            (1, 1): -0.9969750774599663 - 0.0777219076174427j,
            (2, 1): 0.4071370780640511 - 0.9133670673203993j,
            (3, 2): 0.9928178338658701 - 0.11963590079019626j,
            (4, 2): -0.9528359210080894 - 0.30348592658748774j}),
        (ProfileShape.SkewedRows, GridDims(n=5, t=4), 3, 7, {
            (0, 0): -1.161748119657185 + 0.8064374163399131j,
            (3, 1): -1.9595466968288235 + 0.4002208677058794j,
            (4, 1): 1.8899929083666587 + 0.6541611470606756j,
            (0, 2): -0.8064374163399136 - 1.1617481196571853j,
            (0, 3): -1.9681855359970983 - 0.35531070331727144j,
            (3, 3): -1.9595466968288233 + 0.4002208677058796j,
            (4, 3): -1.889992908366659 - 0.6541611470606752j}),
    ], ids=["uniform", "skewed"])
    def test_draws_are_frozen(self, shape, dims, e_max, seed, frozen):
        sig = generate_test_signal(dims, e_max, seed, shape)
        assert support(sig) == set(frozen)
        want = np.zeros((dims.t, dims.n), dtype=complex)
        for (x, y), value in frozen.items():
            want[y, x] = value
        np.testing.assert_allclose(sig.values, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", list(ProfileShape), ids=lambda shape: shape.value)
    def test_each_seed_is_its_slice_of_the_stack(self, shape):
        dims, seeds = GridDims(n=12, t=8), [40, 3, 3, 17]
        stack = experiments._test_signals(dims, 4, _streams(seeds), len(seeds), shape)
        assert stack.shape == (4, 8, 12)
        for seed, grid in zip(seeds, stack):
            assert generate_test_signal(dims, 4, seed, shape).values.tobytes() == grid.tobytes()

    @pytest.mark.parametrize("n, t, e_max, seeds", [
        (32, 8, 3, 1000), (256, 8, 5, 1000), (16, 16, 7, 1000), (5, 4, 4, 1000),
        (12, 4, 12, 1000), (64, 32, 5, 1000), (10001, 4, 201, 4),
    ], ids=["32x8", "256x8-extra-columns", "16x16-extra-columns", "5x4-e-twice-the-levels",
            "12x4-e-equals-n", "64x32", "10001x4-tail-shuffle"])
    def test_skewed_stack_matches_one_column_at_a_time(self, n, t, e_max, seeds):
        # the stack reads each seed's raw words as arrays and builds every wave in one
        # broadcast; each grid must equal the words read one at a time and each wave taken
        # as a scalar exponential, bit for bit. e_max == n orders every column, and
        # n = 10001 reads a wide stream
        dims, seeds = GridDims(n=n, t=t), range(300, 300 + seeds)
        stack = experiments._test_signals(dims, e_max, _streams(seeds), len(seeds),
                                          ProfileShape.SkewedRows)
        for seed, grid in zip(seeds, stack):
            want = skewed_one_column_at_a_time(dims, e_max, np.random.default_rng(seed))
            assert grid.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, t, e_max", [(32, 8, 3), (5, 4, 4)], ids=["32x8", "5x4"])
    def test_skewed_draws_uniform_chisquare(self, n, t, e_max):
        # over 4000 seeds each column is picked with frequency e_max / n, the first-listed
        # column is uniform on [0, n), and the dense row and the frequencies on [0, t)
        seeds = 4000
        cols, dense_rows, freq, _ = experiments._skewed_draws(_streams(range(seeds)), seeds,
                                                              n, t, e_max)
        assert cols.shape == freq.shape == (seeds, e_max) and dense_rows.shape == (seeds,)
        assert all(len(set(row)) == e_max for row in cols.tolist())
        for draws, bins in ((cols, n), (cols[:, 0], n), (dense_rows, t), (freq, t)):
            counts = np.bincount(draws.ravel(), minlength=bins)
            assert len(counts) == bins
            assert scipy_stats.chisquare(counts).pvalue > 1e-3

    @pytest.mark.parametrize("shape", list(ProfileShape), ids=lambda shape: shape.value)
    @pytest.mark.parametrize("seed", [None, True, np.bool_(True), 3.0, 2.5, "3", -1],
                             ids=["none", "bool", "numpy-bool", "integral-float", "float",
                                  "string", "negative"])
    def test_rejects_bad_seed(self, shape, seed):
        # None once drew OS entropy, so two equal calls gave different signals
        with pytest.raises(ValueError, match="seed must be"):
            generate_test_signal(GridDims(n=8, t=4), 2, seed, shape)

    @pytest.mark.parametrize("shape", list(ProfileShape), ids=lambda shape: shape.value)
    @pytest.mark.parametrize("e_max", [True, 2.5, 2.0, "2"],
                             ids=["bool", "float", "integral-float", "string"])
    def test_rejects_e_max_target_that_is_not_an_integer(self, shape, e_max):
        with pytest.raises(ValueError, match="e_max_target must be an integer"):
            generate_test_signal(GridDims(n=8, t=4), e_max, 0, shape)

    @pytest.mark.parametrize("shape", list(ProfileShape), ids=lambda shape: shape.value)
    def test_numpy_integer_e_max_target_reads_as_its_int(self, shape):
        dims = GridDims(n=8, t=4)
        assert (generate_test_signal(dims, np.int64(2), 5, shape).values.tobytes()
                == generate_test_signal(dims, 2, 5, shape).values.tobytes())

    def test_numpy_integer_seed_reads_as_its_int(self):
        dims = GridDims(n=8, t=4)
        assert (generate_test_signal(dims, 2, np.int64(2**40)).values.tobytes()
                == generate_test_signal(dims, 2, 2**40).values.tobytes())

    def test_errors(self):
        with pytest.raises(ValueError):
            generate_test_signal(GridDims(n=4, t=3), 5, seed=0)
        with pytest.raises(ValueError):
            generate_test_signal(GridDims(n=8, t=3), 2, seed=0,
                                 profile_shape=ProfileShape.SkewedRows)
        with pytest.raises(ValueError):
            generate_test_signal(GridDims(n=8, t=2), 2, seed=0,
                                 profile_shape=ProfileShape.SkewedRows)
        with pytest.raises(ValueError):
            generate_test_signal(GridDims(n=8, t=16), 2, seed=0,
                                 profile_shape=ProfileShape.SkewedRows)

    def test_rejects_a_profile_shape_given_by_its_name(self):
        with pytest.raises(ValueError, match="unknown profile shape"):
            generate_test_signal(GridDims(16, 8), 3, 0, "SkewedRows")


class TestRunExperiment:
    def test_single_trial_no_erasures(self):
        cfg = make_config(dims=GridDims(n=8, t=2), theta=0.0, trials=1)
        summary, records = run_experiment(cfg)
        assert len(records) == 1
        rec = records[0]
        assert rec.m_max == 0 and rec.m_min == 0
        assert rec.exact_recovery is True
        assert rec.rows_recovered == 2
        assert summary["exact_count"] == 1

    def test_seeds_derive_from_base(self):
        cfg = make_config(trials=5, base_seed=100, theta=0.2)
        _, records = run_experiment(cfg)
        assert [r.seed for r in records] == [100, 101, 102, 103, 104]

    def test_single_trial_rerunnable(self):
        cfg = make_config(trials=6, base_seed=0, theta=0.2)
        _, records = run_experiment(cfg)
        solo_cfg = make_config(trials=1, base_seed=3, theta=0.2)
        _, solo = run_experiment(solo_cfg)
        assert solo[0] == records[3]

    def test_trial_record_invariants(self):
        cfg = make_config(trials=20, theta=0.3)
        _, records = run_experiment(cfg)
        for rec in records:
            assert 0 <= rec.rows_recovered <= cfg.dims.t
            assert rec.m_min <= rec.m_max
            if rec.exact_recovery:
                assert rec.residual < cfg.tol

    def test_mmax_sweep_matches_closed_form(self):
        cfg = make_config(
            dims=GridDims(n=16, t=8), theta=0.1, e_max_target=2,
            trials=4000, base_seed=50000, mode=ExperimentMode.MmaxSweep,
            sweep=(16, 32, 64, 128),
        )
        for summary, records in run_sweep(cfg):
            assert summary["trials"] == 4000 and len(records) == 4000
            lo, hi = summary["wilson_95"]
            assert lo <= summary["closed_form"] <= hi
            assert summary["closed_form"] == prob_mmax_below(
                summary["n"], 8, 0.1, summary["n"] / 4
            )

    def test_row_recovery_guarded_event_always_exact(self):
        cfg = make_config(
            dims=GridDims(n=64, t=4), theta=0.05, e_max_target=2,
            trials=500, base_seed=0, mode=ExperimentMode.RowRecovery,
        )
        summary, records = run_experiment(cfg)
        c = summary["threshold_c"]
        assert c == 16.0
        guarded = [r for r in records if r.m_max < c]
        assert summary["guarded_trials"] == len(guarded) > 0
        assert all(r.exact_recovery for r in guarded)
        assert summary["guarded_exact"] == len(guarded)

    def test_sweep_modes_skip_recovery(self):
        cfg = make_config(mode=ExperimentMode.MminSweep, trials=10, theta=0.5)
        summary, records = run_experiment(cfg)
        assert all(r.rows_recovered == 0 and not r.exact_recovery for r in records)
        assert summary["fraction_below"] == summary["mmin_below_count"] / 10

    def test_tail_bounds_mode(self):
        cfg = make_config(dims=GridDims(n=64, t=8), theta=0.05, e_max_target=2,
                          mode=ExperimentMode.TailBounds, trials=1)
        summary, records = run_experiment(cfg)
        assert records == []
        (row,) = summary["tail_table"]
        assert row["n"] == 64 and row["c"] == 16.0
        assert row["valid"] is True
        assert row["exact_tail"] <= row["lemma_bound"]

    def test_tail_bounds_invalid_rate(self):
        # theta at or above the sparsity threshold k leaves the bound unset
        cfg = make_config(dims=GridDims(n=64, t=8), theta=0.4, e_max_target=2,
                          mode=ExperimentMode.TailBounds, trials=1)
        summary, _ = run_experiment(cfg)
        (row,) = summary["tail_table"]
        assert row["valid"] is False
        assert row["lemma_bound"] is None

    # at n=4, seed 94's pattern erases a whole row, which only the column repair restores
    @pytest.mark.parametrize("mode, shape, n, theta, base_seed", [
        (ExperimentMode.RowRecovery, ProfileShape.UniformRows, 32, 0.2, 5),
        (ExperimentMode.TwoStage, ProfileShape.SkewedRows, 4, 0.25, 88),
    ], ids=["row-recovery", "two-stage-skewed"])
    def test_stacked_trials_match_one_problem_calls(self, monkeypatch, mode, shape, n, theta,
                                                    base_seed):
        cfg = make_config(dims=GridDims(n=n, t=8), theta=theta, e_max_target=3, trials=24,
                          base_seed=base_seed, mode=mode, profile_shape=shape)
        stacked, original = [], experiments._recover_many

        def recover_many(values, mask, *args):
            assert values.shape == mask.shape == (len(values), 8, n)
            stacked.append(len(values))
            return original(values, mask, *args)

        monkeypatch.setattr(experiments, "_recover_many", recover_many)
        _, records = run_experiment(cfg)
        assert sum(stacked) == 24 and max(stacked) > 1  # trials shared solves
        expected, column_repairs = [], 0
        for seed in range(base_seed, base_seed + 24):
            signal = generate_test_signal(cfg.dims, 3, 2 * seed, shape)
            pattern = sample_erasure(cfg.dims, theta, 2 * seed + 1)
            problem = apply_erasure(gabor_row(signal), pattern)
            if mode is ExperimentMode.RowRecovery:
                report = recover_rows(problem, profile=support_profile(signal), tol=cfg.tol)
            else:
                report = recover_two_stage(problem, column_support_max(gabor_col(signal)),
                                           tol=cfg.tol)
            rows = sum(s is RowStatus.Recovered for s in report.row_status)
            # a failed row came back only if the column stage ran and every row is Recovered
            column_repairs += report.stage is RecoveryStage.RowThenColumn and rows == 8
            exact = rows == 8 and bool(np.linalg.norm(report.recovered.values - signal.values)
                                       < EXACT_REL_TOL * np.linalg.norm(signal.values))
            counts = pattern.per_row_counts
            expected.append(TrialRecord(seed, int(counts.max()), int(counts.min()), rows, exact,
                                        float(report.residual)))
        assert records == expected
        assert mode is ExperimentMode.RowRecovery or column_repairs > 0

    @pytest.mark.parametrize("mode", [ExperimentMode.RowRecovery, ExperimentMode.TwoStage])
    def test_recovery_trials_build_no_signal_objects(self, monkeypatch, mode):
        built, original = [], Signal2D.__post_init__

        def post_init(signal):
            built.append(signal.dims)
            original(signal)

        monkeypatch.setattr(Signal2D, "__post_init__", post_init)
        cfg = make_config(dims=GridDims(n=16, t=8), theta=0.2, e_max_target=3, trials=12,
                          mode=mode, profile_shape=ProfileShape.SkewedRows)
        _, records = run_experiment(cfg)
        assert len(records) == 12 and built == []
        generate_test_signal(cfg.dims, 3, 0, ProfileShape.SkewedRows)
        assert built == [cfg.dims]  # the spy sees the one-seed door

    @pytest.mark.parametrize("mode", [ExperimentMode.MmaxSweep, ExperimentMode.MminSweep])
    def test_sweep_records_match_one_pattern_loop(self, monkeypatch, mode):
        cfg = make_config(dims=GridDims(n=64, t=16), theta=0.3, trials=150, base_seed=7,
                          mode=mode)
        chunks, original = [], experiments._run_trials

        def run_trials(config, seeds, *streams):
            chunks.append(len(seeds))
            return original(config, seeds, *streams)

        monkeypatch.setattr(experiments, "_run_trials", run_trials)
        _, records = run_experiment(cfg)
        # a sweep chunk keeps 1-byte masks: 4 times the entries of a recovery chunk, and
        # 150 trials end in a partial chunk
        assert chunks == [64, 64, 22]
        expected = []
        for seed in range(7, 157):
            stats = erasure_stats(sample_erasure(cfg.dims, cfg.theta, 2 * seed + 1))
            expected.append(TrialRecord(seed, stats.m_max, stats.m_min, 0, False, 0.0))
        assert records == expected
        assert all(type(r.m_max) is int and type(r.m_min) is int for r in records)

    @pytest.mark.parametrize("mode", [ExperimentMode.MmaxSweep, ExperimentMode.MminSweep,
                                      ExperimentMode.RowRecovery, ExperimentMode.TwoStage])
    def test_chunk_size_leaves_artifacts_unchanged(self, monkeypatch, tmp_path, mode):
        cfg = make_config(dims=GridDims(n=16, t=4), theta=0.25, trials=20, mode=mode,
                          profile_shape=ProfileShape.SkewedRows)
        written = []
        for name, entries in (("one", 1), ("width", cfg.trials * cfg.dims.size)):
            monkeypatch.setattr(experiments, "_CHUNK_ENTRIES", entries)
            summary, records = run_experiment(cfg)
            written.append(emit_results(summary, records, tmp_path / name))
        for pa, pb in zip(*written):
            assert pa.read_bytes() == pb.read_bytes()

    def test_two_stage_chunk_memory_stays_small(self):
        # 32 trials at n=256, t=8 are four chunks of eight grids, about 1.9 MiB at the
        # peak; shrinking the whole stack for the first check and keeping the polish's
        # output beside its level arrays reads 3.0 MiB at this depth
        cfg = make_config(dims=GridDims(n=256, t=8), theta=1 / 6, e_max_target=3, trials=32,
                          mode=ExperimentMode.TwoStage, profile_shape=ProfileShape.SkewedRows)
        run_experiment(make_config(trials=1, mode=ExperimentMode.TwoStage))  # first-call set-up
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20

    def test_sweep_rejects_skewed_rows_it_could_not_draw(self):
        # SkewedRows needs a power-of-two t; sweeps draw no signal but still check
        with pytest.raises(ValueError, match="power of two"):
            run_experiment(make_config(dims=GridDims(n=16, t=6), e_max_target=3, trials=1,
                                       mode=ExperimentMode.MmaxSweep,
                                       profile_shape=ProfileShape.SkewedRows))


class TestRunSweep:
    def test_points_cover_widths(self):
        cfg = make_config(sweep=(8, 16), trials=2, mode=ExperimentMode.MmaxSweep)
        points = run_sweep(cfg)
        assert [s["n"] for s, _ in points] == [8, 16]
        assert all(s["t"] == 4 for s, _ in points)

    def test_empty_sweep_runs_configured_width(self):
        cfg = make_config(trials=2, mode=ExperimentMode.MmaxSweep)
        points = run_sweep(cfg)
        assert len(points) == 1
        assert points[0][0]["n"] == 16


class TestEmitResults:
    def test_empty_records_header_only(self, tmp_path):
        cfg = make_config(mode=ExperimentMode.MmaxSweep, trials=1)
        summary, _ = run_experiment(cfg)
        paths = emit_results(summary, [], tmp_path)
        csv_path = next(p for p in paths if p.suffix == ".csv")
        assert csv_path.read_text() == TRIAL_CSV_HEADER + "\n"

    def test_three_records_four_lines(self, tmp_path):
        records = [
            TrialRecord(seed=2, m_max=1, m_min=0, rows_recovered=4,
                        exact_recovery=True, residual=0.0),
            TrialRecord(seed=0, m_max=3, m_min=1, rows_recovered=2,
                        exact_recovery=False, residual=0.5),
            TrialRecord(seed=1, m_max=0, m_min=0, rows_recovered=4,
                        exact_recovery=True, residual=1e-12),
        ]
        cfg = make_config(trials=3)
        summary, _ = run_experiment(cfg)
        paths = emit_results(summary, records, tmp_path)
        csv_path = next(p for p in paths if p.name.endswith("_trials.csv"))
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0] == TRIAL_CSV_HEADER
        # ordered by seed, booleans lowercased
        assert lines[1].startswith("0,3,1,2,false,")
        assert lines[2].startswith("1,0,0,4,true,")
        assert lines[3].startswith("2,1,0,4,true,")

    def test_trial_rows_are_their_cells(self, tmp_path):
        # each row is written in one format string, and must read as _cell writes each
        # field: a zero residual as 0, where repr writes 0.0
        records = [TrialRecord(k, 3, 1, 2, k % 2 == 0, res) for k, res in enumerate(
            [0.0, -0.0, 1e-300, 0.1, 1 / 3, 2.5e20, 123456789.125, math.nan, math.inf,
             np.float64(7e-17)])]
        summary, _ = run_experiment(make_config(trials=1))
        csv_path = emit_results(summary, records, tmp_path)[0]
        assert csv_path.read_text().splitlines()[1:] == [
            ",".join(map(experiments._cell, record)) for record in records]

    def test_reruns_byte_identical(self, tmp_path):
        cfg = make_config(trials=12, theta=0.25)
        first = run_experiment(cfg)
        second = run_experiment(cfg)
        paths_a = emit_results(first[0], first[1], tmp_path / "a")
        paths_b = emit_results(second[0], second[1], tmp_path / "b")
        assert [p.name for p in paths_a] == [p.name for p in paths_b]
        for pa, pb in zip(paths_a, paths_b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_wall_clock_stripped_from_summary(self, tmp_path):
        cfg = make_config(trials=2)
        summary, records = run_experiment(cfg)
        assert "wall_clock" in summary
        paths = emit_results(summary, records, tmp_path)
        json_path = next(p for p in paths if p.suffix == ".json")
        data = json.loads(json_path.read_text())
        assert "wall_clock" not in data
        assert data["mode"] == "RowRecovery"

    def test_file_naming(self, tmp_path):
        cfg = make_config(dims=GridDims(n=32, t=4), mode=ExperimentMode.TwoStage,
                          trials=1, theta=0.0)
        summary, records = run_experiment(cfg)
        paths = emit_results(summary, records, tmp_path)
        names = {p.name for p in paths}
        assert names == {"two_stage_n32_trials.csv", "two_stage_n32_summary.json"}

    def test_tail_table_csv(self, tmp_path):
        cfg = make_config(dims=GridDims(n=64, t=8), theta=0.05, e_max_target=2,
                          mode=ExperimentMode.TailBounds, trials=1)
        summary, records = run_experiment(cfg)
        paths = emit_results(summary, records, tmp_path)
        table = next(p for p in paths if p.name.endswith("_table.csv"))
        lines = table.read_text().splitlines()
        assert lines[0] == "n,t,theta,e_max,c,p_mmax_below,p_mmin_below,exact_tail,lemma_bound,valid"
        assert len(lines) == 2
        assert lines[1].startswith("64,8,") and lines[1].endswith(",true")

    def test_tail_table_csv_leaves_an_unset_bound_empty(self, tmp_path):
        # theta 0.3 is above k = 1/4, so the row has no lemma bound
        cfg = make_config(dims=GridDims(n=64, t=8), theta=0.3, e_max_target=2,
                          mode=ExperimentMode.TailBounds, trials=1)
        paths = emit_results(*run_experiment(cfg), tmp_path)
        table = next(p for p in paths if p.name.endswith("_table.csv"))
        row = table.read_text().splitlines()[1]
        assert row.startswith("64,8,0.29999999999999999,2,") and row.endswith(",,false")

    def test_io_error_has_path_context(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        cfg = make_config(trials=1, theta=0.0)
        summary, records = run_experiment(cfg)
        with pytest.raises(OSError, match="failed writing"):
            emit_results(summary, records, blocker / "sub")


class TestWilsonInterval:
    def test_matches_scipy(self):
        for successes, trials in [(0, 10), (10, 10), (8, 10), (381, 400), (1, 977)]:
            lo, hi = wilson_interval(successes, trials)
            ref = scipy_stats.binomtest(successes, trials).proportion_ci(
                confidence_level=0.95, method="wilson"
            )
            assert lo == pytest.approx(ref.low, abs=1e-12)
            assert hi == pytest.approx(ref.high, abs=1e-12)

    def test_contains_point_estimate(self):
        for s, m in [(0, 5), (3, 7), (5, 5)]:
            lo, hi = wilson_interval(s, m)
            assert 0.0 <= lo <= s / m <= hi <= 1.0

    def test_stricter_z_widens(self):
        from gabor_recover.experiments import WILSON_Z_99

        lo95, hi95 = wilson_interval(50, 80)
        lo99, hi99 = wilson_interval(50, 80, z=WILSON_Z_99)
        assert lo99 < lo95 and hi99 > hi95

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(6, 5)
