import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from gabor_recover import channel
from gabor_recover.channel import (
    ErasurePattern,
    ErasureStats,
    _sample_masks,
    _seed_words,
    _streams,
    apply_erasure,
    erasure_stats,
    pattern_from_json,
    pattern_to_json,
    sample_erasure,
)
from gabor_recover.recovery import RecoveryProblem
from gabor_recover.signal import GridDims, Signal2D
from gabor_recover.transforms import TransformKind

from conftest import binom_pmf_frac

DIMS = GridDims(n=4, t=3)


def full_row_pattern(dims, row):
    mask = np.zeros((dims.t, dims.n), dtype=bool)
    mask[row] = True
    return ErasurePattern(dims=dims, mask=mask)


class TestErasurePattern:
    def test_shape_checked(self):
        with pytest.raises(ValueError):
            ErasurePattern(dims=DIMS, mask=np.zeros((4, 3), dtype=bool))

    def test_mask_locked(self):
        pat = full_row_pattern(DIMS, 0)
        with pytest.raises(ValueError):
            pat.mask[0, 0] = False

    def test_counts_and_missing_agree(self, rng):
        mask = rng.random((5, 7)) < 0.4
        pat = ErasurePattern(dims=GridDims(n=7, t=5), mask=mask)
        missing = pat.missing
        for y in range(5):
            assert pat.per_row_counts[y] == sum(1 for (px, py) in missing if py == y)
        assert pat.missing_count() == len(missing) == pat.per_row_counts.sum()

    def test_from_missing_roundtrip(self):
        pat = ErasurePattern.from_missing(DIMS, [(0, 0), (3, 2), (1, 1)])
        assert pat.missing == {(0, 0), (3, 2), (1, 1)}

    def test_from_missing_rejects_out_of_grid(self):
        with pytest.raises(ValueError):
            ErasurePattern.from_missing(DIMS, [(4, 0)])
        with pytest.raises(ValueError):
            ErasurePattern.from_missing(DIMS, [(0, -1)])

    def test_from_missing_reads_positions_strictly(self):
        # numpy would read a bool index as a mask, erasing a whole row
        for bad in ((True, 0), (0, np.True_), (1.5, 0), ("1", 0), (None, 0)):
            with pytest.raises(ValueError, match=" must be an integer"):
                ErasurePattern.from_missing(DIMS, [bad])
        assert ErasurePattern.from_missing(DIMS, [(2.0, np.int64(1))]).missing == {(2, 1)}

    def test_equality(self):
        a = full_row_pattern(DIMS, 1)
        b = full_row_pattern(DIMS, 1)
        c = full_row_pattern(DIMS, 2)
        assert a == b and a != c


class TestSampleErasure:
    def test_theta_zero_keeps_everything(self):
        pat = sample_erasure(DIMS, 0.0, seed=3)
        assert pat.missing == frozenset()
        assert erasure_stats(pat) == ErasureStats(m_max=0, m_min=0)

    def test_theta_one_drops_everything(self):
        pat = sample_erasure(DIMS, 1.0, seed=3)
        assert pat.missing_count() == DIMS.size

    def test_deterministic_in_seed(self):
        a = sample_erasure(GridDims(n=16, t=4), 0.3, seed=99)
        b = sample_erasure(GridDims(n=16, t=4), 0.3, seed=99)
        c = sample_erasure(GridDims(n=16, t=4), 0.3, seed=100)
        assert a == b
        assert a != c

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            sample_erasure(DIMS, -0.1, seed=0)
        with pytest.raises(ValueError):
            sample_erasure(DIMS, 1.0001, seed=0)

    @pytest.mark.parametrize("theta", [True, np.bool_(False), "0.3", None, [0.3]],
                             ids=["bool", "numpy-bool", "string", "none", "list"])
    def test_rejects_theta_that_is_not_a_number(self, theta):
        # True once read as 1 and erased every position
        with pytest.raises(ValueError, match="theta must be a number"):
            sample_erasure(DIMS, theta, seed=3)

    @pytest.mark.parametrize("seed", [None, True, np.bool_(True), 3.0, 2.5, "3", -1],
                             ids=["none", "bool", "numpy-bool", "integral-float", "float",
                                  "string", "negative"])
    def test_rejects_bad_seed(self, seed):
        # None once drew OS entropy, so two equal calls gave different patterns
        with pytest.raises(ValueError, match="seed must be"):
            sample_erasure(DIMS, 0.3, seed)

    def test_numpy_integer_seed_reads_as_its_int(self):
        assert sample_erasure(DIMS, 0.3, np.uint64(2**40)) == sample_erasure(DIMS, 0.3, 2**40)

    def test_rejects_nan_theta(self):
        for theta in (math.nan, np.float64(math.nan)):
            with pytest.raises(ValueError, match=r"theta must lie in \[0, 1\]"):
                sample_erasure(DIMS, theta, seed=3)

    @pytest.mark.parametrize("theta", [np.float64(0.3), np.float32(0.5), np.float16(1.0)],
                             ids=lambda theta: type(theta).__name__)
    def test_numpy_float_theta_reads_as_its_float(self, theta):
        assert sample_erasure(DIMS, theta, seed=7) == sample_erasure(DIMS, float(theta), seed=7)

    def test_mean_missing_count(self):
        dims = GridDims(n=64, t=8)
        total = 0
        trials = 10_000
        for seed in range(trials):
            total += sample_erasure(dims, 0.1, seed).missing_count()
        mean = total / trials
        # |missing| ~ Binomial(512, 0.1): mean 51.2, sd sqrt(46.08)
        se = math.sqrt(512 * 0.1 * 0.9) / math.sqrt(trials)
        assert abs(mean - 51.2) <= 3 * se

    def test_per_row_counts_binomial_chisquare(self):
        # rows are length-32 Bernoulli strings; their counts must fit Binomial(32, theta)
        dims, theta, samples = GridDims(n=32, t=1), 0.3, 100_000
        counts = np.zeros(33, dtype=np.int64)
        for seed in range(samples):
            counts[sample_erasure(dims, theta, seed).per_row_counts[0]] += 1
        expected = np.array(
            [float(binom_pmf_frac(32, k, Fraction(theta))) * samples for k in range(33)]
        )
        # pool sparse tail bins so every expected cell is >= 5
        keep = expected >= 5.0
        obs = np.append(counts[keep], counts[~keep].sum())
        exp = np.append(expected[keep], expected[~keep].sum())
        result = stats.chisquare(obs, exp * obs.sum() / exp.sum())
        assert result.pvalue > 1e-3


class TestSampleMasks:
    @pytest.mark.parametrize("dims", [GridDims(n=1, t=1), GridDims(n=1, t=5), GridDims(n=7, t=1),
                                      GridDims(n=16, t=4)], ids=str)
    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.0])
    def test_each_mask_is_its_seeds_own_draw(self, dims, theta):
        seeds = [0, 1, 5, 2, 2**40 + 3]
        masks = _sample_masks(dims, theta, _streams(seeds), len(seeds))
        assert masks.dtype == bool and masks.shape == (len(seeds), dims.t, dims.n)
        for mask, seed in zip(masks, seeds):
            # the draw of a fresh PCG64 stream per seed, as a one-pattern sampler writes it
            expected = np.random.Generator(np.random.PCG64(seed)).random((dims.t, dims.n)) < theta
            assert np.array_equal(mask, expected)
            assert np.array_equal(sample_erasure(dims, theta, seed).mask, expected)

    def test_no_seeds_give_an_empty_stack(self):
        masks = _sample_masks(GridDims(n=16, t=4), 0.3, _streams([]), 0)
        assert masks.shape == (0, 4, 16) and masks.dtype == bool


class TestStreams:
    # numpy's own constructor is the reference for every state and draw
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64, 2**128, 2**160 + 3],
                             ids=["0", "2^32-1", "2^32", "2^64", "2^128", "2^160+3"])
    def test_state_is_pcg64s_at_the_seed(self, seed):
        (rng,) = _streams([seed])
        assert rng.bit_generator.state == np.random.PCG64(seed).state

    @pytest.mark.parametrize("count", [1, 7, 8])
    def test_a_few_seeds_hash_as_a_block_does(self, count):
        # a block of any size takes the block kernel; its words must be numpy's own
        # SeedSequence's, for seeds of one to three 32-bit words
        seeds = [0, 7, 2**32 - 1, 2**32 + 1, 2**64 + 5, 2**73 + 12345, 2**33, 5][:count]
        words = _seed_words(seeds)
        for k, seed in enumerate(seeds):
            assert np.array_equal(words[:, k],
                                  np.random.SeedSequence(seed).generate_state(4, np.uint64))
        states = [rng.bit_generator.state for rng in _streams(seeds)]
        assert states == [np.random.PCG64(seed).state for seed in seeds]

    def test_states_across_a_block_boundary(self):
        # 4100 seeds of 0 to 7 words in one run, two blocks of 2048 and one of 4
        seeds = [k << k % 190 for k in range(4100)]
        states = [rng.bit_generator.state for rng in _streams(seeds)]
        assert states == [np.random.PCG64(seed).state for seed in seeds]

    def test_kernel_states_across_block_boundaries(self, monkeypatch):
        # 4100 seeds of 0 to 4 words, all below 2**128, so every block takes the block
        # kernel: two of 2048 and the last of 4
        seeds = [k << k % 116 for k in range(4100)]
        assert max(seeds) < 2**128 and max(seeds).bit_length() > 96
        hashed = []

        def kernel(block):
            hashed.append(len(block))
            return _seed_words(block)

        monkeypatch.setattr(channel, "_seed_words", kernel)
        states = [rng.bit_generator.state for rng in _streams(seeds)]
        assert hashed == [2048, 2048, 4]
        assert states == [np.random.PCG64(seed).state for seed in seeds]

    def test_a_block_holds_its_hashes_as_arrays(self):
        # between yields a full block keeps its seeds and their hash words, about 110 bytes
        # a seed; its 2048 (state, inc) pairs of 128-bit ints listed at once would hold
        # about 85 bytes a seed more
        next(_streams([0]))  # numpy's one-time generator set-up
        seeds = range(2**64, 2**64 + 2048)
        tracemalloc.start()
        try:
            rngs = _streams(seeds)
            before = tracemalloc.get_traced_memory()[0]
            next(rngs)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 150 * len(seeds)

    def test_draws_are_fresh_generators_draws(self):
        # the calls test signals make; the last integers() call leaves half a 64-bit
        # word buffered, which the next seed must not see
        def draws(rng):
            got = (rng.random((3, 5)).tobytes(), int(rng.integers(8)),
                   rng.choice(20, size=5, replace=False).tolist(), rng.random(),
                   int(rng.integers(8)))
            assert rng.bit_generator.state["has_uint32"] == 1
            return got

        seeds = [3, 2**64 + 1, 3, 0, 2**200]
        got = [draws(rng) for rng in _streams(seeds)]
        assert got == [draws(np.random.Generator(np.random.PCG64(seed))) for seed in seeds]


class TestErasureStats:
    def test_empty(self):
        assert erasure_stats(ErasurePattern.from_missing(DIMS, [])) == ErasureStats(0, 0)

    def test_one_full_row(self):
        stats_ = erasure_stats(full_row_pattern(DIMS, 1))
        assert stats_.m_max == 4
        assert stats_.m_min == 0

    def test_matches_recount(self, rng):
        mask = rng.random((6, 9)) < 0.5
        pat = ErasurePattern(dims=GridDims(n=9, t=6), mask=mask)
        got = erasure_stats(pat)
        per_row = [sum(1 for (x, y) in pat.missing if y == row) for row in range(6)]
        assert got.m_max == max(per_row)
        assert got.m_min == min(per_row)
        assert got.m_min <= got.m_max


class TestApplyErasure:
    def make_transform(self, rng, dims=DIMS):
        vals = rng.normal(size=(dims.t, dims.n)) + 1j * rng.normal(size=(dims.t, dims.n))
        return Signal2D(dims=dims, values=vals)

    def test_empty_pattern_keeps_all(self, rng):
        sig = self.make_transform(rng)
        prob = apply_erasure(sig, ErasurePattern.from_missing(DIMS, []))
        assert isinstance(prob, RecoveryProblem)
        assert prob.kind is TransformKind.GaborRow
        assert np.array_equal(prob.observed_values, sig.values)

    def test_full_pattern_keeps_nothing(self, rng):
        sig = self.make_transform(rng)
        pat = sample_erasure(DIMS, 1.0, seed=0)
        prob = apply_erasure(sig, pat)
        assert np.isnan(prob.observed_values).all()

    def test_observed_is_exact_complement(self, rng):
        sig = self.make_transform(rng)
        pat = sample_erasure(DIMS, 0.5, seed=8)
        prob = apply_erasure(sig, pat)
        finite = ~np.isnan(prob.observed_values)
        assert np.array_equal(finite, ~pat.mask)
        assert np.array_equal(prob.observed_values[finite], sig.values[finite])
        ys, xs = np.nonzero(finite)
        assert set(zip(xs.tolist(), ys.tolist())) == {
            (x, y) for x in range(4) for y in range(3) if (x, y) not in pat.missing
        }

    def test_dims_mismatch_rejected(self, rng):
        sig = self.make_transform(rng)
        with pytest.raises(ValueError):
            apply_erasure(sig, ErasurePattern.from_missing(GridDims(n=5, t=3), []))

    def test_kind_carried_through(self, rng):
        sig = self.make_transform(rng)
        prob = apply_erasure(sig, sample_erasure(DIMS, 0.2, seed=1), TransformKind.Fourier2D)
        assert prob.kind is TransformKind.Fourier2D


class TestPatternJson:
    def test_canonical_sorted(self):
        pat = ErasurePattern.from_missing(DIMS, [(3, 2), (0, 1), (3, 0)])
        data = json.loads(pattern_to_json(pat))
        assert data == {"n": 4, "t": 3, "missing": [[0, 1], [3, 0], [3, 2]]}
        assert pattern_to_json(pat) == pattern_to_json(pat)

    def test_roundtrip(self, rng):
        mask = rng.random((3, 4)) < 0.5
        pat = ErasurePattern(dims=DIMS, mask=mask)
        assert pattern_from_json(pattern_to_json(pat)) == pat

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            pattern_from_json(json.dumps({"n": 4, "t": 3}))
        with pytest.raises(ValueError):
            pattern_from_json(json.dumps({"n": 4, "t": 3, "missing": [[9, 9]]}))

    @pytest.mark.parametrize("payload", [{"n": 4, "t": 3, "missing": [[1.7, 0]]},
                                         {"n": 4.5, "t": 3, "missing": []},
                                         {"n": 4, "t": True, "missing": []}])
    def test_rejects_non_integral_numbers(self, payload):
        # an integer field reads 4 or 4.0, never a truncated 1.7 or a bool
        with pytest.raises(ValueError):
            pattern_from_json(json.dumps(payload))
