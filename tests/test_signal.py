import json

import numpy as np
import pytest

from gabor_recover.signal import (
    DEFAULT_REL_TOL,
    GridDims,
    Signal2D,
    SupportProfile,
    column_support_max,
    signal_from_json,
    signal_to_json,
    support,
    support_profile,
    _active,
)
from gabor_recover.transforms import _dft, gabor_col


def make(n, t, entries):
    vals = np.zeros((t, n), dtype=complex)
    for (x, y), v in entries.items():
        vals[y, x] = v
    return Signal2D(dims=GridDims(n=n, t=t), values=vals)


class TestGridDims:
    def test_valid(self):
        d = GridDims(n=4, t=3)
        assert (d.n, d.t) == (4, 3)
        assert d.size == 12

    @pytest.mark.parametrize("n,t", [(0, 3), (4, 0), (-1, 2), (3, -5)])
    def test_rejects_nonpositive(self, n, t):
        with pytest.raises(ValueError):
            GridDims(n=n, t=t)

    @pytest.mark.parametrize("n,t,name", [(True, True, "n"), (4, True, "t"),
                                          (np.bool_(True), 3, "n"), (4.0, 3, "n"), (4, 3.0, "t")])
    def test_rejects_bools_and_floats_by_name(self, n, t, name):
        with pytest.raises(ValueError, match=f"grid dimension {name} must be an integer"):
            GridDims(n=n, t=t)

    def test_degenerate_grids_legal(self):
        assert GridDims(n=1, t=1).size == 1
        assert GridDims(n=7, t=1).size == 7
        assert GridDims(n=1, t=7).size == 7


class TestSignal2D:
    def test_shape_checked(self):
        with pytest.raises(ValueError):
            Signal2D(dims=GridDims(n=4, t=3), values=np.zeros((4, 3)))

    def test_rejects_nonfinite(self):
        vals = np.zeros((3, 4), dtype=complex)
        vals[1, 2] = complex(np.nan, 0)
        with pytest.raises(ValueError):
            Signal2D(dims=GridDims(n=4, t=3), values=vals)
        vals[1, 2] = complex(0, np.inf)
        with pytest.raises(ValueError):
            Signal2D(dims=GridDims(n=4, t=3), values=vals)

    def test_copies_and_locks(self):
        vals = np.ones((3, 4), dtype=complex)
        sig = Signal2D(dims=GridDims(n=4, t=3), values=vals)
        vals[0, 0] = 5.0
        assert sig.values[0, 0] == 1.0
        with pytest.raises(ValueError):
            sig.values[0, 0] = 2.0

    def test_equality_by_value(self):
        a = make(4, 3, {(0, 0): 1.0})
        b = make(4, 3, {(0, 0): 1.0})
        c = make(4, 3, {(0, 0): 2.0})
        assert a == b
        assert a != c

    def test_max_modulus(self):
        sig = make(4, 3, {(1, 1): 3 + 4j, (2, 0): 1.0})
        assert sig.max_modulus() == pytest.approx(5.0)


class TestSupport:
    def test_zero_signal_empty(self):
        sig = make(4, 3, {})
        assert support(sig, tol=0.0) == set()

    def test_delta(self):
        sig = make(4, 3, {(0, 0): 1.0})
        assert support(sig, tol=0.0) == {(0, 0)}

    def test_threshold_drops_tiny_entry(self):
        sig = make(4, 3, {(1, 1): 1e-12, (2, 2): 1.0})
        assert support(sig, tol=1e-9) == {(2, 2)}
        assert support(sig, tol=0.0) == {(1, 1), (2, 2)}

    @pytest.mark.parametrize("tol", [True, np.nan, np.inf, -np.inf, "0.1", -1e-9],
                             ids=["bool", "nan", "inf", "minus-inf", "string", "negative"])
    def test_rejects_tolerance_that_is_not_a_finite_non_negative_number(self, tol):
        sig = make(4, 3, {(0, 0): 2.0, (1, 1): 0.5})
        for query in (support, support_profile, column_support_max):
            with pytest.raises(ValueError, match="tol"):
                query(sig, tol)

    def test_default_tol_is_relative(self):
        sig = make(4, 3, {(1, 1): 1e-12, (2, 2): 1.0})
        assert support(sig) == {(2, 2)}

    def test_monotone_in_tol(self, rng):
        vals = rng.normal(size=(5, 6)) * 10.0 ** rng.integers(-12, 0, size=(5, 6))
        sig = Signal2D(dims=GridDims(n=6, t=5), values=vals.astype(complex))
        tols = [0.0, 1e-10, 1e-6, 1e-2, 1.0]
        sets = [support(sig, tol=tl) for tl in tols]
        for bigger, smaller in zip(sets, sets[1:]):
            assert smaller <= bigger


class TestSupportProfile:
    def test_delta_profile(self):
        sig = make(4, 3, {(0, 0): 1.0})
        prof = support_profile(sig, tol=0.0)
        assert prof.row_supports == (1, 0, 0)
        assert prof.e_max == 1
        assert prof.total_support == 1

    def test_all_ones_profile(self):
        sig = Signal2D(dims=GridDims(n=4, t=3), values=np.ones((3, 4), dtype=complex))
        prof = support_profile(sig, tol=0.0)
        assert prof.row_supports == (4, 4, 4)
        assert prof.e_max == 4
        assert prof.total_support == 12

    def test_matches_bruteforce_row_scan(self, rng):
        vals = (rng.random((6, 9)) < 0.4) * (rng.normal(size=(6, 9)) + 1j)
        sig = Signal2D(dims=GridDims(n=9, t=6), values=vals)
        prof = support_profile(sig, tol=0.0)
        counts = [sum(1 for x in range(9) if abs(vals[y, x]) > 0) for y in range(6)]
        assert list(prof.row_supports) == counts
        assert prof.e_max == max(counts)
        assert prof.total_support == sum(counts)

    def test_invariant_ranges(self, rng):
        for _ in range(20):
            vals = (rng.random((4, 7)) < 0.5) * rng.normal(size=(4, 7))
            sig = Signal2D(dims=GridDims(n=7, t=4), values=vals.astype(complex))
            prof = support_profile(sig, tol=0.0)
            assert 0 <= prof.e_max <= 7
            assert prof.e_max <= prof.total_support <= 4 * prof.e_max

    def test_reads_sizes_strictly(self):
        # a size is an integer, numpy's or an integral float, never truncated or a bool
        for bad in ((1.7, True), (1.7,), (True,), (np.True_,), ("2",)):
            with pytest.raises(ValueError, match="^row support must be an integer"):
                SupportProfile(bad)
        assert SupportProfile((np.int64(2), 3.0, 0)).row_supports == (2, 3, 0)


class TestColumnSupportMax:
    def test_zero(self):
        assert column_support_max(make(4, 3, {})) == 0

    def test_one_dense_column(self):
        sig = make(4, 3, {(2, 0): 1.0, (2, 1): 1.0, (2, 2): 1.0})
        assert column_support_max(sig, tol=0.0) == 3

    def test_matches_bruteforce_column_scan(self, rng):
        vals = (rng.random((5, 8)) < 0.35) * (1.0 + rng.random((5, 8)))
        sig = Signal2D(dims=GridDims(n=8, t=5), values=vals.astype(complex))
        expect = max(sum(1 for y in range(5) if abs(vals[y, x]) > 0) for x in range(8))
        assert column_support_max(sig, tol=0.0) == expect


class TestActiveOnAStack:
    def test_each_grid_reads_against_its_own_peak(self, rng):
        # a 1e-8 entry is active against a peak of 1, not against the 100 of the next grid
        vals = np.zeros((3, 4, 6), dtype=complex)
        vals[1] = (rng.random((4, 6)) < 0.5) * np.exp(2j * np.pi * rng.random((4, 6)))
        vals[1, 2, 3], vals[1, 0, 0] = 1e-8, 1.0
        vals[2] = 100 * rng.normal(size=(4, 6)) * (rng.random((4, 6)) < 0.4)
        vals[2, 1, 1] = 1e-6
        active = _active(vals, None)
        cols = _active(_dft(vals, axis=1), None)
        signals = [Signal2D(dims=GridDims(n=6, t=4), values=v) for v in vals]
        assert active.sum(axis=2).tolist() == [list(support_profile(s).row_supports)
                                               for s in signals]
        assert cols.sum(axis=1).max(axis=1).tolist() == [column_support_max(gabor_col(s))
                                                         for s in signals]
        assert not np.array_equal(active, np.abs(vals) > DEFAULT_REL_TOL * np.abs(vals).max())


class TestJson:
    def test_schema_and_row_major_order(self):
        sig = make(2, 2, {(0, 0): 1 + 2j, (1, 0): 3.0, (0, 1): 0.5j})
        data = json.loads(signal_to_json(sig))
        assert data["n"] == 2 and data["t"] == 2
        # index y*n + x
        assert data["re"] == [1.0, 3.0, 0.0, 0.0]
        assert data["im"] == [2.0, 0.0, 0.5, 0.0]

    def test_roundtrip(self, rng):
        vals = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        sig = Signal2D(dims=GridDims(n=5, t=3), values=vals)
        back = signal_from_json(signal_to_json(sig))
        assert back == sig

    def test_canonical_bytes(self):
        sig = make(3, 2, {(1, 1): 2.0})
        assert signal_to_json(sig) == signal_to_json(sig)
        assert signal_to_json(sig).index('"im"') < signal_to_json(sig).index('"re"')

    def test_rejects_bad_payload(self):
        with pytest.raises(ValueError):
            signal_from_json(json.dumps({"n": 2, "t": 2, "re": [1, 2, 3], "im": [0, 0, 0]}))
