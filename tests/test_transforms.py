import math

import numpy as np
import pytest

from gabor_recover.signal import GridDims, Signal2D
from gabor_recover.transforms import (
    TransformKind,
    _dft,
    _idft,
    dft2,
    gabor_col,
    gabor_col_inverse,
    gabor_row,
    gabor_row_inverse,
    idft2,
)

from conftest import (
    oracle_dft2,
    oracle_dft2_loops,
    oracle_gabor_col,
    oracle_gabor_row,
    oracle_idft2,
)

INV_SQRT_12 = 0.2886751345948129  # 1/sqrt(4*3)


def random_signal(rng, n, t):
    vals = rng.normal(size=(t, n)) + 1j * rng.normal(size=(t, n))
    return Signal2D(dims=GridDims(n=n, t=t), values=vals)


def test_transform_kind_members():
    assert {k.value for k in TransformKind} == {"Fourier2D", "GaborRow", "GaborCol"}


class TestAgainstOracles:
    DIMS = [(1, 1), (1, 4), (4, 1), (2, 2), (4, 3), (5, 7), (8, 8)]

    @pytest.mark.parametrize("n,t", DIMS)
    def test_dft2_matches_oracle(self, rng, n, t):
        sig = random_signal(rng, n, t)
        assert np.allclose(dft2(sig).values, oracle_dft2(sig.values), atol=1e-12)

    @pytest.mark.parametrize("n,t", [(2, 2), (3, 4), (4, 3)])
    def test_dft2_matches_literal_quadruple_sum(self, rng, n, t):
        sig = random_signal(rng, n, t)
        assert np.allclose(dft2(sig).values, oracle_dft2_loops(sig.values), atol=1e-12)

    @pytest.mark.parametrize("n,t", DIMS)
    def test_gabor_row_matches_oracle(self, rng, n, t):
        sig = random_signal(rng, n, t)
        assert np.allclose(gabor_row(sig).values, oracle_gabor_row(sig.values), atol=1e-12)

    @pytest.mark.parametrize("n,t", DIMS)
    def test_gabor_col_matches_oracle(self, rng, n, t):
        sig = random_signal(rng, n, t)
        assert np.allclose(gabor_col(sig).values, oracle_gabor_col(sig.values), atol=1e-12)


class TestDeltaExamples:
    def test_dft2_of_delta_is_flat(self):
        vals = np.zeros((3, 4), dtype=complex)
        vals[0, 0] = 1.0
        out = dft2(Signal2D(dims=GridDims(n=4, t=3), values=vals))
        assert np.allclose(out.values, INV_SQRT_12, atol=1e-15)

    def test_shifted_delta_keeps_flat_modulus(self):
        vals = np.zeros((3, 4), dtype=complex)
        vals[2, 1] = 1.0
        out = dft2(Signal2D(dims=GridDims(n=4, t=3), values=vals))
        assert np.allclose(np.abs(out.values), INV_SQRT_12, atol=1e-15)

    def test_gabor_row_of_delta_spreads_only_its_row(self):
        vals = np.zeros((3, 4), dtype=complex)
        vals[1, 0] = 1.0
        out = gabor_row(Signal2D(dims=GridDims(n=4, t=3), values=vals))
        assert np.allclose(out.values[1], 0.5)
        assert np.allclose(out.values[[0, 2]], 0.0)


class TestUnitarity:
    @pytest.mark.parametrize("fwd,inv", [
        (dft2, idft2),
        (gabor_row, gabor_row_inverse),
        (gabor_col, gabor_col_inverse),
    ])
    def test_roundtrip(self, rng, fwd, inv):
        sig = random_signal(rng, 6, 5)
        assert np.allclose(inv(fwd(sig)).values, sig.values, atol=1e-12)
        assert np.allclose(fwd(inv(sig)).values, sig.values, atol=1e-12)

    @pytest.mark.parametrize("fwd", [dft2, gabor_row, gabor_col])
    def test_energy_preserved(self, rng, fwd):
        sig = random_signal(rng, 7, 4)
        before = np.linalg.norm(sig.values)
        after = np.linalg.norm(fwd(sig).values)
        assert after == pytest.approx(before, rel=1e-12)


class TestComposition:
    def test_row_then_col_is_dft2(self, rng):
        sig = random_signal(rng, 5, 6)
        assert np.allclose(gabor_col(gabor_row(sig)).values, dft2(sig).values, atol=1e-12)

    def test_col_then_row_is_dft2(self, rng):
        sig = random_signal(rng, 5, 6)
        assert np.allclose(gabor_row(gabor_col(sig)).values, dft2(sig).values, atol=1e-12)


# the defining sums of conftest's oracles, as Signal2D -> Signal2D maps
def dft2_naive(sig):
    return Signal2D(dims=sig.dims, values=oracle_dft2(sig.values))


def idft2_naive(sig):
    return Signal2D(dims=sig.dims, values=oracle_idft2(sig.values))


def gabor_row_naive(sig):
    return Signal2D(dims=sig.dims, values=oracle_gabor_row(sig.values))


def gabor_col_naive(sig):
    return Signal2D(dims=sig.dims, values=oracle_gabor_col(sig.values))


class TestNaiveAgreement:
    @pytest.mark.parametrize("fast,naive", [
        (dft2, dft2_naive),
        (idft2, idft2_naive),
        (gabor_row, gabor_row_naive),
        (gabor_col, gabor_col_naive),
    ])
    @pytest.mark.parametrize("n,t", [(1, 1), (3, 1), (1, 3), (4, 4), (9, 5)])
    def test_fast_equals_naive(self, rng, fast, naive, n, t):
        sig = random_signal(rng, n, t)
        assert np.allclose(fast(sig).values, naive(sig).values, atol=1e-11)

    def test_naive_roundtrip(self, rng):
        sig = random_signal(rng, 4, 3)
        assert np.allclose(idft2_naive(dft2_naive(sig)).values, sig.values, atol=1e-12)


def test_dims_preserved(rng):
    sig = random_signal(rng, 5, 2)
    for fn in (dft2, idft2, gabor_row, gabor_row_inverse, gabor_col, gabor_col_inverse):
        assert fn(sig).dims == sig.dims


@pytest.mark.parametrize("axis", [0, 1, -1])
@pytest.mark.parametrize("dtype", [complex, float])
def test_unitary_dfts_scale_in_place_bit_for_bit(rng, axis, dtype):
    # the 1D transforms scale numpy's FFT output in place: same bits, input untouched
    v = rng.normal(size=(6, 10)).astype(dtype)
    if dtype is complex:
        v += 1j * rng.normal(size=v.shape)
    before = v.copy()
    root = math.sqrt(v.shape[axis])
    assert _dft(v, axis).tobytes() == (np.fft.fft(v, axis=axis) / root).tobytes()
    assert _idft(v, axis).tobytes() == (np.fft.ifft(v, axis=axis) * root).tobytes()
    assert v.tobytes() == before.tobytes()
