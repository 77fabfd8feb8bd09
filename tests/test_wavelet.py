import numpy as np
import pytest

from ctxclf.errors import CtxclfError
from ctxclf.wavelet import (
    DB6_HIGHPASS,
    DB6_LOWPASS,
    TAPS,
    dwt_db6,
    idwt_db6_periodic,
)


def test_filter_identities():
    # orthonormal scaling filter: sum h = sqrt(2), unit energy
    assert np.isclose(np.sum(DB6_LOWPASS), np.sqrt(2.0), atol=1e-12)
    assert np.isclose(np.sum(DB6_LOWPASS**2), 1.0, atol=1e-12)
    # quadrature mirror: zero mean, unit energy, orthogonal to low-pass
    assert abs(np.sum(DB6_HIGHPASS)) < 1e-12
    assert np.isclose(np.sum(DB6_HIGHPASS**2), 1.0, atol=1e-12)
    assert abs(np.dot(DB6_LOWPASS, DB6_HIGHPASS)) < 1e-12


def test_even_shift_orthogonality():
    for k in range(1, TAPS // 2):
        assert abs(np.dot(DB6_LOWPASS[: -2 * k], DB6_LOWPASS[2 * k :])) < 1e-12
        assert abs(np.dot(DB6_HIGHPASS[: -2 * k], DB6_HIGHPASS[2 * k :])) < 1e-12


def test_subband_order_and_lengths_symmetric():
    n = 200
    x = np.random.default_rng(0).standard_normal(n)
    subbands = dwt_db6(x, levels=3)
    assert len(subbands) == 4  # [A3, D3, D2, D1]
    expected = n
    lengths = []
    for _ in range(3):
        expected = -(-(expected + TAPS - 1) // 2)  # ceil((n + 11) / 2)
        lengths.append(expected)
    a3, d3, d2, d1 = subbands
    assert len(d1) == lengths[0]
    assert len(d2) == lengths[1]
    assert len(d3) == lengths[2]
    assert len(a3) == lengths[2]


def _naive_symmetric_level(x, filt):
    # independent oracle: explicit symmetric extension + correlation + decimate
    pad = TAPS - 1
    ext = list(x[:pad][::-1]) + list(x) + list(x[-1 : -pad - 1 : -1])
    full = [
        sum(ext[i + t] * filt[t] for t in range(TAPS)) for i in range(len(ext) - TAPS + 1)
    ]
    return np.array(full[::2])


def test_symmetric_mode_matches_naive_oracle():
    rng = np.random.default_rng(1)
    for n in (32, 57, 100):
        x = rng.standard_normal(n)
        got = dwt_db6(x, levels=1)
        assert np.allclose(got[1], _naive_symmetric_level(x, DB6_HIGHPASS), atol=1e-12)
        assert np.allclose(got[0], _naive_symmetric_level(x, DB6_LOWPASS), atol=1e-12)


def test_periodic_round_trip_and_parseval():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(4, 16)) * 8  # divisible by 2^3
        x = rng.standard_normal(n)
        subbands = dwt_db6(x, levels=3, mode="periodic")
        energy = sum(float(np.sum(s**2)) for s in subbands)
        assert np.isclose(energy, float(np.sum(x**2)), rtol=1e-12)
        back = idwt_db6_periodic(subbands)
        assert np.max(np.abs(back - x)) < 1e-10


def test_constant_annihilation_and_dc_gain():
    c = 3.7
    x = np.full(128, c)
    subbands = dwt_db6(x, levels=3, mode="periodic")
    for d in subbands[1:]:
        assert np.max(np.abs(d)) < 1e-12
    # each low-pass stage multiplies a constant by sqrt(2)
    assert np.allclose(subbands[0], c * 2 ** (3 / 2), atol=1e-10)


def test_input_validation():
    with pytest.raises(CtxclfError, match=r"^need >= 8 samples for 3 levels, got 4$"):
        dwt_db6(np.ones(4), levels=3)
    with pytest.raises(CtxclfError, match=r"^periodic mode requires even length at every level$"):
        dwt_db6(np.ones(31), levels=1, mode="periodic")  # odd length
    with pytest.raises(ValueError):
        dwt_db6(np.ones((2, 4, 64)))  # a block is 2-D: (rows, samples)
    with pytest.raises(ValueError):
        dwt_db6(np.ones(64), levels=0)
    with pytest.raises(ValueError):
        dwt_db6(np.ones(64), mode="zeropad")


@pytest.mark.parametrize("mode", ["symmetric", "periodic"])
def test_empty_block_is_rejected(mode):
    with pytest.raises(ValueError, match=r"^empty block of shape \(0, 64\)"):
        dwt_db6(np.zeros((0, 64)), mode=mode)
