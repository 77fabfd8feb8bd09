import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxclf.errors import DimensionMismatch, SignalsetError
from ctxclf.features import (
    AR_ORDER,
    FEATURE_NAMES,
    FEATURES_PER_SUBBAND,
    SUBBAND_NAMES,
    FeatureMask,
    FeatureVector,
    extract_features,
    feature_matrix,
    mutual_information,
    select_features,
)
from ctxclf.signals import MIN_SAMPLES, SignalRecord, SignalSet
from ctxclf.wavelet import dwt_db6
from conftest import ar_coefficients, slope_sign_changes, toy_signalset


def test_slope_sign_changes_examples():
    assert slope_sign_changes([1, -1, 1, -1]) == 2
    assert slope_sign_changes([1, 2, 3, 4]) == 0
    assert slope_sign_changes([0, 1, 1, 0]) == 0  # plateau is not a strict change
    assert slope_sign_changes([0, 2, 1, 3]) == 2


def test_ar_matches_yule_walker_oracle():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(500)
    a = ar_coefficients(x, order=3)
    n = len(x)
    r = np.array([np.dot(x[: n - k], x[k:]) / n for k in range(4)])
    R = np.array([[r[abs(i - j)] for j in range(3)] for i in range(3)])
    oracle = np.linalg.solve(R, r[1:4])
    assert np.allclose(a, oracle, atol=1e-10)


def test_ar_recovers_known_process():
    true = np.array([0.6, -0.3, 0.1])
    rng = np.random.default_rng(1)
    x = np.zeros(60000)
    e = rng.standard_normal(len(x))
    for t in range(3, len(x)):
        x[t] = true @ x[t - 3 : t][::-1] + e[t]
    a = ar_coefficients(x[1000:], order=3)
    assert np.allclose(a, true, atol=0.03)


def test_ar_edge_cases():
    assert np.array_equal(ar_coefficients(np.zeros(16)), np.zeros(3))


def test_dwt_subbands_are_the_input_the_ar_kernel_takes():
    """_autocorrelation takes dwt_db6's 3-level subbands as they are: each is a view with a
    positive sample stride and at least AR_ORDER + 2 samples, so every lag sums two or more
    pairs. This holds for every length dwt_db6 accepts at 3 levels, and for a record of
    MIN_SAMPLES samples as _block_features sees it."""
    blocks = [np.ones((3, n)) for n in range(8, 65)]
    blocks.append(SignalRecord("r", np.ones((2, MIN_SAMPLES)), 1000, 1).channels)
    for block in blocks:
        for sb in dwt_db6(block, levels=3):
            assert sb.strides[1] > 0 and sb.shape[1] >= AR_ORDER + 2, (block.shape, sb.shape)


def test_feature_vector_layout_and_dimension():
    sset = toy_signalset(num_classes=2, records_per_class=2, channels=3)
    fv = extract_features(sset.records[0])
    assert len(fv.values) == 3 * len(SUBBAND_NAMES) * len(FEATURE_NAMES)
    # laid out (channel, subband, feature): the first and last values match a direct recomputation
    layout = fv.values.reshape(3, len(SUBBAND_NAMES), len(FEATURE_NAMES))
    subbands = dwt_db6(sset.records[0].channels[0], levels=3)
    assert np.isclose(layout[0, 0, 0], np.mean(np.abs(subbands[0])))
    assert layout[0, 0, 1] == slope_sign_changes(subbands[0])
    last = dwt_db6(sset.records[0].channels[2], levels=3)[-1]
    assert np.allclose(layout[2, -1, 2:], ar_coefficients(last))


def test_feature_matrix_shape():
    sset = toy_signalset(num_classes=3, records_per_class=4)
    X, y = feature_matrix(sset)
    assert X.shape == (12, 2 * 20)
    assert list(y) == [r.class_label for r in sset.records]


def test_mutual_information_extremes():
    rng = np.random.default_rng(2)
    labels = np.repeat([1, 2], 500)
    # perfectly informative feature: MI == label entropy == log 2
    x = labels + 0.01 * rng.standard_normal(1000)
    assert mutual_information(x, labels) == pytest.approx(np.log(2), abs=0.01)
    # independent feature: MI near zero
    assert mutual_information(rng.standard_normal(1000), labels) < 0.02
    # constant feature carries nothing
    assert mutual_information(np.ones(1000), labels) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mi_scores_refuse_non_finite_values(bad):
    """Refused as FeatureVector refuses them; a NaN once scored 0.0 without a word."""
    X = np.random.default_rng(5).standard_normal((12, 3))
    y = np.repeat([1, 2, 3], 4)
    X[4, 1] = bad
    for call in (lambda: select_features(X, y), lambda: mutual_information(X[:, 1], y)):
        with pytest.raises(ValueError, match="non-finite feature values"):
            call()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_overflowing_window_names_its_record():
    """One window of +-1e308 is refused as feature_matrix refuses the record, by its id.

    The finite samples overflow in the subband statistics; the warnings the
    one-window path emits on the way are left as they are.
    """
    big = SignalRecord("big", np.tile([1e308, -1e308], (1, 128)), 1000, 1)
    small = SignalRecord("small", np.ones((1, 256)), 1000, 2)
    sset = SignalSet((big, small))
    for call in (lambda: extract_features(big), lambda: feature_matrix(sset)):
        with pytest.raises(SignalsetError, match="^record big: non-finite feature values$"):
            call()


def test_slope_sign_changes_do_not_depend_on_scale():
    """The SSC counts of a window are the same at any scale: a product of two slopes of
    1e-200 underflows to 0, which counted no sign change at all."""
    window = np.random.default_rng(7).standard_normal((2, 256))
    counts = [
        extract_features(SignalRecord("w", window * scale, 1000, 1)).values[1::FEATURES_PER_SUBBAND]
        for scale in (1.0, 1e-150, 1e-200, 1e-300)
    ]
    assert counts[0].min() > 0
    for other in counts[1:]:
        assert other.tolist() == counts[0].tolist()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_mutual_information_nonnegative(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 200))
    x = rng.standard_normal(n)
    y = rng.integers(1, 4, size=n)
    if len(np.unique(y)) < 2:
        y[0], y[1] = 1, 2
    assert mutual_information(x, y) >= 0.0


def test_select_features_count_and_ties():
    rng = np.random.default_rng(3)
    labels = np.repeat([1, 2], 50)
    X = np.column_stack(
        [
            labels + 0.01 * rng.standard_normal(100),  # informative
            rng.standard_normal(100),
            np.ones(100),  # zero MI
            np.ones(100),  # zero MI (tie with previous, lower index wins)
        ]
    )
    mask = select_features(X, labels, fraction=0.5)
    assert len(mask.selected) == 2  # ceil(0.5 * 4)
    assert 0 in mask.selected
    mask3 = select_features(X, labels, fraction=0.75)
    assert len(mask3.selected) == 3
    assert 2 in mask3.selected and 3 not in mask3.selected  # tie to lower index


def test_mask_apply_and_validation():
    mask = FeatureMask(selected=(0, 2), scores=(0.0,) * 4)
    x = np.arange(4.0)
    assert np.array_equal(mask.apply(x), [0.0, 2.0])
    X = np.arange(8.0).reshape(2, 4)
    assert mask.apply(X).shape == (2, 2)
    for wrong in (np.arange(8.0), np.arange(2.0), np.arange(6.0).reshape(2, 3), np.float64(1.0)):
        with pytest.raises(DimensionMismatch, match=r"expected 4 features, got \("):
            mask.apply(wrong)
    with pytest.raises(ValueError, match="^selected indices must be strictly increasing$"):
        FeatureMask(selected=(2, 0), scores=(0.0,) * 4)
    with pytest.raises(ValueError, match="^selected index out of range$"):
        FeatureMask(selected=(0, 9), scores=(0.0,) * 4)


def test_feature_vector_validation():
    with pytest.raises(ValueError, match=r"^expected a 1-D multiple of 20 features, got \(7,\)$"):
        FeatureVector(values=np.zeros(7))
    with pytest.raises(ValueError, match=r"^expected a 1-D multiple of 20 features, got \(2, 20\)$"):
        FeatureVector(values=np.zeros((2, 20)))
    with pytest.raises(ValueError, match="^non-finite feature values$"):
        FeatureVector(values=np.full(20, np.nan))
    vector = FeatureVector(values=np.zeros(40))
    assert vector.values.shape == (40,)
    assert [f.name for f in dataclasses.fields(vector)] == ["values"]
