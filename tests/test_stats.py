import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

scipy_stats = pytest.importorskip("scipy.stats")

from ctxclf.stats import average_ranks, holm, wilcoxon_holm, wilcoxon_signed_rank


def test_average_ranks_basic():
    subjects = [
        {"a": 0.9, "b": 0.5, "c": 0.1},
        {"a": 0.8, "b": 0.6, "c": 0.2},
    ]
    ranks = average_ranks(subjects)
    assert ranks == {"a": 3.0, "b": 2.0, "c": 1.0}  # best method gets rank 3


def test_average_ranks_ties_share_mean():
    ranks = average_ranks([{"a": 0.5, "b": 0.5, "c": 0.1}])
    assert ranks["a"] == ranks["b"] == 2.5
    assert ranks["c"] == 1.0
    ranks = average_ranks([{"a": 0.5, "b": 0.5, "c": 0.5}])
    assert ranks == {"a": 2.0, "b": 2.0, "c": 2.0}


TIED_VALUES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]) | st.floats(-1.0, 1.0)


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.integers(1, 6).flatmap(
        lambda k: st.lists(st.lists(TIED_VALUES, min_size=k, max_size=k), min_size=1, max_size=8)
    )
)
def test_average_ranks_equal_scipy_rankdata(rows):
    methods = [f"m{i}" for i in range(len(rows[0]))]
    ranks = average_ranks([dict(zip(methods, row)) for row in rows])
    totals = sum(scipy_stats.rankdata(row, method="average") for row in rows)
    assert ranks == {m: t / len(rows) for m, t in zip(methods, totals.tolist())}


def test_average_ranks_validation():
    with pytest.raises(ValueError):
        average_ranks([])
    with pytest.raises(ValueError):
        average_ranks([{"a": 1.0}, {"b": 1.0}])


def test_wilcoxon_matches_scipy_no_ties():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(8, 25))
        x = rng.standard_normal(n)
        y = x + rng.standard_normal(n) * 0.8 + 0.3
        w, p = wilcoxon_signed_rank(x, y)
        ref = scipy_stats.wilcoxon(
            x, y, zero_method="wilcox", correction=True, alternative="two-sided",
            method="approx",
        )
        assert w == pytest.approx(ref.statistic)
        assert p == pytest.approx(ref.pvalue, abs=1e-10)


def test_wilcoxon_matches_scipy_with_ties_and_zeros():
    x = np.array([1.0, 2.0, 3.0, 3.0, 5.0, 6.0, 7.0, 8.0, 4.0, 4.0])
    y = np.array([1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 5.0, 3.0])
    w, p = wilcoxon_signed_rank(x, y)
    ref = scipy_stats.wilcoxon(
        x, y, zero_method="wilcox", correction=True, alternative="two-sided",
        method="approx",
    )
    assert w == pytest.approx(ref.statistic)
    assert p == pytest.approx(ref.pvalue, abs=1e-10)


def test_wilcoxon_n10_fixture_matches_oracle():
    x = np.array([125, 115, 130, 140, 140, 115, 140, 125, 140, 135], dtype=float)
    y = np.array([110, 122, 125, 120, 140, 124, 123, 137, 135, 145], dtype=float)
    w, p = wilcoxon_signed_rank(x, y)
    ref = scipy_stats.wilcoxon(
        x, y, zero_method="wilcox", correction=True, alternative="two-sided",
        method="approx",
    )
    assert w == pytest.approx(ref.statistic)
    assert abs(p - ref.pvalue) < 1e-6


def test_wilcoxon_degenerate():
    assert wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0]) == (0.0, 1.0)


def test_wilcoxon_refuses_unequal_lengths():
    """[1, 2] against [1] once broadcast to the differences [0, 1] and returned (0.0, 1.0)."""
    with pytest.raises(ValueError, match=r"^paired samples differ in shape: \(2,\) and \(1,\)$"):
        wilcoxon_signed_rank([1, 2], [1])


def test_holm_step_down_triple():
    decisions = holm({"a": 0.001, "b": 0.04, "c": 0.2}, alpha=0.05)
    # 0.001 < 0.05/3 -> reject; 0.04 >= 0.05/2 -> stop; c inherits the stop
    assert decisions == {"a": True, "b": False, "c": False}


def test_holm_all_rejected_and_none():
    assert holm({"a": 0.001, "b": 0.01, "c": 0.04}, alpha=0.05) == {
        "a": True,
        "b": True,
        "c": True,
    }
    assert holm({"a": 0.5, "b": 0.9}, alpha=0.05) == {"a": False, "b": False}


def test_wilcoxon_holm_wrapper():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(12)
    results = wilcoxon_holm(
        {
            "shifted": (x, x + 2.0 + 0.1 * rng.standard_normal(12)),
            "noise": (x, x + 0.01 * rng.standard_normal(12)),
        }
    )
    assert results["shifted"]["significant"]
    assert set(results["shifted"]) == {"statistic", "p_value", "significant"}
    with pytest.raises(ValueError):
        wilcoxon_holm({"bad": ([1.0] * 3, [2.0] * 3)})
    with pytest.raises(ValueError):
        wilcoxon_holm({"bad": ([1.0] * 8, [2.0] * 7)})
