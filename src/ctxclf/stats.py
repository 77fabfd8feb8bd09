"""Rank aggregation and paired significance testing.

Wilcoxon signed-rank uses the two-sided normal approximation with
continuity correction; zero differences are dropped and tied ranks are
averaged. Holm's step-down controls the family-wise error over the three
pairwise method comparisons.
"""

from __future__ import annotations

import math

import numpy as np


def average_ranks(per_subject_values: list[dict[str, float]]) -> dict[str, float]:
    """Average rank per method across subjects; best method gets the highest rank.

    With k methods the best gets rank k, the worst rank 1; ties share the
    mean of their rank range.
    """
    if not per_subject_values:
        raise ValueError("need at least one subject")
    methods = sorted(per_subject_values[0])
    totals = {m: 0.0 for m in methods}
    for values in per_subject_values:
        if sorted(values) != methods:
            raise ValueError("all subjects must report the same methods")
        ranks = _midranks(np.array([values[m] for m in methods], dtype=np.float64))
        for m, r in zip(methods, ranks.tolist()):
            totals[m] += r
    n = len(per_subject_values)
    return {m: totals[m] / n for m in methods}


def wilcoxon_signed_rank(x, y) -> tuple[float, float]:
    """Two-sided signed-rank test on paired samples; returns (W, p)."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"paired samples differ in shape: {x.shape} and {y.shape}")
    d = x - y
    d = d[d != 0.0]
    n = len(d)
    if n == 0:
        return 0.0, 1.0
    ranks = _midranks(np.abs(d))
    w_plus = float(np.sum(ranks[d > 0]))
    w_minus = float(np.sum(ranks[d < 0]))
    w = min(w_plus, w_minus)
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    # tie correction on the variance
    _, counts = np.unique(ranks, return_counts=True)
    var -= float(np.sum(counts**3 - counts)) / 48.0
    if var <= 0.0:
        return w, 1.0
    z = (w - mean + 0.5) / math.sqrt(var)  # continuity correction towards the mean
    p = 2.0 * _norm_cdf(z)
    return w, min(p, 1.0)


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks from the lowest value up; ties share the mean of their ranks."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    sorted_vals = values[order]
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def holm(p_values: dict[str, float], alpha: float = 0.05) -> dict[str, bool]:
    """Step-down Holm decisions: reject while p_(i) < alpha / (m - i)."""
    items = sorted(p_values.items(), key=lambda kv: kv[1])
    m = len(items)
    decisions = {}
    stopped = False
    for i, (name, p) in enumerate(items):
        if stopped or p >= alpha / (m - i):
            stopped = True
            decisions[name] = False
        else:
            decisions[name] = True
    return decisions


def wilcoxon_holm(paired: dict[str, tuple], alpha: float = 0.05) -> dict[str, dict]:
    """Pairwise Wilcoxon tests with Holm correction.

    ``paired`` maps a comparison name to an (x, y) pair of equal-length
    sample vectors. Returns per comparison: W, raw p, and the Holm decision.
    """
    results = {}
    p_values = {}
    for name, (x, y) in paired.items():
        if len(x) < 6:
            raise ValueError(f"{name}: need at least 6 pairs, got {len(x)}")
        w, p = wilcoxon_signed_rank(x, y)
        results[name] = {"statistic": w, "p_value": p}
        p_values[name] = p
    decisions = holm(p_values, alpha=alpha)
    for name in results:
        results[name]["significant"] = decisions[name]
    return results
