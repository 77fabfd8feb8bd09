"""Wavelet feature extraction and mutual-information feature filtering.

Each record maps to a fixed-length vector: per channel and per subband
(A3, D3, D2, D1 from a 3-level db6 decomposition) five statistics are
computed -- mean absolute value, slope-sign-change count, and the three
coefficients of an order-3 autoregressive model. Columns are then scored
by mutual information with the label and the top fraction is retained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ctxclf.errors import SubbandTooShort
from ctxclf.signals import SignalRecord, SignalSet
from ctxclf.wavelet import dwt_db6

SUBBAND_NAMES = ("A3", "D3", "D2", "D1")
FEATURE_NAMES = ("MAV", "SSC", "AR1", "AR2", "AR3")
FEATURES_PER_SUBBAND = len(FEATURE_NAMES)


@dataclass(frozen=True)
class FeatureVector:
    """A record's feature values plus the (channel, subband, feature) layout."""

    values: np.ndarray
    num_channels: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        expected = self.num_channels * len(SUBBAND_NAMES) * FEATURES_PER_SUBBAND
        if v.shape != (expected,):
            raise ValueError(f"expected {expected} features, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite feature values")
        object.__setattr__(self, "values", v)

    @property
    def dimension(self) -> int:
        return len(self.values)

    def layout(self) -> list[tuple[int, str, str]]:
        out = []
        for ch in range(self.num_channels):
            for sb in SUBBAND_NAMES:
                for name in FEATURE_NAMES:
                    out.append((ch, sb, name))
        return out


@dataclass(frozen=True)
class FeatureMask:
    """Sorted column subset retained by the mutual-information filter."""

    selected: tuple[int, ...]
    source_dim: int
    scores: tuple[float, ...]

    def __post_init__(self):
        sel = tuple(int(i) for i in self.selected)
        if list(sel) != sorted(set(sel)):
            raise ValueError("selected indices must be strictly increasing")
        if sel and (sel[0] < 0 or sel[-1] >= self.source_dim):
            raise ValueError("selected index out of range")
        object.__setattr__(self, "selected", sel)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return x[..., list(self.selected)]


def ar_coefficients(subband: np.ndarray, order: int = 3) -> np.ndarray:
    """Levinson-Durbin on the biased autocorrelation; zero-variance -> zeros."""
    x = np.asarray(subband, dtype=np.float64)
    n = len(x)
    if n < order + 1:
        raise SubbandTooShort(f"need >= {order + 1} samples for AR({order}), got {n}")
    r = np.array([np.dot(x[: n - k], x[k:]) / n for k in range(order + 1)])
    if r[0] <= 0.0:
        return np.zeros(order)
    a = np.zeros(order)
    err = r[0]
    for m in range(order):
        acc = r[m + 1] - np.dot(a[:m], r[m:0:-1])
        k = acc / err
        a_new = a.copy()
        a_new[m] = k
        a_new[:m] = a[:m] - k * a[m - 1 :: -1] if m else a_new[:m]
        a = a_new
        err *= 1.0 - k * k
        if err <= 0.0:
            break
    return a


def slope_sign_changes(subband: np.ndarray) -> int:
    x = np.asarray(subband, dtype=np.float64)
    d = np.diff(x)
    return int(np.sum(d[:-1] * d[1:] < 0))


def extract_features(record: SignalRecord) -> FeatureVector:
    """3-level db6 decomposition per channel, five statistics per subband."""
    values = []
    for ch in range(record.num_channels):
        subbands = dwt_db6(record.channels[ch], levels=3)
        for sb in subbands:
            if len(sb) < 4:
                raise SubbandTooShort(f"subband of length {len(sb)} is too short")
            values.append(np.mean(np.abs(sb)))
            values.append(float(slope_sign_changes(sb)))
            values.extend(ar_coefficients(sb, order=3))
    return FeatureVector(values=np.array(values), num_channels=record.num_channels)


def feature_matrix(sset: SignalSet) -> tuple[np.ndarray, np.ndarray]:
    """Stack features for every record: (X, labels), rows in record order."""
    rows = [extract_features(r).values for r in sset.records]
    return np.vstack(rows), sset.labels()


def mutual_information(feature, labels, bins: int = 10) -> float:
    """Plug-in MI (nats) between the equal-frequency-binned feature and labels."""
    x = np.asarray(feature, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("feature must be 1-D")
    return float(_mi_scores(x[:, None], labels, bins)[0])


def _mi_scores(X: np.ndarray, labels, bins: int) -> np.ndarray:
    """MI of every column of X with the labels, in one pass over all columns.

    Each column is cut at its own equal-frequency edges and the (bin, label)
    cells of all columns are counted with one ``np.bincount``. The scores
    are bit-identical to a per-column sum over a dict of cells: every cell
    term is p * log(p n^2 / (n_x n_y)) with ``math.log``, and a column's
    terms are added one by one in the order their cells first appear in the
    rows (a sequential ``np.cumsum``). Constant columns score 0.
    """
    y = np.asarray(labels)
    n, d = X.shape
    if n != len(y):
        raise ValueError("feature and labels must have equal length")
    label_values, y_idx = np.unique(y, return_inverse=True)
    k = len(label_values)
    if k < 2:
        raise ValueError("need at least 2 distinct labels")

    edges = np.quantile(X, np.linspace(0.0, 1.0, bins + 1)[1:-1], axis=0)  # (bins - 1, d)
    x_bin = np.stack(
        [np.searchsorted(edges[:, j], X[:, j], side="right") for j in range(d)], axis=1
    )

    # cell id per (column, bin, label), column-major so each column's rows are contiguous
    column = np.arange(d)
    cell = ((column[None, :] * bins + x_bin) * k + y_idx.reshape(-1, 1)).T.ravel()
    count = np.bincount(cell, minlength=d * bins * k)
    px = count.reshape(d * bins, k).sum(axis=1)
    py = np.bincount(y_idx, minlength=k)

    cells, first = np.unique(cell, return_index=True)
    cells = cells[np.argsort(first)]  # by column, then by first appearance
    c = count[cells]
    p = c / n
    ratio = p * n * n / (px[cells // k] * py[cells % k])
    terms = p * np.fromiter(map(math.log, ratio.tolist()), dtype=np.float64, count=len(ratio))

    col_of = cells // (bins * k)
    per_column = np.bincount(col_of, minlength=d)
    pos = np.arange(len(cells)) - (np.cumsum(per_column) - per_column)[col_of]
    table = np.zeros((d, 1 + int(per_column.max())))  # leading 0.0 is the running sum's start
    table[col_of, 1 + pos] = terms
    mi = np.maximum(np.cumsum(table, axis=1)[:, -1], 0.0)
    mi[np.all(X == X[0], axis=0)] = 0.0
    return mi


def select_features(matrix, labels, fraction: float = 0.5, bins: int = 10) -> FeatureMask:
    """Keep the top ceil(fraction*d) columns by MI score, ties to lower index."""
    X = np.asarray(matrix, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need a 2-D matrix with >= 2 rows")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    d = X.shape[1]
    scores = _mi_scores(X, labels, bins) if d else np.zeros(0)
    keep = math.ceil(fraction * d)
    order = sorted(range(d), key=lambda j: (-scores[j], j))
    selected = tuple(sorted(order[:keep]))
    return FeatureMask(selected=selected, source_dim=d, scores=tuple(scores))
