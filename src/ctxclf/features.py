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
from functools import lru_cache

import numpy as np

from ctxclf.errors import CtxclfError, DimensionMismatch, SignalsetError
from ctxclf.signals import SignalRecord, SignalSet
from ctxclf.wavelet import dwt_db6

SUBBAND_NAMES = ("A3", "D3", "D2", "D1")
FEATURE_NAMES = ("MAV", "SSC", "AR1", "AR2", "AR3")
FEATURES_PER_SUBBAND = len(FEATURE_NAMES)
AR_ORDER = 3
FEATURE_BLOCK_ROWS = 8  # channel rows per feature_matrix block; 16 is no faster and peaks higher
MI_BINS = 10  # equal-frequency bins per column of the MI scores


@dataclass(frozen=True)
class FeatureVector:
    """A record's feature values, laid out channel by channel, subband by subband."""

    values: np.ndarray
    num_channels: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        expected = self.num_channels * len(SUBBAND_NAMES) * FEATURES_PER_SUBBAND
        if v.shape != (expected,):
            raise ValueError(f"expected {expected} features, got {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("non-finite feature values")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class FeatureMask:
    """Sorted column subset retained by the mutual-information filter, and every column's score."""

    selected: tuple[int, ...]
    scores: tuple[float, ...]

    def __post_init__(self):
        sel = tuple(int(i) for i in self.selected)
        object.__setattr__(self, "source_dim", len(self.scores))  # not a field, like _columns
        if list(sel) != sorted(set(sel)):
            raise ValueError("selected indices must be strictly increasing")
        if sel and (sel[0] < 0 or sel[-1] >= self.source_dim):
            raise ValueError("selected index out of range")
        object.__setattr__(self, "selected", sel)
        columns = np.array(sel, dtype=np.intp)  # not a field: equality never sees it
        columns.flags.writeable = False
        object.__setattr__(self, "_columns", columns)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The selected columns of a vector or of each row of a block of ``source_dim`` columns."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1:] != (self.source_dim,):
            raise DimensionMismatch(f"expected {self.source_dim} features, got {x.shape}")
        return x[..., self._columns]


def _autocorrelation(subbands, order: int, lengths: np.ndarray) -> np.ndarray:
    """Biased autocorrelation lags 0..order of each row of each subband: (rows, subbands,
    order + 1). ``subbands`` is a sequence of (rows, n) blocks and ``lengths`` their n as floats.

    Each lag is a batched dot product over the rows as given, written in place; a strided
    subband keeps the stride np.dot would see, and so its bits. Like np.dot, rows with a
    negative or zero stride are copied to contiguous first, and a lag over one sample pair
    is a plain product (which keeps a -0.0). All lags are divided once, by ``lengths``.
    """
    lags = np.empty((len(subbands[0]), len(subbands), order + 1, 1, 1))  # (1, 1): matmul's out
    for s, block in enumerate(subbands):
        n = block.shape[1]
        if n < order + 1:
            raise CtxclfError(f"need >= {order + 1} samples for AR({order}), got {n}")
        if block.strides[1] <= 0:
            block = np.ascontiguousarray(block)
        left, right = block[:, None], block[:, :, None]
        for k in range(min(order + 1, n - 1)):
            np.matmul(left[..., : n - k], right[:, k:], out=lags[:, s, k])
        if n - 1 <= order:
            np.multiply(block[:, 0], block[:, order], out=lags[:, s, order, 0, 0])
    lags = lags.reshape(len(lags), len(subbands), order + 1)
    lags /= lengths[:, None]
    return lags


def _levinson(r: np.ndarray) -> np.ndarray:
    """AR coefficients of each row of lags r (rows, order + 1), all rows in step.

    A row with r0 <= 0 runs as the lags (1, 0, ..., 0), whose coefficients are +0.0; a
    row whose prediction error drops to <= 0 keeps the coefficients of that step and
    leaves the recursion. The inner products run on a contiguous reversed copy of r, the
    operands np.dot hands to BLAS, so each row gets the bits of the one-row recursion.
    The first step has no inner product (an empty dot is +0.0, and r1 - 0.0 is r1, -0.0
    included), and the last step's error is never read.
    """
    rows, order = r.shape[0], r.shape[1] - 1
    dead = r[:, :1] <= 0.0
    if dead.any():
        r = np.where(dead, np.eye(1, order + 1), r)
    reversed_r = np.ascontiguousarray(r[:, :0:-1])  # r_order, ..., r_1
    a = np.zeros((rows, order))
    err = r[:, 0]
    k = r[:, 1] / err
    a[:, 0] = k
    out = live = None  # made when a row first leaves the recursion early
    for m in range(1, order):
        err = err * (1.0 - k * k)
        stop = err <= 0.0
        if stop.any():
            if out is None:
                out, live = np.empty((rows, order)), np.arange(rows)
            out[live[stop]] = a[stop]
            keep = ~stop
            live, r, reversed_r, a, err = live[keep], r[keep], reversed_r[keep], a[keep], err[keep]
        dot = (a[:, None, :m] @ reversed_r[:, order - m :, None])[:, 0, 0]
        k = (r[:, m + 1] - dot) / err
        a[:, :m] -= k[:, None] * a[:, m - 1 :: -1]
        a[:, m] = k
    if out is None:
        return a
    out[live] = a
    return out


def _slope_sign_flags(block: np.ndarray) -> np.ndarray:
    """Whether the slope changes sign at each interior sample of each row: (rows, n - 2)."""
    d = block[:, 1:] - block[:, :-1]
    return d[:, :-1] * d[:, 1:] < 0


@lru_cache(maxsize=256)
def _block_plan(lengths: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(starts, junction flags, lengths as floats) of subbands of these lengths laid end
    to end, read-only: each subband's first column, the two slope-sign flags that span
    each junction, and the divisor of each subband's sums."""
    bounds = np.cumsum((0, *lengths))
    junctions = np.concatenate([(b - 2, b - 1) for b in bounds[1:-1]])
    plan = (bounds[:-1], junctions, np.array(lengths, dtype=np.float64))
    for a in plan:
        a.flags.writeable = False
    return plan


def _block_features(block: np.ndarray) -> np.ndarray:
    """(rows, subbands, features) of a block of equal-length channel rows.

    MAV and SSC take one pass over the subbands laid end to end. Each MAV
    sums its own slice of one ``np.abs``, the same pairwise sum as over the
    subband alone; A3 and D3 have one length and sit side by side, so one
    ``(rows, 2, L)`` sum takes both. The slope-sign flags are computed once;
    the two flags that span each junction are cleared, so each subband's
    count is one segment of a single ``np.add.reduceat``.
    """
    subbands = dwt_db6(block, levels=3)
    lengths = tuple(sb.shape[1] for sb in subbands)
    starts, junctions, divisors = _block_plan(lengths)
    joined = np.concatenate(subbands, axis=1)
    magnitude = np.abs(joined)
    flags = _slope_sign_flags(joined)
    flags[:, junctions] = False
    rows, d2, d1 = len(block), 2 * lengths[0], 2 * lengths[0] + lengths[2]
    out = np.empty((rows, len(subbands), FEATURES_PER_SUBBAND))
    out[:, :, 1] = np.add.reduceat(flags, starts, axis=1, dtype=np.int64)
    mav = out[:, :, 0]
    mav[:, :2] = magnitude[:, :d2].reshape(rows, 2, lengths[0]).sum(axis=2)  # A3, D3
    mav[:, 2] = magnitude[:, d2:d1].sum(axis=1)
    mav[:, 3] = magnitude[:, d1:].sum(axis=1)
    mav /= divisors  # as np.mean
    lags = _autocorrelation(subbands, AR_ORDER, divisors)
    ar = _levinson(lags.reshape(-1, AR_ORDER + 1))
    out[:, :, 2:] = ar.reshape(rows, len(subbands), AR_ORDER)
    return out


def extract_features(record: SignalRecord) -> FeatureVector:
    """3-level db6 decomposition per channel, five statistics per subband."""
    try:
        return FeatureVector(_block_features(record.channels).ravel(), record.num_channels)
    except ValueError:  # the shape is right by construction: a value overflowed
        raise SignalsetError(f"record {record.record_id}: non-finite feature values") from None


def feature_matrix(sset: SignalSet) -> tuple[np.ndarray, np.ndarray]:
    """Stack features for every record: (X, labels), rows in record order.

    Records of one length are stacked ``FEATURE_BLOCK_ROWS`` channel rows at
    a time and extracted as one block; each row is bit-equal to
    ``extract_features`` of its record.
    """
    records = sset.records
    by_length: dict[int, list[int]] = {}
    for i, r in enumerate(records):
        by_length.setdefault(r.num_samples, []).append(i)
    per_block = max(1, FEATURE_BLOCK_ROWS // sset.num_channels)
    X = np.empty((len(records), sset.num_channels * len(SUBBAND_NAMES) * FEATURES_PER_SUBBAND))
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows are refused below
        for same_length in by_length.values():
            for start in range(0, len(same_length), per_block):
                rows = same_length[start : start + per_block]
                block = np.concatenate([records[i].channels for i in rows])
                X[rows] = _block_features(block).reshape(len(rows), -1)
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        bad = records[int(np.argmin(finite))]
        raise SignalsetError(f"record {bad.record_id}: non-finite feature values")
    return X, sset.labels()


def mutual_information(feature, labels) -> float:
    """Plug-in MI (nats) between the equal-frequency-binned feature and labels."""
    x = np.asarray(feature, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("feature must be 1-D")
    return float(_mi_scores(x[:, None], labels)[0])


@lru_cache(maxsize=256)
def _quantile_plan(n: int) -> tuple[np.ndarray, ...]:
    """(prev, next, gamma, gamma >= 0.5) of the MI edges of n sorted values, read-only.

    numpy's ``linear`` rule: the edge at quantile q has the virtual index
    v = (n - 1) q, between the values prev = floor(v) and next =
    min(prev + 1, n - 1), at weight gamma = v - prev.
    """
    virtual = (n - 1) * np.linspace(0.0, 1.0, MI_BINS + 1)[1:-1]
    prev = np.floor(virtual)
    gamma = (virtual - prev)[:, None]
    prev = prev.astype(np.intp)
    plan = (prev, np.minimum(prev + 1, n - 1), gamma, gamma >= 0.5)
    for a in plan:
        a.flags.writeable = False
    return plan


def _bin_edges(ordered: np.ndarray) -> np.ndarray:
    """(MI_BINS - 1, d) equal-frequency edges of a column-sorted matrix, interpolated as
    numpy's ``_lerp``: a + (b - a) gamma, or b - (b - a)(1 - gamma) where gamma >= 0.5."""
    prev, nxt, gamma, upper = _quantile_plan(len(ordered))
    below, above = ordered[prev], ordered[nxt]
    step = above - below
    return np.where(upper, above - step * (1 - gamma), below + step * gamma)


def _mi_scores(X: np.ndarray, labels) -> np.ndarray:
    """MI of every column of X with the labels, in one pass over all columns.

    Each column is cut at its own equal-frequency edges, taken from one
    ``np.sort`` of X by numpy's ``linear`` quantile rule (``_bin_edges``).
    The (bin, label) cells of all columns are counted with one
    ``np.bincount``. The scores are bit-identical to a per-column sum over
    a dict of cells: every cell term is p * log(p n^2 / (n_x n_y)) with
    ``math.log``, called once per distinct ratio, and a column's terms are
    added one by one in the order their cells first appear in the rows (a
    sequential ``np.cumsum``). Constant columns score 0; NaN and inf are refused.
    """
    y = np.asarray(labels)
    n, d = X.shape
    if n != len(y):
        raise ValueError("feature and labels must have equal length")
    label_values = sorted(set(y.tolist()))
    k = len(label_values)
    if k < 2:
        raise ValueError("need at least 2 distinct labels")
    y_idx = np.searchsorted(label_values, y)

    if not np.isfinite(X).all():
        raise ValueError("non-finite feature values")

    ordered = np.sort(X, axis=0)
    edges = _bin_edges(ordered)
    x_bin = (X[:, None, :] >= edges[None]).sum(axis=1)  # the edges each value reaches

    # cell id per (column, bin, label), column-major so each column's rows are contiguous
    column = np.arange(d)
    cell = ((column[None, :] * MI_BINS + x_bin) * k + y_idx.reshape(-1, 1)).T.ravel()
    count = np.bincount(cell, minlength=d * MI_BINS * k)
    px = count.reshape(d * MI_BINS, k).sum(axis=1)
    py = np.bincount(y_idx, minlength=k)

    first = np.full(len(count), len(cell))
    np.minimum.at(first, cell, np.arange(len(cell)))  # each cell's first row, column-major
    cells = np.flatnonzero(count)
    cells = cells[np.argsort(first[cells])]  # by column, then by first appearance
    c = count[cells]
    p = c / n
    ratio = p * n * n / (px[cells // k] * py[cells % k])
    distinct, which = np.unique(ratio, return_inverse=True)
    logs = np.fromiter(map(math.log, distinct.tolist()), dtype=np.float64, count=len(distinct))
    terms = p * logs[which]

    col_of = cells // (MI_BINS * k)
    per_column = np.bincount(col_of, minlength=d)
    pos = np.arange(len(cells)) - (np.cumsum(per_column) - per_column)[col_of]
    table = np.zeros((d, 1 + int(per_column.max())))  # leading 0.0 is the running sum's start
    table[col_of, 1 + pos] = terms
    mi = np.maximum(np.cumsum(table, axis=1)[:, -1], 0.0)
    mi[ordered[0] == ordered[-1]] = 0.0
    return mi


def select_features(matrix, labels, fraction: float = 0.5) -> FeatureMask:
    """Keep the top ceil(fraction*d) columns by MI score, ties to lower index."""
    X = np.asarray(matrix, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need a 2-D matrix with >= 2 rows")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    d = X.shape[1]
    scores = _mi_scores(X, labels) if d else np.zeros(0)
    keep = math.ceil(fraction * d)
    values = scores.tolist()
    order = sorted(range(d), key=values.__getitem__, reverse=True)  # stable: ties to lower index
    selected = tuple(sorted(order[:keep]))
    return FeatureMask(selected=selected, scores=tuple(values))
