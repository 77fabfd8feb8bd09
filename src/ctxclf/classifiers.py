"""Base classifiers: Euclidean 1-NN, Gaussian naive Bayes, random forest.

All three are self-contained and deterministic given the spec seed. Ties
always break towards the smallest class label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ctxclf.errors import CtxclfError, DimensionMismatch
from ctxclf.jsonfile import expect
from ctxclf.rng import derive_rng

ALGORITHMS = ("NearestNeighbor", "GaussianNB", "RandomForest")

VARIANCE_FLOOR = 1e-9
MIN_LEAF = 2
NN_CHUNK_ELEMENTS = 1 << 20  # bound on the (rows, train rows, d) array of a block 1-NN


@dataclass(frozen=True)
class ClassifierSpec:
    algorithm: str = "GaussianNB"
    num_trees: int = 20
    seed: int = 0

    def __post_init__(self):
        if expect(self.algorithm, str, "algorithm", ValueError) not in ALGORITHMS:
            raise ValueError(f"algorithm: unknown algorithm {self.algorithm!r}")
        if not -(2**63) <= expect(self.seed, int, "seed", ValueError) < 2**63:
            raise ValueError(f"seed: {self.seed} does not fit a 64-bit integer")
        if not 1 <= expect(self.num_trees, int, "num_trees", ValueError) <= 10_000:
            raise ValueError(f"num_trees: must be in [1, 10000], got {self.num_trees}")


@dataclass(frozen=True)
class TrainedModel:
    algorithm: str
    classes: tuple[int, ...]
    dimension: int
    params: dict = field(compare=False)


def train(spec: ClassifierSpec, X, y) -> TrainedModel:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] != len(y):
        raise ValueError("X must be 2-D with one row per label")
    if X.shape[1] == 0:
        raise ValueError("X has no feature columns")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite training rows")
    classes = tuple(sorted(set(y.tolist())))
    if len(classes) < 2:
        raise CtxclfError("training labels contain a single class")

    if spec.algorithm == "NearestNeighbor":
        params = {"X": X.copy(), "y": y.copy()}
    elif spec.algorithm == "GaussianNB":
        # rows in label order (a stable sort): each class is one contiguous slice, laid out
        # as X[y == c] is, so its mean and variance keep their bits. Python sorts and counts
        # here: numpy's argsort and searchsorted would raise a run's peak RSS by about 0.1 MB.
        labels = y.tolist()
        by_class = X[sorted(range(len(labels)), key=labels.__getitem__)]
        counts = [labels.count(c) for c in classes]
        means, variances = np.empty((2, len(classes), X.shape[1]))
        start = 0
        for i, count in enumerate(counts):
            rows = by_class[start : start + count]
            rows.mean(axis=0, out=means[i])
            rows.var(axis=0, out=variances[i])
            start += count
        np.maximum(variances, VARIANCE_FLOOR, out=variances)
        params = {"means": means, "variances": variances, "priors": np.array(counts) / len(y)}
    else:
        rng = derive_rng(spec.seed, "forest")
        codes = np.searchsorted(classes, y)  # vote slot of each row's label
        trees = []
        for _ in range(spec.num_trees):
            boot = rng.integers(0, len(y), size=len(y))
            trees.append(_grow_tree(X[boot], codes[boot], len(classes), rng))
        params = {"trees": trees}
    return TrainedModel(spec.algorithm, classes, X.shape[1], params)


def _grow_tree(X: np.ndarray, codes: np.ndarray, k: int, rng: np.random.Generator) -> tuple:
    """CART with Gini splits, sqrt(d) features per split, grown to purity.

    ``codes`` are the rows' vote slots in [0, k). The tree is returned as the
    lists ``(feature, threshold, left, right, slot)`` that ``_forest_vote``
    walks: one entry per node, feature -1 at a leaf, and each node's vote
    slot (its majority class, ties to the smallest slot).

    Nodes are numbered in pre-order. Each internal node draws its candidate
    features with one ``rng.choice(d, size=n_try, replace=False)`` after the
    leaf tests, in pre-order. That draw order is part of the output: every
    later draw of ``rng``, the next tree's bootstrap too, depends on it.

    A node scores all its candidate splits in one pass: (n_try, m - 1, p)
    tables of left and right class counts over its p present classes, the
    right one last split first, so both divide by the sizes 1..m-1 in order.
    Each Gini impurity is still a one-column scan's float operations on the
    same operands, only with size * gini taken as gini * size (an IEEE
    product does not depend on the order), so it has the scan's bits. The
    lowest impurity wins; ties go to the first feature in sorted order, then
    to the first position within it. The children are the winning column's
    sorted rows either side of the split, whose order no split reads.
    """
    d = X.shape[1]
    n_try = max(1, int(math.isqrt(d)))
    XT = np.ascontiguousarray(X.T)  # a node's candidate rows sort along the last axis
    ar = np.arange(len(codes))  # the root's rows, and every node's split sizes as views of it
    feature, threshold, left, right, slot = [], [], [], [], []
    # (rows, class counts, parent node, parent's child list); right is pushed first: pre-order
    stack = [(ar, np.bincount(codes, minlength=k), -1, None)]
    while stack:
        idx, counts, parent, side = stack.pop()
        node = len(feature)
        if side is not None:
            side[parent] = node
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        slot.append(int(counts.argmax()))  # an absent class counts 0; ties to the smallest slot
        m = len(idx)
        if m < MIN_LEAF or np.count_nonzero(counts) == 1:
            continue
        candidates = np.sort(rng.choice(d, size=n_try, replace=False))
        rows = idx[XT[candidates[:, None], idx].argsort(axis=1, kind="stable")]
        xs = XT[candidates[:, None], rows]
        # present classes only: zero columns would regroup the pairwise sum of 8 or more terms
        present = np.flatnonzero(counts)
        onehot = codes[rows][:, :-1, None] == present  # split after position i
        lr_counts = np.empty((2,) + onehot.shape, dtype=np.int64)
        np.add.accumulate(onehot, axis=1, dtype=np.int64, out=lr_counts[0])
        np.subtract(counts[present], lr_counts[0, :, ::-1], out=lr_counts[1])  # last split first
        shares = np.divide(lr_counts, ar[1:m, None])  # both sides: sizes 1..m-1 in their order
        gini = np.add.reduce(np.square(shares, out=shares), axis=3)
        np.subtract(1.0, gini, out=gini)
        gini *= ar[1:m]
        impurity = gini[0] + gini[1, :, ::-1]
        impurity /= m
        impurity[xs[:, 1:] == xs[:, :-1]] = np.inf
        j, pos = divmod(int(impurity.argmin()), m - 1)
        if impurity[j, pos] == np.inf:
            continue  # every candidate column is constant at this node
        lo, hi = xs[j, pos : pos + 2].tolist()  # Python floats: an overflow gives inf, no warning
        thr = 0.5 * (lo + hi)
        if not lo <= thr < hi:  # rounded onto hi (adjacent floats) or overflowed
            thr = lo
        left_counts = np.zeros(k, dtype=np.int64)
        left_counts[present] = lr_counts[0, j, pos]  # the rows up to pos: those <= thr
        feature[node], threshold[node] = int(candidates[j]), thr
        stack.append((rows[j, pos + 1 :], counts - left_counts, node, right))
        stack.append((rows[j, : pos + 1], left_counts, node, left))
    return feature, threshold, left, right, slot


def predict(model: TrainedModel, x):
    """Class of one feature vector (an int), or of each row of an (n, d) block (an array).

    A vector is predicted as a one-row block, so a block gives the same
    classes as predicting its rows one by one.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != model.dimension:
        raise DimensionMismatch(f"expected {model.dimension} features, got {x.shape}")
    if x.ndim == 2:
        return _predict_block(model, x)
    if model.algorithm == "RandomForest":
        return _forest_vote(model, x.tolist())
    return int(_predict_block(model, x[None, :])[0])


def _predict_block(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Row-wise predict over a block."""
    if model.algorithm == "NearestNeighbor":
        train_X, train_y = model.params["X"], model.params["y"]
        step = max(1, NN_CHUNK_ELEMENTS // max(1, train_X.size))
        nearest = [
            np.argmin(np.sum((train_X[None, :, :] - X[i : i + step, None, :]) ** 2, axis=2), axis=1)
            for i in range(0, len(X), step)
        ]
        return train_y[np.concatenate(nearest)] if nearest else train_y[:0]
    if model.algorithm == "GaussianNB":
        means = model.params["means"]
        variances = model.params["variances"]
        log_norm = np.log(model.params["priors"]) - 0.5 * np.sum(
            np.log(2.0 * np.pi * variances), axis=1
        )
        log_post = log_norm[None, :] - 0.5 * np.sum(
            (X[:, None, :] - means[None, :, :]) ** 2 / variances, axis=2
        )
        return np.asarray(model.classes, dtype=np.int64)[np.argmax(log_post, axis=1)]
    return np.array([_forest_vote(model, row) for row in X.tolist()], dtype=np.int64)


def _forest_vote(model: TrainedModel, row: list) -> int:
    """Majority vote of the trees on one row of Python floats (they compare as float64 do)."""
    votes = [0] * len(model.classes)
    for feature, threshold, left, right, slot in model.params["trees"]:
        node = 0
        f = feature[0]
        while f >= 0:
            node = left[node] if row[f] <= threshold[node] else right[node]
            f = feature[node]
        votes[slot[node]] += 1
    return model.classes[votes.index(max(votes))]  # classes sorted: ties to smallest
