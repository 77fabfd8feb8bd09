"""Base classifiers: Euclidean 1-NN, Gaussian naive Bayes, random forest.

All three are self-contained, deterministic given the spec seed, and
serializable to JSON. Ties always break towards the smallest class label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ctxclf.errors import DegenerateTraining, DimensionMismatch
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
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm: unknown algorithm {self.algorithm!r}")
        if self.num_trees < 1:
            raise ValueError(f"num_trees: must be >= 1, got {self.num_trees}")


@dataclass(frozen=True)
class TrainedModel:
    algorithm: str
    classes: tuple[int, ...]
    dimension: int
    params: dict = field(compare=False)

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "algorithm": self.algorithm,
            "classes": list(self.classes),
            "dimension": self.dimension,
            "params": _params_to_jsonable(self.algorithm, self.params),
        }

    @staticmethod
    def from_dict(d: dict) -> "TrainedModel":
        if d.get("version") != 1:
            raise ValueError(f"unsupported model version {d.get('version')}")
        return TrainedModel(
            algorithm=d["algorithm"],
            classes=tuple(int(c) for c in d["classes"]),
            dimension=int(d["dimension"]),
            params=_params_from_jsonable(d["algorithm"], d["params"]),
        )


def _params_to_jsonable(alg: str, params: dict) -> dict:
    out = {}
    for k, v in params.items():
        if isinstance(v, np.ndarray):
            out[k] = {"__array__": v.tolist(), "dtype": str(v.dtype)}
        elif alg == "RandomForest" and k == "trees":
            out[k] = [{kk: vv.tolist() for kk, vv in t.items()} for t in v]
        else:
            out[k] = v
    return out


def _params_from_jsonable(alg: str, params: dict) -> dict:
    out = {}
    for k, v in params.items():
        if isinstance(v, dict) and "__array__" in v:
            out[k] = np.asarray(v["__array__"], dtype=v["dtype"])
        elif alg == "RandomForest" and k == "trees":
            out[k] = [
                {
                    "feature": np.asarray(t["feature"], dtype=np.int64),
                    "threshold": np.asarray(t["threshold"], dtype=np.float64),
                    "left": np.asarray(t["left"], dtype=np.int64),
                    "right": np.asarray(t["right"], dtype=np.int64),
                    "label": np.asarray(t["label"], dtype=np.int64),
                }
                for t in v
            ]
        else:
            out[k] = v
    return out


def train(spec: ClassifierSpec, X, y) -> TrainedModel:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] != len(y):
        raise ValueError("X must be 2-D with one row per label")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite training rows")
    classes = tuple(int(c) for c in np.unique(y))
    if len(classes) < 2:
        raise DegenerateTraining("training labels contain a single class")

    if spec.algorithm == "NearestNeighbor":
        params = {"X": X.copy(), "y": y.copy()}
    elif spec.algorithm == "GaussianNB":
        means, variances, priors = [], [], []
        for c in classes:
            rows = X[y == c]
            means.append(rows.mean(axis=0))
            variances.append(np.maximum(rows.var(axis=0), VARIANCE_FLOOR))
            priors.append(len(rows) / len(y))
        params = {
            "means": np.vstack(means),
            "variances": np.vstack(variances),
            "priors": np.asarray(priors),
        }
    else:
        rng = derive_rng(spec.seed, "forest")
        trees = []
        n = len(y)
        for _ in range(spec.num_trees):
            boot = rng.integers(0, n, size=n)
            trees.append(_grow_tree(X[boot], y[boot], rng))
        params = {"trees": trees}
    return TrainedModel(
        algorithm=spec.algorithm, classes=classes, dimension=X.shape[1], params=params
    )


def _grow_tree(X: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> dict:
    """CART with Gini splits, sqrt(d) features per split, grown to purity.

    Nodes are numbered in pre-order. Each internal node draws its candidate
    features with one ``rng.choice(d, size=n_try, replace=False)`` after the
    leaf tests, in pre-order. That draw order is part of the output: every
    later draw of ``rng``, the next tree's bootstrap too, depends on it.

    A node scores all its candidate splits in one pass: an (n_try, m - 1, k)
    table of left class counts over the node's k present classes, then the
    Gini impurities with the expressions of a one-column scan, so each has
    the same bits. The lowest impurity wins; ties go to the first feature in
    sorted order, then to the first position within it. Class counts are
    carried down the tree, taken from the partition the threshold makes.
    """
    d = X.shape[1]
    n_try = max(1, int(math.isqrt(d)))
    classes, codes = np.unique(y, return_inverse=True)
    XT = np.ascontiguousarray(X.T)  # a node's candidate rows sort along the last axis
    sizes = {}  # m -> (nl, nr, both stacked for the (2, n_try, m - 1, k) count table)
    feature, threshold, left, right, label = [], [], [], [], []
    # (rows, class counts, parent node, parent's child list); right is pushed first: pre-order
    stack = [(np.arange(len(y)), np.bincount(codes, minlength=len(classes)), -1, None)]
    while stack:
        idx, counts, parent, side = stack.pop()
        node = len(feature)
        if side is not None:
            side[parent] = node
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        label.append(int(classes[counts.argmax()]))  # classes sorted: ties to smallest label
        m = len(idx)
        if m < MIN_LEAF or np.count_nonzero(counts) == 1:
            continue
        candidates = np.sort(rng.choice(d, size=n_try, replace=False))
        rows = idx[XT[candidates[:, None], idx].argsort(axis=1, kind="stable")]
        xs = XT[candidates[:, None], rows]
        # k = present classes only: zero columns would regroup the pairwise sum for k >= 8
        present = np.flatnonzero(counts)
        onehot = codes[rows][:, :-1, None] == present  # split after position i
        if m not in sizes:
            nl = np.arange(1, m)
            sizes[m] = (nl, m - nl, np.stack((nl, m - nl))[:, None, :, None])
        nl, nr, n_lr = sizes[m]
        lr_counts = np.empty((2,) + onehot.shape, dtype=np.int64)
        np.cumsum(onehot, axis=1, out=lr_counts[0])
        np.subtract(counts[present], lr_counts[0], out=lr_counts[1])
        gini = 1.0 - np.sum((lr_counts / n_lr) ** 2, axis=3)
        impurity = (nl * gini[0] + nr * gini[1]) / m
        impurity[xs[:, 1:] == xs[:, :-1]] = np.inf
        j, pos = divmod(int(impurity.argmin()), m - 1)
        if impurity[j, pos] == np.inf:
            continue  # every candidate column is constant at this node
        lo, hi = xs[j, pos : pos + 2].tolist()  # Python floats: an overflow gives inf, no warning
        thr = 0.5 * (lo + hi)
        if not lo <= thr < hi:  # rounded onto hi (adjacent floats) or overflowed
            thr = lo
        f = int(candidates[j])
        mask = XT[f, idx] <= thr
        left_counts = np.bincount(codes[idx[mask]], minlength=len(classes))
        feature[node] = f
        threshold[node] = thr
        stack.append((idx[~mask], counts - left_counts, node, right))
        stack.append((idx[mask], left_counts, node, left))
    return {
        "feature": np.asarray(feature, dtype=np.int64),
        "threshold": np.asarray(threshold, dtype=np.float64),
        "left": np.asarray(left, dtype=np.int64),
        "right": np.asarray(right, dtype=np.int64),
        "label": np.asarray(label, dtype=np.int64),
    }


def _tree_predict(tree: dict, x: np.ndarray) -> int:
    node = 0
    while tree["feature"][node] >= 0:
        if x[tree["feature"][node]] <= tree["threshold"][node]:
            node = tree["left"][node]
        else:
            node = tree["right"][node]
    return int(tree["label"][node])


def predict(model: TrainedModel, x):
    """Class of one feature vector (an int), or of each row of an (n, d) block (an array).

    A block gives the same classes as predicting its rows one by one.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2 and x.shape[1] == model.dimension:
        return _predict_block(model, x)
    if x.shape != (model.dimension,):
        raise DimensionMismatch(f"expected {model.dimension} features, got {x.shape}")
    if model.algorithm == "NearestNeighbor":
        d2 = np.sum((model.params["X"] - x) ** 2, axis=1)
        return int(model.params["y"][int(np.argmin(d2))])
    if model.algorithm == "GaussianNB":
        means = model.params["means"]
        variances = model.params["variances"]
        log_post = (
            np.log(model.params["priors"])
            - 0.5 * np.sum(np.log(2.0 * np.pi * variances), axis=1)
            - 0.5 * np.sum((x[None, :] - means) ** 2 / variances, axis=1)
        )
        return model.classes[int(np.argmax(log_post))]
    votes = np.zeros(len(model.classes), dtype=np.int64)
    lookup = {c: i for i, c in enumerate(model.classes)}
    for tree in model.params["trees"]:
        votes[lookup[_tree_predict(tree, x)]] += 1
    return model.classes[int(np.argmax(votes))]  # classes sorted: ties to smallest


def _predict_block(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Row-wise predict over a block; each reduction runs along the same axis as above."""
    classes = np.asarray(model.classes, dtype=np.int64)
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
        return classes[np.argmax(log_post, axis=1)]
    votes = np.zeros((len(X), len(classes)), dtype=np.int64)
    rows = np.arange(len(X))
    for tree in model.params["trees"]:
        votes[rows, np.searchsorted(classes, _tree_predict_block(tree, X))] += 1
    return classes[np.argmax(votes, axis=1)]  # classes sorted: ties to smallest


def _tree_predict_block(tree: dict, X: np.ndarray) -> np.ndarray:
    """Walk every row down the tree at once; rows stop at their leaf."""
    feature, threshold = tree["feature"], tree["threshold"]
    node = np.zeros(len(X), dtype=np.int64)
    active = np.flatnonzero(feature[node] >= 0)
    while len(active):
        at = node[active]
        go_left = X[active, feature[at]] <= threshold[at]
        node[active] = np.where(go_left, tree["left"][at], tree["right"][at])
        active = active[feature[node[active]] >= 0]
    return tree["label"][node]
