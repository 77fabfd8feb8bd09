import numpy as np
import pytest

from ctxclf import classifiers
from ctxclf.classifiers import ClassifierSpec, predict, train
from ctxclf.errors import CtxclfError, DimensionMismatch
from conftest import tree_arrays

ALGS = ("NearestNeighbor", "GaussianNB", "RandomForest")


def _blobs(seed=0, n_per=20, classes=(1, 2, 3), d=4, spread=0.3):
    rng = np.random.default_rng(seed)
    X, y = [], []
    for c in classes:
        center = np.zeros(d)
        center[: min(c, d)] = 3.0 * c
        X.append(center + spread * rng.standard_normal((n_per, d)))
        y.extend([c] * n_per)
    return np.vstack(X), np.array(y)


def test_spec_validation():
    with pytest.raises(ValueError):
        ClassifierSpec(algorithm="SVM")
    with pytest.raises(ValueError):
        ClassifierSpec(num_trees=0)


def test_degenerate_and_shape_errors():
    X = np.zeros((4, 2))
    with pytest.raises(CtxclfError, match=r"^training labels contain a single class$"):
        train(ClassifierSpec(), X, np.ones(4, dtype=int))
    with pytest.raises(ValueError):
        train(ClassifierSpec(), X, np.array([1, 2]))
    model = train(ClassifierSpec(), X + np.arange(4)[:, None], np.array([1, 1, 2, 2]))
    with pytest.raises(DimensionMismatch):
        predict(model, np.zeros(3))


@pytest.mark.parametrize("alg", ALGS)
def test_train_refuses_zero_feature_columns(alg):
    """Before this check RandomForest raised numpy's own error, and GaussianNB and 1-NN
    returned a model of dimension 0."""
    with pytest.raises(ValueError, match=r"^X has no feature columns$"):
        train(ClassifierSpec(algorithm=alg), np.zeros((4, 0)), np.array([1, 1, 2, 2]))


@pytest.mark.parametrize("alg", ALGS)
def test_separable_blobs_are_learned(alg):
    X, y = _blobs()
    model = train(ClassifierSpec(algorithm=alg), X, y)
    assert model.classes == (1, 2, 3)
    assert all(predict(model, X[i]) == y[i] for i in range(len(y)))


def test_nearest_neighbor_matches_distance_oracle():
    X, y = _blobs(seed=1, spread=2.5)
    model = train(ClassifierSpec(algorithm="NearestNeighbor"), X, y)
    rng = np.random.default_rng(2)
    for _ in range(50):
        q = rng.standard_normal(X.shape[1]) * 4
        expected = y[int(np.argmin([np.sum((row - q) ** 2) for row in X]))]
        assert predict(model, q) == expected


def test_gaussian_nb_matches_hand_oracle():
    X, y = _blobs(seed=3, spread=1.5)
    model = train(ClassifierSpec(algorithm="GaussianNB"), X, y)
    classes = model.classes
    rng = np.random.default_rng(4)
    floor = 1e-9
    for _ in range(50):
        q = rng.standard_normal(X.shape[1]) * 4
        scores = []
        for c in classes:
            rows = X[y == c]
            mu = rows.mean(axis=0)
            var = np.maximum(rows.var(axis=0), floor)
            log_lik = -0.5 * np.sum(np.log(2 * np.pi * var) + (q - mu) ** 2 / var)
            scores.append(np.log(len(rows) / len(y)) + log_lik)
        assert predict(model, q) == classes[int(np.argmax(scores))]


def test_random_forest_deterministic_per_seed():
    X, y = _blobs(seed=5, spread=1.2)
    q = np.ones(X.shape[1])
    a = train(ClassifierSpec(algorithm="RandomForest", seed=7), X, y)
    b = train(ClassifierSpec(algorithm="RandomForest", seed=7), X, y)
    assert predict(a, q) == predict(b, q)
    assert a.params["trees"] == b.params["trees"]


def test_random_forest_trees_pure_or_small_leaves():
    X, y = _blobs(seed=6, n_per=15, spread=1.0)
    model = train(ClassifierSpec(algorithm="RandomForest", num_trees=5), X, y)
    for tree in model.params["trees"]:
        tree = tree_arrays(tree, model.classes)
        assert len(tree["feature"]) >= 1
        leaves = tree["feature"] < 0
        assert leaves.any()
        # internal nodes reference children inside the arrays
        internal = ~leaves
        assert np.all(tree["left"][internal] > 0)
        assert np.all(tree["right"][internal] > 0)


def _adjacent_pair():
    a = np.nextafter(1.0, 2.0)
    b = np.nextafter(a, np.inf)
    assert 0.5 * (a + b) == b  # the midpoint rounds onto the upper value
    return a, b


@pytest.mark.parametrize(
    "lo, hi",
    [_adjacent_pair(), (1.7e308, 1.79e308), (-1.79e308, -1.7e308)],
    ids=["adjacent-floats", "midpoint-overflows", "midpoint-overflows-negative"],
)
def test_random_forest_splits_where_the_midpoint_fails(lo, hi):
    """A midpoint outside [lo, hi) would send both rows one way and rebuild the node forever."""
    X, y = np.array([[lo], [hi]]), np.array([1, 2])
    tree = tree_arrays(classifiers._grow_tree(X, y - 1, 2, np.random.default_rng(0)), (1, 2))
    assert tree["feature"].tolist() == [0, -1, -1]
    assert tree["threshold"][0] == lo
    assert tree["label"].tolist() == [1, 1, 2]
    model = train(ClassifierSpec(algorithm="RandomForest", num_trees=9), X, y)
    assert predict(model, X).tolist() == [1, 2]


def test_vote_ties_break_to_smallest_class():
    # two training points, forest of one stump that cannot split -> majority
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([2, 2, 1, 1])
    model = train(ClassifierSpec(algorithm="RandomForest", num_trees=1, seed=0), X, y)
    p = predict(model, np.array([0.5]))
    assert p in (1, 2)
    # NearestNeighbor equidistant: argmin picks the first stored row
    nn = train(ClassifierSpec(algorithm="NearestNeighbor"), X, y)
    assert predict(nn, np.array([0.5])) == 2
