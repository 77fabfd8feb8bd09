"""Each fast path against the slow code it replaced, down to equal bits.

The box-fit memo, the one-pass MI scores, block prediction, the
table-driven sequence walk, the one-pass forest node, the fold-id array,
the indexed repair, block feature extraction, the one-call object draws,
the shared prediction cache, the box transition tables (the context
machine's only definition), the one walk of the box tree (``BoxNode.paths``
under the transition tables, ``describe`` and the movement sequences), the
list-based forest walk (vectors and
blocks), the ordered feasible-set loop, the one-pass
MAV/SSC (A3 and D3 summed as one reshape), the lags written in place and
divided once, the Levinson recursion that starts at k = r1 / r0 and skips
the last step's error update (hand-made rows stop at each step), the
prebuilt mask columns, the ``np.loadtxt`` record reader and the one-join
record writer, the one matrix product per DWT level over the kept
windows, the walk that stops at a sequence's first miss (against the full
table walk) with its (first miss, length) reductions, one cached
machine per (structure, binding), the class-sorted naive Bayes slices,
the label comparison that picks a box's rows, one fit per class set in a
memo-less call, the MI label codes and cell order without ``np.unique``,
the stable reverse ranking of the scores, the uint32 seed words and the
prediction tables of the held-out block (against the row-indexed tables)
must leave every result as it was;
the golden digests pin a whole cross-validated run over all three
classifiers, one on the EA path, and the controller's window-by-window path.
"""

import csv
import hashlib
import itertools
import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxclf import classifiers, evaluation, features, optimize, signals, wavelet
from ctxclf.classifiers import ALGORITHMS, ClassifierSpec, predict, train
from ctxclf.context import (
    ROOT,
    Binding,
    BoxNode,
    ContextStructure,
    Movement,
    derive_constraints,
    enumerate_feasible,
    load_structure,
    local_classes,
    structure_from_dict,
    validate_structure,
)
from ctxclf.evaluation import (
    RunConfig,
    _class_pools,
    _evaluate_system,
    _sqcov,
    _zo,
    evaluate_sequence,
    generate_movement_sequences,
    run_experiment,
    sample_object_sequences,
    sequence_to_classes,
)
from ctxclf.errors import CtxclfError, DuplicateClassInBox, SignalsetError
from ctxclf.features import (
    FeatureMask,
    extract_features,
    feature_matrix,
    mutual_information,
    select_features,
)
from ctxclf.optimize import EAParams, RepairIndex, feasible_set, kendall_tau, repair, trace_to_csv
from ctxclf.rng import derive_rng, derive_seed
from ctxclf import rng as rng_module
from ctxclf import runtime
from ctxclf.runtime import (
    ContextEnsemble,
    first_miss,
    initial_state,
    machine,
    reset,
    step,
    train_ensemble,
    train_plain,
)
from ctxclf.signals import SignalRecord, SignalSet, load_signalset, save_signalset
from ctxclf.synth import synth_signalset
from ctxclf.wavelet import DB6_HIGHPASS, DB6_LOWPASS, TAPS, dwt_db6
from conftest import (
    STRUCTURES,
    ar_coefficients,
    chain_doc,
    flat_structure,
    scored_pair,
    slope_sign_changes,
    structure_file,
    structure_to_dict,
    tree_arrays,
)
from test_runtime import obj, perfect_ensemble

SIX_CLASS_JSON = STRUCTURES / "six_class.json"


def dict_loop_mi(feature, labels, bins=10):
    """The per-column dict-loop MI that the one-pass scores replaced (the oracle)."""
    x = np.asarray(feature, dtype=np.float64)
    y = np.asarray(labels)
    if np.all(x == x[0]):
        return 0.0
    edges = np.quantile(x, np.linspace(0.0, 1.0, bins + 1)[1:-1])
    xb = np.searchsorted(edges, x, side="right")
    joint = {}
    for xi, yi in zip(xb, y):
        joint[(int(xi), int(yi))] = joint.get((int(xi), int(yi)), 0) + 1
    n = len(x)
    px = {}
    py = {}
    for (xi, yi), c in joint.items():
        px[xi] = px.get(xi, 0) + c
        py[yi] = py.get(yi, 0) + c
    mi = 0.0
    for (xi, yi), c in joint.items():
        p = c / n
        mi += p * math.log(p * n * n / (px[xi] * py[yi]))
    return max(mi, 0.0)


def dict_loop_select(X, labels, fraction):
    d = X.shape[1]
    scores = [dict_loop_mi(X[:, j], labels) for j in range(d)]
    order = sorted(range(d), key=lambda j: (-scores[j], j))
    return scores, tuple(sorted(order[: math.ceil(fraction * d)]))


@st.composite
def mi_problems(draw):
    """A matrix of one column kind plus labels with at least two classes."""
    n = draw(st.integers(2, 300))
    d = draw(st.integers(1, 16))
    k = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["continuous", "integer", "rounded", "constant", "signed_zeros"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, d)) * 10.0
    if kind == "integer":  # ties everywhere, as in slope-sign-change counts
        X = rng.integers(0, 8, (n, d)).astype(np.float64)
    elif kind == "rounded":
        X = np.round(X, 1)
    elif kind == "constant":
        X[:, ::2] = 1.5
    elif kind == "signed_zeros":  # edges on -0.0 and 0.0, which a sort may order either way
        X = rng.integers(-1, 2, (n, d)) * 1.0
        X[X == 0] = rng.choice([-0.0, 0.0], int((X == 0).sum()))
    y = rng.integers(1, k + 1, n)
    y[:2] = (1, 2)
    fraction = draw(st.sampled_from([0.1, 0.25, 0.5, 0.75, 1.0]))
    return X, y, fraction


@settings(max_examples=200, deadline=None)
@given(mi_problems())
def test_one_pass_mi_is_bit_equal_to_dict_loop(problem):
    X, y, fraction = problem
    scores, selected = dict_loop_select(X, y, fraction)
    mask = select_features(X, y, fraction=fraction)
    assert np.array(mask.scores).tobytes() == np.array(scores).tobytes()
    assert mask.selected == selected


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(0, 40),
    picks=st.lists(st.integers(0, 39), max_size=40),
    rows=st.sampled_from([None, 1, 5]),
    seed=st.integers(0, 2**16),
)
def test_mask_columns_equal_list_indexing(d, picks, rows, seed):
    """The prebuilt column array takes the bits the per-call list index took."""
    selected = tuple(sorted({p for p in picks if p < d}))
    mask = FeatureMask(selected=selected, scores=(0.0,) * d)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(d if rows is None else (rows, d))
    assert mask.apply(x).tobytes() == x[..., list(selected)].tobytes()
    assert mask.apply(x).shape == x[..., list(selected)].shape
    assert mask.apply(x.tolist()).tobytes() == x[..., list(selected)].tobytes()
    assert not mask._columns.flags.writeable and mask._columns.dtype == np.intp
    twin = FeatureMask(selected=selected, scores=(0.0,) * d)
    assert twin == mask and hash(twin) == hash(mask) and "_columns" not in repr(mask)


@settings(max_examples=200, deadline=None)
@given(mi_problems())
def test_sorted_edges_bin_as_np_quantile(problem):
    """The edges from one sort cut every column as np.quantile's edges do.

    Bins, not edge bits, are compared: a sort and np.quantile's partition may
    order -0.0 and 0.0 differently, and only the ``>=`` bin test reads an edge.
    The scores' bits are checked on the same problems against ``dict_loop_mi``.
    """
    X, _, _ = problem
    reference = np.quantile(X, np.linspace(0.0, 1.0, features.MI_BINS + 1)[1:-1], axis=0)
    edges = features._bin_edges(np.sort(X, axis=0))
    assert edges.shape == reference.shape
    assert np.array_equal(edges, reference)  # equal values, up to the sign of a zero
    bins = (X[:, None, :] >= edges[None]).sum(axis=1)
    assert np.array_equal(bins, (X[:, None, :] >= reference[None]).sum(axis=1))


def test_quantile_plan_takes_both_interpolations_and_the_last_value():
    """Both branches of numpy's lerp are taken, and at n = 1 the next index is clamped to n - 1."""
    quantiles = np.linspace(0.0, 1.0, features.MI_BINS + 1)[1:-1]
    for n in range(1, 300):
        X = np.random.default_rng(n).standard_normal((n, 3))
        edges = features._bin_edges(np.sort(X, axis=0))
        assert np.array_equal(edges, np.quantile(X, quantiles, axis=0))
    _, nxt, gamma, upper = features._quantile_plan(48)
    assert upper.any() and not upper.all() and not gamma.flags.writeable
    assert features._quantile_plan(1)[1].tolist() == [0] * len(quantiles)


def test_mutual_information_is_the_one_column_case():
    rng = np.random.default_rng(3)
    y = rng.integers(1, 5, 70)
    for x in (rng.standard_normal(70), rng.integers(0, 4, 70).astype(float), np.zeros(70)):
        assert mutual_information(x, y) == dict_loop_mi(x, y)
    # one cell has p n^2 / (n_x n_y) = 1.05, where np.log and math.log differ in the last bit
    x, y = np.array([0.0, 0, 0, 0, 1, 1, 1]), np.array([1, 1, 1, 2, 1, 1, 2])
    assert mutual_information(x, y) == dict_loop_mi(x, y)
    with pytest.raises(ValueError):
        mutual_information(np.arange(3.0), [1, 1, 1])
    with pytest.raises(ValueError):
        mutual_information(np.arange(3.0), [1, 2])
    with pytest.raises(ValueError):
        mutual_information(np.ones((3, 2)), [1, 2, 1])


def column_scan_split(col, y, classes):
    """Best (impurity, threshold) of one feature column, or None: the scan one node ran per feature."""
    order = np.argsort(col, kind="stable")
    xs, ys = col[order], y[order]
    n = len(ys)
    onehot = ys[:, None] == classes[None, :]
    left_counts = np.cumsum(onehot, axis=0)[:-1]  # split after position i
    total = left_counts[-1] + onehot[-1]
    right_counts = total[None, :] - left_counts
    nl = np.arange(1, n)
    nr = n - nl
    valid = xs[1:] != xs[:-1]
    if not valid.any():
        return None
    gini_l = 1.0 - np.sum((left_counts / nl[:, None]) ** 2, axis=1)
    gini_r = 1.0 - np.sum((right_counts / nr[:, None]) ** 2, axis=1)
    impurity = (nl * gini_l + nr * gini_r) / n
    impurity[~valid] = np.inf
    best = int(np.argmin(impurity))
    thr = 0.5 * (xs[best] + xs[best + 1])
    return float(impurity[best]), thr


def column_scan_tree(X, y, rng):
    """The recursive per-feature-scan tree grower that the one-pass node replaced (the oracle)."""
    d = X.shape[1]
    n_try = max(1, int(math.isqrt(d)))
    feature, threshold, left, right, label = [], [], [], [], []

    def majority(ys):
        vals, counts = np.unique(ys, return_counts=True)
        return int(vals[np.argmax(counts)])

    def build(idx):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        label.append(majority(y[idx]))
        ys = y[idx]
        if len(idx) < classifiers.MIN_LEAF or len(np.unique(ys)) == 1:
            return node
        classes = np.unique(ys)
        candidates = rng.choice(d, size=n_try, replace=False)
        best = None
        for f in sorted(candidates):
            res = column_scan_split(X[idx, f], ys, classes)
            if res is not None and (best is None or res[0] < best[0]):
                best = (res[0], f, res[1])
        if best is None:
            return node
        _, f, thr = best
        mask = X[idx, f] <= thr
        feature[node] = f
        threshold[node] = thr
        left[node] = build(idx[mask])
        right[node] = build(idx[~mask])
        return node

    build(np.arange(len(y)))
    return {
        "feature": np.asarray(feature, dtype=np.int64),
        "threshold": np.asarray(threshold, dtype=np.float64),
        "left": np.asarray(left, dtype=np.int64),
        "right": np.asarray(right, dtype=np.int64),
        "label": np.asarray(label, dtype=np.int64),
    }


@st.composite
def tree_problems(draw):
    """Bootstrap-like rows of one column kind, 2 to 8 labels, from n = 2 and d = 1 up."""
    n = draw(st.sampled_from([2, 3]) | st.integers(2, 200))
    d = draw(st.sampled_from([1]) | st.integers(1, 20))
    k = draw(st.sampled_from([8]) | st.integers(2, 8))  # 8 labels: numpy sums a count row pairwise
    kind = draw(st.sampled_from(["continuous", "integer", "tied"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, d)) * 10.0  # adjacent floats are out of reach here
    if kind == "integer":  # ties, and equal impurities across features
        X = rng.integers(0, 6, (n, d)).astype(np.float64)
    elif kind == "tied":  # most columns two-valued, some constant
        X = rng.integers(0, 2, (n, d)).astype(np.float64)
        X[:, rng.random(d) < 0.3] = 1.0
    y = rng.integers(1, k + 1, n) * 3  # labels need not be 1..k
    y[:k] = np.arange(1, k + 1)[:n] * 3
    rows = rng.integers(0, n, n) if draw(st.booleans()) else np.arange(n)  # a bootstrap, or not
    return X[rows], y[rows], draw(st.integers(0, 99))


def assert_same_tree(X, y, seed):
    """The tree grown from the rows' vote slots equals the oracle's, whatever classes are absent.

    The rows are coded against their own labels, then against class sets
    that add absent classes below, between and above them (a forest codes a
    bootstrap against all the training labels).
    """
    slow_rng = np.random.default_rng(seed)
    slow = column_scan_tree(X, y, slow_rng)
    present = np.unique(y)
    gaps = np.setdiff1d(present[:-1] + 1, present)
    for classes in (
        present,
        np.union1d(present, [present[0] - 1, present[-1] + 1]),
        np.union1d(present, np.concatenate(([present[0] - 2], gaps, [present[-1] + 2]))),
    ):
        fast_rng = np.random.default_rng(seed)
        stored = classifiers._grow_tree(X, np.searchsorted(classes, y), len(classes), fast_rng)
        fast = tree_arrays(stored, classes)
        for key in ("feature", "threshold", "left", "right", "label"):
            assert fast[key].dtype == slow[key].dtype
            assert fast[key].tobytes() == slow[key].tobytes(), key
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state  # same draws, same order


@settings(max_examples=400, deadline=None)
@given(tree_problems())
def test_one_pass_tree_equals_column_scan_tree(problem):
    assert_same_tree(*problem)


@pytest.mark.parametrize("kind", ["continuous", "integer"])
def test_one_pass_tree_with_eight_labels(kind):
    """Eight labels: the first count axis long enough for numpy to sum it pairwise.

    Inner nodes hold fewer labels; summing over all eight there, zeros
    included, regroups the sum and flips a few near-tied splits.
    """
    for seed in range(60):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((80, 16)) * 10.0
        if kind == "integer":
            X = rng.integers(0, 6, X.shape).astype(np.float64)
        y = np.concatenate([np.arange(1, 9), rng.integers(1, 9, 72)])
        assert_same_tree(X, y, seed)


@pytest.mark.parametrize("kind", ["continuous", "integer", "tied"])
@pytest.mark.parametrize("labels", [12, 20])
def test_one_pass_tree_with_many_labels(labels, kind):
    """Up to MAX_CLASSES labels: nodes on the way down hold from 20 present classes to 1.

    From 8 present classes up numpy sums a count row pairwise, so these
    nodes check that the one-pass table keeps the oracle's grouping.
    """
    for seed in range(12):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((200, 16)) * 10.0
        if kind == "integer":
            X = rng.integers(0, 6, X.shape).astype(np.float64)
        elif kind == "tied":
            X = rng.integers(0, 2, X.shape).astype(np.float64)
        y = np.concatenate([np.arange(1, labels + 1), rng.integers(1, labels + 1, 200 - labels)])
        assert_same_tree(X, y, seed)


@settings(max_examples=150, deadline=None)
@given(tree_problems(), st.integers(0, 2**32 - 1))
def test_tree_does_not_depend_on_row_order(problem, perm_seed):
    """Permuted rows grow the same tree and leave the same RNG state.

    A node hands its children its sorted rows, not the rows in their first
    order; that is only safe if no split reads the order of its rows.
    """
    X, y, seed = problem
    perm = np.random.default_rng(perm_seed).permutation(len(y))
    codes = np.searchsorted(np.unique(y), y)
    k = int(codes.max()) + 1
    first, permuted = np.random.default_rng(seed), np.random.default_rng(seed)
    assert classifiers._grow_tree(X[perm], codes[perm], k, permuted) == classifiers._grow_tree(
        X, codes, k, first
    )
    assert permuted.bit_generator.state == first.bit_generator.state


def vector_predict(model, x):
    """The 1-D NearestNeighbor/GaussianNB rules that the one-row block replaced (the oracle)."""
    if model.algorithm == "NearestNeighbor":
        d2 = np.sum((model.params["X"] - x) ** 2, axis=1)
        return int(model.params["y"][int(np.argmin(d2))])
    means = model.params["means"]
    variances = model.params["variances"]
    log_post = (
        np.log(model.params["priors"])
        - 0.5 * np.sum(np.log(2.0 * np.pi * variances), axis=1)
        - 0.5 * np.sum((x[None, :] - means) ** 2 / variances, axis=1)
    )
    return model.classes[int(np.argmax(log_post))]


def numpy_tree_predict_block(tree, X):
    """Every row down one tree at once, the numpy walk the list walk replaced (the oracle)."""
    feature, threshold = tree["feature"], tree["threshold"]
    node = np.zeros(len(X), dtype=np.int64)
    active = np.flatnonzero(feature[node] >= 0)
    while len(active):
        at = node[active]
        go_left = X[active, feature[at]] <= threshold[at]
        node[active] = np.where(go_left, tree["left"][at], tree["right"][at])
        active = active[feature[node[active]] >= 0]
    return tree["label"][node]


def numpy_forest_predict_block(model, X):
    classes = np.asarray(model.classes, dtype=np.int64)
    votes = np.zeros((len(X), len(classes)), dtype=np.int64)
    rows = np.arange(len(X))
    for tree in model.params["trees"]:
        tree = tree_arrays(tree, model.classes)
        votes[rows, np.searchsorted(classes, numpy_tree_predict_block(tree, X))] += 1
    return classes[np.argmax(votes, axis=1)]  # classes sorted: ties to smallest


def oracle_predict_rows(model, T):
    if model.algorithm == "RandomForest":
        return numpy_forest_predict_block(model, T).tolist()
    return [vector_predict(model, t) for t in T]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(ALGORITHMS),
    st.integers(0, 2**32 - 1),
    st.integers(1, 14),
    st.booleans(),
)
def test_block_predict_equals_row_by_row(algorithm, seed, d, integer_valued):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((40, d))
    T = rng.standard_normal((25, d))
    if integer_valued:  # distance and vote ties
        X, T = np.round(X), np.round(T)
    y = rng.integers(1, 5, 40)
    y[:2] = (1, 2)
    model = train(ClassifierSpec(algorithm=algorithm, num_trees=5, seed=seed % 100), X, y)
    block = predict(model, T)
    rows = [predict(model, t) for t in T]
    assert block.dtype == np.int64
    assert all(type(c) is int for c in rows)
    assert block.tolist() == rows == oracle_predict_rows(model, T)


def test_nearest_neighbor_block_in_chunks(monkeypatch):
    rng = np.random.default_rng(8)
    X, T = rng.standard_normal((30, 6)), rng.standard_normal((50, 6))
    y = rng.integers(1, 4, 30)
    model = train(ClassifierSpec(algorithm="NearestNeighbor"), X, y)
    whole = predict(model, T)
    monkeypatch.setattr(classifiers, "NN_CHUNK_ELEMENTS", 7 * X.size)  # chunks of 7 rows
    assert predict(model, T).tolist() == whole.tolist() == oracle_predict_rows(model, T)
    assert predict(model, T[:0]).shape == (0,)


def numpy_tree_predict(tree, x):
    """The numpy-scalar walk of one tree that the list walk replaced (the oracle)."""
    node = 0
    while tree["feature"][node] >= 0:
        if x[tree["feature"][node]] <= tree["threshold"][node]:
            node = tree["left"][node]
        else:
            node = tree["right"][node]
    return int(tree["label"][node])


def oracle_forest_predict(model, x):
    votes = np.zeros(len(model.classes), dtype=np.int64)
    lookup = {c: i for i, c in enumerate(model.classes)}
    for tree in model.params["trees"]:
        tree = tree_arrays(tree, model.classes)
        votes[lookup[numpy_tree_predict(tree, x)]] += 1
    return model.classes[int(np.argmax(votes))]


def on_threshold_row(tree, x):
    """x with each feature set to the threshold of the first node of the walk that tests it."""
    x = x.copy()
    seen = set()
    node = 0
    while tree["feature"][node] >= 0:
        f = int(tree["feature"][node])
        if f not in seen:
            x[f] = tree["threshold"][node]
            seen.add(f)
        node = tree["left"][node] if x[f] <= tree["threshold"][node] else tree["right"][node]
    return x


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.integers(4, 40),
    st.integers(2, 5),
    st.sampled_from([1, 2, 3, 4, 6]),
    st.booleans(),
)
def test_list_forest_walk_equals_numpy_scalar_walk(seed, d, n, k, num_trees, integer_valued):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    T = rng.standard_normal((30, d))
    if integer_valued:  # rows land on tied values; an even tree count gives vote ties
        X, T = np.round(X * 2), np.round(T * 2)
    y = rng.integers(1, k + 1, n)
    y[:2] = (1, 2)
    spec = ClassifierSpec(algorithm="RandomForest", num_trees=num_trees, seed=seed % 97)
    model = train(spec, X, y)
    trees = [tree_arrays(tree, model.classes) for tree in model.params["trees"]]
    T = np.vstack([T] + [on_threshold_row(trees[i % len(trees)], T[i]) for i in range(10)])
    for t in T:
        got = predict(model, t)
        assert type(got) is int
        assert got == oracle_forest_predict(model, t)
    assert predict(model, T).tolist() == numpy_forest_predict_block(model, T).tolist()


def test_list_forest_walk_breaks_vote_ties_to_the_smallest_class():
    classes = (2, 3, 5)

    def leaf(label):
        return [-1], [0.0], [-1], [-1], [classes.index(label)]

    def forest(*labels):
        trees = [leaf(c) for c in labels]
        return classifiers.TrainedModel("RandomForest", classes, 1, {"trees": trees})

    x = np.zeros(1)
    cases = {(5, 3): 3, (3, 5, 2, 5, 3): 3, (2, 5): 2, (5, 5, 3, 3, 2, 2): 2, (5, 3, 5): 5}
    for labels, expected in cases.items():
        model = forest(*labels)
        assert predict(model, x) == oracle_forest_predict(model, x) == expected
        assert predict(model, x[None]).tolist() == [expected]
        assert numpy_forest_predict_block(model, x[None]).tolist() == [expected]


def model_state(model):
    """A model's fields, the dtype, shape and bytes of every parameter array, and each tree's lists.

    A tree's lists are compared by the repr of every entry, so a float is
    compared bit for bit and an int must stay an int.
    """

    def array(v):
        return str(v.dtype), v.shape, v.tobytes()

    params = {
        k: [[list(map(repr, part)) for part in tree] for tree in v] if k == "trees" else array(v)
        for k, v in model.params.items()
    }
    return model.algorithm, model.classes, model.dimension, params


def box_fits(ensemble):
    """{box: (mask selected, source_dim, score bytes, model_state)} of an ensemble."""
    return {
        i: (
            mask.selected,
            mask.source_dim,
            np.array(mask.scores, dtype=np.float64).tobytes(),
            model_state(model),
        )
        for i, (mask, model) in ensemble.fits.items()
    }


def test_forest_walk_lists_leave_the_model_unchanged():
    rng = np.random.default_rng(12)
    X, y = rng.standard_normal((30, 4)), rng.integers(1, 4, 30)
    spec = ClassifierSpec(algorithm="RandomForest", num_trees=4, seed=3)
    used, fresh = train(spec, X, y), train(spec, X, y)
    before = model_state(used)
    predict(used, X[0])
    assert model_state(used) == before == model_state(fresh)
    assert used == fresh and hash(used) == hash(fresh)
    assert predict(used, X).tolist() == predict(fresh, X).tolist()


def loop_repair(candidate, feasible):
    """The Kendall-tau scan over the feasible list that the counted distances replaced (the oracle)."""
    cand = tuple(int(v) for v in candidate)
    best = None
    best_key = None
    for b in feasible:
        if b.secondary == cand:
            return b
        key = (kendall_tau(cand, b.secondary), b.secondary)
        if best_key is None or key < best_key:
            best, best_key = b, key
    return best


@st.composite
def repair_problems(draw):
    """A candidate and a subset of permutations, distinct and in lexicographic order,
    as `feasible_set` lists them."""
    C = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perms = list(itertools.permutations(range(1, C + 1)))
    picks = rng.choice(len(perms), size=draw(st.integers(1, min(len(perms), 60))), replace=False)
    feasible = [Binding(perms[i]) for i in np.sort(picks)]
    return tuple(int(v) for v in rng.permutation(C) + 1), feasible


@settings(max_examples=300, deadline=None)
@given(repair_problems())
def test_counted_repair_equals_loop_repair(problem):
    candidate, feasible = problem
    expected = loop_repair(candidate, feasible)
    assert repair(candidate, RepairIndex(feasible)) is expected


@pytest.mark.parametrize("chunk_rows", [None, 1000])
def test_counted_repair_on_grips_feasible_set(monkeypatch, chunk_rows):
    if chunk_rows:
        monkeypatch.setattr(optimize, "REPAIR_CHUNK_ROWS", chunk_rows)  # 8 chunks
    feasible = feasible_set(structure_file("eight_class_grips"))
    index = RepairIndex(feasible)
    rng = np.random.default_rng(12)
    for _ in range(5):
        candidate = tuple(int(v) for v in rng.permutation(8) + 1)
        assert repair(candidate, index) is loop_repair(candidate, feasible)
    assert repair(feasible[-1].secondary, index) is feasible[-1]


def loop_analysis_symmetric(x, filt):
    """One filter of one level on one vector by correlation over the whole extension: the
    per-channel code that block extraction and the gathered-window product replaced."""
    ext = np.pad(x, TAPS - 1, mode="symmetric")
    return np.correlate(ext, filt, mode="valid")[::2]


def loop_dwt_db6(x, levels=3):
    details = []
    approx = np.asarray(x, dtype=np.float64)
    for _ in range(levels):
        details.append(loop_analysis_symmetric(approx, DB6_HIGHPASS))
        approx = loop_analysis_symmetric(approx, DB6_LOWPASS)
    return [approx] + details[::-1]


def loop_ar_coefficients(x, order=3):
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    return loop_levinson(np.array([np.dot(x[: n - k], x[k:]) / n for k in range(order + 1)]))


def loop_levinson(r):
    """One row of lags r_0..r_order to its AR coefficients, step by step."""
    order = len(r) - 1
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


# Hand-made lag rows r_0..r_3, one per way the recursion ends, interleaved so that rows
# leave the block at different steps.
LEVINSON_ROWS = [
    (1.0, 0.5, 0.2, 0.1),  # never stops
    (1.0, 1.0, 0.5, 0.2),  # stops at m = 0: k = 1, the error is exactly 0
    (0.0, 1.0, 2.0, 3.0),  # r0 <= 0: zeros
    (1.0, 0.5, -1.0, 0.3),  # stops at m = 1: k = -5/3
    (1.0, 0.0, 0.0, 1.0),  # stops at the last step: k = 1 there
    (2.0, -3.0, 1.0, 0.5),  # stops at m = 0: the error goes negative
    (-0.0, 1.0, 1.0, 1.0),  # r0 <= 0: a signed zero
    (1.0, 0.5, 0.25, 5.0),  # stops at the last step: the error goes negative
    (2.0, -0.0, -1.0, -0.0),  # never stops; AR1 is -0.0 only if r1 - 0.0 kept the sign at m = 0
    (-1.0, 0.5, 0.2, 0.1),  # r0 < 0: zeros
    (1.0, 0.6, 1.0, 0.2),  # stops at m = 1: k = 1 there, the error is exactly 0
    (3.0, 1.0, -1.0, 0.5),  # never stops
]


def test_levinson_stops_at_each_step_as_the_one_row_recursion():
    rows = np.array(LEVINSON_ROWS)
    got = features._levinson(rows)
    for r, coefficients in zip(rows, got):
        assert coefficients.tobytes() == loop_levinson(r).tobytes(), r


def test_side_by_side_subband_sums_equal_each_half_summed_alone():
    """A3 and D3 summed as one (rows, 2, L) reshape of the end-to-end copy, across numpy's
    pairwise-sum block edges."""
    rng = np.random.default_rng(0)
    for L in (*range(1, 10), *range(127, 131), *range(255, 301)):
        scale = 10.0 ** rng.integers(-8, 9, (3, 1))
        joined = np.abs(rng.standard_normal((3, 2 * L + 7)) * scale)  # 7 more: D2 and D1
        pair = joined[:, : 2 * L].reshape(3, 2, L).sum(axis=2)
        for i, half in itertools.product(range(3), range(2)):
            alone = joined[i, half * L : (half + 1) * L].sum()
            assert pair[i, half].tobytes() == alone.tobytes(), (L, i, half)


def loop_slope_sign_changes(x):
    d = np.diff(np.asarray(x, dtype=np.float64))
    up, down = d > 0, d < 0  # signs, not a product, which underflows on tiny slopes
    return int(np.sum((up[:-1] & down[1:]) | (down[:-1] & up[1:])))


def loop_feature_values(record):
    """Channel by channel, subband by subband (the oracle); before the finite check."""
    values = []
    for ch in range(record.num_channels):
        for sb in loop_dwt_db6(record.channels[ch]):
            values.append(np.mean(np.abs(sb)))
            values.append(float(loop_slope_sign_changes(sb)))
            values.extend(loop_ar_coefficients(sb))
    return np.array(values)


CHANNEL_KINDS = ("normal", "integer", "constant", "zero", "ramp", "walk")
# at scale 1e160 the squares overflow: a record's features turn non-finite on the way
QUIET_OVERFLOW = {"over": "ignore", "invalid": "ignore"}


@st.composite
def channel_rows(draw, rows, n):
    """`rows` channels of n samples, each of one kind and one scale (up to 1e160)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = np.empty((rows, n))
    for i in range(rows):
        kind = draw(st.sampled_from(CHANNEL_KINDS))
        scale = 10.0 ** draw(st.sampled_from([-200, -8, -3, 0, 0, 3, 8, 150, 160]))
        if kind == "normal":
            out[i] = rng.standard_normal(n) * scale
        elif kind == "integer":
            out[i] = rng.integers(-6, 7, n)
        elif kind == "constant":
            out[i] = rng.standard_normal() * scale
        elif kind == "zero":
            out[i] = 0.0
        elif kind == "ramp":  # Levinson stops early on a ramp
            out[i] = np.arange(n) * scale
        else:
            out[i] = np.cumsum(rng.standard_normal(n)) * scale
    return out


@st.composite
def records(draw, num_channels=None, n=None):
    C = num_channels or draw(st.integers(1, 4))
    n = n or draw(st.integers(16, 700))
    return SignalRecord("r", draw(channel_rows(C, n)), 1000, 1)


@settings(max_examples=150, deadline=None)
@given(records())
def test_block_extract_features_equals_channel_loop(record):
    with np.errstate(**QUIET_OVERFLOW):
        expected = loop_feature_values(record)
        assert features._block_features(record.channels).ravel().tobytes() == expected.tobytes()
    if np.all(np.isfinite(expected)):
        assert extract_features(record).values.tobytes() == expected.tobytes()
    else:
        # the one-window path warns on the way to its error
        with pytest.raises(SignalsetError, match="^record r: non-finite"), np.errstate(**QUIET_OVERFLOW):
            extract_features(record)


@st.composite
def ragged_signalsets(draw):
    """Records of two or three lengths, interleaved, in one set."""
    C = draw(st.integers(1, 3))
    lengths = draw(st.lists(st.integers(16, 300), min_size=2, max_size=3))
    recs = []
    for i in range(draw(st.integers(2, 14))):
        n = draw(st.sampled_from(lengths))
        recs.append(SignalRecord(f"r{i}", draw(channel_rows(C, n)), 1000, 1 + i % 2))
    return SignalSet(tuple(recs))


@settings(max_examples=60, deadline=None)
@given(ragged_signalsets(), st.sampled_from([1, 3, 16]))
def test_block_feature_matrix_equals_stacked_loop(sset, block_rows):
    with np.errstate(**QUIET_OVERFLOW):
        expected = np.vstack([loop_feature_values(r) for r in sset.records])
    with mock.patch.object(features, "FEATURE_BLOCK_ROWS", block_rows):
        if np.all(np.isfinite(expected)):
            X, y = feature_matrix(sset)
            assert X.tobytes() == expected.tobytes()
            assert y.tolist() == [r.class_label for r in sset.records]
        else:
            first_bad = sset.records[int(np.argmin(np.isfinite(expected).all(axis=1)))]
            with pytest.raises(SignalsetError, match=f"record {first_bad.record_id}:"):
                feature_matrix(sset)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(8, 400), st.integers(1, 3), st.data())
def test_block_dwt_rows_equal_vector_dwt(rows, n, levels, data):
    block = data.draw(channel_rows(rows, n))
    got = dwt_db6(block, levels=levels)
    for i in range(rows):
        for sb_block, sb_row, sb_loop in zip(
            got, dwt_db6(block[i], levels=levels), loop_dwt_db6(block[i], levels=levels)
        ):
            assert sb_block[i].tobytes() == sb_row.tobytes() == sb_loop.tobytes()
    if n % 2**levels == 0:
        periodic = dwt_db6(block, levels=levels, mode="periodic")
        for i in range(rows):
            for sb_block, sb_row in zip(periodic, dwt_db6(block[i], levels=levels, mode="periodic")):
                assert sb_block[i].tobytes() == sb_row.tobytes()


def assert_dwt_equals_correlation(block, levels=3):
    """Each row's subbands hold the correlation's bits, as stride-2 views (the AR bits rest
    on that stride)."""
    got = dwt_db6(block, levels=levels)
    for sb in got:
        assert sb.strides[-1] == 2 * sb.itemsize
    for i, row in enumerate(block):
        for sb_block, sb_loop in zip(got, loop_dwt_db6(row, levels=levels)):
            assert sb_block[i].tobytes() == sb_loop.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 16), st.integers(8, 700), st.sampled_from([1, 40 * TAPS, wavelet.GATHER_VALUES]),
    st.data(),
)
def test_gathered_dwt_equals_correlation_across_gather_chunks(rows, n, gather_values, data):
    """A block that spans several gather chunks, down to one row per chunk."""
    block = data.draw(channel_rows(rows, n))
    with mock.patch.object(wavelet, "GATHER_VALUES", gather_values):
        assert_dwt_equals_correlation(block, levels=data.draw(st.integers(1, 3)))


@pytest.mark.parametrize("n", [31, 32, 257, 512])
@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e150])
def test_gathered_dwt_keeps_signed_zeros_and_extreme_scales(n, scale):
    rng = np.random.default_rng(n)
    block = rng.standard_normal((4, n)) * scale
    block[0, rng.random(n) < 0.3] = 0.0
    block[1, rng.random(n) < 0.3] = -0.0
    block[2] = -0.0
    block[3, : n // 2] = -0.0
    assert_dwt_equals_correlation(block)
    for sb, sb_loop in zip(dwt_db6(block[1]), loop_dwt_db6(block[1])):  # the vector path
        assert sb.strides == (2 * sb.itemsize,) and sb.tobytes() == sb_loop.tobytes()


@settings(max_examples=150, deadline=None)
@given(st.integers(4, 300), st.data())
def test_ar_and_ssc_equal_loop_on_any_stride(n, data):
    """SSC on every view; AR on the views _autocorrelation takes, as dwt_db6's subbands are:
    a positive stride and at least AR_ORDER + 2 samples."""
    x = data.draw(channel_rows(1, n))[0]
    x[data.draw(st.sampled_from([0, n // 2, n - 1]))] = data.draw(st.sampled_from([0.0, -0.0]))
    for view in (x, x[::2], x[::-1], x[1::3], np.broadcast_to(x[0], (n,))):
        with np.errstate(**QUIET_OVERFLOW):
            if len(view) >= features.AR_ORDER + 2 and view.strides[0] > 0:
                assert ar_coefficients(view).tobytes() == loop_ar_coefficients(view).tobytes()
            if len(view) >= 4:
                assert slope_sign_changes(view) == loop_slope_sign_changes(view)


@pytest.fixture(scope="module")
def six_class_data():
    sset = synth_signalset(6, records_per_class=8, num_channels=1, samples=128, noise=2.0, seed=5)
    return feature_matrix(sset)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_memoized_fits_equal_fresh_fits(six_class_data, algorithm):
    X, y = six_class_data
    structure = load_structure(SIX_CLASS_JSON)
    spec = ClassifierSpec(algorithm=algorithm, num_trees=3, seed=2)
    memo: dict = {}
    plain = train_plain(X, y, spec, 0.5, memo=memo)
    for binding in feasible_set(structure):
        shared = train_ensemble(structure, binding, X, y, spec, 0.5, memo=memo)
        fresh = train_ensemble(structure, binding, X, y, spec, 0.5)
        assert shared == fresh and box_fits(shared) == box_fits(fresh)
    # the root box holds every class, so it is the plain model's box problem
    assert box_fits(plain) == {ROOT: box_fits(fresh)[ROOT]}
    assert len(memo) < len(feasible_set(structure)) * structure.num_boxes


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_train_plain_is_the_root_box_fit(six_class_data, algorithm):
    """The plain machine is one box that keeps every class, fitted as the root box is."""
    X, y = six_class_data
    structure = load_structure(SIX_CLASS_JSON)
    spec = ClassifierSpec(algorithm=algorithm, num_trees=3, seed=2)
    plain = train_plain(X, y, spec, 0.5)
    ensemble = train_ensemble(structure, feasible_set(structure)[0], X, y, spec, 0.5)
    assert box_fits(plain) == {ROOT: box_fits(ensemble)[ROOT]}
    assert plain.structure.root == BoxNode(ROOT, None, tuple(range(1, 7)))
    assert plain.binding == Binding(tuple(range(1, 7)))
    assert in_order(plain.transitions) == in_order({ROOT: {c: (c, ROOT) for c in range(1, 7)}})


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_plain_sequences_equal_per_object_predict(six_class_data, algorithm):
    """evaluate_sequence on the plain machine is the old per-object predict loop."""
    X, y = six_class_data
    spec = ClassifierSpec(algorithm=algorithm, num_trees=3, seed=1)
    train_idx, test_idx = np.arange(0, len(y), 2), np.arange(1, len(y), 2)
    plain = train_plain(X[train_idx], y[train_idx], spec)
    mask, model = plain.fits[ROOT]
    rng = np.random.default_rng(6)
    misses = 0
    for _ in range(30):
        objects = [X[i] for i in rng.choice(test_idx, size=5)]
        truth = [int(c) for c in rng.integers(1, 7, size=5)]
        loop = tuple(
            predict(model, np.asarray(x)[list(mask.selected)]) == t for x, t in zip(objects, truth)
        )
        assert evaluate_sequence(plain, objects, truth) == scored_pair(loop)
        misses += not all(loop)
    assert misses


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_table_walk_equals_step_by_step(six_class_data, algorithm):
    X, y = six_class_data
    structure = structure_file("six_class")
    spec = ClassifierSpec(algorithm=algorithm, num_trees=3, seed=1)
    train_idx, test_idx = np.arange(0, len(y), 2), np.arange(1, len(y), 2)
    pools = _class_pools(y[test_idx])
    sequences = generate_movement_sequences(structure)
    for binding in feasible_set(structure)[:3]:
        systems = (
            train_ensemble(structure, binding, X[train_idx], y[train_idx], spec),
            train_plain(X[train_idx], y[train_idx], spec),
        )
        class_sequences = [sequence_to_classes(seq, structure, binding) for seq in sequences]
        for system in systems:
            fast = _evaluate_system(
                system, class_sequences, X[test_idx], pools, 6, np.random.default_rng(4), {}
            )
            rng = np.random.default_rng(4)
            slow = []
            for seq in generate_movement_sequences(structure):
                classes = sequence_to_classes(seq, structure, binding)
                for objects in loop_sample_object_sequences(classes, pools, 6, rng):
                    vectors = [X[test_idx][p] for p in objects]
                    slow.append(evaluate_sequence(system, vectors, classes))
            assert fast == slow
            assert any(miss for miss, _ in slow)


def structure_files():
    """Every committed structure file (the constraint table is not one)."""
    return [p for p in sorted(STRUCTURES.glob("*.json")) if "boxes" in p.read_text()]


def root_to_box_paths(structure):
    """(box, stack of boxes from the root down to it) for every box."""
    out = []

    def visit(path):
        out.append((path[-1], path))
        for child in path[-1].children:
            visit(path + [child])

    visit([structure.root])
    return out


def stack_transition(binding, stack, j):
    """The box-stack machine the transition tables replaced (the oracle).

    Interprets class j in the box on top of the stack, pushes or pops, and
    returns the movement.
    """
    box = stack[-1]
    if not box.is_root and binding.class_of_movement(box.opener) == j:
        stack.pop()
        return box.opener
    for m in box.member_movements():
        if binding.class_of_movement(m) == j:
            for child in box.children:
                if child.opener == m:
                    stack.append(child)
                    return m
            return m
    raise DuplicateClassInBox(f"box {box.index}: predicted class {j} has no interpretation")


@pytest.mark.parametrize("path", structure_files(), ids=lambda p: p.stem)
def test_transition_table_equals_transition(path):
    """Every feasible binding, every box, every local class: next box and movement."""
    structure = load_structure(path)
    paths = root_to_box_paths(structure)
    for binding in feasible_set(structure):
        table = machine(structure, binding)
        assert structure.root.index == ROOT
        assert list(table) == [box.index for box, _ in paths]
        for box, stack in paths:
            classes = local_classes(binding, box)
            assert tuple(table[box.index]) == classes
            for j in classes:
                after = list(stack)
                movement = stack_transition(binding, after, j)
                assert table[box.index][j] == (movement, after[-1].index)


def recursive_transitions(structure, binding):
    """The recursive visitor that built ContextEnsemble.transitions before BoxNode.paths (the
    oracle), its next-box and meaning tables merged into one {box: {class: (movement, next
    box)}} table with their insertion order."""
    class_of = binding.class_of_movement
    table = {}

    def visit(box, parent):
        row = table[box.index] = {}
        if parent is not None:
            row[class_of(box.opener)] = (box.opener, parent)
        opened = {}
        for child in box.children:
            opened.setdefault(child.opener, child.index)
        for m in box.member_movements():
            j = class_of(m)
            if j not in row:
                row[j] = (m, opened.get(m, box.index))
        for child in box.children:
            visit(child, box.index)

    visit(structure.root, None)
    return table


def recursive_describe(structure, binding):
    """The recursive visitor that rendered ContextEnsemble.describe before BoxNode.paths (the oracle)."""
    lines = []

    def emit(box, depth):
        indent = "  " * depth
        if box.is_root:
            lines.append(f"{indent}box 0 (initial)")
        else:
            j = binding.class_of_movement(box.opener)
            name = structure.movement_name(box.opener)
            lines.append(f"{indent}box {box.index} (opened/closed by {name}, class {j})")
        lines.append(f"{indent}  Movement      Class")
        for m in box.member_movements():
            name = structure.movement_name(m)
            mark = " (+)" if any(c.opener == m for c in box.children) else ""
            lines.append(f"{indent}  {name:<12}  {binding.class_of_movement(m)}{mark}")
        if not box.is_root:
            name = structure.movement_name(box.opener)
            lines.append(f"{indent}  {name:<12}  {binding.class_of_movement(box.opener)} (-)")
        for c in box.children:
            emit(c, depth + 1)

    emit(structure.root, 0)
    return "\n".join(lines)


def recursive_movement_sequences(structure):
    """The recursive visitor that built generate_movement_sequences before BoxNode.paths (the oracle)."""
    root = structure.root
    if not root.children:
        return [root.member_movements()]
    sequences = []

    def descend(box, prefix_moves, prefix_path):
        moves = list(prefix_moves)
        path = prefix_path + [box]
        if not box.is_root:
            moves.append(box.opener)
            moves.extend(box.internal_movements)
        if box.children:
            for child in box.children:
                descend(child, moves, path)
        else:
            moves.extend(b.opener for b in reversed(path) if not b.is_root)
            sequences.append(tuple(moves))

    descend(root, [], [])
    return sequences


def in_order(tables):
    """A {box: {class: value}} table as nested item lists, so == also compares dict order."""
    return [(box, list(row.items())) for box, row in tables.items()]


def mirrored(name):
    """A committed structure with its non-root box ids reversed (id k -> top + 1 - k).

    Children are built in id order, so every box lists its children the other way
    round: the same boxes and movements, walked in mirror order.
    """
    doc = structure_to_dict(structure_file(name))
    top = max(b["id"] for b in doc["boxes"])
    new_id = {b["id"]: b["id"] if b["id"] == ROOT else top + 1 - b["id"] for b in doc["boxes"]}
    for b in doc["boxes"]:
        b["id"] = new_id[b["id"]]
        b["parent"] = None if b["parent"] is None else new_id[b["parent"]]
    return structure_from_dict(doc)


MIRRORED_CASES = [
    ("five", mirrored("five_class")),
    ("six", mirrored("six_class")),
    ("grips", mirrored("eight_class_grips")),
]

TREE_CASES = (
    [(p.stem, load_structure(p)) for p in structure_files()]
    + MIRRORED_CASES
    + [(f"flat{c}", flat_structure(c)) for c in range(2, 9)]
    + [("chain100", structure_from_dict(chain_doc(100)))]
)


@pytest.mark.parametrize("structure", [s for _, s in TREE_CASES], ids=[n for n, _ in TREE_CASES])
def test_box_paths_equal_the_recursive_visitors(structure):
    """paths() and the three loops over it against the recursions they replaced.

    Transitions are compared with their dict order; describe() as text; the
    first 50 feasible bindings of each structure.
    """
    root = structure.root
    assert [(p[-1], list(p)) for p in root.paths()] == root_to_box_paths(structure)
    assert list(root.walk()) == [box for box, _ in root_to_box_paths(structure)]
    assert generate_movement_sequences(structure) == recursive_movement_sequences(structure)
    for binding in feasible_set(structure)[:50]:
        ensemble = ContextEnsemble(structure, binding, {}, machine(structure, binding))
        expected = recursive_transitions(structure, binding)
        assert in_order(ensemble.transitions) == in_order(expected)
        assert ensemble.describe() == recursive_describe(structure, binding)


@pytest.mark.parametrize(
    "root, refusal",
    [
        (
            BoxNode(ROOT, None, (1, 2), (BoxNode(1, 3, (4,)), BoxNode(2, 3, (5,)))),
            "box 0: duplicate classes [1, 2, 3, 3]",
        ),
        (
            BoxNode(ROOT, None, (1,), (BoxNode(1, 2, (4,)), BoxNode(2, 3, (5, 6)))),
            "box 2: duplicate classes [3, 2, 3]",
        ),
    ],
    ids=["two-children-one-opener", "member-on-the-closer-class"],
)
def test_box_paths_refuse_a_repeated_class_in_a_box(root, refusal):
    """A box whose slots repeat a class under the binding has no machine: machine() raises
    from local_classes, where the recursive visitor let the first child or the closer win.
    Movement 3 opens two children of the root, which validate_structure refuses; or movement
    6 is bound to class 3, box 2's closer, which train_ensemble refuses. The movement
    sequences do not read classes per slot, and still equal their recursive oracle."""
    structure = ContextStructure(3, tuple(Movement(m) for m in range(1, 7)), root)
    binding = Binding((1, 2, 3))
    with pytest.raises(DuplicateClassInBox, match=f"^{re.escape(refusal)}$"):
        machine(structure, binding)
    if refusal.startswith("box 0"):
        assert "box 0 lists a movement twice" in validate_structure(structure)
    else:
        assert validate_structure(structure) == []
        with pytest.raises(DuplicateClassInBox, match="^binding is infeasible for this structure$"):
            train_ensemble(structure, binding, np.zeros((3, 1)), [1, 2, 3], ClassifierSpec())
    assert generate_movement_sequences(structure) == recursive_movement_sequences(structure)


def recursive_enumerate(num_classes, permitted, groups):
    """The recursive enumerator, group loop included, that the ordered loop replaced (the oracle)."""
    C = num_classes
    groups_touching = {k: [g for g in groups if k in g] for k in range(1, C + 1)}
    out = []
    assignment = [0] * (C + 1)  # 1-based
    used = [False] * (C + 1)

    def extend(k):
        if k > C:
            out.append(tuple(assignment[1:]))
            return
        for c in permitted[k]:
            if used[c]:
                continue
            ok = True
            for g in groups_touching[k]:
                for other in g:
                    if other != k and assignment[other] == c:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            assignment[k] = c
            used[c] = True
            extend(k + 1)
            used[c] = False
            assignment[k] = 0

    extend(1)
    return out


def box_constraints(structure):
    """(permitted, groups) as derive_constraints built them with the per-box groups."""
    C = structure.num_classes
    permitted = {k: set(range(1, C + 1)) for k in range(1, C + 1)}
    groups = []
    for box in structure.root.walk():
        slot_movements = list(box.member_movements())
        if not box.is_root:
            slot_movements.append(box.opener)
        fixed = {m for m in slot_movements if m <= C}
        secondary = sorted({m - C for m in slot_movements if m > C})
        for k in secondary:
            permitted[k] -= fixed
        if len(secondary) > 1:
            groups.append(tuple(secondary))
    return {k: tuple(sorted(v)) for k, v in permitted.items()}, groups


@st.composite
def permitted_tables(draw):
    """A permitted table for C = 1..7 (class lists empty to full, in any order) and box groups."""
    C = draw(st.integers(1, 7))
    classes = st.integers(1, C)
    permitted = {k: tuple(draw(st.lists(classes, unique=True))) for k in range(1, C + 1)}
    groups = draw(st.lists(st.lists(classes, min_size=min(2, C), unique=True), max_size=4))
    return C, permitted, [tuple(g) for g in groups]


@settings(max_examples=300, deadline=None)
@given(permitted_tables())
def test_ordered_loop_equals_recursive_enumerator_on_any_table(problem):
    C, permitted, groups = problem
    got = [b.secondary for b in enumerate_feasible(permitted)]
    assert got == recursive_enumerate(C, permitted, groups)


@pytest.mark.parametrize(
    "structure",
    [load_structure(p) for p in structure_files()]
    + [s for _, s in MIRRORED_CASES]
    + [flat_structure(c) for c in range(2, 9)],
    ids=[p.stem for p in structure_files()]
    + [n for n, _ in MIRRORED_CASES]
    + [f"flat{c}" for c in range(2, 9)],
)
def test_ordered_loop_equals_recursive_enumerator_on_structures(structure):
    permitted, groups = box_constraints(structure)
    table = derive_constraints(structure)
    assert table == permitted
    got = [b.secondary for b in enumerate_feasible(table)]
    assert got == recursive_enumerate(structure.num_classes, permitted, groups)
    assert got == sorted(got)


def test_ordered_loop_equals_recursive_enumerator_on_the_table_file():
    raw = json.loads((STRUCTURES / "unconstrained_c5_table.json").read_text())
    permitted = {int(k): tuple(v) for k, v in raw["permitted"].items()}
    got = [b.secondary for b in enumerate_feasible(permitted)]
    assert got == recursive_enumerate(raw["num_classes"], permitted, []) == list(
        itertools.permutations(range(1, 6))
    )


@pytest.mark.parametrize(
    "structure", [structure_file("five_class"), structure_file("six_class")], ids=["five", "six"]
)
def test_step_equals_stack_walk(structure):
    """Random class streams through step and through the stack oracle, every feasible binding.

    The ensemble is perfect (feature value == class), so each class drawn
    from the current box's own classes is the one step predicts.
    """
    rng = np.random.default_rng(12)
    for binding in feasible_set(structure):
        ensemble = perfect_ensemble(structure, binding)
        state, stack = initial_state(ensemble), [structure.root]
        for _ in range(60):
            classes = local_classes(binding, stack[-1])
            j = classes[rng.integers(len(classes))]
            predicted, movement, state = step(ensemble, state, obj(j))
            assert (predicted, movement) == (j, stack_transition(binding, stack, j))
            assert state.box == stack[-1].index
        reset(state)
        assert state.box == ROOT


def test_step_rejects_a_class_with_no_meaning():
    structure = structure_file("six_class")
    ensemble = perfect_ensemble(structure)
    box = min(structure.root.walk(), key=lambda b: len(b.slots()))  # box 2 holds three classes
    inside = local_classes(ensemble.binding, box)
    outside = next(c for c in range(1, 7) if c not in inside)
    ensemble.fits[box.index] = ensemble.fits[0]
    state = initial_state(ensemble)
    state.box = box.index
    message = f"^box {box.index}: predicted class {outside} has no interpretation$"
    with pytest.raises(DuplicateClassInBox, match=message):
        step(ensemble, state, obj(outside))
    assert state.box == box.index


def walk_tables(transitions, tables, rows, box):
    """Predicted classes of a whole sequence of table rows, starting in box ``box``: the
    full walk that first_miss replaced, which goes on past the first miss (the oracle)."""
    out = []
    for r in rows:
        j = tables[box][r]
        try:
            box = transitions[box][j][1]
        except KeyError:
            raise DuplicateClassInBox(f"box {box}: predicted class {j} has no interpretation")
        out.append(j)
    return out


def loop_zo(outcomes):
    """ZO over per-position hit flags as it was computed before the (first miss, length)
    pairs (the oracle)."""
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("no outcomes")
    return sum(1.0 for hits in outcomes if all(hits)) / len(outcomes)


def loop_sqcov(outcomes):
    """SqCov over per-position hit flags as it was computed before the pairs (the oracle)."""
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("no outcomes")
    total = 0.0
    for hits in outcomes:
        if all(hits):
            total += 1.0
        else:
            total += hits.index(False) / len(hits)
    return total / len(outcomes)


def missing_tables(structure, binding, classes, misses):
    """Prediction tables over rows 0..len(classes)-1 that give each row its true class in
    every box that holds it, unless the row is in ``misses``; every other prediction is
    another class of the box, so a walk never leaves the machine."""
    tables = {}
    for box, local in machine(structure, binding).items():
        tables[box] = [
            c if c in local and i not in misses else next(k for k in local if k != c)
            for i, c in enumerate(classes)
        ]
    return tables


@pytest.mark.parametrize("path", structure_files(), ids=lambda p: p.stem)
def test_first_miss_equals_the_first_mismatch_of_the_full_walk(path):
    """Every committed structure, its first 20 feasible bindings, every movement sequence:
    no miss, a miss at the first or the last position, and random misses."""
    structure = load_structure(path)
    rng = np.random.default_rng(7)
    seen = set()
    for binding in feasible_set(structure)[:20]:
        transitions = machine(structure, binding)
        for seq in generate_movement_sequences(structure):
            classes = sequence_to_classes(seq, structure, binding)
            n = len(classes)
            cases = [set(), {0}, {n - 1}] + [
                set(np.flatnonzero(rng.random(n) < 0.3).tolist()) for _ in range(5)
            ]
            for misses in cases:
                tables = missing_tables(structure, binding, classes, misses)
                rows = list(range(n))
                walked = walk_tables(transitions, tables, rows, ROOT)
                expected = next((i + 1 for i in range(n) if walked[i] != classes[i]), 0)
                assert first_miss(transitions, tables, rows, classes) == expected
                seen.add(expected if expected in (0, 1) else "last" if expected == n else "mid")
    assert {0, 1, "last"} <= seen


def test_scored_reductions_equal_the_outcome_metrics():
    """ZO and SqCov of (first miss, length) pairs against the loops over hit flags they
    replaced, down to the last bit."""
    rng = np.random.default_rng(11)
    for _ in range(300):
        outcomes = [
            tuple(rng.random(int(rng.integers(0, 12))) < 0.8)
            for _ in range(int(rng.integers(1, 40)))
        ]
        scored = [scored_pair(hits) for hits in outcomes]
        zo, sqcov = loop_zo(outcomes).hex(), loop_sqcov(outcomes).hex()
        assert _zo(scored).hex() == zo
        assert _sqcov(scored).hex() == sqcov
    empty = [()]
    assert _zo([(0, 0)]) == _sqcov([(0, 0)]) == loop_zo(empty) == loop_sqcov(empty) == 1.0
    for reduce in (loop_zo, loop_sqcov):  # run_experiment passes G * R >= 1 pairs to _zo, _sqcov
        with pytest.raises(ValueError, match="^no outcomes$"):
            reduce([])


def test_one_machine_per_structure_and_binding():
    """Two ensembles of one binding (and the plain root, from equal structures) share one
    cache entry; a binding outside the feasible set is refused on every call."""
    X, y = np.arange(24, dtype=np.float64)[:, None], np.tile(np.arange(1, 7), 4)
    spec = ClassifierSpec(algorithm="GaussianNB")
    structure, twin = load_structure(SIX_CLASS_JSON), load_structure(SIX_CLASS_JSON)
    binding = feasible_set(structure)[3]
    first = train_ensemble(structure, binding, X, y, spec, 1.0)
    second = train_ensemble(twin, binding, X, y, spec, 1.0)
    assert machine(structure, binding) is machine(twin, binding)
    assert first.transitions is second.transitions is machine(structure, binding)
    assert train_plain(X, y, spec).transitions is train_plain(X, y, spec).transitions
    assert list(machine(structure, binding)) == [b.index for b in structure.root.walk()]

    infeasible = Binding(tuple(range(1, 7)))
    assert infeasible not in feasible_set(structure)
    before = machine.cache_info()
    for _ in range(2):
        with pytest.raises(DuplicateClassInBox, match="^box "):
            machine(structure, infeasible)
        with pytest.raises(DuplicateClassInBox, match="^binding is infeasible for this structure$"):
            train_ensemble(structure, infeasible, X, y, spec, 1.0)
    after = machine.cache_info()
    assert (after.hits, after.misses - before.misses) == (before.hits, 4)


def test_step_reads_the_machine_once_per_ensemble():
    """The ensemble is built with its machine's tables: 50 windows make no machine lookup."""
    structure = structure_file("six_class")
    ensemble = perfect_ensemble(structure)
    calls = []

    def spy(*args):
        calls.append(args)
        return machine(*args)

    state = initial_state(ensemble)
    with mock.patch.object(runtime, "machine", spy):
        for _ in range(50):
            j = local_classes(ensemble.binding, structure.root)[-1]
            step(ensemble, reset(state), obj(j))
    assert calls == []


def test_table_walk_rejects_a_class_with_no_meaning():
    structure = structure_file("six_class")
    transitions = machine(structure, feasible_set(structure)[0])
    message = f"^box {ROOT}: predicted class 99 has no interpretation$"
    with pytest.raises(DuplicateClassInBox, match=message):
        walk_tables(transitions, {ROOT: [99]}, [0], ROOT)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_shared_prediction_cache_equals_no_cache(six_class_data, algorithm):
    """One cache over every feasible binding, as one inner split or one outer fold shares it,
    against a fresh cache per call."""
    X, y = six_class_data
    structure = structure_file("six_class")
    spec = ClassifierSpec(algorithm=algorithm, num_trees=3, seed=1)
    train_idx, test_idx = np.arange(0, len(y), 2), np.arange(1, len(y), 2)
    pools = _class_pools(y[test_idx])
    memo: dict = {}
    cache: dict = {}
    bindings = feasible_set(structure)
    sequences = generate_movement_sequences(structure)
    plain = train_plain(X[train_idx], y[train_idx], spec, memo=memo)
    systems = [(plain, bindings[0])] + [
        (train_ensemble(structure, b, X[train_idx], y[train_idx], spec, memo=memo), b)
        for b in bindings
    ]
    for system, binding in systems:
        classes = [sequence_to_classes(seq, structure, binding) for seq in sequences]
        shared = _evaluate_system(
            system, classes, X[test_idx], pools, 4, np.random.default_rng(9), cache
        )
        alone = _evaluate_system(
            system, classes, X[test_idx], pools, 4, np.random.default_rng(9), {}
        )
        assert shared == alone
    assert len(cache) == len(memo) < len(bindings) * structure.num_boxes


def row_indexed_tables(system, X, rows, cache):
    """The prediction tables indexed by row of the whole X, 0 at unlisted rows, that the
    held-out block's tables replaced (the oracle)."""
    rows = np.asarray(rows, dtype=np.int64)
    tables = {}
    for i, (mask, model) in system.fits.items():
        if model.classes not in cache:
            table = np.zeros(len(X), dtype=np.int64)
            table[rows] = predict(model, mask.apply(X[rows]))
            cache[model.classes] = table.tolist()
        tables[i] = cache[model.classes]
    return tables


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_held_out_tables_equal_the_row_indexed_tables(six_class_data, algorithm):
    """Every feasible binding of six_class.json and the plain model, one cache per side as a
    fold shares it: each box's table of the held-out block is the oracle's table at the
    held-out rows, which it predicted in class-pool order."""
    X, y = six_class_data
    structure = load_structure(SIX_CLASS_JSON)
    spec = ClassifierSpec(algorithm=algorithm, num_trees=3, seed=1)
    train_idx, test_idx = np.arange(0, len(y), 2), np.arange(1, len(y), 2)
    rows = [i for c in dict.fromkeys(y[test_idx].tolist()) for i in test_idx if y[i] == c]
    memo: dict = {}
    cache: dict = {}
    oracle_cache: dict = {}
    systems = [train_plain(X[train_idx], y[train_idx], spec, memo=memo)] + [
        train_ensemble(structure, b, X[train_idx], y[train_idx], spec, memo=memo)
        for b in feasible_set(structure)
    ]
    for system in systems:
        tables = runtime.predict_tables(system, X[test_idx], cache)
        oracle = row_indexed_tables(system, X, rows, oracle_cache)
        assert tables.keys() == oracle.keys() == system.fits.keys()
        for box, table in tables.items():
            assert table == [oracle[box][r] for r in test_idx]
    assert len(cache) == len(oracle_cache) == len(memo)


def loop_sample_object_sequences(class_seq, test_pool, R, rng):
    """One rng.integers call per position: the draws the single block call replaced (the oracle)."""
    for c in class_seq:
        if not test_pool.get(c):
            raise CtxclfError(f"test pool has no objects of class {c}")
    out = []
    for _ in range(R):
        out.append([test_pool[c][int(rng.integers(0, len(test_pool[c])))] for c in class_seq])
    return out


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 25),
    st.lists(st.integers(1, 60), min_size=1, max_size=12),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0, 1, 3]),
)
def test_block_draw_equals_per_position_draws(R, pool_sizes, length, seed, earlier):
    """Same objects and same generator state after, also with a 32-bit half-word buffered."""
    rng = np.random.default_rng(seed)
    pools = {c + 1: [100 * (c + 1) + i for i in range(n)] for c, n in enumerate(pool_sizes)}
    class_seq = tuple(int(c) for c in rng.integers(1, len(pools) + 1, length))
    fast_rng, slow_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    for g in (fast_rng, slow_rng):
        g.integers(0, 1000, size=earlier, dtype=np.int32)  # an odd count leaves a half-word
    fast = sample_object_sequences(class_seq, pools, R, fast_rng)
    assert fast == loop_sample_object_sequences(class_seq, pools, R, slow_rng)
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
    assert fast_rng.integers(0, 2**40) == slow_rng.integers(0, 2**40)


def fold_plan_assignments(sset, k, seed):
    """The record id -> fold map of the FoldPlan that the fold-id array replaced (the oracle)."""
    rng = derive_rng(seed, "stratified_folds", k)
    assignments = {}
    for cls in range(1, sset.num_classes + 1):
        ids = sorted(r.record_id for r in sset.records if r.class_label == cls)
        order = rng.permutation(len(ids))
        for pos, idx in enumerate(order):
            assignments[ids[idx]] = pos % k
    return assignments


def fold_plan_split(assignments, sset, fold):
    train, test = [], []
    for i, r in enumerate(sset.records):
        (test if assignments[r.record_id] == fold else train).append(i)
    return train, test


def loop_stratified_assignments(labels, k, seed):
    """The inner-fold assignment that the fold-id array replaced (the oracle)."""
    rng = derive_rng(seed, "stratified_assignments", k)
    out = np.empty(len(labels), dtype=np.int64)
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        order = rng.permutation(len(idx))
        for pos, o in enumerate(order):
            out[idx[o]] = pos % k
    return out


@st.composite
def shuffled_signalsets(draw):
    """Records in shuffled class order, with more than 10 per class and ids out of row order.

    Ids are unpadded numbers, so "r10" sorts before "r9": row order, numeric
    order and id order all differ.
    """
    C = draw(st.integers(2, 4))
    per_class = draw(st.lists(st.integers(11, 16), min_size=C, max_size=C))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.permutation(np.repeat(np.arange(1, C + 1), per_class))
    ids = rng.permutation(len(labels))
    records = tuple(
        SignalRecord(f"r{j}", np.zeros((1, 16)), 1000, int(c)) for j, c in zip(ids, labels)
    )
    return SignalSet(records)


@settings(max_examples=60, deadline=None)
@given(shuffled_signalsets(), st.integers(2, 5), st.integers(2, 4), st.integers(0, 2**63 - 1))
def test_fold_ids_equal_fold_plan_and_assignments(sset, cv_folds, inner_folds, master_seed):
    """The outer and inner folds of run_experiment, as FoldPlan and the assignments made them.

    Every fold's held-out rows are read from the pools _splits yields to
    run_experiment and search_binding: the feature matrix is one column of row
    numbers, so a position in an inner held-out block maps through the outer
    training rows back to its record. Models and outcomes are stubbed out, as
    they do not touch the folds.
    """
    pooled = []
    splits = evaluation._splits

    def spy_splits(X, y, order, k, rng):
        for split in splits(X, y, order, k, rng):
            X_te, pools = split[2], split[3]
            rows = {c: [int(X_te[p, 0]) for p in pool] for c, pool in pools.items()}
            assert all(labels[r] == c for c, pool in rows.items() for r in pool)
            pooled.append(sorted(r for pool in rows.values() for r in pool))
            yield split

    config = RunConfig(
        signalset=sset,
        structure=flat_structure(sset.num_classes),
        classifier_specs=(ClassifierSpec(algorithm="GaussianNB"),),
        methods=("plain", "octx"),
        cv_folds=cv_folds,
        inner_folds=inner_folds,
        master_seed=master_seed,
    )
    labels = sset.labels()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluation, "_splits", spy_splits)
        mp.setattr(
            evaluation,
            "feature_matrix",
            lambda s: (np.arange(len(s.records), dtype=np.float64)[:, None], s.labels()),
        )
        mp.setattr(evaluation, "train_plain", lambda *args, **kwargs: None)
        mp.setattr(evaluation, "train_ensemble", lambda *args, **kwargs: None)
        mp.setattr(evaluation, "_evaluate_system", lambda *args: [(0, 1)])
        run_experiment(config)

    assignments = fold_plan_assignments(sset, cv_folds, derive_seed(master_seed, "outer"))
    expected = []
    for fold in range(cv_folds):
        train, test = fold_plan_split(assignments, sset, fold)
        expected.append(test)
        inner_seed = derive_seed(master_seed, "inner", fold, "GaussianNB")
        inner = loop_stratified_assignments(labels[train], inner_folds, inner_seed)
        for f in range(inner_folds):
            expected.append([train[i] for i in range(len(train)) if inner[i] == f])
    assert pooled == expected


def loop_read_csv_rows(path, num_channels):
    """The csv-module record reader that np.loadtxt replaced, as it was (oracle)."""

    def bad_value(row, column, value):
        return SignalsetError(
            f"record {path.stem}: row {row}, column {column}: expected a finite number, got {value}"
        )

    def is_number(text):
        try:
            float(text)
        except ValueError:
            return False
        return True

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) != num_channels:
            raise SignalsetError(
                f"record {path.stem}: {0 if header is None else len(header)} columns, "
                f"expected {num_channels}"
            )
        data = []
        for row in reader:
            if len(row) != num_channels:
                raise SignalsetError(f"record {path.stem}: ragged row with {len(row)} columns")
            try:
                data.append([float(v) for v in row])
            except ValueError:
                col = next(j for j, v in enumerate(row) if not is_number(v))
                raise bad_value(len(data) + 1, header[col], repr(row[col])) from None
    values = np.asarray(data, dtype=np.float64).reshape(len(data), num_channels)
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        i, col = bad[0]
        raise bad_value(i + 1, header[col], float(values[i, col]))
    return values


ODD_CELLS = (
    "nan", "inf", "-inf", "Infinity", "1e400", "-1e400", "1e-400", "5e-324", "-0.0", "1_0",
    "", " ", '"1.5"', '"2', "abc", "0x1p3", "1,5", "١", "１", "+.5", "1.",
)


@st.composite
def record_texts(draw):
    """(text, num_channels) of a record CSV: mostly valid rows, some faults."""
    num_channels = draw(st.integers(1, 3))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    cell = st.one_of(
        finite.map(repr),
        finite.map(lambda v: "%.17g" % v),
        finite.map(lambda v: f" {v!r} "),
        st.sampled_from(ODD_CELLS),
    )
    width = st.integers(0, num_channels + 1) if draw(st.booleans()) else st.just(num_channels)
    header = [f"c{i + 1}" for i in range(draw(width))]
    lines = [",".join(header)]
    valid = finite.map(repr)

    def row(cells, n=num_channels):
        return ",".join(draw(st.lists(cells, min_size=n, max_size=n)))

    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["valid"] * 6 + ["cells", "blank", "spaces", "ragged"]))
        if kind == "valid":
            lines.append(row(valid))
        elif kind == "cells":
            lines.append(row(cell))
        elif kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(draw(st.sampled_from([" ", "\t", "  "])))
        else:
            n = draw(st.integers(1, num_channels + 2).filter(lambda k: k != num_channels))
            lines.append(row(valid, n))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    return text, num_channels


def read_outcome(read, path, num_channels):
    try:
        return read(path, num_channels)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(record_texts())
def test_loadtxt_reader_equals_csv_loop(record):
    text, num_channels = record
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "r_1.csv"
        path.write_bytes(text.encode())
        want = read_outcome(loop_read_csv_rows, path, num_channels)
        got = read_outcome(signals._read_csv_rows, path, num_channels)
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), got
        assert (got.dtype, got.shape, got.strides) == (want.dtype, want.shape, want.strides)
        assert got.tobytes() == want.tobytes()
    else:
        assert not isinstance(got, np.ndarray) and got == want, got


@pytest.mark.parametrize("at, where", [(0, "header"), (2, "row 2")])
def test_long_field_is_a_signalset_error(tmp_path, at, where):
    lines = ["c1", "1.0", "2.0"]
    lines[at] = "1" * (csv.field_size_limit() + 1)
    path = tmp_path / "r_1.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(csv.Error):
        loop_read_csv_rows(path, 1)
    with pytest.raises(SignalsetError, match=f"^record r_1: {where}: field larger than field limit"):
        signals._read_csv_rows(path, 1)


def old_save_records(sset, root):
    """The per-scalar record writer of save_signalset, as it was (oracle)."""
    header = ",".join(f"c{i + 1}" for i in range(sset.num_channels))
    for r in sset.records:
        lines = [header]
        for row in r.channels.T:
            lines.append(",".join(repr(float(v)) for v in row))
        (root / f"{r.record_id}_{r.class_label}.csv").write_text("\n".join(lines) + "\n")


@pytest.fixture()
def odd_valued_signalset():
    """A synth signalset whose first record holds -0.0, subnormals and +-1e308."""
    sset = synth_signalset(3, records_per_class=2, num_channels=2, samples=32, seed=5)
    channels = sset.records[0].channels.copy()
    channels[:, :6] = [[-0.0, 5e-324, 1e308, -1e308, 2.2250738585072014e-308, 1 / 3]] * 2
    first = SignalRecord("odd", channels, sset.sample_rate_hz, sset.records[0].class_label)
    return SignalSet((first,) + sset.records[1:])


def test_save_signalset_bytes_equal_per_scalar_writer(tmp_path, odd_valued_signalset):
    save_signalset(odd_valued_signalset, tmp_path / "new")
    (tmp_path / "old").mkdir()
    old_save_records(odd_valued_signalset, tmp_path / "old")
    new_files = sorted((tmp_path / "new" / "records").iterdir())
    assert [p.name for p in new_files] == sorted(p.name for p in (tmp_path / "old").iterdir())
    for p in new_files:
        assert p.read_bytes() == (tmp_path / "old" / p.name).read_bytes(), p.name


def test_saved_signalset_loads_without_the_csv_loop(tmp_path, monkeypatch, odd_valued_signalset):
    save_signalset(odd_valued_signalset, tmp_path / "s")

    def no_loop(path, num_channels):
        raise AssertionError(f"{path.name} went through the csv loop")

    monkeypatch.setattr(signals, "_read_csv_loop", no_loop)
    back = {r.record_id: r.channels for r in load_signalset(tmp_path / "s").records}
    for r in odd_valued_signalset.records:
        assert back[f"{r.record_id}_{r.class_label}"].tobytes() == r.channels.tobytes()


def test_run_experiment_golden_digest():
    """sha256 of metrics.csv for a tiny run over all classifiers and methods.

    Recorded before the box-fit memo, one-pass MI and table-driven
    evaluation were added; any change to a mask, a model or an outcome
    changes it.
    """
    config = RunConfig(
        signalset=synth_signalset(
            6, records_per_class=6, num_channels=1, samples=128, noise=2.0, seed=11
        ),
        structure=structure_file("six_class"),
        classifier_specs=(
            ClassifierSpec(algorithm="NearestNeighbor"),
            ClassifierSpec(algorithm="GaussianNB"),
            ClassifierSpec(algorithm="RandomForest", num_trees=3, seed=4),
        ),
        cv_folds=2,
        inner_folds=2,
        repetitions=3,
        inner_repetitions=2,
        master_seed=7,
    )
    csv = run_experiment(config).to_csv()
    assert (
        hashlib.sha256(csv.encode()).hexdigest()
        == "a3da7671b0510dede5ffd3b314ac05ac5bb5b9a65db125c922e7597fb449b1fd"
    )


def test_run_experiment_ea_path_golden_digest():
    """sha256 of metrics.csv and of the EA traces for a tiny run on the EA path.

    exhaustive_limit is below the 8 feasible bindings, so every OCtx
    binding comes from ea_search. Recorded before the block sequence
    evaluation (one draw call per sequence, shared prediction tables,
    precomputed box transitions) was added.
    """
    config = RunConfig(
        signalset=synth_signalset(
            6, records_per_class=8, num_channels=1, samples=128, noise=1.5, seed=13
        ),
        structure=structure_file("six_class"),
        classifier_specs=(
            ClassifierSpec(algorithm="GaussianNB"),
            ClassifierSpec(algorithm="RandomForest", num_trees=3, seed=2),
        ),
        cv_folds=2,
        inner_folds=2,
        repetitions=3,
        inner_repetitions=4,
        ea_params=EAParams(population_size=5, max_generations=3, stagnation_horizon=2),
        exhaustive_limit=4,
        master_seed=5,
    )
    table = run_experiment(config)
    assert sorted(table.optimizer_traces) == [
        ("GaussianNB", 0), ("GaussianNB", 1), ("RandomForest", 0), ("RandomForest", 1)
    ]
    traces = "".join(
        f"{alg} fold {fold}\n{trace_to_csv(table.optimizer_traces[(alg, fold)])}"
        for alg, fold in sorted(table.optimizer_traces)
    )
    assert (
        hashlib.sha256(table.to_csv().encode()).hexdigest()
        == "aa511c59621a992a7cbd16fddaa7906bf9996a23cad81916f422e8082f2c8609"
    )
    assert (
        hashlib.sha256(traces.encode()).hexdigest()
        == "e6fbd3e03540a5a919b6f8221d46a16debb2a5a964a129c2b4611e3c5b2e0b33"
    )


def test_controller_path_golden_digest():
    """sha256 of the classes the controller predicts, one window at a time.

    A seeded stream of object sequences goes through extract_features and
    step (RandomForest, six_class.json), with reset after each sequence.
    Recorded before the list-based forest walk and the one-pass MAV/SSC
    were added; the feature bytes of every window are pinned as well.
    """
    structure = load_structure(SIX_CLASS_JSON)
    binding = feasible_set(structure)[0]
    train_set = synth_signalset(
        6, records_per_class=8, num_channels=2, samples=256, noise=6.0, seed=21
    )
    X, y = feature_matrix(train_set)
    spec = ClassifierSpec(algorithm="RandomForest", num_trees=20, seed=21)
    ensemble = train_ensemble(structure, binding, X, y, spec)
    windows = synth_signalset(
        6, records_per_class=10, num_channels=2, samples=256, noise=6.0, seed=22
    )
    pools = {c: [r for r in windows.records if r.class_label == c] for c in range(1, 7)}
    rng = np.random.default_rng(23)
    movements = generate_movement_sequences(structure)
    state = initial_state(ensemble)
    predicted, truth, feature_bytes = [], [], hashlib.sha256()
    for _ in range(40):
        classes = sequence_to_classes(movements[rng.integers(len(movements))], structure, binding)
        for c in classes:
            values = extract_features(pools[c][rng.integers(len(pools[c]))]).values
            feature_bytes.update(values.tobytes())
            j, _, state = step(ensemble, state, values)
            predicted.append(j)
            truth.append(c)
        reset(state)
    assert predicted != truth  # misses, so wrong-box paths run
    assert (
        hashlib.sha256(np.array(predicted, dtype=np.int64).tobytes()).hexdigest()
        == "e75e8c48ce098cb7f9640d8d5c838aa0d074f261eb3256263bbc95595efc50f6"
    )
    assert (
        feature_bytes.hexdigest()
        == "ec9bff6b324ab757b93277a6591cc8996986afdea931bb1953c6a5ebe0a646d0"
    )


def loop_gaussian_nb(X, y):
    """(means, variances, priors) of GaussianNB from one ``y == c`` gather per class and a
    ``vstack``, as train made them before the class-sorted slices (the oracle)."""
    means, variances, priors = [], [], []
    for c in sorted(set(y.tolist())):
        rows = X[y == c]
        means.append(rows.mean(axis=0))
        variances.append(np.maximum(rows.var(axis=0), classifiers.VARIANCE_FLOOR))
        priors.append(len(rows) / len(y))
    return np.vstack(means), np.vstack(variances), np.asarray(priors)


def test_gaussian_nb_slices_equal_the_per_class_gather():
    """2-200 rows, 1-40 columns, 2-8 classes of unsorted labels, constant columns and
    signed zeros: every mean, variance and prior keeps its bits."""
    rng = np.random.default_rng(26)
    spec = ClassifierSpec(algorithm="GaussianNB")
    for trial in range(400):
        n = int(rng.integers(2, 201))
        d = int(rng.integers(1, 41))
        k = int(rng.integers(2, min(8, n) + 1))
        labels = rng.choice(np.arange(-3, 40), k, replace=False)  # unsorted, one may be <= 0
        y = labels[rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, n - k)]))]
        X = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4)
        if trial % 4 == 1:
            X[:, :: int(rng.integers(1, 4))] = 2.5  # constant columns: variance on the floor
        elif trial % 4 == 2:  # -0.0 and 0.0 in every column
            X = rng.integers(-1, 2, (n, d)) * 1.0
            X[X == 0] = rng.choice([-0.0, 0.0], int((X == 0).sum()))
        model = train(spec, X, y)
        for got, want in zip(
            (model.params[k] for k in ("means", "variances", "priors")), loop_gaussian_nb(X, y)
        ):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), trial


def test_box_rows_equal_np_isin():
    """A box fit is select_features and train on the rows np.isin picks, for class sets in
    any order, over labels that are not 1..C."""
    rng = np.random.default_rng(8)
    X = rng.standard_normal((60, 12))
    y = rng.choice(np.array([3, 7, 11, 20, 41]), 60)
    y[:5] = (3, 7, 11, 20, 41)
    for algorithm in ALGORITHMS:
        spec = ClassifierSpec(algorithm=algorithm, num_trees=3, seed=1)
        for classes in ((3, 7), (41, 3), (20, 11, 7), (41, 20, 11, 7, 3), (11, 3, 41)):
            mask, model = runtime._fit_box(X, y, classes, spec, 0.5, {})
            rows = np.isin(y, classes)
            want = select_features(X[rows], y[rows], fraction=0.5)
            assert mask == want
            assert np.array(mask.scores).tobytes() == np.array(want.scores).tobytes()
            assert model_state(model) == model_state(train(spec, want.apply(X[rows]), y[rows]))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_memoless_call_fits_each_class_set_once(six_class_data, algorithm):
    """Without a memo, train_ensemble makes one train per distinct box class set; boxes of
    one class set share one fit, equal to the fit of a fresh memo per box."""
    X, y = six_class_data
    structure = load_structure(SIX_CLASS_JSON)
    spec = ClassifierSpec(algorithm=algorithm, num_trees=3, seed=2)
    binding = feasible_set(structure)[0]
    boxes = machine(structure, binding)
    class_sets = {box: tuple(sorted(classes)) for box, classes in boxes.items()}
    with mock.patch.object(runtime, "train", wraps=runtime.train) as counted:
        ensemble = train_ensemble(structure, binding, X, y, spec, 0.5)
    assert counted.call_count == len(set(class_sets.values())) < len(class_sets)
    for i, key in class_sets.items():
        for j, other in class_sets.items():
            assert (ensemble.fits[i][1] is ensemble.fits[j][1]) == (key == other)
    for box, classes in boxes.items():
        mask, model = runtime._fit_box(X, y, classes, spec, 0.5, {})
        assert ensemble.fits[box][0] == mask
        assert model_state(ensemble.fits[box][1]) == model_state(model)


def test_mi_scores_on_labels_that_are_not_1_to_k():
    """The label codes from a sorted set and the cells ordered by their first row give the
    dict loop's bits, for label sets such as {3, 7, 11} and labels first seen unsorted."""
    rng = np.random.default_rng(14)
    label_sets = ([3, 7, 11], [11, 3], [-5, 0, 2**40], [1, 2, 3, 4, 5, 6, 7, 8], [100, 99])
    for trial in range(150):
        labels = np.array(label_sets[trial % len(label_sets)])
        n = int(rng.integers(len(labels), 120))
        y = labels[rng.permutation(np.arange(n) % len(labels))]
        X = rng.standard_normal((n, int(rng.integers(1, 20))))
        if trial % 3 == 1:
            X = rng.integers(0, 4, X.shape).astype(np.float64)  # repeated cells in every column
        want = [dict_loop_mi(X[:, j], y) for j in range(X.shape[1])]
        assert features._mi_scores(X, y).tobytes() == np.array(want).tobytes(), trial


def test_ranking_equals_the_negated_key_sort():
    """The stable reverse sort of the scores keeps the columns the (-score, index) sort
    kept, at every mask size, on scores full of ties and signed zeros."""
    rng = np.random.default_rng(5)
    X, y = np.zeros((4, 1)), np.array([1, 2, 1, 2])
    for _ in range(200):
        d = int(rng.integers(1, 30))
        scores = rng.choice([0.0, -0.0, 0.25, 0.5, 0.5 + 2**-53, 1e-300], d)
        order = sorted(range(d), key=lambda j: (-scores[j], j))
        for keep in range(1, d + 1):
            fraction = keep / d
            with mock.patch.object(features, "_mi_scores", return_value=scores.copy()):
                mask = select_features(np.zeros((4, d)), y, fraction=fraction)
            assert mask.selected == tuple(sorted(order[: math.ceil(fraction * d)]))
            assert np.array(mask.scores).tobytes() == scores.tobytes()
            assert all(type(s) is float for s in mask.scores)
    assert select_features(X, y).scores == (0.0,)


def list_rng(seed, *path):
    """derive_rng as it was: SeedSequence of a list of 64-bit ints (the oracle)."""
    ints = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [rng_module._key_to_int(k) for k in path]
    return np.random.default_rng(np.random.SeedSequence(ints))


def list_seed(seed, *path):
    """derive_seed as it was (the oracle)."""
    ints = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [rng_module._key_to_int(k) for k in path]
    return int(np.random.SeedSequence(ints).generate_state(1, dtype=np.uint64)[0])


def test_seed_words_equal_the_int_list():
    """The uint32 words give the SeedSequence state numpy gives the int list: 0, 1, 2^32 - 1,
    2^32, 2^63, 2^64 - 1, negative ints, numpy ints, crc32 keys and random paths."""
    edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64 + 5, -1, -(2**32), -(2**63)]
    keys = edges + [np.int64(-7), np.uint64(2**64 - 1), "inner", "stratified_assignments", ""]
    rng = np.random.default_rng(3)
    paths = [(k,) for k in keys] + [tuple(keys)]
    for _ in range(500):
        picks = rng.integers(0, len(keys), int(rng.integers(0, 7)))
        ints = rng.integers(-(2**63), 2**63, 2).tolist()
        paths.append(tuple(keys[i] for i in picks) + tuple(ints))
    for i, path in enumerate(paths):
        seed = edges[i % len(edges)] if i % 2 else int(rng.integers(0, 2**63))
        state = derive_rng(seed, *path).bit_generator.state
        assert state == list_rng(seed, *path).bit_generator.state
        assert derive_seed(seed, *path) == list_seed(seed, *path)
    with pytest.raises(TypeError):
        derive_rng(0, 1.5)
