import re

import numpy as np
import pytest

from ctxclf.classifiers import ClassifierSpec
from ctxclf.context import ROOT, Binding, derive_constraints, enumerate_feasible
from ctxclf.errors import CtxclfError, DimensionMismatch, DuplicateClassInBox
from ctxclf.runtime import (
    initial_state,
    reset,
    step,
    train_ensemble,
    train_plain,
)
from conftest import structure_file


def scalar_training_data(num_classes, copies=2):
    """One-dimensional, perfectly separable features: x = class label."""
    X = np.array([[float(c)] for c in range(1, num_classes + 1) for _ in range(copies)])
    y = np.array([c for c in range(1, num_classes + 1) for _ in range(copies)])
    return X, y


def perfect_ensemble(structure, binding=None, alg="NearestNeighbor"):
    if binding is None:
        binding = enumerate_feasible(derive_constraints(structure))[0]
    X, y = scalar_training_data(structure.num_classes)
    return train_ensemble(structure, binding, X, y, ClassifierSpec(algorithm=alg), 1.0)


def obj(c):
    return np.array([float(c)])


def test_step_pushes_and_pops():
    s = structure_file("five_class")
    ens = perfect_ensemble(s)
    binding = ens.binding
    state = initial_state(ens)
    assert state.box == s.root.index

    # movement 3 opens box 1 from the root
    j, movement, state = step(ens, state, obj(3))
    assert (j, movement) == (3, 3)
    assert state.box == 1

    # inside box 1, a plain member keeps the box open
    box1 = next(b for b in s.root.walk() if b.index == 1)
    inner = [m for m in box1.member_movements() if m != 3]
    m0 = inner[0]
    j, movement, state = step(ens, state, obj(binding.class_of_movement(m0)))
    assert movement == m0
    assert state.box == 1

    # predicting the opener's class closes the box
    j, movement, state = step(ens, state, obj(3))
    assert movement == 3
    assert state.box == s.root.index


def test_generated_sequences_return_to_root():
    from ctxclf.evaluation import generate_movement_sequences, sequence_to_classes

    for s in (structure_file("five_class"), structure_file("six_class")):
        ens = perfect_ensemble(s)
        for seq in generate_movement_sequences(s):
            state = initial_state(ens)
            classes = sequence_to_classes(seq, s, ens.binding)
            for movement, cls in zip(seq, classes):
                j, interpreted, state = step(ens, state, obj(cls))
                assert j == cls
                assert interpreted == movement
            assert state.box == s.root.index


@pytest.fixture(scope="module")
def gnb_on_twenty_features():
    """A six_class GaussianNB ensemble on 20 features, one channel's feature vector."""
    s = structure_file("six_class")
    rng = np.random.default_rng(0)
    y = np.repeat(np.arange(1, s.num_classes + 1), 6)
    X = rng.standard_normal((len(y), 20)) + y[:, None]
    binding = enumerate_feasible(derive_constraints(s))[0]
    return train_ensemble(s, binding, X, y, ClassifierSpec(algorithm="GaussianNB"), 0.5), X


@pytest.mark.parametrize(
    "probe",
    [
        lambda X: np.concatenate([X[0], X[1]]),  # two vectors end to end: once read as one
        lambda X: X[0, :10],  # half a vector: once an IndexError
        lambda X: X[:2],  # a block: once an unhashable class array
    ],
    ids=["40-values", "10-values", "2x20-block"],
)
def test_step_refuses_anything_but_one_vector_of_the_mask_width(gnb_on_twenty_features, probe):
    ens, X = gnb_on_twenty_features
    x = probe(X)
    state = initial_state(ens)
    with pytest.raises(DimensionMismatch, match=re.escape(f"expected 20 features, got {x.shape}")):
        step(ens, state, x)
    assert state.box == ROOT
    assert step(ens, state, X[0])[2] is state  # one vector of the width still steps


def test_reset():
    s = structure_file("five_class")
    ens = perfect_ensemble(s)
    state = initial_state(ens)
    step(ens, state, obj(3))
    assert state.box != s.root.index
    assert reset(state) is state
    assert state.box == s.root.index == ROOT


def test_train_ensemble_rejects_infeasible_binding():
    s = structure_file("five_class")
    X, y = scalar_training_data(5)
    # movement 6 would repeat the class of box 1's closer (movement 3)
    bad = Binding((3, 1, 2, 4, 5))
    with pytest.raises(DuplicateClassInBox):
        train_ensemble(s, bad, X, y, ClassifierSpec(), 1.0)


def test_train_ensemble_uncovered_class():
    s = structure_file("five_class")
    binding = enumerate_feasible(derive_constraints(s))[0]
    X, y = scalar_training_data(5)
    keep = (y != 4) & (y != 2)
    # classes 2 and 4 are missing; the first one is named
    with pytest.raises(CtxclfError, match=r"^box 0: class 2 absent from training data$"):
        train_ensemble(s, binding, X[keep], y[keep], ClassifierSpec(), 1.0)


def test_one_model_per_box_with_local_classes():
    s = structure_file("six_class")
    ens = perfect_ensemble(s)
    boxes = list(s.root.walk())
    assert set(ens.models) == {b.index for b in boxes}
    from ctxclf.context import local_classes

    for b in boxes:
        assert ens.models[b.index].classes == tuple(sorted(local_classes(ens.binding, b)))
    assert ens.models[0].classes == tuple(range(1, 7))


def test_describe_lists_boxes_and_marks():
    ens = perfect_ensemble(structure_file("five_class"))
    text = ens.describe()
    assert "box 0 (initial)" in text
    assert "box 1" in text and "box 2" in text
    assert "(+)" in text and "(-)" in text


SIX_CLASS_DESCRIBE = """\
box 0 (initial)
  Movement      Class
  m2            2
  m4            4
  m5            5
  m6            6
  m1            1 (+)
  m3            3 (+)
  box 1 (opened/closed by m1, class 1)
    Movement      Class
    m4            4
    m5            5
    m6            6
    m8            3
    m7            2 (+)
    m1            1 (-)
    box 2 (opened/closed by m7, class 2)
      Movement      Class
      m9            5
      m10           6
      m7            2 (-)
  box 3 (opened/closed by m3, class 3)
    Movement      Class
    m5            5
    m6            6
    m11           1
    m12           4
    m3            3 (-)"""


def test_describe_six_class_text():
    """The whole rendering of six_class.json under its first feasible binding.

    Recorded when describe() was still a recursive visitor: indents, box
    order, the (+)/(-) marks and the class column are all pinned.
    """
    assert perfect_ensemble(structure_file("six_class")).describe() == SIX_CLASS_DESCRIBE


def test_train_plain_covers_all_classes():
    X, y = scalar_training_data(5, copies=3)
    plain = train_plain(X, y, ClassifierSpec(algorithm="NearestNeighbor"), 1.0)
    assert plain.models[plain.structure.root.index].classes == tuple(range(1, 6))
    state = initial_state(plain)
    for c in range(1, 6):
        assert step(plain, state, obj(c)) == (c, c, state)
        assert state.box == plain.structure.root.index
