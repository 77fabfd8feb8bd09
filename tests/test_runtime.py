import json

import numpy as np
import pytest

from ctxclf.classifiers import ClassifierSpec, predict
from ctxclf.context import Binding, derive_constraints, enumerate_feasible
from ctxclf.errors import DuplicateClassInBox, UncoveredClass
from ctxclf.runtime import (
    ContextEnsemble,
    initial_state,
    reset,
    step,
    train_ensemble,
    train_plain,
)
from ctxclf.structures import five_class_example, six_class_nested


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
    s = five_class_example()
    ens = perfect_ensemble(s)
    binding = ens.binding
    state = initial_state(ens)
    assert state.current.is_root

    # movement 3 opens box 1 from the root
    j, movement, state = step(ens, state, obj(3))
    assert (j, movement) == (3, 3)
    assert state.current.index == 1

    # inside box 1, a plain member keeps the box open
    inner = [m for m in state.current.member_movements() if m != 3]
    m0 = inner[0]
    j, movement, state = step(ens, state, obj(binding.class_of_movement(m0)))
    assert movement == m0
    assert state.current.index == 1

    # predicting the opener's class closes the box
    j, movement, state = step(ens, state, obj(3))
    assert movement == 3
    assert state.current.is_root


def test_generated_sequences_return_to_root():
    from ctxclf.evaluation import generate_movement_sequences, sequence_to_classes

    for s in (five_class_example(), six_class_nested()):
        ens = perfect_ensemble(s)
        for seq in generate_movement_sequences(s):
            state = initial_state(ens)
            classes = sequence_to_classes(seq, s, ens.binding)
            for movement, cls in zip(seq.movements, classes):
                j, interpreted, state = step(ens, state, obj(cls))
                assert j == cls
                assert interpreted == movement
            assert len(state.stack) == 1 and state.current.is_root


def test_reset():
    s = five_class_example()
    ens = perfect_ensemble(s)
    state = initial_state(ens)
    step(ens, state, obj(3))
    assert not state.current.is_root
    reset(state)
    assert state.current.is_root and len(state.stack) == 1
    fresh = reset(ens)
    assert fresh.current.is_root


def test_train_ensemble_rejects_infeasible_binding():
    s = five_class_example()
    X, y = scalar_training_data(5)
    # movement 6 would repeat the class of box 1's closer (movement 3)
    bad = Binding(num_classes=5, secondary=(3, 1, 2, 4, 5))
    with pytest.raises(DuplicateClassInBox):
        train_ensemble(s, bad, X, y, ClassifierSpec(), 1.0)


def test_train_ensemble_uncovered_class():
    s = five_class_example()
    binding = enumerate_feasible(derive_constraints(s))[0]
    X, y = scalar_training_data(5)
    keep = (y != 4) & (y != 2)
    with pytest.raises(UncoveredClass, match="^box 0: class 2 absent"):  # the first one missing
        train_ensemble(s, binding, X[keep], y[keep], ClassifierSpec(), 1.0)


def test_one_model_per_box_with_local_classes():
    s = six_class_nested()
    ens = perfect_ensemble(s)
    boxes = list(s.root.walk())
    assert set(ens.models) == {b.index for b in boxes}
    from ctxclf.context import local_classes

    for b in boxes:
        assert ens.models[b.index].classes == tuple(
            sorted(local_classes(s, ens.binding, b))
        )
    assert ens.models[0].classes == tuple(range(1, 7))


def test_serialization_round_trip(tmp_path):
    s = six_class_nested()
    probes = np.linspace(0.0, 7.0, 57)[:, None]  # every class value and every midpoint between
    for alg in ("GaussianNB", "RandomForest"):
        ens = perfect_ensemble(s, alg=alg)
        path = tmp_path / f"ensemble_{alg}.json"
        ens.save(path)
        back = ContextEnsemble.load(path)
        assert back.structure == ens.structure
        assert back.binding == ens.binding
        assert back.spec == ens.spec
        for c in range(1, 7):
            state_a, state_b = initial_state(ens), initial_state(back)
            ja, ma, _ = step(ens, state_a, obj(c))
            jb, mb, _ = step(back, state_b, obj(c))
            assert (ja, ma) == (jb, mb)
        for i, model in ens.models.items():
            loaded = back.models[i]
            assert [predict(loaded, p) for p in probes] == [predict(model, p) for p in probes]
            assert predict(loaded, probes).tolist() == predict(model, probes).tolist()
    with pytest.raises(ValueError):
        ContextEnsemble.from_dict({"version": 99})


def test_describe_lists_boxes_and_marks():
    ens = perfect_ensemble(five_class_example())
    text = ens.describe()
    assert "box 0 (initial)" in text
    assert "box 1" in text and "box 2" in text
    assert "(+)" in text and "(-)" in text


def test_train_plain_covers_all_classes():
    X, y = scalar_training_data(5, copies=3)
    plain = train_plain(X, y, ClassifierSpec(algorithm="NearestNeighbor"), 1.0)
    assert plain.model.classes == tuple(range(1, 6))
    for c in range(1, 6):
        assert plain.predict(obj(c)) == c
