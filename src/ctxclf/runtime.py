"""Training and execution of the context-dependent ensemble.

One classifier per box (the root classifier covers all classes); each has
its own mutual-information feature mask fitted on the box-restricted
training rows. At run time the ensemble behaves as a finite-state machine:
the current box's classifier predicts a class, and the box's transition
table turns it into a movement and the box after it. The context-free
baseline is the same machine with one box that keeps every class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ctxclf.classifiers import ClassifierSpec, TrainedModel, predict, train
from ctxclf.context import ROOT, Binding, BoxNode, ContextStructure, local_classes
from ctxclf.errors import CtxclfError, DimensionMismatch, DuplicateClassInBox
from ctxclf.features import FeatureMask, select_features


@dataclass(frozen=True)
class ContextEnsemble:
    structure: ContextStructure
    binding: Binding
    masks: dict[int, FeatureMask] = field(compare=False)  # box index -> mask
    models: dict[int, TrainedModel] = field(compare=False)
    # ({box: {class: box after it}}, {box: {class: movement it means}}), the tables of
    # machine(structure, binding): step reads them with no cache lookup per window
    transitions: tuple = field(compare=False)

    def describe(self) -> str:
        """Render the box tree with per-box movement/class tables."""
        lines = []
        for path in self.structure.root.paths():
            box = path[-1]
            indent = "  " * (len(path) - 1)
            if box.is_root:
                lines.append(f"{indent}box 0 (initial)")
            else:
                j = self.binding.class_of_movement(box.opener)
                name = self.structure.movement_name(box.opener)
                lines.append(f"{indent}box {box.index} (opened/closed by {name}, class {j})")
            lines.append(f"{indent}  Movement      Class")
            for m in box.member_movements():
                name = self.structure.movement_name(m)
                mark = " (+)" if any(c.opener == m for c in box.children) else ""
                lines.append(f"{indent}  {name:<12}  {self.binding.class_of_movement(m)}{mark}")
            if not box.is_root:
                name = self.structure.movement_name(box.opener)
                lines.append(
                    f"{indent}  {name:<12}  {self.binding.class_of_movement(box.opener)} (-)"
                )
        return "\n".join(lines)


@lru_cache(maxsize=256)
def machine(structure: ContextStructure, binding: Binding) -> tuple:
    """(((box, its classes), ...) in pre-order, {box: {class: box after it}}, {box: {class:
    movement it means}}), built once per (structure, binding) and shared: never mutate it.

    Pushes and pops always follow the root-to-box path, so the machine's state is the
    current box alone. A box's slots (closer first, then members) take their classes from
    local_classes: the closer's pops to the parent, a child's opener pushes that child and
    any other member stays. A box with a repeated class raises DuplicateClassInBox on every
    call, as the cache keeps no exception.
    """
    boxes, next_box, meaning = [], {}, {}
    for path in structure.root.paths():
        box = path[-1]
        classes = local_classes(binding, box)
        after = [p.index for p in path[-2:-1]] + [box.index] * len(box.internal_movements)
        after += [c.index for c in box.children]  # the box each slot leads to, slot for slot
        boxes.append((box, classes))
        next_box[box.index] = dict(zip(classes, after))
        meaning[box.index] = dict(zip(classes, box.slots()))
    return tuple(boxes), next_box, meaning


@dataclass
class MachineState:
    """The running ensemble's current box (see ContextEnsemble.transitions)."""

    box: int


def _fit_box(X, y, classes, spec: ClassifierSpec, feature_fraction: float, memo: dict):
    """(mask, model) fitted on the rows of X whose label is in classes.

    The fit is a pure function of the training set, the class set and the
    spec, so ``memo`` (a dict, keyed by the class set) holds fits made before
    on the same X, y, spec and feature_fraction; a memo must never be shared
    between training sets.
    """
    key = tuple(sorted(int(c) for c in classes))
    if key not in memo:
        rows = (y[:, None] == np.array(key)).any(axis=1)  # np.isin(y, key), without its set-up
        mask = select_features(X[rows], y[rows], fraction=feature_fraction)
        memo[key] = (mask, train(spec, mask.apply(X[rows]), y[rows]))
    return memo[key]


def train_ensemble(
    structure: ContextStructure,
    binding: Binding,
    X,
    y,
    spec: ClassifierSpec,
    feature_fraction: float = 0.5,
    memo: dict | None = None,
) -> ContextEnsemble:
    """Fit one (mask, model) pair per box on the box-restricted rows (see _fit_box for memo).

    Without a memo the call keeps its own, so boxes of one class set share one fit.
    """
    memo = {} if memo is None else memo
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    try:
        boxes, next_box, meaning = machine(structure, binding)
    except DuplicateClassInBox:
        raise DuplicateClassInBox("binding is infeasible for this structure") from None
    present = set(y.tolist())
    masks: dict[int, FeatureMask] = {}
    models: dict[int, TrainedModel] = {}
    for box, classes in boxes:
        for c in classes:
            if c not in present:
                raise CtxclfError(f"box {box.index}: class {c} absent from training data")
        masks[box.index], models[box.index] = _fit_box(
            X, y, classes, spec, feature_fraction, memo
        )
    return ContextEnsemble(structure, binding, masks, models, (next_box, meaning))


def train_plain(
    X, y, spec: ClassifierSpec, feature_fraction: float = 0.5, memo: dict | None = None
) -> ContextEnsemble:
    """Context-free baseline: a one-box machine whose root keeps every class of y.

    The binding is the identity, so each class means its own primary
    movement; the root's box problem (and memo key, see _fit_box) is all of y.
    """
    classes = tuple(sorted(set(np.asarray(y, dtype=np.int64).tolist())))
    C = max(classes)
    structure = ContextStructure(num_classes=C, movements=(), root=BoxNode(ROOT, None, classes))
    identity = Binding(tuple(range(1, C + 1)))
    return train_ensemble(structure, identity, X, y, spec, feature_fraction, memo)


def initial_state(ensemble: ContextEnsemble) -> MachineState:
    return MachineState(box=ROOT)


def reset(state: MachineState) -> MachineState:
    """Return the state to the root, in place."""
    state.box = ROOT
    return state


def step(ensemble: ContextEnsemble, state: MachineState, x) -> tuple[int, int, MachineState]:
    """Classify one feature vector in the current box and transition.

    Returns (predicted class, interpreted movement id, state). The state is
    mutated in place and also returned. Anything but one vector of the
    mask's width, a block included, raises DimensionMismatch.
    """
    box = state.box
    mask = ensemble.masks[box]
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (mask.source_dim,):
        raise DimensionMismatch(f"expected {mask.source_dim} features, got {x.shape}")
    j = predict(ensemble.models[box], x[mask._columns])  # the checks of mask.apply, made above
    next_box, meaning = ensemble.transitions
    try:
        movement = meaning[box][j]
    except KeyError:  # unreachable when the model's classes are the box's
        raise DuplicateClassInBox(f"box {box}: predicted class {j} has no interpretation") from None
    state.box = next_box[box][j]
    return j, movement, state


def predict_tables(system, X, cache: dict) -> dict[int, list[int]]:
    """Each box model's class for each row of the block X, one block predict per box.

    A box fit is a pure function of its class set for a given training set
    (see _fit_box), so ``cache`` (a dict keyed by ``model.classes``) may hold
    tables made before from fits on the same training set, for the same X; a
    cache must never be shared between training sets or held-out blocks.
    """
    tables = {}
    for i, model in system.models.items():
        if model.classes not in cache:
            cache[model.classes] = predict(model, system.masks[i].apply(X)).tolist()
        tables[i] = cache[model.classes]
    return tables


def first_miss(
    transitions: dict[int, dict[int, int]], tables: dict[int, list[int]], rows, classes
) -> int:
    """1-based position of the first of ``rows`` whose predicted class is not its class in
    ``classes``, or 0 when there is none.

    The walk starts at the root and makes the transitions of ``step``, with
    each box model's class read from its table (see predict_tables) and the
    next box from ``transitions`` (the first table of
    ContextEnsemble.transitions). Up to the first miss every prediction is
    the true class, which the box's model holds, so every transition exists.
    """
    box = ROOT
    for position, (r, c) in enumerate(zip(rows, classes), 1):
        j = tables[box][r]
        if j != c:
            return position
        box = transitions[box][j]
    return 0
