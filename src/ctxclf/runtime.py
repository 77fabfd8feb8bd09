"""Training and execution of the context-dependent ensemble.

One classifier per box (the root classifier covers all classes); each has
its own mutual-information feature mask fitted on the box-restricted
training rows. At run time the ensemble behaves as a finite-state machine:
the current box's classifier predicts a class, the box-local map turns it
into a movement, and opening/closing movements push/pop the box stack.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ctxclf.classifiers import ClassifierSpec, TrainedModel, predict, train
from ctxclf.context import (
    Binding,
    BoxNode,
    ContextStructure,
    local_classes,
    structure_from_dict,
    structure_to_dict,
)
from ctxclf.errors import DuplicateClassInBox, UncoveredClass
from ctxclf.features import FeatureMask, select_features


@dataclass(frozen=True)
class ContextEnsemble:
    structure: ContextStructure
    binding: Binding
    masks: dict[int, FeatureMask] = field(compare=False)  # box index -> mask
    models: dict[int, TrainedModel] = field(compare=False)
    spec: ClassifierSpec = ClassifierSpec()

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "structure": structure_to_dict(self.structure),
            "binding": list(self.binding.secondary),
            "spec": {
                "algorithm": self.spec.algorithm,
                "num_trees": self.spec.num_trees,
                "seed": self.spec.seed,
            },
            "boxes": {
                str(i): {
                    "mask": {
                        "selected": list(self.masks[i].selected),
                        "source_dim": self.masks[i].source_dim,
                        "scores": list(self.masks[i].scores),
                    },
                    "model": self.models[i].to_dict(),
                }
                for i in self.masks
            },
        }

    @staticmethod
    def from_dict(d: dict) -> "ContextEnsemble":
        if d.get("version") != 1:
            raise ValueError(f"unsupported ensemble version {d.get('version')}")
        structure = structure_from_dict(d["structure"])
        masks, models = {}, {}
        for key, entry in d["boxes"].items():
            i = int(key)
            m = entry["mask"]
            masks[i] = FeatureMask(
                selected=tuple(m["selected"]),
                source_dim=int(m["source_dim"]),
                scores=tuple(m["scores"]),
            )
            models[i] = TrainedModel.from_dict(entry["model"])
        return ContextEnsemble(
            structure=structure,
            binding=Binding(num_classes=structure.num_classes, secondary=tuple(d["binding"])),
            masks=masks,
            models=models,
            spec=ClassifierSpec(**d["spec"]),
        )

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @staticmethod
    def load(path) -> "ContextEnsemble":
        with open(path) as fh:
            return ContextEnsemble.from_dict(json.load(fh))

    def describe(self) -> str:
        """Render the box tree with per-box movement/class tables."""
        lines = []

        def emit(box: BoxNode, depth: int):
            indent = "  " * depth
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
            for c in box.children:
                emit(c, depth + 1)

        emit(self.structure.root, 0)
        return "\n".join(lines)


@dataclass
class MachineState:
    """Box stack of the running ensemble; the root is never popped."""

    stack: list[BoxNode]

    @property
    def current(self) -> BoxNode:
        return self.stack[-1]


@dataclass(frozen=True)
class PlainModel:
    """Context-free baseline: one global mask and one model over all classes."""

    mask: FeatureMask
    model: TrainedModel

    def predict(self, x: np.ndarray) -> int:
        return predict(self.model, self.mask.apply(x))


def _fit_box(X, y, classes, spec: ClassifierSpec, feature_fraction: float, memo=None):
    """(mask, model) fitted on the rows of X whose label is in classes.

    The fit is a pure function of the training set, the class set and the
    spec, so ``memo`` (a dict, keyed by the class set) may hold fits made
    before on the same X, y, spec and feature_fraction; a memo must never be
    shared between training sets.
    """
    key = tuple(sorted(int(c) for c in classes))
    if memo is not None and key in memo:
        return memo[key]
    rows = np.isin(y, key)
    mask = select_features(X[rows], y[rows], fraction=feature_fraction)
    fit = (mask, train(spec, mask.apply(X[rows]), y[rows]))
    if memo is not None:
        memo[key] = fit
    return fit


def train_ensemble(
    structure: ContextStructure,
    binding: Binding,
    X,
    y,
    spec: ClassifierSpec,
    feature_fraction: float = 0.5,
    memo: dict | None = None,
) -> ContextEnsemble:
    """Fit one (mask, model) pair per box on the box-restricted rows (see _fit_box for memo)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    try:
        boxes = [(box, local_classes(structure, binding, box)) for box in structure.root.walk()]
    except DuplicateClassInBox:
        raise DuplicateClassInBox("binding is infeasible for this structure") from None
    present = set(np.unique(y).tolist())
    masks: dict[int, FeatureMask] = {}
    models: dict[int, TrainedModel] = {}
    for box, classes in boxes:
        for c in classes:
            if c not in present:
                raise UncoveredClass(f"box {box.index}: class {c} absent from training data")
        masks[box.index], models[box.index] = _fit_box(
            X, y, classes, spec, feature_fraction, memo
        )
    return ContextEnsemble(structure=structure, binding=binding, masks=masks, models=models, spec=spec)


def train_plain(
    X, y, spec: ClassifierSpec, feature_fraction: float = 0.5, memo: dict | None = None
) -> PlainModel:
    """Context-free model over all classes, with the global MI mask (see _fit_box for memo)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    mask, model = _fit_box(X, y, np.unique(y), spec, feature_fraction, memo)
    return PlainModel(mask=mask, model=model)


def initial_state(ensemble: ContextEnsemble) -> MachineState:
    return MachineState(stack=[ensemble.structure.root])


def reset(state_or_ensemble) -> MachineState:
    """Return the state to the initial one (stack = [root])."""
    if isinstance(state_or_ensemble, ContextEnsemble):
        return initial_state(state_or_ensemble)
    state = state_or_ensemble
    state.stack[:] = state.stack[:1]
    return state


def step(ensemble: ContextEnsemble, state: MachineState, x) -> tuple[int, int, MachineState]:
    """Classify one feature vector in the current box and transition.

    Returns (predicted class, interpreted movement id, state). The state is
    mutated in place and also returned.
    """
    x = np.asarray(x, dtype=np.float64)
    box = state.current
    masked = ensemble.masks[box.index].apply(x)
    j = predict(ensemble.models[box.index], masked)
    return j, _transition(ensemble.binding, state.stack, j), state


def _transition(binding: Binding, stack: list[BoxNode], j: int) -> int:
    """Interpret class j in the box on top of the stack, push/pop; return the movement."""
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
    raise DuplicateClassInBox(
        f"box {box.index}: predicted class {j} has no interpretation"
    )  # unreachable when model range equals the box's class set


def predict_tables(system, X, rows, cache: dict | None = None) -> dict[int, list[int]]:
    """Each box model's class for the listed rows of X, one block predict per box.

    A table is indexed by row of X (unlisted rows read 0). A PlainModel has
    one table, under box index 0. A box fit is a pure function of its class
    set for a given training set (see _fit_box), so ``cache`` (a dict keyed by
    ``model.classes``) may hold tables made before from fits on the same
    training set, for the same X and rows; a cache must never be shared
    between training sets or test pools.
    """
    if isinstance(system, PlainModel):
        fits = {0: (system.mask, system.model)}
    else:
        fits = {i: (system.masks[i], model) for i, model in system.models.items()}
    if cache is None:
        cache = {}
    rows = np.asarray(rows, dtype=np.int64)
    tables = {}
    for i, (mask, model) in fits.items():
        if model.classes not in cache:
            table = np.zeros(len(X), dtype=np.int64)
            table[rows] = predict(model, mask.apply(X[rows]))
            cache[model.classes] = table.tolist()
        tables[i] = cache[model.classes]
    return tables


def box_transitions(system) -> tuple[int, dict[int, dict[int, int]]]:
    """(initial box, {box: {class: box after that class}}) of a system's machine.

    Pushes and pops always follow the root-to-box path, so the machine's
    state is the current box alone. Each entry is what ``_transition`` does
    with that class: the closer's class pops to the parent, else the first
    member movement of that class pushes the box it opens or stays. A
    PlainModel is one box, index 0, that every class of its model keeps.
    """
    if isinstance(system, PlainModel):
        return 0, {0: dict.fromkeys(system.model.classes, 0)}
    binding = system.binding
    table: dict[int, dict[int, int]] = {}

    def visit(box: BoxNode, parent: int | None):
        moves = {}
        if parent is not None:
            moves[binding.class_of_movement(box.opener)] = parent
        opened: dict[int, int] = {}
        for child in box.children:
            opened.setdefault(child.opener, child.index)
        for m in box.member_movements():
            moves.setdefault(binding.class_of_movement(m), opened.get(m, box.index))
        table[box.index] = moves
        for child in box.children:
            visit(child, box.index)

    visit(system.structure.root, None)
    return system.structure.root.index, table


def walk_tables(
    transitions: dict[int, dict[int, int]], tables: dict[int, list[int]], rows, box: int
) -> list[int]:
    """Predicted classes of a sequence of table rows, starting in box ``box``.

    The same transitions as ``step``, with each box model's class read from
    its table and the next box from ``transitions`` (see box_transitions).
    """
    out = []
    for r in rows:
        j = tables[box][r]
        try:
            box = transitions[box][j]
        except KeyError:
            raise DuplicateClassInBox(
                f"box {box}: predicted class {j} has no interpretation"
            ) from None
        out.append(j)
    return out
