"""Sequence generation, ZO/SqCov metrics, and the cross-validated experiment.

Testing follows a sequence-level protocol: movement sequences are derived
from the box structure (one per root-to-leaf path, so every box classifier
is activated), converted to class sequences through the binding under
test, instantiated R times with randomly drawn test objects, and fed to
the classifier. ZO scores a sequence 1 only when every position is
correct; SqCov credits the correctly classified prefix before the first
error.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from ctxclf.classifiers import ClassifierSpec
from ctxclf.context import Binding, ContextStructure
from ctxclf.errors import CtxclfError
from ctxclf.optimize import EAParams, Fitness, ea_search, exhaustive_search, feasible_set
from ctxclf.rng import derive_rng, derive_seed
from ctxclf.runtime import (
    ContextEnsemble,
    PlainModel,
    initial_state,
    predict_tables,
    reset,
    step,
    train_ensemble,
    train_plain,
    walk_tables,
)
from ctxclf.signals import SignalSet, stratified_folds
from ctxclf.features import feature_matrix

METHODS = ("plain", "rctx", "octx")


@dataclass(frozen=True)
class MovementSequence:
    movements: tuple[int, ...]
    path: tuple[int, ...]  # box indices from root to leaf


@dataclass(frozen=True)
class SequenceOutcome:
    """Per-position hit flags of one evaluated object sequence."""

    hits: tuple[bool, ...]

    @property
    def length(self) -> int:
        return len(self.hits)

    @property
    def error_free(self) -> bool:
        return all(self.hits)

    @property
    def first_error(self) -> int | None:
        """1-based position of the first miss, or None."""
        for i, h in enumerate(self.hits):
            if not h:
                return i + 1
        return None


def generate_movement_sequences(structure: ContextStructure) -> list[MovementSequence]:
    """One sequence per root-to-leaf path; every box appears on some path."""
    root = structure.root
    if not root.children:
        return [MovementSequence(movements=root.member_movements(), path=(root.index,))]
    sequences = []

    def descend(box, prefix_moves: list[int], prefix_path: list):
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
            sequences.append(
                MovementSequence(movements=tuple(moves), path=tuple(b.index for b in path))
            )

    descend(root, [], [])
    return sequences


def sequence_to_classes(
    seq: MovementSequence, structure: ContextStructure, binding: Binding
) -> tuple[int, ...]:
    """Map each movement to its bound class (closer shares the opener's)."""
    return tuple(binding.class_of_movement(m) for m in seq.movements)


def sample_object_sequences(
    class_seq, test_pool: dict[int, list[int]], R: int, rng: np.random.Generator
) -> list[list[int]]:
    """R object-index sequences, each position drawn uniformly with replacement."""
    for c in class_seq:
        if not test_pool.get(c):
            raise CtxclfError(f"test pool has no objects of class {c}")
    out = []
    for _ in range(R):
        out.append([test_pool[c][int(rng.integers(0, len(test_pool[c])))] for c in class_seq])
    return out


def evaluate_sequence(system, objects, true_classes) -> SequenceOutcome:
    """Feed objects in order; ensembles are reset to the root afterwards."""
    if len(objects) != len(true_classes):
        raise ValueError("objects and true classes must have equal length")
    hits = []
    if isinstance(system, ContextEnsemble):
        state = initial_state(system)
        for x, truth in zip(objects, true_classes):
            predicted, _, state = step(system, state, x)
            hits.append(predicted == truth)
        reset(state)
    elif isinstance(system, PlainModel):
        for x, truth in zip(objects, true_classes):
            hits.append(system.predict(np.asarray(x)) == truth)
    else:
        raise TypeError(f"cannot evaluate {type(system).__name__}")
    return SequenceOutcome(hits=tuple(hits))


def zo_metric(outcomes) -> float:
    """Fraction of sequences with no classification error."""
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("no outcomes")
    return sum(1.0 for o in outcomes if o.error_free) / len(outcomes)


def sqcov_metric(outcomes) -> float:
    """Mean correctly classified prefix fraction before the first error."""
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("no outcomes")
    total = 0.0
    for o in outcomes:
        if o.error_free:
            total += 1.0
        else:
            total += (o.first_error - 1) / o.length
    return total / len(outcomes)


@dataclass(frozen=True)
class RunConfig:
    signalset: SignalSet
    structure: ContextStructure
    classifier_specs: tuple[ClassifierSpec, ...] = (ClassifierSpec(),)
    methods: tuple[str, ...] = METHODS
    cv_folds: int = 10
    inner_folds: int = 3
    repetitions: int = 20  # R object sequences per movement sequence
    inner_repetitions: int = 5  # cheaper resampling inside the binding search
    feature_fraction: float = 0.5
    ea_params: EAParams = EAParams()
    exhaustive_limit: int = 500  # above this feasible-set size the EA is used
    master_seed: int = 0

    def __post_init__(self):
        for i, m in enumerate(self.methods):
            if m not in METHODS:
                raise ValueError(f"methods[{i}]: unknown method {m!r}")
        # range checks up front, so a bad value fails before the run, not inside the inner CV
        for name, least in (
            ("cv_folds", 2), ("inner_folds", 2), ("repetitions", 1), ("inner_repetitions", 1)
        ):
            if getattr(self, name) < least:
                raise ValueError(f"{name}: must be >= {least}, got {getattr(self, name)}")
        if not 0.0 < self.feature_fraction <= 1.0:
            raise ValueError(f"feature_fraction: must be in (0, 1], got {self.feature_fraction}")


@dataclass(frozen=True)
class MetricsRow:
    method: str
    classifier: str
    fold: int
    zo: float
    sqcov: float


METRICS_CSV_HEADER = ",".join(f.name for f in fields(MetricsRow))


@dataclass(frozen=True)
class MetricsTable:
    rows: tuple[MetricsRow, ...]
    sequences_per_fold: int  # K = G * R
    optimizer_traces: dict = field(default_factory=dict, compare=False)

    def to_csv(self) -> str:
        lines = [METRICS_CSV_HEADER]
        for r in self.rows:
            lines.append(f"{r.method},{r.classifier},{r.fold},{r.zo!r},{r.sqcov!r}")
        return "\n".join(lines) + "\n"

    def values(self, method: str, classifier: str, criterion: str) -> list[float]:
        return [
            getattr(r, criterion)
            for r in self.rows
            if r.method == method and r.classifier == classifier
        ]

    def summary(self) -> dict:
        out: dict = {"sequences_per_fold": self.sequences_per_fold, "cells": {}}
        pairs = sorted({(r.method, r.classifier) for r in self.rows})
        for method, clf in pairs:
            for criterion in ("zo", "sqcov"):
                vals = self.values(method, clf, criterion)
                out["cells"].setdefault(clf, {}).setdefault(method, {})[criterion] = {
                    "mean": float(np.mean(vals)),
                    "std": float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0,
                }
        return out


def _class_pools(labels: np.ndarray, indices: list[int]) -> dict[int, list[int]]:
    pools: dict[int, list[int]] = {}
    for i in indices:
        pools.setdefault(int(labels[i]), []).append(int(i))
    return pools


def _evaluate_system(system, binding, structure, X, pools, R, rng) -> list[SequenceOutcome]:
    """Outcomes of R object sequences per movement sequence, drawn from the pools.

    Each box model predicts the whole test pool once; the sequences are then
    walked over those prediction tables, as evaluate_sequence would feed them.
    """
    rows = sorted(i for objects in pools.values() for i in objects)
    table_row = {i: r for r, i in enumerate(rows)}
    tables = predict_tables(system, X[rows])
    outcomes = []
    for seq in generate_movement_sequences(structure):
        classes = sequence_to_classes(seq, structure, binding)
        for obj_idx in sample_object_sequences(classes, pools, R, rng):
            predicted = walk_tables(system, tables, [table_row[i] for i in obj_idx])
            outcomes.append(
                SequenceOutcome(hits=tuple(p == c for p, c in zip(predicted, classes)))
            )
    return outcomes


def search_binding(
    config: RunConfig, spec, X, y, train_indices, fold: int, feasible: list[Binding]
) -> tuple[Binding, float, int, list | None]:
    """The OCtx binding: the best mean SqCov under inner cross-validation.

    Up to ``exhaustive_limit`` feasible bindings every one is evaluated;
    above it the EA searches, seeded from the master seed, fold and algorithm.
    Each inner fold keeps one box-fit memo for all the bindings evaluated,
    so a box problem (inner training rows plus box class set) is fitted once.
    Returns (binding, fitness, evaluations, EA trace or None when exhaustive).
    """
    inner_seed = derive_seed(config.master_seed, "inner", fold, spec.algorithm)
    train_indices = np.asarray(train_indices)
    k = config.inner_folds
    folds = stratified_folds(
        y[train_indices], k, derive_rng(inner_seed, "stratified_assignments", k)
    )
    splits = []
    for inner in range(k):
        tr, te = train_indices[folds != inner], train_indices[folds == inner]
        splits.append((X[tr], y[tr], _class_pools(y, te), {}))

    def objective(binding: Binding) -> float:
        scores = []
        for inner, (X_tr, y_tr, pools, memo) in enumerate(splits):
            ensemble = train_ensemble(
                config.structure, binding, X_tr, y_tr, spec, config.feature_fraction, memo=memo
            )
            rng = derive_rng(inner_seed, "sample", inner, *binding.secondary)
            outcomes = _evaluate_system(
                ensemble, binding, config.structure, X, pools, config.inner_repetitions, rng
            )
            scores.append(sqcov_metric(outcomes))
        return float(np.mean(scores))

    fitness = Fitness(objective)
    trace = None
    if len(feasible) <= config.exhaustive_limit:
        best, value, _ = exhaustive_search(feasible, fitness)
    else:
        params = replace(
            config.ea_params, seed=derive_seed(config.master_seed, "ea", fold, spec.algorithm)
        )
        best, value, trace = ea_search(feasible, fitness, params)
    return best, value, fitness.evaluations, trace


def run_experiment(config: RunConfig) -> MetricsTable:
    """Outer stratified CV over Plain / RCtx / OCtx for every classifier spec."""
    sset = config.signalset
    X, y = feature_matrix(sset)
    # folds are dealt over the records in record-id order, whatever order they were loaded in
    by_id = np.argsort([r.record_id for r in sset.records], kind="stable")
    folds = np.empty(len(y), dtype=np.int64)
    folds[by_id] = stratified_folds(
        y[by_id],
        config.cv_folds,
        derive_rng(derive_seed(config.master_seed, "outer"), "stratified_folds", config.cv_folds),
    )
    feas = feasible_set(config.structure)
    G = len(generate_movement_sequences(config.structure))

    rows: list[MetricsRow] = []
    traces: dict = {}
    for spec in config.classifier_specs:
        for fold in range(config.cv_folds):
            train_idx, test_idx = np.flatnonzero(folds != fold), np.flatnonzero(folds == fold)
            pools = _class_pools(y, test_idx)

            rctx_rng = derive_rng(config.master_seed, "rctx", fold, spec.algorithm)
            rctx_binding = feas[int(rctx_rng.integers(0, len(feas)))]

            X_tr, y_tr = X[train_idx], y[train_idx]
            memo: dict = {}  # box fits of this (spec, fold) training set
            systems: dict[str, tuple] = {}
            if "plain" in config.methods:
                plain = train_plain(X_tr, y_tr, spec, config.feature_fraction, memo=memo)
                systems["plain"] = (plain, rctx_binding)
            if "rctx" in config.methods:
                ens = train_ensemble(
                    config.structure, rctx_binding, X_tr, y_tr, spec,
                    config.feature_fraction, memo=memo,
                )
                systems["rctx"] = (ens, rctx_binding)
            if "octx" in config.methods:
                best, _, _, trace = search_binding(config, spec, X, y, train_idx, fold, feas)
                if trace is not None:
                    traces[(spec.algorithm, fold)] = trace
                ens = train_ensemble(
                    config.structure, best, X_tr, y_tr, spec, config.feature_fraction, memo=memo
                )
                systems["octx"] = (ens, best)

            for method in config.methods:
                system, binding = systems[method]
                # plain shares rctx's binding and object draws for comparability
                sample_key = "rctx" if method == "plain" else method
                rng = derive_rng(
                    config.master_seed, "sample", fold, spec.algorithm, sample_key,
                    *binding.secondary,
                )
                outcomes = _evaluate_system(
                    system, binding, config.structure, X, pools, config.repetitions, rng
                )
                rows.append(
                    MetricsRow(
                        method=method,
                        classifier=spec.algorithm,
                        fold=fold,
                        zo=zo_metric(outcomes),
                        sqcov=sqcov_metric(outcomes),
                    )
                )
    return MetricsTable(
        rows=tuple(rows),
        sequences_per_fold=G * config.repetitions,
        optimizer_traces=traces,
    )
