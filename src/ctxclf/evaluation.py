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

from dataclasses import dataclass, field, fields

import numpy as np

from ctxclf.classifiers import ClassifierSpec
from ctxclf.context import Binding, ContextStructure, validate_structure
from ctxclf.errors import CtxclfError
from ctxclf.jsonfile import expect
from ctxclf.optimize import EAParams, Fitness, ea_search, exhaustive_search, feasible_set
from ctxclf.rng import derive_rng, derive_seed
from ctxclf.runtime import (
    ContextEnsemble,
    first_miss,
    initial_state,
    predict_tables,
    step,
    train_ensemble,
    train_plain,
)
from ctxclf.signals import SignalSet, stratified_folds
from ctxclf.features import feature_matrix

METHODS = ("plain", "rctx", "octx")


def generate_movement_sequences(structure: ContextStructure) -> list[tuple[int, ...]]:
    """The movement ids of one sequence per root-to-leaf path, in pre-order; every box
    appears on some path."""
    root = structure.root
    if not root.children:
        return [root.member_movements()]
    sequences = []
    for path in root.paths():
        if path[-1].children:
            continue
        boxes = [b for b in path if not b.is_root]
        moves = [m for b in boxes for m in (b.opener, *b.internal_movements)]
        moves.extend(b.opener for b in reversed(boxes))
        sequences.append(tuple(moves))
    return sequences


def sequence_to_classes(
    seq: tuple[int, ...], structure: ContextStructure, binding: Binding
) -> tuple[int, ...]:
    """Map each movement to its bound class (closer shares the opener's)."""
    return tuple(binding.class_of_movement(m) for m in seq)


def sample_object_sequences(
    class_seq, test_pool: dict[int, list[int]], R: int, rng: np.random.Generator
) -> list[list[int]]:
    """R object-index sequences, each position drawn uniformly with replacement.

    One draw call for all R x len(class_seq) positions, sequence by sequence:
    the same indices, and the same generator state after, as one
    ``rng.integers(0, pool size)`` per position.
    """
    pools = []
    for c in class_seq:
        if not test_pool.get(c):
            raise CtxclfError(f"test pool has no objects of class {c}")
        pools.append(test_pool[c])
    sizes = np.array([len(pool) for pool in pools] * R, dtype=np.int64)
    picks = iter(rng.integers(0, sizes).tolist())
    return [[pool[next(picks)] for pool in pools] for _ in range(R)]


def evaluate_sequence(system, objects, true_classes) -> tuple[int, int]:
    """(first miss or 0, length) of objects fed in order through the machine from the root,
    which stops at the first miss: the pair _evaluate_system reads from its tables."""
    if len(objects) != len(true_classes):
        raise ValueError("objects and true classes must have equal length")
    if not isinstance(system, ContextEnsemble):
        raise TypeError(f"cannot evaluate {type(system).__name__}")
    state = initial_state(system)
    for position, (x, truth) in enumerate(zip(objects, true_classes), 1):
        if step(system, state, x)[0] != truth:
            return position, len(true_classes)
    return 0, len(true_classes)


def _zo(scored: list[tuple[int, int]]) -> float:
    """ZO of (first miss, length) pairs, a first miss of 0 meaning none (see first_miss)."""
    return sum(1.0 for miss, _ in scored if not miss) / len(scored)


def _sqcov(scored: list[tuple[int, int]]) -> float:
    """SqCov of (first miss, length) pairs: each credits its prefix before the first miss."""
    total = 0.0
    for miss, length in scored:
        total += (miss - 1) / length if miss else 1.0
    return total / len(scored)


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
        violations = validate_structure(self.structure)
        if violations:
            raise ValueError(f"structure: {violations[0]}")
        have, want = self.structure.num_classes, self.signalset.num_classes
        if have != want:
            raise ValueError(f"structure: {have} classes, but the signalset has {want}")
        for key, items in (("methods", self.methods), ("classifiers", self.classifier_specs)):
            if not items:
                raise ValueError(f"{key}: expected a non-empty list")
        for i, m in enumerate(self.methods):
            if m not in METHODS:
                raise ValueError(f"methods[{i}]: unknown method {m!r}")
            if m in self.methods[:i]:
                raise ValueError(f"methods[{i}]: duplicate method {m!r}")
        algorithms = [spec.algorithm for spec in self.classifier_specs]
        for i, alg in enumerate(algorithms):  # every output and RNG stream is keyed by it
            if alg in algorithms[:i]:
                raise ValueError(f"classifiers[{i}].algorithm: {alg} given twice")
        # type and range checks up front, so a bad value fails before the run, not in the inner CV
        if not -(2**63) <= expect(self.master_seed, int, "master_seed", ValueError) < 2**63:
            raise ValueError(f"master_seed: {self.master_seed} does not fit a 64-bit integer")
        for name in ("cv_folds", "inner_folds"):  # bounded above in cli._check_fold_counts
            if expect(getattr(self, name), int, name, ValueError) < 2:
                raise ValueError(f"{name}: must be >= 2, got {getattr(self, name)}")
        # -1 reads as "no limit", yet it would always run the EA
        if expect(self.exhaustive_limit, int, "exhaustive_limit", ValueError) < 0:
            raise ValueError(f"exhaustive_limit: must be >= 0, got {self.exhaustive_limit}")
        for name in ("repetitions", "inner_repetitions"):
            if not 1 <= expect(getattr(self, name), int, name, ValueError) <= 10_000:
                raise ValueError(f"{name}: must be in [1, 10000], got {getattr(self, name)}")
        if not 0.0 < expect(self.feature_fraction, float, "feature_fraction", ValueError) <= 1.0:
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

    @classmethod
    def from_csv(cls, path) -> MetricsTable:
        """The rows of a metrics file; every method of a classifier must cover the same folds."""
        rows = []
        folds: dict[tuple[str, str], set[int]] = {}  # (classifier, method) -> folds
        try:  # a decode error can come from any line the loop reads
            with open(path, encoding="utf-8") as fh:
                header = fh.readline().strip()
                if header != METRICS_CSV_HEADER:
                    raise CtxclfError(f"{path}: unexpected header {header!r}")
                for lineno, line in enumerate(fh, start=2):
                    where = f"{path}: line {lineno}"
                    try:
                        method, clf, fold, zo, sqcov = line.strip().split(",")
                        row = MetricsRow(
                            method=method, classifier=clf, fold=int(fold),
                            zo=float(zo), sqcov=float(sqcov),
                        )
                    except ValueError:
                        raise CtxclfError(f"{where}: expected {header}, got {line.strip()!r}")
                    if method not in METHODS:
                        raise CtxclfError(f"{where}: unknown method {method!r}")
                    if row.fold < 0:
                        raise CtxclfError(f"{where}: fold must be >= 0, got {row.fold}")
                    for name, text in (("zo", zo), ("sqcov", sqcov)):
                        if not 0.0 <= getattr(row, name) <= 1.0:  # nan fails the comparison too
                            raise CtxclfError(
                                f"{where}: {name} must be a number in [0, 1], got {text!r}"
                            )
                    seen = folds.setdefault((clf, method), set())
                    if row.fold in seen:
                        raise CtxclfError(f"{where}: repeated row {method},{clf},{row.fold}")
                    seen.add(row.fold)
                    rows.append(row)
        except UnicodeDecodeError:
            raise CtxclfError(f"{path}: not UTF-8 text") from None
        if not rows:
            raise CtxclfError(f"{path}: no metric rows")
        methods = sorted({r.method for r in rows})
        for clf in sorted({r.classifier for r in rows}):
            per_method = {m: sorted(folds.get((clf, m), ())) for m in methods}
            if len({tuple(f) for f in per_method.values()}) > 1:  # paired fold by fold
                raise CtxclfError(f"{path}: {clf}: unequal folds per method {per_method}")
        return cls(rows=tuple(rows), sequences_per_fold=0)

    def values(self, method: str, classifier: str, criterion: str) -> list[float]:
        """One (method, classifier) cell's values in fold order, whatever the row order."""
        rows = [r for r in self.rows if r.method == method and r.classifier == classifier]
        return [getattr(r, criterion) for r in sorted(rows, key=lambda r: r.fold)]

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


def _class_pools(labels: np.ndarray) -> dict[int, list[int]]:
    """Each class's positions in ``labels``, in order."""
    pools: dict[int, list[int]] = {}
    for i, c in enumerate(labels.tolist()):
        pools.setdefault(c, []).append(i)
    return pools


def _evaluate_system(system, class_sequences, X, pools, R, rng, cache) -> list[tuple[int, int]]:
    """(first miss, length) of R object sequences per class sequence, drawn from the pools
    of positions in the held-out block X.

    Each box model predicts X once (or reads its table from ``cache``, see
    predict_tables); each sequence is then walked over those tables up to
    its first miss (see first_miss), all that ZO and SqCov read of it.
    """
    tables = predict_tables(system, X, cache)
    scored = []
    for classes in class_sequences:
        for objects in sample_object_sequences(classes, pools, R, rng):
            scored.append((first_miss(system.transitions, tables, objects, classes), len(classes)))
    return scored


def _splits(X, y, order, k: int, rng: np.random.Generator):
    """Per stratified fold of the rows dealt in ``order``: the training block X, y and the
    held-out block X (rows sorted), each class's positions in the held-out block, and a fresh
    box-fit memo and prediction cache (keyed by class set). No other code indexes X by row."""
    folds = stratified_folds(y[order], k, rng)
    for fold in range(k):
        train, test = np.sort(order[folds != fold]), np.sort(order[folds == fold])
        yield X[train], y[train], X[test], _class_pools(y[test]), {}, {}


def search_binding(
    config: RunConfig, spec, X, y, fold: int, feasible: list[Binding]
) -> tuple[Binding, float, int, list | None]:
    """The OCtx binding of the records X, y: the best mean SqCov under inner cross-validation.

    Up to ``exhaustive_limit`` feasible bindings every one is evaluated;
    above it the EA searches, seeded from the master seed, fold and algorithm.
    Each inner fold keeps one box-fit memo and one prediction cache for all
    the bindings evaluated, so a box problem (inner training rows plus box
    class set) is fitted and predicted once.
    Returns (binding, fitness, evaluations, EA trace or None when exhaustive).
    """
    inner_seed = derive_seed(config.master_seed, "inner", fold, spec.algorithm)
    k = config.inner_folds
    fold_rng = derive_rng(inner_seed, "stratified_assignments", k)
    splits = list(_splits(X, y, np.arange(len(y)), k, fold_rng))
    sequences = generate_movement_sequences(config.structure)

    def objective(binding: Binding) -> float:
        class_sequences = [sequence_to_classes(s, config.structure, binding) for s in sequences]
        scores = []
        for inner, (X_tr, y_tr, X_te, pools, memo, cache) in enumerate(splits):
            ensemble = train_ensemble(
                config.structure, binding, X_tr, y_tr, spec, config.feature_fraction, memo=memo
            )
            rng = derive_rng(inner_seed, "sample", inner, *binding.secondary)
            scored = _evaluate_system(
                ensemble, class_sequences, X_te, pools, config.inner_repetitions, rng, cache
            )
            scores.append(_sqcov(scored))
        return float(np.mean(scores))

    fitness = Fitness(objective)
    trace = None
    if len(feasible) <= config.exhaustive_limit:
        best, value, _ = exhaustive_search(feasible, fitness)
    else:
        seed = derive_seed(config.master_seed, "ea", fold, spec.algorithm)
        best, value, trace = ea_search(feasible, fitness, config.ea_params, seed)
    return best, value, fitness.evaluations, trace


def run_experiment(config: RunConfig) -> MetricsTable:
    """Outer stratified CV over Plain / RCtx / OCtx for every classifier spec."""
    sset = config.signalset
    feas = feasible_set(config.structure)  # first: a set above the guard is refused at once
    X, y = feature_matrix(sset)
    # folds are dealt over the records in record-id order, whatever order they were loaded in
    by_id = np.argsort([r.record_id for r in sset.records], kind="stable")
    sequences = generate_movement_sequences(config.structure)

    rows: list[MetricsRow] = []
    traces: dict = {}
    for spec in config.classifier_specs:
        outer_rng = derive_rng(
            derive_seed(config.master_seed, "outer"), "stratified_folds", config.cv_folds
        )
        splits = _splits(X, y, by_id, config.cv_folds, outer_rng)  # memo and cache per (spec, fold)
        for fold, (X_tr, y_tr, X_te, pools, memo, cache) in enumerate(splits):
            rctx_rng = derive_rng(config.master_seed, "rctx", fold, spec.algorithm)
            rctx_binding = feas[int(rctx_rng.integers(0, len(feas)))]
            for method in config.methods:
                binding = rctx_binding  # plain shares rctx's binding and object draws
                if method == "octx":
                    binding, _, _, trace = search_binding(config, spec, X_tr, y_tr, fold, feas)
                    if trace is not None:
                        traces[(spec.algorithm, fold)] = trace
                if method == "plain":
                    system = train_plain(X_tr, y_tr, spec, config.feature_fraction, memo=memo)
                else:
                    system = train_ensemble(
                        config.structure, binding, X_tr, y_tr, spec,
                        config.feature_fraction, memo=memo,
                    )
                sample_key = "rctx" if method == "plain" else method
                rng = derive_rng(
                    config.master_seed, "sample", fold, spec.algorithm, sample_key,
                    *binding.secondary,
                )
                classes = [sequence_to_classes(s, config.structure, binding) for s in sequences]
                scored = _evaluate_system(
                    system, classes, X_te, pools, config.repetitions, rng, cache
                )
                rows.append(
                    MetricsRow(
                        method=method,
                        classifier=spec.algorithm,
                        fold=fold,
                        zo=_zo(scored),
                        sqcov=_sqcov(scored),
                    )
                )
    return MetricsTable(
        rows=tuple(rows),
        sequences_per_fold=len(sequences) * config.repetitions,
        optimizer_traces=traces,
    )
