"""In-memory span recorder that wraps the package's public functions.

Callers inside ctxclf bind names with ``from ... import``, so each wrapper is
installed on the module where the caller looks the name up (for example
``ctxclf.runtime.select_features``), and ``Fitness.__call__`` on the class.
A span is (name, start, end, parent span, run id). Spans stay in flat arrays
until the run ends; self time is a span's duration minus its children's.
Work the recorder itself does at a boundary (hashing inputs, for instance)
runs in a ``perfbench.hook`` span, so it is not charged to the program.
"""

from __future__ import annotations

import hashlib
from array import array
from time import perf_counter

import numpy as np

HOOK = "perfbench.hook"


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.run_id = 0
        self.counters: dict[tuple[int, str], float] = {}
        self._installed: list[tuple[object, str, object]] = []
        self._hook_id = self.name_id(HOOK)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: str, amount: float = 1.0) -> None:
        k = (self.run_id, key)
        self.counters[k] = self.counters.get(k, 0.0) + amount

    def _open(self, nid: int) -> int:
        sid = len(self.name_of)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        return self.wrap(fn, name)(*args, **kwargs)

    def wrap(self, fn, name: str, pre=None, post=None):
        """A function that records a span around fn.

        pre(args, kwargs) runs inside the span just before the call and its
        return value is handed to post(token, args, kwargs, result), which
        runs afterwards in a hook span.
        """
        nid = self.name_id(name)
        start, end, stack = self.start, self.end, self._stack
        open_span, hook = self._open, self._run_hook

        def wrapper(*args, **kwargs):
            sid = open_span(nid)
            token = pre(args, kwargs) if pre is not None else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                start[sid] = t0
                end[sid] = t1
                stack.pop()
            if post is not None:
                hook(post, token, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _run_hook(self, post, token, args, kwargs, result):
        sid = self._open(self._hook_id)
        t0 = perf_counter()
        try:
            post(token, args, kwargs, result)
        finally:
            self.start[sid] = t0
            self.end[sid] = perf_counter()
            self._stack.pop()

    # -- installing wrappers on the package ----------------------------------

    def install(self, owner, attr: str, name: str, pre=None, post=None) -> None:
        original = vars(owner)[attr]
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, pre, post))

    def uninstall(self) -> list[str]:
        """Put every original back; return the attributes that did not revert."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        stale = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._installed
            if vars(owner).get(attr) is not original
        ]
        self._installed.clear()
        return stale

    # -- aggregation -----------------------------------------------------------

    def arrays(self):
        """(name id, parent, run id, duration, self time) per span."""
        names = np.array(self.name_of, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        run = np.array(self.run, dtype=np.int64)
        dur = np.array(self.end, dtype=np.float64) - np.array(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return names, parent, run, dur, dur - child

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            span_names=np.array(self.names),
            name=np.array(self.name_of, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            run=np.array(self.run, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
        )


def array_digest(*parts) -> str:
    h = hashlib.sha1()
    for p in parts:
        a = np.ascontiguousarray(p)
        h.update(str((a.dtype, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def install_package_spans(rec: SpanRecorder) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    import ctxclf.cli as cli
    import ctxclf.evaluation as evaluation
    import ctxclf.features as features
    import ctxclf.optimize as optimize
    import ctxclf.runtime as runtime

    def count_records(_, args, kwargs, sset):
        rec.count("signals.records", len(sset.records))

    def count_feasible(_, args, kwargs, feasible):
        rec.count("context.feasible.count", len(feasible))
        rec.count("context.feasible.calls")

    distinct: dict[int, set] = {}

    def hash_selection(_, args, kwargs, mask):
        matrix, labels = args[0], args[1]
        fraction = kwargs.get("fraction", args[2] if len(args) > 2 else None)
        key = array_digest(matrix, labels, np.array([fraction], dtype=np.float64))
        distinct.setdefault(rec.run_id, set()).add(key)
        rec.counters[(rec.run_id, "features.select_features.distinct")] = len(
            distinct[rec.run_id]
        )

    def repair_result(_, args, kwargs, binding):
        cand = tuple(int(v) for v in args[0])
        rec.count("optimize.repair.already_feasible", binding.secondary == cand)

    def evaluations_before(args, kwargs):
        return args[0].evaluations

    def evaluations_after(before, args, kwargs, _):
        rec.count("optimize.fitness.evaluations", args[0].evaluations - before)

    rec.install(cli, "load_run_config", "cli.load_run_config")
    rec.install(cli, "load_signalset", "signals.load_signalset", post=count_records)
    rec.install(cli, "load_structure", "context.load_structure")
    rec.install(features, "dwt_db6", "wavelet.dwt_db6")
    rec.install(features, "extract_features", "features.extract_features")
    rec.install(features, "feature_matrix", "features.feature_matrix")
    rec.install(evaluation, "feature_matrix", "features.feature_matrix")
    rec.install(features, "mutual_information", "features.mutual_information")
    rec.install(runtime, "select_features", "features.select_features", post=hash_selection)
    rec.install(runtime, "train", "classifiers.train")
    rec.install(runtime, "predict", "classifiers.predict")
    rec.install(optimize, "enumerate_feasible", "context.enumerate_feasible", post=count_feasible)
    rec.install(optimize, "feasible_set", "optimize.feasible_set")
    rec.install(evaluation, "feasible_set", "optimize.feasible_set")
    rec.install(evaluation, "exhaustive_search", "optimize.exhaustive_search")
    rec.install(evaluation, "ea_search", "optimize.ea_search")
    rec.install(optimize, "repair", "optimize.repair", post=repair_result)
    rec.install(
        optimize.Fitness, "__call__", "optimize.fitness",
        pre=evaluations_before, post=evaluations_after,
    )
    rec.install(runtime, "train_ensemble", "runtime.train_ensemble")
    rec.install(evaluation, "train_ensemble", "runtime.train_ensemble")
    rec.install(evaluation, "train_plain", "runtime.train_plain")
    rec.install(runtime, "step", "runtime.step")
    rec.install(evaluation, "step", "runtime.step")
    rec.install(evaluation, "evaluate_sequence", "evaluation.evaluate_sequence")
    rec.install(evaluation, "sample_object_sequences", "evaluation.sample_object_sequences")
    rec.install(evaluation, "run_experiment", "evaluation.run_experiment")
