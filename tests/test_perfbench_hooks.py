"""The benchmark's span wrappers still find every package name they wrap.

``perfbench/spans.py`` looks each wrapped function up with ``vars(owner)[attr]``,
so renaming or deleting one of those names breaks every benchmark run with a
``KeyError``. These tests install the wrappers and put the originals back.
A caller that reaches a wrapped function through a local alias instead of the
module attribute would bypass its span and zero a per-layer metric, so a
tiny run must record calls of each wrapped layer it exercises. The
benchmark's own smoke run, on a copy of the tree, checks every other name and
option its workloads use.
"""

import importlib.util
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

from ctxclf import evaluation, optimize
from ctxclf.classifiers import ClassifierSpec
from ctxclf.synth import synth_signalset
from conftest import structure_file

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_package_spans_install_and_uninstall():
    spans = load_spans()
    original = optimize.enumerate_feasible
    rec = spans.SpanRecorder()
    try:
        spans.install_package_spans(rec)
        assert optimize.enumerate_feasible.__wrapped__ is original
    finally:
        stale = rec.uninstall()
    assert stale == []
    assert optimize.enumerate_feasible is original


def test_a_run_calls_every_layer_through_its_span():
    spans = load_spans()
    config = evaluation.RunConfig(
        signalset=synth_signalset(6, records_per_class=4, samples=128, seed=3),
        structure=structure_file("six_class"),
        classifier_specs=(ClassifierSpec(algorithm="GaussianNB"),),
        cv_folds=2,
        inner_folds=2,
        repetitions=2,
        inner_repetitions=1,
        master_seed=1,
    )
    rec = spans.SpanRecorder()
    try:
        spans.install_package_spans(rec)
        evaluation.run_experiment(config)
    finally:
        stale = rec.uninstall()
    assert stale == []
    calls = Counter(rec.names[i] for i in rec.name_of)
    for name in (
        "evaluation.run_experiment",
        "features.feature_matrix",
        "optimize.feasible_set",
        "runtime.train_ensemble",
        "runtime.train_plain",
        "features.select_features",
        "classifiers.train",
        "classifiers.predict",
        "optimize.exhaustive_search",
        "optimize.fitness",
        "evaluation.sample_object_sequences",
    ):
        assert calls[name] > 0, name


def test_benchmark_smoke_run_passes(tmp_path):
    """Every workload at its smoke size, traced and untraced, with the harness checks."""
    skip = shutil.ignore_patterns("_work", "_out", "__pycache__")
    for name in ("src", "perfbench", "structures"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "SMOKE PASS"
