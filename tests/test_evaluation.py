import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ctxclf
from ctxclf import evaluation
from ctxclf.classifiers import ALGORITHMS, ClassifierSpec
from ctxclf.errors import CtxclfError
from ctxclf.evaluation import (
    MetricsTable,
    RunConfig,
    evaluate_sequence,
    generate_movement_sequences,
    run_experiment,
    sample_object_sequences,
    sequence_to_classes,
)
from ctxclf.runtime import step
from ctxclf.synth import synth_signalset
from conftest import STRUCTURES, make_structure, structure_file
from test_runtime import obj, perfect_ensemble


def leaf_paths(s):
    """The box indices from the root to each leaf box, in the pre-order of the sequences."""
    return [tuple(b.index for b in path) for path in s.root.paths() if not path[-1].children]


def test_sequence_generation_five_class():
    s = structure_file("five_class")
    seqs = generate_movement_sequences(s)
    assert len(seqs) == len(leaf_paths(s)) == 2  # one per leaf box
    by_path = dict(zip(leaf_paths(s), seqs))
    # box 1 (opened by m3): opener, internals, then the closer on the way back
    assert by_path[(0, 1)] == (3, 4, 5, 6, 7, 3)
    assert by_path[(0, 2)] == (1, 8, 9, 10, 1)


def test_sequence_generation_nested_closers():
    s = structure_file("six_class")
    seqs = generate_movement_sequences(s)
    assert len(seqs) == len(leaf_paths(s)) == 2
    by_path = dict(zip(leaf_paths(s), seqs))
    # all boxes on the path close, innermost first
    assert by_path[(0, 1, 2)] == (1, 4, 5, 6, 8, 7, 9, 10, 7, 1)
    # every box index appears on some path
    covered = {i for path in by_path for i in path}
    assert covered == {b.index for b in s.root.walk()}


def test_degenerate_structure_without_children():
    s = make_structure(2, [(0, None, None, [1, 2])])
    # movements 3 and 4 are unplaced, so the structure is invalid, but the
    # sequence generator still emits the root member run
    seqs = generate_movement_sequences(s)
    assert len(seqs) == 1
    assert seqs[0] == (1, 2)


def test_sequence_to_classes():
    s = structure_file("five_class")
    ens = perfect_ensemble(s)
    seq = generate_movement_sequences(s)[0]
    classes = sequence_to_classes(seq, s, ens.binding)
    assert classes == tuple(ens.binding.class_of_movement(m) for m in seq)


def test_sample_object_sequences():
    rng = np.random.default_rng(0)
    pool = {1: [10, 11], 2: [20]}
    draws = sample_object_sequences((1, 2, 1), pool, R=7, rng=rng)
    assert len(draws) == 7
    for seq in draws:
        assert seq[0] in (10, 11) and seq[1] == 20 and seq[2] in (10, 11)
    with pytest.raises(CtxclfError, match=r"^test pool has no objects of class 3$"):
        sample_object_sequences((1, 3), pool, R=1, rng=rng)


def test_evaluate_sequence_with_perfect_ensemble():
    s = structure_file("five_class")
    ens = perfect_ensemble(s)
    for seq in generate_movement_sequences(s):
        classes = sequence_to_classes(seq, s, ens.binding)
        assert evaluate_sequence(ens, [obj(c) for c in classes], classes) == (0, len(classes))
    with pytest.raises(ValueError):
        evaluate_sequence(ens, [obj(1)], (1, 2))
    with pytest.raises(TypeError):
        evaluate_sequence("not a system", [], ())


def test_evaluate_sequence_steps_up_to_the_first_miss(monkeypatch):
    """The machine steps (first miss) times when a position misses, length times when none
    does. A true class of 0, which no box predicts, makes the miss."""
    s = structure_file("five_class")
    ens = perfect_ensemble(s)
    calls = []

    def counted(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(evaluation, "step", counted)
    for seq in generate_movement_sequences(s):
        classes = sequence_to_classes(seq, s, ens.binding)
        objects, n = [obj(c) for c in classes], len(classes)
        for miss in range(1, n + 1):
            truth = classes[: miss - 1] + (0,) + classes[miss:]
            calls.clear()
            assert evaluate_sequence(ens, objects, truth) == (miss, n)
            assert len(calls) == miss
        calls.clear()
        assert evaluate_sequence(ens, objects, classes) == (0, n)
        assert len(calls) == n


@pytest.fixture(scope="module")
def small_run():
    sset = synth_signalset(6, records_per_class=9, samples=128, seed=21)
    config = RunConfig(
        signalset=sset,
        structure=structure_file("six_class"),
        classifier_specs=(ClassifierSpec(algorithm="GaussianNB"),),
        cv_folds=3,
        inner_folds=2,
        repetitions=4,
        inner_repetitions=2,
        master_seed=5,
    )
    return config, run_experiment(config)


def test_run_experiment_shape_and_k(small_run):
    config, table = small_run
    assert len(table.rows) == 3 * 3  # methods x folds
    G = len(generate_movement_sequences(config.structure))
    assert table.sequences_per_fold == G * config.repetitions
    for row in table.rows:
        assert 0.0 <= row.zo <= row.sqcov <= 1.0


def test_run_experiment_reproducible(small_run):
    config, table = small_run
    again = run_experiment(config)
    assert again.rows == table.rows


def test_run_experiment_subset_of_methods_equals_full_run_rows(small_run):
    """Each method is scored on its own: dropping rctx and reordering leaves the other rows."""
    config, table = small_run
    subset = run_experiment(replace(config, methods=("octx", "plain")))
    expected = [
        row
        for fold in range(config.cv_folds)
        for method in ("octx", "plain")
        for row in table.rows
        if (row.fold, row.method) == (fold, method)
    ]
    assert list(subset.rows) == expected
    assert subset.sequences_per_fold == table.sequences_per_fold


def test_metrics_table_csv_and_summary(small_run):
    _, table = small_run
    csv = table.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "method,classifier,fold,zo,sqcov"
    assert len(lines) == len(table.rows) + 1
    summary = table.summary()
    cell = summary["cells"]["GaussianNB"]["octx"]["sqcov"]
    vals = table.values("octx", "GaussianNB", "sqcov")
    assert cell["mean"] == pytest.approx(np.mean(vals))
    assert cell["std"] == pytest.approx(np.std(vals, ddof=1))


def test_metrics_table_reads_back_what_it_writes(small_run, tmp_path):
    """from_csv is to_csv's reader: the same rows, float bits included; K is not in the file."""
    _, table = small_run
    path = tmp_path / "metrics.csv"
    path.write_text(table.to_csv())
    again = MetricsTable.from_csv(path)
    assert again.rows == table.rows
    assert again.to_csv() == table.to_csv()
    path.write_text("method,classifier,fold,zo\n")
    with pytest.raises(CtxclfError, match="unexpected header 'method,classifier,fold,zo'"):
        MetricsTable.from_csv(path)


def test_run_config_rejects_unknown_method():
    sset = synth_signalset(5, records_per_class=2, samples=64, seed=0)
    with pytest.raises(ValueError, match=r"methods\[1\]"):
        RunConfig(
            signalset=sset,
            structure=structure_file("five_class"),
            classifier_specs=(ClassifierSpec(),),
            methods=("plain", "magic"),
        )


def test_run_config_rejects_a_repeated_method():
    sset = synth_signalset(5, records_per_class=2, samples=64, seed=0)
    with pytest.raises(ValueError, match=r"^methods\[1\]: duplicate method 'octx'$"):
        RunConfig(
            signalset=sset,
            structure=structure_file("five_class"),
            classifier_specs=(ClassifierSpec(),),
            methods=("octx", "octx"),
        )


def test_run_config_rejects_a_negative_exhaustive_limit():
    """0 is a limit (the EA always runs); -1 is not "no limit"."""
    sset = synth_signalset(5, records_per_class=2, samples=64, seed=0)
    structure = structure_file("five_class")
    assert RunConfig(signalset=sset, structure=structure, exhaustive_limit=0).exhaustive_limit == 0
    with pytest.raises(ValueError, match=r"^exhaustive_limit: must be >= 0, got -1$"):
        RunConfig(signalset=sset, structure=structure, exhaustive_limit=-1)


def test_a_run_leaves_numpy_ma_unimported():
    """The fit path takes a label set from a Python set: a plain np.unique(y) imports numpy.ma
    (about 0.5 MB) to ask whether y is masked."""
    src = str(Path(ctxclf.__file__).resolve().parent.parent)
    code = f"""
import sys
from ctxclf.classifiers import ClassifierSpec
from ctxclf.context import load_structure
from ctxclf.evaluation import RunConfig, run_experiment
from ctxclf.synth import synth_signalset
specs = tuple(ClassifierSpec(algorithm=a, num_trees=3) for a in {ALGORITHMS!r})
config = RunConfig(
    signalset=synth_signalset(6, records_per_class=4, samples=128, seed=21),
    structure=load_structure({str(STRUCTURES / "six_class.json")!r}),
    classifier_specs=specs, cv_folds=2, inner_folds=2, repetitions=2, inner_repetitions=1,
)
assert len(run_experiment(config).rows) == 3 * 3 * 2
print("numpy.ma" in sys.modules)
"""
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"
