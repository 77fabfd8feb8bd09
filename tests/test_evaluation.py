import numpy as np
import pytest

from ctxclf.classifiers import ClassifierSpec
from ctxclf.errors import CtxclfError
from ctxclf.evaluation import (
    MetricsTable,
    MovementSequence,
    RunConfig,
    SequenceOutcome,
    evaluate_sequence,
    generate_movement_sequences,
    run_experiment,
    sample_object_sequences,
    sequence_to_classes,
    sqcov_metric,
    zo_metric,
)
from ctxclf.structures import five_class_example, six_class_nested
from ctxclf.synth import synth_signalset
from test_runtime import obj, perfect_ensemble


def test_outcome_properties():
    o = SequenceOutcome(hits=(True, True, False, True, False))
    assert o.length == 5
    assert not o.error_free
    assert o.first_error == 3
    assert SequenceOutcome(hits=(True,) * 3).first_error is None


def test_sequence_generation_five_class():
    s = five_class_example()
    seqs = generate_movement_sequences(s)
    assert len(seqs) == 2  # one per leaf box
    by_path = {seq.path: seq for seq in seqs}
    # box 1 (opened by m3): opener, internals, then the closer on the way back
    assert by_path[(0, 1)].movements == (3, 4, 5, 6, 7, 3)
    assert by_path[(0, 2)].movements == (1, 8, 9, 10, 1)


def test_sequence_generation_nested_closers():
    s = six_class_nested()
    seqs = generate_movement_sequences(s)
    assert len(seqs) == 2
    nested = [q for q in seqs if q.path == (0, 1, 2)][0]
    # all boxes on the path close, innermost first
    assert nested.movements == (1, 4, 5, 6, 8, 7, 9, 10, 7, 1)
    # every box index appears on some path
    covered = {i for q in seqs for i in q.path}
    assert covered == {b.index for b in s.root.walk()}


def test_degenerate_structure_without_children():
    from conftest import make_structure

    s = make_structure(2, [(0, None, None, [1, 2])])
    # movements 3 and 4 are unplaced, so the structure is invalid, but the
    # sequence generator still emits the root member run
    seqs = generate_movement_sequences(s)
    assert len(seqs) == 1
    assert seqs[0].movements == (1, 2)


def test_sequence_to_classes():
    s = five_class_example()
    ens = perfect_ensemble(s)
    seq = generate_movement_sequences(s)[0]
    classes = sequence_to_classes(seq, s, ens.binding)
    assert classes == tuple(ens.binding.class_of_movement(m) for m in seq.movements)


def test_sample_object_sequences():
    rng = np.random.default_rng(0)
    pool = {1: [10, 11], 2: [20]}
    draws = sample_object_sequences((1, 2, 1), pool, R=7, rng=rng)
    assert len(draws) == 7
    for seq in draws:
        assert seq[0] in (10, 11) and seq[1] == 20 and seq[2] in (10, 11)
    with pytest.raises(CtxclfError):
        sample_object_sequences((1, 3), pool, R=1, rng=rng)


def test_evaluate_sequence_with_perfect_ensemble():
    s = five_class_example()
    ens = perfect_ensemble(s)
    for seq in generate_movement_sequences(s):
        classes = sequence_to_classes(seq, s, ens.binding)
        out = evaluate_sequence(ens, [obj(c) for c in classes], classes)
        assert out.error_free
    with pytest.raises(ValueError):
        evaluate_sequence(ens, [obj(1)], (1, 2))
    with pytest.raises(TypeError):
        evaluate_sequence("not a system", [], ())


def test_metric_oracles_random_outcomes():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        outcomes = [
            SequenceOutcome(hits=tuple(rng.random(int(rng.integers(1, 12))) < 0.7))
            for _ in range(n)
        ]
        zo = zo_metric(outcomes)
        sq = sqcov_metric(outcomes)
        # brute-force recomputation
        zo_ref = sum(all(o.hits) for o in outcomes) / n
        sq_ref = 0.0
        for o in outcomes:
            prefix = 0
            for h in o.hits:
                if not h:
                    break
                prefix += 1
            sq_ref += 1.0 if prefix == len(o.hits) else prefix / len(o.hits)
        sq_ref /= n
        assert abs(zo - zo_ref) < 1e-12
        assert abs(sq - sq_ref) < 1e-12
        assert sq >= zo - 1e-12
    with pytest.raises(ValueError):
        zo_metric([])


def test_sqcov_edge_value():
    # error at position 3 of a length-5 sequence -> (3 - 1) / 5
    o = SequenceOutcome(hits=(True, True, False, True, True))
    assert sqcov_metric([o]) == pytest.approx(0.4, abs=1e-15)


@pytest.fixture(scope="module")
def small_run():
    sset = synth_signalset(6, records_per_class=9, samples=128, seed=21)
    config = RunConfig(
        signalset=sset,
        structure=six_class_nested(),
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


def test_run_config_rejects_unknown_method():
    sset = synth_signalset(2, records_per_class=2, samples=64, seed=0)
    with pytest.raises(ValueError, match=r"methods\[1\]"):
        RunConfig(
            signalset=sset,
            structure=five_class_example(),
            classifier_specs=(ClassifierSpec(),),
            methods=("plain", "magic"),
        )
