import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from ctxclf.cli import ConfigError, load_run_config, main
from ctxclf.context import load_structure, structure_to_dict
from ctxclf.evaluation import RunConfig
from ctxclf.signals import save_signalset
from ctxclf.structures import five_class_example, six_class_nested
from ctxclf.synth import synth_signalset
from conftest import make_structure


@pytest.fixture()
def five_path(tmp_path):
    p = tmp_path / "five.json"
    p.write_text(json.dumps(structure_to_dict(five_class_example())))
    return p


@pytest.fixture()
def run_setup(tmp_path):
    sset = synth_signalset(6, records_per_class=9, samples=128, seed=13)
    save_signalset(sset, tmp_path / "sset")
    (tmp_path / "six.json").write_text(json.dumps(structure_to_dict(six_class_nested())))
    config = {
        "signalset": str(tmp_path / "sset"),
        "structure": str(tmp_path / "six.json"),
        "methods": ["plain", "rctx", "octx"],
        "classifiers": [{"algorithm": "GaussianNB"}],
        "cv_folds": 3,
        "inner_folds": 2,
        "repetitions": 4,
        "inner_repetitions": 2,
        "master_seed": 3,
        "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    return tmp_path, cfg_path, config


def test_validate_ok(five_path, capsys):
    assert main(["validate", str(five_path)]) == 0
    assert capsys.readouterr().out.strip() == "OK, C=5, M=10, L=2"


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 1
    assert "ERROR" in capsys.readouterr().err


def test_validate_malformed_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["validate", str(p)]) == 1
    assert "line 1" in capsys.readouterr().err


def test_validate_violations(tmp_path, capsys):
    s = make_structure(3, [(0, None, None, [2, 3]), (1, 0, 1, [4, 5])])  # m6 unplaced
    p = tmp_path / "s.json"
    p.write_text(json.dumps(structure_to_dict(s)))
    assert main(["validate", str(p)]) == 1
    assert "violation" in capsys.readouterr().err


def test_enumerate_structure(five_path, tmp_path, capsys):
    out = tmp_path / "feasible.json"
    assert main(["enumerate", str(five_path), "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "12"
    payload = json.loads(out.read_text())
    assert payload["count"] == 12
    assert len(payload["bindings"]) == 12
    assert all(sorted(b) == [1, 2, 3, 4, 5] for b in payload["bindings"])


def test_enumerate_unconstrained_table(tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text(
        json.dumps(
            {"num_classes": 5, "permitted": {str(k): [1, 2, 3, 4, 5] for k in range(1, 6)}}
        )
    )
    assert main(["enumerate", "--table", str(table)]) == 0
    assert capsys.readouterr().out.strip() == "120"


def write_infeasible_structure(path):
    # valid tree, but movements 4 and 5 both only admit class 3
    s = make_structure(
        3,
        [
            (0, None, None, []),
            (1, 0, 1, [2, 4]),
            (2, 0, 2, [1, 5]),
            (3, 0, 3, [6]),
        ],
    )
    path.write_text(json.dumps(structure_to_dict(s)))
    return path


def test_enumerate_infeasible(tmp_path, capsys):
    p = write_infeasible_structure(tmp_path / "inf.json")
    assert main(["enumerate", str(p)]) == 2
    assert capsys.readouterr().out.strip() == "0"


def test_enumerate_requires_input(capsys):
    assert main(["enumerate"]) == 1


def test_run_and_report(run_setup, capsys):
    tmp_path, cfg_path, config = run_setup
    assert main(["run", "--config", str(cfg_path)]) == 0
    out = tmp_path / "out"
    assert (out / "metrics.csv").is_file()
    assert (out / "summary.json").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["master_seed"] == 3
    assert len(manifest["config_hash"]) == 64
    assert manifest["config"] == config

    first = (out / "metrics.csv").read_text()
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert (out / "metrics.csv").read_text() == first  # bit-exact replay

    capsys.readouterr()
    report_path = tmp_path / "report.json"
    assert main(["report", "--metrics", str(out / "metrics.csv"), "--out", str(report_path)]) == 0
    text = capsys.readouterr().out
    assert "GaussianNB" in text and "avg rank" in text
    report = json.loads(report_path.read_text())
    assert set(report) == {"summary", "ranks", "tests"}


def test_optimize_writes_bindings(run_setup, capsys):
    tmp_path, cfg_path, _ = run_setup
    assert main(["optimize", "--config", str(cfg_path)]) == 0
    payload = json.loads((tmp_path / "out" / "bindings.json").read_text())
    entry = payload["GaussianNB"]
    assert sorted(entry["binding"]) == [1, 2, 3, 4, 5, 6]
    assert entry["mode"] == "exhaustive"


def test_run_ea_path_writes_traces(run_setup, capsys):
    tmp_path, cfg_path, config = run_setup
    # force the EA branch by dropping the exhaustive threshold below |S| = 8
    cfg = dict(
        config,
        methods=["octx"],
        exhaustive_limit=4,
        ea={"max_generations": 5},
        output_dir=str(tmp_path / "ea_out"),
    )
    p = tmp_path / "ea_config.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(p)]) == 0
    traces = list((tmp_path / "ea_out").glob("trace_GaussianNB_fold*.csv"))
    assert len(traces) == 3  # one per outer fold
    header = traces[0].read_text().splitlines()[0]
    assert header == "generation,best_fitness,mean_fitness,evaluations"


def test_config_field_path_errors(run_setup):
    tmp_path, cfg_path, config = run_setup
    bad = dict(config, classifiers=[{"algorithm": "SVM"}])
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(ConfigError, match=r"classifiers\[0\]\.algorithm"):
        load_run_config(p)
    bad = dict(config, cv_folds="ten")
    p.write_text(json.dumps(bad))
    with pytest.raises(ConfigError, match="cv_folds"):
        load_run_config(p)
    bad = dict(config, ea={"population": 10})
    p.write_text(json.dumps(bad))
    with pytest.raises(ConfigError, match=r"ea\.population"):
        load_run_config(p)
    bad = dict(config, ea={"seed": 3})  # the EA seed is derived from the master seed
    p.write_text(json.dumps(bad))
    with pytest.raises(ConfigError, match=r"ea\.seed: unknown field"):
        load_run_config(p)
    bad = dict(config, methods=["plain", "magic"])
    p.write_text(json.dumps(bad))
    with pytest.raises(ConfigError, match=r"methods\[1\]"):
        load_run_config(p)
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="root"):
        load_run_config(p)


def test_run_reports_config_error(run_setup, capsys):
    tmp_path, cfg_path, config = run_setup
    bad = dict(config, repetitions=True)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert main(["run", "--config", str(p)]) == 1
    assert "repetitions" in capsys.readouterr().err


def _with_field(config, path, value):
    """`config` with `value` at `path`: a root key, `ea.<key>` or `classifiers[0].<key>`."""
    head, _, key = path.rpartition(".")
    if head == "ea":
        return dict(config, ea={key: value})
    if head == "classifiers[0]":
        return dict(config, classifiers=[dict(config["classifiers"][0], **{key: value})])
    return dict(config, **{key: value})


def _rejected_before_run(tmp_path, capsys, config, prefix):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(config))
    with pytest.raises(ConfigError, match="^" + re.escape(prefix)):
        load_run_config(p)
    assert main(["run", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR: {prefix}") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()  # rejected before the run starts


@pytest.mark.parametrize(
    "field, value",
    [
        ("feature_fraction", 0),
        ("feature_fraction", 1.5),
        ("cv_folds", 1),
        ("inner_folds", 1),
        ("repetitions", 0),
        ("inner_repetitions", 0),
        ("classifiers[0].num_trees", 0),
        ("ea.tournament_size", 0),
        ("ea.crossover_op", "OX3"),
        ("ea.crossover_prob", 1.5),
    ],
)
def test_run_rejects_out_of_range_field(run_setup, capsys, field, value):
    tmp_path, _, config = run_setup
    _rejected_before_run(tmp_path, capsys, _with_field(config, field, value), f"{field}: ")


@pytest.mark.parametrize("field", ["cv_fold", "classifiers[0].num_tree", "ea.populaton_size"])
def test_run_rejects_unknown_field(run_setup, capsys, field):
    tmp_path, _, config = run_setup
    _rejected_before_run(tmp_path, capsys, _with_field(config, field, 2), f"{field}: unknown field")


def test_run_rejects_structure_class_count(run_setup, five_path, capsys):
    tmp_path, _, config = run_setup
    bad = dict(config, structure=str(five_path))  # five classes, six in the signalset
    _rejected_before_run(tmp_path, capsys, bad, "structure: 5 classes, but the signalset has 6")


def test_minimal_config_loads_dataclass_defaults(run_setup):
    tmp_path, _, config = run_setup
    p = tmp_path / "minimal.json"
    p.write_text(json.dumps({"signalset": config["signalset"], "structure": config["structure"]}))
    loaded, raw, out_dir = load_run_config(p)
    expected = RunConfig(loaded.signalset, load_structure(config["structure"]))
    for f in fields(RunConfig):
        if f.name != "signalset":  # a SignalSet holds arrays
            assert getattr(loaded, f.name) == getattr(expected, f.name), f.name
    assert out_dir == Path("out")


def _one_line_error(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("ERROR: ") and err.count("\n") == 1, err
    assert all(f in err for f in fragments), err


def test_run_reports_meta_missing_key(run_setup, capsys):
    tmp_path, cfg_path, _ = run_setup
    meta_path = tmp_path / "sset" / "meta.json"
    meta = json.loads(meta_path.read_text())
    del meta["sample_rate_hz"]
    meta_path.write_text(json.dumps(meta))
    assert main(["run", "--config", str(cfg_path)]) == 1
    _one_line_error(capsys, "meta.json", "sample_rate_hz")


def test_run_reports_label_out_of_range(run_setup, capsys):
    tmp_path, cfg_path, _ = run_setup
    records = tmp_path / "sset" / "records"
    first = sorted(records.glob("*.csv"))[0]
    (records / "extra_7.csv").write_text(first.read_text())  # six classes
    assert main(["run", "--config", str(cfg_path)]) == 1
    _one_line_error(capsys, "extra_7", "label 7")


def test_enumerate_table_bad_json(tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text("{not json")
    assert main(["enumerate", "--table", str(table)]) == 1
    _one_line_error(capsys, "table.json", "line 1")


@pytest.mark.parametrize(
    "fields, fragments",
    [
        ({"cv_folds": 10}, ("cv_folds: 10", "9 records")),  # nine records per class
        ({"inner_folds": 7}, ("inner_folds: 7", "6 records")),  # 9 - 3 in each training fold
    ],
    ids=["cv_folds", "inner_folds"],
)
def test_run_rejects_folds_above_class_count(run_setup, capsys, fields, fragments):
    tmp_path, _, config = run_setup
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(dict(config, **fields)))
    assert main(["run", "--config", str(p)]) == 1
    _one_line_error(capsys, *fragments)
    assert not (tmp_path / "out").exists()  # rejected before the run starts


def _three_class_config(tmp_path, config):
    """run_setup's config on the infeasible three-class structure and a three-class set."""
    save_signalset(synth_signalset(3, records_per_class=6, samples=128, seed=13), tmp_path / "s3")
    p = tmp_path / "inf_config.json"
    p.write_text(
        json.dumps(
            dict(
                config,
                signalset=str(tmp_path / "s3"),
                structure=str(write_infeasible_structure(tmp_path / "inf.json")),
                methods=["plain"],
            )
        )
    )
    return p


@pytest.mark.parametrize("command", ["run", "optimize"])
def test_infeasible_structure_exits_2(run_setup, capsys, command):
    tmp_path, _, config = run_setup
    p = _three_class_config(tmp_path, config)
    assert main([command, "--config", str(p)]) == 2
    _one_line_error(capsys, "feasible set is empty")
    assert not (tmp_path / "out").exists()


def test_optimize_rejects_inner_folds_above_class_count(run_setup, capsys):
    tmp_path, _, config = run_setup
    save_signalset(synth_signalset(6, records_per_class=6, samples=128, seed=13), tmp_path / "s6")
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(dict(config, signalset=str(tmp_path / "s6"), inner_folds=9)))
    assert main(["optimize", "--config", str(p)]) == 1
    _one_line_error(capsys, "inner_folds: 9", "6 records")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "body, fragments",
    [
        ("plain,GaussianNB,0,0.5\n", ("metrics.csv", "line 2")),
        ("plain,GaussianNB,x,0.5,0.5\n", ("metrics.csv", "line 2")),
        ("plain,GaussianNB,0,0.5,0.5\nrctx,RandomForest,0,0.5,0.5\n", ("GaussianNB", "unequal")),
        (b"\xff\xfe\x00", ("decode",)),
    ],
    ids=["short-line", "bad-fold", "missing-method", "not-text"],
)
def test_report_rejects_malformed_metrics(tmp_path, capsys, body, fragments):
    metrics = tmp_path / "metrics.csv"
    if isinstance(body, bytes):
        metrics.write_bytes(body)
    else:
        metrics.write_text("method,classifier,fold,zo,sqcov\n" + body)
    assert main(["report", "--metrics", str(metrics)]) == 1
    _one_line_error(capsys, *fragments)


@pytest.mark.parametrize(
    "permitted, fragment",
    [
        ({"1": [1, 2, 3], "2": [1, 2, 3]}, "movement ids 1..3"),
        ({"1": [1, 2, 9], "2": [1, 2, 3], "3": [1, 2, 3]}, "permitted.1: classes"),
    ],
    ids=["missing-movement", "class-out-of-range"],
)
def test_enumerate_table_rejects_bad_permitted(tmp_path, capsys, permitted, fragment):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"num_classes": 3, "permitted": permitted}))
    assert main(["enumerate", "--table", str(table)]) == 1
    _one_line_error(capsys, fragment)
