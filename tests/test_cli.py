import ast
import errno
import hashlib
import itertools
import json
import re
import shutil
import subprocess
import sys
import time
import typing
from dataclasses import fields, replace
from pathlib import Path

import pytest

from ctxclf import runtime
from ctxclf.classifiers import ClassifierSpec
from ctxclf.cli import ConfigError, _write_outputs, load_run_config, main
from ctxclf.context import MAX_CLASSES, MAX_NESTING, load_structure, validate_structure
from ctxclf.errors import SignalsetError
from ctxclf.evaluation import MetricsTable, RunConfig, run_experiment
from ctxclf.optimize import EAParams
from ctxclf.signals import save_signalset
from ctxclf.synth import synth_signalset
from conftest import STRUCTURES, chain_doc, flat_structure, make_structure, structure_to_dict


@pytest.fixture()
def five_path(tmp_path):
    return shutil.copy(STRUCTURES / "five_class.json", tmp_path / "five.json")


@pytest.fixture()
def run_setup(tmp_path):
    sset = synth_signalset(6, records_per_class=9, samples=128, seed=13)
    save_signalset(sset, tmp_path / "sset")
    shutil.copy(STRUCTURES / "six_class.json", tmp_path / "six.json")  # some tests rewrite it
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


def test_a_closer_other_than_the_opener_is_refused_when_the_file_is_read(five_path, capsys):
    """Before, the structure loaded and `validate` printed a `violation:` line; exit 1 both ways."""
    doc = json.loads(Path(five_path).read_text())
    box = next(b for b in doc["boxes"] if b["id"] == 1)
    assert box["opens_with_movement"] == 3
    box["closes_with_movement"] = 4
    Path(five_path).write_text(json.dumps(doc))
    assert main(["validate", str(five_path)]) == 1
    assert capsys.readouterr().err == "ERROR: box 1: closing movement 4 must be the opener 3\n"


@pytest.mark.parametrize("num_classes", [MAX_CLASSES + 1, 20_000])
def test_too_many_classes_is_one_violation(tmp_path, capsys, num_classes):
    """Refused before the per-class checks and before enumerate derives C sets of C classes."""
    assert validate_structure(flat_structure(MAX_CLASSES)) == []
    p = tmp_path / "flat.json"
    p.write_text(json.dumps(structure_to_dict(flat_structure(num_classes))))
    expected = ("", f"violation: num_classes: at most {MAX_CLASSES} classes, got {num_classes}\n")
    assert main(["validate", str(p)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == expected
    assert main(["enumerate", str(p)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == expected


def test_cli_import_leaves_out_the_built_in_structures_and_synth():
    """The CLI imports exactly the submodules a command needs at set-up: not `synth`, and not
    `stats`, which only `report` imports. A new import on the set-up path must be added here.
    Nor `argparse`: `load_run_config` is a library entry point, and only `main` parses."""
    import ctxclf

    src = str(Path(ctxclf.__file__).resolve().parent.parent)
    code = (
        "import sys, ctxclf.cli; print(sorted(m for m in sys.modules if m.startswith('ctxclf')"
        " or m in ('argparse', 'gettext')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert ast.literal_eval(result.stdout) == [
        "ctxclf",
        "ctxclf.classifiers",
        "ctxclf.cli",
        "ctxclf.context",
        "ctxclf.errors",
        "ctxclf.evaluation",
        "ctxclf.features",
        "ctxclf.jsonfile",
        "ctxclf.optimize",
        "ctxclf.rng",
        "ctxclf.runtime",
        "ctxclf.signals",
        "ctxclf.wavelet",
    ]


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


@pytest.mark.parametrize("command", ["run", "optimize"])
def test_feasible_set_above_the_guard_is_refused_from_its_count(tmp_path, capsys, command):
    """flat10 has 1,334,961 feasible bindings: refused at once, not after listing them."""
    save_signalset(synth_signalset(10, records_per_class=4, samples=128, seed=5), tmp_path / "sset")
    (tmp_path / "flat10.json").write_text(json.dumps(structure_to_dict(flat_structure(10))))
    config = {
        "signalset": str(tmp_path / "sset"),
        "structure": str(tmp_path / "flat10.json"),
        "classifiers": [{"algorithm": "GaussianNB"}],
        "cv_folds": 2,
        "inner_folds": 2,
        "output_dir": str(tmp_path / "out"),
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    start = time.perf_counter()
    assert main([command, "--config", str(tmp_path / "config.json")]) == 2
    assert time.perf_counter() - start < 1.0
    _one_line_error(capsys, "feasible set of size 1334961 exceeds the 1000000 guard")
    assert not (tmp_path / "out").exists()


def test_enumerate_counts_a_set_it_could_not_list(tmp_path, capsys):
    """flat11 (14,684,570 bindings) is counted; only a listing with --out meets the guard."""
    flat11, out = tmp_path / "flat11.json", tmp_path / "feasible.json"
    flat11.write_text(json.dumps(structure_to_dict(flat_structure(11))))
    assert main(["enumerate", str(flat11)]) == 0
    assert capsys.readouterr() == ("14684570\n", "")
    assert main(["enumerate", str(flat11), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "14684570\n"
    assert captured.err == "ERROR: feasible set of size 14684570 exceeds the 1000000 guard\n"
    assert not out.exists()


@pytest.mark.parametrize("num_classes", [-1, MAX_CLASSES + 1])
def test_enumerate_table_bounds_the_class_count(tmp_path, capsys, num_classes):
    """Checked before the permitted sets, whose 2^C subsets count_feasible would hold."""
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"num_classes": num_classes, "permitted": {}}))
    assert main(["enumerate", "--table", str(table)]) == 1
    _one_line_error(capsys, f"num_classes: expected 0..{MAX_CLASSES}, got {num_classes}")


@pytest.mark.parametrize(
    "permitted",
    [
        {"1": [1, 1, 2, 3], "2": [1, 2, 3], "3": [3, 3, 1, 2]},
        {"1": [3, 2, 1], "2": [2, 1, 3], "3": [1, 3, 2]},
    ],
    ids=["repeated-class", "unsorted-classes"],
)
def test_enumerate_table_lists_each_binding_once_in_order(tmp_path, capsys, permitted):
    """A class list is a set: repeats count once and bindings come out in lexicographic order."""
    table, out = tmp_path / "table.json", tmp_path / "feasible.json"
    table.write_text(json.dumps({"num_classes": 3, "permitted": permitted}))
    assert main(["enumerate", "--table", str(table), "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "6"
    expected = [list(p) for p in itertools.permutations([1, 2, 3])]
    assert json.loads(out.read_text())["bindings"] == expected


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
    """Every zero count prints 0, exits 2 and writes no --out file; a structure's also prints
    one `infeasible:` line, a table's none."""
    jointly = write_infeasible_structure(tmp_path / "inf.json")  # no permutation fits the sets
    no_class = tmp_path / "no_class.json"  # movement 4 shares a box with classes 1, 2 and 3
    boxes = [(0, None, None, []), (1, 0, 1, [2, 4]), (2, 0, 3, [4]), (3, 0, 2, [5, 6])]
    no_class.write_text(json.dumps(structure_to_dict(make_structure(3, boxes))))
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"num_classes": 2, "permitted": {"1": [1], "2": [1]}}))
    out = tmp_path / "feasible.json"
    for argv, err in (
        ([str(jointly)], "infeasible: feasible set is empty\n"),
        (
            [str(no_class)],
            "infeasible: movement 4 has no permitted class; the box arrangement is infeasible\n",
        ),
        (["--table", str(table)], ""),
    ):
        assert main(["enumerate", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("0\n", err)
        assert not out.exists()


def test_enumerate_requires_input(capsys):
    """Neither a structure nor --table, or both: the structure is never silently ignored."""
    table = STRUCTURES / "unconstrained_c5_table.json"
    for argv in ([], ["no_such.json", "--table", str(table)]):
        assert main(["enumerate", *argv]) == 1
        assert capsys.readouterr() == (
            "", "ERROR: provide exactly one of a structure file and --table\n"
        )


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["run"], "ctxclf run: the following arguments are required: --config"),
        (["bogus"], "ctxclf: argument command: invalid choice: 'bogus'"),
        ([], "ctxclf: the following arguments are required: command"),
        (
            ["report", "--metrics", "x", "--alpha", "abc"],
            "ctxclf report: argument --alpha: invalid float value: 'abc'",
        ),
    ],
    ids=["no-config", "unknown-command", "no-command", "alpha-not-a-number"],
)
def test_usage_error_is_one_error_line_and_exit_1(capsys, argv, prefix):
    """Exit 2 means no feasible binding, so a usage error ends as any bad input does."""
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"ERROR: {prefix}") and err.count("\n") == 1, err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ctxclf run")


@pytest.mark.parametrize("command", ["validate", "enumerate"])
def test_a_box_id_listed_twice_is_refused(five_path, capsys, command):
    doc = json.loads(Path(five_path).read_text())
    doc["boxes"].append(doc["boxes"][-1])
    Path(five_path).write_text(json.dumps(doc))
    assert main([command, str(five_path)]) == 1
    assert capsys.readouterr() == ("", "ERROR: boxes[3].id: box 2 listed twice\n")


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


def _listed_outputs(out_dir):
    """The files in out_dir; each but the manifest is listed in it with its text's sha256."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == digest
    return sorted(p.name for p in out_dir.iterdir()), sorted(manifest["outputs"])


def test_output_dir_holds_the_last_commands_files(run_setup, capsys):
    """optimize and run on a grips EA config, then run on a six-class config, into one
    directory: the files the previous manifest lists are replaced, an unlisted file stays."""
    tmp_path, cfg_path, config = run_setup
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("mine")
    sset = synth_signalset(8, records_per_class=4, samples=128, seed=7)
    save_signalset(sset, tmp_path / "grips_sset")
    grips = dict(
        config,
        signalset=str(tmp_path / "grips_sset"),
        structure=str(STRUCTURES / "eight_class_grips.json"),
        cv_folds=2,
        repetitions=2,
        inner_repetitions=1,
        ea={"population_size": 2, "max_generations": 1},
    )
    grips_path = tmp_path / "grips.json"
    grips_path.write_text(json.dumps(grips))
    folds = ["trace_GaussianNB_fold0.csv", "trace_GaussianNB_fold1.csv"]
    assert main(["optimize", "--config", str(grips_path)]) == 0
    written = ["bindings.json", "trace_GaussianNB.csv"]
    assert _listed_outputs(out) == (sorted([*written, "manifest.json", "notes.txt"]), written)
    assert main(["run", "--config", str(grips_path)]) == 0
    written = sorted(["metrics.csv", "summary.json", *folds])
    assert _listed_outputs(out) == (sorted([*written, "manifest.json", "notes.txt"]), written)
    assert main(["run", "--config", str(cfg_path)]) == 0
    written = ["metrics.csv", "summary.json"]
    assert _listed_outputs(out) == (sorted([*written, "manifest.json", "notes.txt"]), written)
    assert (out / "notes.txt").read_text() == "mine"


def test_a_stale_output_is_removed_only_as_a_plain_file_in_the_directory(tmp_path):
    """A hand-edited manifest can name a path outside the directory, a subdirectory, a path
    below one or a link: only the listed plain files go. A JSON object's names are strings."""
    out = tmp_path / "out"
    (out / "sub").mkdir(parents=True)
    for path in (tmp_path / "x", out / "sub" / "inner.csv", out / "old.csv", out / "keep.csv"):
        path.write_text("x")
    (out / "link.csv").symlink_to(tmp_path / "x")
    names = ["../x", "sub", "sub/inner.csv", ".", "..", "", "link.csv", "old.csv", "summary.json"]
    outputs = {n: "0" * 64 for n in names}
    (out / "manifest.json").write_text(json.dumps({"outputs": dict(outputs, **{"old.csv": 7})}))
    _write_outputs(out, {}, 0, {"summary.json": "{}\n"})
    assert sorted(p.name for p in out.iterdir()) == [
        "keep.csv", "link.csv", "manifest.json", "sub", "summary.json"
    ]
    assert (tmp_path / "x").read_text() == (out / "sub" / "inner.csv").read_text() == "x"


@pytest.mark.parametrize(
    "previous",
    [
        "", "{not json", '["old.csv"]', '"old.csv"', '{"config": {}}', '{"outputs": "old.csv"}',
        '{"outputs": ["old.csv", 7, null]}', "[" * 100_000,
    ],
    ids=[
        "empty", "not-json", "list", "string", "no-outputs", "outputs-a-string",
        "outputs-a-list", "nested-too-deeply",
    ],
)
def test_a_manifest_without_an_outputs_object_removes_nothing(tmp_path, previous):
    """Every manifest written before `outputs` existed is one, and so is one that cannot be
    read or whose `outputs` is not an object, such as a hand-made list with a non-string."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "old.csv").write_text("x")
    (out / "manifest.json").write_text(previous)
    _write_outputs(out, {}, 0, {"summary.json": "{}\n"})
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "old.csv", "summary.json"]


def test_the_manifest_lists_each_output_in_write_order(tmp_path):
    out = tmp_path / "out"  # no manifest yet
    _write_outputs(out, {"seed": 1}, 1, {"a.csv": "1\n", "b.csv": "2\n"})
    assert (out / "a.csv").read_text() == "1\n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest) == ["config_hash", "master_seed", "version", "config", "outputs"]
    assert list(manifest["outputs"]) == ["a.csv", "b.csv"]


def test_two_runs_with_one_seed_write_the_same_manifest(run_setup, capsys):
    tmp_path, cfg_path, _ = run_setup
    manifests = []
    for _ in range(2):
        assert main(["run", "--config", str(cfg_path)]) == 0
        manifests.append((tmp_path / "out" / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]


def test_optimize_prints_its_bindings_only_once_they_are_written(run_setup, capsys, monkeypatch):
    """A write that fails after the search (a full disk here) prints no binding line."""
    tmp_path, cfg_path, _ = run_setup
    write_text = Path.write_text

    def disk_full(path, text):
        if path.name == "bindings.json":
            raise OSError(errno.ENOSPC, "No space left on device", str(path))
        return write_text(path, text)

    monkeypatch.setattr(Path, "write_text", disk_full)
    assert main(["optimize", "--config", str(cfg_path)]) == 1
    monkeypatch.undo()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ERROR: [Errno 28]") and captured.err.count("\n") == 1
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["outputs"] == {"bindings.json": None}  # the provisional manifest
    shutil.rmtree(tmp_path / "out")
    assert main(["optimize", "--config", str(cfg_path)]) == 0
    line = r"GaussianNB: binding=\[[\d, ]+\] fitness=\d\.\d{4} \(exhaustive\)\n"
    assert re.fullmatch(line, capsys.readouterr().out)


def test_a_failed_write_leaves_no_unlisted_file(run_setup, capsys, monkeypatch):
    """optimize, then a run whose second file cannot be written: optimize's file is gone and
    run's first is written, and the provisional manifest lists both. A later run that succeeds
    removes every listed file it does not write."""
    tmp_path, cfg_path, _ = run_setup
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    write_text = Path.write_text

    def disk_full(path, text):
        if path.name == "summary.json":
            raise OSError(errno.ENOSPC, "No space left on device", str(path))
        return write_text(path, text)

    monkeypatch.setattr(Path, "write_text", disk_full)
    assert main(["run", "--config", str(cfg_path)]) == 1
    monkeypatch.undo()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ERROR: [Errno 28]") and captured.err.count("\n") == 1
    manifest = json.loads((out / "manifest.json").read_text())
    listed = ["bindings.json", "metrics.csv", "summary.json"]
    assert manifest["outputs"] == dict.fromkeys(listed)
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "metrics.csv"]
    assert main(["run", "--config", str(cfg_path)]) == 0
    written = ["metrics.csv", "summary.json"]
    assert _listed_outputs(out) == (sorted([*written, "manifest.json"]), written)


@pytest.mark.parametrize("failing", [1, 2], ids=["provisional", "final"])
def test_a_manifest_write_that_fails_part_way_leaves_the_one_before_whole(
    run_setup, capsys, monkeypatch, failing
):
    """optimize, then a run whose provisional (or final) manifest write stops half-way: the
    manifest on disk is still optimize's (or the run's provisional one), whole. The next run
    writes over the half-written temporary file, and a directory in its place is refused."""
    tmp_path, cfg_path, _ = run_setup
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(cfg_path)]) == 0
    manifests = [(out / "manifest.json").read_text()]
    capsys.readouterr()
    write_text = Path.write_text

    def disk_full(path, text):
        if path.name.startswith("manifest.json"):
            manifests.append(text)
            if len(manifests) - 1 == failing:
                write_text(path, text[: len(text) // 2])
                raise OSError(errno.ENOSPC, "No space left on device", str(path))
        return write_text(path, text)

    monkeypatch.setattr(Path, "write_text", disk_full)
    assert main(["run", "--config", str(cfg_path)]) == 1
    monkeypatch.undo()
    assert capsys.readouterr().err.startswith("ERROR: [Errno 28]")
    assert (out / "manifest.json").read_text() == manifests[failing - 1]
    assert json.loads(manifests[failing - 1])["outputs"]
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "metrics.csv", "summary.json"]
    (out / "manifest.json.tmp").mkdir()
    capsys.readouterr()
    assert main(["run", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"ERROR: output_dir: {out / 'manifest.json.tmp'} is a directory\n"


def test_an_output_name_taken_by_a_directory_is_refused_before_the_run(run_setup, capsys):
    """optimize, then a directory named summary.json, then run: refused before the run, so
    the directory keeps optimize's files and manifest. Once it is gone, run replaces them."""
    tmp_path, cfg_path, _ = run_setup
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(cfg_path)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    (out / "summary.json").mkdir()
    capsys.readouterr()
    assert main(["run", "--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ERROR: output_dir: {out / 'summary.json'} is a directory\n"
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
    (out / "summary.json").rmdir()
    assert main(["run", "--config", str(cfg_path)]) == 0
    written = ["metrics.csv", "summary.json"]
    assert _listed_outputs(out) == (sorted([*written, "manifest.json"]), written)


@pytest.mark.parametrize(
    "command, name",
    [
        ("run", "metrics.csv"),
        ("run", "manifest.json"),
        ("run", "trace_GaussianNB_fold2.csv"),
        ("optimize", "bindings.json"),
        ("optimize", "manifest.json"),
        ("optimize", "trace_GaussianNB.csv"),
    ],
)
def test_each_output_name_is_checked_before_the_run(run_setup, capsys, command, name):
    """Every name the command may write: a trace only on the EA path, but that is known only
    once the feasible set is listed, so a trace name is refused whatever the search."""
    tmp_path, cfg_path, _ = run_setup
    taken = tmp_path / "out" / name
    taken.mkdir(parents=True)
    assert main([command, "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == f"ERROR: output_dir: {taken} is a directory\n"
    assert [p.name for p in (tmp_path / "out").iterdir()] == [name]


@pytest.mark.parametrize("command", ["run", "optimize"])
def test_two_specs_of_one_algorithm_are_refused(run_setup, capsys, command):
    """Every output and RNG stream keys a classifier by its algorithm."""
    tmp_path, _, config = run_setup
    specs = [{"algorithm": "GaussianNB", "seed": 0}, {"algorithm": "GaussianNB", "seed": 1}]
    bad = dict(config, classifiers=specs)
    prefix = "classifiers[1].algorithm: GaussianNB given twice"
    _rejected_before_run(tmp_path, capsys, bad, prefix, command)


@pytest.mark.parametrize("command", ["enumerate", "report"])
@pytest.mark.parametrize("where", ["directory", "under-a-file"])
def test_an_out_no_file_can_be_written_to_is_refused_first(five_path, tmp_path, capsys, command,
                                                          where):
    """Before any work: the structure is not counted, the metrics file (missing here) not read."""
    blocker = tmp_path / "taken"
    if where == "directory":
        blocker.mkdir()
        out, message = blocker, f"--out: {blocker} is a directory"
    else:
        blocker.write_text("x")
        out, message = blocker / "x.json", f"--out: {blocker} is not a directory"
    if command == "enumerate":
        argv = ["enumerate", str(five_path)]
    else:
        argv = ["report", "--metrics", str(tmp_path / "missing.csv")]
        assert main([*argv, "--alpha", "2", "--out", str(out)]) == 1  # --alpha is checked first
        _one_line_error(capsys, "--alpha: must be in (0, 1), got 2.0")
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"ERROR: {message}\n")


def test_the_package_version_has_one_source():
    """pyproject.toml reads the version the manifest records from ctxclf.__version__."""
    import ctxclf

    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).parent.parent / "pyproject.toml").read_text())
    assert "version" not in pyproject["project"]
    assert pyproject["project"]["dynamic"] == ["version"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "ctxclf.__version__"}
    assert re.fullmatch(r"\d+\.\d+\.\d+", ctxclf.__version__)


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
    bad = dict(config, methods=["octx", "plain", "octx"])
    p.write_text(json.dumps(bad))
    with pytest.raises(ConfigError, match=r"^methods\[2\]: duplicate method 'octx'$"):
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


def _rejected_before_run(tmp_path, capsys, config, prefix, command="run"):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(config))
    with pytest.raises(ConfigError, match="^" + re.escape(prefix)):
        load_run_config(p)
    assert main([command, "--config", str(p)]) == 1
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


@pytest.mark.parametrize(
    "field, value, bounds",
    [
        ("repetitions", 2**40, "[1, 10000]"),
        ("inner_repetitions", 10_001, "[1, 10000]"),
        ("classifiers[0].num_trees", 2**62, "[1, 10000]"),
        ("ea.population_size", 10_001, "[2, 10000]"),
        ("ea.tournament_size", 10_001, "[1, 10000]"),
        ("ea.stagnation_horizon", 100_001, "[1, 100000]"),
        ("ea.max_generations", 2**62, "[0, 100000]"),
        ("ea.max_generations", -1, "[0, 100000]"),
    ],
)
def test_run_rejects_a_run_parameter_out_of_its_bounds(run_setup, capsys, field, value, bounds):
    tmp_path, _, config = run_setup
    bad = _with_field(config, field, value)
    _rejected_before_run(tmp_path, capsys, bad, f"{field}: must be in {bounds}, got {value}")


@pytest.mark.parametrize("command", ["run", "optimize"])
def test_a_negative_exhaustive_limit_is_refused_before_the_run(run_setup, capsys, command):
    """-1 reads as "no limit", but every feasible set is above it: the EA would always run."""
    tmp_path, _, config = run_setup
    bad = dict(config, exhaustive_limit=-1)
    _rejected_before_run(tmp_path, capsys, bad, "exhaustive_limit: must be >= 0, got -1", command)


def test_a_classifier_without_an_algorithm_is_refused(run_setup, capsys):
    """The config must name it, though a ClassifierSpec built in code defaults it."""
    tmp_path, _, config = run_setup
    bad = dict(config, classifiers=[{"num_trees": 5}])
    _rejected_before_run(tmp_path, capsys, bad, "classifiers[0].algorithm: missing")


@pytest.mark.parametrize("field", ["cv_fold", "classifiers[0].num_tree", "ea.populaton_size"])
def test_run_rejects_unknown_field(run_setup, capsys, field):
    tmp_path, _, config = run_setup
    _rejected_before_run(tmp_path, capsys, _with_field(config, field, 2), f"{field}: unknown field")


@pytest.mark.parametrize("key", ["methods", "classifiers"])
def test_run_rejects_empty_list(run_setup, capsys, key):
    tmp_path, _, config = run_setup
    bad = dict(config, **{key: []})
    _rejected_before_run(tmp_path, capsys, bad, f"{key}: expected a non-empty list")


def test_run_rejects_structure_class_count(run_setup, five_path, capsys):
    tmp_path, _, config = run_setup
    bad = dict(config, structure=str(five_path))  # five classes, six in the signalset
    _rejected_before_run(tmp_path, capsys, bad, "structure: 5 classes, but the signalset has 6")


HUGE_SEED = f"{2**64} does not fit a 64-bit integer"


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("structure", flat_structure(5), "structure: 5 classes, but the signalset has 6"),
        (
            "structure",
            make_structure(2, [(0, None, None, [1, 2, 3, 4])]),
            "structure: root box must hold exactly the primary movements 1..2, got [1, 2, 3, 4]",
        ),
        ("methods", [], "methods: expected a non-empty list"),
        ("classifiers", [], "classifiers: expected a non-empty list"),
        ("master_seed", 2**64, f"master_seed: {HUGE_SEED}"),
        ("classifiers[0].seed", 2**64, f"classifiers[0].seed: {HUGE_SEED}"),
        ("feature_fraction", "0.5", "feature_fraction: expected a number, got '0.5'"),
        ("ea.crossover_prob", "x", "ea.crossover_prob: expected a number, got 'x'"),
        ("ea.crossover_op", 5, "ea.crossover_op: expected a string, got 5"),
    ],
    ids=[
        "class-count", "invalid-structure", "no-methods", "no-classifiers", "master-seed",
        "spec-seed", "fraction-string", "crossover-prob-string", "crossover-op-number",
    ],
)
def test_a_library_config_refuses_what_the_loader_refuses(run_setup, key, value, message):
    """load_run_config's refusal is the dataclass's own, under the key's path: a config
    built in code gets no run that `run` refuses (each of these built and ran, replayed
    seed 0 or raised a bare TypeError)."""
    tmp_path, cfg_path, config = run_setup
    good, _, _ = load_run_config(cfg_path)
    written = value
    if key == "structure":
        written = str(tmp_path / "bad_structure.json")
        Path(written).write_text(json.dumps(structure_to_dict(value)))
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(_with_field(config, key, written)))
    with pytest.raises(ConfigError) as loaded:
        load_run_config(p)
    assert str(loaded.value) == message
    head, _, name = key.rpartition(".")
    with pytest.raises(ValueError) as built:
        if head:
            (EAParams if head == "ea" else ClassifierSpec)(**{name: value})
        else:
            name = "classifier_specs" if key == "classifiers" else key
            replace(good, **{name: tuple(value) if isinstance(value, list) else value})
    assert str(built.value) == message.removeprefix(f"{head}.")


@pytest.mark.parametrize("command", ["run", "optimize"])
@pytest.mark.parametrize("where", ["file", "under-a-file", "dangling-link"])
def test_output_dir_that_is_not_a_directory_is_refused(run_setup, capsys, command, where):
    """Refused before the run, creating nothing, not after it when the files are written."""
    tmp_path, _, config = run_setup
    blocker = tmp_path / "taken"
    if where == "dangling-link":
        blocker.symlink_to(tmp_path / "nowhere")
    else:
        blocker.write_text("x")
    out_dir = blocker / "out" if where == "under-a-file" else blocker
    bad = dict(config, output_dir=str(out_dir))
    _rejected_before_run(tmp_path, capsys, bad, f"output_dir: {blocker} is not a directory", command)
    assert not (tmp_path / "nowhere").exists()
    assert where == "dangling-link" or blocker.read_text() == "x"


def test_every_scalar_field_loads_intact(run_setup):
    """Each int/float/str field of the three config dataclasses, off its default, loads as given."""
    tmp_path, _, config = run_setup
    given = {
        RunConfig: {
            "cv_folds": 4, "inner_folds": 5, "repetitions": 6, "inner_repetitions": 7,
            "feature_fraction": 0.25, "exhaustive_limit": 9, "master_seed": 2**63 - 1,
        },
        EAParams: {
            "population_size": 12, "tournament_size": 4, "crossover_op": "OX2",
            "crossover_prob": 0.75, "mutation_prob": 0.5, "stagnation_horizon": 3,
            "max_generations": 8,
        },
        ClassifierSpec: {"algorithm": "RandomForest", "num_trees": 7, "seed": 5},
    }
    for cls, values in given.items():
        hints = typing.get_type_hints(cls)
        defaults = {f.name: f.default for f in fields(cls) if hints[f.name] in (int, float, str)}
        assert set(values) == set(defaults), cls.__name__
        assert all(values[name] != default for name, default in defaults.items()), cls.__name__
    p = tmp_path / "full.json"
    full = dict(config, ea=given[EAParams], classifiers=[given[ClassifierSpec]])
    p.write_text(json.dumps(dict(full, **given[RunConfig])))
    loaded, _, _ = load_run_config(p)
    assert loaded.ea_params == EAParams(**given[EAParams])
    assert loaded.classifier_specs == (ClassifierSpec(**given[ClassifierSpec]),)
    for name, value in given[RunConfig].items():
        assert getattr(loaded, name) == value, name


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


@pytest.mark.parametrize(
    "value, fragments",
    [
        ("abc", ("row 3, column c1", "'abc'")),
        ("nan", ("row 3, column c1", "got nan")),
        ("-inf", ("row 3, column c1", "got -inf")),
        ("1e308", ("non-finite feature values",)),  # finite, but MAV/AR overflow
    ],
    ids=["not-a-number", "nan", "inf", "feature-overflow"],
)
def test_run_rejects_bad_record_value(run_setup, capsys, value, fragments):
    tmp_path, cfg_path, _ = run_setup
    record = sorted((tmp_path / "sset" / "records").glob("*.csv"))[0]
    lines = record.read_text().splitlines()
    lines[3] = ",".join([value] + lines[3].split(",")[1:])  # data row 3, first column
    record.write_text("\n".join(lines) + "\n")
    assert main(["run", "--config", str(cfg_path)]) == 1
    _one_line_error(capsys, f"record {record.stem}: ", *fragments)
    assert not (tmp_path / "out").exists()


def test_run_rejects_header_only_record(run_setup, capsys):
    tmp_path, cfg_path, _ = run_setup
    record = sorted((tmp_path / "sset" / "records").glob("*.csv"))[0]
    record.write_text(record.read_text().splitlines()[0] + "\n")
    assert main(["run", "--config", str(cfg_path)]) == 1
    _one_line_error(capsys, f"record {record.stem}: 0 samples, need >= 16")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("target", ["record", "meta", "structure", "config"])
def test_a_file_that_is_not_utf8_is_named(run_setup, capsys, target):
    """An input file whose bytes do not decode as UTF-8 ends in one line naming it: the
    record by its id, a JSON file by its path."""
    tmp_path, cfg_path, _ = run_setup
    record = sorted((tmp_path / "sset" / "records").glob("*.csv"))[0]
    path = {
        "record": record,
        "meta": tmp_path / "sset" / "meta.json",
        "structure": tmp_path / "six.json",
        "config": cfg_path,
    }[target]
    text = path.read_bytes()
    path.write_bytes(text[:20] + b"\xff" + text[20:])
    assert main(["run", "--config", str(cfg_path)]) == 1
    name = f"record {record.stem}" if target == "record" else str(path)
    _one_line_error(capsys, f"{name}: not UTF-8 text")
    assert not (tmp_path / "out").exists()


def test_run_rejects_a_field_above_the_csv_limit(run_setup, capsys):
    tmp_path, cfg_path, _ = run_setup
    record = sorted((tmp_path / "sset" / "records").glob("*.csv"))[0]
    lines = record.read_text().splitlines()
    lines[2] = "1" * 131073  # data row 2; csv.field_size_limit() is 131072
    record.write_text("\n".join(lines) + "\n")
    assert main(["run", "--config", str(cfg_path)]) == 1
    _one_line_error(capsys, f"record {record.stem}: row 2: field larger than field limit")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda doc: doc.update(num_classes="x"), "num_classes: expected an integer, got 'x'"),
        (
            lambda doc: doc["boxes"][1].update(parent="one"),
            "boxes[1].parent: expected an integer, got 'one'",
        ),
    ],
    ids=["num_classes", "parent"],
)
def test_run_rejects_non_integer_structure_field(run_setup, capsys, mutate, message):
    tmp_path, cfg_path, config = run_setup
    doc = json.loads(Path(config["structure"]).read_text())
    mutate(doc)
    Path(config["structure"]).write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"ERROR: {message}\n", err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run", "optimize"])
@pytest.mark.parametrize(
    "mutate, message",
    [
        (
            lambda doc: doc["boxes"][1].update(internal_movements=5),
            "boxes[1].internal_movements: expected a list, got 5",
        ),
        (lambda doc: doc["boxes"].append(7), "boxes[4]: expected an object, got 7"),
        (lambda doc: doc.update(movements=3), "movements: expected a list, got 3"),
        (lambda doc: doc["boxes"][0].update(parent=1), "root box must have parent null"),
        (
            lambda doc: doc["boxes"][0].update(opens_with_movement=1),
            "root box must not declare an opening movement",
        ),
        (
            lambda doc: doc["boxes"][1].pop("opens_with_movement"),
            "box 1: missing opens_with_movement",
        ),
        (  # box 2's parent is box 1
            lambda doc: doc["boxes"][1].update(parent=2),
            "boxes unreachable from root: [1, 2]",
        ),
    ],
    ids=["internal_movements", "box", "movements", "root-parent", "root-opener", "no-opener",
         "parent-cycle"],
)
def test_cli_rejects_non_list_or_object_structure_field(
    run_setup, capsys, command, mutate, message
):
    tmp_path, cfg_path, config = run_setup
    doc = json.loads(Path(config["structure"]).read_text())
    mutate(doc)
    Path(config["structure"]).write_text(json.dumps(doc))
    if command == "validate":
        argv = ["validate", config["structure"]]
    else:
        argv = [command, "--config", str(cfg_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"ERROR: {message}\n", err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "optimize"])
@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc["boxes"][1]["internal_movements"].__setitem__(0, 99),
        lambda doc: doc["boxes"][1]["internal_movements"].__setitem__(0, -2),
        lambda doc: doc["boxes"][1].update(opens_with_movement=99),
        lambda doc: doc.update(movements=doc["movements"][:3]),
    ],
    ids=["internal-99", "internal-negative", "opener-99", "three-movements"],
)
def test_run_and_optimize_validate_the_structure(run_setup, capsys, command, mutate):
    """The first violation `validate` would print, as one ERROR line before the run."""
    tmp_path, cfg_path, config = run_setup
    doc = json.loads(Path(config["structure"]).read_text())
    mutate(doc)
    Path(config["structure"]).write_text(json.dumps(doc))
    violations = validate_structure(load_structure(config["structure"]))
    assert violations
    assert main([command, "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == f"ERROR: structure: {violations[0]}\n"
    assert not (tmp_path / "out").exists()


def test_enumerate_table_bad_json(tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text("{not json")
    assert main(["enumerate", "--table", str(table)]) == 1
    _one_line_error(capsys, "table.json", "line 1")


def _no_training(*args):
    raise AssertionError("a box was fitted before the fold counts were checked")


@pytest.mark.parametrize(
    "fields, fragments",
    [
        ({"cv_folds": 10}, ("cv_folds: 10", "9 records")),  # nine records per class
        ({"inner_folds": 7}, ("inner_folds: 7", "6 records")),  # 9 - 3 in each training fold
    ],
    ids=["cv_folds", "inner_folds"],
)
def test_run_rejects_folds_above_class_count(run_setup, capsys, monkeypatch, fields, fragments):
    tmp_path, _, config = run_setup
    monkeypatch.setattr(runtime, "train", _no_training)  # rejected before the run starts
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(dict(config, **fields)))
    assert main(["run", "--config", str(p)]) == 1
    _one_line_error(capsys, *fragments)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fields", [{"cv_folds": 10}, {"inner_folds": 7}], ids=["cv", "inner"])
def test_a_library_run_refuses_too_few_records_in_the_cli_words(
    run_setup, capsys, monkeypatch, fields
):
    """run_experiment on a config built in code refuses, before its first fit, what `run`
    refuses: with 9 records per class, the parent dealt 10 outer folds into a bare
    stratified_folds error and fitted boxes before an inner deal of 7 failed."""
    tmp_path, cfg_path, config = run_setup
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(dict(config, **fields)))
    assert main(["run", "--config", str(p)]) == 1
    printed = capsys.readouterr().err
    calls = []
    real = runtime.train
    monkeypatch.setattr(runtime, "train", lambda *args: calls.append(args) or real(*args))
    with pytest.raises(SignalsetError) as exc:
        run_experiment(replace(load_run_config(cfg_path)[0], **fields))
    assert printed == f"ERROR: {exc.value}\n" and calls == []


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


def test_optimize_rejects_inner_folds_above_class_count(run_setup, capsys, monkeypatch):
    tmp_path, _, config = run_setup
    monkeypatch.setattr(runtime, "train", _no_training)  # rejected before the search starts
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
        (b"\xff\xfe\x00", ("metrics.csv", "not UTF-8 text")),
        ("plain,GaussianNB,0,inf,0.5\n", ("metrics.csv", "line 2", "zo", "[0, 1]", "'inf'")),
        ("plain,GaussianNB,0,0.5,nan\n", ("metrics.csv", "line 2", "sqcov", "[0, 1]", "'nan'")),
        ("plain,GaussianNB,0,1.5,0.5\n", ("metrics.csv", "line 2", "zo", "[0, 1]", "'1.5'")),
        (
            "plain,GaussianNB,0,0.5,0.5\nplain,GaussianNB,1,0.5,-0.1\n",
            ("metrics.csv", "line 3", "sqcov", "[0, 1]", "'-0.1'"),
        ),
        ("", ("metrics.csv", "no metric rows")),
        ("plain,GaussianNB,0,0.5,0.5\nbest,GaussianNB,0,0.5,0.5\n", ("line 3", "method 'best'")),
        ("plain,GaussianNB,-1,0.5,0.5\n", ("metrics.csv", "line 2", "fold must be >= 0", "-1")),
        (
            "plain,GaussianNB,0,0.5,0.5\nrctx,GaussianNB,0,0.5,0.5\nplain,GaussianNB,0,0.4,0.4\n",
            ("metrics.csv", "line 4", "repeated row plain,GaussianNB,0"),
        ),
        (
            "plain,GaussianNB,0,0.5,0.5\nplain,GaussianNB,1,0.5,0.5\n"
            "rctx,GaussianNB,0,0.5,0.5\nrctx,GaussianNB,2,0.5,0.5\n",
            ("GaussianNB", "unequal folds", "[0, 1]", "[0, 2]"),
        ),
    ],
    ids=[
        "short-line", "bad-fold", "missing-method", "not-text",
        "inf-zo", "nan-sqcov", "zo-above-1", "negative-sqcov",
        "header-only", "unknown-method", "negative-fold", "repeated-row", "other-folds",
    ],
)
def test_report_rejects_malformed_metrics(tmp_path, capsys, body, fragments):
    metrics = tmp_path / "metrics.csv"
    if isinstance(body, bytes):
        metrics.write_bytes(body)
    else:
        metrics.write_text("method,classifier,fold,zo,sqcov\n" + body)
    out = tmp_path / "report.json"
    assert main(["report", "--metrics", str(metrics), "--out", str(out)]) == 1
    _one_line_error(capsys, *fragments)
    assert not out.exists()


def _six_paired_folds(path, reverse: bool):
    """Write plain's and then rctx's six folds to `path`, rctx's last to first if `reverse`."""
    plain = [0.10, 0.20, 0.30, 0.40, 0.50, 0.60]
    rctx = [0.15, 0.22, 0.45, 0.41, 0.90, 0.61]  # above plain in every fold, by varying margins
    lines = [f"plain,GaussianNB,{k},{v},{v}" for k, v in enumerate(plain)]
    rctx_lines = [f"rctx,GaussianNB,{k},{v},{v}" for k, v in enumerate(rctx)]
    body = lines + (rctx_lines[::-1] if reverse else rctx_lines)
    path.write_text("\n".join(["method,classifier,fold,zo,sqcov"] + body) + "\n")
    return path


def test_report_pairs_methods_by_fold_not_by_row(tmp_path, capsys):
    """A file listing one method's folds in reverse order gives the fold-order report."""
    reports = []
    for name in ("in-order", "reversed"):
        metrics = _six_paired_folds(tmp_path / f"{name}.csv", reverse=name == "reversed")
        out = tmp_path / f"{name}.json"
        assert main(["report", "--metrics", str(metrics), "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    assert reports[0] == reports[1]
    assert reports[1]["ranks"]["GaussianNB"]["zo"] == {"plain": 1.0, "rctx": 2.0}
    assert reports[1]["tests"]["GaussianNB"]["zo"]["plain vs rctx"]["significant"]


def test_report_writes_the_tables_report(run_setup, capsys):
    """`report --out` writes MetricsTable.report: a library caller gets the same comparison."""
    tmp_path, cfg_path, _ = run_setup
    assert main(["run", "--config", str(cfg_path)]) == 0
    reversed_rows = _six_paired_folds(tmp_path / "reversed.csv", reverse=True)
    for metrics in (tmp_path / "out" / "metrics.csv", reversed_rows):
        out = tmp_path / "report.json"
        assert main(["report", "--metrics", str(metrics), "--alpha", "0.2", "--out", str(out)]) == 0
        assert MetricsTable.from_csv(metrics).report(0.2) == json.loads(out.read_text())


@pytest.mark.parametrize("alpha", ["0", "1", "-1", "2", "nan"])
def test_report_rejects_alpha_outside_the_unit_interval(tmp_path, capsys, alpha):
    """The level is checked first: the metrics file named here does not exist."""
    missing = tmp_path / "metrics.csv"
    assert main(["report", "--metrics", str(missing), "--alpha", alpha]) == 1
    _one_line_error(capsys, "--alpha: must be in (0, 1)", alpha)


@pytest.mark.parametrize(
    "permitted, fragment",
    [
        ({"1": [1, 2, 3], "2": [1, 2, 3]}, "movement ids 1..3"),
        ({"1": [1, 2, 9], "2": [1, 2, 3], "3": [1, 2, 3]}, "permitted.1: classes"),
        ({"1": [1, "2"], "2": [1, 2, 3], "3": [1, 2, 3]}, "permitted.1[1]: expected an integer"),
        ({"1": 5, "2": [1, 2, 3], "3": [1, 2, 3]}, "permitted.1: expected a list, got 5"),
    ],
    ids=["missing-movement", "class-out-of-range", "class-not-an-integer", "not-a-list"],
)
def test_enumerate_table_rejects_bad_permitted(tmp_path, capsys, permitted, fragment):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"num_classes": 3, "permitted": permitted}))
    assert main(["enumerate", "--table", str(table)]) == 1
    _one_line_error(capsys, fragment)


@pytest.mark.parametrize("command", ["validate", "run", "optimize"])
@pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1, 1500])
def test_nesting_above_the_limit_is_one_error(tmp_path, capsys, command, depth):
    save_signalset(synth_signalset(2, records_per_class=6, samples=128, seed=13), tmp_path / "sset")
    structure = tmp_path / "chain.json"
    structure.write_text(json.dumps(chain_doc(depth)))
    config = {
        "signalset": str(tmp_path / "sset"),
        "structure": str(structure),
        "classifiers": [{"algorithm": "GaussianNB"}],
        "cv_folds": 2,
        "inner_folds": 2,
        "repetitions": 2,
        "inner_repetitions": 1,
        "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    if command == "validate":
        code = main(["validate", str(structure)])
    else:
        code = main([command, "--config", str(cfg_path)])
    err = capsys.readouterr().err
    if depth <= MAX_NESTING:
        assert (code, err) == (0, "")
        assert (tmp_path / "out").exists() == (command != "validate")
    else:
        assert code == 1
        deepest = MAX_NESTING + 1
        assert err == f"ERROR: box {deepest}: nested more than {MAX_NESTING} boxes below the root\n"
        assert not (tmp_path / "out").exists()


DEEP = "[" * 100_000 + "]" * 100_000  # decodes only with a recursion per bracket


@pytest.mark.parametrize("target", ["validate", "enumerate", "table", "config", "meta"])
def test_deeply_nested_json_is_one_error(run_setup, capsys, target):
    tmp_path, cfg_path, config = run_setup
    files = {
        "validate": config["structure"],
        "enumerate": config["structure"],
        "table": tmp_path / "table.json",
        "config": cfg_path,
        "meta": tmp_path / "sset" / "meta.json",
    }
    Path(files[target]).write_text(DEEP)
    argv = {
        "validate": ["validate", config["structure"]],
        "enumerate": ["enumerate", config["structure"]],
        "table": ["enumerate", "--table", str(files["table"])],
    }.get(target, ["run", "--config", str(cfg_path)])
    assert main(argv) == 1
    assert capsys.readouterr().err == f"ERROR: {files[target]}: invalid JSON: nested too deeply\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "enumerate"])
@pytest.mark.parametrize(
    "boxes, violation",
    [
        (  # box 2 lists its own opener, so its closer and that member share a class
            [(0, None, None, [2, 3]), (1, 0, 1, [5]), (2, 1, 4, [4, 6])],
            "box 2 lists a movement twice",
        ),
        (  # box 3 holds only its closer, so its classifier would see one class
            [(0, None, None, [3]), (1, 0, 1, [4, 5]), (2, 0, 2, []), (3, 2, 6, [])],
            "box 3 holds fewer than 2 movements",
        ),
    ],
    ids=["own-opener-as-member", "closer-only"],
)
def test_validate_refuses_a_box_a_binding_cannot_serve(tmp_path, capsys, command, boxes, violation):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(structure_to_dict(make_structure(3, boxes))))
    assert main([command, str(p)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"violation: {violation}\n")
