"""One mutation of one CLI input: the program exits 0, 1 or 2 and never shows a traceback.

The inputs are a valid run config, its structure, a constraint table and the
signalset's meta.json or one record CSV. A mutation drops a key, sets it to
null, to a value of the wrong type, to an empty list, to nan, inf, a huge or
a negative number, or replaces the whole file with bytes that are not text or
with a JSON array nested too deeply to decode.
A failing command prints at most one stderr line, an ``ERROR:`` or
``violation:`` line, and leaves no output behind.

A second fuzz runs ``validate`` and ``enumerate`` on structures of every
shape: nesting chains 50-3,000 boxes deep, flat structures with C = 2-12
and 21, and random trees, valid or not.
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctxclf
from ctxclf import cli
from ctxclf.context import validate_structure
from ctxclf.signals import save_signalset
from ctxclf.synth import synth_signalset
from conftest import chain_doc, flat_structure, make_structure, random_structure, structure_to_dict

MUTATIONS = (
    "drop", "null", "wrong type", "empty list", "nan", "inf", "huge", "negative", "bytes", "deep"
)
HUGE = 2**64  # beyond every 64-bit integer
NOT_TEXT = b"\xff\xfe\x00\x81"
DEEP = "[" * 100_000 + "]" * 100_000

STRUCTURE = make_structure(3, [(0, None, None, [3]), (1, 0, 1, [4, 5]), (2, 0, 2, [6])])
DOCS = {
    "config": {
        "signalset": "sset",
        "structure": "structure.json",
        "methods": ["plain", "rctx", "octx"],
        "classifiers": [{"algorithm": "GaussianNB", "num_trees": 2, "seed": 1}],
        "cv_folds": 2,
        "inner_folds": 2,
        "repetitions": 2,
        "inner_repetitions": 1,
        "feature_fraction": 0.5,
        "exhaustive_limit": 500,
        "ea": {"population_size": 4, "max_generations": 2},
        "master_seed": 1,
        "output_dir": "out",
    },
    "structure": structure_to_dict(STRUCTURE),
    "table": {"num_classes": 3, "permitted": {"1": [2, 3], "2": [2, 3], "3": [1]}},
    "meta": {"num_classes": 3, "num_channels": 1, "sample_rate_hz": 1000},
}
FILES = {
    "config": "config.json",
    "structure": "structure.json",
    "table": "table.json",
    "meta": "sset/meta.json",
}


def doc_paths(doc, prefix=()):
    """Every path into a JSON document, the document itself first."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from doc_paths(value, prefix + (key,))


def mutated(value, mutation):
    """The value a mutation puts in place of ``value`` (every mutation but drop, bytes and deep)."""
    if mutation == "wrong type":
        return 7 if isinstance(value, str) else "x"
    if mutation == "negative":
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        return -abs(value) - 1 if number else -1
    return {"null": None, "empty list": [], "nan": math.nan, "inf": math.inf, "huge": HUGE}[
        mutation
    ]


def mutate_doc(doc, path, mutation):
    """A copy of ``doc`` with one mutation at ``path``; None when the mutation drops the file."""
    doc = json.loads(json.dumps(doc))
    if not path:
        return None if mutation == "drop" else mutated(doc, mutation)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if mutation == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = mutated(parent[path[-1]], mutation)
    return doc


def mutate_record(text, row, column, mutation):
    """One record CSV with one mutation at a data cell (rows and columns wrap around)."""
    lines = text.splitlines()
    row = 1 + row % (len(lines) - 1)
    cells = lines[row].split(",")
    column %= len(cells)
    if mutation == "drop":
        del cells[column]
    elif mutation == "empty list":
        return lines[0] + "\n"
    else:
        cells[column] = {
            "null": "", "wrong type": "abc", "nan": "nan", "inf": "inf", "huge": "1e308",
            "negative": str(-abs(float(cells[column])) - 1.0),
        }[mutation]
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def base_dir(tmp_path_factory):
    """The valid inputs: three classes of four one-channel records and a three-box structure."""
    assert validate_structure(STRUCTURE) == []
    root = tmp_path_factory.mktemp("fuzz_base")
    save_signalset(
        synth_signalset(3, records_per_class=4, num_channels=1, samples=128, seed=2), root / "sset"
    )
    for name, doc in DOCS.items():
        (root / FILES[name]).write_text(json.dumps(doc))
    return root


@st.composite
def cases(draw):
    target = draw(st.sampled_from(["config", "structure", "table", "meta", "record"]))
    mutation = draw(st.sampled_from(MUTATIONS))
    if target == "record":
        where = (draw(st.integers(0, 200)), draw(st.integers(0, 3)))
    else:
        where = draw(st.sampled_from(list(doc_paths(DOCS[target]))))
    command = "enumerate" if target == "table" else draw(st.sampled_from(["run", "optimize"]))
    return target, mutation, where, command


def write_mutation(work: Path, target, mutation, where):
    if target == "record":
        file = sorted((work / "sset" / "records").glob("*.csv"))[0]
    else:
        file = work / FILES[target]
    if mutation == "bytes":
        file.write_bytes(NOT_TEXT)
    elif mutation == "deep":
        file.write_text(DEEP)
    elif target == "record":
        file.write_text(mutate_record(file.read_text(), *where, mutation))
    else:
        doc = mutate_doc(DOCS[target], where, mutation)
        if doc is None:
            file.unlink()
        else:
            file.write_text(json.dumps(doc))


@settings(max_examples=60, deadline=None, database=None)
@given(case=cases())
def test_one_mutation_ends_in_an_exit_code_and_one_line(base_dir, case):
    target, mutation, where, command = case
    with tempfile.TemporaryDirectory(dir=base_dir.parent) as tmp:
        work = Path(tmp) / "work"
        shutil.copytree(base_dir, work)
        write_mutation(work, target, mutation, where)
        argv = (
            ["enumerate", "--table", FILES["table"]]
            if command == "enumerate"
            else [command, "--config", FILES["config"]]
        )
        before = sorted(work.rglob("*"))
        err, out = io.StringIO(), io.StringIO()
        with contextlib.chdir(work), contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            code = cli.main(argv)  # an exception escaping here fails the test
        assert code in (0, 1, 2)
        if code:
            lines = err.getvalue().splitlines()
            assert len(lines) <= 1, lines
            assert all(line.startswith(("ERROR:", "violation:")) for line in lines), lines
            assert sorted(work.rglob("*")) == before  # no output directory, no partial file



@pytest.mark.parametrize("command", ["run", "optimize"])
@pytest.mark.parametrize(
    "name",
    ["x_².csv", "x_١.csv", "x_0.csv", "_1.csv", f"x_{HUGE}.csv"],
    ids=["superscript-label", "arabic-indic-label", "label-0", "empty-id", "huge-label"],
)
def test_a_bad_record_file_name_ends_in_one_error_line(base_dir, tmp_path, command, name):
    """A record file whose name holds no id, a label outside 1..C or a label of non-ASCII
    digits (which int() reads, or refuses with a traceback) is refused before a run starts."""
    work = tmp_path / "work"
    shutil.copytree(base_dir, work)
    first = sorted((work / "sset" / "records").glob("*.csv"))[0]
    first.rename(first.with_name(name))
    before = sorted(work.rglob("*"))
    err, out = io.StringIO(), io.StringIO()
    with contextlib.chdir(work), contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = cli.main([command, "--config", FILES["config"]])
    assert code == 1
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR:"), lines
    assert sorted(work.rglob("*")) == before  # no output directory
SHAPE_RUNNER = textwrap.dedent("""
    import contextlib, io, json, resource, sys
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    from ctxclf import cli
    results = []
    for argv in json.load(sys.stdin):
        err, out = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
                code = cli.main(argv)
        except BaseException as exc:  # a traceback: the test names the case
            code = repr(exc)
        results.append([code, out.getvalue(), err.getvalue()])
    json.dump(results, sys.stdout)
""")
SHAPE_BUDGET_S = 120


def random_tree_doc(rng, num_classes):
    """Up to 2C boxes with random parents, openers and members: most break a structure rule."""
    C = num_classes
    boxes = [{"id": 0, "parent": None, "internal_movements": list(range(1, C + 1))}]
    for b in range(1, int(rng.integers(1, 2 * C + 1))):
        members = rng.choice(2 * C, size=int(rng.integers(1, C + 1)), replace=False) + 1
        boxes.append(
            {
                "id": b,
                "parent": int(rng.integers(0, b)),
                "opens_with_movement": int(rng.integers(1, 2 * C + 1)),
                "internal_movements": sorted(int(m) for m in members),
            }
        )
    return {"num_classes": C, "movements": [{"id": m} for m in range(1, 2 * C + 1)], "boxes": boxes}


def shapes(rng):
    """(name, structure document, C) for each shape."""
    for depth in (50, 100, 101, 1000, 3000, *rng.integers(50, 3001, size=3)):
        yield f"chain{depth}", chain_doc(int(depth)), 2
    for C in (*range(2, 13), 21):
        yield f"flat{C}", structure_to_dict(flat_structure(C)), C
    for i in range(12):
        C = int(rng.integers(3, 9))
        yield f"random{i}", structure_to_dict(random_structure(rng, C)), C
    for i in range(24):
        C = int(rng.integers(2, 9))
        yield f"tree{i}", random_tree_doc(rng, C), C


def test_every_structure_shape_ends_in_an_exit_code_and_one_line(tmp_path):
    """All cases run in one child process under a 1 GB address space and a time budget; a
    listing (--out) is asked only for C <= 8, where it stays small."""
    cases = []
    for name, doc, C in shapes(np.random.default_rng(7)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        cases += [["validate", str(path)], ["enumerate", str(path)]]
        if C <= 8:
            cases.append(["enumerate", str(path), "--out", str(tmp_path / f"{name}.out.json")])
    src = str(Path(ctxclf.__file__).resolve().parent.parent)
    child = subprocess.run(
        [sys.executable, "-c", SHAPE_RUNNER],
        input=json.dumps(cases),
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=SHAPE_BUDGET_S,
    )
    assert child.returncode == 0, child.stderr
    results = json.loads(child.stdout)
    assert len(results) == len(cases)
    for argv, (code, out, err) in zip(cases, results):
        assert code in (0, 1, 2), (argv, code)
        lines = err.splitlines()
        assert all(line.startswith(("violation:", "ERROR:", "infeasible:")) for line in lines), (
            argv, lines,
        )
        assert sum(line.startswith(("ERROR:", "infeasible:")) for line in lines) <= 1, (argv, lines)
        if "--out" in argv:
            assert Path(argv[-1]).exists() == (code == 0), (argv, code, err)
