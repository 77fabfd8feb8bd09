"""One mutation of one CLI input: the program exits 0, 1 or 2 and never shows a traceback.

The inputs are a valid run config, its structure, a constraint table and the
signalset's meta.json or one record CSV. A mutation drops a key, sets it to
null, to a value of the wrong type, to an empty list, to nan, inf, a huge or
a negative number, or replaces the whole file with bytes that are not text or
with a JSON array nested too deeply to decode.
A failing command prints at most one stderr line, an ``ERROR:`` or
``violation:`` line, and leaves no output behind.
"""

import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxclf import cli
from ctxclf.context import validate_structure
from ctxclf.signals import save_signalset
from ctxclf.synth import synth_signalset
from conftest import make_structure, structure_to_dict

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
