import json
import math
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import ctxclf
from ctxclf.context import (
    MAX_CLASSES,
    Binding,
    ContextStructure,
    brute_force_feasible,
    count_feasible,
    derive_constraints,
    enumerate_feasible,
    load_structure,
    load_table,
    local_classes,
    binding_feasible,
    structure_from_dict,
    validate_structure,
)
from ctxclf.errors import DuplicateClassInBox, InfeasibleStructure, StructureError
from conftest import (
    flat_structure,
    make_structure,
    random_structure,
    structure_file,
    structure_to_dict,
)


def test_five_class_feasible_count_is_12():
    s = structure_file("five_class")
    assert validate_structure(s) == []
    feas = enumerate_feasible(derive_constraints(s))
    assert len(feas) == 12


def test_five_class_constraint_table():
    table = derive_constraints(structure_file("five_class"))
    assert table == {
        1: (1, 2),
        2: (1, 2),
        3: (2, 3, 4, 5),
        4: (2, 3, 4, 5),
        5: (2, 3, 4, 5),
    }


def test_unconstrained_table_gives_factorial():
    table = {k: (1, 2, 3, 4, 5) for k in range(1, 6)}
    assert len(enumerate_feasible(table)) == math.factorial(5)


def test_load_table_holds_each_class_list_as_a_sorted_set(tmp_path):
    """The form enumerate_feasible lists in lexicographic order from, whatever the file's order."""
    p = tmp_path / "table.json"
    permitted = {"2": [3, 1, 3], "1": [2], "3": [1, 3]}
    p.write_text(json.dumps({"num_classes": 3, "permitted": permitted}))
    assert load_table(p) == {2: (1, 3), 1: (2,), 3: (1, 3)}
    p.write_text(json.dumps({"num_classes": 2, "permitted": {"1": [1, 2]}}))
    with pytest.raises(StructureError, match=r"^permitted: expected movement ids 1\.\.2$"):
        load_table(p)


def test_enumeration_is_lexicographic_and_stable():
    s = structure_file("six_class")
    feas = enumerate_feasible(derive_constraints(s))
    secs = [b.secondary for b in feas]
    assert secs == sorted(secs)
    again = [b.secondary for b in enumerate_feasible(derive_constraints(s))]
    assert secs == again


def test_oracle_equivalence_random_structures():
    rng = np.random.default_rng(7)
    for _ in range(20):
        C = int(rng.integers(2, 7))
        s = random_structure(rng, C)
        try:
            feas = enumerate_feasible(derive_constraints(s))
        except InfeasibleStructure:
            feas = []
        brute = brute_force_feasible(s)
        assert {b.secondary for b in feas} == {b.secondary for b in brute}


@pytest.mark.parametrize("name", ["five_class", "six_class", "eight_class_grips", "flat2-9"])
def test_count_equals_the_listed_feasible_set(name):
    if name == "flat2-9":
        tables = [derive_constraints(flat_structure(c)) for c in range(2, 10)]
    else:
        tables = [derive_constraints(structure_file(name))]
    for table in tables:
        assert count_feasible(table) == len(enumerate_feasible(table))


def test_count_of_random_and_of_large_tables():
    rng = np.random.default_rng(11)
    for _ in range(30):  # random tables, empty sets included
        C = int(rng.integers(0, 7))
        permitted = {k: tuple(np.flatnonzero(rng.random(C) < 0.6) + 1) for k in range(1, C + 1)}
        assert count_feasible(permitted) == len(enumerate_feasible(permitted))
    subfactorial = 1
    for c in range(1, MAX_CLASSES + 1):  # flat C: the derangements, !C = C !(C-1) + (-1)^C
        subfactorial = c * subfactorial + (-1) ** c
        if c in (10, 11, MAX_CLASSES):
            assert count_feasible(derive_constraints(flat_structure(c))) == subfactorial
    every_class = tuple(range(1, MAX_CLASSES + 1))
    unconstrained = {k: every_class for k in every_class}
    assert count_feasible(unconstrained) == math.factorial(MAX_CLASSES)  # the largest count: int64


def test_listing_builds_no_row_it_cannot_complete():
    """12 classes with the last 4 movements pinned to classes 1-4 have 8! = 40,320 bindings,
    but about 20 million partial rows that cannot all be completed: a listing that built them
    all would end in a MemoryError within a 1 GB address space."""
    code = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from ctxclf.context import count_feasible, enumerate_feasible
        permitted = {k: tuple(range(1, 13)) for k in range(1, 9)}
        permitted.update({8 + c: (c,) for c in range(1, 5)})
        rows = [b.secondary for b in enumerate_feasible(permitted)]
        assert len(rows) == count_feasible(permitted) == 40320 and rows == sorted(rows)
    """)
    src = str(Path(ctxclf.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def test_every_feasible_binding_passes_independent_walk():
    s = structure_file("five_class")
    for b in enumerate_feasible(derive_constraints(s)):
        assert binding_feasible(s, b)


def test_binding_validation_and_class_map():
    b = Binding((2, 1, 4, 3))
    for m in range(1, 5):
        assert b.class_of_movement(m) == m  # primary identity
    assert [b.class_of_movement(m) for m in (5, 6, 7, 8)] == [2, 1, 4, 3]
    message = r"^secondary assignment \(1, 1, 2\) is not a permutation of 1\.\.3$"
    with pytest.raises(ValueError, match=message):
        Binding((1, 1, 2))
    with pytest.raises(ValueError):
        b.class_of_movement(9)


def test_local_classes_closer_first():
    s = structure_file("five_class")
    binding = enumerate_feasible(derive_constraints(s))[0]
    box1 = s.root.children[0]  # opened by movement 3
    classes = local_classes(binding, box1)
    assert classes[0] == 3  # the closer's class leads
    assert len(set(classes)) == len(classes)


def test_local_classes_duplicate_raises():
    s = make_structure(3, [(0, None, None, [2, 3]), (1, 0, 1, [4, 5, 6])])
    # secondary (1, 2, 3): box 1 holds movements 4,5,6 -> classes 1,2,3 plus closer 1
    bad = Binding((1, 2, 3))
    with pytest.raises(DuplicateClassInBox):
        local_classes(bad, s.root.children[0])
    assert not binding_feasible(s, bad)


def test_validate_structure_violations():
    # duplicate member in one box
    s = make_structure(3, [(0, None, None, [2, 3]), (1, 0, 1, [4, 4, 5, 6])])
    assert any("twice" in v for v in validate_structure(s))
    # movement never placed
    s = make_structure(3, [(0, None, None, [2, 3]), (1, 0, 1, [4, 5])])
    assert any("not placed" in v for v in validate_structure(s))
    # a member that is no movement id of the structure
    s = make_structure(3, [(0, None, None, [2, 3]), (1, 0, 1, [4, 5, 6]), (2, 0, 2, [-2, 99])])
    assert "box 2 holds movements outside 1..6: [-2, 99]" in validate_structure(s)
    # wrong movement ids are reported alone, and too many classes before them
    s = make_structure(3, [(0, None, None, [2, 3]), (1, 0, 1, [4, 5, 6])])
    wider = ContextStructure(num_classes=4, movements=s.movements, root=s.root)
    assert validate_structure(wider) == [
        "movement ids must be exactly 1..8, got [1, 2, 3, 4, 5, 6]"
    ]
    huge = ContextStructure(num_classes=2**64, movements=s.movements, root=s.root)
    assert validate_structure(huge) == [f"num_classes: at most {MAX_CLASSES} classes, got {2**64}"]
    # root must hold exactly the primaries
    s = make_structure(2, [(0, None, None, [2, 3]), (1, 0, 2, [4])])
    assert any("root box" in v for v in validate_structure(s))
    # box larger than C
    s = make_structure(2, [(0, None, None, [2]), (1, 0, 1, [3, 4])])
    assert any("more than C" in v for v in validate_structure(s))
    # two primaries cannot share a class slot via opener re-listing
    s = make_structure(3, [(0, None, None, [2, 3]), (1, 0, 1, [1, 4, 5, 6])])
    assert validate_structure(s)


def test_declared_closer_mismatch_flagged():
    doc = structure_to_dict(make_structure(2, [(0, None, None, [2]), (1, 0, 1, [3, 4])]))
    doc["boxes"][1]["closes_with_movement"] = 2  # violates closer == opener
    s = structure_from_dict(doc)
    assert any("closing movement" in v for v in validate_structure(s))


def test_infeasible_structure_reports_movement():
    # box holds both primaries plus a secondary -> no class left for it
    s = make_structure(2, [(0, None, None, [2]), (1, 0, 1, [2, 3]), (2, 0, 2, [4])])
    with pytest.raises(InfeasibleStructure):
        derive_constraints(s)


def test_structure_round_trip_and_load(tmp_path):
    s = structure_file("five_class")
    doc = structure_to_dict(s)
    assert structure_from_dict(doc) == s
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc))
    assert load_structure(p) == s


def test_load_structure_reports_json_location(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"num_classes": 5,\n  "movements": [,]}')
    with pytest.raises(StructureError) as exc:
        load_structure(p)
    assert "line 2" in str(exc.value)


def test_structure_from_dict_errors():
    with pytest.raises(StructureError):
        structure_from_dict({"num_classes": 2, "movements": [], "boxes": []})  # no root
    with pytest.raises(StructureError):
        structure_from_dict(
            {
                "num_classes": 2,
                "movements": [{"id": 1}],
                "boxes": [
                    {"id": 0, "parent": None, "internal_movements": []},
                    {"id": 1, "parent": 5, "opens_with_movement": 1},
                ],
            }
        )


@pytest.mark.parametrize(
    "path, value",
    [
        ("num_classes", "x"),
        ("movements[2].id", None),
        ("boxes[0].id", "root"),
        ("boxes[1].parent", "one"),
        ("boxes[1].opens_with_movement", [1]),
        ("boxes[2].internal_movements[1]", "nine"),
        ("boxes[3].closes_with_movement", float("inf")),
        ("num_classes", 6.9),
        ("boxes[1].parent", 0.5),
        ("boxes[2].internal_movements[0]", "9"),
        ("boxes[3].parent", True),
    ],
)
def test_structure_from_dict_names_non_integer_fields(path, value):
    with pytest.raises(StructureError) as exc:
        structure_from_dict(six_class_doc_with(path, value))
    assert str(exc.value) == f"{path}: expected an integer, got {value!r}"


MISSING = object()


def six_class_doc_with(path, value):
    """The six-class structure document with the field at ``path`` set to value (or deleted)."""
    doc = structure_to_dict(structure_file("six_class"))
    keys = [int(k) if k.isdigit() else k for k in re.findall(r"\w+", path)]
    node = doc
    for k in keys[:-1]:
        node = node[k]
    if value is MISSING:
        del node[keys[-1]]
    else:
        node[keys[-1]] = value
    return doc


@pytest.mark.parametrize(
    "path, value, expected",
    [
        ("boxes[2].internal_movements", 5, "a list"),
        ("boxes[1].internal_movements", None, "a list"),
        ("boxes[1].internal_movements", {"0": 3}, "a list"),
        ("boxes", {"0": {"id": 0}}, "a list"),
        ("boxes[1]", 7, "an object"),
        ("boxes[0]", [0, None], "an object"),
        ("movements", 3, "a list"),
        ("movements", "grip", "a list"),
        ("movements[0]", 1, "an object"),
    ],
)
def test_structure_from_dict_names_non_list_and_non_object_fields(path, value, expected):
    with pytest.raises(StructureError) as exc:
        structure_from_dict(six_class_doc_with(path, value))
    assert str(exc.value) == f"{path}: expected {expected}, got {value!r}"


@pytest.mark.parametrize("doc", [[], 5, "structure", None])
def test_structure_from_dict_refuses_a_non_object_document(doc):
    with pytest.raises(StructureError) as exc:
        structure_from_dict(doc)
    assert str(exc.value) == f"structure: expected an object, got {doc!r}"


@pytest.mark.parametrize(
    "path", ["num_classes", "movements", "boxes", "boxes[2].id", "movements[1].id"]
)
def test_structure_from_dict_names_missing_fields(path):
    with pytest.raises(StructureError) as exc:
        structure_from_dict(six_class_doc_with(path, MISSING))
    assert str(exc.value) == f"{path}: missing"


def test_box_accessors():
    s = structure_file("six_class")
    assert s.num_boxes == 3
    boxes = list(s.root.walk())
    assert [b.index for b in boxes] == [0, 1, 2, 3]  # pre-order, root first
    assert boxes[0] is s.root
    nested = boxes[2]
    assert s.root.slots() == s.root.member_movements()
    assert nested.slots() == (nested.opener,) + nested.member_movements()
    assert len(s.root.slots()) == 6  # M_0: the root has no closer
    assert len(nested.slots()) == 3  # M_2: the closer m7, then m9 and m10
