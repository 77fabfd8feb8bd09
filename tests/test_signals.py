import dataclasses
import json
import re

import numpy as np
import pytest

from ctxclf.errors import SignalsetError
from ctxclf.signals import (
    SignalRecord,
    SignalSet,
    load_signalset,
    save_signalset,
    segment,
    stratified_folds,
)
from conftest import toy_signalset


def test_record_validation():
    with pytest.raises(SignalsetError, match=r"^record r: 8 samples, need >= 16$"):
        SignalRecord("r", np.zeros((2, 8)), 1000, 1)
    with pytest.raises(SignalsetError, match=r"^record r: channels must be 2-D, got 1-D$"):
        SignalRecord("r", np.zeros(32), 1000, 1)
    with pytest.raises(SignalsetError, match=r"^record r: 0 Hz is not finite and positive$"):
        SignalRecord("r", np.zeros((1, 32)), 0, 1)


@pytest.mark.parametrize(
    "channels, rate, refusal",
    [
        (np.zeros((0, 32)), 1000, "no channels"),
        (np.zeros((2, 32)), -1, "-1 Hz is not finite and positive"),
        (np.zeros((2, 32)), float("nan"), "nan Hz is not finite and positive"),
        (np.zeros((2, 32)), float("inf"), "inf Hz is not finite and positive"),
        (np.zeros((2, 32)), -float("inf"), "-inf Hz is not finite and positive"),
    ],
    ids=["zero-channels", "negative", "nan", "inf", "minus-inf"],
)
def test_record_refuses_no_channels_and_a_rate_not_finite_and_positive(channels, rate, refusal):
    """Zero channels and a NaN or infinite rate once built a record: zero channels then raised
    ZeroDivisionError in feature_matrix, a NaN rate a set error naming 'nan Hz, expected nan',
    and an inf rate a bare TypeError in segment. An integer rate too large for a float is
    still taken."""
    with pytest.raises(SignalsetError, match=f"^record r: {re.escape(refusal)}$"):
        SignalRecord("r", channels, rate, 1)
    assert SignalRecord("r", np.zeros((2, 32)), 10**400, 1).sample_rate_hz == 10**400


def test_set_validation():
    r = SignalRecord("a", np.zeros((2, 32)), 1000, 1)
    with pytest.raises(SignalsetError, match=r"^signal set contains no records$"):
        SignalSet(records=())
    with pytest.raises(SignalsetError, match=r"^record b: 3 channels, expected 2$"):
        SignalSet((r, SignalRecord("b", np.zeros((3, 32)), 1000, 2)))
    with pytest.raises(SignalsetError, match=r"^record b: 500 Hz, expected 1000$"):
        SignalSet((r, SignalRecord("b", np.zeros((2, 32)), 500, 1)))
    labelled = r"^record b: label 3, but a set of 2 classes is labelled 1\.\.2$"
    with pytest.raises(SignalsetError, match=labelled):
        SignalSet((r, SignalRecord("b", np.zeros((2, 32)), 1000, 3)))


@pytest.mark.parametrize(
    "labels, bad",
    [((2,), 2), ((0, 1), 0), ((1, -1, 2), -1), ((1, 2**64), 2**64), ((1, 2, 2, 4), 4)],
    ids=["no-class-1", "zero", "negative", "huge", "gap"],
)
def test_set_labels_must_be_one_to_the_number_of_classes(labels, bad):
    """A set's classes are its distinct labels, which must be exactly 1..C; a label of
    2**64 costs no range of that size, and the message names the first record outside."""
    records = tuple(SignalRecord(f"r{i}", np.zeros((1, 32)), 1000, c) for i, c in enumerate(labels))
    C, first = len(set(labels)), labels.index(bad)
    message = rf"^record r{first}: label {bad}, but a set of {C} classes is labelled 1\.\.{C}$"
    with pytest.raises(SignalsetError, match=message):
        SignalSet(records)


def test_set_reads_its_sizes_from_its_records():
    sset = SignalSet(tuple(SignalRecord(f"r{c}", np.zeros((3, 32)), 250, c) for c in (2, 1, 3, 2)))
    assert (sset.num_classes, sset.num_channels, sset.sample_rate_hz) == (3, 3, 250)
    assert [f.name for f in dataclasses.fields(sset)] == ["records"]


def test_save_load_round_trip(tmp_path):
    sset = toy_signalset(num_classes=2, records_per_class=3, samples=40)
    save_signalset(sset, tmp_path / "s")
    back = load_signalset(tmp_path / "s")
    assert back.num_classes == sset.num_classes
    assert back.num_channels == sset.num_channels
    assert back.sample_rate_hz == sset.sample_rate_hz
    assert len(back.records) == len(sset.records)
    orig = {r.record_id: r for r in sset.records}
    for r in back.records:
        rid = r.record_id.rsplit("_", 1)[0]
        assert np.array_equal(r.channels, orig[rid].channels)
        assert r.class_label == orig[rid].class_label


@pytest.mark.parametrize(
    "ids, message",
    [
        (
            [("x", 1), ("x_1", 1), ("y", 2), ("y", 2)],
            r"^record x_1: file name 'x_1\.csv' is taken by record x$",
        ),
        (
            [("../escaped", 1), ("y", 2)],
            r"^record \.\./escaped: file name '\.\./escaped_1\.csv' is not a bare name$",
        ),
        ([("", 1), ("y", 2)], r"^record '': file name '_1\.csv' has an empty id$"),
        ([("_1", 1), ("y", 2)], r"^record '_1': file name '_1\.csv' has an empty id$"),
        (
            [("a\0b", 1), ("y", 2)],
            r"^record 'a\\x00b': file name 'a\\x00b_1\.csv' holds a NUL byte$",
        ),
        (
            [("a" * 300, 1), ("y", 2)],
            r"^record 'a{300}': file name 'a{300}_1\.csv' is 306 bytes, over 255$",
        ),
        (
            [("é" * 127, 1), ("y", 2)],  # 133 characters, 260 bytes of UTF-8
            r"^record 'é{127}': file name 'é{127}_1\.csv' is 260 bytes, over 255$",
        ),
        (
            [("\ud800", 1), ("y", 2)],  # a lone surrogate, which the file-system encoding cannot carry
            r"^record '\\ud800': file name '\\ud800_1\.csv' cannot be encoded$",
        ),
    ],
    ids=[
        "repeated-name", "path-in-id", "empty-id", "label-only-id", "nul-in-id", "long-id",
        "long-utf8-id", "surrogate-id",
    ],
)
def test_save_refuses_a_record_it_cannot_write_under_its_own_name(tmp_path, ids, message):
    """Each record gets its own file in records/ or nothing is written, the directory
    included: before, the first case saved 4 records that loaded back as 2, the second
    wrote `escaped_1.csv` beside records/, the next two wrote `_1.csv`, which load_signalset
    refuses, the next three wrote meta.json and records/ before the OS refused the name
    (a NUL byte, or a name over 255 bytes), and the last escaped as a UnicodeEncodeError."""
    records = tuple(SignalRecord(rid, np.zeros((1, 32)), 1000, label) for rid, label in ids)
    sset = SignalSet(records)
    with pytest.raises(SignalsetError, match=message):
        save_signalset(sset, tmp_path / "s")
    assert list(tmp_path.iterdir()) == []


def test_save_refuses_a_target_that_is_not_an_empty_directory(tmp_path):
    """A target that holds files is refused before anything is written, as its old records
    would stay beside the new ones (6 records saved over 12 loaded back as 12). An empty
    directory is taken."""
    root = tmp_path / "s"
    save_signalset(toy_signalset(num_classes=3, records_per_class=4), root)

    def tree():
        return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}

    before = tree()
    for target in (root, root / "meta.json"):
        message = f"^{re.escape(str(target))}: exists and is not an empty directory$"
        with pytest.raises(SignalsetError, match=message):
            save_signalset(toy_signalset(num_classes=2, records_per_class=3), target)
    assert tree() == before
    (tmp_path / "empty").mkdir()
    save_signalset(toy_signalset(num_classes=2, records_per_class=3), tmp_path / "empty")
    assert len(load_signalset(tmp_path / "empty").records) == 6


def rewrite_first_record(data: bytes):
    return lambda root: (root / "records" / "c1r0_1.csv").write_bytes(data)


def rename_first_record(name: str):
    return lambda root: (root / "records" / "c1r0_1.csv").rename(root / "records" / name)


@pytest.mark.parametrize(
    "fault, message",
    [
        (lambda root: (root / "meta.json").unlink(), r"^missing metadata file {root}/meta\.json$"),
        (
            lambda root: [p.unlink() for p in (root / "records").iterdir()],
            r"^no record CSVs under {root}/records$",
        ),
        (rename_first_record("c1r0.csv"), r"^record file c1r0\.csv: expected <id>_<label>\.csv$"),
        (rewrite_first_record(b"c1\n1.0\n"), r"^record c1r0_1: 1 columns, expected 2$"),
        (rewrite_first_record(b"c1,c2\n1.0\n"), r"^record c1r0_1: ragged row with 1 columns$"),
        (
            rewrite_first_record(b"c1,c2\n1.0,2.0\n3.0,inf\n"),
            r"^record c1r0_1: row 2, column c2: expected a finite number, got inf$",
        ),
        (rewrite_first_record(b"c1,c2\n\xff,1.0\n"), r"^record c1r0_1: not UTF-8 text$"),
        (rename_first_record("c1r0_3.csv"), r"^record c1r0_3: label 3 outside 1\.\.2$"),
        # a superscript two and an Arabic-Indic one are digits to str.isdigit, not to the loader
        (rename_first_record("odd_².csv"), r"^record file odd_²\.csv: expected <id>_<label>\.csv$"),
        (rename_first_record("odd_١.csv"), r"^record file odd_١\.csv: expected <id>_<label>\.csv$"),
    ],
    ids=[
        "no-meta", "no-records", "bad-file-name", "header-width", "ragged-row", "non-finite",
        "not-utf8", "label-out-of-range", "superscript-label", "arabic-indic-label",
    ],
)
def test_every_fault_of_a_signalset_directory_is_a_signalset_error(tmp_path, fault, message):
    """A caller catches every fault of a signalset directory as SignalsetError."""
    root = tmp_path / "s"
    save_signalset(toy_signalset(num_classes=2, records_per_class=3), root)
    fault(root)
    with pytest.raises(SignalsetError, match=message.format(root=re.escape(str(root)))):
        load_signalset(root)


def test_load_missing_and_malformed(tmp_path):
    meta = re.escape(str(tmp_path / "nope" / "meta.json"))
    with pytest.raises(SignalsetError, match=f"^missing metadata file {meta}$"):
        load_signalset(tmp_path / "nope")
    root = tmp_path / "s"
    (root / "records").mkdir(parents=True)
    (root / "meta.json").write_text(
        '{"num_classes": 2, "num_channels": 2, "sample_rate_hz": 1000}'
    )
    records = re.escape(str(root / "records"))
    with pytest.raises(SignalsetError, match=f"^no record CSVs under {records}$"):
        load_signalset(root)
    bad = root / "records" / "a_1.csv"
    bad.write_text("c1,c2\n1.0\n")
    with pytest.raises(SignalsetError, match=r"^record a_1: ragged row with 1 columns$"):
        load_signalset(root)


def test_segment_windows_and_errors():
    sset = toy_signalset(num_classes=2, records_per_class=2, samples=100)
    seg = segment(sset, window_ms=32)  # 32 samples at 1 kHz
    # floor(100 / 32) = 3 windows per record
    assert len(seg.records) == 3 * len(sset.records)
    assert all(r.num_samples == 32 for r in seg.records)
    with pytest.raises(
        SignalsetError, match=r"^window of 200 samples exceeds shortest record \(100\)$"
    ):
        segment(sset, window_ms=200)
    with pytest.raises(
        SignalsetError, match=r"^window of 8 samples is below the 16-sample minimum$"
    ):
        segment(sset, window_ms=8)


def test_stratified_folds_balance_and_determinism():
    labels = toy_signalset(num_classes=3, records_per_class=10).labels()
    folds = stratified_folds(labels, 4, np.random.default_rng(5))
    for cls in range(1, 4):
        counts = np.bincount(folds[labels == cls], minlength=4)
        assert len(counts) == 4 and counts.max() - counts.min() <= 1
    again = stratified_folds(labels, 4, np.random.default_rng(5))
    assert np.array_equal(folds, again)
    other = stratified_folds(labels, 4, np.random.default_rng(6))
    assert not np.array_equal(folds, other)


def test_split_partitions_everything():
    labels = toy_signalset(num_classes=2, records_per_class=8).labels()
    folds = stratified_folds(labels, 4, np.random.default_rng(0))
    assert folds.shape == labels.shape
    seen = set()
    for fold in range(4):
        train, test = np.flatnonzero(folds != fold), np.flatnonzero(folds == fold)
        assert sorted([*train.tolist(), *test.tolist()]) == list(range(len(labels)))
        seen.update(test.tolist())
    assert seen == set(range(len(labels)))


def test_stratified_folds_too_few():
    labels = toy_signalset(num_classes=2, records_per_class=3).labels()
    with pytest.raises(SignalsetError, match=r"^class 1 has 3 records, needs >= 4$"):
        stratified_folds(labels, 4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        stratified_folds(labels, 1, np.random.default_rng(0))


@pytest.mark.parametrize(
    "key, value, fragment",
    [
        ("num_classes", 6.7, "expected an integer, got 6.7"),
        ("num_classes", "6", "expected an integer, got '6'"),
        ("num_classes", True, "expected an integer, got True"),
        ("num_classes", 1, "must be >= 2, got 1"),
        ("num_channels", 0, "must be >= 1, got 0"),
        ("sample_rate_hz", 0, "must be >= 1, got 0"),
        ("sample_rate_hz", -1000, "must be >= 1, got -1000"),
        ("num_classes", 2**64, f"{2**64} classes, but the records hold 2"),
        ("num_classes", 3, "3 classes, but the records hold 2"),
    ],
    ids=[
        "float", "string", "bool", "one-class", "no-channels", "zero-rate", "negative-rate", "huge",
        "more-classes-than-labels",
    ],
)
def test_meta_fields_are_strict_integers(tmp_path, key, value, fragment):
    save_signalset(toy_signalset(num_classes=2, records_per_class=3), tmp_path / "s")
    meta_path = tmp_path / "s" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta[key] = value
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(SignalsetError) as info:
        load_signalset(tmp_path / "s")
    assert str(info.value).startswith(f"{meta_path}: {key}: ")
    assert str(info.value).endswith(fragment)
