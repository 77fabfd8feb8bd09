import json

import numpy as np
import pytest

from ctxclf.errors import NoRecords, RaggedRecord, SignalsetError, TooFewPerClass, WindowTooLong
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
    with pytest.raises(RaggedRecord):
        SignalRecord("r", np.zeros((2, 8)), 1000, 1)  # too few samples
    with pytest.raises(RaggedRecord):
        SignalRecord("r", np.zeros(32), 1000, 1)  # not 2-D
    with pytest.raises(ValueError):
        SignalRecord("r", np.zeros((1, 32)), 0, 1)


def test_set_validation():
    r = SignalRecord("a", np.zeros((2, 32)), 1000, 1)
    with pytest.raises(NoRecords):
        SignalSet(records=(), num_classes=1, num_channels=2, sample_rate_hz=1000)
    with pytest.raises(NoRecords):
        # class 2 has no records
        SignalSet(records=(r,), num_classes=2, num_channels=2, sample_rate_hz=1000)
    with pytest.raises(RaggedRecord):
        SignalSet(records=(r,), num_classes=1, num_channels=3, sample_rate_hz=1000)
    with pytest.raises(ValueError):
        bad = SignalRecord("b", np.zeros((2, 32)), 500, 1)
        SignalSet(records=(r, bad), num_classes=1, num_channels=2, sample_rate_hz=1000)


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
    ],
    ids=["repeated-name", "path-in-id", "empty-id", "label-only-id", "nul-in-id"],
)
def test_save_refuses_a_record_it_cannot_write_under_its_own_name(tmp_path, ids, message):
    """Each record gets its own file in records/ or nothing is written, the directory
    included: before, the first case saved 4 records that loaded back as 2, the second
    wrote `escaped_1.csv` beside records/, the next two wrote `_1.csv`, which load_signalset
    refuses, and the last wrote meta.json and records/ before the OS refused the name."""
    records = tuple(SignalRecord(rid, np.zeros((1, 32)), 1000, label) for rid, label in ids)
    sset = SignalSet(records=records, num_classes=2, num_channels=1, sample_rate_hz=1000)
    with pytest.raises(SignalsetError, match=message):
        save_signalset(sset, tmp_path / "s")
    assert list(tmp_path.iterdir()) == []


def test_load_missing_and_malformed(tmp_path):
    with pytest.raises(NoRecords):
        load_signalset(tmp_path / "nope")
    root = tmp_path / "s"
    (root / "records").mkdir(parents=True)
    (root / "meta.json").write_text(
        '{"num_classes": 2, "num_channels": 2, "sample_rate_hz": 1000}'
    )
    with pytest.raises(NoRecords):
        load_signalset(root)  # no CSVs
    bad = root / "records" / "a_1.csv"
    bad.write_text("c1,c2\n1.0\n")  # ragged row
    with pytest.raises(RaggedRecord):
        load_signalset(root)


def test_segment_windows_and_errors():
    sset = toy_signalset(num_classes=2, records_per_class=2, samples=100)
    seg = segment(sset, window_ms=32)  # 32 samples at 1 kHz
    # floor(100 / 32) = 3 windows per record
    assert len(seg.records) == 3 * len(sset.records)
    assert all(r.num_samples == 32 for r in seg.records)
    with pytest.raises(WindowTooLong):
        segment(sset, window_ms=200)
    with pytest.raises(WindowTooLong):
        segment(sset, window_ms=8)  # below the sample minimum


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
    with pytest.raises(TooFewPerClass):
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
        ("num_classes", 2**64, f"{2**64} classes, but 6 record files"),
    ],
    ids=[
        "float", "string", "bool", "one-class", "no-channels", "zero-rate", "negative-rate", "huge"
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
