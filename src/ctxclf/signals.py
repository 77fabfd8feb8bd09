"""Loading, windowing and fold-splitting of labelled multichannel records.

On-disk layout of a signalset directory::

    meta.json                  {"num_classes": C, "num_channels": N, "sample_rate_hz": fs}
    records/<id>_<label>.csv   header c1,...,cN, one row per time sample

All types are immutable after construction and safe to share read-only.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ctxclf.errors import SignalsetError
from ctxclf.jsonfile import expect, read_field, read_json

MIN_SAMPLES = 16


@dataclass(frozen=True)
class SignalRecord:
    """One fixed-length multichannel window with a class label."""

    record_id: str
    channels: np.ndarray  # (num_channels, num_samples), float64
    sample_rate_hz: int
    class_label: int

    def __post_init__(self):
        ch = np.asarray(self.channels, dtype=np.float64)
        if ch.ndim != 2:
            raise SignalsetError(f"record {self.record_id}: channels must be 2-D, got {ch.ndim}-D")
        if ch.shape[0] == 0:
            raise SignalsetError(f"record {self.record_id}: no channels")
        if ch.shape[1] < MIN_SAMPLES:
            raise SignalsetError(
                f"record {self.record_id}: {ch.shape[1]} samples, need >= {MIN_SAMPLES}"
            )
        # min and max propagate NaN and, unlike np.isfinite, make no (C, n) temporary
        if not (math.isfinite(ch.min()) and math.isfinite(ch.max())):
            raise SignalsetError(f"record {self.record_id}: non-finite sample values")
        # NaN fails both tests and math.isfinite(10**400) raises; a non-number, on which `<`
        # raises a TypeError, is left to the integer check below
        rate = self.sample_rate_hz
        if isinstance(rate, numbers.Real) and not 0 < rate < math.inf:
            raise SignalsetError(f"record {self.record_id}: {rate} Hz is not finite and positive")
        for key in ("sample_rate_hz", "class_label"):
            expect(getattr(self, key), int, f"record {self.record_id}: {key}", SignalsetError)
        object.__setattr__(self, "channels", ch)

    @property
    def num_channels(self) -> int:
        return self.channels.shape[0]

    @property
    def num_samples(self) -> int:
        return self.channels.shape[1]


@dataclass(frozen=True)
class SignalSet:
    """Labelled records sharing channel count and rate; ``num_channels``, ``sample_rate_hz``
    and ``num_classes`` (the labels are exactly 1..num_classes) are read from them."""

    records: tuple[SignalRecord, ...]

    def __post_init__(self):
        if not self.records:
            raise SignalsetError("signal set contains no records")
        channels, rate = self.records[0].num_channels, self.records[0].sample_rate_hz
        for r in self.records:
            if r.num_channels != channels:
                raise SignalsetError(
                    f"record {r.record_id}: {r.num_channels} channels, expected {channels}"
                )
            if r.sample_rate_hz != rate:
                raise SignalsetError(f"record {r.record_id}: {r.sample_rate_hz} Hz, expected {rate}")
        labels = {r.class_label for r in self.records}
        C = len(labels)
        if labels != set(range(1, C + 1)):  # then some label lies outside 1..C
            bad = next(r for r in self.records if not 1 <= r.class_label <= C)
            raise SignalsetError(
                f"record {bad.record_id}: label {bad.class_label}, "
                f"but a set of {C} classes is labelled 1..{C}"
            )
        object.__setattr__(self, "num_classes", C)  # not fields, like FeatureMask.source_dim
        object.__setattr__(self, "num_channels", channels)
        object.__setattr__(self, "sample_rate_hz", rate)

    @property
    def class_counts(self) -> dict[int, int]:
        counts = {c: 0 for c in range(1, self.num_classes + 1)}
        for r in self.records:
            counts[r.class_label] += 1
        return counts

    def labels(self) -> np.ndarray:
        return np.array([r.class_label for r in self.records], dtype=np.int64)


def load_signalset(path) -> SignalSet:
    """Read a signalset directory into memory, validating all invariants."""
    root = Path(path)
    meta_path = root / "meta.json"
    if not meta_path.is_file():
        raise SignalsetError(f"missing metadata file {meta_path}")
    meta = expect(read_json(meta_path, SignalsetError), dict, str(meta_path), SignalsetError)
    num_classes = _meta_int(meta, "num_classes", meta_path, 2)
    num_channels = _meta_int(meta, "num_channels", meta_path, 1)
    sample_rate = _meta_int(meta, "sample_rate_hz", meta_path, 1)

    rec_dir = root / "records"
    csv_paths = sorted(rec_dir.glob("*.csv")) if rec_dir.is_dir() else []
    if not csv_paths:
        raise SignalsetError(f"no record CSVs under {rec_dir}")

    records = []
    for p in csv_paths:
        stem = p.stem
        rid, _, label_str = stem.rpartition("_")
        if not rid or not (label_str.isascii() and label_str.isdigit()):
            raise SignalsetError(f"record file {p.name}: expected <id>_<label>.csv")
        label = int(label_str)
        if not 1 <= label <= num_classes:
            raise SignalsetError(f"record {stem}: label {label} outside 1..{num_classes}")
        rows = _read_csv_rows(p, num_channels)
        records.append(
            SignalRecord(
                record_id=stem,
                channels=rows.T,
                sample_rate_hz=sample_rate,
                class_label=label,
            )
        )
    sset = SignalSet(tuple(records))
    if sset.num_classes != num_classes:
        raise SignalsetError(
            f"{meta_path}: num_classes: {num_classes} classes, but the records hold {sset.num_classes}"
        )
    return sset


def _meta_int(meta: dict, key: str, path: Path, least: int) -> int:
    """meta[key], a JSON integer >= least."""
    value = read_field(meta, key, int, f"{path}: ", SignalsetError)
    if value < least:
        raise SignalsetError(f"{path}: {key}: must be >= {least}, got {value}")
    return value


def _read_csv_rows(path: Path, num_channels: int) -> np.ndarray:
    """The (samples, num_channels) values below the header of a record CSV.

    A valid record is parsed by one ``np.loadtxt`` call. Its result is kept only
    when it has one row per data line (``loadtxt`` skips a blank line, which is a
    ragged row) and every value is finite; any other file goes through
    ``_read_csv_loop``, which reports every other error. A file with a blank line
    goes there at once, as ``loadtxt`` warns when it skips every line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError:
        raise SignalsetError(f"record {path.stem}: not UTF-8 text") from None
    if lines and lines[-1] == "":
        lines.pop()
    try:
        header = next(csv.reader(lines[:1]), None)
    except csv.Error:
        header = None
    if header is None or len(header) != num_channels or len(lines) < 2 or "" in lines:
        return _read_csv_loop(path, num_channels)
    try:
        values = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    except ValueError:
        return _read_csv_loop(path, num_channels)
    if values.shape != (len(lines) - 1, num_channels) or not np.isfinite(values).all():
        return _read_csv_loop(path, num_channels)
    return values


def _read_csv_loop(path: Path, num_channels: int) -> np.ndarray:
    """``_read_csv_rows`` by ``csv.reader`` and ``float()``; raises every loader error."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or len(header) != num_channels:
                raise SignalsetError(
                    f"record {path.stem}: {0 if header is None else len(header)} columns, "
                    f"expected {num_channels}"
                )
            data = []
            for row in reader:
                if len(row) != num_channels:
                    raise SignalsetError(f"record {path.stem}: ragged row with {len(row)} columns")
                data.append([])
                for col, v in enumerate(row):
                    try:
                        data[-1].append(float(v))
                    except ValueError:
                        raise _bad_value(path, len(data), header[col], repr(v)) from None
        except csv.Error as exc:  # e.g. a field above csv.field_size_limit()
            where = "header" if reader.line_num <= 1 else f"row {reader.line_num - 1}"
            raise SignalsetError(f"record {path.stem}: {where}: {exc}") from None
    values = np.asarray(data, dtype=np.float64).reshape(len(data), num_channels)
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        i, col = bad[0]
        raise _bad_value(path, i + 1, header[col], float(values[i, col]))
    return values


def _bad_value(path: Path, row: int, column: str, value) -> SignalsetError:
    return SignalsetError(
        f"record {path.stem}: row {row}, column {column}: expected a finite number, got {value}"
    )


def save_signalset(sset: SignalSet, path) -> None:
    """Write a SignalSet to the directory layout read by load_signalset, every record or none:
    a file name that load_signalset or the OS cannot take, or a repeated one, is refused first,
    and so is a target that exists and is not an empty directory (its old records would stay)."""
    root = Path(path)
    if root.exists() and (not root.is_dir() or any(root.iterdir())):
        raise SignalsetError(f"{root}: exists and is not an empty directory")
    names: dict[str, SignalRecord] = {}
    for r in sset.records:
        name = f"{r.record_id}_{r.class_label}.csv"
        if r.record_id.endswith(f"_{r.class_label}"):  # the label suffix of a loaded record
            name = f"{r.record_id}.csv"
        try:  # the OS takes no NUL byte and at most 255 bytes (NAME_MAX)
            size = len(os.fsencode(name))
        except UnicodeEncodeError:  # a lone surrogate that the file-system encoding cannot carry
            raise SignalsetError(f"record {r.record_id!r}: file name {name!r} cannot be encoded") from None
        if "\0" in name or size > 255 or not name[:-4].rpartition("_")[0]:
            why = "has an empty id" if size <= 255 else f"is {size} bytes, over 255"
            why = "holds a NUL byte" if "\0" in name else why
            raise SignalsetError(f"record {r.record_id!r}: file name {name!r} {why}")
        if Path(name).name != name:
            raise SignalsetError(f"record {r.record_id}: file name {name!r} is not a bare name")
        if name in names:
            other = names[name].record_id
            raise SignalsetError(f"record {r.record_id}: file name {name!r} is taken by record {other}")
        names[name] = r
    (root / "records").mkdir(parents=True, exist_ok=True)
    meta = {
        "num_classes": sset.num_classes,
        "num_channels": sset.num_channels,
        "sample_rate_hz": sset.sample_rate_hz,
    }
    (root / "meta.json").write_text(json.dumps(meta, indent=2))
    header = ",".join(f"c{i + 1}" for i in range(sset.num_channels))
    for name, r in names.items():
        lines = [header]
        lines.extend(",".join(map(repr, row)) for row in r.channels.T.tolist())
        (root / "records" / name).write_text("\n".join(lines) + "\n")


def segment(sset: SignalSet, window_ms: int) -> SignalSet:
    """Split every record into non-overlapping windows; remainder dropped."""
    window = expect(window_ms, int, "window_ms", SignalsetError) * sset.sample_rate_hz // 1000
    if window < MIN_SAMPLES:
        raise SignalsetError(f"window of {window} samples is below the {MIN_SAMPLES}-sample minimum")
    shortest = min(r.num_samples for r in sset.records)
    if window > shortest:
        raise SignalsetError(f"window of {window} samples exceeds shortest record ({shortest})")
    out = []
    for r in sset.records:
        n_windows = r.num_samples // window
        for w in range(n_windows):
            out.append(
                SignalRecord(
                    record_id=f"{r.record_id}w{w}",
                    channels=r.channels[:, w * window : (w + 1) * window],
                    sample_rate_hz=r.sample_rate_hz,
                    class_label=r.class_label,
                )
            )
    return SignalSet(tuple(out))


def stratified_folds(labels: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Fold id (0..k-1) of each row, with per-class counts differing by <= 1.

    For each class in ascending order, that class's rows are permuted (in row
    order) and dealt to the folds round robin.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    classes, counts = np.unique(labels, return_counts=True)
    for cls, count in zip(classes, counts):
        if count < k:
            raise SignalsetError(f"class {cls} has {count} records, needs >= {k}")
    out = np.empty(len(labels), dtype=np.int64)
    for cls in classes:
        idx = np.flatnonzero(labels == cls)
        out[idx[rng.permutation(len(idx))]] = np.arange(len(idx)) % k
    return out
