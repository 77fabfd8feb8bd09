import sys
from pathlib import Path

import numpy as np

# before the first ctxclf import, so that the tests write no src/ctxclf/__pycache__
sys.dont_write_bytecode = True

from ctxclf import features
from ctxclf.context import ContextStructure, load_structure, structure_from_dict, validate_structure
from ctxclf.signals import SignalRecord, SignalSet

STRUCTURES = Path(__file__).resolve().parent.parent / "structures"


def structure_file(name: str) -> ContextStructure:
    """A committed structure: five_class, six_class or eight_class_grips."""
    return load_structure(STRUCTURES / f"{name}.json")


def make_structure(num_classes: int, boxes: list[tuple]) -> ContextStructure:
    """Build a structure from (id, parent, opener, internals) tuples."""
    return structure_from_dict(
        {
            "num_classes": num_classes,
            "movements": [{"id": i} for i in range(1, 2 * num_classes + 1)],
            "boxes": [
                {
                    "id": bid,
                    "parent": parent,
                    "opens_with_movement": opener,
                    "internal_movements": internals,
                }
                for bid, parent, opener, internals in boxes
            ],
        }
    )


def flat_structure(num_classes: int) -> ContextStructure:
    """Root-only structure over the primary movements.

    Secondary movements each sit alone in a box opened by their primary
    counterpart, which keeps M = 2C while leaving the root flat.
    """
    C = num_classes
    return make_structure(C, [(0, None, None, [])] + [(c, 0, c, [C + c]) for c in range(1, C + 1)])


def structure_to_dict(s: ContextStructure) -> dict:
    """The structure-file document of s; load_structure reads it back equal."""
    return {
        "num_classes": s.num_classes,
        "movements": [{"id": m.id, "name": m.name} for m in s.movements],
        "boxes": [
            {
                "id": box.index,
                "parent": parent,
                "opens_with_movement": box.opener,
                "internal_movements": list(box.internal_movements),
            }
            for box, parent in _with_parents(s.root, None)
        ],
    }


def _with_parents(box, parent):
    yield box, parent
    for child in box.children:
        yield from _with_parents(child, box.index)


def chain_doc(depth):
    """A valid two-class structure whose boxes form one chain ``depth`` boxes below the root."""
    cycle = (1, 3, 4, 2)  # box k opens with cycle[k - 1]; the deepest box holds the next one
    boxes = [{"id": 0, "parent": None, "internal_movements": [2]}]
    for k in range(1, depth + 1):
        boxes.append(
            {
                "id": k,
                "parent": k - 1,
                "opens_with_movement": cycle[(k - 1) % 4],
                "internal_movements": [cycle[k % 4]] if k == depth else [],
            }
        )
    return {"num_classes": 2, "movements": [{"id": m} for m in range(1, 5)], "boxes": boxes}


def ar_coefficients(subband, order: int = features.AR_ORDER) -> np.ndarray:
    """One subband's AR coefficients through the block path's autocorrelation and Levinson.
    The subband is one that _autocorrelation takes, as dwt_db6 makes them: a positive stride
    and at least order + 2 samples."""
    x = np.asarray(subband, dtype=np.float64)
    lags = features._autocorrelation([x[None, :]], order, np.array([len(x)], dtype=np.float64))
    return features._levinson(lags[0])[0]


def slope_sign_changes(subband) -> int:
    """One subband's slope-sign-change count through the block path's flags."""
    x = np.asarray(subband, dtype=np.float64)
    return int(np.count_nonzero(features._slope_sign_flags(x[None, :])))


def tree_arrays(tree, classes) -> dict:
    """A stored forest tree as the dict of arrays the tree oracles read, leaves as class labels."""
    feature, threshold, left, right, slot = tree
    return {
        "feature": np.asarray(feature, dtype=np.int64),
        "threshold": np.asarray(threshold, dtype=np.float64),
        "left": np.asarray(left, dtype=np.int64),
        "right": np.asarray(right, dtype=np.int64),
        "label": np.asarray(classes, dtype=np.int64)[slot],
    }


def random_structure(rng: np.random.Generator, num_classes: int) -> ContextStructure:
    """A random valid structure; retries until validation passes."""
    C = num_classes
    for _ in range(1000):
        # per box: parent, opener, and the set of member movements (members
        # promoted to child openers are tracked separately)
        boxes = {0: {"parent": None, "opener": None}}
        members = {0: set(range(1, C + 1))}
        opener_used: dict[int, set] = {0: set()}
        next_id = 1
        secondaries = list(range(C + 1, 2 * C + 1))
        rng.shuffle(secondaries)
        attempts = 0
        while secondaries and attempts < 200:
            attempts += 1
            # open a new box from an unused member of a random existing box
            bid = int(rng.choice(list(boxes)))
            candidates = sorted(members[bid] - opener_used[bid])
            if not candidates:
                continue
            opener = int(rng.choice(candidates))
            take = min(int(rng.integers(1, len(secondaries) + 1)), max(C - 2, 1))
            internals = {secondaries.pop() for _ in range(min(take, len(secondaries)))}
            if not internals:
                continue
            # optionally re-list primaries to constrain the secondaries
            spare = C - 1 - len(internals)
            if spare > 0 and rng.random() < 0.5:
                pool = [p for p in range(1, C + 1) if p != opener]
                extra = rng.choice(pool, size=int(rng.integers(0, spare + 1)), replace=False)
                internals |= {int(p) for p in extra}
            opener_used[bid].add(opener)
            boxes[next_id] = {"parent": bid, "opener": opener}
            members[next_id] = internals
            opener_used[next_id] = set()
            next_id += 1
        if secondaries:
            continue
        doc = {
            "num_classes": C,
            "movements": [{"id": i} for i in range(1, 2 * C + 1)],
            "boxes": [
                {
                    "id": bid,
                    "parent": b["parent"],
                    "opens_with_movement": b["opener"],
                    # child openers are implied members, not plain internals
                    "internal_movements": sorted(members[bid] - opener_used[bid]),
                }
                for bid, b in boxes.items()
            ],
        }
        s = structure_from_dict(doc)
        if not validate_structure(s):
            return s
    raise RuntimeError("failed to generate a valid random structure")


def scored_pair(hits) -> tuple[int, int]:
    """(1-based position of the first miss in per-position hit flags, or 0; length): the
    pair evaluate_sequence returns and ZO and SqCov reduce."""
    return next((i for i, hit in enumerate(hits, 1) if not hit), 0), len(hits)


def toy_signalset(num_classes=3, records_per_class=6, channels=2, samples=64, seed=0):
    """Small deterministic set with class-dependent offsets."""
    rng = np.random.default_rng(seed)
    records = []
    for cls in range(1, num_classes + 1):
        for r in range(records_per_class):
            base = rng.standard_normal((channels, samples))
            base[0] += np.sin(np.linspace(0, 2 + cls, samples)) * cls
            records.append(
                SignalRecord(
                    record_id=f"c{cls}r{r}",
                    channels=base,
                    sample_rate_hz=1000,
                    class_label=cls,
                )
            )
    return SignalSet(tuple(records))
