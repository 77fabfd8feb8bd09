"""Workload definitions and their seeded inputs.

Every input is made from the workload seed: the synthetic signalset (written
once with ``save_signalset`` so runs read it through the CSV loader, as a
user's run does), the run config JSON that points at it and at a
committed structure file, and for the online workload the stream of windows
the controller is fed. Benchmark runs use the ``default`` sizes; ``smoke``
sizes exist only to check the harness, and ``roadmap`` sizes repeat the
hand-timed runs of the ROADMAP baseline (the test_09 desk data, and the C=8
EA at population 10 x 10 generations).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

@dataclass(frozen=True)
class Size:
    synth: dict  # keyword arguments of synth_signalset, without seed
    config: dict  # run config fields, without signalset and seeds
    online: dict = field(default_factory=dict)  # sequences, chunk_sequences


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cv": one run_experiment per job; "online": one stream pass per job
    why: str
    sizes: dict  # "default" / "smoke" / "roadmap" -> Size


SIX = "structures/six_class.json"
GRIPS = "structures/eight_class_grips.json"
ALL_METHODS = ["plain", "rctx", "octx"]

DESK_SYNTH = dict(num_classes=6, records_per_class=20, num_channels=1, samples=512, noise=6.0)
SMOKE_DESK_SYNTH = dict(num_classes=6, records_per_class=6, num_channels=1, samples=128, noise=6.0)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk-gnb",
            "cv",
            "GaussianNB exhaustive OCtx search: MI box fits dominate and most refit a box "
            "problem already solved for another binding",
            {
                "default": Size(
                    DESK_SYNTH,
                    dict(structure=SIX, methods=ALL_METHODS,
                         classifiers=[{"algorithm": "GaussianNB"}], cv_folds=2),
                ),
                "roadmap": Size(
                    dict(num_classes=6, records_per_class=100, num_channels=2, samples=512),
                    dict(structure=SIX, methods=ALL_METHODS,
                         classifiers=[{"algorithm": "GaussianNB"}], cv_folds=10),
                ),
                "smoke": Size(
                    SMOKE_DESK_SYNTH,
                    dict(structure=SIX, methods=ALL_METHODS,
                         classifiers=[{"algorithm": "GaussianNB"}], cv_folds=2),
                ),
            },
        ),
        Workload(
            "desk-forest",
            "cv",
            "RandomForest Plain/RCtx with no binding search: Gini splits dominate and every "
            "box problem is fitted once",
            {
                "default": Size(
                    DESK_SYNTH,
                    dict(structure=SIX, methods=["plain", "rctx"],
                         classifiers=[{"algorithm": "RandomForest", "num_trees": 20}],
                         cv_folds=5),
                ),
                "smoke": Size(
                    SMOKE_DESK_SYNTH,
                    dict(structure=SIX, methods=["plain", "rctx"],
                         classifiers=[{"algorithm": "RandomForest", "num_trees": 3}],
                         cv_folds=2),
                ),
            },
        ),
        Workload(
            "grips-ea",
            "cv",
            "C=8 structure with 7,272 feasible bindings: the only workload on the EA path, "
            "where Kendall-tau repair is a large share",
            {
                "default": Size(
                    dict(num_classes=8, records_per_class=8, num_channels=1, samples=256),
                    dict(structure=GRIPS, methods=["octx"],
                         classifiers=[{"algorithm": "GaussianNB"}], cv_folds=2,
                         inner_folds=2, inner_repetitions=1,
                         ea={"population_size": 10, "max_generations": 2}),
                ),
                "roadmap": Size(
                    dict(num_classes=8, records_per_class=12, num_channels=1, samples=256),
                    dict(structure=GRIPS, methods=["octx"],
                         classifiers=[{"algorithm": "GaussianNB"}], cv_folds=2,
                         ea={"population_size": 10, "max_generations": 10}),
                ),
                "smoke": Size(
                    dict(num_classes=8, records_per_class=4, num_channels=1, samples=128),
                    dict(structure=GRIPS, methods=["octx"],
                         classifiers=[{"algorithm": "GaussianNB"}], cv_folds=2,
                         inner_folds=2, inner_repetitions=1,
                         ea={"population_size": 2, "max_generations": 1}),
                ),
            },
        ),
        Workload(
            "online-forest",
            "online",
            "controller loop: one window at a time through extract_features and step, "
            "closed loop with one client; noisy records so some decisions miss",
            {
                "default": Size(
                    dict(num_classes=6, records_per_class=24, num_channels=2, samples=512,
                         noise=6.0),
                    dict(structure=SIX, methods=["rctx"],
                         classifiers=[{"algorithm": "RandomForest", "num_trees": 20}]),
                    dict(sequences=200, chunk_sequences=20),
                ),
                "smoke": Size(
                    dict(num_classes=6, records_per_class=8, num_channels=2, samples=128,
                         noise=6.0),
                    dict(structure=SIX, methods=["rctx"],
                         classifiers=[{"algorithm": "RandomForest", "num_trees": 3}]),
                    dict(sequences=8, chunk_sequences=4),
                ),
            },
        ),
    )
}


def make_inputs(workload: Workload, size: str, seed: int, workdir: Path) -> tuple[Path, str]:
    """Write the signalset, run config and any stream for one seed; return (config, digest).

    workdir is relative to the repository root, which is the working
    directory of every run, so the config and its digest hold no absolute path.
    """
    from ctxclf.signals import save_signalset
    from ctxclf.synth import synth_signalset

    spec = workload.sizes[size]
    sset_dir = workdir / "signalset"
    save_signalset(synth_signalset(seed=seed, **spec.synth), sset_dir)
    config = dict(spec.config)
    config["signalset"] = str(sset_dir)
    config["master_seed"] = seed
    config["classifiers"] = [dict(c, seed=seed) for c in config["classifiers"]]
    config["output_dir"] = str(workdir / "out")
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    if spec.online:
        make_stream(spec, seed, workdir)
    files = sorted(p for p in workdir.rglob("*") if p.is_file())
    return config_path, files_digest(files + [Path(spec.config["structure"])])


def stream_files(workdir: Path) -> dict:
    return {k: str(workdir / f"stream_{k}.npy") for k in ("windows", "labels", "lengths")}


def make_stream(spec: Size, seed: int, workdir: Path) -> None:
    """Write the online stream: object sequences of fresh windows, none used twice.

    The sequences are movement sequences of the structure, drawn at random and
    mapped to classes under the binding the controller is trained with (the
    lexicographically first feasible one). Each object is the next unused
    window of its class, cut with ``segment`` from one long recording per
    class, made with ``synth_signalset`` from a seed of its own, so no window
    is one of the training records either.
    """
    import numpy as np

    from ctxclf import evaluation, optimize
    from ctxclf.context import load_structure
    from ctxclf.rng import derive_rng, derive_seed
    from ctxclf.signals import segment
    from ctxclf.synth import synth_signalset

    structure = load_structure(spec.config["structure"])
    binding = min(optimize.feasible_set(structure), key=lambda b: b.secondary)
    movements = evaluation.generate_movement_sequences(structure)
    rng = derive_rng(seed, "perfbench", "stream")
    sequences = [
        evaluation.sequence_to_classes(
            movements[int(rng.integers(len(movements)))], structure, binding
        )
        for _ in range(spec.online["sequences"])
    ]
    classes = [c for seq in sequences for c in seq]
    window = spec.synth["samples"]
    most = max(classes.count(c) for c in set(classes))
    long = dict(spec.synth, records_per_class=1, samples=window * most)
    recording = synth_signalset(seed=derive_seed(seed, "perfbench", "stream"), **long)
    cut = segment(recording, window * 1000 // recording.sample_rate_hz)
    pools: dict[int, list] = {}
    for r in cut.records:
        pools.setdefault(r.class_label, []).append(r.channels)
    used = {c: 0 for c in pools}
    order = []
    for c in classes:
        order.append(pools[c][used[c]])
        used[c] += 1
    windows = np.stack(order)
    files = stream_files(workdir)
    np.save(files["windows"], windows)
    np.save(files["labels"], np.array(classes, dtype=np.int64))
    np.save(files["lengths"], np.array([len(s) for s in sequences], dtype=np.int64))


def files_digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(f"{p}\0".encode())
        h.update(p.read_bytes())
    return h.hexdigest()
