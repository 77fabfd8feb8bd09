"""Acceptance suite: ten end-to-end criteria with explicit tolerances.

Each test prints a single PASS/FAIL line (outside pytest's capture) so the
run log shows the acceptance status at a glance.
"""

import hashlib
import itertools
import math
import time
import zlib

import numpy as np
import pytest

from ctxclf.classifiers import ClassifierSpec
from ctxclf.context import (
    Binding,
    brute_force_feasible,
    derive_constraints,
    enumerate_feasible,
)
from ctxclf.errors import InfeasibleStructure
from ctxclf.evaluation import (
    RunConfig,
    generate_movement_sequences,
    run_experiment,
    sequence_to_classes,
    _sqcov,
    _zo,
)
from ctxclf.optimize import EAParams, Fitness, ea_search, exhaustive_search, feasible_set, kendall_tau
from ctxclf.runtime import initial_state, step
from ctxclf.stats import holm, wilcoxon_signed_rank
from ctxclf.synth import synth_signalset
from ctxclf.wavelet import dwt_db6, idwt_db6_periodic
from conftest import flat_structure, random_structure, scored_pair, structure_file
from test_runtime import obj, perfect_ensemble

SMALL_STRUCTURES = {
    "five_class.json": structure_file("five_class"),
    "six_class.json": structure_file("six_class"),
    "flat_structure(4)": flat_structure(4),
    "flat_structure(5)": flat_structure(5),
}


def report(capsys, number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\nACCEPTANCE {number:>2} [{status}] {name}{suffix}")
    assert ok, f"acceptance criterion {number} failed: {name} {detail}"


def test_01_feasible_set_counts(capsys):
    t0 = time.perf_counter()
    s = structure_file("five_class")
    constrained = len(enumerate_feasible(derive_constraints(s)))
    table = {k: (1, 2, 3, 4, 5) for k in range(1, 6)}
    unconstrained = len(enumerate_feasible(table))
    elapsed = time.perf_counter() - t0
    ok = constrained == 12 and unconstrained == 120 and elapsed < 1.0
    report(
        capsys, 1, "feasible-set counts 12 and 120",
        ok, f"{constrained}/{unconstrained}, {elapsed:.2f}s",
    )


def test_02_enumeration_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    checked = 0
    ok = True
    for _ in range(50):
        C = int(rng.integers(2, 7))
        s = random_structure(rng, C)
        try:
            feas = enumerate_feasible(derive_constraints(s))
        except InfeasibleStructure:
            feas = []
        brute = brute_force_feasible(s)
        if {b.secondary for b in feas} != {b.secondary for b in brute}:
            ok = False
            break
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and checked == 50 and elapsed < 30.0
    report(capsys, 2, "enumeration equals brute force on 50 random structures",
           ok, f"{checked} structures, {elapsed:.1f}s")


def test_03_metric_oracles(capsys):
    rng = np.random.default_rng(99)
    worst = 0.0
    ordering_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 25))
        outcomes = [tuple(rng.random(int(rng.integers(1, 15))) < 0.6) for _ in range(n)]
        scored = [scored_pair(hits) for hits in outcomes]
        zo = _zo(scored)
        sq = _sqcov(scored)
        zo_ref = sum(all(hits) for hits in outcomes) / n
        sq_ref = 0.0
        for hits in outcomes:
            prefix = 0
            for h in hits:
                if not h:
                    break
                prefix += 1
            sq_ref += 1.0 if prefix == len(hits) else prefix / len(hits)
        sq_ref /= n
        worst = max(worst, abs(zo - zo_ref), abs(sq - sq_ref))
        ordering_ok = ordering_ok and sq >= zo
    ok = worst < 1e-12 and ordering_ok
    report(capsys, 3, "ZO/SqCov match brute force on 1000 outcome sets",
           ok, f"max err {worst:.1e}, SqCov>=ZO {ordering_ok}")


def test_04_sqcov_edge_value(capsys):
    value = _sqcov([scored_pair((True, True, False, True, True))])
    ok = value == 0.4
    report(capsys, 4, "first error at position 3 of 5 scores exactly 0.4", ok, f"{value!r}")


def test_05_ea_attains_exhaustive_optimum(capsys):
    def synthetic(binding: Binding) -> float:
        return (zlib.crc32(",".join(map(str, binding.secondary)).encode()) % 10**6) / 10**6

    t0 = time.perf_counter()
    ok = True
    details = []
    for name, s in SMALL_STRUCTURES.items():
        feas = feasible_set(s)
        assert len(feas) <= 500
        _, target, _ = exhaustive_search(feas, Fitness(synthetic))
        hits = 0
        for seed in range(20):
            _, value, _ = ea_search(feas, Fitness(synthetic), EAParams(), seed)
            hits += value == target
        details.append(f"{name}:{hits}/20")
        ok = ok and hits >= 19
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    report(capsys, 5, "EA reaches the exhaustive optimum in >=19/20 seeds",
           ok, f"{', '.join(details)}, {elapsed:.1f}s")


def test_06_fsm_round_trip(capsys):
    ok = True
    count = 0
    structures = dict(SMALL_STRUCTURES)
    structures["eight_class_grips.json"] = structure_file("eight_class_grips")
    for s in structures.values():
        ens = perfect_ensemble(s)  # injected oracle: feature value == class
        for seq in generate_movement_sequences(s):
            state = initial_state(ens)
            for cls in sequence_to_classes(seq, s, ens.binding):
                _, _, state = step(ens, state, obj(cls))
            ok = ok and state.box == s.root.index
            count += 1
    report(capsys, 6, "every movement sequence returns the machine to the root",
           ok, f"{count} sequences over {len(structures)} structures")


def test_07_dwt_reconstruction(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_rt = 0.0
    worst_detail = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 33)) * 8
        x = rng.standard_normal(n) * float(rng.uniform(0.1, 10.0))
        subbands = dwt_db6(x, levels=3, mode="periodic")
        worst_rt = max(worst_rt, float(np.max(np.abs(idwt_db6_periodic(subbands) - x))))
        const = np.full(n, float(rng.uniform(-5.0, 5.0)))
        for d in dwt_db6(const, levels=3, mode="periodic")[1:]:
            worst_detail = max(worst_detail, float(np.max(np.abs(d))))
    elapsed = time.perf_counter() - t0
    ok = worst_rt < 1e-8 and worst_detail < 1e-9 and elapsed < 5.0
    report(capsys, 7, "DWT round trip < 1e-8 and constant annihilation < 1e-9",
           ok, f"rt {worst_rt:.1e}, detail {worst_detail:.1e}, {elapsed:.1f}s")


def test_08_kendall_metric_axioms(capsys):
    ok = True
    for C in range(2, 6):
        perms = list(itertools.permutations(range(1, C + 1)))
        m = len(perms)
        D = np.empty((m, m), dtype=np.int64)
        for i, p in enumerate(perms):
            for j, q in enumerate(perms):
                D[i, j] = kendall_tau(p, q)
        ok = ok and np.all(D >= 0)
        ok = ok and np.array_equal(D == 0, np.eye(m, dtype=bool))
        ok = ok and np.array_equal(D, D.T)
        # triangle inequality over all (i, j, k)
        ok = ok and bool(np.all(D[:, None, :] <= D[:, :, None] + D[None, :, :]))
    report(capsys, 8, "Kendall-tau metric axioms hold exhaustively for C <= 5", ok)


@pytest.mark.slow
def test_09_desk_scale_trend(capsys):
    t0 = time.perf_counter()
    structure = structure_file("six_class")
    sset = synth_signalset(6, records_per_class=100, num_channels=2, samples=512, seed=2026)
    config = RunConfig(
        signalset=sset,
        structure=structure,
        classifier_specs=(
            ClassifierSpec(algorithm="NearestNeighbor"),
            ClassifierSpec(algorithm="GaussianNB"),
            ClassifierSpec(algorithm="RandomForest"),
        ),
        cv_folds=10,
        master_seed=2026,
    )
    table = run_experiment(config)
    elapsed = time.perf_counter() - t0

    ok = elapsed < 600.0
    details = [f"{elapsed:.0f}s"]
    for spec in config.classifier_specs:
        octx = float(np.mean(table.values("octx", spec.algorithm, "sqcov")))
        rctx = float(np.mean(table.values("rctx", spec.algorithm, "sqcov")))
        ok = ok and octx >= rctx - 0.01
        details.append(f"{spec.algorithm}: OCtx {octx:.3f} vs RCtx {rctx:.3f}")

    # context methods interpret all 2C movements; the plain baseline sees C classes
    placed = set()
    for box in structure.root.walk():
        placed.update(box.member_movements())
    from ctxclf.runtime import train_plain
    from ctxclf.features import feature_matrix

    X, y = feature_matrix(sset)
    plain = train_plain(X, y, ClassifierSpec(algorithm="GaussianNB"))
    ok = ok and len(placed) == 2 * structure.num_classes
    ok = ok and len(plain.fits[plain.structure.root.index][1].classes) == structure.num_classes
    report(capsys, 9, "desk-scale run: OCtx >= RCtx - 0.01 and 2C vs C coverage",
           ok, "; ".join(details))
    # the run's metrics.csv, bit for bit (its bits rest on the BLAS, as the golden digests do)
    assert (
        hashlib.sha256(table.to_csv().encode()).hexdigest()
        == "6a7c6b94e5599db68e8c8e6347a018ee3e42631d53e6fb54d114c03c16c8bb08"
    )


def test_10_statistics_oracles(capsys):
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(20):
        x = np.round(rng.standard_normal(10) * 10, 1)
        y = np.round(x + rng.standard_normal(10) * 8 + 2, 1)
        w, p = wilcoxon_signed_rank(x, y)
        # independent rank-table oracle
        d = (np.asarray(x) - np.asarray(y))
        d = d[d != 0]
        n = len(d)
        if n == 0:
            p_ref = 1.0
        else:
            absd = np.abs(d)
            ranks = np.empty(n)
            order = np.argsort(absd)
            i = 0
            srt = absd[order]
            while i < n:
                j = i
                while j + 1 < n and srt[j + 1] == srt[i]:
                    j += 1
                ranks[order[i : j + 1]] = (i + j) / 2 + 1
                i = j + 1
            w_ref = min(ranks[d > 0].sum(), ranks[d < 0].sum())
            mean = n * (n + 1) / 4
            var = n * (n + 1) * (2 * n + 1) / 24
            _, counts = np.unique(ranks, return_counts=True)
            var -= np.sum(counts**3 - counts) / 48
            z = (w_ref - mean + 0.5) / math.sqrt(var)
            p_ref = min(1.0, math.erfc(-z / math.sqrt(2)))
        worst = max(worst, abs(p - p_ref))
    holm_ok = holm({"a": 0.001, "b": 0.04, "c": 0.2}, alpha=0.05) == {
        "a": True,
        "b": False,
        "c": False,
    }
    ok = worst < 1e-6 and holm_ok
    report(capsys, 10, "Wilcoxon matches rank-table oracle; Holm matches hand oracle",
           ok, f"max p err {worst:.1e}, holm {holm_ok}")
