import itertools
import zlib

import numpy as np
import pytest

from ctxclf import context, optimize
from ctxclf.context import Binding, ConstraintTable
from ctxclf.errors import InfeasibleStructure
from ctxclf.optimize import (
    EAParams,
    Fitness,
    MUTATION_OPS,
    RepairIndex,
    crossover,
    ea_search,
    exhaustive_search,
    feasible_set,
    kendall_tau,
    mutate,
    repair,
    trace_to_csv,
    _ox1,
    _ox2,
)
from conftest import flat_structure, structure_file


def synthetic_fitness(binding: Binding) -> float:
    """Deterministic pseudo-random objective with a unique optimum."""
    key = ",".join(map(str, binding.secondary)).encode()
    return (zlib.crc32(key) % 100_000) / 100_000.0


def test_kendall_examples():
    assert kendall_tau((1, 2, 3, 4), (2, 1, 4, 3)) == 2
    assert kendall_tau((1, 2, 3), (1, 2, 3)) == 0
    n = 5
    rev = tuple(range(n, 0, -1))
    assert kendall_tau(tuple(range(1, n + 1)), rev) == n * (n - 1) // 2
    with pytest.raises(ValueError):
        kendall_tau((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        kendall_tau((1, 1, 2), (1, 2, 3))


def test_kendall_metric_axioms_small():
    perms = list(itertools.permutations(range(1, 5)))
    d = {(p, q): kendall_tau(p, q) for p in perms for q in perms}
    for p in perms:
        for q in perms:
            assert d[p, q] >= 0
            assert (d[p, q] == 0) == (p == q)
            assert d[p, q] == d[q, p]
    # triangle inequality, exhaustively for C=4
    for p in perms:
        for q in perms:
            for r in perms:
                assert d[p, r] <= d[p, q] + d[q, r]


def test_ox1_hand_example():
    child = _ox1([1, 2, 3, 4, 5], [5, 4, 3, 2, 1], 1, 3)
    assert child == (5, 2, 3, 4, 1)


def test_ox2_imposes_relative_order():
    # elements {2, 4} take the order they have in parent B
    child = _ox2([1, 2, 3, 4, 5], [5, 4, 3, 2, 1], [1, 3])
    assert child == (1, 4, 3, 2, 5)


@pytest.mark.parametrize("op", ("OX1", "OX2"))
def test_crossover_children_are_permutations(op):
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        a = tuple(rng.permutation(n) + 1)
        b = tuple(rng.permutation(n) + 1)
        for child in crossover(op, a, b, rng):
            assert sorted(child) == list(range(1, n + 1))


def test_mutate_insert_example():
    class StubRng:
        def choice(self, n, size, replace):
            return np.array([0, 2])

    assert mutate("Insert", (1, 2, 3, 4), StubRng()) == (2, 3, 1, 4)


@pytest.mark.parametrize("op", MUTATION_OPS)
def test_mutations_preserve_permutation(op):
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        p = tuple(rng.permutation(n) + 1)
        assert sorted(mutate(op, p, rng)) == list(range(1, n + 1))
    with pytest.raises(ValueError):
        mutate("Shift", (1, 2), rng)


def test_repair_minimizes_kendall_distance():
    s = structure_file("five_class")
    feas = feasible_set(s)
    index = RepairIndex(feas)
    rng = np.random.default_rng(2)
    for _ in range(50):
        cand = tuple(rng.permutation(5) + 1)
        got = repair(cand, index)
        best = min(kendall_tau(cand, b.secondary) for b in feas)
        assert kendall_tau(cand, got.secondary) == best
        # ties resolved to the lexicographically smallest feasible binding
        tied = sorted(
            b.secondary for b in feas if kendall_tau(cand, b.secondary) == best
        )
        assert got.secondary == tied[0]
    exact = feas[3]
    assert repair(exact.secondary, index) is exact
    with pytest.raises(InfeasibleStructure):
        RepairIndex([])


def test_exhaustive_search_argmax_and_memoization():
    feas = feasible_set(structure_file("five_class"))
    fit = Fitness(synthetic_fitness)
    best, value, table = exhaustive_search(feas, fit)
    assert len(table) == len(feas)
    assert fit.evaluations == len(feas)
    assert value == max(v for _, v in table)
    assert best.secondary == min(b.secondary for b, v in table if v == value)
    # constant fitness: tie resolved lexicographically
    b2, _, _ = exhaustive_search(feas, Fitness(lambda b: 0.5))
    assert b2.secondary == min(b.secondary for b in feas)


def test_fitness_counts_distinct_bindings():
    """evaluations is the number of distinct bindings scored, and each is scored once."""
    feas = feasible_set(structure_file("five_class"))
    scored = []

    def objective(binding):
        scored.append(binding.secondary)
        return synthetic_fitness(binding)

    fit = Fitness(objective)
    for i in np.random.default_rng(3).integers(0, len(feas), size=40):
        assert fit(feas[i]) == synthetic_fitness(feas[i])
        assert fit.evaluations == len(scored) == len(set(scored))
    assert 1 < fit.evaluations < 40


def test_fitness_takes_only_the_objective():
    with pytest.raises(TypeError):
        Fitness(synthetic_fitness, evaluations=3)
    with pytest.raises(AttributeError):
        Fitness(synthetic_fitness).evaluations = 3


def test_ea_params_validation():
    with pytest.raises(ValueError):
        EAParams(population_size=1)
    with pytest.raises(ValueError):
        EAParams(crossover_op="PMX")
    with pytest.raises(ValueError):
        EAParams(mutation_prob=1.5)
    with pytest.raises(ValueError):
        EAParams(stagnation_horizon=0)


def test_ea_deterministic_and_monotone():
    feas = feasible_set(flat_structure(5))  # 44 feasible bindings
    params = EAParams(max_generations=30)
    best1, v1, trace1 = ea_search(feas, Fitness(synthetic_fitness), params, 11)
    best2, v2, trace2 = ea_search(feas, Fitness(synthetic_fitness), params, 11)
    assert best1.secondary == best2.secondary and v1 == v2
    assert trace1 == trace2
    values = [t.best_fitness for t in trace1]
    assert values == sorted(values)  # best-so-far never degrades
    csv = trace_to_csv(trace1)
    assert csv.startswith("generation,best_fitness,mean_fitness,evaluations")
    assert len(csv.strip().splitlines()) == len(trace1) + 1


@pytest.mark.parametrize("op", ("OX1", "OX2"))
def test_ea_finds_exhaustive_optimum(op):
    for structure in (structure_file("five_class"), structure_file("six_class"), flat_structure(4)):
        feas = feasible_set(structure)
        _, target, _ = exhaustive_search(feas, Fitness(synthetic_fitness))
        hits = 0
        for seed in range(10):
            params = EAParams(crossover_op=op)
            _, value, _ = ea_search(feas, Fitness(synthetic_fitness), params, seed)
            hits += value == target
        assert hits >= 9


def test_feasible_set_is_refused_from_its_count(monkeypatch):
    """An empty set or one above the guard is refused before any binding is built."""
    monkeypatch.setattr(context, "Binding", lambda *a, **k: pytest.fail("a binding was built"))
    with pytest.raises(InfeasibleStructure, match="feasible set of size 1334961 exceeds"):
        feasible_set(flat_structure(10))
    empty = ConstraintTable(3, {1: (1, 2), 2: (1, 2), 3: (1, 2)})
    monkeypatch.setattr(optimize, "derive_constraints", lambda structure: empty)
    with pytest.raises(InfeasibleStructure, match="feasible set is empty"):
        feasible_set(flat_structure(3))


def test_feasible_set_runs_the_subset_dp_once(monkeypatch):
    """The count that bounds the listing is the one the listing prunes with."""
    calls, ways = [], context._ways
    monkeypatch.setattr(context, "_ways", lambda table: calls.append(table) or ways(table))
    assert len(feasible_set(structure_file("six_class"))) == 8
    assert len(calls) == 1


def test_ea_singleton_feasible_set():
    b = Binding(num_classes=3, secondary=(2, 3, 1))
    best, value, trace = ea_search([b], Fitness(synthetic_fitness), EAParams(), 0)
    assert best is b
    assert len(trace) == 1
    with pytest.raises(InfeasibleStructure):
        ea_search([], Fitness(synthetic_fitness), EAParams(), 0)
