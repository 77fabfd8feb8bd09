"""Binding optimization: exhaustive search and a permutation-coded EA.

The EA follows the classic recipe for order-based permutation problems:
tournament parent selection, OX1/OX2 crossover, one of four mutations
drawn uniformly per application, repair of infeasible offspring to the
nearest feasible permutation under Kendall-tau distance, elitist
replacement, and a restart after a stagnation horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ctxclf.context import Binding, ContextStructure, derive_constraints, enumerate_feasible
from ctxclf.errors import InfeasibleStructure
from ctxclf.jsonfile import expect
from ctxclf.rng import derive_rng

REPAIR_CHUNK_ROWS = 1 << 16  # bound on the (rows, C(C-1)/2) pair table of one repair chunk


@dataclass
class Fitness:
    """Memoizing wrapper around a Binding -> [0, 1] objective."""

    fn: object
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def evaluations(self) -> int:
        """The number of distinct bindings scored so far."""
        return len(self._cache)

    def __call__(self, binding: Binding) -> float:
        key = binding.secondary
        if key not in self._cache:
            self._cache[key] = float(self.fn(binding))
        return self._cache[key]


@dataclass(frozen=True)
class EAParams:
    population_size: int = 30
    tournament_size: int = 3
    crossover_op: str = "OX1"
    crossover_prob: float = 0.9
    mutation_prob: float = 0.2
    stagnation_horizon: int = 10
    max_generations: int = 50

    def __post_init__(self):
        for name, lo, hi in (
            ("population_size", 2, 10_000),
            ("tournament_size", 1, 10_000),
            ("stagnation_horizon", 1, 100_000),
            ("max_generations", 0, 100_000),
        ):
            if not lo <= expect(getattr(self, name), int, name, ValueError) <= hi:
                raise ValueError(f"{name}: must be in [{lo}, {hi}], got {getattr(self, name)}")
        if expect(self.crossover_op, str, "crossover_op", ValueError) not in ("OX1", "OX2"):
            raise ValueError(f"crossover_op: unknown crossover operator {self.crossover_op!r}")
        for name in ("crossover_prob", "mutation_prob"):
            if not 0.0 <= expect(getattr(self, name), float, name, ValueError) <= 1.0:
                raise ValueError(f"{name}: must be in [0, 1], got {getattr(self, name)}")


def kendall_tau(p, q) -> int:
    """Number of discordant pairs between two permutations of 1..C."""
    p = tuple(int(v) for v in p)
    q = tuple(int(v) for v in q)
    n = len(p)
    if len(q) != n or sorted(p) != list(range(1, n + 1)) or sorted(q) != list(range(1, n + 1)):
        raise ValueError("inputs must be permutations of 1..C of equal length")
    pos_q = {v: i for i, v in enumerate(q)}
    ranks = [pos_q[v] for v in p]
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            if ranks[i] > ranks[j]:
                count += 1
    return count


def crossover(op: str, parent_a, parent_b, rng: np.random.Generator):
    """Order crossover; returns two children, both permutations."""
    a = list(parent_a)
    b = list(parent_b)
    n = len(a)
    if op == "OX1":
        i, j = sorted(rng.integers(0, n, size=2))
        return _ox1(a, b, i, j), _ox1(b, a, i, j)
    if op == "OX2":
        positions = sorted(int(k) for k in np.flatnonzero(rng.random(n) < 0.5))
        return _ox2(a, b, positions), _ox2(b, a, positions)
    raise ValueError(f"unknown crossover operator {op!r}")


def _ox1(a: list, b: list, i: int, j: int) -> tuple:
    """Copy a[i..j] in place, fill the open slots left-to-right in b's order."""
    n = len(a)
    child: list = [None] * n
    child[i : j + 1] = a[i : j + 1]
    kept = set(child[i : j + 1])
    fill = iter(v for v in b if v not in kept)
    for k in range(n):
        if child[k] is None:
            child[k] = next(fill)
    return tuple(child)


def _ox2(a: list, b: list, positions: list[int]) -> tuple:
    """Impose b's relative order of the selected elements onto a."""
    chosen = {b[p] for p in positions}
    order = [v for v in b if v in chosen]
    child = list(a)
    slots = [i for i, v in enumerate(a) if v in chosen]
    for slot, v in zip(slots, order):
        child[slot] = v
    return tuple(child)


def mutate(op: str, perm, rng: np.random.Generator) -> tuple:
    p = list(perm)
    n = len(p)
    if n < 2:
        return tuple(p)
    if op == "Swap":
        i, j = rng.choice(n, size=2, replace=False)
        p[i], p[j] = p[j], p[i]
    elif op == "Insert":
        i, j = rng.choice(n, size=2, replace=False)
        v = p.pop(i)
        p.insert(j, v)
    elif op == "Scramble":
        i, j = sorted(rng.choice(n, size=2, replace=False))
        seg = p[i : j + 1]
        rng.shuffle(seg)
        p[i : j + 1] = seg
    elif op == "Inversion":
        i, j = sorted(rng.choice(n, size=2, replace=False))
        p[i : j + 1] = p[i : j + 1][::-1]
    else:
        raise ValueError(f"unknown mutation operator {op!r}")
    return tuple(p)


MUTATION_OPS = ("Swap", "Insert", "Scramble", "Inversion")


class RepairIndex:
    """One feasible list and the arrays `repair` reads from it, built once per search.

    ``feasible`` is the list as `feasible_set` makes it: distinct bindings in
    lexicographic order. ``first`` maps each secondary to its binding,
    ``positions`` is the (|F|, C) table of where each class sits in each
    binding, and ``upper``/``lower`` are the C(C-1)/2 position pairs.
    """

    def __init__(self, feasible: list[Binding]):
        if not feasible:
            raise InfeasibleStructure("feasible set is empty")
        self.feasible = feasible
        self.first = {b.secondary: b for b in feasible}
        secondaries = np.array([b.secondary for b in feasible], dtype=np.int64)
        C = secondaries.shape[1]
        self.positions = np.empty(secondaries.shape, dtype=np.int16)  # [r, v - 1]: where v sits
        np.put_along_axis(
            self.positions, secondaries - 1, np.arange(C, dtype=np.int16)[None, :], axis=1
        )
        self.upper, self.lower = np.triu_indices(C, 1)


def repair(candidate, index: RepairIndex) -> Binding:
    """Nearest binding of ``index.feasible`` by Kendall-tau; ties to lexicographic order.

    A candidate already in the list is looked up. Otherwise the distances
    to all of it are counted at once, over the C(C-1)/2 position pairs,
    ``REPAIR_CHUNK_ROWS`` bindings at a time. The list is in lexicographic
    order, so its first nearest binding is the one returned.
    """
    cand = tuple(int(v) for v in candidate)
    C = len(cand)
    if sorted(cand) != list(range(1, C + 1)) or index.positions.shape[1] != C:
        raise ValueError("inputs must be permutations of 1..C of equal length")
    if cand in index.first:
        return index.first[cand]
    columns = np.array(cand) - 1
    distance = np.empty(len(index.feasible), dtype=np.int64)
    for start in range(0, len(distance), REPAIR_CHUNK_ROWS):
        # where each candidate position's class sits in each binding
        ranks = index.positions[start : start + REPAIR_CHUNK_ROWS, columns]
        distance[start : start + len(ranks)] = np.count_nonzero(
            ranks[:, index.upper] > ranks[:, index.lower], axis=1
        )
    return index.feasible[int(distance.argmin())]


def feasible_set(structure: ContextStructure) -> list[Binding]:
    """Every feasible binding in lexicographic order; an empty set or one above the guard
    is refused before any binding is built."""
    feasible = enumerate_feasible(derive_constraints(structure))
    if not feasible:
        raise InfeasibleStructure("feasible set is empty")
    return feasible


def exhaustive_search(feasible: list[Binding], fitness) -> tuple[Binding, float, list[tuple[Binding, float]]]:
    """Evaluate every feasible binding once, in the list's (lexicographic) order; first argmax."""
    if not feasible:
        raise InfeasibleStructure("feasible set is empty")
    table = [(b, float(fitness(b))) for b in feasible]
    best, best_value = max(table, key=lambda entry: entry[1])
    return best, best_value, table


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best_fitness: float
    mean_fitness: float
    evaluations: int


def ea_search(
    feasible: list[Binding], fit: Fitness, params: EAParams, seed: int
) -> tuple[Binding, float, list[GenerationStats]]:
    """Evolutionary search over the feasible permutations, listed in lexicographic order."""
    index = RepairIndex(feasible)  # refuses an empty list
    rng = derive_rng(seed, "ea_search")

    def random_individual() -> Binding:
        return feasible[int(rng.integers(0, len(feasible)))]

    population = [random_individual() for _ in range(params.population_size)]
    scores = [fit(b) for b in population]
    best_idx = int(np.argmax(scores))
    best, best_value = population[best_idx], scores[best_idx]
    trace = [GenerationStats(0, best_value, float(np.mean(scores)), fit.evaluations)]
    stagnant = 0

    def tournament() -> Binding:
        picks = rng.integers(0, len(population), size=params.tournament_size)
        winner = max(picks, key=lambda i: (scores[i], -i))
        return population[int(winner)]

    for gen in range(1, params.max_generations + 1):
        if len(feasible) == 1:
            break
        offspring = []
        while len(offspring) < params.population_size:
            pa, pb = tournament(), tournament()
            if rng.random() < params.crossover_prob:
                ca, cb = crossover(params.crossover_op, pa.secondary, pb.secondary, rng)
            else:
                ca, cb = pa.secondary, pb.secondary
            kids = []
            for child in (ca, cb):
                if rng.random() < params.mutation_prob:
                    op = MUTATION_OPS[int(rng.integers(0, len(MUTATION_OPS)))]
                    child = mutate(op, child, rng)
                kids.append(repair(child, index))
            offspring.extend(kids)
        offspring = offspring[: params.population_size]
        off_scores = [fit(b) for b in offspring]

        # elitist replacement: best-so-far always survives
        if best.secondary not in {b.secondary for b in offspring}:
            worst = int(np.argmin(off_scores))
            offspring[worst] = best
            off_scores[worst] = best_value
        population, scores = offspring, off_scores

        gen_best = int(np.argmax(scores))
        if scores[gen_best] > best_value:
            best, best_value = population[gen_best], scores[gen_best]
            stagnant = 0
        else:
            stagnant += 1

        if stagnant >= params.stagnation_horizon:
            population = [best] + [random_individual() for _ in range(params.population_size - 1)]
            scores = [fit(b) for b in population]
            stagnant = 0

        trace.append(GenerationStats(gen, best_value, float(np.mean(scores)), fit.evaluations))
    return best, best_value, trace


def trace_to_csv(trace: list[GenerationStats]) -> str:
    lines = ["generation,best_fitness,mean_fitness,evaluations"]
    for t in trace:
        lines.append(f"{t.generation},{t.best_fitness!r},{t.mean_fitness!r},{t.evaluations}")
    return "\n".join(lines) + "\n"
