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

from ctxclf.context import Binding, ContextStructure, enumerate_feasible, derive_constraints
from ctxclf.errors import InfeasibleStructure
from ctxclf.rng import derive_rng

FEASIBLE_SET_GUARD = 10**6
REPAIR_CHUNK_ROWS = 1 << 16  # bound on the (rows, C(C-1)/2) pair table of one repair chunk


@dataclass
class Fitness:
    """Memoizing wrapper around a Binding -> [0, 1] objective."""

    fn: object
    evaluations: int = 0
    _cache: dict = field(default_factory=dict)

    def __call__(self, binding: Binding) -> float:
        key = binding.secondary
        if key not in self._cache:
            self._cache[key] = float(self.fn(binding))
            self.evaluations += 1
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
    seed: int = 0

    def __post_init__(self):
        for name, least in (
            ("population_size", 2), ("tournament_size", 1), ("stagnation_horizon", 1)
        ):
            if getattr(self, name) < least:
                raise ValueError(f"{name}: must be >= {least}, got {getattr(self, name)}")
        if self.crossover_op not in ("OX1", "OX2"):
            raise ValueError(f"crossover_op: unknown crossover operator {self.crossover_op!r}")
        for name in ("crossover_prob", "mutation_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
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


def repair(candidate, feasible: list[Binding]) -> Binding:
    """Nearest feasible binding by Kendall-tau; ties to lexicographic order.

    The distances to all of ``feasible`` are counted at once, over the
    C(C-1)/2 position pairs, ``REPAIR_CHUNK_ROWS`` bindings at a time. The
    binding returned is the object from ``feasible``; among equal secondaries
    the first listed.
    """
    if not feasible:
        raise InfeasibleStructure("feasible set is empty")
    cand = np.array([int(v) for v in candidate], dtype=np.int64)
    secondaries = np.array([b.secondary for b in feasible], dtype=np.int64)
    C = len(cand)
    if sorted(cand.tolist()) != list(range(1, C + 1)) or secondaries.shape[1] != C:
        raise ValueError("inputs must be permutations of 1..C of equal length")
    upper, lower = np.triu_indices(C, 1)
    distance = np.empty(len(feasible), dtype=np.int64)
    for start in range(0, len(feasible), REPAIR_CHUNK_ROWS):
        chunk = secondaries[start : start + REPAIR_CHUNK_ROWS]
        positions = np.empty(chunk.shape, dtype=np.int16)  # positions[r, v - 1]: where v sits in r
        np.put_along_axis(positions, chunk - 1, np.arange(C, dtype=np.int16)[None, :], axis=1)
        ranks = positions[:, cand - 1]  # where each candidate position's class sits in r
        distance[start : start + len(chunk)] = np.count_nonzero(
            ranks[:, upper] > ranks[:, lower], axis=1
        )
    nearest = np.flatnonzero(distance == distance.min())
    # lexsort is stable, so equal secondaries keep their listed order
    first = nearest[np.lexsort(secondaries[nearest].T[::-1])[0]]
    return feasible[int(first)]


def feasible_set(structure: ContextStructure) -> list[Binding]:
    feas = enumerate_feasible(derive_constraints(structure))
    if not feas:
        raise InfeasibleStructure("feasible set is empty")
    if len(feas) > FEASIBLE_SET_GUARD:
        raise InfeasibleStructure(
            f"feasible set of size {len(feas)} exceeds the {FEASIBLE_SET_GUARD} guard"
        )
    return feas


def exhaustive_search(feasible: list[Binding], fitness) -> tuple[Binding, float, list[tuple[Binding, float]]]:
    """Evaluate every feasible binding once; argmax, ties lexicographic."""
    if not feasible:
        raise InfeasibleStructure("feasible set is empty")
    table = [(b, float(fitness(b))) for b in sorted(feasible, key=lambda b: b.secondary)]
    best, best_value = table[0]
    for b, v in table[1:]:
        if v > best_value:
            best, best_value = b, v
    return best, best_value, table


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best_fitness: float
    mean_fitness: float
    evaluations: int


def ea_search(
    feasible: list[Binding], fitness, params: EAParams
) -> tuple[Binding, float, list[GenerationStats]]:
    """Evolutionary search over the feasible permutations."""
    if not feasible:
        raise InfeasibleStructure("feasible set is empty")
    fit = fitness if isinstance(fitness, Fitness) else Fitness(fitness)
    rng = derive_rng(params.seed, "ea_search")
    feasible = sorted(feasible, key=lambda b: b.secondary)

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
                kids.append(repair(child, feasible))
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
