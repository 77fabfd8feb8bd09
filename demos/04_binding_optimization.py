"""Exhaustive versus evolutionary binding search.

On a small structure every feasible binding can be scored directly; on the
eight-class structure (|feasible set| = 7272) the EA explores a fraction
of the space and its trace shows the best-so-far fitness per generation.
"""

import zlib
from pathlib import Path

from ctxclf.context import Binding, load_structure
from ctxclf.optimize import (
    EAParams,
    Fitness,
    ea_search,
    exhaustive_search,
    feasible_set,
)

STRUCTURES = Path(__file__).resolve().parent.parent / "structures"


def synthetic_fitness(binding: Binding) -> float:
    """Cheap deterministic stand-in for a cross-validated SqCov objective."""
    key = ",".join(map(str, binding.secondary)).encode()
    return (zlib.crc32(key) % 10**6) / 10**6


def main():
    small = feasible_set(load_structure(STRUCTURES / "six_class.json"))
    best, value, table = exhaustive_search(small, Fitness(synthetic_fitness))
    print(f"six_class.json: {len(table)} bindings scored exhaustively")
    print(f"  optimum {best.secondary} with fitness {value:.4f}")

    large = feasible_set(load_structure(STRUCTURES / "eight_class_grips.json"))
    print(f"\neight_class_grips.json: |feasible set| = {len(large)}, running the EA")
    fit = Fitness(synthetic_fitness)
    best, value, trace = ea_search(large, fit, EAParams(), 3)
    print(f"  EA best {best.secondary} with fitness {value:.4f}")
    print(f"  {fit.evaluations} distinct bindings evaluated over {len(trace) - 1} generations")
    for t in trace[:: max(1, len(trace) // 6)]:
        print(
            f"    gen {t.generation:>2}: best {t.best_fitness:.4f}, "
            f"mean {t.mean_fitness:.4f}, evals {t.evaluations}"
        )

    _, exact, _ = exhaustive_search(large, Fitness(synthetic_fitness))
    print(f"  exhaustive optimum for comparison: {exact:.4f}")


if __name__ == "__main__":
    main()
