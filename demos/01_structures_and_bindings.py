"""Walk through box structures, constraint derivation, and enumeration.

Shows how nesting and re-listed primary movements shrink the feasible set
of secondary bindings, from the unconstrained C! down to a handful.
"""

from pathlib import Path

from ctxclf.context import (
    derive_constraints,
    enumerate_feasible,
    load_structure,
    structure_from_dict,
    validate_structure,
)

STRUCTURES = Path(__file__).resolve().parent.parent / "structures"


def flat_structure(C):
    """A flat root over the primary movements; each secondary movement sits alone in a box
    opened by its primary counterpart."""
    boxes = [{"id": 0, "parent": None, "internal_movements": []}] + [
        {"id": c, "parent": 0, "opens_with_movement": c, "internal_movements": [C + c]}
        for c in range(1, C + 1)
    ]
    movements = [{"id": m} for m in range(1, 2 * C + 1)]
    return structure_from_dict({"num_classes": C, "movements": movements, "boxes": boxes})


def show(name, structure):
    violations = validate_structure(structure)
    assert not violations, violations
    table = derive_constraints(structure)
    feasible = enumerate_feasible(table)
    C = structure.num_classes
    print(f"\n{name}: C={C}, boxes beyond root={structure.num_boxes}")
    for k in sorted(table):
        print(f"  movement {C + k} may take classes {table[k]}")
    print(f"  |feasible set| = {len(feasible)}")
    for b in feasible[:5]:
        print(f"    secondary binding {b.secondary}")
    if len(feasible) > 5:
        print(f"    ... and {len(feasible) - 5} more")


def main():
    # with no box constraints at all, every permutation of 1..5 is feasible
    unconstrained = {k: (1, 2, 3, 4, 5) for k in range(1, 6)}
    print(f"unconstrained C=5: |feasible set| = {len(enumerate_feasible(unconstrained))}")

    for name in ("five_class", "six_class"):
        show(f"{name}.json", load_structure(STRUCTURES / f"{name}.json"))
    show("flat_structure(5)", flat_structure(5))
    show("eight_class_grips.json", load_structure(STRUCTURES / "eight_class_grips.json"))


if __name__ == "__main__":
    main()
