"""Walk through box structures, constraint derivation, and enumeration.

Shows how nesting and re-listed primary movements shrink the feasible set
of secondary bindings, from the unconstrained C! down to a handful.
"""

from ctxclf.context import (
    ConstraintTable,
    derive_constraints,
    enumerate_feasible,
    validate_structure,
)
from ctxclf.structures import (
    eight_class_grips,
    five_class_example,
    flat_structure,
    six_class_nested,
)


def show(name, structure):
    violations = validate_structure(structure)
    assert not violations, violations
    table = derive_constraints(structure)
    feasible = enumerate_feasible(table)
    C = structure.num_classes
    print(f"\n{name}: C={C}, boxes beyond root={structure.num_boxes}")
    for k in sorted(table.permitted):
        print(f"  movement {C + k} may take classes {table.permitted[k]}")
    print(f"  |feasible set| = {len(feasible)}")
    for b in feasible[:5]:
        print(f"    secondary binding {b.secondary}")
    if len(feasible) > 5:
        print(f"    ... and {len(feasible) - 5} more")


def main():
    # with no box constraints at all, every permutation of 1..5 is feasible
    unconstrained = ConstraintTable(
        num_classes=5, permitted={k: (1, 2, 3, 4, 5) for k in range(1, 6)}
    )
    print(f"unconstrained C=5: |feasible set| = {len(enumerate_feasible(unconstrained))}")

    show("five_class_example", five_class_example())
    show("six_class_nested", six_class_nested())
    show("flat_structure(5)", flat_structure(5))
    show("eight_class_grips", eight_class_grips())


if __name__ == "__main__":
    main()
