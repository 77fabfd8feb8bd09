"""Box-structured context model and feasible-binding enumeration.

A context structure is a tree of boxes. The root box is always open and
covers all C classes through their primary movements (movement i binds
class i for i <= C). Every non-root box is opened by one movement of its
parent box and closed by performing that same movement again, so opener
and closer share a class. Movements C+1..2C are secondary: the class bound
to movement C+k is the k-th entry of a permutation of 1..C, and a
permutation is feasible when no box ends up holding two movements bound to
the same class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ctxclf.errors import DuplicateClassInBox, InfeasibleStructure, StructureError
from ctxclf.jsonfile import expect, read_field, read_json


@dataclass(frozen=True)
class Movement:
    id: int
    name: str = ""


ROOT = 0  # the root box's index; structure_from_dict requires it
MAX_NESTING = 100  # boxes on a path below the root; structure_from_dict refuses a deeper box
MAX_CLASSES = 20  # validate_structure refuses a larger C; the paper's largest case has C = 8
FEASIBLE_SET_GUARD = 10**6  # enumerate_feasible refuses to list a larger set


@dataclass(frozen=True)
class BoxNode:
    """One box: opener (None for the root), plain internals, nested children.

    The box is closed by performing its opening movement again, so the
    closer is implicit. ``declared_closer`` only exists to carry an
    explicit override from a structure file so validation can flag it.
    A movement may be a member of several boxes: primary movements keep
    their fixed class everywhere, which is how they constrain the
    secondary assignment of co-resident movements.
    """

    index: int
    opener: int | None
    internal_movements: tuple[int, ...]
    children: tuple["BoxNode", ...] = ()
    declared_closer: int | None = None

    @property
    def is_root(self) -> bool:
        return self.opener is None

    def member_movements(self) -> tuple[int, ...]:
        """Movements recognized inside this box, excluding the closer."""
        return self.internal_movements + tuple(c.opener for c in self.children)

    def slots(self) -> tuple[int, ...]:
        """Every movement recognized in this box: the closer (the opener again;
        none at the root), then the members."""
        return (() if self.is_root else (self.opener,)) + self.member_movements()

    def paths(self, above: tuple = ()):
        """Each box in pre-order, as the boxes from the root (``above``, then this box) down
        to it; structure_from_dict bounds the depth by MAX_NESTING."""
        path = above + (self,)
        yield path
        for c in self.children:
            yield from c.paths(path)

    def walk(self):
        return (p[-1] for p in self.paths())


@dataclass(frozen=True)
class ContextStructure:
    num_classes: int
    movements: tuple[Movement, ...]
    root: BoxNode

    @property
    def num_boxes(self) -> int:
        """L: boxes beyond the root."""
        return sum(1 for _ in self.root.walk()) - 1

    def movement_name(self, movement_id: int) -> str:
        for m in self.movements:
            if m.id == movement_id:
                return m.name
        return f"m{movement_id}"


@dataclass(frozen=True)
class Binding:
    """Movement-to-class assignment: fixed primary map plus a secondary permutation.

    ``secondary[k-1]`` is the class bound to movement C+k, with C = ``len(secondary)``.
    """

    secondary: tuple[int, ...]

    def __post_init__(self):
        sec = tuple(
            expect(c, int, f"secondary[{i}]", ValueError) for i, c in enumerate(self.secondary)
        )
        if sorted(sec) != list(range(1, len(sec) + 1)):
            raise ValueError(f"secondary assignment {sec} is not a permutation of 1..{len(sec)}")
        object.__setattr__(self, "secondary", sec)

    def class_of_movement(self, movement_id: int) -> int:
        C = len(self.secondary)
        if 1 <= movement_id <= C:
            return movement_id
        k = movement_id - C
        if not 1 <= k <= C:
            raise ValueError(f"movement id {movement_id} out of range")
        return self.secondary[k - 1]


def load_structure(path) -> ContextStructure:
    """Read a structure JSON file; raises StructureError on malformed input."""
    return structure_from_dict(read_json(path, StructureError))


def load_table(path) -> dict[int, tuple[int, ...]]:
    """Read a permitted-class table JSON file; each class list is a set, kept sorted."""
    raw = expect(read_json(path, StructureError), dict, "table root", StructureError)
    num_classes = read_field(raw, "num_classes", int, "", StructureError)
    if not 0 <= num_classes <= MAX_CLASSES:  # count_feasible holds 2^C counts
        raise StructureError(f"num_classes: expected 0..{MAX_CLASSES}, got {num_classes}")
    permitted_raw = read_field(raw, "permitted", dict, "", StructureError)
    if set(permitted_raw) != {str(k) for k in range(1, num_classes + 1)}:
        raise StructureError(f"permitted: expected movement ids 1..{num_classes}")
    permitted = {}
    for key, classes in permitted_raw.items():
        at = f"permitted.{key}"
        for i, c in enumerate(expect(classes, list, at, StructureError)):
            if not 1 <= expect(c, int, f"{at}[{i}]", StructureError) <= num_classes:
                raise StructureError(f"{at}: classes must be a list of integers in 1..{num_classes}")
        permitted[int(key)] = tuple(sorted(set(classes)))
    return permitted


def structure_from_dict(doc: dict) -> ContextStructure:
    expect(doc, dict, "structure", StructureError)
    num_classes = read_field(doc, "num_classes", int, "", StructureError)
    movements = []
    for i, m in enumerate(read_field(doc, "movements", list, "", StructureError)):
        path = f"movements[{i}]"
        expect(m, dict, path, StructureError)
        mid = read_field(m, "id", int, f"{path}.", StructureError)
        name = read_field(m, "name", str, f"{path}.", StructureError, "")
        movements.append(Movement(id=mid, name=name))
    box_docs, box_paths = {}, {}  # box id -> its document, and that document's field path
    for i, b in enumerate(read_field(doc, "boxes", list, "", StructureError)):
        path = f"boxes[{i}]"
        expect(b, dict, path, StructureError)
        bid = read_field(b, "id", int, f"{path}.", StructureError)
        if bid in box_docs:
            raise StructureError(f"{path}.id: box {bid} listed twice")
        box_docs[bid], box_paths[bid] = b, path
    if ROOT not in box_docs:
        raise StructureError(f"structure must contain the root box with id {ROOT}")

    children_of: dict[int, list[int]] = {bid: [] for bid in box_docs}
    for bid, b in box_docs.items():
        parent = b.get("parent")
        if bid == ROOT:
            if parent is not None:
                raise StructureError("root box must have parent null")
            continue
        where = f"{box_paths[bid]}.parent"
        pid = None if parent is None else expect(parent, int, where, StructureError)
        if pid not in box_docs:
            raise StructureError(f"box {bid}: unknown parent {parent}")
        children_of[pid].append(bid)

    seen: set[int] = set()

    def build(bid: int, depth: int) -> BoxNode:
        if depth > MAX_NESTING:  # before the recursion can reach Python's limit
            raise StructureError(f"box {bid}: nested more than {MAX_NESTING} boxes below the root")
        seen.add(bid)
        b, path = box_docs[bid], box_paths[bid]
        opener, closer = (
            None if b.get(key) is None else expect(b[key], int, f"{path}.{key}", StructureError)
            for key in ("opens_with_movement", "closes_with_movement")
        )
        if bid == ROOT and opener is not None:
            raise StructureError("root box must not declare an opening movement")
        if bid != ROOT and opener is None:
            raise StructureError(f"box {bid}: missing opens_with_movement")
        internal = read_field(b, "internal_movements", list, f"{path}.", StructureError, [])
        return BoxNode(
            index=bid,
            opener=opener,
            internal_movements=tuple(
                expect(m, int, f"{path}.internal_movements[{k}]", StructureError)
                for k, m in enumerate(internal)
            ),
            children=tuple(build(c, depth + 1) for c in sorted(children_of[bid])),
            declared_closer=closer,
        )

    root = build(ROOT, 0)
    if seen != set(box_docs):
        raise StructureError(f"boxes unreachable from root: {sorted(set(box_docs) - seen)}")
    return ContextStructure(num_classes=num_classes, movements=tuple(movements), root=root)


def validate_structure(s: ContextStructure) -> list[str]:
    """Check the structural assumptions; returns violations, [] when ok.

    Too many classes, then wrong movement ids, are reported alone: the
    other checks count against 1..2C, which is only known to be as long as
    the movement list once the ids are right.
    """
    violations = []
    C = s.num_classes
    if C > MAX_CLASSES:
        return [f"num_classes: at most {MAX_CLASSES} classes, got {C}"]
    ids = sorted(m.id for m in s.movements)
    if len(ids) != 2 * C or ids != list(range(1, 2 * C + 1)):
        return [f"movement ids must be exactly 1..{2 * C}, got {ids}"]

    placed: set[int] = set()
    for box in s.root.walk():
        placed.update(box.member_movements())
    missing = set(range(1, 2 * C + 1)) - placed
    if missing:
        violations.append(f"movements not placed in any box: {sorted(missing)}")

    root_members = set(s.root.member_movements())
    if root_members != set(range(1, C + 1)):
        violations.append(
            f"root box must hold exactly the primary movements 1..{C}, got {sorted(root_members)}"
        )

    for box in s.root.walk():
        slots = box.slots()
        stray = [m for m in box.member_movements() if not 1 <= m <= 2 * C]
        if stray:
            violations.append(f"box {box.index} holds movements outside 1..{2 * C}: {stray}")
        if len(slots) != len(set(slots)):  # the closer counts: no member may be the opener
            violations.append(f"box {box.index} lists a movement twice")
        if box.declared_closer is not None and box.declared_closer != box.opener:
            violations.append(
                f"box {box.index}: closing movement {box.declared_closer} cannot share a class "
                f"with opening movement {box.opener}"
            )
        if len(slots) > C:
            violations.append(f"box {box.index} holds {len(slots)} movements, more than C={C}")
        if len(slots) < 2:  # its classifier would see one class
            violations.append(f"box {box.index} holds fewer than 2 movements")
    return violations


def local_classes(binding: Binding, box: BoxNode) -> tuple[int, ...]:
    """The distinct classes recognized in one box, closer class first."""
    classes = [binding.class_of_movement(m) for m in box.slots()]
    if len(set(classes)) != len(classes):
        raise DuplicateClassInBox(f"box {box.index}: duplicate classes {classes}")
    return tuple(classes)


def binding_feasible(s: ContextStructure, binding: Binding) -> bool:
    """Direct per-box distinctness walk, independent of the enumerator."""
    try:
        for box in s.root.walk():
            local_classes(binding, box)
    except DuplicateClassInBox:
        return False
    return True


def derive_constraints(s: ContextStructure) -> dict[int, tuple[int, ...]]:
    """Permitted classes for every secondary movement: ``{k: sorted class tuple}`` for
    movement C+k, k in 1..C, so C is the table's length.

    No per-box check is needed beyond it: a secondary assignment is a
    permutation, so the secondary movements sharing a box always receive
    distinct classes.
    """
    C = s.num_classes
    permitted = {k: set(range(1, C + 1)) for k in range(1, C + 1)}
    for box in s.root.walk():
        slots = box.slots()
        fixed = {m for m in slots if m <= C}
        for m in slots:
            if m > C:
                permitted[m - C] -= fixed
    for k in range(1, C + 1):
        if not permitted[k]:
            raise InfeasibleStructure(
                f"movement {C + k} has no permitted class; the box arrangement is infeasible"
            )
    return {k: tuple(sorted(v)) for k, v in permitted.items()}


def enumerate_feasible(permitted: dict[int, tuple[int, ...]]) -> list[Binding]:
    """All feasible secondary permutations, in lexicographic order.

    One pass per movement C+1..C+C extends every partial assignment, in
    order, by each of the movement's permitted classes that it does not use
    yet and that leaves a class set the later movements can fill
    (``_ways``), so no row is built that cannot be completed. With sorted
    ``permitted`` tuples the rows stay in lexicographic order. The result
    may be empty, which signals an infeasible box arrangement; a set above
    FEASIBLE_SET_GUARD is refused from its count before any row is built.
    """
    ways = _ways(permitted)
    count = int(ways[-1])
    if count > FEASIBLE_SET_GUARD:
        raise InfeasibleStructure(
            f"feasible set of size {count} exceeds the {FEASIBLE_SET_GUARD} guard"
        )
    ways = ways.tolist()
    rows = [((), len(ways) - 1)]  # (row, the class set it leaves free)
    for k in range(1, len(permitted) + 1):
        rows = [
            (r + (c,), free - bit)
            for r, free in rows
            for c in permitted[k]
            if free & (bit := 1 << (c - 1)) and ways[free - bit]
        ]
    return [Binding(r) for r, _ in rows]


def count_feasible(permitted: dict[int, tuple[int, ...]]) -> int:
    """``len(enumerate_feasible(permitted))`` without the list: the permanent of the permitted
    matrix."""
    return int(_ways(permitted)[-1])


def _ways(permitted: dict[int, tuple[int, ...]]) -> np.ndarray:
    """``ways[s]``: the assignments of the last |s| movements C+C-|s|+1..C+C to exactly the
    class set s (bit c - 1 for class c), built one set size at a time. Every count is at most
    C! <= 20! < 2^63 for C <= MAX_CLASSES, which validation and the table reader enforce.
    """
    C = len(permitted)
    sets = np.arange(1 << C, dtype=np.int64)
    size = np.zeros(1 << C, dtype=np.int64)  # |s|: one more than s without its top bit
    for c in range(C):
        size[1 << c : 2 << c] = size[: 1 << c] + 1
    ways = np.zeros(1 << C, dtype=np.int64)
    ways[0] = 1
    for n in range(1, C + 1):  # movement C+C-n+1 takes one class beside the n-1 after it
        level = sets[size == n - 1]
        for c in permitted[C + 1 - n]:
            bit = 1 << (c - 1)
            free = level[level // bit % 2 == 0]  # the sets without class c
            ways[free + bit] += ways[free]
    return ways


def brute_force_feasible(s: ContextStructure) -> list[Binding]:
    """Oracle: filter all C! permutations through the per-box walk."""
    C = s.num_classes
    out = []
    for perm in itertools.permutations(range(1, C + 1)):
        b = Binding(perm)
        if binding_feasible(s, b):
            out.append(b)
    return out
