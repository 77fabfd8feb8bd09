"""The size of the package source, which every fresh process may have to compile."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ctxclf"
LINE_BUDGET = 3000


def test_source_stays_below_its_line_budget():
    """src/ctxclf/*.py holds fewer than 3,000 lines in all.

    Where no .pyc files are written (PYTHONDONTWRITEBYTECODE=1), each process
    compiles every module of src/ as it starts, so set-up time grows with the
    source: ``compile()`` of the modules alone takes about 45 ms on a shared
    2-vCPU VM at about 3,000 lines. A change that would cross the budget
    deletes code rather than raises it.
    """
    lines = sum(len(path.read_text().splitlines()) for path in sorted(SRC.glob("*.py")))
    assert lines < LINE_BUDGET, f"src/ctxclf/*.py is {lines} lines, the budget {LINE_BUDGET}"


def test_each_module_uses_every_name_it_imports():
    """Each name a module of src/ctxclf or a script of demos/ imports is referenced in that
    file, so code that loses its last use of an import takes the import with it."""
    unused = []
    for path in [*sorted(SRC.glob("*.py")), *sorted((ROOT / "demos").glob("*.py"))]:
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        for node in imports:
            if getattr(node, "module", None) == "__future__":  # a compiler flag, not a name
                continue
            for alias in node.names:  # `import a.b` binds a
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno}: {name}")
    assert not unused, f"imported but never referenced: {unused}"
