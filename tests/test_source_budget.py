"""The size of the package source, which every fresh process may have to compile."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ctxclf"
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
