"""Every script under demos/ runs to the end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# about 9 s: the EA and an exhaustive search over 7,272 bindings; the others take under 1 s
SLOW_DEMOS = {"04_binding_optimization.py"}


@pytest.mark.parametrize(
    "script",
    [
        pytest.param(p, id=p.stem, marks=[pytest.mark.slow] if p.name in SLOW_DEMOS else [])
        for p in sorted((ROOT / "demos").glob("*.py"))
    ],
)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # no __pycache__ in src/, whatever the caller's environment
    result = subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
