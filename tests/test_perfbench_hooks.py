"""The benchmark's span wrappers still find every package name they wrap.

``perfbench/spans.py`` looks each wrapped function up with ``vars(owner)[attr]``,
so renaming or deleting one of those names breaks every benchmark run with a
``KeyError``. This test installs the wrappers once and puts the originals back.
"""

import importlib.util
from pathlib import Path

from ctxclf import optimize

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_package_spans_install_and_uninstall():
    spans = load_spans()
    original = optimize.enumerate_feasible
    rec = spans.SpanRecorder()
    try:
        spans.install_package_spans(rec)
        assert optimize.enumerate_feasible.__wrapped__ is original
    finally:
        stale = rec.uninstall()
    assert stale == []
    assert optimize.enumerate_feasible is original
