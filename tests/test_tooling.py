"""The per-layer harness under perfbench/ keeps resolving against the library."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def test_tracing_targets_resolve():
    # a renamed function would make `run.py --trace 1` die with AttributeError
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [
        (module, function)
        for module, function, _span in tracing.TARGETS
        if not hasattr(importlib.import_module(f"archforge.{module}"), function)
    ]
    assert missing == []
