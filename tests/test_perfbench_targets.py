"""The traced benchmark rebinds layer functions by name; each must still exist."""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"affine_kahler.{layer}.{name}"
        for layer, names in tracing.TARGETS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"affine_kahler.{layer}"), name, None))
    ]
    assert not missing, f"traced functions no longer exist: {missing}"
