"""The benchmark's tracer wraps ringstar functions by name.

`perfbench/tracing.py` lists them in `WRAPPED`, and `Tracer.install` looks
each one up with `getattr`, so a renamed or deleted function would crash
every traced benchmark run.  The tracer is loaded from its file, read-only.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"ringstar.{layer}.{name}"
        for layer, functions in tracing.WRAPPED.items()
        for name in functions
        if not callable(getattr(importlib.import_module(f"ringstar.{layer}"), name, None))
    ]
    assert tracing.WRAPPED and not missing, missing
