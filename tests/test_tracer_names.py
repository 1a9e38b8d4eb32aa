"""The benchmark's tracer wraps ringstar functions by name.

`perfbench/tracing.py` lists them in `WRAPPED`, and `Tracer.install` looks
each one up with `getattr`, so a renamed or deleted function would crash
every traced benchmark run.  Some entries also carry a hook that reads
attributes of the wrapped function's result, so a changed return type would
crash it too.  The tracer is loaded from its file, read-only.  The package's
own export list is checked the same way, since trimming `__all__` can leave
a name behind.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import ringstar
from ringstar.oracle import full_space_hamiltonian
from ringstar.star import uniform_star

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_exists():
    tracing = _load_tracing()
    missing = [
        f"ringstar.{layer}.{name}"
        for layer, functions in tracing.WRAPPED.items()
        for name in functions
        if not callable(getattr(importlib.import_module(f"ringstar.{layer}"), name, None))
    ]
    assert tracing.WRAPPED and not missing, missing


def test_every_exported_name_resolves_once():
    missing = [name for name in ringstar.__all__ if not hasattr(ringstar, name)]
    assert not missing, missing
    assert len(set(ringstar.__all__)) == len(ringstar.__all__)


def test_full_space_hamiltonian_hook_reads_a_real_result():
    hook = _load_tracing().WRAPPED["oracle"]["full_space_hamiltonian"]
    network = uniform_star(3, 1.0)
    result = full_space_hamiltonian(network, "pauli")
    assert hook((network, "pauli"), {}, result) == {"dim": 16}
    assert hook((), {"network": network}, full_space_hamiltonian(network)) == {"dim": 16}
