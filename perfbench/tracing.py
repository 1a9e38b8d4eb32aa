"""Span tracing around calls into ringstar's layers, from outside the package.

`Tracer.install()` replaces each listed public function with a wrapper in
every loaded ringstar module that refers to it (modules import each other's
functions by name), so calls between layers are seen without touching the
program's source.  `uninstall()` puts the originals back.  Spans are kept in
memory and written out when the benchmark ends.

A span is [id, parent id, job id, name, start, end, attributes]; its layer
is the part of the name before the dot.  Self time is a span's duration
minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "config", "rings", "coupling", "star", "protocols", "oracle",
          "linalg", "output")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# module -> {function: attribute hook (args, kwargs, result) -> dict, or None}
WRAPPED = {
    "cli": {"main": None},
    "config": dict.fromkeys((
        "load_config", "network_from_config", "initial_state_from_config",
        "grid_from_config", "dim_cap_from_config", "z_convention_from_config",
        "protocol_section", "transfer_section", "sweep_section")),
    "rings": {
        "ring_qubit_encoding": lambda a, k, r: {"dim": _arg(a, k, 0, "spec").dim},
        "build_ring_hamiltonian": None, "total_sz_operator": None,
        "ground_doublet": None, "doublet_matrix_elements": None, "regauge": None},
    "coupling": {
        "effective_coupling": None, "ring_pair_coupling": None, "star_from_rings": None,
        "sweep_anisotropy_ad": None, "sweep_anisotropy_b": None,
        "b_sweep_evaluator": None,  # Tracer.wrap also wraps the evaluator it returns
        "find_delta_transitions": lambda a, k, r: {"found": len(r)}},
    "star": dict.fromkeys((
        "evolve_subspace", "analytic_eigensystem", "build_effective_hamiltonian",
        "closed_form_from_site", "closed_form_from_center", "phase_angles")),
    "protocols": dict.fromkeys((
        "plan_w_from_center", "plan_w_from_site", "make_transfer_program",
        "fidelity_curve", "fluctuation_sweep")),
    "oracle": {
        "cross_validate": lambda a, k, r: {"qubits": _arg(a, k, 0, "network").n_sites + 1},
        "full_space_hamiltonian": lambda a, k, r: {"dim": r.shape[0]},
        "embed_in_full_space": None, "project_to_subspace": None},
    "linalg": {
        "hermitian_eigendecompose": lambda a, k, r: {"dim": r.values.size},
        "unitary_evolve": None},
    "output": {
        "write_csv": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
        "render_csv": None},
}


class Tracer:
    """Records spans of the wrapped ringstar functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn, hook=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        wraps_evaluator = name == "coupling.b_sweep_evaluator"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, self.job, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[0])
            span[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if hook is not None:
                span[6] = hook(args, kwargs, result)
            if wraps_evaluator:
                result = self.wrap("coupling.evaluate", result)
            return result

        return traced

    def install(self) -> None:
        replace = {}
        for layer, functions in WRAPPED.items():
            module = sys.modules[f"ringstar.{layer}"]
            for fname, hook in functions.items():
                original = getattr(module, fname)
                replace[id(original)] = (original, self.wrap(f"{layer}.{fname}", original, hook))
        for mname, module in list(sys.modules.items()):
            if mname != "ringstar" and not mname.startswith("ringstar."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replace and replace[id(value)][0] is value:
                    setattr(module, attr, replace[id(value)][1])
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in self._restore:
            setattr(module, attr, value)
        self._restore.clear()

    def write(self, path: str, pass_index: int) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for sid, parent, job, name, start, end, attrs in self.spans:
                fh.write(json.dumps({"pass": pass_index, "id": sid, "parent": parent,
                                     "job": job, "name": name, "start": start,
                                     "end": end, "attrs": attrs}) + "\n")


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    tail = name.rsplit(".", 1)[-1]
    if name.startswith("linalg.eigh_s.") or tail.endswith("_s"):
        return "s"
    if tail.endswith(("_frac", "_yield")):
        return "frac"
    units = {"ed_dim_max": "dim", "eigh_dim_max": "dim", "qubits_max": "qubits",
             "ed_flops_computed": "flop", "bytes": "B", "fullspace_bytes_computed": "B",
             "star_calls_per_program": "calls/program"}
    return units.get(tail, "count")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see perfbench/README.md)."""
    n = len(spans)
    dur = [s[5] - s[4] for s in spans]
    child = [0.0] * n
    children = defaultdict(list)
    for s in spans:
        if s[1] >= 0:
            child[s[1]] += dur[s[0]]
            children[s[1]].append(s[0])
    name = [s[3] for s in spans]
    layer = [nm.split(".", 1)[0] for nm in name]
    total = defaultdict(float)
    calls = defaultdict(int)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i in range(n):
        total[name[i]] += dur[i]
        calls[name[i]] += 1
        self_s[layer[i]] += dur[i] - child[i]

    def ancestors(i):
        p = spans[i][1]
        while p >= 0:
            yield p
            p = spans[p][1]

    def attr(i, key):
        return (spans[i][6] or {}).get(key, 0)

    eigh_by_caller = dict.fromkeys(("rings", "star", "oracle", "cli"), 0.0)
    oracle_eigh = 0.0
    eigh_dim_max = 0
    for i in range(n):
        if name[i] != "linalg.hermitian_eigendecompose":
            continue
        eigh_dim_max = max(eigh_dim_max, attr(i, "dim"))
        caller = next((layer[p] for p in ancestors(i) if layer[p] != "linalg"), None)
        if caller in eigh_by_caller:
            eigh_by_caller[caller] += dur[i]
        parent = spans[i][1]
        if parent >= 0 and name[parent] == "oracle.cross_validate" \
                and attr(i, "dim") == 2 ** attr(parent, "qubits"):
            oracle_eigh += dur[i]

    star_entries = programs = 0
    for i in range(n):
        if name[i] == "protocols.make_transfer_program":
            programs += 1
        elif layer[i] == "star" and (spans[i][1] < 0 or layer[spans[i][1]] != "star") \
                and any(name[p] == "protocols.make_transfer_program" for p in ancestors(i)):
            star_entries += 1
    analytic = sum(1 for i in range(n) if name[i] == "star.evolve_subspace"
                   and any(name[c] == "star.analytic_eigensystem" for c in children[i]))
    ed_dims = [attr(i, "dim") for i in range(n) if name[i] == "rings.ring_qubit_encoding"]
    found = sum(attr(i, "found") for i in range(n) if name[i] == "coupling.find_delta_transitions")
    evals = calls["coupling.evaluate"]
    propagate_calls = calls["star.evolve_subspace"]
    metrics = {
        "rings.ed_calls": calls["rings.ring_qubit_encoding"],
        "rings.ed_s": total["rings.ring_qubit_encoding"],
        "rings.build_s": total["rings.build_ring_hamiltonian"],
        "rings.doublet_s": total["rings.ground_doublet"],
        "rings.elements_s": total["rings.doublet_matrix_elements"],
        "rings.ed_dim_max": max(ed_dims, default=0),
        "rings.ed_flops_computed": float(sum(d ** 3 for d in ed_dims)),
        "coupling.extract_calls": calls["coupling.effective_coupling"],
        "coupling.extract_s": total["coupling.effective_coupling"],
        "coupling.sweep_s": total["coupling.sweep_anisotropy_ad"]
        + total["coupling.sweep_anisotropy_b"],
        "coupling.transition_s": total["coupling.find_delta_transitions"],
        "coupling.transition_evals": evals,
        "coupling.transitions_found": found,
        "coupling.transition_yield": found / evals if evals else 0.0,
        "star.propagate_calls": propagate_calls,
        "star.propagate_s": total["star.evolve_subspace"],
        "star.analytic_frac": analytic / propagate_calls if propagate_calls else 0.0,
        "star.eigensystem_calls": calls["star.analytic_eigensystem"],
        "star.eigensystem_s": total["star.analytic_eigensystem"],
        "star.closed_form_calls": calls["star.closed_form_from_site"]
        + calls["star.closed_form_from_center"],
        "protocols.plan_s": total["protocols.plan_w_from_center"]
        + total["protocols.plan_w_from_site"],
        "protocols.transfer_program_s": total["protocols.make_transfer_program"],
        "protocols.star_calls_per_program": star_entries / programs if programs else 0.0,
        "protocols.fidelity_curve_s": total["protocols.fidelity_curve"],
        "protocols.fluct_s": total["protocols.fluctuation_sweep"],
        "oracle.validate_s": total["oracle.cross_validate"],
        "oracle.hamiltonian_s": total["oracle.full_space_hamiltonian"],
        "oracle.eigh_s": oracle_eigh,
        "oracle.qubits_max": max((attr(i, "qubits") for i in range(n)
                                  if name[i] == "oracle.cross_validate"), default=0),
        "oracle.fullspace_bytes_computed": float(sum(
            16 * attr(i, "dim") ** 2 for i in range(n)
            if name[i] == "oracle.full_space_hamiltonian")),
        "linalg.eigh_calls": calls["linalg.hermitian_eigendecompose"],
        "linalg.eigh_s": total["linalg.hermitian_eigendecompose"],
        "linalg.eigh_dim_max": eigh_dim_max,
        "config.load_s": self_s["config"],
        "output.write_s": total["output.write_csv"],
        "output.bytes": sum(attr(i, "bytes") for i in range(n) if name[i] == "output.write_csv"),
        "trace.spans": n,
    }
    for caller, seconds in eigh_by_caller.items():
        metrics[f"linalg.eigh_s.{caller}"] = seconds
    for lyr, seconds in self_s.items():
        if lyr != "config":  # reported as config.load_s
            metrics[f"{lyr}.self_s"] = seconds
    order = {lyr: i for i, lyr in enumerate(LAYERS + ("trace",))}
    return dict(sorted(metrics.items(), key=lambda item: order[item[0].split(".")[0]]))
