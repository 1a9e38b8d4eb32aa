"""Batch command-line front-end.

Every command reads one JSON config and writes CSV.  All computation happens
before any file is opened, so a failing run leaves no partial output.  Exit
codes sort failures by kind: 2 config/parse, 3 validation, 4 infeasible
protocol or divergent extraction, 5 dimension cap.
"""
from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import config as cfg_mod
from .coupling import sweep_anisotropy_ad, sweep_anisotropy_b
from .errors import (
    ConfigError,
    DimensionCapError,
    InfeasibleError,
    RingStarError,
    ValidationError,
)
from .oracle import cross_validate
from .output import sibling_path, write_csv
from .protocols import (
    FLUCTUATION_BRANCH,
    FLUCTUATION_CONSTRAINT,
    FLUCTUATION_WINDING,
    fidelity_curve,
    fluctuation_sweep,
    make_transfer_program,
    plan_w_from_center,
    plan_w_from_site,
)
from .star import analytic_eigensystem, build_effective_hamiltonian, propagate
from .linalg import hermitian_eigendecompose

EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_INFEASIBLE = 4
EXIT_DIM_CAP = 5


def _amplitude_header(dim: int) -> list[str]:
    cols = []
    for j in range(1, dim + 1):
        cols.append(f"re_{j}")
        cols.append(f"im_{j}")
    return cols


def cmd_spectrum(cfg: dict, args) -> list[tuple[str, list, list]]:
    network = cfg_mod.network_from_config(cfg)
    header = ["index", "kind", "value"] + [f"c_{j}" for j in range(1, network.dim + 1)]
    rows = []
    if network.constraint_holds:
        system = analytic_eigensystem(network)
        kinds = ["degenerate"] * (network.dim - 2) + ["pair", "pair"]
        values = system.all_values()
        vectors = system.all_vectors()
    else:
        eig = hermitian_eigendecompose(build_effective_hamiltonian(network))
        kinds = ["numeric"] * network.dim
        values = eig.values
        vectors = eig.vectors
    for j in range(network.dim):
        rows.append(
            (j + 1, kinds[j], float(values[j]))
            + tuple(float(vectors[i, j].real) for i in range(network.dim))
        )
    return [(args.out, header, rows)]


def cmd_evolve(cfg: dict, args) -> list[tuple[str, list, list]]:
    network = cfg_mod.network_from_config(cfg)
    protocol = cfg_mod.protocol_section(cfg)
    initial = cfg_mod.initial_state_from_config(cfg, network)
    method = cfg_mod._string(protocol, "method", "protocol", default="auto")
    if method not in ("auto", "analytic", "numerical"):
        raise ConfigError("protocol.method must be auto, analytic or numerical")
    times = cfg_mod.grid_from_config(cfg, "time")
    states = propagate(network, initial, times, method=method)
    cells = np.empty((len(times), 2 * network.dim + 1))
    cells[:, 0] = times
    cells[:, 1::2] = states.real
    cells[:, 2::2] = states.imag
    return [(args.out, ["t"] + _amplitude_header(network.dim), cells.tolist())]


def cmd_wgen(cfg: dict, args) -> list[tuple[str, list, list]]:
    protocol = cfg_mod.protocol_section(cfg) if "protocol" in cfg else {}
    winding = cfg_mod.winding_from(protocol, args.k)
    branch = cfg_mod.branch_from(protocol, args.branch)
    source = protocol.get("source", "center")
    if source == "center":
        network = cfg_mod.network_from_config(cfg)
        plan = plan_w_from_center(network, winding=0 if winding is None else winding)
    elif isinstance(source, int) and not isinstance(source, bool):
        n_sites = cfg_mod._integer(protocol, "n_sites", "protocol")
        constraint = cfg_mod._number(protocol, "constraint", "protocol", default=0.0)
        gamma_source = cfg_mod._number(
            protocol, "gamma_source", "protocol", default=1.0
        )
        plan = plan_w_from_site(
            n_sites, source, constraint, gamma_source, winding=winding, branch=branch
        )
    else:
        raise ConfigError("protocol.source must be 'center' or a site index")
    network = plan.network
    header = [
        "source",
        "winding",
        "t_w",
        "coupling_ratio",
        "chi",
        "predicted_error",
        "constraint",
        "omega",
    ]
    rows = [
        (
            "center" if plan.source == "center" else int(plan.source),
            int(plan.winding),
            float(plan.t_w),
            None if plan.ratio is None else float(plan.ratio),
            float(plan.chi),
            float(plan.predicted_error),
            float(network.constraint_value),
            float(network.omega),
        )
    ]
    site_rows = [
        (i + 1, float(network.gammas[i]), float(network.deltas[i]))
        for i in range(network.n_sites)
    ]
    return [
        (args.out, header, rows),
        (sibling_path(args.out, "network"), ["site", "gamma", "delta"], site_rows),
    ]


def cmd_sweep_fluct(cfg: dict, args) -> list[tuple[str, list, list]]:
    protocol = cfg_mod.protocol_section(cfg) if "protocol" in cfg else {}
    winding = cfg_mod.winding_from(protocol, args.k)
    branch = cfg_mod.branch_from(protocol, args.branch, default=FLUCTUATION_BRANCH)
    constraint = cfg_mod._number(
        protocol, "constraint", "protocol", default=FLUCTUATION_CONSTRAINT
    )
    deltas = cfg_mod.grid_from_config(cfg, "delta")
    rows = fluctuation_sweep(
        deltas,
        constraint=constraint,
        winding=FLUCTUATION_WINDING if winding is None else winding,
        branch=branch,
    )
    return [(args.out, ["delta", "E_r"], [(float(d), float(e)) for d, e in rows])]


def cmd_transfer(cfg: dict, args) -> list[tuple[str, list, list]]:
    params = cfg_mod.transfer_section(cfg)
    program = make_transfer_program(
        params["n_sites"],
        params["block"],
        params["amplitudes"],
        gamma_scale=params["gamma_scale"],
        constraint=params["constraint"],
    )
    times = cfg_mod.grid_from_config(cfg, "time")
    curve = fidelity_curve(program, times)
    curve_rows = [
        (float(t), float(fr), float(ft))
        for t, fr, ft in zip(curve.times, curve.return_fidelity, curve.target_fidelity)
    ]
    network = program.network
    program_rows = [
        (
            i + 1,
            float(network.gammas[i]),
            float(network.deltas[i]),
            float(program.t_transfer),
            float(program.peak_target_fidelity),
        )
        for i in range(network.n_sites)
    ]
    return [
        (args.out, ["t", "F_return", "F_target"], curve_rows),
        (
            sibling_path(args.out, "program"),
            ["site", "gamma", "delta", "t_transfer", "peak_target_fidelity"],
            program_rows,
        ),
    ]


def cmd_sweep_aniso(cfg: dict, args) -> list[tuple[str, list, list]]:
    params = cfg_mod.sweep_section(cfg)
    if params["kind"] == "ad":
        rows = sweep_anisotropy_ad(
            params["a_values"],
            params["d_values"],
            params["linkers"],
            x=params["x"],
            exchange=params["exchange"],
            symmetric_substitute_bonds=params["symmetric_ni_bonds"],
            scale=cfg_mod._number(cfg, "coupling_scale", "top level", default=1.0),
            dim_cap=cfg_mod.dim_cap_from_config(cfg),
        )
    else:
        rows = sweep_anisotropy_b(
            params["b_values"],
            x=params["x"],
            exchange=params["exchange"],
            a=params["a"],
            d=params["d"],
            reference=params["reference"],
            tuned_sites=params["tuned_sites"],
            symmetric_substitute_bonds=params["symmetric_ni_bonds"],
            scale=cfg_mod._number(cfg, "coupling_scale", "top level", default=1.0),
            dim_cap=cfg_mod.dim_cap_from_config(cfg),
        )
    table = [
        (row.a, row.d, row.b, row.gamma, row.delta, row.gap, row.status)
        for row in rows
    ]
    return [(args.out, ["a", "d", "b", "gamma", "delta", "gap", "status"], table)]


def cmd_validate(cfg: dict, args) -> list[tuple[str, list, list]]:
    network = cfg_mod.network_from_config(cfg)
    initial = cfg_mod.initial_state_from_config(cfg, network)
    times = cfg_mod.grid_from_config(cfg, "time")
    convention = args.z_convention or cfg_mod.z_convention_from_config(cfg)
    report = cross_validate(network, initial, times, z_convention=convention)
    rows = [
        (name, float(dev), None if thr is None else float(thr), passed)
        for name, dev, thr, passed in report.rows()
    ]
    return [(args.out, ["check", "max_deviation", "threshold", "pass"], rows)]


COMMANDS = {
    "spectrum": cmd_spectrum,
    "evolve": cmd_evolve,
    "wgen": cmd_wgen,
    "sweep-fluct": cmd_sweep_fluct,
    "transfer": cmd_transfer,
    "sweep-aniso": cmd_sweep_aniso,
    "validate": cmd_validate,
}


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringstar",
        description="Star-network qubit dynamics: spectra, protocols, sweeps.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--k", type=int, default=None, help="winding override")
    parser.add_argument(
        "--branch", choices=("plus", "minus"), default=None,
        help="coupling-ratio branch override",
    )
    parser.add_argument(
        "--z-convention", choices=("halfspin", "pauli"), default=None,
        dest="z_convention", help="full-space z operator convention",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = cfg_mod.load_config(args.config)
        outputs = COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"error [config]: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DimensionCapError as exc:
        print(f"error [dimension-cap]: {exc}", file=sys.stderr)
        return EXIT_DIM_CAP
    except InfeasibleError as exc:
        print(f"error [infeasible]: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValidationError as exc:
        print(f"error [validation]: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RingStarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    for path, header, rows in outputs:
        write_csv(path, header, rows)
        print(f"wrote {path} ({len(rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
