"""Batch command-line front-end.

Every command reads one JSON config and writes CSV.  All computation happens
before any file is opened and the outputs are moved into place together, so
a failing run leaves no partial output.  A failure exits with its error
class's `exit_code` (the table is in `errors`), an unwritable output with
ConfigError's.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import config as cfg_mod
from .coupling import SweepRow, sweep_anisotropy_ad, sweep_anisotropy_b
from .errors import ConfigError, RingStarError
from .oracle import cross_validate
from .output import sibling_path, write_csv
from .protocols import (
    fidelity_curve,
    fluctuation_sweep,
    make_transfer_program,
    plan_w_from_center,
    plan_w_from_site,
)
from .star import analytic_eigensystem, build_effective_hamiltonian, propagate
from .linalg import hermitian_eigendecompose


def _amplitude_header(dim: int) -> list[str]:
    cols = []
    for j in range(1, dim + 1):
        cols.append(f"re_{j}")
        cols.append(f"im_{j}")
    return cols


def _protocol_options(cfg: dict, *keys: str) -> dict:
    """The `keys` the protocol section gives, as keyword arguments: a key the
    config leaves out is not passed, so the library default applies."""
    protocol = cfg_mod.protocol_section(cfg)
    return {key: protocol[key] for key in keys if key in protocol}


def cmd_spectrum(cfg: dict, args) -> list[tuple[str, list, list]]:
    network = cfg_mod.network_from_config(cfg)
    header = ["index", "kind", "value"] + [f"c_{j}" for j in range(1, network.dim + 1)]
    if network.constraint_holds:
        eig = analytic_eigensystem(network)
        kinds = ["degenerate"] * (network.dim - 2) + ["pair", "pair"]
    else:
        eig = hermitian_eigendecompose(build_effective_hamiltonian(network))
        kinds = ["numeric"] * network.dim
    rows = [
        (j, kind, value, *vector)
        for j, (kind, value, vector) in enumerate(
            zip(kinds, eig.values.tolist(), eig.vectors.T.tolist()), start=1
        )
    ]
    return [(args.out, header, rows)]


def cmd_evolve(cfg: dict, args) -> list[tuple[str, list, list]]:
    network = cfg_mod.network_from_config(cfg)
    initial = cfg_mod.initial_state_from_config(cfg, network)
    options = _protocol_options(cfg, "method")
    times = cfg_mod.grid_from_config(cfg, "time")
    states = propagate(network, initial, times, **options)
    cells = np.empty((len(times), 2 * network.dim + 1))
    cells[:, 0] = times
    cells[:, 1::2] = states.real
    cells[:, 2::2] = states.imag
    return [(args.out, ["t"] + _amplitude_header(network.dim), cells)]


def cmd_wgen(cfg: dict, args) -> list[tuple[str, list, list]]:
    protocol = cfg_mod.protocol_section(cfg)
    source = protocol.get("source", "center")
    if source == "center":
        network = cfg_mod.network_from_config(cfg)
        plan = plan_w_from_center(network, **_protocol_options(cfg, "winding"))
    elif "n_sites" not in protocol:
        raise ConfigError("protocol.n_sites is required for a site source")
    else:
        options = _protocol_options(cfg, "constraint", "gamma_source", "winding", "branch")
        plan = plan_w_from_site(protocol["n_sites"], source, **options)
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
            plan.source,
            plan.winding,
            plan.t_w,
            plan.ratio,
            plan.chi,
            plan.predicted_error,
            network.constraint_value,
            network.omega,
        )
    ]
    sites = zip(range(1, network.dim), network.gammas.tolist(), network.deltas.tolist())
    return [
        (args.out, header, rows),
        (sibling_path(args.out, "network"), ["site", "gamma", "delta"], list(sites)),
    ]


def cmd_sweep_fluct(cfg: dict, args) -> list[tuple[str, list, list]]:
    options = _protocol_options(cfg, "constraint", "winding", "branch")
    rows = np.array(fluctuation_sweep(cfg_mod.grid_from_config(cfg, "delta"), **options))
    return [(args.out, ["delta", "E_r"], rows)]


def cmd_transfer(cfg: dict, args) -> list[tuple[str, list, list]]:
    program = make_transfer_program(**cfg_mod.transfer_section(cfg))
    times = cfg_mod.grid_from_config(cfg, "time")
    curve = fidelity_curve(program, times)
    curve_rows = np.column_stack([curve.times, curve.return_fidelity, curve.target_fidelity])
    network = program.network
    program_rows = [
        (site, gamma, delta, program.t_transfer, program.peak_target_fidelity)
        for site, gamma, delta in zip(
            range(1, network.dim), network.gammas.tolist(), network.deltas.tolist()
        )
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
    sweep = sweep_anisotropy_ad if params.pop("kind") == "ad" else sweep_anisotropy_b
    return [(args.out, list(SweepRow._fields), sweep(**params))]


def cmd_validate(cfg: dict, args) -> list[tuple[str, list, list]]:
    network = cfg_mod.network_from_config(cfg)
    initial = cfg_mod.initial_state_from_config(cfg, network)
    times = cfg_mod.grid_from_config(cfg, "time")
    convention = cfg_mod.z_convention_from_config(cfg)
    checks = cross_validate(network, initial, times, z_convention=convention)
    rows = [(c.name, c.max_deviation, c.threshold, c.passed) for c in checks]
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
    return parser


def _write_all(outputs: list[tuple[str, list, list]]) -> None:
    """Write every output or none: all go to `<path>.part` before any is moved."""
    parts = [path + ".part" for path, _, _ in outputs]
    try:
        for part, (path, header, rows) in zip(parts, outputs):
            if os.path.isdir(path):  # os.replace could not put the part there
                raise IsADirectoryError(f"output path {path!r} is a directory")
            write_csv(part, header, rows)
        for part, (path, _, _) in zip(parts, outputs):
            os.replace(part, path)
    finally:
        for part in filter(os.path.isfile, parts):  # what a failure left
            os.remove(part)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = cfg_mod.load_config(args.config)
        outputs = COMMANDS[args.command](cfg, args)
        _write_all(outputs)
    except RingStarError as exc:
        print(f"error [{exc.label}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # the config reader raises ConfigError for its own
        print(f"error [output]: {exc}", file=sys.stderr)
        return ConfigError.exit_code
    for path, _, rows in outputs:
        print(f"wrote {path} ({len(rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
