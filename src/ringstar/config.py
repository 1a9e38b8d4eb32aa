"""JSON run-configuration parsing and validation.

One config file drives every batch command.  Structural problems (unknown
keys, wrong types, missing sections) raise ConfigError; values that parse but
fall outside their documented ranges (non-increasing grids, fractions outside
the open unit interval, site indices out of bounds) raise ValidationError.
The split matches the process exit codes 2 and 3.
"""
from __future__ import annotations

import json
from typing import Any

import numpy as np

from .coupling import Linker, star_from_rings
from .errors import ConfigError, ValidationError
from .rings import DEFAULT_DIM_CAP, RingSpec
from .star import StarNetwork, as_subspace_state, basis_state

TOP_LEVEL_KEYS = {
    "mode",
    "effective",
    "microscopic",
    "protocol",
    "grids",
    "sweep",
    "z_convention",
    "coupling_scale",
    "dim_cap",
}


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(raw, TOP_LEVEL_KEYS, "top level")
    return raw


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")


def _section(cfg: dict, name: str) -> dict:
    if name not in cfg:
        raise ConfigError(f"config section {name!r} is required for this command")
    value = cfg[name]
    if not isinstance(value, dict):
        raise ConfigError(f"config section {name!r} must be a JSON object")
    return value


def _number(obj: dict, key: str, where: str, default=None) -> float:
    if key not in obj:
        if default is None:
            raise ConfigError(f"missing key {key!r} in {where}")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number")
    return float(value)


def _integer(obj: dict, key: str, where: str, default=None) -> int:
    if key not in obj:
        if default is None:
            raise ConfigError(f"missing key {key!r} in {where}")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key} must be an integer")
    return value


def _boolean(obj: dict, key: str, where: str, default: bool) -> bool:
    if key not in obj:
        return default
    value = obj[key]
    if not isinstance(value, bool):
        raise ConfigError(f"{where}.{key} must be true or false")
    return value


def _string(obj: dict, key: str, where: str, default=None) -> str:
    if key not in obj:
        if default is None:
            raise ConfigError(f"missing key {key!r} in {where}")
        return default
    value = obj[key]
    if not isinstance(value, str):
        raise ConfigError(f"{where}.{key} must be a string")
    return value


def _number_list(value: Any, where: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a non-empty list of numbers")
    out = []
    for v in value:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{where} must contain numbers only")
        out.append(float(v))
    return out


def parse_grid(value: Any, where: str, increasing: bool = True) -> np.ndarray:
    """A grid is a literal list of numbers or {start, stop, num}."""
    if isinstance(value, dict):
        _check_keys(value, {"start", "stop", "num"}, where)
        start = _number(value, "start", where)
        stop = _number(value, "stop", where)
        num = _integer(value, "num", where)
        if num < 1:
            raise ValidationError(f"{where}.num must be >= 1")
        if num > 1 and not stop > start:
            raise ValidationError(f"{where} needs stop > start")
        grid = np.linspace(start, stop, num)
    else:
        grid = np.asarray(_number_list(value, where), dtype=np.float64)
    if not np.all(np.isfinite(grid)):
        raise ValidationError(f"{where} contains non-finite values")
    if increasing and grid.size > 1 and not np.all(np.diff(grid) > 0.0):
        raise ValidationError(f"{where} must be strictly increasing")
    return grid


def grid_from_config(cfg: dict, name: str) -> np.ndarray:
    grids = _section(cfg, "grids")
    _check_keys(grids, {"time", "delta"}, "grids")
    if name not in grids:
        raise ConfigError(f"grids.{name} is required for this command")
    return parse_grid(grids[name], f"grids.{name}")


def dim_cap_from_config(cfg: dict) -> int:
    cap = _integer(cfg, "dim_cap", "top level", default=DEFAULT_DIM_CAP)
    if cap < 2:
        raise ValidationError("dim_cap must be at least 2")
    return cap


def z_convention_from_config(cfg: dict) -> str:
    value = _string(cfg, "z_convention", "top level", default="halfspin")
    if value not in ("halfspin", "pauli"):
        raise ConfigError("z_convention must be 'halfspin' or 'pauli'")
    return value


def ring_spec_from_config(obj: Any, where: str) -> RingSpec:
    """Either the substituted-ring shorthand {x, J, a, d, symmetric_ni_bonds}
    or an explicit {spins, bonds, crystal_fields} triple."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    if "x" in obj:
        _check_keys(obj, {"x", "J", "a", "d", "symmetric_ni_bonds"}, where)
        x = _integer(obj, "x", where)
        if x < 1:
            raise ValidationError(f"{where}.x must be >= 1")
        return RingSpec.cr_ni(
            x,
            exchange=_number(obj, "J", where, default=17.0),
            ratio=_number(obj, "a", where, default=0.9),
            crystal_field=_number(obj, "d", where, default=0.3),
            symmetric_substitute_bonds=_boolean(
                obj, "symmetric_ni_bonds", where, default=False
            ),
        )
    _check_keys(obj, {"spins", "bonds", "crystal_fields"}, where)
    for key in ("spins", "bonds", "crystal_fields"):
        if key not in obj:
            raise ConfigError(f"missing key {key!r} in {where}")
    try:
        return RingSpec(
            sites=tuple(_number_list(obj["spins"], f"{where}.spins")),
            bond_couplings=tuple(_number_list(obj["bonds"], f"{where}.bonds")),
            crystal_fields=tuple(
                _number_list(obj["crystal_fields"], f"{where}.crystal_fields")
            ),
        )
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _linker_from_config(obj: Any, where: str, n_ring: int, n_central: int) -> Linker:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    _check_keys(obj, {"ring_site", "central_site", "strength"}, where)
    link = Linker(
        ring_site=_integer(obj, "ring_site", where),
        central_site=_integer(obj, "central_site", where),
        strength=_number(obj, "strength", where),
    )
    if not 1 <= link.ring_site <= n_ring:
        raise ValidationError(f"{where}.ring_site out of range 1..{n_ring}")
    if not 1 <= link.central_site <= n_central:
        raise ValidationError(f"{where}.central_site out of range 1..{n_central}")
    return link


def network_from_config(cfg: dict) -> StarNetwork:
    mode = _string(cfg, "mode", "top level")
    if mode == "effective":
        eff = _section(cfg, "effective")
        _check_keys(eff, {"gammas", "deltas"}, "effective")
        if "gammas" not in eff or "deltas" not in eff:
            raise ConfigError("effective mode needs both 'gammas' and 'deltas'")
        gammas = _number_list(eff["gammas"], "effective.gammas")
        deltas = _number_list(eff["deltas"], "effective.deltas")
        if len(gammas) != len(deltas):
            raise ValidationError("gammas and deltas must have equal length")
        return StarNetwork(gammas=np.array(gammas), deltas=np.array(deltas))
    if mode == "microscopic":
        micro = _section(cfg, "microscopic")
        _check_keys(micro, {"central", "rings", "linkers"}, "microscopic")
        if "central" not in micro or "rings" not in micro or "linkers" not in micro:
            raise ConfigError(
                "microscopic mode needs 'central', 'rings' and 'linkers'"
            )
        central = ring_spec_from_config(micro["central"], "microscopic.central")
        if not isinstance(micro["rings"], list) or not micro["rings"]:
            raise ConfigError("microscopic.rings must be a non-empty list")
        rings = [
            ring_spec_from_config(spec, f"microscopic.rings[{i}]")
            for i, spec in enumerate(micro["rings"])
        ]
        if not isinstance(micro["linkers"], list):
            raise ConfigError("microscopic.linkers must be a list of lists")
        if len(micro["linkers"]) != len(rings):
            raise ValidationError("need one linker list per ring")
        linkers = []
        for i, (group, spec) in enumerate(zip(micro["linkers"], rings)):
            if not isinstance(group, list) or not group:
                raise ConfigError(
                    f"microscopic.linkers[{i}] must be a non-empty list"
                )
            linkers.append(
                [
                    _linker_from_config(
                        item,
                        f"microscopic.linkers[{i}][{j}]",
                        spec.n_sites,
                        central.n_sites,
                    )
                    for j, item in enumerate(group)
                ]
            )
        scale = _number(cfg, "coupling_scale", "top level", default=1.0)
        return star_from_rings(
            central, rings, linkers, scale=scale, dim_cap=dim_cap_from_config(cfg)
        )
    raise ConfigError(f"mode must be 'effective' or 'microscopic', got {mode!r}")


def initial_state_from_config(cfg: dict, network: StarNetwork) -> np.ndarray:
    """protocol.initial: a 1-based site index, "center", or an amplitude list
    (real numbers or [re, im] pairs)."""
    protocol = _section(cfg, "protocol")
    if "initial" not in protocol:
        raise ConfigError("protocol.initial is required for this command")
    value = protocol["initial"]
    if isinstance(value, str):
        if value != "center":
            raise ConfigError("protocol.initial string form must be 'center'")
        return basis_state(network, network.n_sites + 1)
    if isinstance(value, bool):
        raise ConfigError("protocol.initial must be a site, 'center', or a list")
    if isinstance(value, int):
        if not 1 <= value <= network.n_sites + 1:
            raise ValidationError(
                f"protocol.initial site {value} out of range 1..{network.n_sites + 1}"
            )
        return basis_state(network, value)
    if isinstance(value, list):
        amps = []
        for j, item in enumerate(value):
            if isinstance(item, list):
                if len(item) != 2:
                    raise ConfigError(
                        "protocol.initial entries must be numbers or [re, im]"
                    )
                re, im = item
                if any(
                    isinstance(v, bool) or not isinstance(v, (int, float))
                    for v in item
                ):
                    raise ConfigError(
                        f"protocol.initial[{j}] must contain numbers"
                    )
                amps.append(complex(re, im))
            elif isinstance(item, bool) or not isinstance(item, (int, float)):
                raise ConfigError(f"protocol.initial[{j}] must be a number")
            else:
                amps.append(complex(item))
        if len(amps) != network.dim:
            raise ValidationError(
                f"protocol.initial needs {network.dim} amplitudes, got {len(amps)}"
            )
        return as_subspace_state(np.array(amps), network.dim)
    raise ConfigError("protocol.initial must be a site, 'center', or a list")


PROTOCOL_KEYS = {
    "initial",
    "source",
    "winding",
    "branch",
    "constraint",
    "gamma_source",
    "n_sites",
    "method",
    "transfer",
}


def protocol_section(cfg: dict) -> dict:
    protocol = _section(cfg, "protocol")
    _check_keys(protocol, PROTOCOL_KEYS, "protocol")
    return protocol


def branch_from(
    protocol: dict, override: str | None = None, default: str = "plus"
) -> str:
    value = override or _string(protocol, "branch", "protocol", default=default)
    if value not in ("plus", "minus"):
        raise ConfigError("branch must be 'plus' or 'minus'")
    return value


def winding_from(protocol: dict, override: int | None = None) -> int | None:
    if override is not None:
        return override
    if "winding" not in protocol:
        return None
    return _integer(protocol, "winding", "protocol")


def transfer_section(cfg: dict) -> dict:
    """Validated transfer parameters: n_sites, block, amplitudes, gamma_scale,
    constraint.  An 'alpha' angle is shorthand for the two-amplitude pattern
    (sin alpha, cos alpha)."""
    protocol = protocol_section(cfg)
    if "transfer" not in protocol:
        raise ConfigError("protocol.transfer is required for this command")
    obj = protocol["transfer"]
    if not isinstance(obj, dict):
        raise ConfigError("protocol.transfer must be a JSON object")
    _check_keys(
        obj,
        {"n_sites", "block", "amplitudes", "alpha", "gamma_scale", "constraint"},
        "protocol.transfer",
    )
    n_sites = _integer(obj, "n_sites", "protocol.transfer")
    block = _integer(obj, "block", "protocol.transfer")
    if "amplitudes" in obj and "alpha" in obj:
        raise ConfigError("give protocol.transfer.amplitudes or .alpha, not both")
    if "alpha" in obj:
        if block != 2:
            raise ValidationError("alpha shorthand only defines a block of 2")
        alpha = _number(obj, "alpha", "protocol.transfer")
        amplitudes = [float(np.sin(alpha)), float(np.cos(alpha))]
    elif "amplitudes" in obj:
        amplitudes = _number_list(obj["amplitudes"], "protocol.transfer.amplitudes")
    else:
        raise ConfigError("protocol.transfer needs 'amplitudes' or 'alpha'")
    return {
        "n_sites": n_sites,
        "block": block,
        "amplitudes": amplitudes,
        "gamma_scale": _number(obj, "gamma_scale", "protocol.transfer", default=1.0),
        "constraint": _number(obj, "constraint", "protocol.transfer", default=0.0),
    }


def sweep_section(cfg: dict) -> dict:
    """Validated anisotropy-sweep parameters, discriminated by 'kind': the
    keyword arguments of `sweep_anisotropy_<kind>` plus 'kind' itself."""
    sweep = _section(cfg, "sweep")
    kind = _string(sweep, "kind", "sweep")
    shared = {"kind", "x", "exchange", "symmetric_ni_bonds"}
    if kind == "ad":
        _check_keys(sweep, shared | {"a_values", "d_values", "linkers"}, "sweep")
        if "a_values" not in sweep or "d_values" not in sweep:
            raise ConfigError("ad sweep needs 'a_values' and 'd_values'")
        if "linkers" not in sweep or not isinstance(sweep["linkers"], list):
            raise ConfigError("ad sweep needs a 'linkers' list")
        x = _integer(sweep, "x", "sweep", default=3)
        n_ring = x + 1
        linkers = [
            _linker_from_config(item, f"sweep.linkers[{j}]", n_ring, n_ring)
            for j, item in enumerate(sweep["linkers"])
        ]
        if not linkers:
            raise ConfigError("ad sweep needs at least one linker")
        params = {
            "kind": "ad",
            "a_values": parse_grid(sweep["a_values"], "sweep.a_values"),
            "d_values": parse_grid(sweep["d_values"], "sweep.d_values"),
            "linkers": linkers,
            "x": x,
            "exchange": _number(sweep, "exchange", "sweep", default=17.0),
        }
    elif kind == "b":
        _check_keys(
            sweep,
            shared | {"b_values", "a", "d", "reference", "tuned_sites"},
            "sweep",
        )
        if "b_values" not in sweep:
            raise ConfigError("b sweep needs 'b_values'")
        x = _integer(sweep, "x", "sweep", default=3)
        n_ring = x + 1
        if "reference" in sweep:
            reference = _linker_from_config(
                sweep["reference"], "sweep.reference", n_ring, n_ring
            )
        else:
            reference = Linker(1, 2, 1.0)
        if "tuned_sites" in sweep:
            pair = sweep["tuned_sites"]
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or any(isinstance(v, bool) or not isinstance(v, int) for v in pair)
            ):
                raise ConfigError("sweep.tuned_sites must be a pair of integers")
            if any(not 1 <= v <= n_ring for v in pair):
                raise ValidationError(f"sweep.tuned_sites out of range 1..{n_ring}")
            tuned = (pair[0], pair[1])
        else:
            tuned = (n_ring, n_ring)
        params = {
            "kind": "b",
            "b_values": parse_grid(sweep["b_values"], "sweep.b_values"),
            "x": x,
            "exchange": _number(sweep, "exchange", "sweep", default=17.0),
            "a": _number(sweep, "a", "sweep", default=0.9),
            "d": _number(sweep, "d", "sweep", default=0.3),
            "reference": reference,
            "tuned_sites": tuned,
        }
    else:
        raise ConfigError(f"sweep.kind must be 'ad' or 'b', got {kind!r}")
    params["symmetric_substitute_bonds"] = _boolean(
        sweep, "symmetric_ni_bonds", "sweep", default=False
    )
    params["scale"] = _number(cfg, "coupling_scale", "top level", default=1.0)
    params["dim_cap"] = dim_cap_from_config(cfg)
    return params
