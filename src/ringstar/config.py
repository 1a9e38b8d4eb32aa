"""JSON run-configuration parsing and validation.

One config file drives every batch command, and this module is its only
reader: `load_config` rejects unknown keys in every section, whether or not
the command reads it, and each section is read by one function, which
type-checks every key it allows, whether or not the command uses it.
Structural problems (unknown keys, wrong types, a bool where a number
belongs, missing keys or sections, a string outside its choices) raise
ConfigError; values that parse but fall outside their documented ranges
(non-finite numbers, non-increasing grids, site indices out of bounds) raise
ValidationError.  The split matches the process exit codes 2 and 3.
"""
from __future__ import annotations

import json
import sys
from typing import Any

import numpy as np

from .coupling import Linker, star_from_rings
from .errors import ConfigError, ValidationError
from .rings import DEFAULT_DIM_CAP, RingSpec
from .star import StarNetwork, as_subspace_state, basis_state

_REQUIRED = object()
_KINDS = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
          list: "a list", dict: "a JSON object"}
_FLOAT_MAX = sys.float_info.max


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
    _check_keys(raw, TOP_LEVEL_KEYS, "")
    for key, keys in SECTION_KEYS.items():  # every section, read or not
        if key in raw:
            _section(raw, key, keys)
    return raw


def _check_keys(obj: dict, allowed, where: str) -> dict:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where or 'top level'}")
    return obj


def _path(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _typed(value: Any, kind, where: str) -> Any:
    """`value` checked as `kind`: a JSON type of _KINDS, where a bool is no
    number and a number must be finite, or a reader called kind(value, where)."""
    if kind not in _KINDS:
        return kind(value, where)
    if not isinstance(value, (int, float) if kind is float else kind) or (
        isinstance(value, bool) and kind is not bool
    ):
        raise ConfigError(f"{where} must be {_KINDS[kind]}")
    if kind is not float:
        return value
    if not -_FLOAT_MAX <= value <= _FLOAT_MAX:  # NaN fails both comparisons
        raise ValidationError(f"{where} must be a finite number, got {value}")
    return float(value)


def _get(obj: dict, key: str, where: str, kind, default: Any = _REQUIRED) -> Any:
    """obj[key] checked by `_typed`, or `default` when the key is absent."""
    if key in obj:
        return _typed(obj[key], kind, _path(where, key))
    if default is _REQUIRED:
        raise ConfigError(f"{_path(where, key)} is required")
    return default


def _choice(obj: dict, key: str, where: str, choices: tuple, default: Any = _REQUIRED) -> str:
    value = _get(obj, key, where, str, default)
    if key in obj and value not in choices:
        expected = " or ".join(map(repr, choices))
        raise ConfigError(f"{_path(where, key)} must be {expected}, got {value!r}")
    return value


def _given(obj: dict, where: str, kinds: dict, names: dict | None = None) -> dict:
    """Only the keys of `kinds` that `obj` gives, so the callee's default is the
    only one: read in that order, renamed by `names`.  A tuple kind is choices."""
    return {
        names.get(key, key) if names else key: _choice(obj, key, where, kind)
        if isinstance(kind, tuple)
        else _get(obj, key, where, kind)
        for key, kind in kinds.items()
        if key in obj
    }


def _section(cfg: dict, key: str, keys) -> dict:
    """cfg[key]: present, a JSON object, and with no key outside `keys`."""
    return _check_keys(_get(cfg, key, "", dict), keys, key)


def _nonempty_list(value: Any, where: str) -> list:
    if not _typed(value, list, where):
        raise ConfigError(f"{where} must not be empty")
    return value


def _number_list(value: Any, where: str) -> list[float]:
    return [
        _typed(v, float, f"{where}[{j}]") for j, v in enumerate(_nonempty_list(value, where))
    ]


def parse_grid(value: Any, where: str) -> np.ndarray:
    """A grid is a strictly increasing literal list of numbers or {start, stop, num}."""
    if isinstance(value, dict):
        _check_keys(value, {"start", "stop", "num"}, where)
        start = _get(value, "start", where, float)
        stop = _get(value, "stop", where, float)
        num = _get(value, "num", where, int)
        if num < 1:
            raise ValidationError(f"{where}.num must be >= 1")
        if num > 1 and not stop > start:
            raise ValidationError(f"{where} needs stop > start")
        grid = np.linspace(start, stop, num)
    else:
        grid = np.asarray(_number_list(value, where), dtype=np.float64)
    if not np.all(np.isfinite(grid)):
        raise ValidationError(f"{where} contains non-finite values")
    if grid.size > 1 and not np.all(np.diff(grid) > 0.0):
        raise ValidationError(f"{where} must be strictly increasing")
    return grid


def grid_from_config(cfg: dict, name: str) -> np.ndarray:
    """Grid `name`, once every grid the section gives parses (in the order of
    _GRIDS, so the first fault reported does not depend on string hashing)."""
    grids = _section(cfg, "grids", _GRIDS)
    parsed = _given(grids, "grids", dict.fromkeys(_GRIDS, parse_grid))
    if name not in parsed:
        raise ConfigError(f"grids.{name} is required")
    return parsed[name]


def dim_cap_from_config(cfg: dict) -> int:
    cap = _get(cfg, "dim_cap", "", int, DEFAULT_DIM_CAP)
    if cap < 2:
        raise ValidationError("dim_cap must be at least 2")
    return cap


def z_convention_from_config(cfg: dict) -> str:
    return _choice(cfg, "z_convention", "", ("halfspin", "pauli"), "halfspin")


# the top-level coupling_scale key, passed on as the library's `scale`
_SCALE = ({"coupling_scale": float}, {"coupling_scale": "scale"})
# the substituted-ring shorthand's optional keys and RingSpec.cr_ni's names for them
_SHORTHAND_KEYS = {"J": float, "a": float, "d": float, "symmetric_ni_bonds": bool}
_CR_NI_NAMES = {"J": "exchange", "a": "ratio", "d": "crystal_field",
                "symmetric_ni_bonds": "symmetric_substitute_bonds"}


def ring_spec_from_config(obj: Any, where: str) -> RingSpec:
    """Either the substituted-ring shorthand {x, J, a, d, symmetric_ni_bonds}
    or an explicit {spins, bonds, crystal_fields} triple."""
    if "x" in _typed(obj, dict, where):
        _check_keys(obj, {"x", *_SHORTHAND_KEYS}, where)
        x = _get(obj, "x", where, int)
        if x < 1:
            raise ValidationError(f"{where}.x must be >= 1")
        return RingSpec.cr_ni(x, **_given(obj, where, _SHORTHAND_KEYS, _CR_NI_NAMES))
    _check_keys(obj, {"spins", "bonds", "crystal_fields"}, where)
    spins, bonds, fields = (
        tuple(_get(obj, key, where, _number_list))
        for key in ("spins", "bonds", "crystal_fields")
    )
    try:
        return RingSpec(sites=spins, bond_couplings=bonds, crystal_fields=fields)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _linker_from_config(obj: Any, where: str, n_ring: int, n_central: int) -> Linker:
    _check_keys(_typed(obj, dict, where), {"ring_site", "central_site", "strength"}, where)
    link = Linker(
        ring_site=_get(obj, "ring_site", where, int),
        central_site=_get(obj, "central_site", where, int),
        strength=_get(obj, "strength", where, float),
    )
    if not 1 <= link.ring_site <= n_ring:
        raise ValidationError(f"{where}.ring_site out of range 1..{n_ring}")
    if not 1 <= link.central_site <= n_central:
        raise ValidationError(f"{where}.central_site out of range 1..{n_central}")
    return link


def network_from_config(cfg: dict) -> StarNetwork:
    if _choice(cfg, "mode", "", ("effective", "microscopic")) == "effective":
        eff = _section(cfg, "effective", SECTION_KEYS["effective"])
        gammas = _get(eff, "gammas", "effective", _number_list)
        deltas = _get(eff, "deltas", "effective", _number_list)
        if len(gammas) != len(deltas):
            raise ValidationError("gammas and deltas must have equal length")
        return StarNetwork(gammas=np.array(gammas), deltas=np.array(deltas))
    micro = _section(cfg, "microscopic", SECTION_KEYS["microscopic"])
    central = _get(micro, "central", "microscopic", ring_spec_from_config)
    rings = [
        ring_spec_from_config(spec, f"microscopic.rings[{i}]")
        for i, spec in enumerate(_get(micro, "rings", "microscopic", _nonempty_list))
    ]
    groups = _get(micro, "linkers", "microscopic", list)
    if len(groups) != len(rings):
        raise ValidationError("need one linker list per ring")
    linkers = [
        [
            _linker_from_config(
                item, f"microscopic.linkers[{i}][{j}]", spec.n_sites, central.n_sites
            )
            for j, item in enumerate(_nonempty_list(group, f"microscopic.linkers[{i}]"))
        ]
        for i, (group, spec) in enumerate(zip(groups, rings))
    ]
    return star_from_rings(
        central, rings, linkers, **_given(cfg, "", *_SCALE), dim_cap=dim_cap_from_config(cfg)
    )


def _site_or_center(value: Any, where: str) -> int | str:
    if isinstance(value, str) and value != "center":
        raise ConfigError(f"{where} must be 'center' or a site index, got {value!r}")
    return value if value == "center" else _typed(value, int, where)


def _initial(value: Any, where: str) -> int | str | list[complex]:
    """A 1-based site index, "center", or an amplitude list (real numbers or
    [re, im] pairs)."""
    if not isinstance(value, list):
        return _site_or_center(value, where)
    amps = []
    for j, item in enumerate(value):
        pair = item if isinstance(item, list) else [item, 0.0]
        if len(pair) != 2:
            raise ConfigError(f"{where}[{j}] must be a number or [re, im]")
        amps.append(complex(*(_typed(v, float, f"{where}[{j}]") for v in pair)))
    return amps


_TRANSFER_OPTIONAL = {
    "amplitudes": _number_list, "alpha": float, "gamma_scale": float, "constraint": float
}


def _transfer(value: Any, where: str) -> dict:
    _check_keys(_typed(value, dict, where), {"n_sites", "block", *_TRANSFER_OPTIONAL}, where)
    if ("amplitudes" in value) == ("alpha" in value):
        raise ConfigError(f"{where} needs exactly one of 'amplitudes' and 'alpha'")
    return {
        "n_sites": _get(value, "n_sites", where, int),
        "block": _get(value, "block", where, int),
        **_given(value, where, _TRANSFER_OPTIONAL),
    }


# protocol key -> a kind for _typed, or a tuple of choices
PROTOCOL_KEYS = {
    "initial": _initial,
    "source": _site_or_center,
    "winding": int,
    "branch": ("plus", "minus"),
    "constraint": float,
    "gamma_source": float,
    "n_sites": int,
    "method": ("auto", "analytic", "numerical"),
    "transfer": _transfer,
}


def protocol_section(cfg: dict) -> dict:
    """Every key the protocol section gives, type-checked; {} when the section
    is absent.  "initial" and "source" come back as "center" or a site index
    ("initial" also as a list of complex amplitudes), "transfer" as a dict of
    n_sites, block and only those of its optional keys the config gives."""
    if "protocol" not in cfg:
        return {}
    return _given(_section(cfg, "protocol", PROTOCOL_KEYS), "protocol", PROTOCOL_KEYS)


def initial_state_from_config(cfg: dict, network: StarNetwork) -> np.ndarray:
    """The state protocol.initial names on `network`."""
    value = protocol_section(cfg).get("initial")
    if value is None:
        raise ConfigError("protocol.initial is required for this command")
    if value == "center":
        return basis_state(network, network.n_sites + 1)
    if isinstance(value, int):
        if not 1 <= value <= network.n_sites + 1:
            raise ValidationError(
                f"protocol.initial site {value} out of range 1..{network.n_sites + 1}"
            )
        return basis_state(network, value)
    if len(value) != network.dim:
        raise ValidationError(
            f"protocol.initial needs {network.dim} amplitudes, got {len(value)}"
        )
    return as_subspace_state(np.array(value), network.dim)


def transfer_section(cfg: dict) -> dict:
    """make_transfer_program's keyword arguments.  An 'alpha' angle is
    shorthand for the two-amplitude pattern (sin alpha, cos alpha)."""
    protocol = protocol_section(cfg)
    if "transfer" not in protocol:
        raise ConfigError("protocol.transfer is required for this command")
    params = dict(protocol["transfer"])
    alpha = params.pop("alpha", None)
    if alpha is not None:
        if params["block"] != 2:
            raise ValidationError("alpha shorthand only defines a block of 2")
        params["amplitudes"] = [float(np.sin(alpha)), float(np.cos(alpha))]
    return params


_SWEEP_SHARED = {"kind", "x", "exchange", "symmetric_ni_bonds"}
_SWEEP_KEYS = {
    "ad": {"a_values", "d_values", "linkers"},
    "b": {"b_values", "a", "d", "reference", "tuned_sites"},
}

_GRIDS = ("time", "delta")
# the keys each section may hold under any command: one file can feed several
# commands (configs/center-w.json gives wgen protocol.source and evolve
# protocol.initial), so `load_config` checks every section against the union
SECTION_KEYS = {
    "effective": {"gammas", "deltas"},
    "microscopic": {"central", "rings", "linkers"},
    "protocol": set(PROTOCOL_KEYS),
    "grids": set(_GRIDS),
    "sweep": _SWEEP_SHARED.union(*_SWEEP_KEYS.values()),
}
TOP_LEVEL_KEYS = {"mode", "z_convention", "coupling_scale", "dim_cap", *SECTION_KEYS}


def _site_pair(pair: Any, where: str, n_ring: int) -> tuple[int, int]:
    if len(_typed(pair, list, where)) != 2:
        raise ConfigError(f"{where} must be a pair of integers")
    sites = tuple(_typed(v, int, where) for v in pair)
    if any(not 1 <= v <= n_ring for v in sites):
        raise ValidationError(f"{where} out of range 1..{n_ring}")
    return sites


def sweep_section(cfg: dict) -> dict:
    """Validated anisotropy-sweep parameters, discriminated by 'kind': the
    keyword arguments of `sweep_anisotropy_<kind>` plus 'kind' itself."""
    kind = _choice(_get(cfg, "sweep", "", dict), "kind", "sweep", tuple(_SWEEP_KEYS))
    sweep = _section(cfg, "sweep", _SWEEP_SHARED | _SWEEP_KEYS[kind])
    # x keeps a default: linker and tuned sites are range-checked against x + 1 before ED
    x = _get(sweep, "x", "sweep", int, 3)
    n_ring = x + 1
    params = {"kind": kind, "x": x, **_given(sweep, "sweep", {"exchange": float})}
    if kind == "ad":
        params["a_values"] = _get(sweep, "a_values", "sweep", parse_grid)
        params["d_values"] = _get(sweep, "d_values", "sweep", parse_grid)
        params["linkers"] = [
            _linker_from_config(item, f"sweep.linkers[{j}]", n_ring, n_ring)
            for j, item in enumerate(_get(sweep, "linkers", "sweep", _nonempty_list))
        ]
    else:
        params["b_values"] = _get(sweep, "b_values", "sweep", parse_grid)
        params.update(_given(sweep, "sweep", {
            "a": float, "d": float,
            "reference": lambda obj, where: _linker_from_config(obj, where, n_ring, n_ring),
            "tuned_sites": lambda pair, where: _site_pair(pair, where, n_ring),
        }))
    params.update(_given(sweep, "sweep", {"symmetric_ni_bonds": bool}, _CR_NI_NAMES))
    params.update(_given(cfg, "", *_SCALE))
    params["dim_cap"] = dim_cap_from_config(cfg)
    return params
