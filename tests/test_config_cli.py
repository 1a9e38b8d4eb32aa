"""Config parsing, CSV serialization, and the command-line front end."""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ringstar
from ringstar import cli
from ringstar.config import (
    TOP_LEVEL_KEYS,
    dim_cap_from_config,
    initial_state_from_config,
    load_config,
    network_from_config,
    parse_grid,
    protocol_section,
    sweep_section,
    transfer_section,
    z_convention_from_config,
)
from ringstar.coupling import Linker, sweep_anisotropy_ad, sweep_anisotropy_b
from ringstar.errors import (
    AnisotropyDivergenceError,
    ConfigError,
    ConstraintError,
    DimensionCapError,
    GroundDoubletError,
    InfeasibleError,
    RingStarError,
    ValidationError,
)
from ringstar.output import format_cell, render_csv, sibling_path
from ringstar.protocols import (
    fidelity_curve,
    fluctuation_sweep,
    make_transfer_program,
    plan_w_from_site,
)
from ringstar.rings import RingSpec, ring_qubit_encoding
from ringstar.star import basis_state, propagate, uniform_star


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_cli(*argv):
    return cli.main(list(argv))


def program_fields(program):
    network = program.network
    return (program.amplitudes, network.gammas.tolist(), network.deltas.tolist(),
            program.t_transfer, program.peak_target_fidelity)


# -- config ------------------------------------------------------------------


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(arr))
    unknown = write_json(tmp_path / "u.json", {"mode": "effective", "extra": 1})
    with pytest.raises(ConfigError):
        load_config(unknown)
    assert TOP_LEVEL_KEYS == {
        "mode", "effective", "microscopic", "protocol", "grids", "sweep",
        "z_convention", "coupling_scale", "dim_cap",
    }


def test_parse_grid_forms():
    lit = parse_grid([0.0, 0.5, 2.0], "g")
    assert np.array_equal(lit, [0.0, 0.5, 2.0])
    lin = parse_grid({"start": 0.0, "stop": 1.0, "num": 5}, "g")
    assert np.array_equal(lin, np.linspace(0.0, 1.0, 5))
    assert parse_grid({"start": 2.0, "stop": 2.0, "num": 1}, "g").tolist() == [2.0]
    with pytest.raises(ValidationError):
        parse_grid([0.0, 0.0, 1.0], "g")  # not strictly increasing
    with pytest.raises(ValidationError):
        parse_grid({"start": 1.0, "stop": 0.0, "num": 3}, "g")
    with pytest.raises(ValidationError):
        parse_grid({"start": 0.0, "stop": 1.0, "num": 0}, "g")
    with pytest.raises(ValidationError):
        parse_grid([0.0, math.inf], "g")
    with pytest.raises(ConfigError):
        parse_grid({"start": 0.0, "stop": 1.0, "count": 3}, "g")
    with pytest.raises(ConfigError):
        parse_grid("0:1:5", "g")


def test_effective_network_from_config():
    cfg = {
        "mode": "effective",
        "effective": {"gammas": [1.0, 2.0], "deltas": [-1.0, -1.0]},
    }
    net = network_from_config(cfg)
    assert net.n_sites == 2
    assert np.array_equal(net.gammas, [1.0, 2.0])
    with pytest.raises(ValidationError):
        network_from_config(
            {"mode": "effective", "effective": {"gammas": [1.0], "deltas": [0.0, 0.0]}}
        )
    with pytest.raises(ConfigError):
        network_from_config({"mode": "effective", "effective": {"gammas": [1.0]}})
    with pytest.raises(ConfigError):
        network_from_config({"mode": "banana"})
    with pytest.raises(ConfigError):
        network_from_config({"effective": {"gammas": [1.0], "deltas": [0.0]}})


MICRO_RING = {"spins": [0.5], "bonds": [0.0], "crystal_fields": [0.0]}


def micro_config(**extra):
    cfg = {
        "mode": "microscopic",
        "microscopic": {
            "central": MICRO_RING,
            "rings": [MICRO_RING, MICRO_RING],
            "linkers": [
                [{"ring_site": 1, "central_site": 1, "strength": 1.0}],
                [{"ring_site": 1, "central_site": 1, "strength": 1.0}],
            ],
        },
    }
    cfg.update(extra)
    return cfg


def test_microscopic_network_from_config():
    net = network_from_config(micro_config())
    assert net.n_sites == 2
    # two bare spin-1/2 "rings": gamma = 1/4 and Delta = 0 on both arms
    assert np.abs(net.gammas - 0.25).max() < 1e-12
    assert np.abs(net.deltas).max() < 1e-12


def test_microscopic_config_errors():
    cfg = micro_config()
    cfg["microscopic"]["linkers"] = cfg["microscopic"]["linkers"][:1]
    with pytest.raises(ValidationError):
        network_from_config(cfg)
    cfg = micro_config()
    cfg["microscopic"]["linkers"][0][0]["ring_site"] = 7
    with pytest.raises(ValidationError):
        network_from_config(cfg)
    cfg = micro_config()
    cfg["microscopic"]["rings"] = []
    with pytest.raises(ConfigError):
        network_from_config(cfg)


def test_initial_state_forms():
    cfg = {"protocol": {"initial": "center"}}
    net = uniform_star(3, 1.0)
    state = initial_state_from_config(cfg, net)
    assert state[3] == 1.0
    state = initial_state_from_config({"protocol": {"initial": 2}}, net)
    assert state[1] == 1.0
    amps = [[0.5, 0.0], [0.0, 0.5], 0.5, -0.5]
    state = initial_state_from_config({"protocol": {"initial": amps}}, net)
    assert state[1] == 0.5j
    with pytest.raises(ValidationError):
        initial_state_from_config({"protocol": {"initial": 5}}, net)
    with pytest.raises(ValidationError):
        initial_state_from_config({"protocol": {"initial": [1.0, 0.0]}}, net)
    with pytest.raises(ValidationError):
        initial_state_from_config({"protocol": {"initial": [1.0, 1.0, 0.0, 0.0]}}, net)
    with pytest.raises(ConfigError):
        initial_state_from_config({"protocol": {"initial": "corner"}}, net)
    with pytest.raises(ConfigError):
        initial_state_from_config({"protocol": {"initial": True}}, net)
    with pytest.raises(ConfigError):
        initial_state_from_config({"protocol": {}}, net)


def test_transfer_section_alpha_shorthand():
    cfg = {
        "protocol": {
            "transfer": {"n_sites": 5, "block": 2, "alpha": math.pi / 3}
        }
    }
    params = transfer_section(cfg)
    assert abs(params["amplitudes"][0] - math.sin(math.pi / 3)) < 1e-15
    assert abs(params["amplitudes"][1] - math.cos(math.pi / 3)) < 1e-15
    # omitted keys are not passed on: make_transfer_program's defaults apply
    assert sorted(params) == ["amplitudes", "block", "n_sites"]
    given = make_transfer_program(**params)
    written_out = make_transfer_program(**params, gamma_scale=1.0, constraint=0.0)
    assert program_fields(given) == program_fields(written_out)
    with pytest.raises(ValidationError):
        transfer_section(
            {"protocol": {"transfer": {"n_sites": 7, "block": 3, "alpha": 0.3}}}
        )
    with pytest.raises(ConfigError):
        transfer_section(
            {
                "protocol": {
                    "transfer": {
                        "n_sites": 5,
                        "block": 2,
                        "alpha": 0.3,
                        "amplitudes": [1.0, 0.0],
                    }
                }
            }
        )
    with pytest.raises(ConfigError):
        transfer_section({"protocol": {"transfer": {"n_sites": 5, "block": 2}}})


def test_sweep_section_kinds():
    b_cfg = {
        "sweep": {
            "kind": "b",
            "b_values": [0.0, 1.0],
            "x": 1,
        }
    }
    params = sweep_section(b_cfg)
    assert params.pop("kind") == "b"
    # omitted keys are not passed on: sweep_anisotropy_b's defaults apply,
    # the tuned sites defaulting to the substituted site
    assert sorted(params) == ["b_values", "dim_cap", "x"]
    written_out = dict(
        params, exchange=17.0, a=0.9, d=0.3, reference=Linker(1, 2, 1.0),
        tuned_sites=(2, 2), symmetric_substitute_bonds=False, scale=1.0,
    )
    assert sweep_anisotropy_b(**params) == sweep_anisotropy_b(**written_out)
    ad_cfg = {
        "sweep": {
            "kind": "ad",
            "a_values": [0.9],
            "d_values": [0.0, 0.3],
            "linkers": [{"ring_site": 1, "central_site": 2, "strength": 1.0}],
        }
    }
    params = sweep_section(ad_cfg)
    assert params.pop("kind") == "ad"
    # an omitted x is not passed on either: the sweep's default ring is x = 3
    assert sorted(params) == ["a_values", "d_values", "dim_cap", "linkers"]
    written_out = dict(
        params, x=3, exchange=17.0, symmetric_substitute_bonds=False, scale=1.0
    )
    assert sweep_anisotropy_ad(**params) == sweep_anisotropy_ad(**written_out)
    with pytest.raises(ConfigError):
        sweep_section({"sweep": {"kind": "c", "b_values": [0.0]}})
    # sites parse here and are range-checked by the sweep, before any ED
    params = sweep_section(
        {"sweep": {"kind": "b", "b_values": [0.0], "x": 1, "tuned_sites": [9, 9]}}
    )
    assert params.pop("kind") == "b" and params["tuned_sites"] == (9, 9)
    with pytest.raises(ValidationError):
        sweep_anisotropy_b(**params)


def test_scalar_config_helpers():
    assert z_convention_from_config({}) == "halfspin"
    assert z_convention_from_config({"z_convention": "pauli"}) == "pauli"
    with pytest.raises(ConfigError):
        z_convention_from_config({"z_convention": "spin"})
    assert dim_cap_from_config({"dim_cap": 64}) == 64
    with pytest.raises(ValidationError):
        dim_cap_from_config({"dim_cap": 1})
    assert protocol_section({}) == {}
    assert protocol_section({"protocol": {}}) == {}
    given = {"branch": "minus", "winding": 3, "source": "center", "constraint": 1}
    assert protocol_section({"protocol": given}) == dict(given, constraint=1.0)
    with pytest.raises(ConfigError):
        protocol_section({"protocol": {"branch": "left"}})
    with pytest.raises(ConfigError):
        protocol_section({"protocol": {"winding": 2.0}})
    with pytest.raises(ConfigError):
        protocol_section({"protocol": {"source": "corner"}})
    with pytest.raises(ConfigError):
        protocol_section({"protocol": "center"})


# -- CSV serialization -------------------------------------------------------


def test_format_cell():
    assert format_cell(None) == ""
    assert format_cell(True) == "true"
    assert format_cell(False) == "false"
    assert format_cell(7) == "7"
    assert format_cell("ok") == "ok"
    assert format_cell(0.1) == "0.10000000000000001"  # full double precision
    with pytest.raises(TypeError):
        format_cell(object())


def test_render_csv():
    text = render_csv(["a", "b"], [(1, 2.0), (None, "x")])
    assert text == "a,b\n1,2\n,x\n"
    with pytest.raises(ValueError):
        render_csv(["a"], [(1, 2)])


_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 0.0, 1e-300, -5e-324, math.inf, -math.inf, math.nan]
)
_CELLS = (
    st.none() | st.booleans() | st.integers() | st.text()
    | _FLOATS | _FLOATS.map(np.float64)
)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda width: st.lists(
        st.lists(_FLOATS, min_size=width, max_size=width)
        | st.lists(_CELLS, min_size=width, max_size=width).map(tuple),
        max_size=8,
    ).map(lambda rows: (width, rows))
))
@example((3, [[-0.0, 1e-300, math.inf], [math.nan, -math.inf, 0.1], (None, True, 7)]))
@example((2, [(np.float64(-0.0), 2.5), ("x", 1.0), (False, -3)]))
def test_property_render_csv_float_rows_match_format_cell(case):
    width, rows = case
    header = [f"c{j}" for j in range(width)]
    cellwise = [",".join(header)] + [",".join(format_cell(c) for c in row) for row in rows]
    assert render_csv(header, rows) == "\n".join(cellwise) + "\n"


def test_sibling_path():
    assert sibling_path("out/run.csv", "network") == "out/run-network.csv"
    assert sibling_path("plain", "program") == "plain-program.csv"


# -- CLI end to end ----------------------------------------------------------


def effective_uniform(tmp_path, n=3, gamma=1.0, delta=0.0, **extra):
    payload = {
        "mode": "effective",
        "effective": {"gammas": [gamma] * n, "deltas": [delta] * n},
    }
    payload.update(extra)
    return write_json(tmp_path / "cfg.json", payload)


def test_cli_spectrum(tmp_path):
    cfg = effective_uniform(tmp_path)
    out = tmp_path / "spec.csv"
    assert run_cli("spectrum", "--config", cfg, "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,kind,value,c_1,c_2,c_3,c_4"
    assert len(lines) == 5
    kinds = [line.split(",")[1] for line in lines[1:]]
    assert kinds == ["degenerate", "degenerate", "pair", "pair"]
    values = sorted(float(line.split(",")[2]) for line in lines[1:])
    assert np.allclose(values, [-1.25, 0.25, 0.25, 0.75], atol=1e-12)


def test_cli_spectrum_numeric_fallback(tmp_path):
    payload = {
        "mode": "effective",
        "effective": {"gammas": [1.0, 1.0], "deltas": [0.0, -0.5]},
    }
    cfg = write_json(tmp_path / "cfg.json", payload)
    out = tmp_path / "spec.csv"
    assert run_cli("spectrum", "--config", cfg, "--out", str(out)) == 0
    kinds = {line.split(",")[1] for line in out.read_text().splitlines()[1:]}
    assert kinds == {"numeric"}


def test_cli_evolve(tmp_path):
    cfg = effective_uniform(
        tmp_path,
        delta=-1.0,
        protocol={"initial": "center"},
        grids={"time": {"start": 0.0, "stop": 1.0, "num": 3}},
    )
    out = tmp_path / "evo.csv"
    assert run_cli("evolve", "--config", cfg, "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",") == ["t"] + [
        f"{p}_{j}" for j in range(1, 5) for p in ("re", "im")
    ]
    assert len(lines) == 4
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    assert abs(first[7] - 1.0) < 1e-12  # re_4: excitation starts on the center


@pytest.mark.parametrize(
    "deltas, initial", [([-1.0, -1.0, -1.0], 2), ([0.3, -0.5, -1.2], "center")]
)
def test_cli_evolve_rows_equal_propagate(tmp_path, deltas, initial):
    # the first network meets the constraint (analytic route), the second not
    gammas = [1.0, 0.7, 1.3]
    times = np.linspace(0.0, 9.0, 37)
    cfg = write_json(
        tmp_path / "cfg.json",
        {
            "mode": "effective",
            "effective": {"gammas": gammas, "deltas": deltas},
            "protocol": {"initial": initial},
            "grids": {"time": {"start": 0.0, "stop": 9.0, "num": 37}},
        },
    )
    out = tmp_path / "evo.csv"
    assert run_cli("evolve", "--config", cfg, "--out", str(out)) == 0
    lines = out.read_text().splitlines()[1:]
    got = np.array([[float(v) for v in line.split(",")] for line in lines])
    net = network_from_config(load_config(cfg))
    start = basis_state(net, 4 if initial == "center" else initial)
    states = propagate(net, start, times)
    assert np.array_equal(got[:, 0], times)
    assert np.array_equal(got[:, 1::2], states.real)
    assert np.array_equal(got[:, 2::2], states.imag)


def test_cli_wgen_center(tmp_path):
    cfg = effective_uniform(tmp_path, delta=-1.0)
    out = tmp_path / "plan.csv"
    assert run_cli("wgen", "--config", cfg, "--out", str(out)) == 0
    header, row = out.read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["source"] == "center"
    assert cells["coupling_ratio"] == ""  # None: no passive/source ratio
    assert abs(float(cells["t_w"]) - math.pi / math.sqrt(3.0)) < 1e-12
    net_lines = (tmp_path / "plan-network.csv").read_text().splitlines()
    assert net_lines[0] == "site,gamma,delta"
    assert len(net_lines) == 4


def test_cli_wgen_site_with_overrides(tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json",
        {"protocol": {"source": 3, "n_sites": 3, "constraint": 1.0, "winding": 2,
                      "branch": "minus"}},
    )
    out = tmp_path / "plan.csv"
    code = run_cli("wgen", "--config", cfg, "--out", str(out))
    assert code == 0
    header, row = out.read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["source"] == "3" and cells["winding"] == "2"
    assert float(cells["predicted_error"]) < 1e-8
    assert abs(float(cells["constraint"]) - 1.0) < 1e-12


def test_cli_overrides_take_precedence_over_the_config(tmp_path):
    def wgen(name, **protocol):
        site = {"source": 3, "n_sites": 3, "constraint": 1.0}
        cfg = write_json(tmp_path / f"{name}.json", {"protocol": dict(site, **protocol)})
        out = tmp_path / f"{name}.csv"
        assert run_cli("wgen", "--config", cfg, "--out", str(out)) == 0
        return out.read_bytes(), (tmp_path / f"{name}-network.csv").read_bytes()

    assert wgen("k2", winding=2) != wgen("k3", winding=3)
    assert wgen("minus", winding=2, branch="minus") != wgen("plus", winding=2, branch="plus")


def test_cli_parser_is_built_once_and_keeps_no_state(tmp_path):
    # one cached parser serves every call, so nothing may leak from one call
    # into the next
    cfg = write_json(
        tmp_path / "cfg.json",
        {"protocol": {"source": 3, "n_sites": 3, "constraint": 1.0}},
    )
    assert cli.build_parser() is cli.build_parser()
    after, fresh = (tmp_path / f"{name}.csv" for name in ("after", "fresh"))
    assert run_cli("wgen", "--config", cfg, "--out", str(after)) == 0
    cli.build_parser.cache_clear()
    assert run_cli("wgen", "--config", cfg, "--out", str(fresh)) == 0
    assert after.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize(
    "flag", [["--k", "2"], ["--branch", "minus"], ["--z-convention", "pauli"]]
)
def test_cli_removed_override_flags_exit_2_and_write_nothing(tmp_path, capsys, flag):
    # the config is the whole record of a run: no flag may override a key
    cfg = write_json(tmp_path / "cfg.json", EVOLVE)
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli("validate", "--config", cfg, "--out", str(out), *flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_cli_parser_takes_only_config_and_out():
    actions = cli.build_parser()._actions
    options = [option for action in actions for option in action.option_strings]
    assert options == ["-h", "--help", "--config", "--out"]


def test_cli_wgen_infeasible_leaves_no_file(tmp_path):
    cfg = effective_uniform(tmp_path, delta=0.0)  # center plan needs Delta = -1
    out = tmp_path / "plan.csv"
    assert run_cli("wgen", "--config", cfg, "--out", str(out)) == 4
    assert not out.exists()
    assert not (tmp_path / "plan-network.csv").exists()


def test_cli_sweep_fluct(tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json",
        {"grids": {"delta": [-0.1, -0.05, 0.0, 0.05, 0.1]}},
    )
    out = tmp_path / "fluct.csv"
    assert run_cli("sweep-fluct", "--config", cfg, "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "delta,E_r"
    assert len(lines) == 6
    mid = float(lines[3].split(",")[1])
    assert mid < 1e-12


def test_cli_transfer(tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json",
        {
            "protocol": {
                "transfer": {
                    "n_sites": 5,
                    "block": 2,
                    "alpha": math.pi / 4,
                    "gamma_scale": math.sqrt(2.0),
                }
            },
            "grids": {"time": [0.0, math.pi, 2.0 * math.pi]},
        },
    )
    out = tmp_path / "curve.csv"
    assert run_cli("transfer", "--config", cfg, "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,F_return,F_target"
    target_at_pi = float(lines[2].split(",")[2])
    assert abs(target_at_pi - 1.0) < 1e-10
    prog_lines = (tmp_path / "curve-program.csv").read_text().splitlines()
    assert prog_lines[0] == "site,gamma,delta,t_transfer,peak_target_fidelity"
    assert len(prog_lines) == 6


def test_cli_sweep_aniso(tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json",
        {"sweep": {"kind": "b", "b_values": [0.5, 1.0, 1.5], "x": 1}},
    )
    out = tmp_path / "aniso.csv"
    assert run_cli("sweep-aniso", "--config", cfg, "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "a,d,b,gamma,delta,gap,status"
    assert len(lines) == 4
    assert all(line.endswith("ok") for line in lines[1:])


@pytest.mark.parametrize("x", [1, 5])
def test_b_sweep_default_tuned_sites_match_the_cli(tmp_path, x):
    # both default to the substituted site x + 1 of each ring
    b_values = [0.0, 0.5, 2.0]
    cfg = write_json(
        tmp_path / "cfg.json", {"sweep": {"kind": "b", "b_values": b_values, "x": x}}
    )
    out = tmp_path / "aniso.csv"
    assert run_cli("sweep-aniso", "--config", cfg, "--out", str(out)) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    expected = [
        [format_cell(v) for v in (r.a, r.d, r.b, r.gamma, r.delta, r.gap, r.status)]
        for r in sweep_anisotropy_b(b_values, x=x)
    ]
    assert rows == expected


# command -> the config every run gives, and per optional key: (its section
# path, key, config value, the library keyword, the library value)
OPTIONAL_KEYS = {
    "sweep-aniso": ({"sweep": {"kind": "b", "b_values": [0.5, 2.0], "x": 1}}, [
        (("sweep",), "exchange", 15.0, "exchange", 15.0),
        (("sweep",), "a", 0.8, "a", 0.8),
        (("sweep",), "d", -0.2, "d", -0.2),
        (("sweep",), "reference", {"ring_site": 2, "central_site": 1, "strength": 0.7},
         "reference", Linker(2, 1, 0.7)),
        (("sweep",), "tuned_sites", [1, 2], "tuned_sites", (1, 2)),
        (("sweep",), "symmetric_ni_bonds", True, "symmetric_substitute_bonds", True),
        ((), "coupling_scale", 2.0, "scale", 2.0),
    ]),
    "sweep-fluct": ({"grids": {"delta": [-0.05, 0.0, 0.1]}}, [
        (("protocol",), "constraint", 0.5, "constraint", 0.5),
        (("protocol",), "winding", 3, "winding", 3),
        (("protocol",), "branch", "plus", "branch", "plus"),
    ]),
    "wgen": ({"protocol": {"source": 2, "n_sites": 3}}, [
        (("protocol",), "constraint", 1.0, "constraint", 1.0),
        (("protocol",), "gamma_source", 2.0, "gamma_source", 2.0),
        (("protocol",), "winding", 3, "winding", 3),
        (("protocol",), "branch", "minus", "branch", "minus"),
    ]),
    "transfer": ({"protocol": {"transfer": {"n_sites": 5, "block": 2, "amplitudes": [0.6, 0.8]}},
                  "grids": {"time": [0.0, 1.0, 2.5]}}, [
        (("protocol", "transfer"), "gamma_scale", 1.5, "gamma_scale", 1.5),
        (("protocol", "transfer"), "constraint", 0.3, "constraint", 0.3),
    ]),
}


def library_csv(command, keywords):
    """The CSV the library call given exactly `keywords` amounts to."""
    if command == "sweep-aniso":
        rows = sweep_anisotropy_b([0.5, 2.0], x=1, **keywords)
        return render_csv(["a", "d", "b", "gamma", "delta", "gap", "status"], [
            (r.a, r.d, r.b, r.gamma, r.delta, r.gap, r.status) for r in rows])
    if command == "sweep-fluct":
        return render_csv(["delta", "E_r"], fluctuation_sweep([-0.05, 0.0, 0.1], **keywords))
    if command == "wgen":
        plan = plan_w_from_site(3, 2, **keywords)
        header = ["source", "winding", "t_w", "coupling_ratio", "chi", "predicted_error",
                  "constraint", "omega"]
        return render_csv(header, [(
            plan.source, plan.winding, plan.t_w, plan.ratio, plan.chi,
            plan.predicted_error, plan.network.constraint_value, plan.network.omega)])
    program = make_transfer_program(5, 2, [0.6, 0.8], **keywords)
    curve = fidelity_curve(program, [0.0, 1.0, 2.5])
    return render_csv(["t", "F_return", "F_target"], list(zip(
        curve.times.tolist(), curve.return_fidelity.tolist(), curve.target_fidelity.tolist())))


@pytest.mark.parametrize("command", OPTIONAL_KEYS)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_property_an_omitted_key_takes_the_library_default(command, data):
    # one default per parameter: a config that leaves a key out runs exactly
    # the library call that leaves its keyword out
    base, options = OPTIONAL_KEYS[command]
    chosen = data.draw(st.sets(st.sampled_from(range(len(options)))))
    config, keywords = json.loads(json.dumps(base)), {}
    for i in sorted(chosen):
        path, key, value, keyword, library_value = options[i]
        section = config
        for name in path:
            section = section.setdefault(name, {})
        section[key] = value
        keywords[keyword] = library_value
    try:
        expected = library_csv(command, keywords)
    except InfeasibleError:
        expected = None
    with tempfile.TemporaryDirectory() as work:
        cfg = write_json(Path(work) / "cfg.json", config)
        out = Path(work) / "out.csv"
        code = run_cli(command, "--config", cfg, "--out", str(out))
        assert code == (4 if expected is None else 0)
        assert (out.read_text() if out.exists() else None) == expected


def test_cli_sweep_aniso_reaches_the_cr7ni_ring(tmp_path):
    # x = 7 is 4^7 * 3 = 49152 product states, over the default cap
    sweep = {"kind": "b", "b_values": [0.5, 1.0, 2.0], "x": 7}
    cfg = write_json(tmp_path / "cfg.json", {"sweep": sweep, "dim_cap": 49152})
    out = tmp_path / "aniso.csv"
    assert run_cli("sweep-aniso", "--config", cfg, "--out", str(out)) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 3
    assert all(row[6] == "ok" for row in rows)
    assert all(abs(float(row[5]) - 13.602932) < 1e-6 for row in rows)

    capped = write_json(tmp_path / "capped.json", {"sweep": sweep})
    refused = tmp_path / "refused.csv"
    assert run_cli("sweep-aniso", "--config", capped, "--out", str(refused)) == 5
    assert not refused.exists()


def test_cli_commands_and_x5_encodings_load_no_scipy_module(tmp_path):
    # the full-space oracle, the rings (x = 5 sector operators included) and
    # both protocol searches are numpy only: no scipy module is ever loaded
    site_wgen = tmp_path / "site-wgen.json"
    site_wgen.write_text(json.dumps({"protocol": {
        "source": 2, "n_sites": 5, "constraint": 0.5, "gamma_source": 1.0}}))
    code = (
        "import sys\n"
        "def scipy_modules():\n"
        "    return [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "import ringstar.cli\n"
        "assert not scipy_modules(), 'import ringstar.cli'\n"
        "from ringstar.rings import RingSpec, ring_qubit_encoding, ring_qubit_encodings\n"
        "ring_qubit_encoding(RingSpec.cr_ni(3))\n"
        "ring_qubit_encoding(RingSpec.cr_ni(5))\n"
        "pair = ring_qubit_encodings([RingSpec.cr_ni(5), RingSpec.cr_ni(5, 15.0, 1.1, 0.2)])\n"
        "assert all(isinstance(outcome, tuple) for outcome in pair)\n"
        "assert not scipy_modules(), 'x = 3 and x = 5 encodings'\n"
        "from ringstar.cli import main\n"
        "from ringstar.coupling import b_sweep_evaluator, find_delta_transitions\n"
        "assert len(find_delta_transitions(b_sweep_evaluator(), 0.0, 5.0)) == 2\n"
        "args = iter(sys.argv[1:])\n"
        "for command, config, out in zip(args, args, args):\n"
        "    assert main([command, '--config', config, '--out', out]) == 0, command\n"
        "loaded = scipy_modules()\n"
        "assert not loaded, f'{len(loaded)} scipy modules loaded: {loaded[:3]}'\n"
    )
    src = str(Path(ringstar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    runs = [
        ("validate", CONFIGS / "center-w.json", tmp_path / "checks.csv"),
        ("sweep-aniso", CONFIGS / "ring-anisotropy-b.json", tmp_path / "aniso.csv"),
        ("transfer", CONFIGS / "block-transfer.json", tmp_path / "transfer.csv"),
        ("sweep-fluct", CONFIGS / "w-fluctuation.json", tmp_path / "fluct.csv"),
        ("wgen", site_wgen, tmp_path / "site-wgen.csv"),
    ]
    result = subprocess.run(
        [sys.executable, "-c", code, *[str(v) for run in runs for v in run]],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "checks.csv").read_text().count(",true") == 3
    assert (tmp_path / "aniso.csv").read_text().count(",ok") == 201
    assert len((tmp_path / "fluct.csv").read_text().splitlines()) == 82


@pytest.mark.parametrize("user_count", [None, "2"])
def test_cli_runs_one_blas_thread_unless_the_environment_sets_a_count(user_count):
    # the package sets the count before numpy loads; a thread pool would show
    # as more than one task of the process
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    src = str(Path(ringstar.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    if user_count is not None:
        env["OPENBLAS_NUM_THREADS"] = user_count
    code = (
        "import os, ringstar.cli\n"
        "tasks = os.listdir('/proc/self/task') if os.path.isdir('/proc/self/task') else None\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'), tasks and len(tasks))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    count, tasks = result.stdout.split()
    assert count == (user_count or "1")
    if user_count is None:
        if tasks == "None":
            pytest.skip("no /proc/self/task to count threads in")
        assert tasks == "1"


def test_cli_validate(tmp_path):
    cfg = effective_uniform(
        tmp_path,
        delta=-1.0,
        protocol={"initial": 1},
        grids={"time": [0.0, 0.5, 1.5]},
    )
    out = tmp_path / "checks.csv"
    assert run_cli("validate", "--config", cfg, "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "check,max_deviation,threshold,pass"
    assert len(lines) == 4
    assert all(line.split(",")[3] == "true" for line in lines[1:])


def test_cli_config_error_exit(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    out = tmp_path / "x.csv"
    assert run_cli("spectrum", "--config", str(bad), "--out", str(out)) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["bogus", "--config", "{cfg}", "--out", "{out}"],  # unknown command
        ["--config", "{cfg}", "--out", "{out}"],  # missing command
        ["wgen", "--out", "{out}"],  # missing --config
    ],
)
def test_cli_usage_errors_exit_2_and_write_nothing(tmp_path, capsys, argv):
    cfg = effective_uniform(tmp_path, delta=-1.0)
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli(*(a.format(cfg=cfg, out=out) for a in argv))
    assert exc.value.code == 2
    assert "usage: ringstar" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [Path(cfg).name]


@pytest.mark.parametrize("blocked", ["t/w-network.csv", "t"])
def test_cli_unwritable_output_exits_2_and_writes_nothing(tmp_path, capsys, blocked):
    # a directory where the second output goes, or no directory for any
    (tmp_path / "t").mkdir()
    if blocked == "t":
        (tmp_path / "t").rmdir()
    else:
        (tmp_path / blocked).mkdir()
    out = tmp_path / "t" / "w.csv"
    code = run_cli("wgen", "--config", str(CONFIGS / "center-w.json"), "--out", str(out))
    assert code == 2
    assert "error [output]: " in capsys.readouterr().err
    left = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))
    assert left == ([] if blocked == "t" else ["t", "t/w-network.csv"])


def test_cli_validation_error_exit(tmp_path):
    cfg = effective_uniform(
        tmp_path,
        delta=-1.0,
        protocol={"initial": 9},
        grids={"time": [0.0, 1.0]},
    )
    out = tmp_path / "x.csv"
    assert run_cli("evolve", "--config", cfg, "--out", str(out)) == 3
    assert not out.exists()
    cfg = effective_uniform(
        tmp_path,
        delta=-1.0,
        protocol={"initial": 1},
        grids={"time": [1.0, 0.5]},
    )
    assert run_cli("evolve", "--config", cfg, "--out", str(out)) == 3


NAN_REFERENCE = {"ring_site": 1, "central_site": 2, "strength": math.nan}
NON_FINITE = {
    "sweep-aniso": {"sweep": {"kind": "b", "b_values": [0.5, 1.0], "x": 1,
                              "reference": NAN_REFERENCE}},
    "evolve": {"mode": "effective", "effective": {"gammas": [1.0] * 2, "deltas": [-1.0] * 2},
               "protocol": {"initial": [math.nan, 0.0, 0.0]}, "grids": {"time": [0.0, 1.0]}},
    "wgen": {"protocol": {"source": 2, "n_sites": 3, "constraint": math.nan}},
    "sweep-fluct": {"protocol": {"constraint": math.inf}, "grids": {"delta": [0.0, 0.1]}},
}


@pytest.mark.parametrize("command, payload", NON_FINITE.items(), ids=NON_FINITE)
def test_cli_non_finite_numbers_exit_3_and_write_nothing(tmp_path, command, payload):
    cfg = write_json(tmp_path / "cfg.json", payload)  # json writes NaN and Infinity
    assert run_cli(command, "--config", cfg, "--out", str(tmp_path / "x.csv")) == 3
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_cli_validate_rejects_unknown_protocol_keys(tmp_path):
    cfg = effective_uniform(
        tmp_path, delta=-1.0, protocol={"initial": 1, "bogus": 1}, grids={"time": [0.0, 1.0]}
    )
    assert run_cli("validate", "--config", cfg, "--out", str(tmp_path / "x.csv")) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize(
    "section, payload",
    [("sweep", {"bogus": 1}), ("grids", {"time": [0.0], "tiem": [0.0]}),
     ("protocol", {"source": "center", "bogus": 1})],
)
def test_cli_rejects_unknown_keys_in_sections_the_command_does_not_read(
    tmp_path, section, payload
):
    # spectrum reads neither sweep, grids nor protocol; the keys of each
    # section are the union over the commands one file can feed
    config = json.loads((CONFIGS / "center-w.json").read_text(encoding="utf-8"))
    config[section] = payload
    cfg = write_json(tmp_path / "cfg.json", config)
    assert run_cli("spectrum", "--config", cfg, "--out", str(tmp_path / "x.csv")) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
    shipped = str(CONFIGS / "center-w.json")  # protocol.source beside protocol.initial
    assert run_cli("spectrum", "--config", shipped, "--out", str(tmp_path / "x.csv")) == 0


def test_cli_z_convention_override_still_checks_the_config(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", dict(EVOLVE, z_convention="spin"))
    out = str(tmp_path / "x.csv")
    assert run_cli("validate", "--config", cfg, "--out", out) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
    cfg = write_json(tmp_path / "cfg.json", dict(EVOLVE, z_convention="pauli"))
    assert run_cli("validate", "--config", cfg, "--out", out) == 0


EFFECTIVE = {"mode": "effective", "effective": {"gammas": [1.0] * 3, "deltas": [-1.0] * 3}}
EVOLVE = dict(EFFECTIVE, protocol={"initial": 1}, grids={"time": [0.0, 1.0]})
SITE_W = {"source": 3, "n_sites": 3, "constraint": 1.0}
TRANSFER = {"n_sites": 5, "block": 2, "alpha": 0.5}
B_SWEEP = {"kind": "b", "b_values": [1.0], "x": 1}
AD_SWEEP = {"kind": "ad", "a_values": [0.9], "d_values": [0.3], "x": 1}
LINK_9_1 = {"ring_site": 9, "central_site": 1, "strength": 1.0}


def micro_with(**section):
    """micro_config with some keys of its microscopic section replaced."""
    return micro_config(microscopic=dict(micro_config()["microscopic"], **section))


# one row per class of malformed config: command, config, exit code
MALFORMED = {
    "wrong-type": ("spectrum", dict(EFFECTIVE, effective={"gammas": 1.0, "deltas": [0.0]}), 2),
    "bool-as-number": ("spectrum", micro_config(coupling_scale=True), 2),
    "bool-in-number-list": (
        "spectrum", dict(EFFECTIVE, effective={"gammas": [True], "deltas": [0.0]}), 2),
    "missing-key": ("spectrum", dict(EFFECTIVE, effective={"gammas": [1.0]}), 2),
    "missing-section": ("evolve", dict(EFFECTIVE, protocol={"initial": 1}), 2),
    "unknown-in-effective": (
        "spectrum", dict(EFFECTIVE, effective=dict(EFFECTIVE["effective"], hub=1)), 2),
    "unknown-in-microscopic": (
        "spectrum", micro_config(microscopic=dict(micro_config()["microscopic"], hub=1)), 2),
    "unknown-in-protocol": ("wgen", dict(EFFECTIVE, protocol={"source": "center", "k": 1}), 2),
    "unknown-in-protocol.transfer": (
        "transfer", dict(EVOLVE, protocol={"transfer": dict(TRANSFER, blocks=2)}), 2),
    "unknown-in-grids": ("evolve", dict(EVOLVE, grids={"time": [0.0], "space": [0.0]}), 2),
    "unknown-in-sweep": ("sweep-aniso", {"sweep": dict(B_SWEEP, c=1)}, 2),
    "choice-mode": ("spectrum", dict(EFFECTIVE, mode="effectve"), 2),
    "choice-z_convention": ("validate", dict(EVOLVE, z_convention="spin"), 2),
    "choice-protocol.branch": ("wgen", {"protocol": dict(SITE_W, branch="left")}, 2),
    "choice-protocol.method": (
        "evolve", dict(EVOLVE, protocol={"initial": 1, "method": "exact"}), 2),
    "choice-sweep.kind": ("sweep-aniso", {"sweep": dict(B_SWEEP, kind="c")}, 2),
    "non-finite": ("spectrum", micro_config(coupling_scale=math.inf), 3),
    # a grid the command does not use is checked too
    "unused-grid-wrong-type": ("evolve", dict(EVOLVE, grids={"time": [0.0], "delta": "abc"}), 2),
    "unused-grid-non-increasing": (
        "evolve", dict(EVOLVE, grids={"time": [0.0], "delta": [0.1, 0.0]}), 3),
    "unused-grid-missing-key": (
        "sweep-fluct", {"grids": {"time": {"start": 0.0, "stop": 1.0}, "delta": [0.0]}}, 2),
    "unused-grid-repeated-point": (
        "sweep-fluct", {"grids": {"time": [1.0, 1.0], "delta": [0.0]}}, 3),
    # sites, lengths and ring sizes: refused by the library call that uses them
    "unequal-gammas-deltas": (
        "spectrum", dict(EFFECTIVE, effective={"gammas": [1.0, 1.0], "deltas": [-1.0]}), 3),
    "linker-group-count": (
        "spectrum", micro_with(linkers=micro_config()["microscopic"]["linkers"][:1]), 3),
    "microscopic-linker-site": ("spectrum", micro_with(linkers=[[LINK_9_1]] * 2), 3),
    "ring-x-0": ("spectrum", micro_with(central={"x": 0}), 3),
    "bad-explicit-spin": ("spectrum", micro_with(central=dict(MICRO_RING, spins=[0.3])), 3),
    "explicit-ring-lengths": (
        "spectrum", micro_with(central=dict(MICRO_RING, spins=[0.5, 0.5])), 3),
    "initial-site": ("evolve", dict(EVOLVE, protocol={"initial": 9}), 3),
    "initial-amplitude-count": ("evolve", dict(EVOLVE, protocol={"initial": [1.0, 0.0]}), 3),
    "sweep-tuned-sites": ("sweep-aniso", {"sweep": dict(B_SWEEP, tuned_sites=[9, 9])}, 3),
    "sweep-ad-linker-site": ("sweep-aniso", {"sweep": dict(AD_SWEEP, linkers=[LINK_9_1])}, 3),
}


@pytest.mark.parametrize("command, payload, code", MALFORMED.values(), ids=MALFORMED)
def test_cli_malformed_config_exit_codes(tmp_path, command, payload, code):
    cfg = write_json(tmp_path / "cfg.json", payload)
    assert run_cli(command, "--config", cfg, "--out", str(tmp_path / "x.csv")) == code
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


# couplings whose arithmetic overflows, refused by name: Omega and the pair
# levels square gamma, so the star runs wrote nan cells with RuntimeWarnings;
# a ring's H·v overflowed, so sweep-aniso blamed time reversal or Lanczos
HUGE_GAMMA = dict(EFFECTIVE["effective"], gammas=[1.5e154, 1.0, 1.0])
OVERFLOWING = {
    "evolve": ("evolve", dict(EVOLVE, effective=HUGE_GAMMA), "couplings overflow"),
    "spectrum": ("spectrum", dict(EFFECTIVE, effective=HUGE_GAMMA), "couplings overflow"),
    "wgen-site": ("wgen", {"protocol": dict(SITE_W, gamma_source=1e300)}, "couplings overflow"),
    "transfer": ("transfer", {"protocol": {"transfer": dict(TRANSFER, gamma_scale=1e200)},
                              "grids": {"time": [0.0, 1.0]}}, "couplings overflow"),
    "sweep-aniso-x3": ("sweep-aniso", {"sweep": dict(B_SWEEP, x=3, exchange=1e308)},
                       "bond_couplings must be finite with magnitudes <= 1e+100"),
    "sweep-aniso-x5": ("sweep-aniso", {"sweep": dict(B_SWEEP, x=5, exchange=3e307)},
                       "bond_couplings must be finite with magnitudes <= 1e+100"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, payload, cause", OVERFLOWING.values(), ids=OVERFLOWING)
def test_cli_couplings_that_overflow_exit_3_by_name(tmp_path, capsys, command, payload, cause):
    cfg = write_json(tmp_path / "cfg.json", payload)
    assert run_cli(command, "--config", cfg, "--out", str(tmp_path / "x.csv")) == 3
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
    assert capsys.readouterr().err.startswith(f"error [validation]: {cause}")


X1 = {"x": 1}
# one error per family and per subclass that a command can raise: command,
# config, the class raised, and the exit code and label `cli.main` reports
ERROR_FAMILIES = {
    "unknown-key": ("spectrum", dict(EFFECTIVE, extra=1), ConfigError, 2, "config"),
    "non-increasing-grid": (
        "evolve", dict(EVOLVE, grids={"time": [1.0, 0.5]}), ValidationError, 3, "validation"),
    "analytic-off-constraint": (
        "evolve",
        dict(EVOLVE, effective={"gammas": [0.7, 1.3, 2.1], "deltas": [0.2, -0.4, 0.9]},
             protocol={"initial": 1, "method": "analytic"}),
        ConstraintError, 3, "validation"),
    "no-ground-doublet": (
        "spectrum", micro_config(microscopic=dict(micro_config()["microscopic"],
                                                  central={"x": 2})),
        GroundDoubletError, 3, "validation"),
    "unequal-center-couplings": (
        "wgen", dict(EFFECTIVE, effective={"gammas": [1.0, 2.0, 1.0], "deltas": [-1.0] * 3}),
        InfeasibleError, 4, "infeasible"),
    "divergent-anisotropy": (
        "spectrum",
        micro_config(microscopic={"central": X1, "rings": [X1, X1], "linkers": [[
            {"ring_site": 1, "central_site": 2, "strength": 1.0},
            {"ring_site": 1, "central_site": 2, "strength": -1.0}]] * 2}),
        AnisotropyDivergenceError, 4, "infeasible"),
    "dimension-cap": (
        "spectrum", micro_config(microscopic=dict(micro_config()["microscopic"],
                                                  central={"x": 3}), dim_cap=100),
        DimensionCapError, 5, "dimension-cap"),
}


@pytest.mark.parametrize("command, payload, error, code, label",
                         ERROR_FAMILIES.values(), ids=ERROR_FAMILIES)
def test_cli_reports_each_error_family_by_its_code_and_label(
    tmp_path, capsys, command, payload, error, code, label
):
    cfg = write_json(tmp_path / "cfg.json", payload)
    out = str(tmp_path / "x.csv")
    with pytest.raises(error) as raised:
        cli.COMMANDS[command](load_config(cfg), argparse.Namespace(out=out))
    assert (raised.value.exit_code, raised.value.label) == (code, label)
    assert run_cli(command, "--config", cfg, "--out", out) == code
    assert capsys.readouterr().err.startswith(f"error [{label}]: ")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_cli_a_bare_package_error_exits_as_a_validation_failure(tmp_path, monkeypatch, capsys):
    def unclassified(cfg, args):
        raise RingStarError("no narrower family")

    monkeypatch.setitem(cli.COMMANDS, "spectrum", unclassified)
    cfg = effective_uniform(tmp_path)
    assert run_cli("spectrum", "--config", cfg, "--out", str(tmp_path / "x.csv")) == 3
    assert capsys.readouterr().err == "error [validation]: no narrower family\n"


def test_cli_dimension_cap_exit(tmp_path):
    payload = micro_config(dim_cap=4)
    payload["microscopic"]["central"] = {"x": 1}  # 12-dimensional, over the cap
    cfg = write_json(tmp_path / "cfg.json", payload)
    out = tmp_path / "x.csv"
    assert run_cli("spectrum", "--config", cfg, "--out", str(out)) == 5
    assert not out.exists()


@pytest.mark.parametrize("x", [31, 32, 40])
def test_rings_past_int64_dimensions_exceed_the_cap(tmp_path, capsys, x):
    # 4**x * 3 > 2**63: a wrapped product once read as negative or zero
    assert RingSpec.cr_ni(x).dim == 4**x * 3
    with pytest.raises(DimensionCapError):
        ring_qubit_encoding(RingSpec.cr_ni(x))
    with pytest.raises(DimensionCapError):
        sweep_anisotropy_b([0.0, 1.0], x=x)
    out = str(tmp_path / "x.csv")
    runs = [("spectrum", micro_with(central={"x": x})),
            ("sweep-aniso", {"sweep": {"kind": "b", "b_values": [0.0, 1.0], "x": x}})]
    for command, payload in runs:
        cfg = write_json(tmp_path / "cfg.json", payload)
        assert run_cli(command, "--config", cfg, "--out", out) == 5
        assert capsys.readouterr().err.startswith("error [dimension-cap]: ring dimension ")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_cli_outputs_are_byte_identical(tmp_path):
    cfg = effective_uniform(tmp_path, delta=-1.0)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_cli("wgen", "--config", cfg, "--out", str(out1)) == 0
    assert run_cli("wgen", "--config", cfg, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_shipped_configs_parse():
    for name in (
        "center-w.json",
        "w-fluctuation.json",
        "block-transfer.json",
        "ring-anisotropy-b.json",
    ):
        load_config(f"configs/{name}")


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED_RUNS = [
    ("wgen", "center-w.json"),
    ("sweep-fluct", "w-fluctuation.json"),
    ("transfer", "block-transfer.json"),
    ("sweep-aniso", "ring-anisotropy-b.json"),
    ("evolve", "center-w.json"),
    ("evolve", "center-w-numerical"),
]


@pytest.mark.parametrize("command, config", SHIPPED_RUNS)
def test_shipped_configs_are_deterministic(tmp_path, command, config):
    if config == "center-w-numerical":
        # the same star forced onto the numerical route
        payload = json.loads((CONFIGS / "center-w.json").read_text(encoding="utf-8"))
        payload["protocol"]["method"] = "numerical"
        path = write_json(tmp_path / "numerical.json", payload)
    else:
        path = str(CONFIGS / config)
    outputs = []
    for run in ("a", "b"):
        run_dir = tmp_path / run
        run_dir.mkdir()
        out = str(run_dir / "out.csv")
        assert run_cli(command, "--config", path, "--out", out) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(run_dir.iterdir())})
    assert outputs[0] == outputs[1]
    assert "out.csv" in outputs[0]
    siblings = {"wgen": "out-network.csv", "transfer": "out-program.csv"}
    if command in siblings:
        assert siblings[command] in outputs[0]
