"""Config parsing, CSV serialization, and the command-line front end."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ringstar
from ringstar import cli
from ringstar.config import (
    branch_from,
    dim_cap_from_config,
    initial_state_from_config,
    load_config,
    network_from_config,
    parse_grid,
    sweep_section,
    transfer_section,
    winding_from,
    z_convention_from_config,
)
from ringstar.errors import ConfigError, ValidationError
from ringstar.output import format_cell, render_csv, sibling_path
from ringstar.star import basis_state, propagate, uniform_star


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_cli(*argv):
    return cli.main(list(argv))


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
    # descending grids are fine where ordering is not required
    down = parse_grid([1.0, 0.0], "g", increasing=False)
    assert np.array_equal(down, [1.0, 0.0])


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
    assert params["gamma_scale"] == 1.0 and params["constraint"] == 0.0
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
    assert params["kind"] == "b"
    assert params["reference"].central_site == 2
    assert params["tuned_sites"] == (2, 2)  # defaults to the substituted site
    ad_cfg = {
        "sweep": {
            "kind": "ad",
            "a_values": [0.9],
            "d_values": [0.0, 0.3],
            "linkers": [{"ring_site": 1, "central_site": 2, "strength": 1.0}],
        }
    }
    params = sweep_section(ad_cfg)
    assert params["kind"] == "ad" and params["x"] == 3
    with pytest.raises(ConfigError):
        sweep_section({"sweep": {"kind": "c", "b_values": [0.0]}})
    with pytest.raises(ValidationError):
        sweep_section(
            {"sweep": {"kind": "b", "b_values": [0.0], "x": 1, "tuned_sites": [9, 9]}}
        )


def test_scalar_config_helpers():
    assert z_convention_from_config({}) == "halfspin"
    assert z_convention_from_config({"z_convention": "pauli"}) == "pauli"
    with pytest.raises(ConfigError):
        z_convention_from_config({"z_convention": "spin"})
    assert dim_cap_from_config({"dim_cap": 64}) == 64
    with pytest.raises(ValidationError):
        dim_cap_from_config({"dim_cap": 1})
    assert branch_from({}, None) == "plus"
    assert branch_from({}, None, default="minus") == "minus"
    assert branch_from({"branch": "minus"}, None) == "minus"
    assert branch_from({"branch": "minus"}, "plus") == "plus"  # override wins
    with pytest.raises(ConfigError):
        branch_from({"branch": "left"}, None)
    assert winding_from({}) is None
    assert winding_from({"winding": 3}) == 3
    assert winding_from({"winding": 3}, override=1) == 1


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
        {"protocol": {"source": 3, "n_sites": 3, "constraint": 1.0}},
    )
    out = tmp_path / "plan.csv"
    code = run_cli(
        "wgen", "--config", cfg, "--out", str(out), "--k", "2", "--branch", "minus"
    )
    assert code == 0
    header, row = out.read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["source"] == "3" and cells["winding"] == "2"
    assert float(cells["predicted_error"]) < 1e-8
    assert abs(float(cells["constraint"]) - 1.0) < 1e-12


def test_cli_parser_is_built_once_and_keeps_no_state(tmp_path):
    # one cached parser serves every call, so an override must not leak
    # from one call into the next
    cfg = write_json(
        tmp_path / "cfg.json",
        {"protocol": {"source": 3, "n_sites": 3, "constraint": 1.0}},
    )
    assert cli.build_parser() is cli.build_parser()
    with_k, after, fresh = (tmp_path / f"{name}.csv" for name in ("k", "after", "fresh"))
    assert run_cli("wgen", "--config", cfg, "--out", str(with_k), "--k", "3") == 0
    assert run_cli("wgen", "--config", cfg, "--out", str(after)) == 0
    cli.build_parser.cache_clear()
    assert run_cli("wgen", "--config", cfg, "--out", str(fresh)) == 0
    assert after.read_bytes() == fresh.read_bytes()
    assert with_k.read_bytes() != after.read_bytes()  # the override took effect


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


def test_cli_import_leaves_scipy_optimize_and_sparse_unloaded(tmp_path):
    # the full-space oracle is numpy only: a validate job loads no scipy at all
    cfg = str(CONFIGS / "center-w.json")
    code = (
        "import sys\n"
        "heavy = ('scipy.optimize', 'scipy.sparse')\n"
        "import ringstar.cli\n"
        "assert not [m for m in heavy if m in sys.modules], 'import ringstar.cli'\n"
        "from ringstar.rings import RingSpec, ring_qubit_encoding\n"
        "ring_qubit_encoding(RingSpec.cr_ni(3))\n"
        "assert not [m for m in heavy if m in sys.modules], 'x = 3 encoding'\n"
        "from ringstar.cli import main\n"
        "assert main(['validate', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, f'validate loaded {loaded}'\n"
    )
    src = str(Path(ringstar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "checks.csv"
    result = subprocess.run(
        [sys.executable, "-c", code, cfg, str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert out.read_text().count(",true") == 3


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


def test_cli_dimension_cap_exit(tmp_path):
    payload = micro_config(dim_cap=4)
    payload["microscopic"]["central"] = {"x": 1}  # 12-dimensional, over the cap
    cfg = write_json(tmp_path / "cfg.json", payload)
    out = tmp_path / "x.csv"
    assert run_cli("spectrum", "--config", cfg, "--out", str(out)) == 5
    assert not out.exists()


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
