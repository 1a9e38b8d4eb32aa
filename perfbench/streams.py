"""Seeded job streams for the three benchmark workloads.

A stream is a list of jobs; each job is a plain dict that holds the CLI
command, the JSON config the program will read, the exit code the program
must return, and whatever the checker needs to know about the intent of the
job.  Every job is generated from the seed alone, so the same seed gives the
same configs byte for byte.  The seed changes parameter values and job order,
never the job mix or the problem sizes, so the amount of work in one pass of
a stream is the same for every seed.

Job dict keys:
  id       stable job identifier ("<workload>-<index>")
  kind     "cli" (run through ringstar.cli.main) or "transitions" (library
           call: b_sweep_evaluator + find_delta_transitions, which the CLI
           does not expose)
  command  CLI sub-command (cli jobs)
  config   the JSON config (cli jobs) or the call parameters (transitions)
  expect   expected exit code (0 for jobs that must succeed)
"""
from __future__ import annotations

import json
import math
import random

WORKLOADS = ("microscopic", "star-protocols", "oracle")


def config_bytes(job: dict) -> bytes:
    """Canonical serialization of a job's config (what the CLI reads)."""
    return (json.dumps(job["config"], sort_keys=True, indent=1) + "\n").encode()


def _r(x: float) -> float:
    return round(float(x), 6)


def _grid(start: float, stop: float, num: int) -> dict:
    return {"start": _r(start), "stop": _r(stop), "num": int(num)}


def _cli(command: str, config: dict, expect: int = 0) -> dict:
    return {
        "kind": "cli",
        "command": command,
        "config": config,
        "expect": expect,
    }


# --------------------------------------------------------------------------
# microscopic: ring ED beside extraction-heavy sweeps


def _ring(rng: random.Random, x: int) -> dict:
    return {"x": x, "J": _r(rng.uniform(14.0, 20.0)), "a": _r(rng.uniform(0.7, 1.1)),
            "d": _r(rng.uniform(0.1, 0.45))}


def _link(rng: random.Random, n_ring: int, n_central: int) -> dict:
    return {"ring_site": rng.randint(1, n_ring),
            "central_site": rng.randint(1, n_central),
            "strength": _r(rng.uniform(0.5, 2.0))}


def _b_sweep_params(rng: random.Random, x: int) -> dict:
    n = x + 1
    ref = {"ring_site": 1, "central_site": 2, "strength": _r(rng.uniform(0.5, 1.5))}
    return {
        "x": x,
        "exchange": _r(rng.uniform(14.0, 20.0)),
        "a": _r(rng.uniform(0.7, 1.1)),
        "d": _r(rng.uniform(0.1, 0.45)),
        "reference": ref,
        "tuned_sites": [n, rng.randint(2, n)],
    }


def _micro_network_config(rng: random.Random, n_rings: int) -> dict:
    # ring sizes are fixed by position so every seed does the same ED work
    central = _ring(rng, 3)
    rings = [_ring(rng, 1 + 2 * (i % 2)) for i in range(n_rings)]
    linkers = [
        [_link(rng, spec["x"] + 1, central["x"] + 1) for _ in range(1 + i % 2)]
        for i, spec in enumerate(rings)
    ]
    return {
        "mode": "microscopic",
        "microscopic": {"central": central, "rings": rings, "linkers": linkers},
        "coupling_scale": _r(rng.uniform(0.5, 2.0)),
    }


def microscopic_stream(rng: random.Random) -> list[dict]:
    jobs = []
    for _ in range(4):
        a0 = rng.uniform(0.7, 0.9)
        d0 = rng.uniform(0.1, 0.25)
        jobs.append(_cli("sweep-aniso", {"sweep": {
            "kind": "ad", "x": 3, "exchange": _r(rng.uniform(14.0, 20.0)),
            "a_values": _grid(a0, a0 + 0.2, 4),
            "d_values": _grid(d0, d0 + 0.2, 4),
            "linkers": [_link(rng, 4, 4) for _ in range(2)],
        }}))
    for x in (1, 1, 1, 3, 3, 3):
        params = _b_sweep_params(rng, x)
        b_stop = rng.uniform(3.0, 6.0)
        sweep = dict(params, kind="b", b_values=_grid(0.0, b_stop, 201))
        jobs.append(_cli("sweep-aniso", {"sweep": sweep}))
        jobs.append({"kind": "transitions", "command": "transitions",
                     "config": dict(params, b_start=0.0, b_stop=_r(b_stop),
                                    level=_r(rng.uniform(-0.5, 0.5)), points=501),
                     "expect": 0})
    for j in range(16):
        cfg = _micro_network_config(rng, 2 + j % 5)
        if j % 2 == 0:
            jobs.append(_cli("spectrum", cfg))
        else:
            cfg["protocol"] = {"initial": rng.randint(1, len(cfg["microscopic"]["rings"]) + 1)}
            cfg["grids"] = {"time": _grid(0.0, rng.uniform(5.0, 20.0), 50 + 10 * j)}
            jobs.append(_cli("evolve", cfg))
    # refused: unknown key (2), linker site out of range (3), dimension cap (5)
    bad = _micro_network_config(rng, 2)
    bad["microscopic"]["hub"] = 1
    jobs.append(_cli("spectrum", bad, expect=2))
    bad = _micro_network_config(rng, 2)
    bad["microscopic"]["linkers"][0][0]["ring_site"] = 9
    jobs.append(_cli("spectrum", bad, expect=3))
    bad = _micro_network_config(rng, 2)
    bad["dim_cap"] = 100  # below the x = 3 central ring's dimension, 192
    jobs.append(_cli("spectrum", bad, expect=5))
    return jobs


# --------------------------------------------------------------------------
# star-protocols: effective mode only, no ED

EVOLVE_SIZES = ((3, 1257), (5, 800), (8, 600), (32, 200), (100, 100), (256, 50))


def _constrained_star(rng: random.Random, n: int, c: float) -> dict:
    gammas = [_r(rng.uniform(0.5, 1.5)) for _ in range(n)]
    return {"gammas": gammas, "deltas": [c / g - 1.0 for g in gammas]}


def _random_star(rng: random.Random, n: int) -> dict:
    return {"gammas": [_r(rng.uniform(0.5, 1.5)) for _ in range(n)],
            "deltas": [_r(rng.uniform(-1.5, 0.5)) for _ in range(n)]}


def star_protocols_stream(rng: random.Random) -> list[dict]:
    jobs = []
    # the route and the initial state change the cost of an evolve job, so
    # they are fixed by slot and the seed picks only the values
    for i, (n, num) in enumerate(EVOLVE_SIZES):
        for analytic in (True, False):
            if analytic:
                c = 0.0 if i % 2 == 0 else _r(rng.uniform(-1.0, 1.0))
                eff = _constrained_star(rng, n, c)
            else:
                eff = _random_star(rng, n)
            omega = math.sqrt(sum(g * g for g in eff["gammas"]))
            jobs.append(_cli("evolve", {
                "mode": "effective", "effective": eff,
                "protocol": {"initial": "center" if analytic == (i % 4 < 2)
                             else rng.randint(1, n),
                             "method": "auto"},
                "grids": {"time": _grid(0.0, rng.uniform(4.0, 12.0) * math.pi / omega, num)},
            }))
    for block, constraint, n_sites in ((1, 0.0, 3), (2, _r(rng.uniform(0.1, 0.5)), 6), (3, 0.0, 7)):
        amps = [rng.uniform(0.3, 1.0) for _ in range(block)]
        norm = math.sqrt(sum(a * a for a in amps))
        scale = rng.uniform(0.7, 1.5)
        omega = scale * math.sqrt(2.0)
        jobs.append(_cli("transfer", {
            "protocol": {"transfer": {
                "n_sites": n_sites, "block": block,
                "amplitudes": [a / norm for a in amps], "gamma_scale": _r(scale),
                "constraint": constraint}},
            "grids": {"time": _grid(0.0, 4.0 * math.pi / omega, 301)},
        }))
    # few enough small jobs that the median job lies among the evolve jobs,
    # not in the gap between the millisecond jobs and them
    for n, winding in ((3, 0), (20, 3)):
        g = _r(rng.uniform(0.5, 2.0))
        jobs.append(_cli("wgen", {
            "mode": "effective",
            "effective": {"gammas": [g] * n, "deltas": [-1.0] * n},
            "protocol": {"source": "center", "winding": winding},
        }))
    # the winding search costs one ratio solve per winding tried, so the
    # (sites, constraint, branch) slots are fixed and the seed picks the source
    for n, constraint, branch in ((3, 0.0, "plus"), (5, 0.5, "plus"), (6, -0.5, "minus"),
                                  (8, 0.3, "plus")):
        protocol = {"source": rng.randint(1, n), "n_sites": n, "constraint": constraint,
                    "gamma_source": 1.0, "branch": branch}
        jobs.append(_cli("wgen", {"protocol": protocol}))
    for _ in range(2):
        r = rng.uniform(0.1, 0.3)
        jobs.append(_cli("sweep-fluct", {
            "protocol": {"constraint": 1.0, "winding": 2, "branch": "minus"},
            "grids": {"delta": _grid(-r, r, 81)},
        }))
    # refused: unknown key (2), non-increasing grid (3), unequal center couplings (4)
    jobs.append(_cli("evolve", {"mode": "effective", "effective": _random_star(rng, 4),
                                "protocol": {"initial": 1}, "grids": {"time": [0.0, 1.0]},
                                "extra": True}, expect=2))
    jobs.append(_cli("evolve", {"mode": "effective", "effective": _random_star(rng, 4),
                                "protocol": {"initial": 1},
                                "grids": {"time": [0.0, 2.0, 1.0]}}, expect=3))
    jobs.append(_cli("wgen", {"mode": "effective",
                              "effective": {"gammas": [1.0, 2.0, 1.0], "deltas": [-1.0] * 3},
                              "protocol": {"source": "center"}}, expect=4))
    return jobs


# --------------------------------------------------------------------------
# oracle: dense full-space validation

# (qubits, time points) per job; the 10-qubit job dominates time and memory
ORACLE_SIZES = ((10, 21), (9, 101), (9, 11), (8, 1257)) + (
    (8, 101), (8, 51), (8, 31), (8, 11)) * 5


def oracle_stream(rng: random.Random) -> list[dict]:
    jobs = []
    for i, (qubits, num) in enumerate(ORACLE_SIZES):
        n = qubits - 1
        zero_c = i % 2 == 0
        if zero_c:
            eff = {"gammas": [_r(rng.uniform(0.5, 1.5)) for _ in range(n)], "deltas": [-1.0] * n}
        elif i % 4 == 1:
            eff = _constrained_star(rng, n, _r(rng.uniform(0.2, 1.0)))
        else:
            eff = _random_star(rng, n)
        omega = math.sqrt(sum(g * g for g in eff["gammas"]))
        jobs.append(_cli("validate", {
            "mode": "effective", "effective": eff,
            "protocol": {"initial": "center" if i // 2 % 2 else rng.randint(1, n)},
            "grids": {"time": _grid(0.0, rng.uniform(2.0, 8.0) * math.pi / omega, num)},
            "z_convention": ("halfspin", "pauli")[i // 4 % 2],
        }))
    # refused: bad z-convention (2), initial site out of range (3), qubit cap (5)
    eff = _random_star(rng, 5)
    jobs.append(_cli("validate", {"mode": "effective", "effective": eff,
                                  "protocol": {"initial": 1}, "grids": {"time": [0.0, 1.0]},
                                  "z_convention": "spin"}, expect=2))
    jobs.append(_cli("validate", {"mode": "effective", "effective": eff,
                                  "protocol": {"initial": 9}, "grids": {"time": [0.0, 1.0]}},
                     expect=3))
    jobs.append(_cli("validate", {"mode": "effective", "effective": _random_star(rng, 14),
                                  "protocol": {"initial": 1}, "grids": {"time": [0.0, 1.0]}},
                     expect=5))
    return jobs


_GENERATORS = {
    "microscopic": microscopic_stream,
    "star-protocols": star_protocols_stream,
    "oracle": oracle_stream,
}


def make_stream(workload: str, seed: int) -> list[dict]:
    """The workload's job list for one seed, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _GENERATORS[workload](rng)
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = f"{workload}-{i:03d}"
    return jobs


def warmup_job(workload: str) -> dict:
    """One tiny job that touches the workload's layers (used for setup_s)."""
    if workload == "microscopic":
        job = _cli("spectrum", {"mode": "microscopic", "microscopic": {
            "central": {"x": 1}, "rings": [{"x": 1}],
            "linkers": [[{"ring_site": 1, "central_site": 2, "strength": 1.0}]]}})
    elif workload == "star-protocols":
        job = _cli("evolve", {"mode": "effective",
                              "effective": {"gammas": [1.0, 0.5, 0.7], "deltas": [-1.0] * 3},
                              "protocol": {"initial": 1}, "grids": {"time": _grid(0, 1, 5)}})
    else:
        job = _cli("validate", {"mode": "effective",
                                "effective": {"gammas": [1.0, 0.5], "deltas": [-1.0] * 2},
                                "protocol": {"initial": 1}, "grids": {"time": _grid(0, 1, 5)}})
    job["id"] = f"{workload}-warmup"
    return job
