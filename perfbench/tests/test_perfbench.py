"""Tests of the benchmark itself: determinism, the checker, and tracing.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(HERE)]

import ringstar  # noqa: E402
from check import Checker  # noqa: E402
from run import Runner  # noqa: E402
from streams import WORKLOADS, config_bytes, make_stream, warmup_job  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_configs(workload):
    first = [config_bytes(j) for j in make_stream(workload, 7)]
    again = [config_bytes(j) for j in make_stream(workload, 7)]
    other = make_stream(workload, 8)
    assert first == again
    assert first != [config_bytes(j) for j in other]
    # the seed changes values and order, never the job mix
    mix = sorted((j["command"], j["expect"]) for j in make_stream(workload, 7))
    assert mix == sorted((j["command"], j["expect"]) for j in other)


def _small_jobs():
    """Cheap jobs covering every command, both job kinds and the refusals."""
    jobs = [warmup_job(w) for w in WORKLOADS]
    stream = make_stream("star-protocols", 3)
    for command in ("wgen", "sweep-fluct", "transfer"):
        jobs.append(next(j for j in stream if j["command"] == command))
    jobs.append(next(j for j in stream if j["command"] == "evolve" and j["expect"] == 0
                     and len(j["config"]["effective"]["gammas"]) <= 5))
    micro = make_stream("microscopic", 3)
    jobs.append(next(j for j in micro if j["kind"] == "transitions" and j["config"]["x"] == 1))
    jobs.append(next(j for j in micro if j["command"] == "sweep-aniso"
                     and j["config"]["sweep"]["x"] == 1))
    return jobs + [j for j in stream + micro if j["expect"] != 0]


def _runner(tmp_path, runner_class=Runner):
    runner = runner_class(str(tmp_path), Checker())
    for job in _small_jobs():
        runner.write_config(job)
    return runner


def _corrupt(cell: str) -> str:
    try:
        return repr(float(cell or 0.0) * (1 + 1e-6) + 1e-6)
    except ValueError:  # booleans and status words
        return {"true": "false", "false": "true"}.get(cell, "divergent")


class CorruptingRunner(Runner):
    """Alters one cell of the first data row of every CSV a job writes."""

    def outputs(self, job):
        files = super().outputs(job)
        for suffix, data in files.items():
            lines = data.decode().split("\n")
            cells = lines[1].split(",")
            cells[-1] = _corrupt(cells[-1])
            lines[1] = ",".join(cells)
            files[suffix] = "\n".join(lines).encode()
        return files


def test_one_corrupted_cell_is_a_failure(tmp_path):
    runner = _runner(tmp_path, CorruptingRunner)
    checked = 0
    for job in _small_jobs():
        if job["kind"] != "cli" or job["expect"] != 0:
            continue
        _, problems = runner.run(job)
        assert problems, job["id"]
        checked += 1
    assert checked == 8


def test_traced_and_untraced_runs_write_identical_csvs(tmp_path):
    runner = _runner(tmp_path)
    jobs = _small_jobs()
    for job in jobs:
        _, problems = runner.run(job)
        assert problems == [], (job["id"], problems)
    original = ringstar.star.evolve_subspace
    tracer = Tracer()
    runner.tracer = tracer
    tracer.install()
    try:
        assert ringstar.star.evolve_subspace is not original
        # Runner compares every job's output bytes with its first (untraced) run
        results = [runner.run(job) for job in jobs]
    finally:
        tracer.uninstall()
    assert ringstar.star.evolve_subspace is original
    assert ringstar.protocols.evolve_subspace is original
    assert all(problems == [] for _, problems in results)
    metrics = layer_metrics(tracer.spans)
    assert {s[2] for s in tracer.spans} >= {j["id"] for j in jobs if j["expect"] == 0}
    assert metrics["rings.ed_calls"] > 0 and metrics["star.propagate_calls"] > 0
    assert metrics["oracle.qubits_max"] == 3
    assert metrics["coupling.transition_evals"] >= 501
