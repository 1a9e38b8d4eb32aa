"""The ringstar benchmark: seeded, closed-loop job streams through the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload microscopic --seed 1 --seconds 35 --trace 0

One client in one process sends the next job only after the previous one
has finished.  Each job is a generated JSON config run through
ringstar.cli.main (or, for Delta-transition jobs, the coupling library
calls the CLI does not expose); every CSV it writes is checked against the
independent references in check.py, and any job whose output bytes differ
from its first run counts as failed.  The seed fixes the job list.

--trace 0: passes of every job repeat while another pass fits in --seconds
(at least MIN_PASSES in all), each of the first SETUP_PROBES followed by a
fresh-interpreter set-up probe.  A job's latency is the median over its
passes; the end-to-end metrics are built from those.  --trace 1 alternates untraced and traced passes of every
job, prints the per-layer metrics and writes the spans to .perfbench_runs/.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See README.md in this directory for the
metric definitions.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from streams import WORKLOADS, config_bytes, make_stream, warmup_job
from tracing import Tracer, layer_metrics, unit_of

SETUP_PROBES = 5
# On a shared 2-core machine, neighbours slow single passes by up to 2x for
# seconds to minutes at a time, so a job's latency is the median over its
# passes, which are spread across the run.
MIN_PASSES = 4
PROBE_TIMEOUT_S = 60
BLAS_THREADS = 1
TAIL_BEYOND = 10  # job_tail_s: the highest percentile with this many jobs beyond it
RUN_DIR = ".perfbench_runs"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s",
                    "job_tail_s": "s", "peak_rss_mb": "MB"}


def cap_blas_threads() -> int:
    """Run BLAS/OpenMP single-threaded; returns the CPUs this process may use.

    On a shared machine a multi-threaded BLAS call waits for its slowest
    thread, so one busy neighbour on one core slows every call.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def environment(root: str, nproc: int) -> dict:
    """Stamp for every result: commit, source hash, versions, CPUs, BLAS threads."""
    import numpy
    import scipy

    commit = "unknown"
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(ref_file):
                with open(ref_file, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    src_hash = hashlib.sha256()
    pkg = os.path.join(root, "src", "ringstar")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src_hash.update(name.encode() + b"\0" + fh.read())
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "src_sha256": src_hash.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": nproc,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
    }


class Runner:
    """Runs jobs in this process, times them, and checks what they write."""

    def __init__(self, work: str, checker, tracer=None):
        self.work = work
        self.checker = checker
        self.tracer = tracer
        self.digests: dict[str, str] = {}  # job id -> digest of its first outputs
        self.verdicts: dict[str, list] = {}  # job id -> problems found in them

    def config_path(self, job: dict) -> str:
        return os.path.join(self.work, f"{job['id']}.json")

    def write_config(self, job: dict) -> None:
        with open(self.config_path(job), "wb") as fh:
            fh.write(config_bytes(job))

    def outputs(self, job: dict) -> dict[str, bytes]:
        """Every CSV the job left in the work directory (then removed)."""
        files = {}
        for name in os.listdir(self.work):
            if name.startswith(job["id"]) and name.endswith(".csv"):
                path = os.path.join(self.work, name)
                with open(path, "rb") as fh:
                    files[name[len(job["id"]):-4]] = fh.read()
                os.remove(path)
        return files

    def run(self, job: dict) -> tuple[float, list[str]]:
        """Run one job; returns its latency and the checker's problems."""
        import ringstar.cli
        import ringstar.coupling

        if self.tracer is not None:
            self.tracer.job = job["id"]
        result = None
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if job["kind"] == "cli":
                    out = os.path.join(self.work, f"{job['id']}.csv")
                    rc = ringstar.cli.main(
                        [job["command"], "--config", self.config_path(job), "--out", out])
                else:
                    p = job["config"]
                    coupling = ringstar.coupling
                    evaluate = coupling.b_sweep_evaluator(
                        x=p["x"], exchange=p["exchange"], a=p["a"], d=p["d"],
                        reference=coupling.Linker(**p["reference"]),
                        tuned_sites=tuple(p["tuned_sites"]))
                    result = coupling.find_delta_transitions(
                        evaluate, p["b_start"], p["b_stop"], level=p["level"],
                        points=p["points"])
                    rc = 0
        except SystemExit as exc:  # argparse refusals
            rc = exc.code
        except Exception:  # a crash is a failed job, not a failed benchmark
            rc = "exception: " + traceback.format_exc(limit=3).replace("\n", " | ")
        latency = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.job = None
        files = self.outputs(job)
        digest = hashlib.sha256(repr(rc).encode())
        for suffix in sorted(files):
            digest.update(suffix.encode() + b"\0" + files[suffix])
        if result is not None:
            digest.update(repr([(t.b, t.kind, t.rising) for t in result]).encode())
        first = self.digests.setdefault(job["id"], digest.hexdigest())
        if first != digest.hexdigest():
            problems = ["output bytes differ from the first pass"]
            problems += self.checker.check(job, rc, files, result)
        elif job["id"] in self.verdicts:  # same bytes as an output already checked
            problems = list(self.verdicts[job["id"]])
        else:
            problems = self.checker.check(job, rc, files, result)
            self.verdicts[job["id"]] = list(problems)
        if problems and rc != job["expect"] and job["expect"] == 0:
            problems.append("log: " + sink.getvalue()[-500:].replace("\n", " | "))
        return latency, problems


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with TAIL_BEYOND jobs beyond it."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def measure_setup(root: str, runner: Runner, job: dict) -> tuple[float, list]:
    """Wall time of a fresh interpreter that imports ringstar and runs one tiny job."""
    probe = os.path.join(root, "perfbench", "probe.py")
    out = os.path.join(runner.work, f"{job['id']}.csv")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, probe, job["command"], runner.config_path(job), out],
                          cwd=root, capture_output=True, timeout=PROBE_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    found = runner.checker.check(job, proc.returncode, runner.outputs(job))
    return elapsed, [f"set-up probe: {found} {proc.stderr[-300:]!r}"] if found else []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ringstar", "__init__.py")):
        print("error: run from the repository root; src/ringstar is missing", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {WORKLOADS}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()  # before numpy is imported
    sys.path.insert(0, os.path.join(root, "src"))

    import ringstar
    from check import Checker

    if os.path.dirname(os.path.abspath(ringstar.__file__)) != os.path.join(root, "src", "ringstar"):
        print(f"error: imported ringstar from {ringstar.__file__}", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(root, RUN_DIR), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=os.path.join(root, RUN_DIR))
    try:
        return _benchmark(args, root, work, nproc, Checker())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _benchmark(args, root: str, work: str, nproc: int, checker) -> int:
    env = environment(root, nproc)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    attempted = failed = 0
    reports = []

    runner = Runner(work, checker)
    warm = warmup_job(args.workload)
    runner.write_config(warm)
    setup_times = []

    def probe_setup() -> None:
        nonlocal attempted, failed
        elapsed, problems = measure_setup(root, runner, warm)
        setup_times.append(elapsed)
        attempted += 1
        failed += bool(problems)
        reports.extend(problems)

    _, problems = runner.run(warm)  # imports and first-call costs, untimed
    attempted += 1
    failed += bool(problems)
    reports += [f"{warm['id']}: {p}" for p in problems]

    jobs = make_stream(args.workload, args.seed)
    for job in jobs:
        runner.write_config(job)

    def run_pass(subset: list, tracer=None) -> dict[str, float]:
        nonlocal attempted, failed
        latencies = {}
        runner.tracer = tracer
        if tracer is not None:
            tracer.spans.clear()
            tracer.install()
        try:
            for job in subset:
                latencies[job["id"]], problems = runner.run(job)
                attempted += 1
                failed += bool(problems)
                reports.extend(f"{job['id']}: {p}" for p in problems)
        finally:
            if tracer is not None:
                tracer.uninstall()
            runner.tracer = None
        return latencies

    start = time.perf_counter()
    metrics = {}
    if args.trace:
        # untraced and traced passes alternate, every job once per pass
        tracer = Tracer()
        spans_path = os.path.join(root, RUN_DIR, f"{args.workload}-seed{args.seed}-spans.jsonl")
        if os.path.exists(spans_path):
            os.remove(spans_path)
        plain_walls, traced_walls, layer_runs, cycles = [], [], [], []
        # an untimed pass of every job first, so that first-run costs
        # (heap growth, page faults) do not land on the untraced side
        run_pass(jobs)
        while True:
            t0 = time.perf_counter()
            plain_walls.append(sum(run_pass(jobs).values()))
            traced_walls.append(sum(run_pass(jobs, tracer).values()))
            layer_runs.append(layer_metrics(tracer.spans))
            tracer.write(spans_path, len(traced_walls))
            cycles.append(time.perf_counter() - t0)
            if time.perf_counter() - start + statistics.median(cycles) > args.seconds:
                break
        for name in layer_runs[0]:
            metrics[name] = {"value": statistics.median(r[name] for r in layer_runs),
                             "unit": unit_of(name)}
        overhead = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
        print(f"passes {len(plain_walls)} untraced + {len(traced_walls)} traced; "
              f"spans in {os.path.relpath(spans_path, root)}")
        details = {"pass_walls_s": plain_walls, "traced_walls_s": traced_walls}
    else:
        samples = {job["id"]: [] for job in jobs}
        passes, pass_s = 0, []
        while True:
            t0 = time.perf_counter()
            for job_id, latency in run_pass(jobs).items():
                samples[job_id].append(latency)
            if len(setup_times) < SETUP_PROBES:  # set-up probes spread over the run
                probe_setup()
            if passes:  # the first pass also checks every output
                pass_s.append(time.perf_counter() - t0)
            passes += 1
            if passes >= MIN_PASSES and (time.perf_counter() - start
                                         + statistics.median(pass_s) > args.seconds):
                break
        while len(setup_times) < SETUP_PROBES:
            probe_setup()
        per_job = [statistics.median(samples[job["id"]]) for job in jobs]
        tail_s, tail_pct = tail(per_job)
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": sum(per_job),
            "job_p50_s": statistics.median(per_job),
            "job_tail_s": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for name, value in values.items():
            metrics[name] = {"value": value, "unit": END_TO_END_UNITS[name]}
        print(f"{passes} passes of {len(jobs)} jobs; "
              f"job_tail_s is p{tail_pct:.1f} ({TAIL_BEYOND} jobs beyond it)")
        details = {"setup_s": setup_times, "job_latency_s": samples}

    for line in reports[:20]:
        print("FAIL " + line, file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_frac = {failed / attempted:.6g} frac ({failed} of {attempted} jobs)")
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    with open(os.path.join(root, RUN_DIR,
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"env": env, "workload": args.workload, "seed": args.seed,
                   "failures": reports, **details, **summary}, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
