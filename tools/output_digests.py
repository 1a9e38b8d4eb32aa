"""Record what every benchmark-stream job and `configs/` CLI run writes.

    python3 tools/output_digests.py OUT.json [--against BASE.json] [--root DIR]

Runs, in one process, every job of the benchmark streams for seeds 1-3
(`perfbench/streams.py`, imported read-only) and every `configs/*.json` under
each of the seven commands, and writes OUT.json: per run, the exit code, the
text it printed to stderr (the run directory written as `<run>`) and the
sha256 of each CSV it wrote, with the CSV text kept (zlib, base64) so a
later comparison can report numbers.  A stream's `transitions` jobs call
`b_sweep_evaluator` and `find_delta_transitions` as the benchmark does, and
their result is kept as the CSV `b,kind,rising` (floats as %.17g).  With
--against, prints every run whose exit code, stderr or bytes differ from
BASE.json; then one line such as `6 of 292 runs differ (exit 0, stderr 6,
csv 0, one side 0)`, where a run counts in each part that differs and "one
side" counts runs that only one file holds; then, per command, the largest
absolute and the largest relative change in a numeric cell (relative to the
BASE.json value; a cell whose base magnitude is below 1e-9 of the largest in
its column counts only in the absolute figure, so rounding noise around zero
does not set the relative one).  It exits 1 if any run differs or is missing
from one side.  --root picks the checkout whose `src/`, `configs/` and
`perfbench/` are used (default: this one), so a parent commit's outputs can
be recorded with the same script.
"""
from __future__ import annotations

import argparse
import base64
import contextlib
import glob
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import zlib

SEEDS = (1, 2, 3)
RELATIVE_FLOOR = 1e-9
COMMANDS = ("spectrum", "evolve", "wgen", "sweep-fluct", "transfer", "sweep-aniso",
            "validate")


def runs(root: str):
    """(run id, command, config bytes) of every run, in a fixed order; a
    `transitions` job's config holds its call parameters."""
    sys.path.insert(0, os.path.join(root, "perfbench"))
    from streams import WORKLOADS, config_bytes, make_stream

    for seed in SEEDS:
        for workload in WORKLOADS:
            for job in make_stream(workload, seed):
                yield f"seed{seed}/{job['id']}", job["command"], config_bytes(job)
    for path in sorted(glob.glob(os.path.join(root, "configs", "*.json"))):
        with open(path, "rb") as fh:
            config = fh.read()
        for command in COMMANDS:
            yield f"configs/{os.path.basename(path)}/{command}", command, config


def transitions_csv(coupling, p: dict) -> bytes:
    """The Delta transitions of one stream job, called with the keywords the
    benchmark passes, as CSV text."""
    evaluate = coupling.b_sweep_evaluator(
        x=p["x"], exchange=p["exchange"], a=p["a"], d=p["d"],
        reference=coupling.Linker(**p["reference"]), tuned_sites=tuple(p["tuned_sites"]))
    found = coupling.find_delta_transitions(
        evaluate, p["b_start"], p["b_stop"], level=p["level"], points=p["points"])
    return "".join(["b,kind,rising\n"] + [
        "%.17g,%s,%s\n" % (t.b, t.kind, t.rising) for t in found]).encode()


def record(root: str) -> dict:
    # one BLAS thread, as in the benchmark: a threaded BLAS sums in an order
    # that varies between runs, so two recordings of one checkout would differ
    # (star `evolve` CSVs by about 1e-14).  Must be set before numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(root, "src"))
    import ringstar.cli
    import ringstar.coupling

    results = {}
    with tempfile.TemporaryDirectory() as work:
        for i, (run_id, command, config) in enumerate(runs(root)):
            rundir = os.path.join(work, str(i))
            os.mkdir(rundir)
            cfg_path = os.path.join(rundir, "config.json")
            with open(cfg_path, "wb") as fh:
                fh.write(config)
            if command == "transitions":
                with open(os.path.join(rundir, "transitions.csv"), "wb") as fh:
                    fh.write(transitions_csv(ringstar.coupling, json.loads(config)))
                code, stderr = 0, ""
            else:
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = ringstar.cli.main([command, "--config", cfg_path,
                                              "--out", os.path.join(rundir, "out.csv")])
                stderr = err.getvalue().replace(rundir, "<run>")
            outputs = {}
            for name in sorted(os.listdir(rundir)):
                if name != "config.json":
                    with open(os.path.join(rundir, name), "rb") as fh:
                        data = fh.read()
                    outputs[name] = {
                        "sha256": hashlib.sha256(data).hexdigest(),
                        "csv": base64.b64encode(zlib.compress(data)).decode(),
                    }
            results[run_id] = {"command": command, "exit": code, "stderr": stderr,
                               "outputs": outputs}
    return results


def _cells(entry: dict) -> list[list[str]]:
    text = zlib.decompress(base64.b64decode(entry["csv"])).decode()
    return [line.split(",") for line in text.splitlines()]


def _column_scales(rows: list[list[str]]) -> dict[int, float]:
    """Largest magnitude of a numeric cell in each column."""
    scales: dict[int, float] = {}
    for row in rows:
        for j, x in enumerate(row):
            with contextlib.suppress(ValueError):
                scales[j] = max(scales.get(j, 0.0), abs(float(x)))
    return scales


def largest_change(old: dict, new: dict) -> tuple[float, float]:
    """Largest absolute and largest relative (|change| / |old|) difference
    between numeric cells at the same place; the relative figure skips cells
    whose |old| is below RELATIVE_FLOOR of the largest |old| in their column
    (zero cells among them).  Both inf when the tables differ in shape or in a
    non-numeric cell."""
    a, b = _cells(old), _cells(new)
    if [len(r) for r in a] != [len(r) for r in b]:
        return math.inf, math.inf
    scales = _column_scales(a)
    worst, worst_rel = 0.0, 0.0
    for row_a, row_b in zip(a, b):
        for j, (x, y) in enumerate(zip(row_a, row_b)):
            if x == y:
                continue
            try:
                change = abs(float(x) - float(y))
            except ValueError:
                return math.inf, math.inf
            worst = max(worst, change)
            if abs(float(x)) > RELATIVE_FLOOR * scales[j]:
                worst_rel = max(worst_rel, change / abs(float(x)))
    return worst, worst_rel


def compare(base: dict, current: dict) -> int:
    """Print the runs that differ, then how many do and how many of those
    differ in each part (a run can count in several); returns how many do."""
    changed, worst = 0, {}
    parts = dict.fromkeys(("exit", "stderr", "csv", "one side"), 0)
    for run_id in sorted(set(base) | set(current)):
        old, new = base.get(run_id), current.get(run_id)
        if old is None or new is None:
            print(f"{run_id}: only in {'current' if old is None else 'base'}")
            changed += 1
            parts["one side"] += 1
            continue
        notes, csv_notes = [], []
        if old["exit"] != new["exit"]:
            notes.append(f"exit {old['exit']} -> {new['exit']}")
            parts["exit"] += 1
        if old.get("stderr") != new.get("stderr"):
            notes.append(f"stderr {old.get('stderr')!r} -> {new.get('stderr')!r}")
            parts["stderr"] += 1
        for name in sorted(set(old["outputs"]) | set(new["outputs"])):
            o, n = old["outputs"].get(name), new["outputs"].get(name)
            if o is None or n is None:
                csv_notes.append(f"{name} {'added' if o is None else 'missing'}")
            elif o["sha256"] != n["sha256"]:
                delta, rel = largest_change(o, n)
                top = worst.get(new["command"], (0.0, 0.0))
                worst[new["command"]] = (max(top[0], delta), max(top[1], rel))
                csv_notes.append(f"{name} max |change| {delta:.2g} (relative {rel:.2g})")
        parts["csv"] += bool(csv_notes)
        if notes or csv_notes:
            changed += 1
            print(f"{run_id} [{new['command']}]: " + "; ".join(notes + csv_notes))
    breakdown = ", ".join(f"{part} {count}" for part, count in parts.items())
    print(f"{changed} of {len(current)} runs differ ({breakdown})")
    for command, (delta, rel) in sorted(worst.items()):
        print(f"  {command}: largest absolute change {delta:.2g}, relative {rel:.2g}")
    return changed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="JSON file to write")
    parser.add_argument("--against", help="earlier JSON to compare with")
    parser.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), help="checkout to run (default: this one)")
    args = parser.parse_args(argv)
    results = record(os.path.abspath(args.root))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            return 1 if compare(json.load(fh), results) else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
