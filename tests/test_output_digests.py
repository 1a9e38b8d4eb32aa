"""`tools/output_digests.py` lists every run, reports the largest change
between two CSVs, and exits 1 when a comparison finds a difference.

The tool is loaded from its file, as a script would run it.
"""
from __future__ import annotations

import base64
import importlib.util
import json
import zlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "output_digests.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _entry(rows: list[str]) -> dict:
    text = "\n".join(rows) + "\n"
    return {"csv": base64.b64encode(zlib.compress(text.encode())).decode()}


def test_rounding_noise_near_zero_does_not_set_the_relative_change():
    tool = _load_tool()
    old = _entry(["k,c_k", "0,0.75", "1,-2.4e-19"])
    new = _entry(["k,c_k", "0,0.75", "1,-4.4e-17"])
    worst, worst_rel = tool.largest_change(old, new)
    assert worst == pytest.approx(4.16e-17)
    assert worst_rel == 0.0


def test_a_real_relative_change_in_a_large_cell_is_reported():
    tool = _load_tool()
    old = _entry(["k,c_k,gap", "0,1000000,24.7", "1,-2.4e-19,24.7"])
    new = _entry(["k,c_k,gap", "0,1000000.0001,24.7", "1,-4.4e-17,24.7"])
    worst, worst_rel = tool.largest_change(old, new)
    assert worst == pytest.approx(1e-4)
    assert worst_rel == pytest.approx(1e-10, rel=1e-3)


def test_the_run_list_holds_the_benchmark_transitions_jobs():
    ids = [run_id for run_id, command, _ in _load_tool().runs(str(ROOT))
           if command == "transitions"]
    assert len(ids) == len(set(ids)) == 18


def test_a_comparison_exits_1_when_a_run_differs_or_is_missing(tmp_path, monkeypatch):
    tool = _load_tool()
    base = {"seed1/star-protocols-000": {"command": "wgen", "exit": 0, "outputs": {
        "out.csv": dict(_entry(["k,a", "0,0.5"]), sha256="aa")}}}
    base_path = tmp_path / "base.json"
    base_path.write_text(json.dumps(base), encoding="utf-8")
    current = json.loads(json.dumps(base))
    monkeypatch.setattr(tool, "record", lambda root: current)  # runs no job
    argv = [str(tmp_path / "out.json"), "--against", str(base_path)]
    assert tool.main(argv) == 0
    current["seed1/star-protocols-000"]["outputs"]["out.csv"]["sha256"] = "bb"
    assert tool.main(argv) == 1
    current.clear()
    assert tool.main(argv) == 1


def test_a_comparison_exits_1_when_only_the_stderr_text_differs(tmp_path, monkeypatch, capsys):
    tool = _load_tool()
    base = {"configs/x.json/wgen": {"command": "wgen", "exit": 4, "outputs": {},
                                    "stderr": "error [infeasible]: no ratio\n"}}
    base_path = tmp_path / "base.json"
    base_path.write_text(json.dumps(base), encoding="utf-8")
    current = json.loads(json.dumps(base))
    monkeypatch.setattr(tool, "record", lambda root: current)  # runs no job
    argv = [str(tmp_path / "out.json"), "--against", str(base_path)]
    assert tool.main(argv) == 0
    current["configs/x.json/wgen"]["stderr"] = "error: no ratio\n"
    assert tool.main(argv) == 1
    assert "stderr 'error [infeasible]: no ratio\\n' -> 'error: no ratio\\n'" in (
        capsys.readouterr().out)
