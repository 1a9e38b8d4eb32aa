"""`tools/output_digests.py` reports the largest change between two CSVs.

The tool is loaded from its file, as a script would run it.
"""
from __future__ import annotations

import base64
import importlib.util
import zlib
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"


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
