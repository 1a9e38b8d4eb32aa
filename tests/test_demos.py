"""Every script in demos/ runs to completion as __main__."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    # plots, when matplotlib is installed, go to demos/ under the working dir
    (tmp_path / "demos").mkdir()
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
