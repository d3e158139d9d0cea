"""Each narrative demo runs to completion."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
