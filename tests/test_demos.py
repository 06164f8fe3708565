"""Every demo script runs to completion against the fvrlab under test."""

import pathlib
import subprocess
import sys

import pytest

from conftest import child_env

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS  # an empty glob would parametrize no runs at all


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    res = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
