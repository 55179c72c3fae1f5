"""Every demo script runs to completion in process."""

import runpy
from pathlib import Path

import pytest

from helpers import REPO_ROOT

DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo: Path, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
