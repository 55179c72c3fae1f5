"""Every demo script runs to completion in process and prints the output
of its committed digest (``tests/golden/demo_digest.txt``; ``cli_digest.py``
says how to regenerate it)."""

import runpy
from pathlib import Path

import pytest

from cli_digest import DEMOS, demo_digest
from helpers import REPO_ROOT

GOLDEN = {
    name: sha
    for sha, name in (
        line.split(" ", 1)
        for line in (REPO_ROOT / "tests" / "golden" / "demo_digest.txt").read_text(encoding="utf-8").splitlines()
    )
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo: Path, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    assert demo_digest(out) == GOLDEN[demo.name], f"{demo.name} changed its output"
