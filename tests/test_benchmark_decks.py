"""The benchmark's own decks pass their output checks.

``perfbench/`` builds a seeded deck of ops per workload and checks every
op's output against an independent reference; a failed op lowers the
benchmark's ``ok_ratio``.  One checked pass of each deck runs here, in a
subprocess with numpy's RuntimeWarnings as errors, so a change that breaks
an op (a renamed function, a new warning, a wrong number) fails tier-1.
The test reads ``perfbench/`` and changes nothing in it.
"""

import os
import subprocess
import sys

import pytest

from helpers import REPO_ROOT

PASS = """
import sys, warnings
from pathlib import Path

import gen, worker
from bodychannel import analysis, cli, optimize

# The package's own UserWarnings (a truncated window, a loading assumption,
# re-sorted rows) are expected on some draws; nothing else is ignored.
for category in (analysis.WindowTruncationWarning, optimize.LoadingAssumptionWarning, cli.UnsortedRowsWarning):
    warnings.simplefilter("ignore", category)
workload, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
deck = worker.Deck(gen.generate(workload, seed, out))
errors = []
attempted, failed, _ = worker.run_pass(deck, {}, [], errors)
if failed:
    sys.exit(f"{workload} seed {seed}: {failed} of {attempted} ops failed\\n" + "\\n".join(errors))
"""


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["design_loop", "sweeps"])
def test_one_checked_pass_of_each_deck_fails_no_op(tmp_path, workload, seed):
    path = os.pathsep.join(str(REPO_ROOT / d) for d in ("src", "perfbench"))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", PASS, workload, str(seed), str(tmp_path / "deck")],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
