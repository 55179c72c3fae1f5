"""One sha256 per CLI run of every command on every shipped scenario.

Each digest covers the run's label (command, scenario file name and
options, not the scenario's directory), exit code, stdout, stderr (warnings
included) and the CSV it wrote, so two checkouts of one tree print the
same lines.

A run that solves the netlist (``--oracle``, ``multi --joint`` and
``oracle-check``) calls LAPACK, whose round-off depends on the BLAS kernel
that the CPU selects: forcing another OpenBLAS kernel moved 21 of these
digests, and rounding every cell to 12, 10, 8 or 6 significant digits still
left 16 or more moving, since some columns are round-off themselves
(``rel_diff``, ``deviation_rel`` and the near-zero part of v_o at
resonance).  For these runs the digest covers the CSV's provenance, header
and row count, not its cells; the oracle's values are checked against the
closed form elsewhere.  Every other run is covered byte for byte.

``tests/golden/cli_digest.txt`` holds the digests of the current tree, and
``test_cli_digest.py`` checks them.  After a change that moves an output on
purpose, regenerate the file from the repository root with

    PYTHONPATH=src python tests/cli_digest.py > tests/golden/cli_digest.txt

and list the runs that changed.  Each demo's stdout has a digest too, in
``tests/golden/demo_digest.txt`` (checked by ``test_demos.py``), over its
text with one value masked: demo 08's worst relative difference between
the closed form and the netlist, which is LAPACK round-off and the only
number of the demos that another OpenBLAS kernel moves.  Regenerate it with

    PYTHONPATH=src python tests/cli_digest.py --demos > tests/golden/demo_digest.txt

Two trees are compared on one machine, every run byte for byte, with

    PYTHONPATH=<old tree>/src python tests/cli_digest.py --exact > old.txt
    PYTHONPATH=<new tree>/src python tests/cli_digest.py --exact > new.txt
    diff old.txt new.txt
"""

import contextlib
import hashlib
import io
import os
import re
import runpy
import sys
import tempfile
import warnings
from pathlib import Path

from helpers import REPO_ROOT, shipped_cli_runs

from bodychannel import cli


def run_label(argv) -> str:
    """The command, scenario file name and options of a shipped run."""
    return " ".join([argv[0], Path(argv[2]).name, *argv[5:]])


def solves_netlist(argv) -> bool:
    """Whether a shipped run solves the netlist, and so calls LAPACK."""
    return argv[0] == "oracle-check" or "--oracle" in argv or (argv[0] == "multi" and "--joint" in argv)


def _without_cells(csv: bytes) -> bytes:
    """A CSV's provenance and header lines and its row count."""
    lines = csv.splitlines()
    k = next(i for i, line in enumerate(lines) if not line.startswith(b"#"))  # the header
    return b"\n".join([*lines[: k + 1], b"%d rows" % (len(lines) - k - 1)])


def run_digest(argv, out: Path, exact: bool = False) -> str:
    """sha256 of one in-process ``main(argv)`` run that writes to ``out``;
    every warning is printed to the captured stderr.  ``exact`` covers the
    cells of a run that solves the netlist too."""
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter("always")
        code = cli.main(argv)
    digest = hashlib.sha256()
    for part in (run_label(argv), str(code), stdout.getvalue(), stderr.getvalue()):
        digest.update(part.encode("utf-8") + b"\0")
    csv = out.read_bytes() if out.exists() else b""
    digest.update(_without_cells(csv) if csv and not exact and solves_netlist(argv) else csv)
    return digest.hexdigest()


def digest_lines(exact: bool = False) -> list:
    """``"<sha256> <label>"`` for each shipped run, in run order."""
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)  # a relative --out keeps messages free of the temporary path
        try:
            return [
                f"{run_digest(argv, Path('out.csv'), exact)} {run_label(argv)}"
                for argv in shipped_cli_runs("out.csv")
            ]
        finally:
            os.chdir(cwd)


DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))
_ROUND_OFF = re.compile(r"(worst relative difference: )\S+")


def demo_digest(stdout: str) -> str:
    """sha256 of a demo's stdout with its round-off value masked."""
    return hashlib.sha256(_ROUND_OFF.sub(r"\1<round-off>", stdout).encode("utf-8")).hexdigest()


def demo_digest_lines() -> list:
    """``"<sha256> <file name>"`` for each demo, run in process."""
    lines = []
    for demo in DEMOS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            runpy.run_path(str(demo), run_name="__main__")
        lines.append(f"{demo_digest(stdout.getvalue())} {demo.name}")
    return lines


if __name__ == "__main__":
    if "--demos" in sys.argv[1:]:
        print("\n".join(demo_digest_lines()))
    else:
        print("\n".join(digest_lines(exact="--exact" in sys.argv[1:])))
