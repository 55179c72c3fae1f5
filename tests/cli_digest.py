"""One sha256 per CLI run of every command on every shipped scenario, and
their total.

Each digest covers the run's argv, exit code, stdout, stderr (warnings
included) and the CSV it wrote.  Two source trees print the same lines
exactly when every run is byte-identical, so a refactor is checked by

    PYTHONPATH=<old tree>/src python tests/cli_digest.py > old.txt
    PYTHONPATH=<new tree>/src python tests/cli_digest.py > new.txt
    diff old.txt new.txt
"""

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

from helpers import shipped_cli_runs

from bodychannel import cli


def run_digest(argv, out: Path) -> str:
    """sha256 of one in-process ``main(argv)`` run that writes to ``out``."""
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    digest = hashlib.sha256()
    for part in (repr(argv), str(code), stdout.getvalue(), stderr.getvalue()):
        digest.update(part.encode("utf-8") + b"\0")
    digest.update(out.read_bytes() if out.exists() else b"")
    return digest.hexdigest()


def main() -> None:
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)  # a relative --out keeps argv and messages free of the temporary path
        try:
            for argv in shipped_cli_runs("out.csv"):
                label = " ".join([argv[0], Path(argv[2]).name, *argv[5:]])
                line = f"{run_digest(argv, Path('out.csv'))} {label}"
                total.update(line.encode("utf-8"))
                print(line)
        finally:
            os.chdir(cwd)
    print(f"{total.hexdigest()} total")


if __name__ == "__main__":
    main()
