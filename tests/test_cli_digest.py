"""Every shipped-scenario CLI run against its committed digest
(``tests/golden/cli_digest.txt``; ``cli_digest.py`` says how to regenerate it)."""

from helpers import REPO_ROOT

import cli_digest

GOLDEN = REPO_ROOT / "tests" / "golden" / "cli_digest.txt"


def _by_label(lines) -> dict:
    return {label: sha for sha, label in (line.split(" ", 1) for line in lines)}


def test_every_shipped_cli_run_matches_its_committed_digest():
    expected = _by_label(GOLDEN.read_text(encoding="utf-8").splitlines())
    actual = _by_label(cli_digest.digest_lines())
    assert len(actual) == 416
    assert actual.keys() == expected.keys()
    changed = [label for label, sha in actual.items() if sha != expected[label]]
    assert not changed, f"{len(changed)} run(s) changed their output: {changed}"
