"""README names the whole public API and the commands that read each flag."""

import re

import pytest

from bodychannel import cli
from helpers import REPO_ROOT, public_functions

MODULES = ("channel", "acnet", "analysis", "optimize", "safety", "cli")


@pytest.mark.parametrize("short", MODULES)
def test_readme_names_every_public_function(short):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    names = public_functions(short)
    assert names
    missing = [name for name in names if f"`{name}`" not in readme]
    assert not missing, f"bodychannel.{short} functions not named in README.md: {missing}"


def test_readme_lists_the_commands_that_read_each_flag():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("\nFlags: ", 1)[1].split("\nExit codes: ", 1)[0]
    listed = {
        m[1]: re.findall(r"`([\w-]+)`", m[2])
        for m in re.finditer(r"^- `--(\w+)[^`]*` \([^)]*\): (.*)$", paragraph, re.M)
    }
    flags = dict.fromkeys(flag for flags in cli._FLAGS.values() for flag in flags)
    assert listed == {flag: [c for c, read in cli._FLAGS.items() if flag in read] for flag in flags}
    assert "Any other command given one of these flags exits 2" in paragraph
