"""README names the whole public API."""

import importlib
import inspect

import pytest

from helpers import REPO_ROOT

MODULES = ("channel", "acnet", "analysis", "optimize", "safety", "cli")


def _public_functions(short: str) -> list:
    """Functions defined in ``bodychannel.<short>`` whose names do not start
    with an underscore: the rule perfbench/tracer.py wraps by."""
    module = importlib.import_module(f"bodychannel.{short}")
    return [
        name
        for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__
    ]


@pytest.mark.parametrize("short", MODULES)
def test_readme_names_every_public_function(short):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    names = _public_functions(short)
    assert names
    missing = [name for name in names if f"`{name}`" not in readme]
    assert not missing, f"bodychannel.{short} functions not named in README.md: {missing}"
