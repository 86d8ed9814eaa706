"""Every exported name resolves, so a deletion leaves no stale export, and
the README's library example runs."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import landaucap

MODULES = ["landaucap"] + [f"landaucap.{m.name}" for m in pkgutil.iter_modules(landaucap.__path__)
                           if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from landaucap import *", namespace)
    assert set(landaucap.__all__) <= set(namespace)


def test_readme_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
