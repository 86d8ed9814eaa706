"""Every exported name resolves, so a deletion leaves no stale export."""

import importlib
import pkgutil

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
