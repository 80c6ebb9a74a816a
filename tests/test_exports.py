"""Every name a module exports in ``__all__`` exists, so a deletion cannot leave one behind."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import offmenu

MODULES = ["offmenu"] + [f"offmenu.{m.name}" for m in pkgutil.iter_modules(offmenu.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [e for e in getattr(module, "__all__", ()) if not hasattr(module, e)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"
