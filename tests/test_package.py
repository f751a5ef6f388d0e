"""Package surface: every name a module exports exists on it."""

import importlib
import pkgutil

import pytest

import season

MODULES = [f"season.{m.name}" for m in pkgutil.iter_modules(season.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
