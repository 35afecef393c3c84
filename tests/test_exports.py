"""The package's export lists name only things that exist."""

import importlib
import pkgutil

import pytest

import dynwalk

MODULES = ["dynwalk"] + [f"dynwalk.{info.name}" for info in pkgutil.iter_modules(dynwalk.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = module.__all__
    assert [name for name in exported if not hasattr(module, name)] == []
    assert len(set(exported)) == len(exported)
