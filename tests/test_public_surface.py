"""Public surface: every name a hessobs module exports in __all__ exists."""

import importlib
import pkgutil

import pytest

import hessobs

MODULES = sorted(info.name for info in pkgutil.iter_modules(hessobs.__path__))


def test_every_module_is_listed():
    assert {"cli", "geometry", "monitors", "symfunc"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"hessobs.{name}")
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported), f"duplicate names in hessobs.{name}.__all__"
    missing = [attr for attr in exported if not hasattr(mod, attr)]
    assert not missing, f"hessobs.{name}.__all__ names missing attributes: {missing}"
