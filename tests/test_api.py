"""The public surface: every exported name resolves, once."""

import importlib
import pkgutil

import pytest

import spectrahull

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(spectrahull.__path__))


def test_star_import_resolves_every_name():
    namespace: dict = {}
    exec("from spectrahull import *", namespace)
    assert len(set(spectrahull.__all__)) == len(spectrahull.__all__)
    assert set(spectrahull.__all__) <= set(namespace)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve_without_duplicates(name):
    module = importlib.import_module(f"spectrahull.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported), name
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}: {missing}"
