"""Every public name the package and its modules declare exists."""

import importlib
import pkgutil

import pytest

import qcbound

MODULES = ["cli", "curvature", "ensembles", "entanglement", "experiments", "level_stats",
           "models", "quantum"]


@pytest.mark.parametrize("name", ["qcbound", *(f"qcbound.{m}" for m in MODULES)])
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [item for item in module.__all__ if not hasattr(module, item)]
    assert missing == []


def test_every_module_is_listed():
    modules = {info.name for info in pkgutil.iter_modules(qcbound.__path__)}
    assert modules == set(MODULES)
