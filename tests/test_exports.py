import importlib
import pkgutil

import pytest

import freewick

MODULES = ["freewick"] + [
    f"freewick.{info.name}" for info in pkgutil.iter_modules(freewick.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [x for x in getattr(module, "__all__", []) if not hasattr(module, x)]
    assert missing == []
