import importlib
import pkgutil

import pytest

import modwind

MODULES = [
    importlib.import_module(f"modwind.{info.name}")
    for info in pkgutil.iter_modules(modwind.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_exist(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_modules_with_exports_found():
    assert sum(hasattr(m, "__all__") for m in MODULES) >= 6
