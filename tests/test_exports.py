import importlib
import pkgutil

import pytest

import tcdm

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(tcdm.__path__))


@pytest.mark.parametrize("module", ["tcdm"] + [f"tcdm.{name}" for name in SUBMODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"

