import importlib
import pkgutil
from pathlib import Path

import pytest

import tcdm

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(tcdm.__path__))


@pytest.mark.parametrize("module", ["tcdm"] + [f"tcdm.{name}" for name in SUBMODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"



def test_benchmark_swap_targets_resolve(monkeypatch):
    # the benchmark's tracer swaps these module attributes by name; a
    # renamed or deleted one would only show up in a benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    broken = [f"{entry[0].__name__}.{entry[1]}" for entry in spans._WRAPPED
              if not callable(getattr(entry[0], entry[1], None))]
    assert not broken, f"benchmark swap targets missing: {broken}"
