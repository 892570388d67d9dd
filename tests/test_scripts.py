"""The scripts under ``scripts/`` against the package: the synthetic
validation end to end on tiny shapes, and the parameter sweep's imports
(a full sweep is too slow for the suite)."""

import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def test_synthetic_validation_runs():
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    run = subprocess.run([sys.executable, str(SCRIPTS / "synthetic_validation.py"),
                          "--points", "600", "--seeds", "6", "--noise-seeds", "1"],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    # each shape's header line, then its identity score
    identities = re.findall(r"^(\w+) \(600 pts.*\n  identity: Q = (\S+)$", run.stdout,
                            flags=re.MULTILINE)
    assert identities == [(shape, "1.000000") for shape in ("plane", "sphere", "torus")]


def test_parameter_sweep_imports():
    namespace = runpy.run_path(str(SCRIPTS / "parameter_sweep.py"), run_name="sweep")
    assert callable(namespace["main"])
