"""What a timing cannot be read without: the machine, libraries and threads.

OpenBLAS runs its own thread pool beside tcdm's patch and row pools, so
its thread count and the ``*_NUM_THREADS`` environment go with every run.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess

import numpy as np
import scipy

_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "TCDM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_version(module) -> str:
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def _openblas_threads() -> dict:
    """Thread count of each OpenBLAS bundled with numpy and scipy."""
    out = {}
    for module in (np, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(module.__file__)),
                            module.__name__ + ".libs", "*openblas*")
        for path in glob.glob(libs):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    out[module.__name__] = fn()
                    break
    return out


def _git_commit(root: str):
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest(root: str) -> str:
    """sha256 over the tcdm sources: names the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "tcdm", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def record(root: str, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": {"numpy": _blas_version(np), "scipy": _blas_version(scipy)},
        "openblas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in _THREAD_ENV},
        "seed": seed,
        "git_commit": _git_commit(root),
        "tcdm_source_sha256": _source_digest(root),
    }
