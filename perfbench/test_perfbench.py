"""Checks of the benchmark itself, on tiny clouds:

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def test_smoke_every_metric_named_checked_and_correct():
    # --workload all runs each workload with tracing off and on, and fails
    # unless every BENCHMARK.json metric is present with its unit, every
    # score checks out (error_rate 0) and each traced iteration's spans
    # form one tree under a single root, every child within its parent.
    done = subprocess.run([sys.executable, RUN, "--workload", "all", "--tiny",
                           "--seconds", "1"], capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "FAILED" not in done.stdout


def test_one_run_prints_the_result_last():
    done = subprocess.run([sys.executable, RUN, "--workload", "pair_200k", "--tiny",
                           "--seed", "3", "--seconds", "0.5", "--trace", "0"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pair_200k",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
