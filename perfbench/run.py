"""tcdm benchmark: one workload per process, timed with tracing off or on.

    python3 perfbench/run.py --workload pair_200k --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40   # every metric
    python3 perfbench/run.py --workload all --tiny --seconds 1      # smoke check

A run builds its inputs from the seed (untimed set-up, repeated and
reported as its median), then repeats the workload's iteration until the
time is used, checking every score. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates plain and traced iterations and prints the
per-layer metrics read off the traced iterations' spans. The last line of
standard output is the result as one JSON object. Workloads, seeds and why
each was chosen are in ``perfbench/workloads.json``.

The tcdm under test is the one in ``src/`` beside this directory; without
it the run fails before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

with open(os.path.join(HERE, "workloads.json")) as _fh:
    META = json.load(_fh)
DEFAULT_SEED = META["default_seed"]

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "prepare_s": "s",
    "score_s": "s",
    "batch_cold_s": "s",
    "batch_warm_s": "s",
    "pairs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

SETUP_REPEATS = 5


class TraceError(RuntimeError):
    """The spans of a traced iteration do not form one nested tree."""


def _import_tcdm():
    if not os.path.isfile(os.path.join(SRC, "tcdm", "__init__.py")):
        sys.exit(f"perfbench: no tcdm sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)


def _check_tree(tree) -> None:
    roots = tree.roots()
    if len(roots) != 1 or roots[0].name != "bench.iteration":
        raise TraceError(f"expected one bench.iteration root, got {[r.name for r in roots]}")
    for s in tree.spans:
        parent = tree.by_id.get(s.parent)
        if parent is not None and not (parent.start <= s.start and s.end <= parent.end):
            raise TraceError(f"span {s.name} outlives its parent {parent.name}")


def _load_golden(scale: str, workload: str, seed: int):
    with open(os.path.join(HERE, "golden.json")) as fh:
        return json.load(fh).get(scale, {}).get(workload, {}).get(str(seed))


class Run:
    """Counts attempted and failed scoring operations across a run."""

    def __init__(self, workload, recorded):
        self.workload = workload
        self.recorded = recorded
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_qs = None

    def account(self, it, label: str) -> None:
        problems = self.workload.check(it, self.recorded)
        if self.first_qs is None:
            self.first_qs = it.qs
        elif it.qs != self.first_qs:   # bit for bit, traced or not
            problems.append(f"scores {it.qs!r} differ from the first iteration's")
        self.attempted += it.ops
        if problems:
            self.failed += it.ops
            self.problems.extend(f"{label}: {p}" for p in problems)

    def crashed(self, label: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{label}: {traceback.format_exc()}")


def _traced_iteration(workload, inputs):
    from spans import SpanTree, Tracer, install
    tracer = Tracer()
    with install(tracer):
        start = time.perf_counter()
        with tracer.span("bench.iteration"):
            it = workload.iterate(inputs, tracer)
        wall = time.perf_counter() - start
    tree = SpanTree(tracer.spans)
    _check_tree(tree)
    return it, tree, wall


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool, workdir: str):
    from layers import PER_LAYER, layer_metrics
    from workloads import build

    workload = build(name, tiny)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.setup(seed, workdir)
        setup_times.append(time.perf_counter() - start)

    scale = "tiny" if tiny else "full"
    recorded = _load_golden(scale, name, seed)
    print(f"scores recorded for {scale} {name} seed {seed}: {'yes' if recorded else 'no'}")
    run = Run(workload, recorded)
    plain, traced = [], []
    start = time.perf_counter()
    try:
        while True:
            it = workload.iterate(inputs)
            run.account(it, f"iteration {len(plain)}")
            plain.append(it)
            if trace:
                it, tree, wall = _traced_iteration(workload, inputs)
                run.account(it, f"traced iteration {len(traced)}")
                traced.append((tree, wall))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(plain) > seconds:
                break
    except TraceError:
        raise
    except Exception:
        run.crashed(f"iteration {len(plain)}")

    # The scores of a fixed small case, recorded from the seed commit, are
    # checked whatever seed this run was given.
    if not tiny:
        pin = build(name, tiny=True)
        pin_run = Run(pin, _load_golden("tiny", name, DEFAULT_SEED))
        try:
            pin_run.account(pin.iterate(pin.setup(DEFAULT_SEED, os.path.join(workdir, "pin"))),
                            "pinned case")
        except Exception:
            pin_run.crashed("pinned case")
        run.attempted += pin_run.attempted
        run.failed += pin_run.failed
        run.problems += pin_run.problems

    if trace:
        per_iteration = [layer_metrics(tree) for tree, _ in traced]
        values = {k: statistics.median(m[k] for m in per_iteration)
                  for k in (per_iteration[0] if per_iteration else ())}
        if traced:
            # traced over plain iteration wall, both timed by the benchmark
            values["trace.overhead_share"] = (
                statistics.median(w for _, w in traced)
                / statistics.median(it.wall_s for it in plain) - 1.0)
            values["trace.spans"] = statistics.median(len(tree.spans) for tree, _ in traced)
        values["error_rate"] = run.failed / max(run.attempted, 1)
        units = PER_LAYER
    else:
        def med(attr):
            return statistics.median(getattr(it, attr) for it in plain) if plain else 0.0
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": med("wall_s"),
            "prepare_s": med("prepare_s"),
            "score_s": med("score_s"),
            "batch_cold_s": med("batch_cold_s"),
            "batch_warm_s": med("batch_warm_s"),
            "pairs_per_s": (statistics.median(it.pairs / it.batch_cold_s for it in plain)
                            if plain else 0.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    metrics = {k: {"value": values.get(k, 0.0), "unit": u} for k, u in units.items()}
    print(f"iterations: {len(plain)} plain, {len(traced)} traced; plain walls "
          + " ".join(f"{it.wall_s:.3f}" for it in plain) + " s; traced walls "
          + " ".join(f"{w:.3f}" for _, w in traced) + " s")
    for p in run.problems:
        print(f"problem: {p}")
    return {"correct": run.failed == 0 and not run.problems,
            "attempted": max(run.attempted, 1), "failed": run.failed, "metrics": metrics}


def _print_table(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:15s} {name:38s} {m['value']:>16.6g} {m['unit']}")


def run_all(args) -> int:
    """Every workload in its own process, tracing off then on; checks that
    each result names every metric of BENCHMARK.json with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    bad = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                bad.append(f"{w} trace {trace}: exit {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(lines[-1])
            _print_table(w, result)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want[trace]:
                bad.append(f"{w} trace {trace}: metrics {got} != {want[trace]}")
            if not result["correct"] or result["failed"]:
                bad.append(f"{w} trace {trace}: incorrect\n" + "\n".join(lines[:-1]))
            if trace and result["metrics"]["error_rate"]["value"] != 0:
                bad.append(f"{w} trace {trace}: error_rate != 0")
            for k, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                    bad.append(f"{w} trace {trace}: {k} = {m['value']!r}")
    for b in bad:
        print(f"FAILED {b}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small clouds, for checking the benchmark itself")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    _import_tcdm()
    import machine
    print("machine: " + json.dumps(machine.record(ROOT, args.seed), sort_keys=True))
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")

    work_root = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.tiny, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    _print_table(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
