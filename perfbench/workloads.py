"""The benchmark's workloads: seeded inputs, one timed iteration, checks.

Every input is a pure function of the workload seed. An iteration returns
its timings and the scores it produced; ``check`` compares those scores
with the values recorded from the seed commit and with the workload's own
invariants, and returns the list of problems found (empty when correct).
"""

from __future__ import annotations

import csv
import json
import os
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import tcdm.evaluation
import tcdm.metric
from tcdm import DegradationSpec, MetricConfig, PointCloud, degrade, save_ply
from tcdm.evaluation import _sha256_file   # bound here, so traces never see it
from tcdm.synthetic import sphere_cloud

from spans import STAGES, Tracer, install

# Relative tolerance against recorded scores: bit-exact on the recording
# machine, at most this far apart on another BLAS or CPU.
GOLDEN_RTOL = 1e-12


@dataclass
class Iteration:
    """Timings (seconds) and scores of one timed iteration."""

    wall_s: float
    prepare_s: float
    score_s: float          # median per distorted cloud
    batch_cold_s: float
    batch_warm_s: float     # median of the warm passes
    pairs: int              # distorted clouds scored in the cold part
    qs: list
    ops: int                # scoring operations attempted
    problems: list = field(default_factory=list)


def substream(seed: int, stream: int) -> int:
    """A generator seed of its own for each random draw of one workload
    seed: ``sphere_cloud`` and ``degrade`` both seed PCG64 with a plain
    integer, so reusing the workload seed would correlate their draws."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def rough_sphere(n: int, seed: int, radius: float, roughness: float) -> PointCloud:
    """A sphere surface with isotropic Gaussian jitter: no flat patches."""
    base = sphere_cloud(n, seed, radius=radius)
    rng = np.random.Generator(np.random.PCG64(substream(seed, 1)))
    return PointCloud(base.positions + rng.normal(0.0, roughness, size=(n, 3)), base.colors)


def _close(q: float, recorded: str) -> bool:
    want = float(recorded)
    return abs(q - want) <= GOLDEN_RTOL * abs(want)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


class PairWorkload:
    """Prepare one reference and score one distorted copy of it."""

    def __init__(self, name: str, points: int, config: MetricConfig, threads: int):
        self.name = name
        self.points = points
        self.config = config
        self.threads = threads

    def setup(self, seed: int, workdir: str):
        ref = rough_sphere(self.points, seed, radius=500.0, roughness=2.0)
        dist = degrade(ref, DegradationSpec("geometry_gaussian", 3.0, substream(seed, 2)))
        return ref, dist

    def iterate(self, inputs, tracer=None) -> Iteration:
        ref, dist = inputs
        state, prepare_s = _timed(tcdm.metric.prepare_reference, ref, self.config)
        report, score_s = _timed(tcdm.metric.score_with_reference, state, dist,
                                 threads=self.threads)
        cold = prepare_s + score_s
        # Cold: nothing reused, what `tcdm score` pays. Warm: the reference
        # prepared once, what each further distorted cloud costs.
        return Iteration(wall_s=cold, prepare_s=prepare_s, score_s=score_s,
                         batch_cold_s=cold, batch_warm_s=score_s, pairs=1,
                         qs=[report.q], ops=1)

    def check(self, it: Iteration, recorded) -> list:
        problems = []
        (q,) = it.qs
        if not 0.0 < q <= 1.0:
            problems.append(f"q={q!r} outside (0, 1]")
        if recorded is not None and not _close(q, recorded[0]):
            problems.append(f"q={q!r} differs from recorded {recorded[0]}")
        return problems


# Distortion rows of the manifest: (kind, mild, severe), each level given
# with its made-up rating (MOS). For downsample the level is the
# keep-fraction, so severe keeps fewer points. The ratings follow the kind
# and level alone, not the scores; run_benchmark refits the logistic on
# every pass, cached or not, and with these ratings the fit takes 44-69
# evaluations (14-31 ms) on every recorded seed at full size.
_MANIFEST_KINDS = (
    ("geometry_gaussian", (1.0, 4.5), (4.0, 3.5)),
    ("color_noise", (6.0, 4.0), (24.0, 2.0)),
    ("downsample", (0.7, 3.0), (0.35, 1.5)),
)


class ManifestWorkload:
    """``run_benchmark`` over PLY files: one cold pass, then cached passes."""

    name = "manifest_batch"

    def __init__(self, points: int, config: MetricConfig, threads: int, warm_passes: int):
        self.points = points
        self.config = config
        self.threads = threads
        self.warm_passes = warm_passes

    def setup(self, seed: int, workdir: str):
        ref = rough_sphere(self.points, seed, radius=400.0, roughness=2.0)
        os.makedirs(workdir, exist_ok=True)
        save_ply(ref, os.path.join(workdir, "ref.ply"))
        rows = []
        for k, (kind, *levels) in enumerate(_MANIFEST_KINDS):
            for j, (level, mos) in enumerate(levels):
                spec = DegradationSpec(kind, level, substream(seed, 2 + 2 * k + j))
                fname = f"{kind}_{j}.ply"
                save_ply(degrade(ref, spec), os.path.join(workdir, fname))
                rows.append(("ref.ply", fname, kind, mos))
        manifest = os.path.join(workdir, "manifest.csv")
        with open(manifest, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["reference", "distorted", "distortion_type", "mos"])
            writer.writerows(rows)
        return manifest, [os.path.join(workdir, r[1]) for r in rows]

    def iterate(self, inputs, tracer=None) -> Iteration:
        manifest, distorted = inputs
        report = manifest + ".report.csv"
        cache = report + ".scores.json"
        for path in (report, cache):
            if os.path.exists(path):
                os.remove(path)
        timing = nullcontext()
        if tracer is None:   # untraced: time the prepare and score stages alone
            tracer = Tracer()
            timing = install(tracer, STAGES)
        problems = []
        with timing, tracer.span("bench.cold"):
            summary, cold = _timed(tcdm.evaluation.run_benchmark, manifest, self.config,
                                   out_path=report, threads=self.threads)
        if summary.cache_hits != 0 or summary.n != len(distorted):
            problems.append(f"cold pass: {summary.n} rows, {summary.cache_hits} cache hits")
        warm = []
        for _ in range(self.warm_passes):
            with tracer.span("bench.warm") as s:
                again, dt = _timed(tcdm.evaluation.run_benchmark, manifest, self.config,
                                   out_path=report, threads=self.threads)
                s.attrs["cache_hits"] = again.cache_hits
            warm.append(dt)
            if again.cache_hits != len(distorted) or again.n != len(distorted):
                problems.append(f"warm pass: {again.n} rows, {again.cache_hits} cache hits")
        with open(cache) as fh:
            scores = json.load(fh)
        by_dist = {key.split(":")[1]: q for key, q in scores.items()}
        qs = [by_dist[_sha256_file(path)] for path in distorted]
        prepares = [s.duration for s in tracer.spans if s.name == "metric.prepare"]
        rows = [s.duration for s in tracer.spans if s.name == "metric.score"]
        return Iteration(wall_s=cold + sum(warm), prepare_s=prepares[0],
                         score_s=statistics.median(rows),
                         batch_cold_s=cold, batch_warm_s=statistics.median(warm),
                         pairs=len(distorted), qs=qs,
                         ops=len(distorted) * (1 + self.warm_passes), problems=problems)

    def check(self, it: Iteration, recorded) -> list:
        problems = list(it.problems)
        for k, (kind, _, _) in enumerate(_MANIFEST_KINDS):
            mild, severe = it.qs[2 * k], it.qs[2 * k + 1]
            if not severe < mild:
                problems.append(f"{kind}: severe q={severe!r} not below mild q={mild!r}")
        if recorded is not None:
            for i, (q, want) in enumerate(zip(it.qs, recorded)):
                if not _close(q, want):
                    problems.append(f"row {i}: q={q!r} differs from recorded {want}")
        return problems


def build(name: str, tiny: bool):
    """The named workload at full size, or its tiny form for smoke runs."""
    if name == "pair_200k":
        if tiny:
            return PairWorkload(name, 3_000, MetricConfig(seeds=20), threads=1)
        return PairWorkload(name, 200_000, MetricConfig(), threads=1)
    if name == "dense_seeds":
        if tiny:
            return PairWorkload(name, 4_000, MetricConfig(seeds=60, neighbors=10), threads=2)
        return PairWorkload(name, 120_000, MetricConfig(seeds=1200, neighbors=10), threads=2)
    if name == "manifest_batch":
        if tiny:
            return ManifestWorkload(3_000, MetricConfig(seeds=20), threads=2, warm_passes=3)
        return ManifestWorkload(100_000, MetricConfig(), threads=2, warm_passes=25)
    raise KeyError(name)


WORKLOADS = ("pair_200k", "dense_seeds", "manifest_batch")
