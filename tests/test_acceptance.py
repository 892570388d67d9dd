"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py`. Criterion 11 needs a real
database manifest (TCDM_SJTU_MANIFEST environment variable) and is skipped
without one.
"""

import multiprocessing
import os
import sys
import time

import numpy as np
import pytest

import tcdm.metric
from tcdm.config import MetricConfig
from tcdm.evaluation import f_test, fit_logistic5, logistic5, plcc, rmse, run_benchmark, srocc
from tcdm.features import complexity_similarity, prediction_similarity
from tcdm.metric import prepare_reference, score, score_with_reference
from tcdm.pointcloud import DegradationSpec, PointCloud, degrade
from tcdm.savar import _weights_from_distances, fit_savar, sigmoid_distance_values
from tcdm.segmentation import nearest_seed_labels, select_seeds, split_patches
from tcdm.synthetic import noisy_torus_cloud, plane_cloud, sphere_cloud

from oracles import (kron_solve, pinv_predictions, rmse_oracle, spearman_oracle,
                     spearman_rank_formula)

SEED = 20240801


def _report(criterion, detail):
    print(f"\n[criterion {criterion}] PASS: {detail}")


# --------------------------------------------------------------------------
# criterion 1: partition soundness on 20 random cloud pairs in < 5 s
# --------------------------------------------------------------------------

def test_criterion_01_partition_soundness():
    rng = np.random.default_rng(SEED)
    sizes = np.unique(np.geomspace(1_000, 100_000, 20).astype(int))
    while len(sizes) < 20:
        sizes = np.append(sizes, sizes[-1])
    start = time.perf_counter()
    for trial, n in enumerate(sizes):
        m = int(n * rng.uniform(0.7, 1.1))
        ref = PointCloud(rng.uniform(-50, 50, size=(n, 3)),
                         rng.integers(0, 256, size=(n, 3)).astype(float))
        dist = PointCloud(rng.uniform(-50, 50, size=(m, 3)),
                          rng.integers(0, 256, size=(m, 3)).astype(float))
        sp = select_seeds(ref, min(400, n), strategy="random", rng_seed=trial)
        for cloud in (ref, dist):
            labels = nearest_seed_labels(cloud.positions, sp)
            patches = split_patches(cloud.positions, cloud.colors, labels, sp)
            assert sum(p.count for p in patches) == cloud.count
            # every point once, in its own cell, at its seed-relative position
            rel = cloud.positions - sp[labels]
            order = np.lexsort((*cloud.colors.T[::-1], *rel.T[::-1], labels))
            want = np.hstack([rel, cloud.colors])[order]
            got = np.vstack([np.hstack([p.positions, p.colors]) for p in patches])
            assert got.tobytes() == want.tobytes()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"partition suite took {elapsed:.2f}s"
    _report(1, f"20 pairs partitioned exactly in {elapsed:.2f}s")


# --------------------------------------------------------------------------
# criterion 2: least-squares oracle, 200 random + planted instances
# --------------------------------------------------------------------------

def test_criterion_02_least_squares_oracle():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(70, 501))
        design = rng.normal(size=(n, 60))
        targets = rng.normal(size=(n, 3))
        fit = fit_savar(targets, design, ridge=0.0)
        want = pinv_predictions(design, targets)
        rel = np.linalg.norm(fit.predictions - want) / np.linalg.norm(want)
        worst = max(worst, rel)
        assert rel < 1e-8
    worst_resid = 0.0
    for _ in range(40):
        n = int(rng.integers(70, 501))
        design = rng.normal(size=(n, 60))
        theta0 = rng.normal(size=(3, 60))
        fit = fit_savar(design @ theta0.T, design, ridge=0.0)
        resid = float(np.linalg.norm(design @ theta0.T - fit.predictions))
        worst_resid = max(worst_resid, resid)
        assert resid <= 1e-9
    _report(2, f"200 instances, max rel err {worst:.2e}; planted residual max {worst_resid:.2e}")


# --------------------------------------------------------------------------
# criterion 3: per-channel solves equal the vectorized Kronecker solve
# --------------------------------------------------------------------------

def test_criterion_03_kronecker_equivalence():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(65, 160))
        design = rng.normal(size=(n, 60))
        targets = rng.normal(size=(n, 3))
        fit = fit_savar(targets, design, ridge=0.0)
        want = kron_solve(design, targets)
        err = float(np.abs(fit.predictions - want).max())
        worst = max(worst, err)
        assert err < 1e-10
    _report(3, f"50 instances, max per-entry gap {worst:.2e}")


# --------------------------------------------------------------------------
# criterion 4: spatial weight contract
# --------------------------------------------------------------------------

def test_criterion_04_weight_contract():
    rng = np.random.default_rng(SEED + 3)
    dist = rng.uniform(0.0, 40.0, size=(200, 20))
    raw = sigmoid_distance_values(dist)
    assert raw.min() >= 0.5
    assert raw.max() < 1.0
    for _ in range(50):
        nb = rng.uniform(-10, 10, size=(20, 3))
        q = rng.uniform(-10, 10, size=3)
        d = np.sqrt(((nb - q) ** 2).sum(axis=1))[None, :]
        w = _weights_from_distances(d, "sigmoid_proposed", "std")
        assert abs(w.sum() - 1.0) < 1e-12
    w_flat = _weights_from_distances(np.ones((1, 20)), "sigmoid_proposed", "std")
    assert np.allclose(w_flat, 1.0 / 20, atol=1e-15)
    _report(4, "raw values in [0.5, 1), normalized sums within 1e-12, uniform at zero spread")


# --------------------------------------------------------------------------
# criterion 5: similarity identities
# --------------------------------------------------------------------------

def test_criterion_05_similarity_identities():
    for c in (0.0, 1e-9, 1.0, 1e9):
        assert complexity_similarity(c, c, 1e-6) == 1.0
    rng = np.random.default_rng(SEED + 4)
    field = rng.uniform(0, 10, size=(50, 20))
    assert prediction_similarity(field, field.copy(), 1e-6) == 1.0
    anti = -field + 25.0
    assert prediction_similarity(field, anti, 1e-6) <= -0.999
    _report(5, "equal complexities and identical fields give 1; anti-correlated <= -0.999")


# --------------------------------------------------------------------------
# criterion 6: invariance suite
# --------------------------------------------------------------------------

def _rough_sphere(n, seed, radius=150.0, roughness=3.0):
    base = sphere_cloud(n, seed, radius=radius)
    rng = np.random.default_rng(seed + 1000)
    return PointCloud(base.positions + rng.normal(0, roughness, size=(n, 3)), base.colors)


def test_criterion_06_invariances(monkeypatch):
    # pool every patch at threads > 1, whatever the patch size
    monkeypatch.setattr(tcdm.metric, "_POOL_MIN_SLOTS", 0)
    cfg = MetricConfig(seeds=25)
    ref = _rough_sphere(6000, 3)
    dist = degrade(ref, DegradationSpec("geometry_gaussian", 1.5, 5))
    q0 = score(ref, dist, cfg, threads=1).q

    shift = np.array([12.25, -7.5, 3.0])
    q_shift = score(PointCloud(ref.positions + shift, ref.colors),
                    PointCloud(dist.positions + shift, dist.colors), cfg, threads=1).q
    t_drift = abs(q_shift - q0)
    assert t_drift <= 1e-9

    s_drift = 0.0
    for s in (0.5, 2.0, 10.0):
        qs = score(PointCloud(ref.positions * s, ref.colors),
                   PointCloud(dist.positions * s, dist.colors), cfg, threads=1).q
        s_drift = max(s_drift, abs(qs - q0))
        assert abs(qs - q0) <= 1e-3

    rng = np.random.default_rng(SEED + 5)
    pr, pd = rng.permutation(ref.count), rng.permutation(dist.count)
    q_perm = score(PointCloud(ref.positions[pr], ref.colors[pr]),
                   PointCloud(dist.positions[pd], dist.colors[pd]), cfg, threads=1).q
    p_drift = abs(q_perm - q0)
    assert p_drift <= 1e-12

    assert score(ref, dist, cfg, threads=4).q == q0
    assert score(ref, dist, cfg, threads=8).q == q0
    _report(6, f"translation {t_drift:.1e}, scale {s_drift:.1e}, "
               f"permutation {p_drift:.1e}, thread counts bit-exact")


# --------------------------------------------------------------------------
# criteria 7 and 8: monotonicity and self-comparison at full scale
# --------------------------------------------------------------------------

_SHAPE_BUILDERS = {
    "plane": lambda: plane_cloud(100_000, 11, extent=600.0),
    "sphere": lambda: sphere_cloud(100_000, 12, radius=300.0),
    "torus": lambda: noisy_torus_cloud(100_000, 13, major=300.0, minor=90.0, noise=2.0),
}

_WORKER_DATA = {}


def _sweep_specs(cloud):
    diag = float(np.linalg.norm(cloud.positions.max(0) - cloud.positions.min(0)))
    return {
        "geometry_gaussian": [0.005 * diag, 0.01 * diag, 0.02 * diag],
        "color_noise": [5.0, 15.0, 30.0],
        "downsample": [0.9, 0.6, 0.3],
    }


def _score_variant(job):
    shape, kind, level, seed = job
    ref, state = _WORKER_DATA[shape]
    distorted = degrade(ref, DegradationSpec(kind, level, seed))
    return job, score_with_reference(state, distorted, threads=1).q


@pytest.fixture(scope="module")
def monotonicity_scores():
    config = MetricConfig()
    jobs = []
    for shape, build in _SHAPE_BUILDERS.items():
        ref = build()
        state = prepare_reference(ref, config)
        _WORKER_DATA[shape] = (ref, state)
        for kind, levels in _sweep_specs(ref).items():
            for level in levels:
                for seed in range(5):
                    jobs.append((shape, kind, level, seed))
    start = time.perf_counter()
    if sys.platform.startswith("linux"):
        workers = min(os.cpu_count() or 1, 4)
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            results = pool.map(_score_variant, jobs, chunksize=4)
    else:  # pragma: no cover - non-forking platforms run serially
        results = [_score_variant(job) for job in jobs]
    elapsed = time.perf_counter() - start
    scores = {job: q for job, q in results}
    self_scores = {shape: score_with_reference(state, ref, threads=1).q
                   for shape, (ref, state) in _WORKER_DATA.items()}
    return scores, self_scores, elapsed


def test_criterion_07_monotonicity(monotonicity_scores):
    scores, _, elapsed = monotonicity_scores
    for shape in _SHAPE_BUILDERS:
        ref, _ = _WORKER_DATA[shape]
        for kind, levels in _sweep_specs(ref).items():
            means = [np.mean([scores[(shape, kind, lvl, s)] for s in range(5)])
                     for lvl in levels]
            assert means[0] > means[1] > means[2], (
                f"{shape}/{kind}: {means} not strictly decreasing")
    assert elapsed < 180.0, f"monotonicity sweep took {elapsed:.0f}s"
    _report(7, f"27 sweeps strictly decreasing; 135 runs in {elapsed:.0f}s")


def test_criterion_08_self_comparison(monotonicity_scores):
    scores, self_scores, _ = monotonicity_scores
    for shape in _SHAPE_BUILDERS:
        best_degraded = max(q for (s, _, _, _), q in scores.items() if s == shape)
        assert self_scores[shape] > best_degraded, (
            f"{shape}: self {self_scores[shape]} vs best degraded {best_degraded}")
    _report(8, "Q(X, X) exceeds every degraded variant on all shapes")


# --------------------------------------------------------------------------
# criterion 9: statistics oracles
# --------------------------------------------------------------------------

def test_criterion_09_statistics():
    a = [1.0, 2.0, 3.0, 4.0, 5.0]
    for b in ([1.0, 3.0, 2.0, 5.0, 4.0], [1.0, 2.0, 5.0, 3.0, 4.0]):
        assert abs(srocc(a, b) - spearman_rank_formula(a, b)) <= 1e-12
    assert abs(srocc(a, [1.0, 2.0, 5.0, 3.0, 4.0]) - 0.7) <= 1e-12

    rng = np.random.default_rng(SEED + 6)
    for _ in range(20):
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        assert abs(srocc(x, y) - spearman_oracle(x, y)) <= 1e-12
        assert abs(rmse(x, y) - rmse_oracle(x, y)) <= 1e-12
        da, db = x - x.mean(), y - y.mean()
        want_plcc = (da * db).sum() / np.sqrt((da * da).sum() * (db * db).sum())
        assert abs(plcc(x, y) - want_plcc) <= 1e-12

    q = np.sort(rng.uniform(0.0, 1.0, size=80))
    beta = [3.0, 7.5, 0.5, 0.4, 2.0]
    mos = logistic5(q, beta)
    _, mapped = fit_logistic5(q, mos)
    fit_rmse = rmse(mapped, mos)
    assert fit_rmse <= 1e-4

    small = rng.normal(0, 0.01, size=200)
    big = rng.normal(0, 1.0, size=200)
    assert f_test(small, big) == 1
    assert f_test(big, small) == 0
    assert f_test(small, small) == 0
    _report(9, f"rank/linear/rmse oracles at 1e-12; planted logistic rmse {fit_rmse:.1e}; "
               "F-test one-sided")


# --------------------------------------------------------------------------
# criterion 10: performance band for a ~2e5-point pair with defaults
# --------------------------------------------------------------------------

def test_criterion_10_performance():
    ref = _rough_sphere(200_000, 21, radius=500.0, roughness=2.0)
    dist = degrade(ref, DegradationSpec("geometry_gaussian", 3.0, 2))
    config = MetricConfig()

    start = time.perf_counter()
    q1 = score(ref, dist, config, threads=1).q
    single = time.perf_counter() - start
    assert single < 60.0, f"single-threaded scoring took {single:.1f}s"

    start = time.perf_counter()
    q8 = score(ref, dist, config, threads=8).q
    eight = time.perf_counter() - start
    assert eight < 15.0, f"8-worker scoring took {eight:.1f}s"
    assert q1 == q8
    _report(10, f"200k-pair scored in {single:.1f}s single-threaded, {eight:.1f}s with 8 workers")


# --------------------------------------------------------------------------
# criterion 11: full-database reproduction (optional, data-dependent)
# --------------------------------------------------------------------------

@pytest.mark.skipif("TCDM_SJTU_MANIFEST" not in os.environ,
                    reason="SJTU-PCQA manifest not available (set TCDM_SJTU_MANIFEST)")
def test_criterion_11_database_reproduction(tmp_path):
    manifest = os.environ["TCDM_SJTU_MANIFEST"]
    summary = run_benchmark(manifest, MetricConfig(), tmp_path / "sjtu_report.csv")
    assert summary.srocc >= 0.89, f"pooled SROCC {summary.srocc:.4f} below 0.89"
    _report(11, f"SJTU pooled SROCC {summary.srocc:.4f} (n={summary.n})")
