import csv
import dataclasses
import importlib
import json
import logging
import os
import re
import subprocess
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tcdm.metric
from tcdm import evaluation
from tcdm.config import MetricConfig
from tcdm.evaluation import (f_test, fit_logistic5, logistic5, plcc, rmse,
                             run_benchmark, srocc)
from tcdm.metric import score
from tcdm.pointcloud import DegradationSpec, degrade, load_ply, save_ply
from tcdm.synthetic import plane_cloud, sphere_cloud, noisy_torus_cloud

from oracles import (pearson_oracle, rmse_oracle, spearman_oracle,
                     spearman_rank_formula)


class TestCorrelations:
    def test_identity_pair(self, rng):
        a = rng.normal(size=30)
        assert plcc(a, a) == pytest.approx(1.0, abs=1e-12)
        assert srocc(a, a) == pytest.approx(1.0, abs=1e-12)
        assert rmse(a, a) == 0.0

    def test_reversed_distinct_gives_minus_one(self, rng):
        a = np.sort(rng.normal(size=25))
        assert srocc(a, a[::-1]) == pytest.approx(-1.0, abs=1e-12)

    def test_five_point_rank_cases(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0]
        # recomputed by the rank-formula oracle rather than asserted blind
        for b in ([1.0, 3.0, 2.0, 5.0, 4.0], [1.0, 2.0, 5.0, 3.0, 4.0]):
            assert srocc(a, b) == pytest.approx(spearman_rank_formula(a, b), abs=1e-12)
        assert srocc(a, [1.0, 2.0, 5.0, 3.0, 4.0]) == pytest.approx(0.7, abs=1e-12)

    def test_hand_verified_triples(self):
        a = np.array([0.0, 1.0, 2.0, 3.0])
        b = np.array([1.0, 3.0, 5.0, 7.0])
        assert plcc(a, b) == pytest.approx(1.0, abs=1e-12)
        assert rmse(a, b) == pytest.approx(rmse_oracle(a, b), abs=1e-12)
        c = np.array([2.0, 1.0, 4.0, 3.0])
        assert plcc(a, c) == pytest.approx(pearson_oracle(a, c), abs=1e-12)
        assert srocc(a, c) == pytest.approx(spearman_oracle(a, c), abs=1e-12)

    def test_ties_use_average_ranks(self):
        a = [1.0, 1.0, 2.0, 3.0]
        b = [10.0, 20.0, 30.0, 40.0]
        assert srocc(a, b) == pytest.approx(spearman_oracle(a, b), abs=1e-12)

    @given(seed=st.integers(0, 9999))
    @settings(max_examples=30, deadline=None)
    def test_srocc_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=20)
        b = rng.normal(size=20)
        base = srocc(a, b)
        assert srocc(np.exp(a), b) == pytest.approx(base, abs=1e-12)
        assert srocc(a, 3.0 * b + 7.0) == pytest.approx(base, abs=1e-12)

    @given(seed=st.integers(0, 9999))
    @settings(max_examples=30, deadline=None)
    def test_plcc_invariant_under_positive_affine(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=20)
        b = rng.normal(size=20)
        base = plcc(a, b)
        assert plcc(2.0 * a + 5.0, b) == pytest.approx(base, abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            plcc([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            plcc([1.0, 1.0], [2.0, 3.0])
        with pytest.raises(ValueError):
            srocc([1.0], [1.0])


class TestLogisticFit:
    def test_planted_parameters_recovered(self, rng):
        q = np.sort(rng.uniform(0.0, 1.0, size=60))
        beta = [2.5, 8.0, 0.45, 0.6, 3.0]
        mos = logistic5(q, beta)
        _, mapped = fit_logistic5(q, mos)
        assert rmse(mapped, mos) <= 1e-4

    def test_linear_relation_fits_exactly(self, rng):
        q = rng.uniform(0.0, 5.0, size=40)
        mos = 2.0 * q + 1.0
        _, mapped = fit_logistic5(q, mos)
        assert plcc(mapped, mos) == pytest.approx(1.0, abs=1e-9)

    def test_fit_never_worse_than_identity_start(self, rng):
        for seed in range(5):
            local = np.random.default_rng(seed)
            q = local.uniform(0.0, 1.0, size=25)
            mos = local.uniform(1.0, 5.0, size=25)
            spread = q.std()
            x0 = np.array([mos.max() - mos.min(), 1.0 / spread, q.mean(), 0.0, mos.mean()])
            initial = ((logistic5(q, x0) - mos) ** 2).sum()
            _, mapped = fit_logistic5(q, mos)
            assert ((mapped - mos) ** 2).sum() <= initial + 1e-12

    def test_rejects_constant_or_short_input(self):
        with pytest.raises(ValueError):
            fit_logistic5(np.ones(10), np.arange(10.0))
        with pytest.raises(ValueError):
            fit_logistic5(np.arange(5.0), np.arange(5.0))


class TestFTest:
    def test_identical_residuals(self, rng):
        r = rng.normal(size=50)
        assert f_test(r, r) == 0

    def test_separated_variances(self, rng):
        small = rng.normal(0.0, 0.01, size=200)
        big = rng.normal(0.0, 1.0, size=200)
        assert f_test(small, big) == 1
        assert f_test(big, small) == 0

    def test_degenerate_variance(self):
        with pytest.raises(ValueError):
            f_test([1.0, 2.0], [3.0, 3.0])


_DEFERRED_SCIPY = """
import json, sys
import numpy as np
import tcdm, tcdm.cli
from tcdm.synthetic import sphere_cloud

def statistics_modules():
    return sorted(m for m in sys.modules if m.startswith(("scipy.stats", "scipy.optimize")))

ref = sphere_cloud(600, 2, radius=50.0)
dist = tcdm.degrade(ref, tcdm.DegradationSpec("geometry_gaussian", 1.0, 3))
tcdm.score(ref, dist, tcdm.MetricConfig(seeds=8, neighbors=4), threads=1)
after_score = statistics_modules()
q = np.linspace(0.0, 1.0, 10)
mos = 1.0 + 4.0 / (1.0 + np.exp(-6.0 * (q - 0.5))) + 0.1 * np.sin(7.0 * q)
r = np.sin(np.arange(12.0))
params, _ = tcdm.fit_logistic5(q, mos)
print(json.dumps({
    "after_score": after_score,
    "srocc": [tcdm.srocc([0.1, 0.35, 0.2, 0.8, 0.55, 0.9, 0.4, 0.65],
                         [1.2, 1.9, 2.1, 4.4, 3.0, 3.9, 2.5, 4.8]),
              tcdm.srocc([1, 2, 2, 3], [4, 1, 1, 2])],
    "f_test": [tcdm.f_test(0.2 * r, r), tcdm.f_test(r, 0.2 * r), tcdm.f_test(0.9 * r, r)],
    "logistic": [float(b) for b in (params.beta1, params.beta2, params.beta3,
                                    params.beta4, params.beta5)],
    "after_statistics": bool(statistics_modules()),
}))
"""


def test_scoring_never_loads_scipy_statistics():
    # a fresh interpreter: pytest plugins may have imported SciPy here already
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    run = subprocess.run([sys.executable, "-c", _DEFERRED_SCIPY],
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert out["after_score"] == []
    assert out["after_statistics"]
    # the values these inputs gave while the statistics imported SciPy up front
    assert out["srocc"] == [0.8809523809523809, -0.3333333333333333]
    assert out["f_test"] == [1, 0, 0]
    assert out["logistic"] == pytest.approx([2.9987348780633365, 5.810130739559764,
                                             0.5204340564476898, 1.003952152965983,
                                             2.5553105142303436], rel=1e-9)


def _build_manifest(tmp_path, rows):
    manifest = tmp_path / "manifest.csv"
    with open(manifest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["reference", "distorted", "distortion_type", "mos"])
        writer.writerows(rows)
    return manifest


@pytest.fixture(scope="module")
def synthetic_benchmark(tmp_path_factory):
    """Three shapes, four noise levels each, MOS = -level."""
    tmp_path = tmp_path_factory.mktemp("bench")
    config = MetricConfig(seeds=10, neighbors=8)
    rows = []
    shapes = {"plane": plane_cloud(1200, 1, extent=200.0),
              "sphere": sphere_cloud(1200, 2, radius=100.0),
              "torus": noisy_torus_cloud(1200, 3, major=80.0, minor=25.0, noise=1.0)}
    for name, ref in shapes.items():
        ref_path = tmp_path / f"{name}.ply"
        save_ply(ref, ref_path)
        diag = np.linalg.norm(ref.positions.max(0) - ref.positions.min(0))
        for i, frac in enumerate((0.002, 0.01, 0.03, 0.08)):
            out = tmp_path / f"{name}_ggn{i}.ply"
            save_ply(degrade(ref, DegradationSpec("geometry_gaussian", frac * diag, i)), out)
            rows.append([f"{name}.ply", out.name, name, -float(i)])
    manifest = _build_manifest(tmp_path, rows)
    return tmp_path, manifest, config


class TestRunBenchmark:
    def test_constructed_ground_truth(self, synthetic_benchmark):
        tmp_path, manifest, config = synthetic_benchmark
        out = tmp_path / "report.csv"
        summary = run_benchmark(manifest, config, out, threads=1)
        assert summary.n == 12
        assert not summary.degenerate
        # within each shape, Q must rank exactly with MOS = -level
        for shape in ("plane", "sphere", "torus"):
            value, count = summary.per_type[shape]
            assert count == 4
            assert value == pytest.approx(1.0, abs=1e-12)
        assert summary.srocc > 0.5

    def test_report_file_structure(self, synthetic_benchmark):
        tmp_path, manifest, config = synthetic_benchmark
        out = tmp_path / "report.csv"
        run_benchmark(manifest, config, out, threads=1)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "reference,distorted,distortion_type,mos,q,mapped_q"
        assert len([l for l in lines if l and not l.startswith("summary")]) == 13
        assert any(l.startswith("summary_global,plcc") for l in lines)
        assert any(l.startswith("summary_per_type,sphere") for l in lines)

    def test_cache_hits_on_rerun(self, synthetic_benchmark):
        tmp_path, manifest, config = synthetic_benchmark
        out = tmp_path / "report.csv"
        first = run_benchmark(manifest, config, out, threads=1)
        report = out.read_bytes()
        again = run_benchmark(manifest, config, out, threads=1)
        assert again.cache_hits == again.n == 12
        assert out.read_bytes() == report
        assert again.srocc == pytest.approx(first.srocc, abs=1e-15)
        cache = json.loads((tmp_path / "report.csv.scores.json").read_text())
        assert len(cache) == 12

    def test_cache_key_includes_config(self, synthetic_benchmark):
        tmp_path, manifest, config = synthetic_benchmark
        out = tmp_path / "report2.csv"
        run_benchmark(manifest, config, out, threads=1)
        other = MetricConfig(seeds=12, neighbors=8)
        second = run_benchmark(manifest, other, out, threads=1)
        assert second.cache_hits == 0

    def test_degenerate_self_manifest(self, tmp_path):
        ref = sphere_cloud(600, 5, radius=100.0)
        save_ply(ref, tmp_path / "ref.ply")
        rows = [["ref.ply", "ref.ply", "self", 4.0] for _ in range(3)]
        manifest = _build_manifest(tmp_path, rows)
        summary = run_benchmark(manifest, MetricConfig(seeds=8, neighbors=6),
                                tmp_path / "r.csv", threads=1)
        assert summary.degenerate
        assert np.isnan(summary.srocc)

    def test_unreadable_rows_skipped(self, tmp_path):
        ref = sphere_cloud(600, 6, radius=100.0)
        save_ply(ref, tmp_path / "ref.ply")
        noisy = degrade(ref, DegradationSpec("geometry_gaussian", 1.0, 1))
        save_ply(noisy, tmp_path / "d.ply")
        rows = [["ref.ply", "d.ply", "ggn", 3.0],
                ["ref.ply", "missing.ply", "ggn", 2.0]]
        manifest = _build_manifest(tmp_path, rows)
        summary = run_benchmark(manifest, MetricConfig(seeds=8, neighbors=6),
                                tmp_path / "r.csv", threads=1)
        assert summary.skipped_files == 1
        assert summary.n == 1

    @pytest.fixture
    def two_row_manifest(self, tmp_path):
        ref = sphere_cloud(600, 7, radius=100.0)
        save_ply(ref, tmp_path / "ref.ply")
        for i in range(2):
            noisy = degrade(ref, DegradationSpec("geometry_gaussian", 1.0 + i, i))
            save_ply(noisy, tmp_path / f"d{i}.ply")
        rows = [["ref.ply", f"d{i}.ply", "ggn", 3.0 - i] for i in range(2)]
        return _build_manifest(tmp_path, rows)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_file_hashed_once_per_run(self, tmp_path, two_row_manifest, monkeypatch,
                                           threads):
        hashed, lock = [], threading.Lock()
        original = evaluation._sha256_file

        def counting(path):
            with lock:
                hashed.append(path)
            return original(path)

        monkeypatch.setattr(evaluation, "_sha256_file", counting)
        config = MetricConfig(seeds=8, neighbors=6)
        for _ in range(2):   # cold, then cached
            hashed.clear()
            run_benchmark(two_row_manifest, config, tmp_path / "r.csv", threads=threads)
            assert len(hashed) == len(set(hashed)) == 3

    @pytest.mark.parametrize("other, files", [("./ref.ply", 7), ("copy.ply", 8)],
                             ids=["respelled", "byte_identical_copy"])
    def test_one_digest_per_file_and_one_prepare_per_reference_content(
            self, tmp_path, monkeypatch, other, files):
        ref = sphere_cloud(600, 7, radius=100.0)
        save_ply(ref, tmp_path / "ref.ply")
        (tmp_path / "copy.ply").write_bytes((tmp_path / "ref.ply").read_bytes())
        rows = []
        for i in range(6):
            save_ply(degrade(ref, DegradationSpec("geometry_gaussian", 1.0, i)),
                     tmp_path / f"d{i}.ply")
            rows.append([("ref.ply", other)[i % 2], f"d{i}.ply", "ggn", float(i)])
        manifest = _build_manifest(tmp_path, rows)
        hashed, prepared = [], []
        for name, calls in (("_sha256_file", hashed), ("prepare_reference", prepared)):
            original = getattr(evaluation, name)

            def counting(*args, original=original, calls=calls, **kwargs):
                calls.append(args[0])
                return original(*args, **kwargs)

            monkeypatch.setattr(evaluation, name, counting)
        summary = run_benchmark(manifest, MetricConfig(seeds=8, neighbors=6),
                                tmp_path / "r.csv", threads=1)
        assert (summary.n, len(prepared), len(hashed)) == (6, 1, files)
        with open(tmp_path / "r.csv", newline="") as fh:
            assert [r[0] for r in list(csv.reader(fh))[1:7]] == [r[0] for r in rows]

    def test_cache_keys_equal_at_one_and_two_threads(self, tmp_path, two_row_manifest):
        config = MetricConfig(seeds=8, neighbors=6)
        caches = []
        for threads in (1, 2):
            out = tmp_path / f"t{threads}.csv"
            run_benchmark(two_row_manifest, config, out, threads=threads)
            caches.append(json.loads((tmp_path / f"t{threads}.csv.scores.json").read_text()))
        assert len(caches[0]) == 2
        assert caches[1] == caches[0]

    def test_unreadable_files_skipped_alike_at_one_and_two_threads(self, tmp_path,
                                                                  two_row_manifest, caplog):
        rows = [["ref.ply", "d0.ply", "ggn", 3.0], ["ref.ply", "gone.ply", "ggn", 2.0],
                ["lost.ply", "d1.ply", "ggn", 1.0], ["ref.ply", "d1.ply", "ggn", 0.0],
                ["lost.ply", "gone.ply", "ggn", 1.5], ["ref.ply", "gone.ply", "ggn", 2.5]]
        manifest = _build_manifest(tmp_path, rows)
        config = MetricConfig(seeds=8, neighbors=6)
        runs = []
        for threads in (1, 2):
            caplog.clear()
            summary = run_benchmark(manifest, config, tmp_path / f"t{threads}.csv",
                                    threads=threads)
            warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
            runs.append((summary.skipped_files, summary.n, warnings))
        assert runs[1] == runs[0]
        skipped, n, warnings = runs[0]
        assert (skipped, n) == (4, 2)
        assert [w.split(":")[0] for w in warnings] == [
            "skipping unreadable pair (ref.ply, gone.ply)",
            "skipping unreadable pair (lost.ply, d1.ply)",
            "skipping unreadable pair (lost.ply, gone.ply)",
            "skipping unreadable pair (ref.ply, gone.ply)"]
        assert "gone.ply" in warnings[0] and "lost.ply" in warnings[1]

    def test_duplicated_rows(self, tmp_path, two_row_manifest, caplog, monkeypatch):
        rows = [["ref.ply", "d0.ply", "ggn", 3.0], ["ref.ply", "gone.ply", "ggn", 2.0],
                ["ref.ply", "d0.ply", "ggn", 1.0], ["ref.ply", "gone.ply", "ggn", 0.0]]
        manifest = _build_manifest(tmp_path, rows)
        config = MetricConfig(seeds=8, neighbors=6)
        scored = []
        original = evaluation.score_with_reference

        def counting(state, distorted, threads=None):
            scored.append(distorted.count)
            return original(state, distorted, threads=threads)

        monkeypatch.setattr(evaluation, "score_with_reference", counting)
        summary = run_benchmark(manifest, config, tmp_path / "r.csv", threads=1)
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert (summary.n, summary.skipped_files, summary.cache_hits) == (2, 2, 0)
        assert [w.split(":")[0] for w in warnings] == [
            "skipping unreadable pair (ref.ply, gone.ply)"] * 2
        assert len(scored) == 1   # the duplicated pair is scored once
        with open(tmp_path / "r.csv", newline="") as fh:
            report = list(csv.reader(fh))
        assert [r[:4] for r in report[1:3]] == [["ref.ply", "d0.ply", "ggn", "3.000000"],
                                                ["ref.ply", "d0.ply", "ggn", "1.000000"]]
        assert report[1][4:] == report[2][4:] and report[3] == []
        assert len(json.loads((tmp_path / "r.csv.scores.json").read_text())) == 1
        caplog.clear()
        again = run_benchmark(manifest, config, tmp_path / "r.csv", threads=2)
        assert (again.n, again.skipped_files, again.cache_hits) == (2, 2, 2)
        assert len(scored) == 1
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == warnings

    def test_missing_report_directory_fails_before_any_work(self, tmp_path, two_row_manifest,
                                                            monkeypatch):
        calls = []
        for name in ("_sha256_file", "load_ply", "prepare_reference", "score_with_reference"):
            monkeypatch.setattr(evaluation, name,
                                lambda *args, name=name, **kwargs: calls.append(name))
        out = tmp_path / "missing_dir" / "r.csv"
        with pytest.raises(ValueError, match=f"report directory {str(out.parent)!r} "
                                             "does not exist"):
            run_benchmark(two_row_manifest, MetricConfig(seeds=8, neighbors=6), out,
                          threads=1)
        assert calls == []
        assert not (tmp_path / "missing_dir").exists()

    def test_cached_rerun_leaves_score_cache_untouched(self, tmp_path, two_row_manifest):
        config = MetricConfig(seeds=8, neighbors=6)
        run_benchmark(two_row_manifest, config, tmp_path / "r.csv", threads=1)
        cache_path = tmp_path / "r.csv.scores.json"
        os.utime(cache_path, ns=(1_000_000_000, 1_000_000_000))
        before = cache_path.read_bytes()
        again = run_benchmark(two_row_manifest, config, tmp_path / "r.csv", threads=1)
        assert again.cache_hits == 2
        assert cache_path.stat().st_mtime_ns == 1_000_000_000
        assert cache_path.read_bytes() == before

    def test_crash_while_writing_cache_keeps_old_cache(self, tmp_path, two_row_manifest,
                                                       monkeypatch):
        config = MetricConfig(seeds=8, neighbors=6)
        run_benchmark(two_row_manifest, config, tmp_path / "r.csv", threads=1)
        cache_path = tmp_path / "r.csv.scores.json"
        before = cache_path.read_text()

        class CrashingJson:
            def __getattr__(self, name):
                return getattr(json, name)

            def dump(self, obj, fh, **kwargs):
                fh.write(json.dumps(obj)[:10])   # a torn write
                raise RuntimeError("crash mid-write")

        monkeypatch.setattr(evaluation, "json", CrashingJson())
        with pytest.raises(RuntimeError, match="crash mid-write"):
            run_benchmark(two_row_manifest, MetricConfig(seeds=9, neighbors=6),
                          tmp_path / "r.csv", threads=1)
        assert cache_path.read_text() == before
        assert len(json.loads(before)) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "d0.ply", "d1.ply", "manifest.csv", "r.csv", "r.csv.scores.json", "ref.ply"]

    def test_threads_default_follows_environment(self, tmp_path, two_row_manifest,
                                                 monkeypatch):
        # pool every patch, so that the prepare at two workers really runs two
        monkeypatch.setattr(tcdm.metric, "_POOL_MIN_SLOTS", 0)
        asked = []
        original = evaluation.prepare_reference

        def recording(reference, config, threads=None):
            asked.append(threads)
            return original(reference, config, threads=threads)

        monkeypatch.setattr(evaluation, "prepare_reference", recording)
        config = MetricConfig(seeds=8, neighbors=6)
        run_benchmark(two_row_manifest, config, tmp_path / "one.csv", threads=1)
        monkeypatch.setenv("TCDM_THREADS", "2")
        run_benchmark(two_row_manifest, config, tmp_path / "env.csv", threads=None)
        assert asked == [1, 2]
        one = json.loads((tmp_path / "one.csv.scores.json").read_text())
        env = json.loads((tmp_path / "env.csv.scores.json").read_text())
        assert len(one) == 2
        assert env == one

    @pytest.fixture
    def interleaved(self, tmp_path):
        """A manifest whose two references' rows interleave, and the cache
        it should leave: key -> score() of the pair as read back from disk."""
        config = MetricConfig(seeds=8, neighbors=6)
        want = {}
        for name, seed in (("a", 7), ("b", 8)):
            ref_path = tmp_path / f"{name}.ply"
            save_ply(sphere_cloud(600, seed, radius=100.0), ref_path)
            ref = load_ply(ref_path)
            for i in range(2):
                dist_path = tmp_path / f"{name}{i}.ply"
                save_ply(degrade(ref, DegradationSpec("geometry_gaussian", 1.0 + i, seed + i)),
                         dist_path)
                key = (f"{evaluation._sha256_file(ref_path)}:"
                       f"{evaluation._sha256_file(dist_path)}:{evaluation._config_digest(config)}")
                want[key] = score(ref, load_ply(dist_path), config, threads=1).q
        rows = [["a.ply", "a0.ply", "g", 1.0], ["b.ply", "b0.ply", "g", 2.0],
                ["a.ply", "a1.ply", "g", 3.0], ["b.ply", "b1.ply", "g", 4.0]]
        return _build_manifest(tmp_path, rows), config, want

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_prepared_reference_at_a_time(self, tmp_path, monkeypatch, interleaved,
                                              threads):
        manifest, config, want = interleaved
        states = []
        original = evaluation.prepare_reference

        def tracking(reference, config, threads=None):
            assert all(ref() is None for ref in states), "an earlier state is still held"
            state = original(reference, config, threads=threads)
            states.append(weakref.ref(state))
            return state

        monkeypatch.setattr(evaluation, "prepare_reference", tracking)
        run_benchmark(manifest, config, tmp_path / "r.csv", threads=threads)
        assert len(states) == 2
        assert json.loads((tmp_path / "r.csv.scores.json").read_text()) == want
        with open(tmp_path / "r.csv", newline="") as fh:
            report = list(csv.reader(fh))
        assert [r[1] for r in report[1:5]] == ["a0.ply", "b0.ply", "a1.ply", "b1.ply"]

    def test_rows_score_one_at_a_time_on_the_group_pool(self, tmp_path, monkeypatch,
                                                       interleaved):
        manifest, config, want = interleaved
        # every patch a group of its own, every call pooled at two workers
        monkeypatch.setattr(tcdm.metric, "_SLOTS", 0)
        monkeypatch.setattr(tcdm.metric, "_POOL_MIN_SLOTS", 0)
        pools = []

        class CountingPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(tcdm.metric, "ThreadPoolExecutor", CountingPool)
        calls, in_flight, lock = [], [0], threading.Lock()
        original = evaluation.score_with_reference

        def tracking(state, distorted, threads=None):
            with lock:
                in_flight[0] += 1
                calls.append((threading.get_ident(), threads, in_flight[0]))
            try:
                return original(state, distorted, threads=threads)
            finally:
                with lock:
                    in_flight[0] -= 1

        monkeypatch.setattr(evaluation, "score_with_reference", tracking)
        run_benchmark(manifest, config, tmp_path / "r.csv", threads=2)
        assert calls == [(threading.get_ident(), 2, 1)] * 4
        assert pools == [2] * 6   # two prepares and four scores, one pool each
        assert json.loads((tmp_path / "r.csv.scores.json").read_text()) == want

    def test_one_distorted_cloud_alive_at_a_time(self, tmp_path, monkeypatch, interleaved):
        manifest, config, _ = interleaved
        live, peak = [0], [0]
        original = evaluation.score_with_reference

        def released():
            live[0] -= 1

        def counting(state, distorted, threads=None):
            live[0] += 1
            weakref.finalize(distorted, released)
            peak[0] = max(peak[0], live[0])
            return original(state, distorted, threads=threads)

        monkeypatch.setattr(evaluation, "score_with_reference", counting)
        run_benchmark(manifest, config, tmp_path / "r.csv", threads=2)
        assert (peak[0], live[0]) == (1, 0)

    def test_benchmark_stage_spans(self, tmp_path, monkeypatch, interleaved):
        # the benchmark times a manifest pass by these spans alone
        manifest, config, _ = interleaved
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        spans = importlib.import_module("spans")
        tracer = spans.Tracer()
        with spans.install(tracer, spans.STAGES):
            run_benchmark(manifest, config, tmp_path / "r.csv", threads=2)
        prepares = [s for s in tracer.spans if s.name == "metric.prepare"]
        scores = sorted((s for s in tracer.spans if s.name == "metric.score"),
                        key=lambda s: s.start)
        assert [sum(s.attrs["patch_points"]) for s in prepares] == [600, 600]
        assert [s.attrs["workers"] for s in scores] == [2] * 4
        assert all(a.end <= b.start for a, b in zip(scores, scores[1:]))

    @pytest.mark.parametrize("text", ["[]", "3", '"scores"', "{bad json"])
    def test_cache_not_an_object_is_ignored(self, tmp_path, two_row_manifest, caplog, text):
        config = MetricConfig(seeds=8, neighbors=6)
        cache_path = tmp_path / "r.csv.scores.json"
        cache_path.write_text(text)
        summary = run_benchmark(two_row_manifest, config, tmp_path / "r.csv", threads=1)
        assert summary.n == 2 and summary.cache_hits == 0
        assert "ignoring unreadable score cache" in caplog.text
        assert len(json.loads(cache_path.read_text())) == 2

    @pytest.mark.parametrize("entry", [None, "0.5", True, [0.5]])
    def test_cache_entry_not_a_number_is_ignored(self, tmp_path, two_row_manifest, caplog,
                                                 entry):
        config = MetricConfig(seeds=8, neighbors=6)
        run_benchmark(two_row_manifest, config, tmp_path / "r.csv", threads=1)
        cache_path = tmp_path / "r.csv.scores.json"
        good = json.loads(cache_path.read_text())
        cache_path.write_text(json.dumps(dict(good, **{min(good): entry})))
        summary = run_benchmark(two_row_manifest, config, tmp_path / "r.csv", threads=1)
        assert summary.n == 2 and summary.cache_hits == 0
        assert "ignoring unreadable score cache" in caplog.text
        assert json.loads(cache_path.read_text()) == good

    @pytest.mark.parametrize("mos", ["nan", "inf", "good", ""])
    def test_bad_mos_rejected_before_scoring(self, tmp_path, monkeypatch, mos):
        calls = []
        monkeypatch.setattr(evaluation, "_sha256_file", lambda p: calls.append(p))
        manifest = _build_manifest(tmp_path, [["r.ply", "d0.ply", "g", "3.5"],
                                              ["r.ply", "d1.ply", "g", mos]])
        with pytest.raises(ValueError, match=r"line 3: mos must be a finite number"):
            run_benchmark(manifest, MetricConfig(seeds=8), tmp_path / "r.csv", threads=1)
        assert calls == []

    def test_empty_manifest_rejected(self, tmp_path):
        manifest = _build_manifest(tmp_path, [])
        with pytest.raises(ValueError, match="no data rows"):
            run_benchmark(manifest, MetricConfig(seeds=8), tmp_path / "r.csv")


class TestDigestMemo:
    @pytest.fixture
    def bench(self, tmp_path):
        """(manifest, config, report path) for a reference and two distorted
        copies."""
        ref = sphere_cloud(600, 7, radius=100.0)
        save_ply(ref, tmp_path / "ref.ply")
        for i in range(2):
            save_ply(degrade(ref, DegradationSpec("geometry_gaussian", 1.0 + i, i)),
                     tmp_path / f"d{i}.ply")
        rows = [["ref.ply", f"d{i}.ply", "ggn", 3.0 - i] for i in range(2)]
        return _build_manifest(tmp_path, rows), MetricConfig(seeds=8, neighbors=6), \
            tmp_path / "r.csv"

    @pytest.fixture
    def hashed(self, monkeypatch):
        """The names of the files hashed, in any order."""
        calls, lock = [], threading.Lock()
        original = evaluation._sha256_file

        def counting(path):
            with lock:
                calls.append(os.path.basename(path))
            return original(path)

        monkeypatch.setattr(evaluation, "_sha256_file", counting)
        return calls

    @pytest.fixture
    def no_window(self, monkeypatch):
        # record files however fresh, so that a test can hit the memo at once
        monkeypatch.setattr(evaluation, "_RACY_NS", 0)

    def _memo(self, out):
        return out.with_name(out.name + ".digests.json")

    def _outputs(self, out):
        return [out.with_name(out.name + ext).read_bytes() for ext in ("", ".scores.json")]

    def test_cached_pass_reads_no_file(self, bench, hashed, no_window, monkeypatch):
        manifest, config, out = bench
        run_benchmark(manifest, config, out, threads=1)
        assert sorted(hashed) == ["d0.ply", "d1.ply", "ref.ply"]
        memo = json.loads(self._memo(out).read_text())
        for name in ("ref.ply", "d0.ply", "d1.ply"):
            path = manifest.parent / name
            st = path.stat()
            assert memo[str(path)] == [st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns,
                                       st.st_ctime_ns, evaluation._sha256_file(path)]
        pools = []
        monkeypatch.setattr(evaluation, "ThreadPoolExecutor",
                            lambda *args, **kwargs: pools.append(kwargs))
        hashed.clear()
        summary = run_benchmark(manifest, config, out, threads=2)
        assert (hashed, pools, summary.cache_hits) == ([], [], 2)
        memoized = self._outputs(out)
        monkeypatch.setattr(evaluation, "ThreadPoolExecutor", ThreadPoolExecutor)
        self._memo(out).unlink()
        run_benchmark(manifest, config, out, threads=2)
        assert sorted(hashed) == ["d0.ply", "d1.ply", "ref.ply"]
        assert self._outputs(out) == memoized

    def test_same_size_rewrite_is_hashed_again(self, bench, hashed, no_window):
        manifest, config, out = bench
        run_benchmark(manifest, config, out, threads=1)
        path = manifest.parent / "d1.ply"
        before = path.stat()
        save_ply(degrade(load_ply(manifest.parent / "ref.ply"),
                         DegradationSpec("geometry_gaussian", 3.0, 9)), path)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert (path.stat().st_size, path.stat().st_mtime_ns) == (before.st_size,
                                                                    before.st_mtime_ns)
        hashed.clear()
        summary = run_benchmark(manifest, config, out, threads=1)
        assert hashed == ["d1.ply"]
        assert summary.cache_hits == 1   # a new key, scored again
        assert len(json.loads(out.with_name("r.csv.scores.json").read_text())) == 3

    def test_replaced_file_is_hashed_again(self, bench, hashed, no_window):
        manifest, config, out = bench
        run_benchmark(manifest, config, out, threads=1)
        path, twin = manifest.parent / "d1.ply", manifest.parent / "twin.ply"
        before = path.stat()
        twin.write_bytes(path.read_bytes())
        os.utime(twin, ns=(before.st_atime_ns, before.st_mtime_ns))
        os.replace(twin, path)
        hashed.clear()
        summary = run_benchmark(manifest, config, out, threads=1)
        assert hashed == ["d1.ply"]
        assert summary.cache_hits == 2   # the same content, so the same key

    def test_file_written_just_before_a_run_is_not_recorded(self, bench, hashed):
        manifest, config, out = bench
        for _ in range(2):
            hashed.clear()
            run_benchmark(manifest, config, out, threads=1)
            assert sorted(hashed) == ["d0.ply", "d1.ply", "ref.ply"]
            assert not self._memo(out).exists()

    @pytest.mark.parametrize("memo", ["list", "truncated", "string_entry", "short_entry",
                                      "digest_not_a_string", "other_stat"])
    def test_bad_memo_is_rebuilt_silently(self, bench, hashed, no_window, caplog, memo):
        manifest, config, out = bench
        run_benchmark(manifest, config, out, threads=1)
        text, outputs = self._memo(out).read_text(), self._outputs(out)
        good = json.loads(text)
        path = str(manifest.parent / "d0.ply")
        entry = good[path]
        bad = {"list": "[]", "truncated": text[:len(text) // 2],
               "string_entry": json.dumps(dict(good, **{path: entry[5]})),
               "short_entry": json.dumps(dict(good, **{path: entry[:5]})),
               "digest_not_a_string": json.dumps(dict(good, **{path: entry[:5] + [0]})),
               "other_stat": json.dumps(dict(good, **{path: entry[:4] + [0, entry[5]]}))}
        self._memo(out).write_text(bad[memo])
        caplog.clear()
        hashed.clear()
        run_benchmark(manifest, config, out, threads=1)
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        want = ["d0.ply"] if memo not in ("list", "truncated") else ["d0.ply", "d1.ply",
                                                                      "ref.ply"]
        assert sorted(hashed) == want
        assert self._outputs(out) == outputs
        assert json.loads(self._memo(out).read_text()) == good

    def test_deleted_file_skipped_as_unreadable(self, bench, no_window, caplog):
        manifest, config, out = bench
        run_benchmark(manifest, config, out, threads=1)
        path = manifest.parent / "d1.ply"
        path.unlink()
        caplog.clear()
        summary = run_benchmark(manifest, config, out, threads=1)
        assert (summary.n, summary.skipped_files) == (1, 1)
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
            f"skipping unreadable pair (ref.ply, d1.ply): [Errno 2] No such file or "
            f"directory: {str(path)!r}"]
        assert str(path) not in json.loads(self._memo(out).read_text())

    def test_memo_pruned_to_the_manifest(self, bench, no_window):
        manifest, config, out = bench
        run_benchmark(manifest, config, out, threads=1)
        assert len(json.loads(self._memo(out).read_text())) == 3
        one_row = _build_manifest(manifest.parent, [["ref.ply", "d0.ply", "ggn", 3.0]])
        run_benchmark(one_row, config, out, threads=1)
        assert sorted(json.loads(self._memo(out).read_text())) == [
            str(manifest.parent / name) for name in ("d0.ply", "ref.ply")]

    def test_crash_while_writing_memo_keeps_old_memo(self, bench, no_window, monkeypatch):
        manifest, config, out = bench
        run_benchmark(manifest, config, out, threads=1)
        before = self._memo(out).read_bytes()
        one_row = _build_manifest(manifest.parent, [["ref.ply", "d0.ply", "ggn", 3.0]])

        class CrashingJson:
            def __getattr__(self, name):
                return getattr(json, name)

            def dump(self, obj, fh, **kwargs):
                fh.write(json.dumps(obj)[:10])   # a torn write
                raise RuntimeError("crash mid-write")

        monkeypatch.setattr(evaluation, "json", CrashingJson())
        with pytest.raises(RuntimeError, match="crash mid-write"):
            run_benchmark(one_row, config, out, threads=1)
        assert self._memo(out).read_bytes() == before
        assert not [p.name for p in out.parent.iterdir() if p.suffix == ".tmp"]

    def test_progress_logged_at_debug_level(self, bench, no_window, caplog):
        manifest, config, out = bench
        caplog.set_level(logging.DEBUG, logger="tcdm")
        runs = []
        for _ in range(2):
            caplog.clear()
            run_benchmark(manifest, config, out, threads=1)
            runs.append([r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG
                         and ("distinct files" in r.getMessage()
                              or r.getMessage().startswith("row "))])
        cold, cached = runs
        assert cold[0] == "3 distinct files: 3 hashed, 0 digests from the memo"
        assert [re.fullmatch(r"row \(ref\.ply, (d[01])\.ply\) in \d+\.\d{3} s", m).group(1)
                for m in cold[1:]] == ["d0", "d1"]
        assert cached == ["3 distinct files: 0 hashed, 3 digests from the memo"]


class TestLogisticMemo:
    @pytest.fixture
    def bench(self, tmp_path):
        """(manifest, config, report path) for ten rows whose scores are all
        cached, so a run only hashes, fits and writes. The files are hashed,
        never parsed."""
        config = MetricConfig(seeds=8, neighbors=6)
        (tmp_path / "ref.ply").write_bytes(b"reference")
        q = np.linspace(0.0, 1.0, 10)
        mos = 1.0 + 4.0 / (1.0 + np.exp(-6.0 * (q - 0.5))) + 0.1 * np.sin(7.0 * q)
        cache, rows = {}, []
        for i in range(10):
            (tmp_path / f"d{i}.ply").write_bytes(f"distorted {i}".encode())
            key = (f"{evaluation._sha256_file(tmp_path / 'ref.ply')}:"
                   f"{evaluation._sha256_file(tmp_path / f'd{i}.ply')}:"
                   f"{evaluation._config_digest(config)}")
            cache[key] = float(q[i])
            rows.append(["ref.ply", f"d{i}.ply", "g" if i % 2 else "c", float(mos[i])])
        manifest = _build_manifest(tmp_path, rows)
        out = tmp_path / "r.csv"
        (tmp_path / "r.csv.scores.json").write_text(json.dumps(cache))
        return manifest, config, out

    @pytest.fixture
    def fits(self, monkeypatch):
        calls = []
        original = evaluation.fit_logistic5

        def counting(scores, mos):
            params, mapped = original(scores, mos)
            calls.append(dataclasses.astuple(params))
            return params, mapped

        monkeypatch.setattr(evaluation, "fit_logistic5", counting)
        return calls

    def _memo(self, out):
        return out.with_name(out.name + ".logistic.json")

    def _changed_mos(self, manifest):
        """``manifest`` rewritten with one mos changed."""
        with open(manifest, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        rows[0][3] = str(float(rows[0][3]) - 0.5)
        return _build_manifest(manifest.parent, rows)

    def test_cached_rerun_reuses_the_fit(self, bench, fits):
        manifest, config, out = bench
        first = run_benchmark(manifest, config, out, threads=1)
        cold = out.read_bytes()
        memo = json.loads(self._memo(out).read_text())
        assert len(fits) == 1
        assert sorted(memo) == ["inputs", "params"]
        assert tuple(memo["params"]) == fits[0]   # every bit of the fit
        again = run_benchmark(manifest, config, out, threads=2)
        assert len(fits) == 1
        assert out.read_bytes() == cold
        assert (again.plcc, again.srocc, again.rmse) == (first.plcc, first.srocc, first.rmse)

    def test_changed_mos_refits(self, bench, fits):
        manifest, config, out = bench
        run_benchmark(manifest, config, out, threads=1)
        cold = out.read_bytes()
        changed = self._changed_mos(manifest)
        summary = run_benchmark(changed, config, out, threads=1)
        assert summary.cache_hits == 10
        assert len(fits) == 2
        assert out.read_bytes() != cold

    @pytest.mark.parametrize("memo", [
        "{bad json", "[]", '"params"', '{"params": [1.0, 2.0, 3.0, 4.0, 5.0]}',
        '{"inputs": "%s", "params": [1.0, 2.0, 3.0, 4.0, 5.0]}' % ("0" * 64),
        "inputs:short", "inputs:ints", "inputs:strings"],
        ids=["corrupt", "list", "string", "no_inputs", "other_inputs", "four_params",
             "int_params", "string_params"])
    def test_bad_memo_refits_silently(self, bench, fits, caplog, memo):
        manifest, config, out = bench
        run_benchmark(manifest, config, out, threads=1)
        cold, good = out.read_bytes(), self._memo(out).read_text()
        if memo.startswith("inputs:"):   # the right inputs with unusable params
            params = {"short": [1.0] * 4, "ints": [1, 2, 3, 4, 5],
                      "strings": ["1.0"] * 5}[memo.split(":")[1]]
            memo = json.dumps({"inputs": json.loads(good)["inputs"], "params": params})
        self._memo(out).write_text(memo)
        caplog.clear()
        run_benchmark(manifest, config, out, threads=1)
        assert len(fits) == 2
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert out.read_bytes() == cold
        assert self._memo(out).read_text() == good

    def test_crash_while_writing_memo_keeps_memo_and_cache(self, bench, monkeypatch):
        manifest, config, out = bench
        run_benchmark(manifest, config, out, threads=1)
        memo_path, cache_path = self._memo(out), out.with_name(out.name + ".scores.json")
        memo, cache = memo_path.read_bytes(), cache_path.read_bytes()
        changed = self._changed_mos(manifest)

        class CrashingJson:
            def __getattr__(self, name):
                return getattr(json, name)

            def dump(self, obj, fh, **kwargs):
                fh.write(json.dumps(obj)[:10])   # a torn write
                raise RuntimeError("crash mid-write")

        monkeypatch.setattr(evaluation, "json", CrashingJson())
        with pytest.raises(RuntimeError, match="crash mid-write"):
            run_benchmark(changed, config, out, threads=1)
        assert memo_path.read_bytes() == memo
        assert cache_path.read_bytes() == cache
        assert not [p.name for p in out.parent.iterdir() if p.suffix == ".tmp"]

    def test_summary_serializes_as_json(self, bench):
        manifest, config, out = bench
        summary = run_benchmark(manifest, config, out, threads=1)
        assert summary.n == 10 and type(summary.degenerate) is bool
        assert json.loads(json.dumps(dataclasses.asdict(summary)))["degenerate"] is False

    def test_degenerate_summary_writes_no_memo(self, tmp_path, fits):
        ref = sphere_cloud(600, 5, radius=100.0)
        save_ply(ref, tmp_path / "ref.ply")
        manifest = _build_manifest(tmp_path, [["ref.ply", "ref.ply", "self", 4.0]] * 3)
        summary = run_benchmark(manifest, MetricConfig(seeds=8, neighbors=6),
                                tmp_path / "r.csv", threads=1)
        assert summary.degenerate
        assert fits == []
        assert not (tmp_path / "r.csv.logistic.json").exists()
