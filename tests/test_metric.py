import logging
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import tcdm.metric
from tcdm.config import MetricConfig, rgb_to_yuv
from tcdm.metric import prepare_reference, score, score_with_reference
from tcdm.pointcloud import DegradationSpec, PointCloud, degrade
from tcdm.synthetic import sphere_cloud

from conftest import random_cloud


def rough_sphere(n, seed, radius=150.0, roughness=3.0):
    base = sphere_cloud(n, seed, radius=radius)
    rng = np.random.default_rng(seed + 1000)
    return PointCloud(base.positions + rng.normal(0, roughness, size=(n, 3)), base.colors)


@pytest.fixture(scope="module")
def pair():
    ref = rough_sphere(6000, 3)
    dist = degrade(ref, DegradationSpec("geometry_gaussian", 1.5, 5))
    return ref, dist


CFG = MetricConfig(seeds=25)


class TestFusion:
    def test_alpha_one_gives_f1(self, pair):
        rep = score(*pair, MetricConfig(seeds=25, alpha=1.0), threads=1)
        assert rep.q == rep.f1

    def test_alpha_zero_gives_f2(self, pair):
        rep = score(*pair, MetricConfig(seeds=25, alpha=0.0), threads=1)
        assert rep.q == rep.f2

    def test_report_identities(self, pair):
        rep = score(*pair, CFG, threads=1)
        assert rep.q == CFG.alpha * rep.f1 + (1 - CFG.alpha) * rep.f2
        assert rep.f1 == rep.f1_geometry_mean * rep.f1_color_mean

    def test_range(self, pair):
        rep = score(*pair, CFG, threads=1)
        assert 0.0 <= rep.f1 <= 1.0
        assert -1.0 - 1e-9 <= rep.f2 <= 1.0 + 1e-9
        assert -(1 - CFG.alpha) - 1e-9 <= rep.q <= 1.0 + 1e-9

    def test_counts_partition_seeds(self, pair):
        rep = score(*pair, CFG, threads=1)
        assert rep.counts.used + rep.counts.skipped == CFG.seeds
        assert rep.counts.ref_points == pair[0].count
        assert rep.counts.dist_points == pair[1].count


class TestDeterminismAndInvariance:
    def test_bit_identical_across_runs_and_threads(self, pair, monkeypatch):
        monkeypatch.setattr(tcdm.metric, "_POOL_MIN_SLOTS", 0)
        q1 = score(*pair, CFG, threads=1).q
        q4 = score(*pair, CFG, threads=4).q
        q4b = score(*pair, CFG, threads=4).q
        assert q1 == q4 == q4b

    def test_translation_invariance(self, pair):
        ref, dist = pair
        q0 = score(ref, dist, CFG, threads=1).q
        shift = np.array([12.25, -7.5, 3.0])
        qt = score(PointCloud(ref.positions + shift, ref.colors),
                   PointCloud(dist.positions + shift, dist.colors), CFG, threads=1).q
        assert abs(qt - q0) <= 1e-9

    @pytest.mark.parametrize("s", [0.5, 2.0, 10.0])
    def test_scale_invariance(self, pair, s):
        ref, dist = pair
        q0 = score(ref, dist, CFG, threads=1).q
        qs = score(PointCloud(ref.positions * s, ref.colors),
                   PointCloud(dist.positions * s, dist.colors), CFG, threads=1).q
        assert abs(qs - q0) <= 1e-3

    def test_permutation_invariance(self, pair):
        ref, dist = pair
        q0 = score(ref, dist, CFG, threads=1).q
        rng = np.random.default_rng(8)
        pr = rng.permutation(ref.count)
        pd = rng.permutation(dist.count)
        qp = score(PointCloud(ref.positions[pr], ref.colors[pr]),
                   PointCloud(dist.positions[pd], dist.colors[pd]), CFG, threads=1).q
        assert abs(qp - q0) <= 1e-12


    def test_permutation_invariance_with_duplicates(self):
        # duplicated points give distinct neighbors the same prediction, so
        # difference-field neighbors tie on predicted position
        rng = np.random.default_rng(1)
        n = int(rng.integers(40, 240))
        pos = rng.uniform(-50, 50, size=(n, 3))
        col = rng.integers(0, 256, size=(n, 3)).astype(np.float64)
        dup = rng.integers(0, n, size=int(rng.integers(0, 60)))
        ref = PointCloud(np.concatenate([pos, pos[dup]]), np.concatenate([col, col[dup]]))
        dist = PointCloud(ref.positions + rng.normal(0, 1, size=ref.positions.shape), ref.colors)
        cfg = MetricConfig(seeds=2, neighbors=2)
        q0 = score(ref, dist, cfg, threads=1).q
        pr, pd = rng.permutation(ref.count), rng.permutation(dist.count)
        qp = score(PointCloud(ref.positions[pr], ref.colors[pr]),
                   PointCloud(dist.positions[pd], dist.colors[pd]), cfg, threads=1).q
        assert abs(qp - q0) <= 1e-12


class TestBehavior:
    def test_identity_scores_one(self, pair):
        ref, _ = pair
        rep = score(ref, ref, CFG, threads=1)
        assert rep.q == 1.0
        assert rep.f1 == 1.0
        assert rep.f2 == 1.0

    def test_noise_monotonicity(self, pair):
        ref, _ = pair
        state = prepare_reference(ref, CFG)
        diag = np.linalg.norm(ref.positions.max(0) - ref.positions.min(0))
        qs = []
        for frac in (0.005, 0.01, 0.02):
            vals = [score_with_reference(
                state, degrade(ref, DegradationSpec("geometry_gaussian", frac * diag, s)),
                threads=1).q for s in range(3)]
            qs.append(np.mean(vals))
        assert qs[0] > qs[1] > qs[2]

    def test_self_beats_degraded(self, pair):
        ref, _ = pair
        state = prepare_reference(ref, CFG)
        q_self = score_with_reference(state, ref, threads=1).q
        for spec in (DegradationSpec("geometry_gaussian", 1.0, 1),
                     DegradationSpec("color_noise", 10.0, 1),
                     DegradationSpec("downsample", 0.5, 1)):
            assert q_self > score_with_reference(state, degrade(ref, spec), threads=1).q

    def test_prepared_reference_matches_direct(self, pair):
        ref, dist = pair
        state = prepare_reference(ref, CFG)
        assert score_with_reference(state, dist, threads=1).q == score(ref, dist, CFG, threads=1).q

    def test_random_sampling_strategy(self, pair):
        ref, dist = pair
        cfg = MetricConfig(seeds=25, sampling="random", sampling_seed=7)
        rep = score(ref, dist, cfg, threads=1)
        assert np.isfinite(rep.q)
        assert rep.q == score(ref, dist, cfg, threads=1).q
        assert score(ref, ref, cfg, threads=1).q == 1.0

    def test_empty_patches_counted(self):
        # distorted cloud collapsed onto one corner leaves most cells empty
        ref = rough_sphere(2000, 9)
        corner = np.argsort(ref.positions[:, 0])[:40]
        dist = PointCloud(ref.positions[corner], ref.colors[corner])
        rep = score(ref, dist, MetricConfig(seeds=10), threads=1)
        assert rep.counts.empty >= 1
        assert np.isfinite(rep.q)


class TestColorSpace:
    def test_white_point_conversion(self):
        yuv = rgb_to_yuv(np.array([[255.0, 255.0, 255.0]]))
        assert np.allclose(yuv, [[255.0, 128.0, 128.0]], atol=1e-9)

    def test_gray_cloud_chroma_constant(self):
        ref = rough_sphere(3000, 11)
        gray = np.repeat(ref.colors[:, :1], 3, axis=1)
        ref = PointCloud(ref.positions, gray)
        dist = degrade(ref, DegradationSpec("geometry_gaussian", 1.0, 2))
        rep = score(ref, dist, MetricConfig(seeds=12, color_space="yuv"), threads=1)
        assert np.isfinite(rep.q)
        # chroma channels are constant 128: color covariance is rank-1 at
        # most, so every color complexity determinant collapses to zero
        for f in rep.per_patch:
            if not f.skipped:
                assert f.diagnostics[2] <= 1e-12
                assert f.diagnostics[3] <= 1e-12

    def test_rgb_yuv_parity(self, pair):
        ref, dist = pair
        q_rgb = score(ref, dist, MetricConfig(seeds=25, color_space="rgb"), threads=1).q
        q_yuv = score(ref, dist, MetricConfig(seeds=25, color_space="yuv"), threads=1).q
        assert abs(q_rgb - q_yuv) < 0.05


class TestErrors:
    def test_seed_count_exceeding_points(self, rng):
        cloud = random_cloud(50, rng)
        with pytest.raises(ValueError, match="seed count"):
            score(cloud, cloud, MetricConfig(seeds=100))

    def test_all_patches_degenerate(self):
        cloud = PointCloud(np.zeros((1, 3)), np.zeros((1, 3)))
        with pytest.raises(ValueError, match="degenerate"):
            score(cloud, cloud, MetricConfig(seeds=1))

    def test_empty_cloud_rejected(self, rng):
        cloud = random_cloud(50, rng)
        empty = PointCloud(np.zeros((0, 3)), np.zeros((0, 3)))
        with pytest.raises(ValueError):
            score(cloud, empty, MetricConfig(seeds=5))

    def test_default_config_echoes_published_operating_point(self):
        cfg = MetricConfig()
        assert (cfg.seeds, cfg.neighbors, cfg.stability, cfg.alpha) == (400, 20, 1e-6, 0.3)
        assert cfg.sampling == "fps"
        assert cfg.weight_scheme == "sigmoid_proposed"
        assert cfg.color_space == "rgb"


class TestThreadResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        from tcdm.metric import resolve_threads
        monkeypatch.setenv("TCDM_THREADS", "6")
        assert resolve_threads(2) == 2

    def test_env_fallback(self, monkeypatch):
        from tcdm.metric import resolve_threads
        monkeypatch.setenv("TCDM_THREADS", "6")
        assert resolve_threads(None) == 6

    def test_env_not_an_integer(self, monkeypatch):
        from tcdm.metric import resolve_threads
        monkeypatch.setenv("TCDM_THREADS", "abc")
        with pytest.raises(ValueError, match="TCDM_THREADS must be an integer, got 'abc'"):
            resolve_threads(None)
        assert resolve_threads(3) == 3

    @pytest.mark.parametrize("threads", [0, -4])
    def test_explicit_below_one_rejected(self, monkeypatch, threads):
        from tcdm.metric import resolve_threads
        monkeypatch.setenv("TCDM_THREADS", "6")
        with pytest.raises(ValueError, match=f"^threads must be >= 1, got {threads}$"):
            resolve_threads(threads)

    @pytest.mark.parametrize("env", ["0", "-4"])
    def test_env_below_one_rejected(self, monkeypatch, env):
        from tcdm.metric import resolve_threads
        monkeypatch.setenv("TCDM_THREADS", env)
        with pytest.raises(ValueError, match=f"^TCDM_THREADS must be >= 1, got {env}$"):
            resolve_threads(None)
        assert resolve_threads(1) == 1

    def test_machine_default(self, monkeypatch):
        from tcdm.metric import resolve_threads
        monkeypatch.delenv("TCDM_THREADS", raising=False)
        assert resolve_threads(None) >= 1


class TestPatchPool:
    def test_prepare_bit_identical_across_threads(self, pair, monkeypatch):
        monkeypatch.setattr(tcdm.metric, "_POOL_MIN_SLOTS", 0)
        states = [prepare_reference(pair[0], CFG, threads=t) for t in (1, 2, 4)]
        for patches in zip(*(s.patches for s in states)):
            first = patches[0]
            assert first.encoding is not None
            for other in patches[1:]:
                assert np.array_equal(other.encoding.predictions, first.encoding.predictions)
                assert other.encoding.complexity_geometry == first.encoding.complexity_geometry
                assert other.encoding.complexity_color == first.encoding.complexity_color
                assert np.array_equal(other.field_ids, first.field_ids)
                assert np.array_equal(other.field_x, first.field_x)

    @pytest.fixture
    def pools(self, monkeypatch):
        opened = []

        class CountingPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(tcdm.metric, "ThreadPoolExecutor", CountingPool)
        return opened

    def test_no_pool_on_small_patches(self, pools):
        # the dense_seeds shape at small size: ~67 points per patch, K=10
        ref = rough_sphere(4000, 1, radius=500.0, roughness=2.0)
        dist = degrade(ref, DegradationSpec("geometry_gaussian", 3.0, 2))
        cfg = MetricConfig(seeds=60, neighbors=10)
        state = prepare_reference(ref, cfg, threads=2)
        score_with_reference(state, dist, threads=2)
        assert pools == []

    def test_no_pool_at_one_thread(self, pair, pools):
        state = prepare_reference(pair[0], CFG, threads=1)
        score_with_reference(state, pair[1], threads=1)
        assert pools == []

    def test_each_call_logs_workers_and_slots(self, pair, caplog):
        caplog.set_level(logging.DEBUG, logger="tcdm")
        state = prepare_reference(pair[0], CFG, threads=2)
        score_with_reference(state, pair[1], threads=1)
        slots = CFG.neighbors * pair[0].count / CFG.seeds
        assert [r.getMessage() for r in caplog.records] == [
            f"prepare: 2 worker(s), {slots:.0f} neighbor slots per patch",
            f"score: 1 worker(s), {slots:.0f} neighbor slots per patch"]

    def test_one_pool_per_call_on_large_patches(self, pair, pools):
        # 6,000 points over 20 seeds at K=20: ~6,000 neighbor slots per patch
        cfg = MetricConfig(seeds=20)
        state = prepare_reference(pair[0], cfg, threads=2)
        assert len(pools) == 1
        score_with_reference(state, pair[1], threads=2)
        assert len(pools) == 2
