import dataclasses
import logging
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import tcdm.metric
import tcdm.spatial
from tcdm.config import MetricConfig, rgb_to_yuv
from tcdm.features import ReferencePatch, patch_features
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

    def test_permuted_reference_prepares_same_state(self):
        # a coarse grid: coincident points that carry different colors
        rng = np.random.default_rng(12)
        ref = PointCloud(rng.integers(0, 8, size=(1500, 3)).astype(np.float64),
                         rng.integers(0, 256, size=(1500, 3)).astype(np.float64))
        perm = rng.permutation(ref.count)
        cfg = MetricConfig(seeds=6, neighbors=8)
        a = prepare_reference(ref, cfg, threads=1)
        b = prepare_reference(PointCloud(ref.positions[perm], ref.colors[perm]), cfg, threads=1)
        assert np.array_equal(a.seed_positions, b.seed_positions)
        for pa, pb in zip(a.patches, b.patches, strict=True):
            assert np.array_equal(pa.patch.positions, pb.patch.positions)
            assert np.array_equal(pa.patch.colors, pb.patch.colors)
            assert np.array_equal(pa.encoding.predictions, pb.encoding.predictions)
            assert pa.encoding.complexity_geometry == pb.encoding.complexity_geometry
            assert pa.encoding.complexity_color == pb.encoding.complexity_color
            assert pa.field_ids.dtype == pb.field_ids.dtype
            assert np.array_equal(pa.field_ids, pb.field_ids)


class TestBehavior:
    def test_identity_scores_one(self, pair):
        ref, _ = pair
        rep = score(ref, ref, CFG, threads=1)
        assert rep.q == 1.0
        assert rep.f1 == 1.0
        assert rep.f2 == 1.0

    def test_identity_with_recolored_duplicates_scores_one(self):
        # coincident points in colors of their own: self and cross plans
        # drop the same nearest point, so both encodings are one problem
        base = sphere_cloud(4000, 1, radius=100.0)
        rng = np.random.default_rng(2)
        dup = rng.choice(base.count, size=40, replace=False)
        ref = PointCloud(np.concatenate([base.positions, base.positions[dup]]),
                         np.concatenate([base.colors, rng.integers(0, 256, size=(40, 3))]))
        rep = score(ref, ref, MetricConfig(seeds=20, neighbors=10), threads=1)
        assert (rep.q, rep.f1, rep.f2) == (1.0, 1.0, 1.0)

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


class TestConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("stability", float("nan")), ("stability", float("inf")), ("stability", 0.0),
        ("stability", -1e-6),
        ("ridge", float("nan")), ("ridge", float("inf")), ("ridge", -1e-8),
        ("seeds", 6.5), ("seeds", 8.0), ("seeds", True), ("seeds", 0),
        ("neighbors", 8.0), ("neighbors", 6.5), ("neighbors", True), ("neighbors", False),
        pytest.param("neighbors", np.int64(8), id="neighbors-int64"),
        ("sampling_seed", 1.5), ("sampling_seed", 1.0), ("sampling_seed", -1),
        ("sampling_seed", True), ("stability", True), ("alpha", True), ("alpha", "0.3"),
        ("ridge", False),
    ])
    def test_bad_value_rejected_naming_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            MetricConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("stability", 1e-300), ("stability", 5), ("ridge", 0.0), ("ridge", 0),
        ("seeds", 1), ("neighbors", 1), ("sampling_seed", 0),
    ])
    def test_edge_values_accepted(self, field, value):
        assert getattr(MetricConfig(**{field: value}), field) == value

    @pytest.mark.parametrize("field, one, other", [
        ("alpha", 1, 1.0), ("stability", 1, 1.0), ("ridge", 0, 0.0),
    ])
    def test_equal_configs_share_a_cache_key(self, field, one, other):
        from tcdm.evaluation import _config_digest
        a, b = MetricConfig(**{field: one}), MetricConfig(**{field: other})
        assert a == b
        assert type(getattr(a, field)) is float
        assert _config_digest(a) == _config_digest(b)


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


def _array_bytes(obj) -> int:
    """Summed nbytes of every array held by a dataclass, nested ones too."""
    total = 0
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif dataclasses.is_dataclass(value):
            total += _array_bytes(value)
    return total


class TestPreparedLayout:
    """What a prepared reference keeps per point: field ids at patch width
    (K times 1 byte under 256 points, 2 under 65,536), predictions (48),
    positions (24) and colors (24); no cloud rows."""

    def test_bytes_per_point(self):
        k = 20
        state = prepare_reference(sphere_cloud(3000, 4, radius=100.0),
                                  MetricConfig(seeds=10, neighbors=k), threads=1)
        assert "field_x" not in {f.name for f in dataclasses.fields(ReferencePatch)}
        encoded = [p for p in state.patches if p.encoding is not None]
        assert sum(p.patch.count for p in encoded) == 3000
        for ref in encoded:
            n = ref.patch.count
            assert ref.field_ids.dtype == np.min_scalar_type(n - 1)
            assert ref.field_ids.shape == (n, k)
            assert _array_bytes(ref) == n * (k * ref.field_ids.itemsize + 96)
        # patches of 227 to 414 points: both widths occur
        assert {ref.field_ids.itemsize for ref in encoded} == {1, 2}


def _small_patches():
    # about 7 points per patch at K=10: many are scanned exhaustively
    ref = sphere_cloud(500, 3, radius=10.0)
    return ref, degrade(ref, DegradationSpec("geometry_gaussian", 0.3, 4)), \
        MetricConfig(seeds=70, neighbors=10)


def _empty_cells():
    ref = sphere_cloud(900, 11, radius=10.0)
    noisy = degrade(ref, DegradationSpec("geometry_gaussian", 0.15, 3))
    keep = noisy.positions[:, 2] < 3.0
    return ref, PointCloud(noisy.positions[keep], noisy.colors[keep]), \
        MetricConfig(seeds=12, neighbors=8)


def _voxel_grid():
    # integer positions: neighbor distances tie, and tied rows widen
    base = sphere_cloud(800, 7, radius=10.0)
    rng = np.random.default_rng(8)
    moved = np.round(base.positions + rng.normal(0.0, 0.7, size=base.positions.shape))
    return (PointCloud(np.round(base.positions), base.colors),
            PointCloud(moved, base.colors), MetricConfig(seeds=10, neighbors=10))


def _report_key(report):
    """Every score, mean, count and per-patch triple of a report, exactly."""
    return (report.q, report.f1, report.f2, report.f1_geometry_mean, report.f1_color_mean,
            report.counts, [(p.f1_geometry, p.f1_color, p.f2, p.diagnostics, p.skipped)
                            for p in report.per_patch])


class TestGroups:
    """A score does not depend on how patches are grouped, on the query
    blocks of the neighbor search, or on the thread count."""

    # (patch group budget, kNN block budget, threads); None keeps the default
    RUNS = [(0, None, 1), (None, None, 1), (1 << 40, None, 1), (300, 40, 1),
            (0, None, 2), (300, None, 2)]

    @pytest.mark.parametrize("make", [_small_patches, _empty_cells, _voxel_grid])
    def test_bit_identical_across_groupings(self, make, monkeypatch):
        ref, dist, cfg = make()
        monkeypatch.setattr(tcdm.metric, "_POOL_MIN_SLOTS", 0)
        widened = [0]
        tree_search = tcdm.spatial._tree_search

        def counting_tree_search(pts, tree, queries, kk, w):
            if w > kk + 1:
                widened[0] += queries.shape[0]
            return tree_search(pts, tree, queries, kk, w)

        monkeypatch.setattr(tcdm.spatial, "_tree_search", counting_tree_search)
        state = prepare_reference(ref, cfg, threads=1)
        counts = [r.patch.count for r in state.patches]
        # the default budget holds the whole pair in one group
        assert len(tcdm.metric._groups(counts, cfg.neighbors)) == 1
        baseline = score_with_reference(state, dist, threads=1)
        if make is _small_patches:
            assert any(2 <= n <= cfg.neighbors for n in counts)
        elif make is _empty_cells:
            assert baseline.counts.empty > 0
        else:
            assert widened[0] > 0
        want = _report_key(baseline)
        for groups, blocks, threads in self.RUNS:
            with monkeypatch.context() as m:
                if groups is not None:
                    m.setattr(tcdm.metric, "_SLOTS", groups)
                if blocks is not None:
                    m.setattr(tcdm.spatial, "_SLOTS", blocks)
                got = _report_key(score(ref, dist, cfg, threads=threads))
            assert got == want, (groups, blocks, threads)


class TestDistortedPatchLifetime:
    """A score holds the distorted patches of one group at a time."""

    @staticmethod
    def live_patches(state, dist, monkeypatch):
        """(calls, peak live distorted patches, live at the end) of a score."""
        calls, live, peak = [0], [0], [0]

        def released():
            live[0] -= 1

        def counting(refs, dists, config=None):
            for patch in dists:
                calls[0] += 1
                live[0] += 1
                weakref.finalize(patch, released)
            peak[0] = max(peak[0], live[0])
            return patch_features(refs, dists, config)

        monkeypatch.setattr(tcdm.metric, "patch_features", counting)
        score_with_reference(state, dist, threads=1)
        return calls[0], peak[0], live[0]

    def test_one_distorted_patch_alive_at_a_time(self, pair, monkeypatch):
        # a budget of no slots makes every patch a group of its own
        monkeypatch.setattr(tcdm.metric, "_SLOTS", 0)
        state = prepare_reference(pair[0], CFG, threads=1)
        assert self.live_patches(state, pair[1], monkeypatch) == (len(state.patches), 1, 0)

    def test_one_group_alive_at_a_time(self, pair, monkeypatch):
        # patches of about 4,800 slots: groups of several patches
        monkeypatch.setattr(tcdm.metric, "_SLOTS", 20_000)
        state = prepare_reference(pair[0], CFG, threads=1)
        groups = tcdm.metric._groups([r.patch.count for r in state.patches], CFG.neighbors)
        largest = max(g.stop - g.start for g in groups)
        assert len(groups) > 1 and largest > 1
        assert self.live_patches(state, pair[1], monkeypatch) == (len(state.patches), largest, 0)


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

    def test_each_call_logs_workers_and_slots(self, pair, caplog, pools):
        caplog.set_level(logging.DEBUG, logger="tcdm")
        state = prepare_reference(pair[0], CFG, threads=2)
        score_with_reference(state, pair[1], threads=1)
        # one 600-point patch at K=20: 12,000 slots but one group, so the
        # two workers asked for are not used
        prepare_reference(sphere_cloud(600, 1, radius=10.0), MetricConfig(seeds=1), threads=2)
        slots = CFG.neighbors * pair[0].count / CFG.seeds
        assert [r.getMessage() for r in caplog.records] == [
            f"prepare: 2 worker(s), {slots:.0f} neighbor slots per patch",
            f"score: 1 worker(s), {slots:.0f} neighbor slots per patch",
            "prepare: 1 worker(s), 12000 neighbor slots per patch"]
        assert len(pools) == 1

    def test_one_pool_per_call_on_large_patches(self, pair, pools):
        # 6,000 points over 20 seeds at K=20: ~6,000 neighbor slots per patch
        cfg = MetricConfig(seeds=20)
        state = prepare_reference(pair[0], cfg, threads=2)
        assert len(pools) == 1
        score_with_reference(state, pair[1], threads=2)
        assert len(pools) == 2
