import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcdm.config import MetricConfig, color_weights_for
from tcdm.features import (_field_neighbor_ids, _g_rows, complexity_similarity, patch_features,
                           prediction_similarity)
from tcdm.metric import encode_reference_patch
from tcdm.segmentation import Patch

from oracles import Point, g_difference


RGB_W = np.array([0.25, 0.5, 0.25])


def make_pair(rng, n_ref, n_dist, scale=5.0):
    """A prepared reference patch and a distorted patch, both random."""
    ref = Patch(np.arange(n_ref), rng.uniform(-scale, scale, size=(n_ref, 3)),
                rng.uniform(0, 255, size=(n_ref, 3)))
    dist = Patch(np.arange(n_dist), rng.uniform(-scale, scale, size=(n_dist, 3)),
                 rng.uniform(0, 255, size=(n_dist, 3)))
    return encode_reference_patch(ref, MetricConfig()), dist


def g_pair(a: Point, b: Point, color_weights) -> float:
    """The pipeline's vectorized g on one anchor and one neighbor."""
    anchor = np.concatenate([a.position, a.color])[None, :]
    neighbor = np.concatenate([b.position, b.color])[None, None, :]
    return float(_g_rows(anchor, neighbor, np.asarray(color_weights, dtype=np.float64))[0, 0])


class TestComplexitySimilarity:
    @pytest.mark.parametrize("c", [0.0, 1e-9, 1.0, 1e9])
    def test_equal_inputs_give_one(self, c):
        assert complexity_similarity(c, c, 1e-6) == 1.0

    def test_hand_computed_value(self):
        got = complexity_similarity(3.0, 1.0, 1e-6)
        assert abs(got - (6.0 + 1e-6) / (10.0 + 1e-6)) < 1e-15

    @given(a=st.floats(0, 1e12), b=st.floats(0, 1e12))
    @settings(max_examples=50)
    def test_symmetry(self, a, b):
        assert complexity_similarity(a, b, 1e-6) == complexity_similarity(b, a, 1e-6)

    @given(a=st.floats(1e-6, 1e6), b=st.floats(1e-6, 1e6),
           s=st.floats(0.01, 100.0))
    @settings(max_examples=50)
    def test_scale_invariance_modulo_stability(self, a, b, s):
        base = (2 * a * b) / (a * a + b * b)
        scaled = (2 * (s * a) * (s * b)) / ((s * a) ** 2 + (s * b) ** 2)
        assert abs(base - scaled) < 1e-12
        if a * a + b * b >= 1.0:
            with_t = complexity_similarity(a, b, 1e-6)
            assert abs(with_t - base) <= 1e-3

    def test_bounds(self):
        assert 0.0 < complexity_similarity(5.0, 0.0, 1e-6) <= 1.0
        assert 0.0 < complexity_similarity(0.0, 0.0, 1e-6) <= 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            complexity_similarity(-1.0, 0.0, 1e-6)
        with pytest.raises(ValueError):
            complexity_similarity(1.0, 1.0, 0.0)


class TestGDifference:
    def test_identical_points_zero(self):
        p = Point(np.array([1.0, 2, 3]), np.array([9.0, 8, 7]))
        assert g_pair(p, p, RGB_W) == 0.0

    def test_unit_geometry_offset_same_color(self):
        a = Point(np.array([0.0, 0, 0]), np.array([5.0, 5, 5]))
        b = Point(np.array([1.0, 0, 0]), np.array([5.0, 5, 5]))
        assert g_pair(a, b, RGB_W) == 1.0

    def test_zero_geometry_any_color_is_zero(self):
        a = Point(np.array([1.0, 1, 1]), np.array([0.0, 0, 0]))
        b = Point(np.array([1.0, 1, 1]), np.array([255.0, 255, 255]))
        assert g_pair(a, b, RGB_W) == 0.0

    @given(seed=st.integers(0, 9999))
    @settings(max_examples=30)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a = Point(rng.uniform(-5, 5, 3), rng.uniform(0, 255, 3))
        b = Point(rng.uniform(-5, 5, 3), rng.uniform(0, 255, 3))
        assert g_pair(a, b, RGB_W) == g_pair(b, a, RGB_W)

    def test_color_weighting(self):
        a = Point(np.array([0.0, 0, 0]), np.array([0.0, 0, 0]))
        b = Point(np.array([0.0, 0, 2.0]), np.array([10.0, 4.0, 8.0]))
        want = (0.25 * 10 + 0.5 * 4 + 0.25 * 8 + 1.0) * 2.0
        assert abs(g_pair(a, b, RGB_W) - want) < 1e-12

    @pytest.mark.parametrize("color_space", ["rgb", "yuv"])
    def test_rows_match_scalar_oracle(self, rng, color_space):
        weights = color_weights_for(MetricConfig(color_space=color_space))
        anchor = np.column_stack([rng.uniform(-5, 5, size=(40, 3)),
                                  rng.uniform(0, 255, size=(40, 3))])
        ids = rng.integers(0, 40, size=(40, 7))
        got = _g_rows(anchor, anchor[ids], weights)
        for i in range(40):
            a = Point(anchor[i, :3], anchor[i, 3:])
            want = [g_difference(a, Point(anchor[j, :3], anchor[j, 3:]), weights)
                    for j in ids[i]]
            assert got[i].tolist() == want


class TestDifferenceFields:
    """Both fields of a patch on the rows ``_field_neighbor_ids`` picks from
    the first reconstruction, as the pipeline builds them."""

    def test_identical_predictions_equal_fields(self, rng):
        positions = rng.uniform(-3, 3, size=(30, 3))
        x_hat = np.column_stack([positions, rng.uniform(0, 255, size=(30, 3))])
        ids = _field_neighbor_ids(x_hat, 5)
        y_hat = x_hat.copy()
        assert np.array_equal(_g_rows(x_hat, x_hat[ids], RGB_W),
                              _g_rows(y_hat, y_hat[ids], RGB_W))

    def test_collinear_constant_color(self):
        x_hat = np.array([[0.0, 0, 0, 9, 9, 9],
                          [1.0, 0, 0, 9, 9, 9],
                          [3.0, 0, 0, 9, 9, 9]])
        ids = _field_neighbor_ids(x_hat, 2)
        fx = _g_rows(x_hat, x_hat[ids], RGB_W)
        # neighbor lists: point0 -> (1, 3), point1 -> (0, 3), point2 -> (1, 0)
        want = np.array([[1.0, 3.0], [1.0, 2.0], [2.0, 3.0]])
        assert np.allclose(fx, want, atol=1e-12)

    def test_ids_come_from_first_field_only(self, rng):
        positions = rng.uniform(-3, 3, size=(20, 3))
        x_hat = np.column_stack([positions, rng.uniform(0, 255, size=(20, 3))])
        y_hat = np.column_stack([rng.uniform(-3, 3, size=(20, 3)),
                                 rng.uniform(0, 255, size=(20, 3))])
        ids1 = _field_neighbor_ids(x_hat, 4)
        fx1, fy1 = _g_rows(x_hat, x_hat[ids1], RGB_W), _g_rows(y_hat, y_hat[ids1], RGB_W)
        perm = rng.permutation(20)
        ids2 = _field_neighbor_ids(x_hat, 4)
        y_perm = y_hat[perm]
        fx2, fy2 = _g_rows(x_hat, x_hat[ids2], RGB_W), _g_rows(y_perm, y_perm[ids2], RGB_W)
        assert np.array_equal(fx1, fx2)
        assert not np.array_equal(fy1, fy2)

    def test_short_patch_padding(self, rng):
        positions = rng.uniform(-3, 3, size=(3, 3))
        x_hat = np.column_stack([positions, rng.uniform(0, 255, size=(3, 3))])
        ids = _field_neighbor_ids(x_hat, 6)
        fx = _g_rows(x_hat, x_hat[ids], RGB_W)
        assert fx.shape == (3, 6)
        assert np.array_equal(fx[:, 2:], np.repeat(fx[:, 1:2], 4, axis=1))


class TestPredictionSimilarity:
    def test_identical_fields_exactly_one(self, rng):
        f = rng.uniform(0, 10, size=(40, 5))
        assert prediction_similarity(f, f.copy(), 1e-6) == 1.0

    def test_anticorrelated_fields(self, rng):
        f = rng.uniform(0, 10, size=(40, 5))
        g = -f + 20.0
        got = prediction_similarity(f, g, 1e-6)
        assert got <= -0.999

    def test_constant_fields(self):
        f = np.full((10, 3), 4.2)
        assert prediction_similarity(f, f * 0 + 7.0, 1e-6) == 1.0

    def test_affine_invariance_at_zero_stability(self, rng):
        fx = rng.uniform(0, 10, size=(30, 4))
        fy = rng.uniform(0, 10, size=(30, 4))
        base = prediction_similarity(fx, fy, 1e-300)
        mapped = prediction_similarity(2.5 * fx + 3.0, 2.5 * fy + 3.0, 1e-300)
        assert abs(base - mapped) < 1e-9


class TestPatchFeatures:
    def test_degenerate_reference_is_skipped(self, rng):
        ref, dist = make_pair(rng, 1, 10)
        out = patch_features(ref, dist, MetricConfig())
        assert out.skipped

    def test_empty_distorted_patch_rule(self, rng):
        ref, dist = make_pair(rng, 30, 0)
        out = patch_features(ref, dist, MetricConfig())
        assert not out.skipped
        assert (out.f1_geometry, out.f1_color, out.f2) == (0.0, 0.0, 0.0)

    def test_duplicate_cloud_perfect_features(self, rng):
        cfg = MetricConfig(neighbors=8)
        for _ in range(20):
            n = int(rng.integers(10, 60))
            ref = Patch(np.arange(n), rng.uniform(-3, 3, size=(n, 3)),
                        rng.uniform(0, 255, size=(n, 3)))
            out = patch_features(encode_reference_patch(ref, cfg), ref, cfg)
            assert out.f1_geometry == 1.0
            assert out.f1_color == 1.0
            assert out.f2 >= 0.99

    def test_random_pair_features_finite(self, rng):
        ref, dist = make_pair(rng, 200, 180)
        out = patch_features(ref, dist, MetricConfig())
        for value in (out.f1_geometry, out.f1_color, out.f2):
            assert np.isfinite(value)
        assert 0.0 <= out.f1_geometry <= 1.0
        assert 0.0 <= out.f1_color <= 1.0
        assert -1.0 - 1e-9 <= out.f2 <= 1.0 + 1e-9
        assert all(d >= 0 for d in out.diagnostics)

    def test_yuv_weights_used(self, rng):
        cfg = MetricConfig(color_space="yuv")
        assert np.allclose(color_weights_for(cfg), [0.75, 0.125, 0.125])
        raw = MetricConfig(color_space="yuv", color_weight_mode="raw")
        assert np.allclose(color_weights_for(raw), [6.0, 1.0, 1.0])
