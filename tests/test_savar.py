import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcdm.segmentation import Patch
from tcdm.savar import (_design_from_plan, _weights_from_distances, build_neighbor_plan,
                        cross_complexity, fit_savar, self_complexity,
                        sigmoid_distance_values)
from tcdm.spatial import build_index

from oracles import det3_oracle, kron_solve, pinv_predictions


def random_patch(rng, n, scale=1.0):
    return Patch(np.arange(n),
                 rng.uniform(-scale, scale, size=(n, 3)),
                 rng.uniform(0.0, 255.0, size=(n, 3)))


class TestSpatialWeights:
    """Rows of neighbor distances through the weight function that every
    neighbor plan uses."""

    def test_coincident_neighbors_uniform(self):
        w = _weights_from_distances(np.zeros((1, 4)), "sigmoid_proposed", "std")
        assert np.allclose(w, 0.25, atol=1e-15)

    def test_two_equal_distances(self):
        w = _weights_from_distances(np.ones((1, 2)), "sigmoid_proposed", "std")
        assert np.allclose(w, 0.5, atol=1e-15)

    def test_hand_computed_three_distances(self):
        dists = [1.0, 2.0, 3.0]
        w = _weights_from_distances(np.array([dists]), "sigmoid_proposed", "std")
        mean = sum(dists) / 3
        eta = math.sqrt(sum((d - mean) ** 2 for d in dists) / 3)
        raw = [1.0 / (1.0 + math.exp(-d / eta)) for d in dists]
        total = sum(raw)
        expected = [r / total for r in raw]
        assert np.abs(w[0] - expected).max() < 1e-12

    def test_raw_values_in_half_open_unit_band(self, rng):
        d = rng.uniform(0.0, 50.0, size=(100, 20))
        raw = sigmoid_distance_values(d)
        assert raw.min() >= 0.5
        assert raw.max() < 1.0

    @given(seed=st.integers(0, 9999), k=st.integers(1, 16))
    @settings(max_examples=40, deadline=None)
    def test_sum_to_one_and_nonnegative(self, seed, k):
        d = np.random.default_rng(seed).uniform(0.0, 15.0, size=(1, k))
        for scheme in ("sigmoid_proposed", "constant_one", "inverse_distance", "exp_decay"):
            w = _weights_from_distances(d, scheme, "std")
            assert abs(w.sum() - 1.0) < 1e-12
            assert (w >= 0).all()

    def test_scale_invariance(self, rng):
        d = rng.uniform(0.0, 15.0, size=(1, 8))
        w1 = _weights_from_distances(d, "sigmoid_proposed", "std")
        w2 = _weights_from_distances(d * 7.5, "sigmoid_proposed", "std")
        assert np.abs(w1 - w2).max() < 1e-12

    def test_inverse_distance_zero_neighbor(self):
        w = _weights_from_distances(np.array([[0.0, 1.0]]), "inverse_distance", "std")
        assert np.allclose(w, [[1.0, 0.0]])

    def test_eta_variance_mode_differs(self, rng):
        d = rng.uniform(0.0, 8.0, size=(1, 6))
        w_std = _weights_from_distances(d, "sigmoid_proposed", "std")
        w_var = _weights_from_distances(d, "sigmoid_proposed", "variance")
        assert not np.allclose(w_std, w_var)


class TestAssembleDesign:
    def test_two_point_self_prediction(self):
        patch = Patch(np.arange(2), np.array([[0.0, 0, 0], [1.0, 0, 0]]),
                      np.array([[10.0, 20, 30], [40.0, 50, 60]]))
        plan = build_neighbor_plan(patch, patch, k=1, exclude="self",
                                   scheme="sigmoid_proposed", eta_mode="std")
        # sole neighbor carries weight 1: the other point's color verbatim
        assert np.array_equal(_design_from_plan(plan, patch.colors), patch.colors[::-1])

    def test_padding_repeats_farthest(self, rng):
        patch = random_patch(rng, 5)
        plan = build_neighbor_plan(patch, patch, k=20, exclude="self",
                                   scheme="sigmoid_proposed", eta_mode="std")
        assert plan.indices.shape == (5, 20)
        # columns 4..19 repeat column 3 (the farthest of the 4 usable neighbors)
        for col in range(4, 20):
            assert np.array_equal(plan.indices[:, col], plan.indices[:, 3])
            assert np.array_equal(plan.distances[:, col], plan.distances[:, 3])

    def test_lone_cross_source_repeats(self, rng):
        # "nearest" cannot drop the only point: every list is k copies of it
        ref = random_patch(rng, 6)
        dist = random_patch(rng, 1)
        want = np.sqrt(((ref.positions - dist.positions[0]) ** 2).sum(axis=1))
        for k in (1, 2, 7, 20):
            plan = build_neighbor_plan(ref, dist, k=k, exclude="nearest",
                                       scheme="sigmoid_proposed", eta_mode="std")
            assert plan.indices.shape == plan.distances.shape == (6, k)
            assert np.all(plan.indices == 0)
            assert np.array_equal(plan.distances, np.repeat(want[:, None], k, axis=1))
            # all-equal distances give a flat spread, so weights are uniform
            assert np.allclose(plan.weights, 1.0 / k)

    @pytest.mark.parametrize("exclude", [None, "none", "both"])
    def test_unknown_exclusion_rejected(self, rng, exclude):
        patch = random_patch(rng, 5)
        with pytest.raises(ValueError, match="unknown exclusion mode"):
            build_neighbor_plan(patch, patch, k=2, exclude=exclude,
                                scheme="sigmoid_proposed", eta_mode="std")

    def test_design_shape_and_weighting(self, rng):
        patch = random_patch(rng, 30)
        plan = build_neighbor_plan(patch, patch, k=4, exclude="self",
                                   scheme="sigmoid_proposed", eta_mode="std")
        design = _design_from_plan(plan, patch.positions)
        assert design.shape == (30, 12)
        row0 = np.concatenate([plan.weights[0, j] * patch.positions[plan.indices[0, j]]
                               for j in range(4)])
        assert np.allclose(design[0], row0, atol=1e-15)

    def test_empty_source_rejected(self, rng):
        patch = random_patch(rng, 3)
        empty = Patch(np.arange(0), np.zeros((0, 3)), np.zeros((0, 3)))
        with pytest.raises(ValueError):
            build_neighbor_plan(patch, empty, k=2, exclude="nearest",
                                scheme="sigmoid_proposed", eta_mode="std")


class TestFitSavar:
    def test_planted_solution(self, rng):
        design = rng.normal(size=(200, 60))
        theta0 = rng.normal(size=(3, 60))
        targets = design @ theta0.T
        fit = fit_savar(targets, design, ridge=0.0)
        assert np.linalg.norm(fit.residuals) <= 1e-9
        assert fit.complexity <= 1e-27

    def test_pinv_oracle(self, rng):
        design = rng.normal(size=(120, 60))
        targets = rng.normal(size=(120, 3))
        fit = fit_savar(targets, design, ridge=0.0)
        want = pinv_predictions(design, targets)
        rel = np.linalg.norm(fit.predictions - want) / np.linalg.norm(want)
        assert rel < 1e-8

    def test_kronecker_equivalence(self, rng):
        design = rng.normal(size=(90, 24))
        targets = rng.normal(size=(90, 3))
        fit = fit_savar(targets, design, ridge=0.0)
        want = kron_solve(design, targets)
        assert np.abs(fit.predictions - want).max() < 1e-10

    def test_isotropic_noise_complexity(self, rng):
        n = 10_000
        design = rng.normal(size=(n, 60))
        theta0 = rng.normal(size=(3, 60))
        noise_std = 0.5
        targets = design @ theta0.T + rng.normal(0.0, noise_std, size=(n, 3))
        fit = fit_savar(targets, design, ridge=0.0)
        v = noise_std ** 2
        assert abs(fit.complexity - v ** 3) < 0.1 * v ** 3

    def test_residual_identity_and_sigma(self, rng):
        design = rng.normal(size=(80, 15))
        targets = rng.normal(size=(80, 3))
        fit = fit_savar(targets, design)
        assert np.array_equal(fit.residuals, targets - fit.predictions)
        assert np.abs(fit.predictions + fit.residuals - targets).max() < 1e-12
        want_sigma = fit.residuals.T @ fit.residuals / 80
        assert np.abs(fit.sigma - want_sigma).max() < 1e-12
        assert np.abs(fit.sigma - fit.sigma.T).max() < 1e-12
        assert np.linalg.eigvalsh(fit.sigma).min() >= -1e-10
        assert abs(fit.complexity - max(det3_oracle(fit.sigma), 0.0)) <= 1e-12 * max(
            1.0, abs(fit.complexity))

    def test_singular_design_with_ridge(self):
        # rank-deficient design: duplicate columns
        base = np.random.default_rng(3).normal(size=(40, 3))
        design = np.hstack([base, base])
        targets = np.random.default_rng(4).normal(size=(40, 3))
        fit = fit_savar(targets, design, ridge=1e-8)
        assert np.isfinite(fit.predictions).all()
        assert fit.complexity >= 0.0

    def test_singular_design_without_ridge_uses_min_norm(self):
        base = np.random.default_rng(5).normal(size=(40, 3))
        design = np.hstack([base, base])
        targets = np.random.default_rng(6).normal(size=(40, 3))
        fit = fit_savar(targets, design, ridge=0.0)
        want = pinv_predictions(design, targets)
        assert np.abs(fit.predictions - want).max() < 1e-8

    def test_nonfinite_inputs_rejected(self):
        with pytest.raises(ValueError):
            fit_savar(np.array([[np.nan, 0, 0]]), np.ones((1, 3)))


class TestComplexities:
    def test_constant_color_zero_color_complexity(self, rng):
        patch = Patch(np.arange(50), rng.uniform(-1, 1, size=(50, 3)),
                      np.full((50, 3), 77.0))
        enc = self_complexity(patch, k=6, patch_index=build_index(patch.positions))
        assert enc.complexity_color <= 1e-12

    def test_plane_with_color_ramp(self, rng):
        n = 120
        uv = rng.uniform(-1, 1, size=(n, 2))
        e1 = np.array([1.0, 0.2, -0.3])
        e2 = np.array([-0.1, 1.0, 0.4])
        positions = np.array([0.5, -0.2, 0.7]) + uv[:, :1] * e1 + uv[:, 1:] * e2
        colors = np.clip(100 + 30 * uv[:, :1] + 20 * uv[:, 1:] + np.zeros((n, 3)), 0, 255)
        enc = self_complexity(Patch(np.arange(n), positions, colors), k=8,
                              patch_index=build_index(positions))
        assert enc.complexity_geometry <= 1e-12
        assert enc.complexity_color <= 1e-12

    @given(seed=st.integers(0, 9999))
    @settings(max_examples=25, deadline=None)
    def test_complexity_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        patch = random_patch(rng, int(rng.integers(2, 40)))
        enc = self_complexity(patch, k=5, patch_index=build_index(patch.positions))
        assert enc.complexity_geometry >= 0.0
        assert enc.complexity_color >= 0.0

    def test_duplicate_cloud_cross_equals_self(self, rng):
        # the closest distorted point is excluded exactly like the self
        # case, so identical patches give identical prediction problems
        for _ in range(20):
            patch = random_patch(rng, int(rng.integers(10, 80)))
            index = build_index(patch.positions)
            s = self_complexity(patch, k=10, patch_index=index)
            c = cross_complexity(patch, patch, k=10)
            assert c.complexity_geometry == s.complexity_geometry
            assert c.complexity_color == s.complexity_color
            assert np.array_equal(c.predictions, s.predictions)

    def test_cross_monotone_in_noise(self, rng):
        patch = random_patch(rng, 150, scale=5.0)
        diameter = np.linalg.norm(patch.positions.max(0) - patch.positions.min(0))
        means = []
        for frac in (0.01, 0.05, 0.1):
            vals = []
            for seed in range(10):
                noise_rng = np.random.default_rng(seed)
                noisy = Patch(patch.indices,
                              patch.positions + noise_rng.normal(0, frac * diameter,
                                                                 size=patch.positions.shape),
                              patch.colors)
                enc = cross_complexity(patch, noisy, k=10)
                vals.append(enc.complexity_geometry)
            means.append(np.mean(vals))
        assert means[0] <= means[1] <= means[2]

    def test_lone_distorted_point_completes(self, rng):
        ref = random_patch(rng, 20)
        lone = Patch(np.arange(1), rng.uniform(-1, 1, size=(1, 3)),
                     rng.uniform(0, 255, size=(1, 3)))
        enc = cross_complexity(ref, lone, k=20)
        assert np.isfinite(enc.predictions).all()

    def test_geometry_complexity_scales_sixth_power(self, rng):
        ref = random_patch(rng, 100, scale=2.0)
        dist = Patch(ref.indices,
                     ref.positions + rng.normal(0, 0.1, size=ref.positions.shape),
                     ref.colors)
        base = cross_complexity(ref, dist, k=8).complexity_geometry
        for s in (2.0, 10.0):
            scaled_ref = Patch(ref.indices, ref.positions * s, ref.colors)
            scaled_dist = Patch(dist.indices, dist.positions * s, dist.colors)
            got = cross_complexity(scaled_ref, scaled_dist, k=8).complexity_geometry
            assert abs(got - base * s ** 6) <= 1e-6 * abs(base * s ** 6)

    def test_degenerate_patches_rejected(self, rng):
        lone = random_patch(rng, 1)
        with pytest.raises(ValueError):
            self_complexity(lone, k=3, patch_index=build_index(lone.positions))
        empty = Patch(np.arange(0), np.zeros((0, 3)), np.zeros((0, 3)))
        ref = random_patch(rng, 10)
        with pytest.raises(ValueError):
            cross_complexity(ref, empty, k=3)
