import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from tcdm import spatial
from tcdm.segmentation import split_patches
from tcdm.spatial import (build_index, farthest_point_sampling, knn_batch,
                          random_sampling)

from oracles import fps_oracle, knn_oracle


def coords(draw_count, seed, extent=10.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-extent, extent, size=(draw_count, 3))


def padded(want, k):
    """An oracle (indices, distances) list widened to k by repeating its
    last entry, the width rule of ``knn_batch``."""
    cols = np.minimum(np.arange(k), len(want[0]) - 1)
    return want[0][cols], want[1][cols]


class TestKnn:
    """Single queries through the batch engine, read off row 0."""

    def test_single_point_self_query(self):
        index = build_index([[1.0, 2.0, 3.0]])
        idx, dist = knn_batch(index, [[1.0, 2.0, 3.0]], k=1)
        assert list(idx[0]) == [0]
        assert dist[0, 0] == 0.0

    def test_matches_oracle_random(self):
        pts = coords(1000, seed=5)
        index = build_index(pts)
        rng = np.random.default_rng(6)
        queries = rng.uniform(-10, 10, size=(50, 3))
        for q in queries:
            idx, dist = knn_batch(index, [q], k=5)
            want_idx, want_dist = knn_oracle(pts, q, k=5)
            assert np.array_equal(idx[0], want_idx)
            assert np.array_equal(dist[0], want_dist)

    def test_matches_oracle_on_grid_with_ties(self):
        # integer grid: massive exact ties exercise the composite ordering
        g = np.arange(4, dtype=np.float64)
        pts = np.array(np.meshgrid(g, g, g)).reshape(3, -1).T
        index = build_index(pts)
        for q in [(1.5, 1.5, 1.5), (0.0, 0.0, 0.0), (2.0, 1.0, 3.0), (1.0, 1.0, 1.0)]:
            for k in (1, 4, 9, 30):
                idx, _ = knn_batch(index, [q], k=k)
                want_idx, want_dist = knn_oracle(pts, q, k=k)
                assert np.array_equal(idx[0], want_idx), (q, k)

    def test_collinear_hand_case(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
        index = build_index(pts)
        idx, dist = knn_batch(index, [[1.0, 0, 0]], k=3)
        assert list(idx[0]) == [1, 0, 2]
        assert np.allclose(dist[0], [0.0, 1.0, 2.0])

    def test_lexicographic_tie_rule(self):
        pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        index = build_index(pts)
        idx, _ = knn_batch(index, [[0.0, 0.0, 0.0]], k=2)
        assert list(idx[0]) == [1, 0]  # (0,1,0) sorts before (1,0,0)

    def test_k_exceeding_points_repeats_farthest(self):
        pts = coords(3, seed=8)
        index = build_index(pts)
        idx, dist = knn_batch(index, [[0.0, 0.0, 0.0]], k=10)
        assert idx.shape == dist.shape == (1, 10)
        assert np.all(np.diff(dist[0]) >= 0)
        assert sorted(idx[0, :3]) == [0, 1, 2]
        assert np.all(idx[0, 3:] == idx[0, 2])
        assert np.all(dist[0, 3:] == dist[0, 2])

    def test_every_row_is_k_wide(self):
        # duplicates make zero distances and ties in the short lists too
        pts = np.concatenate([coords(6, seed=28), coords(2, seed=28)])
        n = len(pts)
        index = build_index(pts)
        for k in range(1, n + 4):
            idx, dist = knn_batch(index, pts, k)
            assert idx.shape == dist.shape == (n, k)
            for r, q in enumerate(pts):
                want = padded(knn_oracle(pts, q, k), k)
                assert np.array_equal(idx[r], want[0]), (k, r)
                assert np.array_equal(dist[r], want[1]), (k, r)

    def test_duplicates_accepted(self):
        pts = np.array([[1.0, 1, 1], [1.0, 1, 1], [2.0, 2, 2]])
        index = build_index(pts)
        idx, _ = knn_batch(index, [[1.0, 1, 1]], k=3)
        assert list(idx[0]) == [0, 1, 2]  # duplicate tie falls to lower index

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            build_index(np.zeros((0, 3)))

    @given(seed=st.integers(0, 10_000), k=st.integers(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_oracle_property(self, seed, k):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-5, 5, size=(rng.integers(2, 60), 3))
        q = rng.uniform(-5, 5, size=3)
        index = build_index(pts)
        idx, dist = knn_batch(index, [q], k=k)
        want_idx, want_dist = padded(knn_oracle(pts, q, k=k), k)
        assert np.array_equal(idx[0], want_idx)
        assert np.array_equal(dist[0], want_dist)

    def test_batch_agrees_with_single(self):
        pts = coords(300, seed=9)
        index = build_index(pts)
        queries = coords(40, seed=10)
        idx, dist = knn_batch(index, queries, k=7)
        for row, q in enumerate(queries):
            one_idx, one_dist = knn_batch(index, [q], k=7)
            assert np.array_equal(idx[row], one_idx[0])
            assert np.array_equal(dist[row], one_dist[0])


class TestTieFallback:
    """Batch queries on tie-heavy clouds, every row against the oracle."""

    @staticmethod
    def grid(size):
        g = np.arange(size, dtype=np.float64)
        return np.array(np.meshgrid(g, g, g)).reshape(3, -1).T

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        """Rows asked again with a wider candidate set, and rows scanned
        over every point, across the knn_batch calls of one test."""
        seen = {"widened": 0, "scanned": 0}
        tree_search, exact_scan = spatial._tree_search, spatial._exact_scan

        def counting_tree_search(pts, tree, queries, kk, w):
            if w > kk + 1:
                seen["widened"] += queries.shape[0]
            return tree_search(pts, tree, queries, kk, w)

        def counting_exact_scan(pts, queries, kk):
            seen["scanned"] += queries.shape[0]
            return exact_scan(pts, queries, kk)

        monkeypatch.setattr(spatial, "_tree_search", counting_tree_search)
        monkeypatch.setattr(spatial, "_exact_scan", counting_exact_scan)
        return seen

    def test_every_row_matches_oracle(self, fallbacks):
        big = self.grid(10)
        small = self.grid(3)
        # duplicated points make zero distances and boundary ties; on the
        # small cloud, widening the candidate set reaches every point
        for pts in (np.concatenate([big, big[::9], big[::97]]),
                    np.concatenate([small, small[::2]])):
            n = len(pts)
            # on-grid queries tie on every shell; half-offset ones sit between
            queries = np.concatenate([pts, pts[::13] + 0.5])
            index = build_index(pts)
            # oracle lists at the largest k; a smaller k's answer is their prefix
            want = [knn_oracle(pts, q, 20) for q in queries]
            for k in (1, 6, 20):
                idx, dist = knn_batch(index, queries, k)
                for r in range(len(queries)):
                    assert np.array_equal(idx[r], want[r][0][:k]), (n, k, r)
                    assert np.array_equal(dist[r], want[r][1][:k]), (n, k, r)
        assert fallbacks["widened"] > 0
        assert fallbacks["scanned"] > 0


class TestSortFreeRerank:
    """Rows the tree returns in exact (d², rank) order skip the re-rank."""

    @pytest.fixture
    def reranked(self, monkeypatch):
        """Rows of first-width tree queries, and those of them re-ranked."""
        seen = {"rows": 0, "reranked": 0}
        first = {"on": False}
        tree_search, rerank = spatial._tree_search, spatial._rerank

        def counting_tree_search(pts, tree, queries, kk, w):
            first["on"] = w == kk + 1
            if first["on"]:
                seen["rows"] += queries.shape[0]
            try:
                return tree_search(pts, tree, queries, kk, w)
            finally:
                first["on"] = False

        def counting_rerank(cand, d2, kk):
            if first["on"]:
                seen["reranked"] += d2.shape[0]
            return rerank(cand, d2, kk)

        monkeypatch.setattr(spatial, "_tree_search", counting_tree_search)
        monkeypatch.setattr(spatial, "_rerank", counting_rerank)
        return seen

    def test_mixed_rows_match_oracle(self, reranked):
        # a tie-free random cloud beside an integer grid whose points tie on
        # every shell; some grid points are duplicated, so a query on one
        # meets two candidates at distance zero
        rng = np.random.default_rng(23)
        g = np.arange(5, dtype=np.float64)
        grid = np.array(np.meshgrid(g, g, g)).reshape(3, -1).T + 100.0
        pts = np.concatenate([rng.uniform(-10, 10, size=(300, 3)), grid, grid[::11]])
        queries = np.concatenate([pts, rng.uniform(-10, 10, size=(20, 3)), grid[::7] + 0.5])
        want = [knn_oracle(pts, q, 12) for q in queries]
        index = build_index(pts)
        for k in (1, 4, 12):
            idx, dist = knn_batch(index, queries, k)
            for r in range(len(queries)):
                assert np.array_equal(idx[r], want[r][0][:k]), (k, r)
                assert np.array_equal(dist[r], want[r][1][:k]), (k, r)
        assert reranked["reranked"] > 0
        assert reranked["rows"] - reranked["reranked"] > 0

    def test_exact_check_catches_tree_order(self, monkeypatch):
        # a tree whose distances always look tie-free sends every row of a
        # tie-heavy grid to the exact d² check, which alone must catch ties
        class TieHidingTree(cKDTree):
            def query(self, x, k):
                tdist, cand = super().query(x, k=k)
                tdist[:, :-1] = tdist[:, -1:] * np.linspace(0.0, 0.5, k - 1)
                return tdist, cand

        monkeypatch.setattr(spatial, "cKDTree", TieHidingTree)
        g = np.arange(4, dtype=np.float64)
        grid = np.array(np.meshgrid(g, g, g)).reshape(3, -1).T
        pts = np.concatenate([grid, grid[::5]])
        index = build_index(pts)
        for k in (1, 6):
            idx, dist = knn_batch(index, pts, k)
            for r in range(len(pts)):
                want = knn_oracle(pts, pts[r], k)
                assert np.array_equal(idx[r], want[0]), (k, r)
                assert np.array_equal(dist[r], want[1]), (k, r)


def grid_with_duplicates(size, offset=0.0):
    g = np.arange(size, dtype=np.float64)
    grid = np.array(np.meshgrid(g, g, g)).reshape(3, -1).T + offset
    return np.concatenate([grid, grid[::5]])


class TestSlotBudget:
    """Query blocks of at most _SLOTS neighbor slots answer as one block."""

    @pytest.fixture
    def widened(self, monkeypatch):
        seen = {"rows": 0}
        tree_search = spatial._tree_search

        def counting_tree_search(pts, tree, queries, kk, w):
            if w > kk + 1:
                seen["rows"] += queries.shape[0]
            return tree_search(pts, tree, queries, kk, w)

        monkeypatch.setattr(spatial, "_tree_search", counting_tree_search)
        return seen

    # 40 slots: 20 rows a block at k=1, 5 at the first width of k=7, fewer
    # once widened; the default holds each query whole
    @pytest.mark.parametrize("slots", [40, spatial._SLOTS])
    def test_k1_and_widened_rows_match_oracle(self, monkeypatch, widened, slots):
        monkeypatch.setattr(spatial, "_SLOTS", slots)
        seeds = coords(60, seed=31)
        queries = np.concatenate([coords(300, seed=32), seeds[::3]])
        idx, dist = knn_batch(build_index(seeds), queries, 1)
        for r, q in enumerate(queries):
            want = knn_oracle(seeds, q, 1)
            assert np.array_equal(idx[r], want[0]) and np.array_equal(dist[r], want[1]), r
        pts = grid_with_duplicates(4)
        idx, dist = knn_batch(build_index(pts), pts, 7)
        for r, q in enumerate(pts):
            want = knn_oracle(pts, q, 7)
            assert np.array_equal(idx[r], want[0]) and np.array_equal(dist[r], want[1]), r
        assert widened["rows"] > 0


class TestSegments:
    """One knn_batch call over segments answers each as its own call would."""

    @staticmethod
    def segments():
        rng = np.random.default_rng(41)
        return [coords(200, seed=42),                  # tie-free, tree rows
                grid_with_duplicates(3, offset=50.0),  # ties: widened rows
                rng.uniform(-1, 1, size=(4, 3)),       # at most k: scanned
                np.array([[7.0, 7.0, 7.0], [7.0, 7.0, 7.0]]),
                coords(1, seed=43)]                    # one point

    @pytest.mark.parametrize("slots", [40, spatial._SLOTS])
    def test_each_segment_as_its_own_call(self, monkeypatch, slots):
        monkeypatch.setattr(spatial, "_SLOTS", slots)
        parts = self.segments()
        queries = [np.concatenate([p, p[::3] + 0.5]) for p in parts]
        bounds = np.cumsum([0] + [len(p) for p in parts])
        qbounds = np.cumsum([0] + [len(q) for q in queries])
        index = build_index(np.concatenate(parts), bounds)
        for k in (1, 6):
            idx, dist = knn_batch(index, np.concatenate(queries), k, qbounds)
            for s, (p, q) in enumerate(zip(parts, queries)):
                rows = slice(qbounds[s], qbounds[s + 1])
                one = knn_batch(build_index(p), q, k)
                assert np.array_equal(idx[rows] - bounds[s], one[0]), (s, k)
                assert np.array_equal(dist[rows], one[1]), (s, k)
                for r in range(len(q)):
                    want = padded(knn_oracle(p, q[r], k), k)
                    assert np.array_equal(one[0][r], want[0]) and np.array_equal(one[1][r], want[1])

    def test_bad_bounds_rejected(self):
        pts = coords(10, seed=44)
        with pytest.raises(ValueError, match="nonempty consecutive segments"):
            build_index(pts, [0, 4, 4, 10])
        with pytest.raises(ValueError, match="nonempty consecutive segments"):
            build_index(pts, [0, 4, 9])
        index = build_index(pts, [0, 4, 10])
        with pytest.raises(ValueError, match="one per index segment"):
            knn_batch(index, pts, 2, [0, 10])
        with pytest.raises(ValueError, match="one per index segment"):
            knn_batch(index, pts, 2)


class TestFpsMatchesOracle:
    """The slab-pruned loop picks exactly what a full pass per pick picks."""

    @staticmethod
    def check(pts):
        n = len(pts)
        for count in sorted({c for c in (1, 2, 50, n) if c <= n}):
            got = farthest_point_sampling(pts, count)
            assert np.array_equal(got, fps_oracle(pts, count)), (n, count)

    def test_random_clouds(self):
        rng = np.random.default_rng(24)
        for n in (1, 2, 3, 97, 400):
            self.check(rng.uniform(-10, 10, size=(n, 3)))
        self.check(rng.normal(size=(300, 3)) * np.array([1e-3, 1.0, 1e3]))

    def test_integer_grids_with_duplicates(self):
        g = np.arange(6, dtype=np.float64)
        grid = np.array(np.meshgrid(g, g, g)).reshape(3, -1).T
        self.check(np.concatenate([grid, grid[::3], grid[::7]]))
        self.check(np.concatenate([grid[:, ::-1], grid[::5]])[::-1])

    def test_jittered_lattices(self):
        # near-ties on a line put points just inside the slab's edge
        rng = np.random.default_rng(27)
        for n in (12, 28, 56):
            pts = np.zeros((n, 3))
            pts[:, 0] = np.arange(n) + rng.uniform(-1e-8, 1e-8, n)
            pts[:, 1] = rng.uniform(-1e-9, 1e-9, n)
            self.check(pts)
            self.check(pts * 1e-160)  # squared distances are subnormal

    def test_repeated_copies(self):
        base = np.random.default_rng(25).uniform(-1, 1, size=(40, 3))
        self.check(np.tile(base, (5, 1)))

    @pytest.mark.parametrize("spread", [1e-13, 1e-10, 1e-6])
    @pytest.mark.parametrize("offset", [0.0, 1.0, 1e4, 1e8])
    def test_tiny_clusters_far_out(self, spread, offset):
        # clusters narrower than the rounding of x_c ± r at large |x|
        rng = np.random.default_rng(26)
        clusters = [np.array([offset + 3.0 * c, c % 5, c % 3], dtype=np.float64)
                    + rng.uniform(-spread, spread, size=(int(rng.integers(1, 6)), 3))
                    for c in range(30)]
        clusters.append(np.full((2, 3), offset))
        self.check(np.concatenate(clusters))


class TestIndexOrder:
    """``order`` skips the lexsort for presorted rows and must agree with
    it on every input."""

    @staticmethod
    def lexsorted(pts):
        return np.lexsort((np.arange(len(pts)), pts[:, 2], pts[:, 1], pts[:, 0]))

    def cases(self):
        rng = np.random.default_rng(21)
        grid = rng.integers(0, 3, size=(200, 3)).astype(np.float64)
        rows = coords(150, seed=22)
        dup = np.repeat(coords(30, seed=23), 3, axis=0)
        signed_zeros = np.array([[0.0, 0, 0], [-0.0, 0, 0]])
        for pts in (rows, grid, dup, np.array([[0.0, 1, 2]]), signed_zeros):
            pts = pts[self.lexsorted(pts)]
            yield pts                       # presorted, ties included
            yield pts[::-1]                 # reversed
            yield pts[rng.permutation(len(pts))]

    def test_order_equals_lexsort(self):
        for pts in self.cases():
            assert np.array_equal(build_index(pts).order, self.lexsorted(pts))

    def test_presorted_is_identity(self, monkeypatch):
        sorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(1) or lexsort(keys))
        x_ties = np.array([[1.0, 2, 3], [1.0, 2, 4], [1.0, 3, 0], [2.0, -5, -5], [2.0, -5, -5]])
        assert build_index(x_ties).order.tolist() == [0, 1, 2, 3, 4]
        assert sorts == []
        assert build_index(x_ties[::-1]).order.tolist() == [4, 3, 2, 0, 1]
        assert build_index(x_ties[[1, 0, 2, 3, 4]]).order.tolist() == [1, 0, 2, 3, 4]
        assert len(sorts) == 2

    def test_split_patches_rows_skip_the_sort(self, monkeypatch):
        pts = np.round(coords(2000, seed=24), 1)
        seeds = pts[:12]
        labels, _ = knn_batch(build_index(seeds), pts, 1)
        # cut every patch first: split_patches sorts each one when it is indexed
        patches = list(split_patches(pts, np.zeros_like(pts), labels[:, 0], seeds))
        monkeypatch.setattr(np, "lexsort", None)   # any sort would raise
        for patch in patches:
            assert np.array_equal(build_index(patch.positions).order, np.arange(patch.count))


class TestPermutationInvariance:
    def test_knn_coordinates_invariant(self):
        pts = coords(100, seed=11)
        perm = np.random.default_rng(12).permutation(100)
        a = build_index(pts)
        b = build_index(pts[perm])
        q = np.array([0.3, -0.4, 0.9])
        ia, da = knn_batch(a, [q], k=8)
        ib, db = knn_batch(b, [q], k=8)
        assert np.array_equal(pts[ia[0]], pts[perm][ib[0]])
        assert np.array_equal(da, db)


class TestFps:
    def test_full_sample_is_permutation(self):
        pts = coords(40, seed=13)
        sel = farthest_point_sampling(pts, 40)
        assert sorted(sel) == list(range(40))

    def test_segment_hand_case(self):
        pts = np.array([[float(x), 0.0, 0.0] for x in range(11)])
        sel = farthest_point_sampling(pts, 2)
        # centroid at x=5; x=0 and x=10 tie at distance 5; lexicographic
        # tie-break picks x=0 first, then x=10 maximizes the min distance
        assert list(sel) == [0, 10]

    def test_permutation_oracle(self):
        pts = coords(100, seed=14)
        sel = farthest_point_sampling(pts, 17)
        rng = np.random.default_rng(15)
        for _ in range(5):
            perm = rng.permutation(100)
            sel_p = farthest_point_sampling(pts[perm], 17)
            assert np.array_equal(pts[sel], pts[perm][sel_p])

    def test_translation_and_scale_invariance(self):
        pts = coords(80, seed=16)
        sel = farthest_point_sampling(pts, 9)
        sel_t = farthest_point_sampling(pts + np.array([3.5, -1.25, 8.0]), 9)
        sel_s = farthest_point_sampling(pts * 4.0, 9)
        assert np.array_equal(sel, sel_t)
        assert np.array_equal(sel, sel_s)

    def test_cube_corners_exhaustive(self):
        corners = np.array([[x, y, z] for x in (0.0, 1) for y in (0.0, 1) for z in (0.0, 1)])
        sel = farthest_point_sampling(corners, 8)
        assert sorted(sel) == list(range(8))

    def test_count_out_of_range(self):
        pts = coords(5, seed=17)
        with pytest.raises(ValueError):
            farthest_point_sampling(pts, 6)
        with pytest.raises(ValueError):
            farthest_point_sampling(pts, 0)

    def test_spread_over_greedy_property(self):
        # every selected seed is at least as far from earlier seeds as any
        # unselected point is from the selected prefix (max-min property)
        pts = coords(60, seed=18)
        sel = farthest_point_sampling(pts, 8)
        chosen = pts[sel]
        for i in range(1, 8):
            prefix = chosen[:i]
            d_new = np.min(np.linalg.norm(prefix - chosen[i], axis=1))
            rest = np.delete(pts, sel[:i], axis=0)
            d_best = max(np.min(np.linalg.norm(prefix - p, axis=1)) for p in rest)
            assert d_new >= d_best - 1e-12


class TestRandomSampling:
    def test_full_sample_is_permutation(self):
        pts = coords(30, seed=19)
        sel = random_sampling(pts, 30, rng_seed=4)
        assert sorted(sel) == list(range(30))

    def test_reproducible(self):
        pts = coords(30, seed=20)
        a = random_sampling(pts, 10, rng_seed=123)
        b = random_sampling(pts, 10, rng_seed=123)
        assert np.array_equal(a, b)

    def test_seed_sweep_hits_both_points(self):
        pts = coords(2, seed=21)
        seen = {int(random_sampling(pts, 1, rng_seed=s)[0]) for s in range(20)}
        assert seen == {0, 1}

    def test_indices_distinct(self):
        pts = coords(50, seed=22)
        sel = random_sampling(pts, 25, rng_seed=9)
        assert len(set(map(int, sel))) == 25
