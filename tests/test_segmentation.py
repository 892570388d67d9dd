import numpy as np
import pytest

from tcdm.pointcloud import PointCloud
from tcdm.savar import self_complexity
from tcdm.segmentation import nearest_seed_labels, select_seeds, split_patches
from tcdm.spatial import farthest_point_sampling

from conftest import random_cloud
from oracles import cell_rows_oracle, nearest_seed_oracle


def patch_pairs(ref, dist, sp):
    """(reference patch, distorted patch) per seed, as the pipeline splits them."""
    refs = split_patches(ref.positions, ref.colors, nearest_seed_labels(ref.positions, sp), sp)
    dists = split_patches(dist.positions, dist.colors,
                          nearest_seed_labels(dist.positions, sp), sp)
    return list(zip(refs, dists))


@pytest.fixture
def cloud_pair(rng):
    ref = random_cloud(500, rng)
    dist = random_cloud(450, rng)
    return ref, dist


class TestSelectSeeds:
    def test_default_count_matches_published_setting(self):
        from tcdm.config import MetricConfig
        assert MetricConfig().seeds == 400

    def test_single_seed_covers_everything(self, cloud_pair):
        ref, dist = cloud_pair
        seeds = select_seeds(ref, 1)
        assert np.all(nearest_seed_labels(ref.positions, seeds) == 0)
        assert np.all(nearest_seed_labels(dist.positions, seeds) == 0)

    def test_fps_cube_corners(self):
        corners = np.array([[x, y, z] for x in (0.0, 1) for y in (0.0, 1) for z in (0.0, 1)])
        cloud = PointCloud(corners, np.zeros((8, 3)))
        assert sorted(farthest_point_sampling(corners, 8)) == list(range(8))
        seeds = select_seeds(cloud, 8, strategy="fps")
        assert sorted(map(tuple, seeds.tolist())) == sorted(map(tuple, corners.tolist()))

    def test_seed_positions_are_reference_points(self, cloud_pair):
        ref, _ = cloud_pair
        seeds = select_seeds(ref, 20)
        assert seeds.shape == (20, 3)
        assert np.array_equal(seeds, ref.positions[farthest_point_sampling(ref.positions, 20)])

    def test_random_strategy_reproducible(self, cloud_pair):
        ref, _ = cloud_pair
        a = select_seeds(ref, 10, strategy="random", rng_seed=3)
        b = select_seeds(ref, 10, strategy="random", rng_seed=3)
        assert np.array_equal(a, b)


class TestAssignPartition:
    def test_counts_are_exhaustive(self, cloud_pair):
        ref, dist = cloud_pair
        seeds = select_seeds(ref, 25)
        ref_counts = np.bincount(nearest_seed_labels(ref.positions, seeds),
                                 minlength=25)
        dist_counts = np.bincount(nearest_seed_labels(dist.positions, seeds),
                                  minlength=25)
        assert ref_counts.sum() == ref.count
        assert dist_counts.sum() == dist.count

    def test_point_on_seed_gets_that_label(self, cloud_pair):
        ref, _ = cloud_pair
        seeds = select_seeds(ref, 25)
        labels = nearest_seed_labels(ref.positions, seeds)
        for l, idx in enumerate(farthest_point_sampling(ref.positions, 25)):
            assert labels[idx] == l

    def test_two_seed_hand_case(self):
        ref = PointCloud(np.array([[0.0, 0, 0], [10.0, 0, 0], [4.0, 0, 0], [6.0, 0, 0]]),
                         np.zeros((4, 3)))
        # a draw of the points at x=0 and x=10, which the hand case needs
        seeds = select_seeds(ref, 2, strategy="random", rng_seed=11)
        assert sorted(seeds[:, 0]) == [0.0, 10.0]
        # find which seed sits at x=0 vs x=10
        order = np.argsort(seeds[:, 0])
        labels = nearest_seed_labels(ref.positions, seeds)
        assert labels[2] == order[0]  # x=4 -> seed at x=0
        assert labels[3] == order[1]  # x=6 -> seed at x=10

    def test_matches_knn_oracle(self, cloud_pair):
        ref, dist = cloud_pair
        seeds = select_seeds(ref, 25)
        labels = nearest_seed_labels(dist.positions, seeds)
        for i in range(0, dist.count, 37):
            assert labels[i] == nearest_seed_oracle(dist.positions[i], seeds)

    def test_tie_goes_to_lower_ranked_seed(self):
        # point equidistant to seeds at x=0 and x=2: lex order prefers x=0
        ref = PointCloud(np.array([[0.0, 0, 0], [2.0, 0, 0]]), np.zeros((2, 3)))
        labels = nearest_seed_labels(np.array([[1.0, 0.0, 0.0]]), ref.positions)
        assert labels[0] == 0


class TestNearestSeedLabelsTies:
    @pytest.fixture
    def tied_points(self):
        # integer grid around cube-corner seeds: the center is equidistant
        # from all 8 seeds, face centers from 4, edge midpoints from 2
        g = np.arange(-2.0, 3.0)
        pts = np.array(np.meshgrid(g, g, g)).reshape(3, -1).T
        seeds = np.array([[x, y, z] for x in (-1.0, 1) for y in (-1.0, 1) for z in (-1.0, 1)])
        seeds = seeds[[5, 2, 7, 0, 3, 6, 1, 4]]   # not in lexicographic order
        return np.concatenate([pts, pts * 0.5]), seeds

    def test_matches_oracle_on_ties(self, tied_points):
        pts, seeds = tied_points
        labels = nearest_seed_labels(pts, seeds)
        want = [nearest_seed_oracle(p, seeds) for p in pts]
        assert labels.tolist() == want

    def test_permutation_invariant(self, tied_points):
        pts, seeds = tied_points
        labels = nearest_seed_labels(pts, seeds)
        rng = np.random.default_rng(31)
        for _ in range(3):
            perm_pts = rng.permutation(len(pts))
            perm_seeds = rng.permutation(len(seeds))
            got = nearest_seed_labels(pts[perm_pts], seeds[perm_seeds])
            # same point, same seed position, whatever the input orders
            assert np.array_equal(seeds[perm_seeds][got], seeds[labels][perm_pts])


class TestBuildPatchPairs:
    def test_partition_properties(self, cloud_pair):
        ref, dist = cloud_pair
        seeds = select_seeds(ref, 25)
        pairs = patch_pairs(ref, dist, seeds)
        assert len(pairs) == 25
        assert sum(r.count for r, _ in pairs) == ref.count
        assert sum(d.count for _, d in pairs) == dist.count
        # every patch holds its cell's rows, bit for bit, in the documented order
        for cloud, side in ((ref, 0), (dist, 1)):
            cells = cell_rows_oracle(cloud.positions, cloud.colors, seeds)
            for pair, (_, positions, colors) in zip(pairs, cells):
                assert pair[side].positions.tobytes() == positions.tobytes()
                assert pair[side].colors.tobytes() == colors.tobytes()

    def test_seed_point_translates_to_origin(self, cloud_pair):
        ref, dist = cloud_pair
        seeds = select_seeds(ref, 25)
        pairs = patch_pairs(ref, dist, seeds)
        for r, _ in pairs:
            # the seed is a reference point of its own cell, and no other
            # point of this cloud shares its position
            assert np.count_nonzero(np.all(r.positions == 0.0, axis=1)) == 1

    def test_translation_reconstructs_members(self, cloud_pair):
        ref, dist = cloud_pair
        seeds = select_seeds(ref, 25)
        pairs = patch_pairs(ref, dist, seeds)
        cells = cell_rows_oracle(ref.positions, ref.colors, seeds)
        for (r, _), seed_position, (rows, _, _) in zip(pairs, seeds, cells):
            original = ref.positions[rows]
            back = r.positions + seed_position
            assert np.abs(back - original).max() <= 1e-12 * max(1.0, np.abs(original).max())
            assert np.array_equal(r.colors, ref.colors[rows])

    def test_members_in_lexicographic_order(self, rng):
        # x-ties on a coarse grid, plus exact duplicates of some points that
        # carry a color of their own
        grid = rng.integers(0, 4, size=(200, 3)).astype(np.float64)
        dup = rng.integers(0, 200, size=60)
        positions = np.concatenate([grid, grid[dup]])
        cloud = PointCloud(positions, rng.uniform(0, 255, size=(260, 3)))
        seeds = select_seeds(cloud, 5)
        labels = nearest_seed_labels(positions, seeds)
        cells = cell_rows_oracle(positions, cloud.colors, seeds)
        ties = 0
        for p, (_, want_positions, want_colors) in zip(
                split_patches(positions, cloud.colors, labels, seeds), cells):
            # sorted by position, then coincident points by color
            rows = [tuple(x) for x in np.hstack([p.positions, p.colors]).tolist()]
            assert rows == sorted(rows)
            assert p.positions.tobytes() == want_positions.tobytes()
            assert p.colors.tobytes() == want_colors.tobytes()
            same = np.all(p.positions[1:] == p.positions[:-1], axis=1)
            ties += np.count_nonzero(same & np.any(p.colors[1:] != p.colors[:-1], axis=1))
        assert ties > 0

    def test_joint_translation_invariance(self, cloud_pair):
        ref, dist = cloud_pair
        shift = np.array([5.5, -2.0, 11.0])
        seeds = select_seeds(ref, 10)
        pairs = patch_pairs(ref, dist, seeds)

        ref_t = PointCloud(ref.positions + shift, ref.colors)
        dist_t = PointCloud(dist.positions + shift, dist.colors)
        seeds_t = select_seeds(ref_t, 10)
        pairs_t = patch_pairs(ref_t, dist_t, seeds_t)
        for (ra, da), (rb, db) in zip(pairs, pairs_t):
            # the same members in the same order: every color is kept
            assert np.array_equal(ra.colors, rb.colors)
            assert np.array_equal(da.colors, db.colors)
            assert np.abs(ra.positions - rb.positions).max() < 1e-9
            assert np.abs(da.positions - db.positions).max() < 1e-9

    def test_permutation_invariance_of_memberships(self, rng):
        ref = random_cloud(300, rng)
        dist = random_cloud(280, rng)
        perm = rng.permutation(ref.count)
        ref_p = PointCloud(ref.positions[perm], ref.colors[perm])

        seeds = select_seeds(ref, 12)
        seeds_p = select_seeds(ref_p, 12)
        assert np.array_equal(seeds, seeds_p)

        pairs = patch_pairs(ref, dist, seeds)
        pairs_p = patch_pairs(ref_p, dist, seeds_p)
        for (ra, da), (rb, db) in zip(pairs, pairs_p):
            assert np.array_equal(ra.positions, rb.positions)
            assert np.array_equal(ra.colors, rb.colors)
            assert np.array_equal(da.positions, db.positions)
            assert np.array_equal(da.colors, db.colors)

    def test_permuted_cloud_encodes_bit_equal(self, rng):
        # rows come out in one order whatever the cloud order, so the fits
        # see the very same rows
        ref = random_cloud(400, rng)
        seeds = select_seeds(ref, 6)
        perm = rng.permutation(ref.count)
        ref_p = PointCloud(ref.positions[perm], ref.colors[perm])
        for ra, rb in patch_pairs(ref, ref_p, seeds):
            assert np.array_equal(ra.positions, rb.positions)
            assert np.array_equal(ra.colors, rb.colors)
            enc = self_complexity([ra], k=8)[0]
            enc_p = self_complexity([rb], k=8)[0]
            assert enc_p.complexity_geometry == enc.complexity_geometry
            assert enc_p.complexity_color == enc.complexity_color
            assert np.array_equal(enc_p.predictions, enc.predictions)

    def test_empty_distorted_patch_is_represented(self):
        ref = PointCloud(np.array([[0.0, 0, 0], [0.1, 0, 0], [10.0, 0, 0], [10.1, 0, 0]]),
                         np.zeros((4, 3)))
        dist = PointCloud(np.array([[0.05, 0.0, 0.0]]), np.zeros((1, 3)))
        seeds = select_seeds(ref, 2, strategy="fps")
        pairs = patch_pairs(ref, dist, seeds)
        counts = sorted(d.count for _, d in pairs)
        assert counts == [0, 1]
