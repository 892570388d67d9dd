"""Score properties on small random clouds, at one and two threads: a self
score of 1.0, and bit-equal scores across thread counts and under point
permutation.

The clouds mix distinct positions with exact duplicates, so seed sampling
and every neighbor plan meet zero distances and exact ties. The duplicates
carry the same color, or, for the self-comparison and one permutation
property, a color of their own.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tcdm.metric
from tcdm.config import (COLOR_SPACES, COLOR_WEIGHT_MODES, ETA_MODES, SAMPLING_STRATEGIES,
                         WEIGHT_SCHEMES, MetricConfig)
from tcdm.metric import score
from tcdm.pointcloud import PointCloud


@pytest.fixture(autouse=True, scope="module")
def pool_on_every_patch():
    # these clouds are far below the pool's size rule; force the pool so
    # that two threads really run patches side by side
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tcdm.metric, "_POOL_MIN_SLOTS", 0)
        yield


@st.composite
def clouds(draw, recolor=False):
    """Random clouds with duplicated points: same-colored duplicates, or,
    with ``recolor``, duplicates that draw a color of their own."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(40, 240))
    positions = rng.uniform(-50.0, 50.0, size=(n, 3))
    colors = rng.integers(0, 256, size=(n, 3)).astype(np.float64)
    dup = rng.integers(0, n, size=draw(st.integers(0, 60)))
    dup_colors = rng.integers(0, 256, size=(len(dup), 3)) if recolor else colors[dup]
    return PointCloud(np.concatenate([positions, positions[dup]]),
                      np.concatenate([colors, dup_colors]))


def configs(sampling=st.just("fps")):
    """Small configurations over every weight scheme, color space, eta mode
    and color weight mode. Random sampling picks seeds by row index, so it
    is drawn only where the point order stays fixed."""
    return st.builds(MetricConfig, seeds=st.integers(1, 4), neighbors=st.integers(2, 6),
                     sampling=sampling, sampling_seed=st.integers(0, 2**16),
                     weight_scheme=st.sampled_from(WEIGHT_SCHEMES),
                     color_space=st.sampled_from(COLOR_SPACES),
                     eta_mode=st.sampled_from(ETA_MODES),
                     color_weight_mode=st.sampled_from(COLOR_WEIGHT_MODES))


any_sampling = st.sampled_from(SAMPLING_STRATEGIES)


def jittered(cloud, seed):
    rng = np.random.default_rng(seed)
    return PointCloud(cloud.positions + rng.normal(0.0, 1.0, size=cloud.positions.shape),
                      cloud.colors)


@given(cloud=st.one_of(clouds(), clouds(recolor=True)), config=configs(any_sampling),
       threads=st.sampled_from([1, 2]))
@settings(max_examples=25, deadline=None)
def test_self_comparison_scores_one(cloud, config, threads):
    assert score(cloud, cloud, config, threads=threads).q == 1.0


@given(cloud=clouds(), config=configs(any_sampling), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_thread_count_leaves_score(cloud, config, seed):
    noisy = jittered(cloud, seed)
    assert score(cloud, noisy, config, threads=1).q == score(cloud, noisy, config, threads=2).q


@given(cloud=clouds(), config=configs(), threads=st.sampled_from([1, 2]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_point_permutation_leaves_score(cloud, config, threads, seed):
    noisy = jittered(cloud, seed)
    report = score(cloud, noisy, config, threads=threads)
    rng = np.random.default_rng(seed)
    pr, pd = rng.permutation(cloud.count), rng.permutation(noisy.count)
    permuted = score(PointCloud(cloud.positions[pr], cloud.colors[pr]),
                     PointCloud(noisy.positions[pd], noisy.colors[pd]), config,
                     threads=threads)
    assert (permuted.q, permuted.f1, permuted.f2) == (report.q, report.f1, report.f2)


@given(cloud=clouds(recolor=True), config=configs(), threads=st.sampled_from([1, 2]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_point_permutation_leaves_score_with_recolored_duplicates(cloud, config, threads, seed):
    # the distorted cloud keeps every position, so its coincident points
    # tie in the cross plans too
    rng = np.random.default_rng(seed)
    noisy = PointCloud(cloud.positions,
                       np.clip(cloud.colors + rng.normal(0.0, 20.0, size=cloud.colors.shape),
                               0.0, 255.0))
    report = score(cloud, noisy, config, threads=threads)
    pr, pd = rng.permutation(cloud.count), rng.permutation(noisy.count)
    permuted = score(PointCloud(cloud.positions[pr], cloud.colors[pr]),
                     PointCloud(noisy.positions[pd], noisy.colors[pd]), config,
                     threads=threads)
    assert (permuted.q, permuted.f1, permuted.f2) == (report.q, report.f1, report.f2)
