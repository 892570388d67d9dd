"""Recorded scores of tiny seeded pairs, one per non-default setting.

One case scores a jittered copy under the default settings. Each other
case changes one axis of the configuration (weight scheme, color space,
color weights, eta mode, seed sampling) or one kind of input (a
downsampled pair, a pair with empty distorted cells, a pair whose patches
are narrower than the neighbor count). The recorded values are ``repr`` of
q, f1 and f2. They match bit for bit on the machine that recorded them and
within ``RTOL`` relative elsewhere, the tolerance the benchmark applies to
its own recorded scores.
"""

import pytest

from tcdm.config import MetricConfig
from tcdm.metric import prepare_reference, score_with_reference
from tcdm.pointcloud import DegradationSpec, PointCloud, degrade
from tcdm.synthetic import sphere_cloud

RTOL = 1e-12

RADIUS = 10.0


def _reference() -> PointCloud:
    return sphere_cloud(600, 11, radius=RADIUS)


def _jittered(cloud: PointCloud) -> PointCloud:
    return degrade(cloud, DegradationSpec("geometry_gaussian", 0.15, 3))


def _recolored(cloud: PointCloud) -> PointCloud:
    return degrade(_jittered(cloud), DegradationSpec("color_noise", 12.0, 4))


def _downsampled(cloud: PointCloud) -> PointCloud:
    return degrade(_jittered(cloud), DegradationSpec("downsample", 0.6, 5))


def _cap_removed(cloud: PointCloud) -> PointCloud:
    """The jittered copy without its top cap: the cells there lose every point."""
    noisy = _jittered(cloud)
    keep = noisy.positions[:, 2] < 0.6 * RADIUS
    return PointCloud(noisy.positions[keep], noisy.colors[keep])


BASE = dict(seeds=6, neighbors=8)

# name: (distortion, config)
CASES = {
    "default": (_jittered, MetricConfig(**BASE)),
    "constant_one": (_jittered, MetricConfig(**BASE, weight_scheme="constant_one")),
    "inverse_distance": (_jittered, MetricConfig(**BASE, weight_scheme="inverse_distance")),
    "exp_decay": (_jittered, MetricConfig(**BASE, weight_scheme="exp_decay")),
    "yuv": (_recolored, MetricConfig(**BASE, color_space="yuv")),
    "raw_color_weights": (_recolored, MetricConfig(**BASE, color_weight_mode="raw")),
    "variance_eta": (_jittered, MetricConfig(**BASE, eta_mode="variance")),
    "random_sampling": (_jittered, MetricConfig(**BASE, sampling="random", sampling_seed=9)),
    "downsampled": (_downsampled, MetricConfig(**BASE)),
    "empty_cell": (_cap_removed, MetricConfig(seeds=12, neighbors=8)),
    "under_width": (_recolored, MetricConfig(seeds=100, neighbors=4)),
}

# name: (repr(q), repr(f1), repr(f2))
GOLDEN = {
    "constant_one": ("0.8968835066399414", "0.8278447533300712", "0.926471543772743"),
    "default": ("0.9090561810106674", "0.8840588728805061", "0.9197693130664509"),
    "downsampled": ("0.4937435613236643", "0.07271802287291186", "0.6741830778025583"),
    "empty_cell": ("0.6810932243576177", "0.44114336342557986", "0.7839288790427767"),
    "exp_decay": ("0.9241296870733542", "0.8735961365763758", "0.9457869230006307"),
    "inverse_distance": ("0.9232202889426375", "0.9123695119098173", "0.9278706219567036"),
    "random_sampling": ("0.9061454025935076", "0.8874334234952366", "0.9141648222070525"),
    "raw_color_weights": ("0.8833592262442985", "0.8277193074349964", "0.9072049057339995"),
    "under_width": ("0.9617329422583722", "0.9999999988476653", "0.9453327751486753"),
    "variance_eta": ("0.9020396421942478", "0.8711408732213051", "0.9152819717540804"),
    "yuv": ("0.8778452281900399", "0.832944894093013", "0.8970882285173372"),
}


def _report(name):
    distortion, config = CASES[name]
    reference = _reference()
    state = prepare_reference(reference, config, threads=1)
    return state, score_with_reference(state, distortion(reference), threads=1)


def _close(got: float, recorded: str) -> bool:
    want = float(recorded)
    return got == want or abs(got - want) <= RTOL * abs(want)


@pytest.mark.parametrize("name", sorted(CASES))
def test_recorded_scores(name):
    _, report = _report(name)
    got = (report.q, report.f1, report.f2)
    bad = [f"{label}={value!r} (recorded {want})"
           for label, value, want in zip(("q", "f1", "f2"), got, GOLDEN[name])
           if not _close(value, want)]
    assert not bad, f"{name}: " + ", ".join(bad)


def test_empty_cell_case_has_empty_cells():
    _, report = _report("empty_cell")
    assert report.counts.empty > 0


def test_under_width_case_pads_neighbor_lists():
    state, _ = _report("under_width")
    k = state.config.neighbors
    assert any(2 <= p.patch.count <= k for p in state.patches)
