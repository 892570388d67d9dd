"""Full scoring pipeline: segmentation, per-patch features, fusion.

The final score fuses two global indices: F1, the product of the mean
geometry and mean color complexity similarities, and F2, the mean
prediction-field correlation, as Q = alpha * F1 + (1 - alpha) * F2.
Higher Q predicts better visual quality.

Scoring many distorted versions of one reference should go through
``prepare_reference`` once; everything derived from the reference alone
(seeds, its partition, self encodings, field neighbor rows) is reused.

Both halves work on groups of consecutive patches, cut by the neighbor
slots (points x K) of the reference patches; see ``_groups``.
"""

from __future__ import annotations

import logging
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, MetricConfig, rgb_to_yuv
# _g_rows and build_index are unused here; the benchmark's tracer swaps
# them under these names
from .features import ReferencePatch, _field_neighbor_ids, _g_rows, patch_features
from .pointcloud import PointCloud
from .savar import self_complexity
from .segmentation import nearest_seed_labels, select_seeds, split_patches
from .spatial import _SLOTS, build_index

__all__ = [
    "MetricConfig",
    "PatchCounts",
    "QualityReport",
    "ReferenceState",
    "encode_reference_patches",
    "prepare_reference",
    "score",
    "score_with_reference",
    "resolve_threads",
]

log = logging.getLogger("tcdm")

# Mean neighbor slots (points x K) per reference patch below which a pool of
# patch groups does not beat one thread: see the README's "Threads" section.
_POOL_MIN_SLOTS = 1500


@dataclass(frozen=True)
class PatchCounts:
    ref_points: int
    dist_points: int
    used: int
    skipped: int
    empty: int


@dataclass(frozen=True)
class QualityReport:
    q: float
    f1: float
    f1_geometry_mean: float
    f1_color_mean: float
    f2: float
    per_patch: list
    config: MetricConfig
    counts: PatchCounts

    def to_dict(self, include_patches: bool = False) -> dict:
        out = {
            "q": self.q,
            "f1": self.f1,
            "f1_geometry_mean": self.f1_geometry_mean,
            "f1_color_mean": self.f1_color_mean,
            "f2": self.f2,
            "config": self.config.to_dict(),
            "counts": {
                "ref_points": self.counts.ref_points,
                "dist_points": self.counts.dist_points,
                "patches_used": self.counts.used,
                "patches_skipped": self.counts.skipped,
                "patches_empty": self.counts.empty,
            },
        }
        if include_patches:
            out["per_patch"] = [
                {
                    "f1_geometry": p.f1_geometry,
                    "f1_color": p.f1_color,
                    "f2": p.f2,
                    "diagnostics": list(p.diagnostics),
                    "skipped": p.skipped,
                }
                for p in self.per_patch
            ]
        return out


@dataclass(frozen=True)
class ReferenceState:
    """Everything scoring needs that depends only on the reference."""

    config: MetricConfig
    seed_positions: np.ndarray
    ref_points: int
    patches: list


def resolve_threads(threads: int | None) -> int:
    """Worker count: explicit argument, then TCDM_THREADS, then machine;
    a count that is not an integer, or is below 1, raises."""
    name, env = "threads", os.environ.get("TCDM_THREADS", "").strip()
    if threads is None and not env:
        return max(1, os.cpu_count() or 1)
    if threads is None:
        name = "TCDM_THREADS"
        try:
            threads = int(env)
        except ValueError:
            raise ValueError(f"TCDM_THREADS must be an integer, got {env!r}") from None
    elif isinstance(threads, bool) or not isinstance(threads, numbers.Integral):
        raise ValueError(f"threads must be an integer, got {threads!r}")
    if threads < 1:
        raise ValueError(f"{name} must be >= 1, got {threads}")
    return int(threads)


def _working_colors(cloud: PointCloud, config: MetricConfig) -> np.ndarray:
    if config.color_space == "yuv":
        return rgb_to_yuv(cloud.colors)
    return cloud.colors


def encode_reference_patches(patches, config: MetricConfig) -> list:
    """Encode a group of reference patches from themselves and pick the
    neighbor rows of their difference fields, in order; a patch under 2
    points gets neither."""
    live = [p for p in patches if p.count >= 2]
    encs = self_complexity(live, config.neighbors, config.weight_scheme,
                           config.eta_mode, config.ridge)
    ids = _field_neighbor_ids([e.predictions for e in encs], config.neighbors)
    done = iter(zip(encs, ids))
    return [ReferencePatch(p, *next(done)) if p.count >= 2 else ReferencePatch(p, None, None)
            for p in patches]


def _groups(counts, k: int) -> list:
    """Consecutive patches cut into groups (slices of patch indices) of at
    most _SLOTS neighbor slots (points x K) each; a larger patch is a group
    of its own. Only the counts and K decide the cuts, and a score does not
    depend on them."""
    cuts, slots = [0], 0
    for l, n in enumerate(counts):
        if slots and slots + n * k > _SLOTS:
            cuts.append(l)
            slots = 0
        slots += n * k
    cuts.append(len(counts))
    return [slice(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]


def _map_groups(fn, counts, config: MetricConfig, threads: int | None, stage: str) -> list:
    """``fn`` over groups of patches, its per-patch results in patch order;
    pooled only when the caller asks for workers, there is more than one
    group and the patches' mean neighbor slots reach _POOL_MIN_SLOTS."""
    sized = [n for n in counts if n >= 2]
    slots = config.neighbors * sum(sized) / max(1, len(sized))
    groups = _groups(counts, config.neighbors)
    workers = min(resolve_threads(threads), len(groups) if slots >= _POOL_MIN_SLOTS else 1)
    log.debug("%s: %d worker(s), %.0f neighbor slots per patch", stage, workers, slots)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return [out for part in pool.map(fn, groups) for out in part]
    return [out for g in groups for out in fn(g)]


def prepare_reference(reference: PointCloud, config: MetricConfig | None = None,
                      threads: int | None = None) -> ReferenceState:
    """Segment the reference and encode every patch from itself."""
    config = config or DEFAULT_CONFIG
    reference.validate()
    if config.seeds > reference.count:
        raise ValueError(
            f"seed count {config.seeds} exceeds reference size {reference.count}")
    colors = _working_colors(reference, config)
    seeds = select_seeds(reference, config.seeds, config.sampling, config.sampling_seed)
    labels = nearest_seed_labels(reference.positions, seeds)
    ref_patches = split_patches(reference.positions, colors, labels, seeds)
    prepared = _map_groups(lambda g: encode_reference_patches(ref_patches[g], config),
                           ref_patches.counts, config, threads, "prepare")
    return ReferenceState(config=config, seed_positions=seeds,
                          ref_points=reference.count, patches=prepared)


def score_with_reference(state: ReferenceState, distorted: PointCloud,
                         threads: int | None = None) -> QualityReport:
    """Score a distorted cloud against a prepared reference."""
    distorted.validate()
    config = state.config
    colors = _working_colors(distorted, config)
    labels = nearest_seed_labels(distorted.positions, state.seed_positions)
    dist_patches = split_patches(distorted.positions, colors, labels, state.seed_positions)
    feats = _map_groups(lambda g: patch_features(state.patches[g], dist_patches[g], config),
                        [r.patch.count for r in state.patches], config, threads, "score")
    empty = int(np.sum(dist_patches.counts[[r.encoding is not None for r in state.patches]] == 0))
    return _fuse(feats, config, state.ref_points, distorted.count, empty)


def _fuse(feats: list, config: MetricConfig, n_ref: int, n_dist: int,
          empty: int) -> QualityReport:
    used = [f for f in feats if not f.skipped]
    if not used:
        raise ValueError("every patch is degenerate; cannot score this pair")
    f1_geom = float(np.mean([f.f1_geometry for f in used]))
    f1_col = float(np.mean([f.f1_color for f in used]))
    f2 = float(np.mean([f.f2 for f in used]))
    f1 = f1_geom * f1_col
    q = config.alpha * f1 + (1.0 - config.alpha) * f2
    counts = PatchCounts(
        ref_points=n_ref,
        dist_points=n_dist,
        used=len(used),
        skipped=len(feats) - len(used),
        empty=empty,
    )
    return QualityReport(q=q, f1=f1, f1_geometry_mean=f1_geom, f1_color_mean=f1_col,
                         f2=f2, per_patch=feats, config=config, counts=counts)


def score(reference: PointCloud, distorted: PointCloud,
          config: MetricConfig | None = None, threads: int | None = None) -> QualityReport:
    """Score one (reference, distorted) pair end to end."""
    state = prepare_reference(reference, config, threads=threads)
    return score_with_reference(state, distorted, threads=threads)
