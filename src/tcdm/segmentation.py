"""Seed-induced space partition into aligned local patch pairs.

The reference cloud supplies a set of generating seeds; every point of both
clouds is labeled with its nearest seed, which realizes the cells of the
seeds' Voronoi diagram without ever materializing polyhedra. Members of a
cell form a patch; each patch is translated so its seed sits at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pointcloud import PointCloud
from .spatial import build_index, farthest_point_sampling, knn_batch, random_sampling

__all__ = [
    "SeedSet",
    "VoronoiPartition",
    "Patch",
    "PatchPair",
    "select_seeds",
    "assign_partition",
    "build_patch_pairs",
]


@dataclass(frozen=True)
class SeedSet:
    """Generating seeds: positions of sampled reference points."""

    positions: np.ndarray   # (L, 3)
    indices: np.ndarray     # (L,) rows of the reference cloud

    @property
    def count(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class VoronoiPartition:
    """Per-point nearest-seed labels for both clouds."""

    labels_ref: np.ndarray
    labels_dist: np.ndarray


@dataclass(frozen=True)
class Patch:
    """Points of one cell, translated so the seed is at the origin."""

    indices: np.ndarray     # original rows in the parent cloud
    positions: np.ndarray   # (n, 3) seed-relative coordinates
    colors: np.ndarray      # (n, 3) untouched by translation

    @property
    def count(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class PatchPair:
    seed_index: int
    seed_position: np.ndarray
    ref: Patch
    dist: Patch


def select_seeds(reference: PointCloud, count: int, strategy: str = "fps",
                 rng_seed: int = 0) -> SeedSet:
    """Sample ``count`` seed points from the reference cloud."""
    if strategy == "fps":
        idx = farthest_point_sampling(reference.positions, count)
    elif strategy == "random":
        idx = random_sampling(reference.positions, count, rng_seed)
    else:
        raise ValueError(f"unknown sampling strategy {strategy!r}")
    return SeedSet(reference.positions[idx].copy(), idx)


def nearest_seed_labels(positions: np.ndarray, seed_positions: np.ndarray) -> np.ndarray:
    """Label each point with its nearest seed.

    A k=1 query under the knn contract: ties resolve to the seed ranked
    first by (lexicographic position, seed index).
    """
    labels, _ = knn_batch(build_index(seed_positions), positions, 1)
    return labels[:, 0]


def assign_partition(reference: PointCloud, distorted: PointCloud,
                     seeds: SeedSet) -> VoronoiPartition:
    """Assign every point of both clouds to its nearest seed's cell."""
    return VoronoiPartition(
        labels_ref=nearest_seed_labels(reference.positions, seeds.positions),
        labels_dist=nearest_seed_labels(distorted.positions, seeds.positions),
    )


def _extract_patch(cloud: PointCloud, labels: np.ndarray, seed_idx: int,
                   seed_position: np.ndarray) -> Patch:
    members = np.flatnonzero(labels == seed_idx)
    return Patch(
        indices=members,
        positions=cloud.positions[members] - seed_position,
        colors=cloud.colors[members].copy(),
    )


def build_patch_pairs(reference: PointCloud, distorted: PointCloud,
                      partition: VoronoiPartition, seeds: SeedSet) -> list[PatchPair]:
    """One PatchPair per seed, in seed order; patch members keep cloud order."""
    pairs = []
    for l in range(seeds.count):
        seed_pos = seeds.positions[l]
        pairs.append(PatchPair(
            seed_index=l,
            seed_position=seed_pos,
            ref=_extract_patch(reference, partition.labels_ref, l, seed_pos),
            dist=_extract_patch(distorted, partition.labels_dist, l, seed_pos),
        ))
    return pairs
