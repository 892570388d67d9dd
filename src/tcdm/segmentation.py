"""Seed-induced space partition into aligned local patches.

The reference cloud supplies a set of generating seeds; every point of both
clouds is labeled with its nearest seed, which realizes the cells of the
seeds' Voronoi diagram without ever materializing polyhedra. Members of a
cell form a patch; each patch is translated so its seed sits at the origin.
Patch ``l`` of the reference and patch ``l`` of a distorted cloud form a pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pointcloud import PointCloud
from .spatial import build_index, farthest_point_sampling, knn_batch, random_sampling

__all__ = [
    "SeedSet",
    "Patch",
    "select_seeds",
    "nearest_seed_labels",
    "split_patches",
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
class Patch:
    """Points of one cell, translated so the seed is at the origin and
    sorted by that position, x then y then z (coincident: cloud order)."""

    indices: np.ndarray     # original rows in the parent cloud
    positions: np.ndarray   # (n, 3) seed-relative coordinates
    colors: np.ndarray      # (n, 3) untouched by translation

    @property
    def count(self) -> int:
        return self.positions.shape[0]


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


def split_patches(positions: np.ndarray, colors: np.ndarray, labels: np.ndarray,
                  seed_positions: np.ndarray) -> list[Patch]:
    """One patch per seed, in seed order, its rows in an order (see
    ``Patch``) that does not follow the order of the cloud's points."""
    n_seeds = seed_positions.shape[0]
    # stable sort groups members per label while keeping cloud order
    order = np.argsort(labels, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(labels, minlength=n_seeds))])
    patches = []
    for l in range(n_seeds):
        members = order[bounds[l]:bounds[l + 1]]
        rel = positions[members] - seed_positions[l]
        # a stable sort: coincident points keep cloud order
        rows = np.lexsort((rel[:, 2], rel[:, 1], rel[:, 0]))
        members = members[rows]
        patches.append(Patch(indices=members, positions=rel[rows], colors=colors[members]))
    return patches
