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
    "Patch",
    "select_seeds",
    "nearest_seed_labels",
    "split_patches",
]


@dataclass(frozen=True)
class Patch:
    """Points of one cell, translated so the seed is at the origin and
    sorted by that position, x then y then z, then by color (c0, c1, c2)."""

    positions: np.ndarray   # (n, 3) seed-relative coordinates
    colors: np.ndarray      # (n, 3) untouched by translation

    @property
    def count(self) -> int:
        return self.positions.shape[0]


def select_seeds(reference: PointCloud, count: int, strategy: str = "fps",
                 rng_seed: int = 0) -> np.ndarray:
    """Sample ``count`` seed positions, (count, 3), from the reference cloud."""
    if strategy == "fps":
        idx = farthest_point_sampling(reference.positions, count)
    elif strategy == "random":
        idx = random_sampling(reference.positions, count, rng_seed)
    else:
        raise ValueError(f"unknown sampling strategy {strategy!r}")
    return reference.positions[idx]


def nearest_seed_labels(positions: np.ndarray, seed_positions: np.ndarray) -> np.ndarray:
    """Label each point with its nearest seed.

    A k=1 query under the knn contract: ties resolve to the seed ranked
    first by (lexicographic position, seed index).
    """
    labels, _ = knn_batch(build_index(seed_positions), positions, 1)
    return labels[:, 0]


class PatchSplit:
    """One patch per seed, in seed order, its rows in an order (see ``Patch``)
    that does not follow the order of the cloud's points. A sequence: patch
    ``l`` is cut when it is indexed, and a slice of consecutive patches is
    cut at once, so a caller holds only what it keeps."""

    def __init__(self, positions, colors, labels, seed_positions):
        self._positions, self._colors, self._seeds = positions, colors, seed_positions
        self.counts = np.bincount(labels, minlength=seed_positions.shape[0])
        self._order = np.argsort(labels, kind="stable")  # per label, in cloud order
        self._bounds = np.concatenate([[0], np.cumsum(self.counts)])

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, key):
        picked = range(len(self.counts))[key]
        if isinstance(picked, int):
            return self._cut(picked, picked + 1)[0]
        if picked.step != 1:
            raise ValueError("only consecutive patches can be cut together")
        return self._cut(picked.start, max(picked.start, picked.stop))

    def _cut(self, lo: int, hi: int) -> list:
        bounds = self._bounds[lo:hi + 1]
        members = self._order[bounds[0]:bounds[-1]]
        label = np.repeat(np.arange(lo, hi), self.counts[lo:hi])
        rel = self._positions[members] - self._seeds[label]
        rows = np.lexsort((rel[:, 2], rel[:, 1], rel[:, 0], label))
        rel, colors = rel[rows], self._colors[members[rows]]
        # coincident rows of a patch go by color; rows equal in both keep
        # cloud order, and are interchangeable
        tie = (label[1:] == label[:-1]) & (rel[1:] == rel[:-1]).all(axis=1)
        if tie.any():
            run = np.cumsum(np.r_[True, ~tie])
            colors = colors[np.lexsort((colors[:, 2], colors[:, 1], colors[:, 0], run))]
        bounds = (bounds - bounds[0]).tolist()
        return [Patch(rel[a:b], colors[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def split_patches(positions: np.ndarray, colors: np.ndarray, labels: np.ndarray,
                  seed_positions: np.ndarray) -> PatchSplit:
    """The patches of a labelled cloud (see ``PatchSplit``)."""
    return PatchSplit(positions, colors, labels, seed_positions)
