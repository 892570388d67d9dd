"""Deterministic k-nearest-neighbor queries and seed sampling over 3D points.

Every query resolves exact distance ties by the same rule: ascending
(distance, lexicographic position (x, y, z), original index). The index
keeps its points' lexicographic order, and candidates are listed by rank in
it, so a single stable sort of squared distances realizes the full
composite ordering. A kd-tree (``scipy.spatial.cKDTree``) only proposes
candidates; their order is always decided on exact distances, and a row
whose candidate set cannot prove the answer is asked again with twice the
candidates, up to every point.

Squared distances are always accumulated coordinate by coordinate,
``(dx*dx + dy*dy) + dz*dz``, which is bitwise-identical to the naive
per-pair ``((a - b) ** 2).sum()`` an exhaustive oracle would use. Faster
formulations (gram-matrix tricks) round differently and would break exact
tie agreement, so they are deliberately avoided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "SpatialIndex",
    "NeighborList",
    "build_index",
    "knn",
    "knn_batch",
    "farthest_point_sampling",
    "random_sampling",
]

# Queries run in blocks of this many rows, so the distance blocks a query
# (or its exhaustive fallback) materializes stay O(_BLOCK * m) floats for
# an index of m points, whatever the patch size.
_BLOCK = 1024

# Relative margin between a kd-tree distance and the exact contract-form
# distance of the same pair; both are a few roundings off the true value.
_TREE_MARGIN = 1e-9


@dataclass(frozen=True)
class NeighborList:
    """knn result: indices with matching nondecreasing distances."""

    indices: np.ndarray
    distances: np.ndarray


class SpatialIndex:
    """Immutable point index with contract-exact tie ordering.

    ``order`` lists the points by rank; a kd-tree built over them in that
    order (per query batch, see ``knn_batch``) reports ranks.
    """

    def __init__(self, positions: np.ndarray):
        positions = np.ascontiguousarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {positions.shape}")
        if positions.shape[0] < 1:
            raise ValueError("cannot index an empty point set")
        if not np.isfinite(positions).all():
            raise ValueError("positions contain non-finite values")
        self.positions = positions
        n = positions.shape[0]
        # order: points sorted by (x, y, z, original index)
        self.order = np.lexsort((np.arange(n), positions[:, 2], positions[:, 1], positions[:, 0]))

    @property
    def count(self) -> int:
        return self.positions.shape[0]


def build_index(positions) -> SpatialIndex:
    return SpatialIndex(np.asarray(positions, dtype=np.float64))


def _rerank(pts: np.ndarray, queries: np.ndarray, cand: np.ndarray,
            excl: np.ndarray | None, kk: int):
    """The kk best of each row's candidate ranks, by (exact d², rank).

    ``pts`` holds the indexed points in rank order. ``cand`` holds
    ascending ranks, one row per query or one row shared by all, so a
    stable sort on d² alone realizes the composite ordering. Returns
    (ranks, squared distances), both (Q, kk).
    """
    d2 = queries[:, 0:1] - np.take(pts[:, 0], cand)
    d2 *= d2
    t = queries[:, 1:2] - np.take(pts[:, 1], cand)
    t *= t
    d2 += t
    t = queries[:, 2:3] - np.take(pts[:, 2], cand)
    t *= t
    d2 += t
    cand = np.broadcast_to(cand, d2.shape)
    if excl is not None:
        d2[cand == excl[:, None]] = np.inf
    sel = np.argsort(d2, axis=1, kind="stable")[:, :kk]
    return np.take_along_axis(cand, sel, axis=1), np.take_along_axis(d2, sel, axis=1)


def _exact_scan(pts: np.ndarray, queries: np.ndarray, excl: np.ndarray | None, kk: int):
    """Contract-exact top-kk over every indexed point."""
    return _rerank(pts, queries, np.arange(pts.shape[0]), excl, kk)


def _tree_search(pts: np.ndarray, tree: cKDTree, queries: np.ndarray,
                 excl: np.ndarray | None, kk: int, w: int):
    """Top-kk from ``w`` kd-tree candidates per row, and which rows are safe.

    A row is safe when its kk-th exact d² lies clearly below the w-th
    candidate's tree d²: every point outside the candidates is then
    strictly farther than the kk-th. Boundary ties, duplicates and zero
    distances leave a row unsafe.
    """
    tdist, cand = tree.query(queries, k=w)
    cand.sort(axis=1)
    ranks, d2 = _rerank(pts, queries, cand, excl, kk)
    bound = tdist[:, -1] * tdist[:, -1] * (1.0 - _TREE_MARGIN)
    return ranks, d2, d2[:, -1] < bound


def knn_batch(index: SpatialIndex, queries: np.ndarray, k: int,
              exclude: np.ndarray | None = None):
    """Vectorized knn for many queries.

    Returns (indices, distances) of shape (Q, min(k, N)) in original point
    numbering. When ``exclude`` names a point per row, that point never
    appears; rows where fewer than k candidates remain carry trailing
    entries with infinite distance (callers own any padding policy).
    """
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != 3:
        raise ValueError(f"queries must be (Q, 3), got {queries.shape}")
    if k < 1:
        raise ValueError("k must be >= 1")
    m = index.count
    kk = min(k, m)
    excl = None
    if exclude is not None:
        exclude = np.asarray(exclude)
        rank = np.empty(m, dtype=np.intp)
        rank[index.order] = np.arange(m)
        excl = np.where(exclude >= 0, rank[exclude], -1)
    # one candidate beyond the kk wanted (and the excluded one) is what the
    # safety test compares against
    w = min(kk + (excl is not None) + 1, m)
    # Built per call and dropped after: the pipeline queries each index
    # once, and a prepared reference keeps its patches' indices.
    pts = index.positions[index.order]
    tree = cKDTree(pts) if w < m else None
    n = queries.shape[0]
    ranks = np.empty((n, kk), dtype=np.intp)
    d2 = np.empty((n, kk))
    for lo in range(0, n, _BLOCK):
        todo = np.arange(lo, min(lo + _BLOCK, n))
        width = w
        # Unsafe rows are asked again with twice the candidates (ties on
        # voxel grids mostly clear at the next width), until every point
        # is a candidate and the scan is exhaustive.
        while todo.size:
            block_excl = None if excl is None else excl[todo]
            if width == m:
                ranks[todo], d2[todo] = _exact_scan(pts, queries[todo], block_excl, kk)
                break
            r, d, safe = _tree_search(pts, tree, queries[todo], block_excl, kk, width)
            ranks[todo[safe]], d2[todo[safe]] = r[safe], d[safe]
            todo = todo[~safe]
            width = min(2 * width, m)
    return index.order[ranks], np.sqrt(d2)


def knn(index: SpatialIndex, query, k: int, exclude: int | None = None) -> NeighborList:
    """Nearest neighbors of one query point under the tie-break contract."""
    query = np.asarray(query, dtype=np.float64).reshape(1, 3)
    excl = None if exclude is None else np.asarray([exclude])
    idx, dist = knn_batch(index, query, k, exclude=excl)
    valid = np.isfinite(dist[0])
    return NeighborList(idx[0][valid].copy(), dist[0][valid].copy())


def farthest_point_sampling(positions, count: int) -> np.ndarray:
    """Greedy max-min sampling of ``count`` point indices.

    The first pick is the point farthest from the coordinate centroid; each
    later pick maximizes the minimum distance to the picks so far. Ties go
    to the lexicographically smallest position, which makes the selected
    coordinate set independent of input ordering for distinct points.
    """
    index = build_index(positions)
    n = index.count
    if not (1 <= count <= n):
        raise ValueError(f"sample count must be in [1, {n}], got {count}")
    # rank-ordered columns, each its own contiguous array
    cx, cy, cz = (index.positions[index.order, j] for j in range(3))
    # Centroid over rank-ordered coordinates: permutation-stable summation.
    d2 = cx - cx.mean()
    d2 *= d2
    t = cy - cy.mean()
    t *= t
    d2 += t
    t = cz - cz.mean()
    t *= t
    d2 += t
    picked = np.empty(count, dtype=np.intp)
    current = int(np.argmax(d2))
    picked[0] = current
    min_d2 = np.full(n, np.inf)
    for i in range(1, count):
        d2 = cx - cx[current]
        d2 *= d2
        t = cy - cy[current]
        t *= t
        d2 += t
        t = cz - cz[current]
        t *= t
        d2 += t
        np.minimum(min_d2, d2, out=min_d2)
        min_d2[current] = -1.0  # never re-pick, even among exact duplicates
        current = int(np.argmax(min_d2))
        picked[i] = current
    min_d2[current] = -1.0
    return index.order[picked]


def random_sampling(positions, count: int, rng_seed: int) -> np.ndarray:
    """Uniformly random distinct indices, reproducible from the seed."""
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    if not (1 <= count <= n):
        raise ValueError(f"sample count must be in [1, {n}], got {count}")
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    return rng.choice(n, size=count, replace=False)
