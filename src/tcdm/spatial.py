"""Deterministic k-nearest-neighbor queries and seed sampling over 3D points.

Every query resolves exact distance ties by the same rule: ascending
(distance, lexicographic position (x, y, z), original index). The index
keeps its points' lexicographic order, and candidates are listed by rank in
it, so a single stable sort of squared distances realizes the full
composite ordering. A kd-tree (``scipy.spatial.cKDTree``) only proposes
candidates; their order is always decided on exact distances (a row whose
exact distances already strictly increase in the tree's order needs no
sort), and a row whose candidate set cannot prove the answer is asked
again with twice the candidates, up to every point.

Squared distances are always accumulated coordinate by coordinate,
``(dx*dx + dy*dy) + dz*dz``, which is bitwise-identical to the naive
per-pair ``((a - b) ** 2).sum()`` an exhaustive oracle would use. Faster
formulations (gram-matrix tricks) round differently and would break exact
tie agreement, so they are deliberately avoided.
"""

from __future__ import annotations

import math
import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "SpatialIndex",
    "build_index",
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


def _sq_dists(pts: np.ndarray, queries: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Contract-form d² from each query to its candidate ranks (Q, w)."""
    d2 = queries[:, 0:1] - np.take(pts[:, 0], cand)
    d2 *= d2
    t = queries[:, 1:2] - np.take(pts[:, 1], cand)
    t *= t
    d2 += t
    t = queries[:, 2:3] - np.take(pts[:, 2], cand)
    t *= t
    d2 += t
    return d2


def _rerank(cand: np.ndarray, d2: np.ndarray, excl: np.ndarray | None, kk: int):
    """The kk best of each row's candidate ranks, by (exact d², rank).

    ``cand`` holds ascending ranks, one row per query or one row shared by
    all, and ``d2`` their contract d² (Q, w), overwritten where a row's
    excluded rank sits. A stable sort on d² alone then realizes the
    composite ordering. Returns (ranks, squared distances), both (Q, kk).
    """
    cand = np.broadcast_to(cand, d2.shape)
    if excl is not None:
        d2[cand == excl[:, None]] = np.inf
    sel = np.argsort(d2, axis=1, kind="stable")[:, :kk]
    return np.take_along_axis(cand, sel, axis=1), np.take_along_axis(d2, sel, axis=1)


def _exact_scan(pts: np.ndarray, queries: np.ndarray, excl: np.ndarray | None, kk: int):
    """Contract-exact top-kk over every indexed point."""
    cand = np.arange(pts.shape[0])
    return _rerank(cand, _sq_dists(pts, queries, cand), excl, kk)


def _tree_search(pts: np.ndarray, tree: cKDTree, queries: np.ndarray,
                 excl: np.ndarray | None, kk: int, w: int):
    """Top-kk from ``w`` kd-tree candidates per row, and which rows are safe.

    The tree lists candidates by its own distance. In a first query (one
    candidate beyond the kk wanted and the excluded one), a row whose exact
    d² strictly increase in that order is already in (d², rank) order and
    is sliced as is; with exclusion, the excluded point must come first and
    is dropped. Other rows, and every row of a widened query (each failed
    on a tie before), are re-ranked, and so is every row of a query where
    most rows have equal tree distances. A row is safe when its kk-th exact
    d² lies clearly below the w-th candidate's tree d²: every point outside
    the candidates is then strictly farther than the kk-th. Boundary ties,
    duplicates and zero distances leave a row unsafe.
    """
    tdist, cand = tree.query(queries, k=w)
    lo = 0 if excl is None else 1
    fast = np.zeros(len(cand), dtype=bool)
    if w == kk + lo + 1:
        fast = (tdist[:, lo + 1:] > tdist[:, lo:-1]).all(axis=1)
        if excl is not None:
            fast &= cand[:, 0] == excl
    # Slicing the slow rows out costs more than the sorts the fast ones
    # save unless they are the majority; on voxel grids most rows tie.
    if 2 * np.count_nonzero(fast) > len(fast):
        d2 = _sq_dists(pts, queries, cand)
        fast &= (d2[:, lo + 1:] > d2[:, lo:-1]).all(axis=1)
        ranks, dk = cand[:, lo:kk + lo], d2[:, lo:kk + lo]
        slow = ~fast
        if slow.any():
            c = np.sort(cand[slow], axis=1)
            ranks[slow], dk[slow] = _rerank(c, _sq_dists(pts, queries[slow], c),
                                            None if excl is None else excl[slow], kk)
    else:
        cand.sort(axis=1)
        ranks, dk = _rerank(cand, _sq_dists(pts, queries, cand), excl, kk)
    bound = tdist[:, -1] * tdist[:, -1] * (1.0 - _TREE_MARGIN)
    return ranks, dk, dk[:, -1] < bound


def knn_batch(index: SpatialIndex, queries: np.ndarray, k: int,
              exclude: np.ndarray | None = None):
    """Vectorized knn for many queries.

    Returns (indices, distances) of shape (Q, k) in original point
    numbering. When ``exclude`` names an index point per row, that point
    never appears (so excluding from a one-point index raises). Every row
    is k wide: when fewer points are left, the farthest one repeats.
    """
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != 3:
        raise ValueError(f"queries must be (Q, 3), got {queries.shape}")
    if k < 1:
        raise ValueError("k must be >= 1")
    m = index.count
    excl = None
    if exclude is not None:
        exclude = np.asarray(exclude)
        if exclude.shape != (queries.shape[0],) or exclude.dtype.kind not in "iu":
            raise ValueError(f"exclude must be {queries.shape[0]} integers, one per query, "
                             f"got shape {exclude.shape} of {exclude.dtype}")
        bad = np.flatnonzero((exclude < 0) | (exclude >= m))
        if bad.size:
            raise ValueError(f"exclude row {bad[0]}: point {exclude[bad[0]]} is not in [0, {m})")
        if m < 2:
            raise ValueError("no neighbors left after exclusion")
        rank = np.empty(m, dtype=np.intp)
        rank[index.order] = np.arange(m)
        excl = rank[exclude]
    kk = min(k, m - (excl is not None))
    # one candidate beyond the kk wanted (and the excluded one) is what the
    # safety test compares against
    w = min(kk + (excl is not None) + 1, m)
    # Built per call and dropped after: the pipeline queries each index
    # once, and a prepared reference keeps its patches' indices.
    pts = index.positions[index.order]
    tree = cKDTree(pts) if w < m else None
    n = queries.shape[0]
    # the kk found fill the leading columns; the rest repeat the last
    ranks = np.empty((n, k), dtype=np.intp)
    d2 = np.empty((n, k))
    for lo in range(0, n, _BLOCK):
        todo = np.arange(lo, min(lo + _BLOCK, n))
        width = w
        # Unsafe rows are asked again with twice the candidates (ties on
        # voxel grids mostly clear at the next width), until every point
        # is a candidate and the scan is exhaustive.
        while todo.size:
            block_excl = None if excl is None else excl[todo]
            if width == m:
                ranks[todo, :kk], d2[todo, :kk] = _exact_scan(pts, queries[todo], block_excl, kk)
                break
            r, d, safe = _tree_search(pts, tree, queries[todo], block_excl, kk, width)
            ranks[todo[safe], :kk], d2[todo[safe], :kk] = r[safe], d[safe]
            todo = todo[~safe]
            width = min(2 * width, m)
    ranks[:, kk:] = ranks[:, kk - 1:kk]
    d2[:, kk:] = d2[:, kk - 1:kk]
    return index.order[ranks], np.sqrt(d2)


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
    # Every min_d2 is at most r2, the current pick's own (it is the argmax),
    # so only points with |x - x_c| <= r can get closer to the pick, and cx
    # is ascending: they form one slice. fl(r*r) >= r2, as sqrt(r2) is 0,
    # inf or a normal float (even for a subnormal r2) that the margin makes
    # r exceed. A point outside the slice is more than r away in x (no float
    # lies between x_c - r and its rounding), so its contract d² >=
    # fl(dx*dx) >= fl(r*r) >= r2 >= its min_d2, which np.minimum would
    # keep. The first pass (r2 = inf) covers every point.
    r2 = np.inf
    for i in range(1, count):
        x = float(cx[current])
        r = math.sqrt(r2) * (1.0 + 1e-9)
        lo = int(np.searchsorted(cx, x - r))
        hi = int(np.searchsorted(cx, x + r, "right"))
        d2 = cx[lo:hi] - x
        d2 *= d2
        t = cy[lo:hi] - cy[current]
        t *= t
        d2 += t
        t = cz[lo:hi] - cz[current]
        t *= t
        d2 += t
        seg = min_d2[lo:hi]
        np.minimum(seg, d2, out=seg)
        min_d2[current] = -1.0  # never re-pick, even among exact duplicates
        current = int(np.argmax(min_d2))
        r2 = float(min_d2[current])
        picked[i] = current
    return index.order[picked]


def random_sampling(positions, count: int, rng_seed: int) -> np.ndarray:
    """Uniformly random distinct indices, reproducible from the seed."""
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    if not (1 <= count <= n):
        raise ValueError(f"sample count must be in [1, {n}], got {count}")
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    return rng.choice(n, size=count, replace=False)
