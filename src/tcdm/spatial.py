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

No query leaves a point out. A caller that wants each indexed point's k
nearest other points asks for k + 1 and drops the first column: the point
itself wherever no other indexed point shares its position, and otherwise
the first of the coincident points by rank.

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

# A query block holds at most this many neighbor slots (rows x candidate
# width; for an exhaustive scan, rows x segment points), so the distance
# blocks a query, its widening or its scan materializes stay bounded
# whatever the patch size. The pipeline cuts its patch groups by the same
# budget (points x K).
_SLOTS = 1 << 14

# Relative margin between a kd-tree distance and the exact contract-form
# distance of the same pair; both are a few roundings off the true value.
_TREE_MARGIN = 1e-9


class SpatialIndex:
    """Immutable point index with contract-exact tie ordering.

    The points form one set, or consecutive segments searched each on its
    own: segment s is rows ``bounds[s]:bounds[s + 1]``. ``order`` lists
    each segment's points by rank in that same range of rows, so a kd-tree
    built over one segment's ranked points (per query batch, see
    ``knn_batch``) reports ranks counted from the segment's start.
    """

    def __init__(self, positions: np.ndarray, bounds=None):
        positions = np.ascontiguousarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {positions.shape}")
        if positions.shape[0] < 1:
            raise ValueError("cannot index an empty point set")
        if not np.isfinite(positions).all():
            raise ValueError("positions contain non-finite values")
        n = positions.shape[0]
        bounds = np.array([0, n]) if bounds is None else np.asarray(bounds, dtype=np.intp)
        if (bounds.ndim != 1 or bounds.size < 2 or bounds[0] != 0 or bounds[-1] != n
                or (bounds[1:] <= bounds[:-1]).any()):
            raise ValueError(f"bounds must cut the {n} points into nonempty consecutive "
                             f"segments, got {bounds}")
        self.positions = positions
        self.bounds = bounds
        # order: each segment's points sorted by (x, y, z, original index);
        # rows already in that order (as split_patches leaves them) skip the
        # sort, and a segment's first row need not follow the one before
        a, b = positions[:-1].T, positions[1:].T
        up = (a[0] < b[0]) | ((a[0] == b[0]) & ((a[1] < b[1]) | (a[1] == b[1]) & (a[2] <= b[2])))
        up[bounds[1:-1] - 1] = True
        if up.all():
            self.order = np.arange(n)
        else:
            keys = (np.arange(n), positions[:, 2], positions[:, 1], positions[:, 0])
            if bounds.size > 2:   # the segment decides first
                keys += (np.repeat(np.arange(bounds.size - 1), np.diff(bounds)),)
            self.order = np.lexsort(keys)

    @property
    def count(self) -> int:
        return self.positions.shape[0]


def build_index(positions, bounds=None) -> SpatialIndex:
    return SpatialIndex(np.asarray(positions, dtype=np.float64), bounds)


def _d2(a, b):
    """Contract-form d², ``(dx*dx + dy*dy) + dz*dz`` in that order, between
    the coordinate triples ``a`` and ``b`` (arrays or scalars that
    broadcast together). Every squared distance here is this one."""
    d2, t, u = (p - q for p, q in zip(a, b))
    d2 *= d2
    t *= t
    d2 += t
    u *= u
    d2 += u
    return d2


def _sq_dists(pts: np.ndarray, queries: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Contract-form d² from each query to its candidate ranks (Q, w)."""
    return _d2([queries[:, j:j + 1] for j in range(3)],
               [np.take(pts[:, j], cand) for j in range(3)])


def _rerank(cand: np.ndarray, d2: np.ndarray, kk: int):
    """The kk best of each row's candidate ranks, by (exact d², rank).

    ``cand`` holds ascending ranks, one row per query or one row shared by
    all, and ``d2`` their contract d² (Q, w). A stable sort on d² alone
    then realizes the composite ordering. Returns (ranks, squared
    distances), both (Q, kk).
    """
    cand = np.broadcast_to(cand, d2.shape)
    sel = np.argsort(d2, axis=1, kind="stable")[:, :kk]
    return np.take_along_axis(cand, sel, axis=1), np.take_along_axis(d2, sel, axis=1)


def _exact_scan(pts: np.ndarray, queries: np.ndarray, kk: int):
    """Contract-exact top-kk over every indexed point."""
    cand = np.arange(pts.shape[0])
    return _rerank(cand, _sq_dists(pts, queries, cand), kk)


def _tree_search(pts: np.ndarray, tree: cKDTree, queries: np.ndarray, kk: int, w: int):
    """Top-kk from ``w`` kd-tree candidates per row, and which rows are safe.

    The tree lists candidates by its own distance. In a first query (one
    candidate beyond the kk wanted), a row whose exact d² strictly increase
    in that order is already in (d², rank) order and is sliced as is.
    Other rows, and every row of a widened query (each failed on a tie
    before), are re-ranked, and so is every row of a query where most rows
    have equal tree distances. A row is safe when its kk-th exact d² lies
    clearly below the w-th candidate's tree d²: every point outside the
    candidates is then strictly farther than the kk-th. Boundary ties,
    duplicates and zero distances leave a row unsafe.
    """
    tdist, cand = tree.query(queries, k=w)
    fast = np.zeros(len(cand), dtype=bool)
    if w == kk + 1:
        fast = (tdist[:, 1:] > tdist[:, :-1]).all(axis=1)
    # Slicing the slow rows out costs more than the sorts the fast ones
    # save unless they are the majority; on voxel grids most rows tie.
    if 2 * np.count_nonzero(fast) > len(fast):
        d2 = _sq_dists(pts, queries, cand)
        fast &= (d2[:, 1:] > d2[:, :-1]).all(axis=1)
        ranks, dk = cand[:, :kk], d2[:, :kk]
        slow = ~fast
        if slow.any():
            c = np.sort(cand[slow], axis=1)
            ranks[slow], dk[slow] = _rerank(c, _sq_dists(pts, queries[slow], c), kk)
    else:
        cand.sort(axis=1)
        ranks, dk = _rerank(cand, _sq_dists(pts, queries, cand), kk)
    bound = tdist[:, -1] * tdist[:, -1] * (1.0 - _TREE_MARGIN)
    return ranks, dk, dk[:, -1] < bound


def _runs(segs: np.ndarray):
    """(value, start, stop) of each run of equal entries in ``segs``."""
    if segs[0] == segs[-1]:   # sorted and nonempty: one run
        return [(int(segs[0]), 0, segs.size)]
    cuts = np.flatnonzero(segs[1:] != segs[:-1]) + 1
    starts = np.concatenate([[0], cuts])
    stops = np.concatenate([cuts, [segs.size]])
    return zip(segs[starts].tolist(), starts.tolist(), stops.tolist())


class _Trees:
    """The kd-trees of the segments that one block of query rows asks,
    queried as one tree: row i asks the tree of segment ``segs[i]`` (built
    over that segment's ranked points when first asked, and kept in
    ``built`` for later blocks), and the ranks it reports are shifted to
    count from the index's first point."""

    def __init__(self, pts: np.ndarray, bounds: np.ndarray, built: dict, segs: np.ndarray):
        self._pts, self._bounds, self._built, self._segs = pts, bounds, built, segs

    def query(self, x: np.ndarray, k: int):
        parts = []
        for s, lo, hi in _runs(self._segs):
            start = int(self._bounds[s])
            tree = self._built.get(s)
            if tree is None:
                tree = self._built[s] = cKDTree(self._pts[start:self._bounds[s + 1]])
            tdist, cand = tree.query(x[lo:hi], k=k)
            cand += start
            parts.append((tdist, cand))
        if len(parts) == 1:
            return parts[0]
        return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def knn_batch(index: SpatialIndex, queries: np.ndarray, k: int, query_bounds=None):
    """The k nearest indexed points of each query row, for many rows at once.

    Over an index of segments, query rows
    ``query_bounds[s]:query_bounds[s + 1]`` are answered from segment s
    alone, exactly as a call on that segment would; ``None`` asks the one
    segment of an unsegmented index with every row. Returns (indices,
    distances) of shape (Q, k), indices in original point numbering,
    counted from the index's first row across segments. Every row is k
    wide: when fewer points are indexed, the farthest one repeats.
    """
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != 3:
        raise ValueError(f"queries must be (Q, 3), got {queries.shape}")
    if k < 1:
        raise ValueError("k must be >= 1")
    n, bounds = queries.shape[0], index.bounds
    qb = np.asarray([0, n] if query_bounds is None else query_bounds, dtype=np.intp)
    if qb.shape != bounds.shape or qb[0] != 0 or qb[-1] != n or (qb[1:] < qb[:-1]).any():
        raise ValueError(f"query_bounds must cut the {n} queries into {bounds.size - 1} "
                         f"consecutive ranges, one per index segment, got {qb}")
    m = np.diff(bounds)
    pts = index.positions[index.order]
    # kd-trees are built per call, per segment asked, and dropped after:
    # the pipeline queries each index once, and a prepared reference keeps
    # no index
    trees = {}
    ranks = np.empty((n, k), dtype=np.intp)
    d2 = np.empty((n, k))
    # One candidate beyond the k wanted is what the safety test compares
    # against. Unsafe rows are asked again with twice the candidates (ties
    # on voxel grids mostly clear at the next width), until every point of
    # their segment is a candidate and the scan is exhaustive; a segment of
    # no more points than that is scanned at once.
    todo, width = np.arange(n), k + 1
    while todo.size:
        step = max(1, _SLOTS // width)
        unsafe = [np.empty(0, dtype=np.intp)]
        for i in range(0, todo.size, step):
            rows = todo[i:i + step]
            segs = np.searchsorted(qb, rows, side="right") - 1
            scan = m[segs] <= width
            if scan.any():
                # a scanned segment has at most width points, so its rows'
                # distance block stays within the budget as well
                scanned = rows[scan]
                for s, a, b in _runs(segs[scan]):
                    r = scanned[a:b]
                    lo, hi = int(bounds[s]), int(bounds[s + 1])
                    # when fewer points are indexed, the farthest one repeats
                    kk = min(k, hi - lo)
                    got, dk = _exact_scan(pts[lo:hi], queries[r], kk)
                    got += lo
                    ranks[r, :kk], ranks[r, kk:] = got, got[:, -1:]
                    d2[r, :kk], d2[r, kk:] = dk, dk[:, -1:]
                rows, segs = rows[~scan], segs[~scan]
            if rows.size:
                got, dk, safe = _tree_search(pts, _Trees(pts, bounds, trees, segs),
                                             queries[rows], k, width)
                ranks[rows[safe]], d2[rows[safe]] = got[safe], dk[safe]
                unsafe.append(rows[~safe])
        todo = np.concatenate(unsafe)
        width *= 2
    return index.order[ranks], np.sqrt(d2, out=d2)


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
    d2 = _d2((cx, cy, cz), (cx.mean(), cy.mean(), cz.mean()))
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
        d2 = _d2((cx[lo:hi], cy[lo:hi], cz[lo:hi]), (x, cy[current], cz[current]))
        seg = min_d2[lo:hi]
        np.minimum(seg, d2, out=seg)
        min_d2[current] = -1.0  # never re-pick, even among exact duplicates
        current = int(np.argmax(min_d2))
        r2 = float(min_d2[current])
        picked[i] = current
    return index.order[picked]


def random_sampling(positions, count: int, rng_seed: int) -> np.ndarray:
    """Uniformly random distinct indices, reproducible from the seed, drawn
    as lexicographic ranks so that the sampled positions ignore point order."""
    index = build_index(positions)
    n = index.count
    if not (1 <= count <= n):
        raise ValueError(f"sample count must be in [1, {n}], got {count}")
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    return index.order[rng.choice(n, size=count, replace=False)]
