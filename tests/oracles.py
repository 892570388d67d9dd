"""Independent reference implementations used to freeze expected values.

Everything here deliberately avoids the library's fast paths: exhaustive
scans, pseudo-inverse solves, the stacked Kronecker regression, and
plain-Python rank statistics. Tests compare the package against these.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Point:
    """A single point: 3D position plus a 3-channel color in [0, 255]."""

    position: np.ndarray
    color: np.ndarray


def knn_oracle(positions, query, k, exclude=None):
    """Exhaustive nearest-neighbor scan with the composite tie ordering.

    Every point's squared distance is the naive ``((p - query) ** 2).sum()``
    (evaluated for all points at once); candidates sort ascending by
    (squared distance, x, y, z, index) using plain Python tuple comparison.
    """
    positions = np.asarray(positions, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    d2 = ((positions - query) ** 2).sum(axis=1).tolist()
    rows = [(d, x, y, z, i)
            for i, (d, (x, y, z)) in enumerate(zip(d2, positions.tolist()))
            if exclude is None or i != exclude]
    rows.sort()
    rows = rows[:k]
    idx = np.array([r[4] for r in rows], dtype=np.intp)
    dist = np.array([np.sqrt(r[0]) for r in rows])
    return idx, dist


def nearest_seed_oracle(point, seed_positions):
    """Index of the nearest seed under the same composite ordering."""
    idx, _ = knn_oracle(seed_positions, point, k=1)
    return int(idx[0])


def cell_rows_oracle(positions, colors, seed_positions):
    """Each seed's cell, one (rows, positions, colors) triple per seed: the
    cloud rows whose ``nearest_seed_oracle`` is that seed, their positions
    minus the seed's, and their colors, sorted by (x, y, z, c0, c1, c2,
    row) with plain Python tuple comparison."""
    positions = np.asarray(positions, dtype=np.float64)
    colors = np.asarray(colors, dtype=np.float64)
    seed_positions = np.asarray(seed_positions, dtype=np.float64)
    keys = [[] for _ in seed_positions]
    for i, point in enumerate(positions):
        l = nearest_seed_oracle(point, seed_positions)
        rel = point - seed_positions[l]
        keys[l].append((*rel.tolist(), *colors[i].tolist(), i))
    cells = []
    for l, cell in enumerate(keys):
        rows = np.array([key[-1] for key in sorted(cell)], dtype=np.intp)
        cells.append((rows, positions[rows] - seed_positions[l], colors[rows]))
    return cells


def fps_oracle(positions, count):
    """Greedy farthest-point sampling with a full-cloud pass per pick.

    Points are visited in lexicographic (x, y, z, index) order, the first
    pick is the farthest from the centroid, and every later pick updates
    the nearest-pick distance of every point in the contract form
    ``(dx*dx + dy*dy) + dz*dz`` before taking the first maximum.
    """
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    order = np.lexsort((np.arange(n), positions[:, 2], positions[:, 1], positions[:, 0]))
    cx, cy, cz = (positions[order, j] for j in range(3))
    d2 = (cx - cx.mean()) ** 2 + (cy - cy.mean()) ** 2 + (cz - cz.mean()) ** 2
    picked = [int(np.argmax(d2))]
    min_d2 = np.full(n, np.inf)
    for _ in range(1, count):
        c = picked[-1]
        d2 = ((cx - cx[c]) ** 2 + (cy - cy[c]) ** 2) + (cz - cz[c]) ** 2
        np.minimum(min_d2, d2, out=min_d2)
        min_d2[c] = -1.0
        picked.append(int(np.argmax(min_d2)))
    return order[np.array(picked, dtype=np.intp)]


def g_difference(a: Point, b: Point, color_weights) -> float:
    """Combined geometry-color difference of two points, one pair at a time.

    The weighted absolute color difference (plus one) scales the Euclidean
    position distance, so coincident positions always give zero.
    """
    w = np.asarray(color_weights, dtype=np.float64)
    if (w < 0).any():
        raise ValueError("color weights must be nonnegative")
    color_term = float((w * np.abs(a.color - b.color)).sum()) + 1.0
    geom = float(np.sqrt(((a.position - b.position) ** 2).sum()))
    return color_term * geom


def g_rows_gather(anchor, neighbors, color_weights):
    """g over (n, 6) anchors and their gathered (n, K, 6) neighbor rows,
    summed across the channel axis (the pipeline's former form)."""
    dpos = neighbors[:, :, :3] - anchor[:, None, :3]
    geom = np.sqrt((dpos ** 2).sum(axis=2))
    dcol = np.abs(neighbors[:, :, 3:] - anchor[:, None, 3:])
    return ((dcol * color_weights).sum(axis=2) + 1.0) * geom


def pinv_predictions(design, targets):
    """Least-squares predictions through an explicit pseudo-inverse."""
    return design @ (np.linalg.pinv(design) @ targets)


def kron_solve(design, targets):
    """Vectorized multivariate least squares via the Kronecker lifting.

    Stacks the per-point d-vectors into one long vector, solves the lifted
    system (design kron I_d), and maps the coefficient vector back to the
    (d, p) parameter matrix. Algebraically identical to d independent
    per-channel solves on the shared design.
    """
    n, p = design.shape
    d = targets.shape[1]
    lifted = np.kron(design, np.eye(d))          # (n*d, p*d)
    stacked = targets.reshape(n * d)             # row-major: point-major d-vectors
    coeffs, *_ = np.linalg.lstsq(lifted, stacked, rcond=None)
    theta = coeffs.reshape(p, d).T               # (d, p)
    return (theta @ design.T).T                  # predictions (n, d)


def det3_oracle(m):
    """3x3 determinant by cofactor expansion."""
    return (m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]))


def ranks_oracle(values):
    """1-based fractional ranks computed with plain Python."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1.0
        for t in range(i, j + 1):
            ranks[order[t]] = avg
        i = j + 1
    return ranks


def pearson_oracle(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    da, db = a - a.mean(), b - b.mean()
    return float((da * db).sum() / np.sqrt((da * da).sum() * (db * db).sum()))


def spearman_rank_formula(a, b):
    """Spearman via 1 - 6*sum(d^2)/(n^3 - n); exact for distinct values."""
    ra = ranks_oracle(list(a))
    rb = ranks_oracle(list(b))
    n = len(ra)
    d2 = sum((x - y) ** 2 for x, y in zip(ra, rb))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def spearman_oracle(a, b):
    """Spearman as Pearson over fractional ranks (handles ties)."""
    return pearson_oracle(ranks_oracle(list(a)), ranks_oracle(list(b)))


def rmse_oracle(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.sqrt(((a - b) ** 2).mean()))
