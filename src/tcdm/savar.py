"""Space-aware vector autoregression over local patches.

Each point's 3-channel feature (geometry XYZ or color RGB) is regressed on
the distance-weighted features of its K nearest neighbors, with neighbors
drawn either from the patch itself (self-prediction) or from the paired
distorted patch (cross-prediction); both drop the nearest source point,
which in self-prediction is the point itself. The fit is a
closed-form multivariate least squares; the determinant of the residual
covariance is the patch's complexity under that prediction regime.

Geometry and color channels share one neighbor plan (neighbors and weights
depend only on geometry) but are fit independently, which is algebraically
identical to the stacked Kronecker formulation of the multivariate model.

Patches are encoded in groups: the neighbor search, the weights and the
designs run once over a group's rows, one patch after another, and each
patch is then fit on its own rows. A row's neighbors, weights and design
row do not depend on the other rows, so an encoding does not depend on how
patches are grouped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpocon, dpotrf

from .config import WEIGHT_SCHEMES
from .spatial import build_index, knn_batch

__all__ = [
    "NeighborPlan",
    "SAVarFit",
    "PatchEncoding",
    "sigmoid_distance_values",
    "build_neighbor_plan",
    "fit_savar",
    "self_complexity",
    "cross_complexity",
]

# Normal matrices with condition estimates beyond this get the ridge term.
_COND_LIMIT = 1e12


@dataclass(frozen=True)
class NeighborPlan:
    """Neighbor layout of a group's target rows: indices into the group's
    source rows, and weights, both (N, K)."""

    indices: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class SAVarFit:
    """Closed-form fit of one channel of one patch."""

    predictions: np.ndarray  # (n, d)
    complexity: float        # det of the residual covariance, clamped at 0


@dataclass(frozen=True)
class PatchEncoding:
    """Geometry and color complexities plus the reconstructed patch."""

    complexity_geometry: float
    complexity_color: float
    predictions: np.ndarray  # (n, 6): predicted XYZ then predicted color


def _over_spread(num: np.ndarray, dist: np.ndarray, eta_mode: str) -> np.ndarray:
    """Each row of ``num`` over the spread eta of the same row of ``dist``.

    eta is the row's standard deviation, squared in variance mode; a row
    with no spread gives 0.
    """
    spread = dist.std(axis=1, keepdims=True)
    if eta_mode == "variance":
        spread = spread * spread
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(spread > 0.0, num / np.where(spread > 0.0, spread, 1.0), 0.0)


def sigmoid_distance_values(dist: np.ndarray, eta_mode: str = "std") -> np.ndarray:
    """Raw pre-normalization sigmoid values for (n, K) neighbor distances.

    Values lie in [0.5, 1): 0.5 at zero distance, approaching 1 as the
    distance grows against the row's spread. A zero spread yields 0.5
    everywhere, so normalization collapses to uniform weights.
    """
    dist = np.asarray(dist, dtype=np.float64)
    return 1.0 / (1.0 + np.exp(-_over_spread(dist, dist, eta_mode)))


def _weights_from_distances(dist: np.ndarray, scheme: str, eta_mode: str) -> np.ndarray:
    """Row-wise weights from (n, K) neighbor distances, each row summing to 1."""
    if scheme not in WEIGHT_SCHEMES:
        raise ValueError(f"unknown weight scheme {scheme!r}")
    if scheme == "constant_one":
        k = dist.shape[1]
        return np.full_like(dist, 1.0 / k)
    if scheme == "inverse_distance":
        zero = dist <= 0.0
        any_zero = zero.any(axis=1)
        # scale by the row minimum so huge reciprocals cannot overflow
        dmin = np.where(any_zero, 1.0, dist.min(axis=1))
        d = dmin[:, None] / np.where(zero, 1.0, dist)
        # a coincident neighbor dominates: weight splits over the zeros
        d[any_zero] = zero[any_zero].astype(np.float64)
        return d / d.sum(axis=1, keepdims=True)
    if scheme == "sigmoid_proposed":
        d = sigmoid_distance_values(dist, eta_mode)
    else:  # exp_decay
        # shift by the row minimum: the nearest neighbor maps to exp(0),
        # so a tiny spread cannot underflow a whole row to zero
        d = np.exp(-_over_spread(dist - dist.min(axis=1, keepdims=True), dist, eta_mode))
    return d / d.sum(axis=1, keepdims=True)


def _rows(patches, attr: str = "positions") -> np.ndarray:
    """One array of the patches' rows, one patch after another."""
    return np.concatenate([getattr(p, attr) for p in patches])


def _bounds(counts) -> np.ndarray:
    """Row bounds of consecutive blocks of the given row counts."""
    return np.concatenate([[0], np.cumsum(counts, dtype=np.intp)])


def build_neighbor_plan(targets, sources, k: int, scheme: str,
                        eta_mode: str) -> NeighborPlan:
    """Neighbor indices and weights for every row of a group of target
    patches, each row drawn from the source patch at the same position
    (``sources`` is ``targets`` for self-prediction).

    A row's neighbors are the k + 1 nearest points of its source patch,
    the nearest dropped. In self-prediction that is the row itself unless
    another row shares its position; among coincident rows, the first in
    (position, color) order is dropped for all of them. One rule for both
    regimes makes identical patches the same prediction problem. Indices
    count the sources' rows one patch after another. Lists are k wide: the
    kNN repeats the farthest neighbor of a short list, so a one-point
    source gives k copies of its point.
    """
    if any(p.count < 1 for p in sources):
        raise ValueError("neighbor source patch is empty")
    tpos = _rows(targets)
    tb = _bounds([p.count for p in targets])
    index = (build_index(tpos, tb) if sources is targets
             else build_index(_rows(sources), _bounds([p.count for p in sources])))
    # bounds go positionally: perfbench's knn hook raises on the keyword
    idx, dist = knn_batch(index, tpos, k + 1, tb)
    return NeighborPlan(indices=idx[:, 1:],
                        weights=_weights_from_distances(dist[:, 1:], scheme, eta_mode))


def _design_from_plan(plan: NeighborPlan, source_features: np.ndarray) -> np.ndarray:
    blocks = np.take(source_features, plan.indices, axis=0)  # (n, K, d)
    blocks *= plan.weights[:, :, None]
    return blocks.reshape(len(blocks), -1)


def _clamped_det(sigma: np.ndarray) -> float:
    eigs = np.linalg.eigvalsh(sigma)
    return max(float(np.prod(eigs)), 0.0)


def fit_savar(targets: np.ndarray, design: np.ndarray, ridge: float = 1e-8) -> SAVarFit:
    """Shared-design multivariate least squares via normal equations.

    The Tikhonov term ridge * trace(G) / p is added to the diagonal of
    G = design' design only when G is singular or its condition estimate
    exceeds 1e12; with ridge = 0 a singular system falls back to the
    minimum-norm solution.
    """
    targets = np.asarray(targets, dtype=np.float64)
    design = np.asarray(design, dtype=np.float64)
    if targets.ndim != 2 or design.ndim != 2 or targets.shape[0] != design.shape[0]:
        raise ValueError("targets and design must be 2D with matching row counts")
    if not (np.isfinite(targets).all() and np.isfinite(design).all()):
        raise ValueError("non-finite values in regression inputs")
    n, p = design.shape
    gram = design.T @ design
    rhs = design.T @ targets
    theta_t = None
    # LAPACK's Cholesky factor as cho_factor computes it, without the
    # wrapper's per-call cost; info > 0 means G is not positive definite
    chol, info = dpotrf(gram, lower=1, clean=0)
    if info == 0:
        rcond, info = dpocon(chol, np.abs(gram).sum(axis=0).max(), uplo="L")
        if info == 0 and rcond * _COND_LIMIT > 1.0:
            theta_t = cho_solve((chol, True), rhs, check_finite=False)
    if theta_t is None:
        lam = ridge * np.trace(gram) / p
        if lam > 0.0:
            theta_t = np.linalg.solve(gram + lam * np.eye(p), rhs)
        else:
            theta_t = np.linalg.lstsq(design, targets, rcond=None)[0]
    predictions = design @ theta_t
    residuals = targets - predictions
    sigma = residuals.T @ residuals / n
    return SAVarFit(predictions=predictions, complexity=_clamped_det(0.5 * (sigma + sigma.T)))


def _encode(targets, sources, k: int, scheme: str, eta_mode: str, ridge: float) -> list:
    if not targets:
        return []
    plan = build_neighbor_plan(targets, sources, k, scheme, eta_mode)
    bounds = _bounds([p.count for p in targets])
    pred6 = np.empty((bounds[-1], 6))
    complexities = np.empty((len(targets), 2))
    for col, attr in enumerate(("positions", "colors")):
        tgt = _rows(targets, attr)
        design = _design_from_plan(plan, tgt if sources is targets else _rows(sources, attr))
        for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            fit = fit_savar(tgt[lo:hi], design[lo:hi], ridge=ridge)
            pred6[lo:hi, 3 * col:3 * col + 3] = fit.predictions
            complexities[i, col] = fit.complexity
    return [PatchEncoding(geometry, color, pred6[lo:hi])
            for (geometry, color), lo, hi in zip(complexities.tolist(), bounds[:-1], bounds[1:])]


def self_complexity(patches, k: int, scheme: str = "sigmoid_proposed",
                    eta_mode: str = "std", ridge: float = 1e-8) -> list:
    """Encode each of a group of patches from its own neighborhoods (the
    nearest point, the point itself, dropped from each), in order. Every
    patch needs at least 2 points."""
    if any(p.count < 2 for p in patches):
        raise ValueError("self-prediction needs a patch with >= 2 points")
    return _encode(patches, patches, k, scheme, eta_mode, ridge)


def cross_complexity(ref_patches, dist_patches, k: int,
                     scheme: str = "sigmoid_proposed", eta_mode: str = "std",
                     ridge: float = 1e-8) -> list:
    """Encode each of a group of reference patches from neighborhoods in
    the distorted patch at the same position, in order.

    The closest distorted point is dropped from each neighbor list, by the
    rule self-prediction uses: when the distorted patch equals the
    reference the two prediction problems coincide, so identical clouds
    get exactly equal complexities. Row i of an encoding predicts the same
    reference point as row i of the self encoding.
    """
    if len(ref_patches) != len(dist_patches):
        raise ValueError(f"{len(ref_patches)} reference patches but "
                         f"{len(dist_patches)} distorted patches")
    if any(p.count < 2 for p in ref_patches):
        raise ValueError("cross-prediction needs a reference patch with >= 2 points")
    if any(p.count < 1 for p in dist_patches):
        raise ValueError("cross-prediction needs a nonempty distorted patch")
    return _encode(ref_patches, dist_patches, k, scheme, eta_mode, ridge)
