"""Space-aware vector autoregression over local patches.

Each point's 3-channel feature (geometry XYZ or color RGB) is regressed on
the distance-weighted features of its K nearest neighbors, with neighbors
drawn either from the patch itself (self-prediction, the point excluded)
or from the paired distorted patch (cross-prediction). The fit is a
closed-form multivariate least squares; the determinant of the residual
covariance is the patch's complexity under that prediction regime.

Geometry and color channels share one neighbor plan (neighbors and weights
depend only on geometry) but are fit independently, which is algebraically
identical to the stacked Kronecker formulation of the multivariate model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.lapack import dpocon

from .config import WEIGHT_SCHEMES
from .segmentation import Patch
from .spatial import SpatialIndex, build_index, knn_batch

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
    """Shared per-patch neighbor layout: indices, distances, weights (n, K)."""

    indices: np.ndarray
    distances: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class SAVarFit:
    """Closed-form fit of one channel of one patch."""

    predictions: np.ndarray  # (n, d)
    residuals: np.ndarray    # (n, d), exactly targets - predictions
    sigma: np.ndarray        # (d, d) residual covariance
    complexity: float        # det(sigma) clamped at 0


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


def build_neighbor_plan(targets: Patch, source: Patch, k: int, exclude: str,
                        scheme: str, eta_mode: str,
                        source_index: SpatialIndex | None = None) -> NeighborPlan:
    """Neighbor indices, distances and weights for every target point.

    ``exclude`` is "self" for self-prediction (each target's own row never
    appears) or "nearest" for cross-prediction (the single closest source
    point is dropped, mirroring the self case where the closest point is
    the target itself). Lists are k wide: ``knn_batch`` repeats the
    farthest neighbor of a short list, so a one-point source gives k
    copies of its point.
    """
    if source.count < 1:
        raise ValueError("neighbor source patch is empty")
    index = source_index if source_index is not None else build_index(source.positions)
    if exclude == "self":
        idx, dist = knn_batch(index, targets.positions, k,
                              exclude=np.arange(targets.count))
    elif exclude == "nearest":
        idx, dist = knn_batch(index, targets.positions, k + 1)
        idx, dist = idx[:, 1:], dist[:, 1:]
    else:
        raise ValueError(f"unknown exclusion mode {exclude!r}")
    weights = _weights_from_distances(dist, scheme, eta_mode)
    return NeighborPlan(indices=idx, distances=dist, weights=weights)


def _design_from_plan(plan: NeighborPlan, source_features: np.ndarray) -> np.ndarray:
    n, k = plan.indices.shape
    blocks = source_features[plan.indices] * plan.weights[:, :, None]
    return blocks.reshape(n, k * source_features.shape[1])


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
    try:
        cho = cho_factor(gram, lower=True, check_finite=False)
        anorm = np.abs(gram).sum(axis=0).max()
        rcond, info = dpocon(cho[0], anorm, uplo="L")
        if info == 0 and rcond * _COND_LIMIT > 1.0:
            theta_t = cho_solve(cho, rhs, check_finite=False)
    except LinAlgError:
        pass
    if theta_t is None:
        lam = ridge * np.trace(gram) / p
        if lam > 0.0:
            theta_t = np.linalg.solve(gram + lam * np.eye(p), rhs)
        else:
            theta_t = np.linalg.lstsq(design, targets, rcond=None)[0]
    predictions = design @ theta_t
    residuals = targets - predictions
    sigma = residuals.T @ residuals / n
    sigma = 0.5 * (sigma + sigma.T)
    return SAVarFit(
        predictions=predictions,
        residuals=residuals,
        sigma=sigma,
        complexity=_clamped_det(sigma),
    )


def _encode(targets: Patch, source: Patch, k: int, exclude: str, scheme: str,
            eta_mode: str, ridge: float, source_index: SpatialIndex | None) -> PatchEncoding:
    plan = build_neighbor_plan(targets, source, k, exclude, scheme, eta_mode,
                               source_index=source_index)
    pred6 = np.empty((targets.count, 6))
    complexities = []
    for col, (tgt_feat, src_feat) in enumerate(
            ((targets.positions, source.positions), (targets.colors, source.colors))):
        fit = fit_savar(tgt_feat, _design_from_plan(plan, src_feat), ridge=ridge)
        pred6[:, 3 * col:3 * col + 3] = fit.predictions
        complexities.append(fit.complexity)
    return PatchEncoding(complexities[0], complexities[1], pred6)


def self_complexity(patch: Patch, k: int, scheme: str = "sigmoid_proposed",
                    eta_mode: str = "std", ridge: float = 1e-8, *,
                    patch_index: SpatialIndex) -> PatchEncoding:
    """Encode a patch from its own neighborhoods (each point excluded from
    its neighbor list), given the patch's index. Requires at least 2 points."""
    if patch.count < 2:
        raise ValueError("self-prediction needs a patch with >= 2 points")
    return _encode(patch, patch, k, "self", scheme, eta_mode, ridge, patch_index)


def cross_complexity(ref_patch: Patch, dist_patch: Patch, k: int,
                     scheme: str = "sigmoid_proposed", eta_mode: str = "std",
                     ridge: float = 1e-8) -> PatchEncoding:
    """Encode the reference patch from neighborhoods in the distorted patch.

    The closest distorted point is excluded from each neighbor list, the
    cross analogue of self-exclusion: when the distorted patch equals the
    reference the two prediction problems then coincide, so identical
    clouds get exactly equal complexities. Row i of the result predicts
    the same reference point as row i of the self encoding.
    """
    if ref_patch.count < 2:
        raise ValueError("cross-prediction needs a reference patch with >= 2 points")
    if dist_patch.count < 1:
        raise ValueError("cross-prediction needs a nonempty distorted patch")
    return _encode(ref_patch, dist_patch, k, "nearest", scheme, eta_mode, ridge, None)
