"""Per-patch quality features from complexities and prediction terms.

Two complexity similarities (geometry, color) compare self- against
cross-prediction complexity in an SSIM-style ratio; a third feature
correlates local difference fields computed over the two reconstructed
patches, exploiting their row-for-row point correspondence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MetricConfig, color_weights_for
from .savar import PatchEncoding, cross_complexity
from .segmentation import Patch
from .spatial import build_index, knn_batch

__all__ = [
    "PatchFeatures",
    "ReferencePatch",
    "complexity_similarity",
    "prediction_similarity",
    "patch_features",
]


@dataclass(frozen=True)
class PatchFeatures:
    """Feature triple for one patch pair, plus complexity diagnostics.

    ``skipped`` marks degenerate patches (fewer than 2 reference points)
    that must not enter any aggregate. Diagnostics hold (geometry self,
    geometry cross, color self, color cross) complexities.
    """

    f1_geometry: float
    f1_color: float
    f2: float
    diagnostics: tuple
    skipped: bool = False


@dataclass(frozen=True)
class ReferencePatch:
    """A reference patch with everything scoring reuses across distorted
    clouds: its self encoding and the (n, K) neighbor rows both difference
    fields are taken over, in the smallest unsigned type that holds n - 1.
    Both are None when the patch has fewer than 2 points."""

    patch: Patch
    encoding: PatchEncoding | None
    field_ids: np.ndarray | None


def complexity_similarity(c_self: float, c_cross: float, stability: float) -> float:
    """SSIM-style ratio of two complexities, 1 iff they coincide."""
    if c_self < 0 or c_cross < 0:
        raise ValueError("complexities must be nonnegative")
    if stability <= 0:
        raise ValueError("stability constant must be positive")
    return (2.0 * c_self * c_cross + stability) / (c_self * c_self + c_cross * c_cross + stability)


def _g_rows(pred: np.ndarray, ids: np.ndarray, color_weights: np.ndarray) -> np.ndarray:
    """g of each row of the (n, 6) predictions to its (n, K) neighbor rows
    ``ids``: the weighted absolute color difference plus one, times the
    position distance (zero for coincident positions). One gather and a dozen
    numpy calls, so two threads running it seldom wait on each other for the GIL."""
    t = np.ascontiguousarray(pred.T)
    d = np.take(t, ids, axis=1)  # (6, n, K), one plane per column
    d -= t[:, :, None]
    np.multiply(d[:3], d[:3], out=d[:3])
    col = np.abs(d[3:], out=d[3:])
    col *= np.reshape(color_weights, (3, 1, 1))
    return (((col[0] + col[1]) + col[2]) + 1.0) * np.sqrt((d[0] + d[1]) + d[2])


def _field_neighbor_ids(x_hat: np.ndarray, k: int) -> np.ndarray:
    """Each row's k nearest other rows by predicted position, at patch width:
    uint8 under 256 rows, uint16 under 65,536 (a short patch repeats the farthest).

    Distinct points can get the very same prediction (say, from the same
    equidistant neighbors); a distance tie between them falls to the lower
    row, and ``split_patches`` orders rows independently of the cloud."""
    pos = x_hat[:, :3]
    ids, _ = knn_batch(build_index(pos), pos, k, exclude=np.arange(len(pos)))
    return ids.astype(np.min_scalar_type(len(pos) - 1))


def prediction_similarity(field_x: np.ndarray, field_y: np.ndarray, stability: float) -> float:
    """Normalized covariance of the two flattened difference fields."""
    if field_x.shape != field_y.shape:
        raise ValueError("difference fields must have the same shape")
    if stability <= 0:
        raise ValueError("stability constant must be positive")
    vx = np.asarray(field_x, dtype=np.float64).ravel()
    vy = np.asarray(field_y, dtype=np.float64).ravel()
    dx = vx - vx.mean()
    dy = vy - vy.mean()
    var_x = (dx * dx).mean()
    var_y = (dy * dy).mean()
    cov = (dx * dy).mean()
    # sqrt of the variance product: identical fields give exactly 1
    return float((cov + stability) / (np.sqrt(var_x * var_y) + stability))


_EMPTY_DIAGNOSTICS = (0.0, 0.0, 0.0, 0.0)


def patch_features(ref: ReferencePatch, dist: Patch,
                   config: MetricConfig | None = None) -> PatchFeatures:
    """Compute the feature triple of one prepared reference patch and its
    distorted counterpart.

    Reference patches with fewer than 2 points carry no encoding and are
    skipped; an empty distorted patch means the cell lost all content and
    scores 0 on every feature.
    """
    config = config or MetricConfig()
    enc = ref.encoding
    if enc is None:
        return PatchFeatures(0.0, 0.0, 0.0, _EMPTY_DIAGNOSTICS, skipped=True)
    if dist.count == 0:
        diag = (enc.complexity_geometry, 0.0, enc.complexity_color, 0.0)
        return PatchFeatures(0.0, 0.0, 0.0, diag, skipped=False)
    cross = cross_complexity(ref.patch, dist, config.neighbors, config.weight_scheme,
                             config.eta_mode, config.ridge)
    f1_geom = complexity_similarity(enc.complexity_geometry, cross.complexity_geometry,
                                    config.stability)
    f1_col = complexity_similarity(enc.complexity_color, cross.complexity_color,
                                   config.stability)
    w = color_weights_for(config)
    f2 = prediction_similarity(_g_rows(enc.predictions, ref.field_ids, w),
                               _g_rows(cross.predictions, ref.field_ids, w), config.stability)
    diag = (enc.complexity_geometry, cross.complexity_geometry,
            enc.complexity_color, cross.complexity_color)
    return PatchFeatures(f1_geom, f1_col, f2, diag, skipped=False)
