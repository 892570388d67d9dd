"""Per-patch quality features from complexities and prediction terms.

Two complexity similarities (geometry, color) compare self- against
cross-prediction complexity in an SSIM-style ratio; a third feature
correlates local difference fields computed over the two reconstructed
patches, exploiting their row-for-row point correspondence. A group of
patches is featured at once: its cross encodings, field neighbor rows and
fields run over all of its rows, its similarities patch by patch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MetricConfig, color_weights_for
from .savar import PatchEncoding, _bounds, cross_complexity
from .segmentation import Patch
# knn_batch is unused here; the benchmark's tracer swaps it under this name
from .spatial import build_index, knn_batch, knn_segments

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


def _field_neighbor_ids(predictions, k: int) -> list:
    """Each row's neighbor rows in its own patch by predicted position, for
    a group of patches' (n, 6) ``predictions``: the k + 1 nearest, the
    nearest dropped (the rule of ``build_neighbor_plan``), so a row whose
    predicted position is unique gets its k nearest other rows. One (n, k)
    array per patch, at patch width (uint8 under 256 rows, uint16 under
    65,536; a short patch repeats the farthest).

    Distinct points can get the very same prediction (say, from the same
    equidistant neighbors); among them the lower row is dropped for all,
    and ``split_patches`` orders rows independently of the cloud."""
    if not predictions:
        return []
    bounds = _bounds([len(p) for p in predictions])
    pos = np.concatenate([p[:, :3] for p in predictions])
    ids, _ = knn_segments(build_index(pos, bounds), pos, bounds, k + 1)
    return [(ids[lo:hi, 1:] - lo).astype(np.min_scalar_type(hi - lo - 1))
            for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]


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


def patch_features(refs, dists, config: MetricConfig | None = None) -> list:
    """Compute the feature triples of a group of prepared reference patches
    and their distorted counterparts, in order.

    Reference patches with fewer than 2 points carry no encoding and are
    skipped; an empty distorted patch means the cell lost all content and
    scores 0 on every feature.
    """
    config = config or MetricConfig()
    out = []
    for ref, dist in zip(refs, dists, strict=True):
        enc = ref.encoding
        if enc is None:
            out.append(PatchFeatures(0.0, 0.0, 0.0, _EMPTY_DIAGNOSTICS, skipped=True))
        elif dist.count == 0:
            diag = (enc.complexity_geometry, 0.0, enc.complexity_color, 0.0)
            out.append(PatchFeatures(0.0, 0.0, 0.0, diag, skipped=False))
        else:
            out.append(None)
    live = [i for i, f in enumerate(out) if f is None]
    if not live:
        return out
    cross = cross_complexity([refs[i].patch for i in live], [dists[i] for i in live],
                             config.neighbors, config.weight_scheme, config.eta_mode,
                             config.ridge)
    # both fields of every live patch, on the rows its reference picked
    bounds = _bounds([refs[i].patch.count for i in live])
    ids = np.concatenate([refs[i].field_ids for i in live], dtype=np.intp)
    ids += np.repeat(bounds[:-1], np.diff(bounds))[:, None]
    w = color_weights_for(config)
    field_x = _g_rows(np.concatenate([refs[i].encoding.predictions for i in live]), ids, w)
    field_y = _g_rows(np.concatenate([c.predictions for c in cross]), ids, w)
    for i, c, lo, hi in zip(live, cross, bounds[:-1], bounds[1:]):
        enc = refs[i].encoding
        f1_geom = complexity_similarity(enc.complexity_geometry, c.complexity_geometry,
                                        config.stability)
        f1_col = complexity_similarity(enc.complexity_color, c.complexity_color,
                                       config.stability)
        f2 = prediction_similarity(field_x[lo:hi], field_y[lo:hi], config.stability)
        diag = (enc.complexity_geometry, c.complexity_geometry,
                enc.complexity_color, c.complexity_color)
        out[i] = PatchFeatures(f1_geom, f1_col, f2, diag, skipped=False)
    return out
