"""Per-layer metrics of one traced iteration, read off its span tree.

Names are ``<tcdm module>.<quantity>``; a ``_s`` metric is the summed wall
time of the named spans, a ``_self_s`` metric subtracts their children.
Metrics of a layer the workload bypasses read 0.
"""

from __future__ import annotations

import statistics

from spans import SpanTree

# name -> unit, in the order they are reported
PER_LAYER = {
    "segmentation.select_seeds_s": "s",
    "segmentation.nearest_seed_labels_s": "s",
    "segmentation.fps_dist_evals": "count",
    "segmentation.label_dist_evals": "count",
    "spatial.knn_self_s": "s",
    "spatial.knn_cross_s": "s",
    "spatial.knn_field_s": "s",
    "spatial.knn_calls": "count",
    "spatial.knn_queries": "count",
    "spatial.knn_dist_evals": "count",
    "spatial.knn_block_mb_max": "MB",
    "spatial.build_index_s": "s",
    "spatial.build_index_calls": "count",
    "savar.fit_s": "s",
    "savar.fit_calls": "count",
    "savar.fit_fallbacks": "count",
    "savar.plan_self_s": "s",
    "savar.plan_cross_s": "s",
    "savar.encode_self_s": "s",
    "savar.encode_cross_s": "s",
    "features.patch_features_self_s": "s",
    "metric.prepare_self_s": "s",
    "metric.score_self_s": "s",
    "metric.pool_busy_share": "ratio",
    "metric.patch_straggler_ratio": "ratio",
    "metric.patches_used": "count",
    "metric.patches_empty": "count",
    "metric.patches_under_width": "count",
    "metric.patch_points_max": "count",
    "pointcloud.load_ply_s": "s",
    "pointcloud.load_ply_calls": "count",
    "evaluation.hash_s": "s",
    "evaluation.hash_calls": "count",
    "evaluation.cache_hits": "count",
    "evaluation.cache_io_s": "s",
    "evaluation.prepare_calls": "count",
    "evaluation.row_s_p50": "s",
    "evaluation.fit_logistic5_s": "s",
    "evaluation.fit_logistic5_warm_s": "s",
    "trace.overhead_share": "ratio",
    "trace.spans": "count",
    "error_rate": "ratio",
}

# The encoding a kNN call serves is named by its nearest such ancestor.
_KNN_PURPOSE = {"savar.encode_self": "self", "savar.encode_cross": "cross",
                "features.field_ids": "field"}


def _under(tree: SpanTree, name: str, ancestor: str) -> list:
    return [s for s in tree.named(name)
            if any(a.name == ancestor for a in tree.ancestors(s))]


def _median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tree: SpanTree) -> dict:
    """Every PER_LAYER metric except the run-level trace.* and error_rate."""
    m = {
        "segmentation.select_seeds_s": tree.total("segmentation.select_seeds"),
        "segmentation.nearest_seed_labels_s": tree.total("segmentation.nearest_seed_labels"),
        "segmentation.fps_dist_evals": sum(s.attrs["evals"] for s in tree.named("spatial.fps")),
        "segmentation.label_dist_evals": sum(
            s.attrs["evals"] for s in tree.named("segmentation.nearest_seed_labels")),
    }

    knn = tree.named("spatial.knn_batch")
    by_purpose = {"self": 0.0, "cross": 0.0, "field": 0.0, None: 0.0}
    for s in knn:
        purpose = next((_KNN_PURPOSE[a.name] for a in tree.ancestors(s)
                        if a.name in _KNN_PURPOSE), None)
        by_purpose[purpose] += s.duration
    evals = [s.attrs["queries"] * s.attrs["points"] for s in knn]
    m.update({
        "spatial.knn_self_s": by_purpose["self"],
        "spatial.knn_cross_s": by_purpose["cross"],
        "spatial.knn_field_s": by_purpose["field"],
        "spatial.knn_calls": len(knn),
        "spatial.knn_queries": sum(s.attrs["queries"] for s in knn),
        "spatial.knn_dist_evals": sum(evals),
        # the float64 query x point block knn_batch materialises, computed
        "spatial.knn_block_mb_max": max(evals, default=0) * 8 / 1e6,
        "spatial.build_index_s": tree.total("spatial.build_index"),
        "spatial.build_index_calls": len(tree.named("spatial.build_index")),
    })

    fits = tree.named("savar.fit")
    m.update({
        "savar.fit_s": tree.total("savar.fit"),
        "savar.fit_calls": len(fits),
        # fits that did not end in the Cholesky solve took a ridge or lstsq path
        "savar.fit_fallbacks": len(fits) - len(tree.named("savar.cho_solve")),
        "savar.plan_self_s": sum(s.duration for s in _under(tree, "savar.plan", "savar.encode_self")),
        "savar.plan_cross_s": sum(s.duration for s in _under(tree, "savar.plan", "savar.encode_cross")),
        "savar.encode_self_s": tree.total("savar.encode_self"),
        "savar.encode_cross_s": tree.total("savar.encode_cross"),
        "features.patch_features_self_s": tree.self_total("features.patch_features"),
    })

    scores = tree.named("metric.score")
    prepares = tree.named("metric.prepare")
    patches = tree.named("features.patch_features")
    patch_times = [s.duration for s in patches]
    capacity = sum(s.duration * s.attrs["workers"] for s in scores)
    points = [n for s in prepares for n in s.attrs["patch_points"]]
    m.update({
        "metric.prepare_self_s": tree.self_total("metric.prepare"),
        "metric.score_self_s": tree.self_total("metric.score"),
        "metric.pool_busy_share": sum(patch_times) / capacity if capacity else 0.0,
        "metric.patch_straggler_ratio": (max(patch_times) / statistics.fmean(patch_times)
                                         if patch_times else 0.0),
        "metric.patches_used": sum(s.attrs["used"] for s in scores),
        "metric.patches_empty": sum(s.attrs["empty"] for s in scores),
        "metric.patches_under_width": sum(1 for s in prepares for n in s.attrs["patch_points"]
                                          if n <= 3 * s.attrs["neighbors"]),
        "metric.patch_points_max": max(points, default=0),
    })

    # Hashing, cache reads and the refit are per warm pass (what
    # batch_warm_s is made of); loading, preparing, row scoring and the fit
    # are per cold pass.
    warm_spans = tree.named("bench.warm")
    warm = [tree.subtree(s) for s in warm_spans]
    cold_rows = [s.duration for s in scores
                 if any(a.name == "bench.cold" for a in tree.ancestors(s))]
    cold = [tree.subtree(s) for s in tree.named("bench.cold")]
    m.update({
        "pointcloud.load_ply_s": tree.total("pointcloud.load_ply"),
        "pointcloud.load_ply_calls": len(tree.named("pointcloud.load_ply")),
        "evaluation.hash_s": _median_or_zero([w.total("evaluation.hash") for w in warm]),
        "evaluation.hash_calls": _median_or_zero([len(w.named("evaluation.hash")) for w in warm]),
        "evaluation.cache_hits": _median_or_zero([s.attrs["cache_hits"] for s in warm_spans]),
        "evaluation.cache_io_s": _median_or_zero([w.total("evaluation.cache_io") for w in warm]),
        "evaluation.prepare_calls": sum(len(c.named("metric.prepare")) for c in cold),
        "evaluation.row_s_p50": _median_or_zero(cold_rows),
        "evaluation.fit_logistic5_s": sum(c.total("evaluation.fit_logistic5") for c in cold),
        "evaluation.fit_logistic5_warm_s": _median_or_zero(
            [w.total("evaluation.fit_logistic5") for w in warm]),
    })
    return m
