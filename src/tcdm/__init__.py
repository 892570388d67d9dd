"""Full-reference point cloud quality assessment.

Quality of a distorted cloud is scored as the difficulty of reconstructing
its reference: local patches are encoded by a space-aware vector
autoregression from their own neighborhoods and from the distorted
counterpart, and the two residual-covariance complexities plus the
reconstruction fields are pooled into one score.
"""

from .config import DEFAULT_CONFIG, MetricConfig
from .evaluation import (CorrelationSummary, f_test, fit_logistic5, plcc, rmse,
                         run_benchmark, srocc)
from .metric import QualityReport, prepare_reference, score, score_with_reference
from .pointcloud import DegradationSpec, PlyError, PointCloud, degrade, load_ply, save_ply
from .segmentation import select_seeds

__version__ = "0.1.0"

__all__ = [
    "MetricConfig", "DEFAULT_CONFIG", "QualityReport",
    "score", "prepare_reference", "score_with_reference",
    "PointCloud", "DegradationSpec", "PlyError",
    "load_ply", "save_ply", "degrade",
    "select_seeds",
    "plcc", "srocc", "rmse", "f_test", "fit_logistic5", "run_benchmark",
    "CorrelationSummary",
]
