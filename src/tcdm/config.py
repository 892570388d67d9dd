"""Metric configuration and color-space handling."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

__all__ = ["MetricConfig", "color_weights_for", "rgb_to_yuv", "DEFAULT_CONFIG"]

WEIGHT_SCHEMES = ("sigmoid_proposed", "constant_one", "inverse_distance", "exp_decay")
SAMPLING_STRATEGIES = ("fps", "random")
COLOR_SPACES = ("rgb", "yuv")
ETA_MODES = ("std", "variance")
COLOR_WEIGHT_MODES = ("normalized", "raw")

# Channel weight ratios for the point-wise color difference: 1:2:1 over RGB,
# 6:1:1 over luma/chroma. Normalized so the color factor stays commensurate
# with its +1 offset; raw mode keeps the plain ratios.
_RGB_RATIO = np.array([1.0, 2.0, 1.0])
_YUV_RATIO = np.array([6.0, 1.0, 1.0])


@dataclass(frozen=True)
class MetricConfig:
    """Tuning knobs of the quality metric.

    Defaults are the published operating point: 400 seeds, neighborhood
    order 20, stability constant 1e-6, fusion weight 0.3.
    """

    seeds: int = 400
    neighbors: int = 20
    stability: float = 1e-6
    alpha: float = 0.3
    sampling: str = "fps"
    sampling_seed: int = 0
    weight_scheme: str = "sigmoid_proposed"
    color_space: str = "rgb"
    eta_mode: str = "std"
    color_weight_mode: str = "normalized"
    ridge: float = 1e-8

    def __post_init__(self):
        for name in ("seeds", "neighbors"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        if not (math.isfinite(self.stability) and self.stability > 0):
            raise ValueError(f"stability must be finite and > 0, got {self.stability!r}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if self.sampling not in SAMPLING_STRATEGIES:
            raise ValueError(f"unknown sampling strategy {self.sampling!r}")
        if self.weight_scheme not in WEIGHT_SCHEMES:
            raise ValueError(f"unknown weight scheme {self.weight_scheme!r}")
        if self.color_space not in COLOR_SPACES:
            raise ValueError(f"unknown color space {self.color_space!r}")
        if self.eta_mode not in ETA_MODES:
            raise ValueError(f"unknown eta mode {self.eta_mode!r}")
        if self.color_weight_mode not in COLOR_WEIGHT_MODES:
            raise ValueError(f"unknown color weight mode {self.color_weight_mode!r}")
        if not (math.isfinite(self.ridge) and self.ridge >= 0):
            raise ValueError(f"ridge must be finite and >= 0, got {self.ridge!r}")

    def to_dict(self) -> dict:
        return asdict(self)


DEFAULT_CONFIG = MetricConfig()


def color_weights_for(config: MetricConfig) -> np.ndarray:
    ratio = _YUV_RATIO if config.color_space == "yuv" else _RGB_RATIO
    if config.color_weight_mode == "raw":
        return ratio.copy()
    return ratio / ratio.sum()


def rgb_to_yuv(colors: np.ndarray) -> np.ndarray:
    """Full-range BT.601 RGB -> YUV on the [0, 255] scale.

    White maps to (255, 128, 128): chroma channels sit at the neutral
    offset of 128.
    """
    r, g, b = colors[:, 0], colors[:, 1], colors[:, 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    u = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
    v = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
    return np.column_stack([y, u, v])
