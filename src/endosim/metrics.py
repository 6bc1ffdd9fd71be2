"""Traditional image-quality measures: PSNR and mean SSIM.

SSIM uses the canonical 11x11 Gaussian window (sigma 1.5) and aggregates
over fully-interior window positions only, so degradation border artifacts
do not pollute the score. PSNR of identical images is float('inf'),
serialized as the literal "inf" in CSV output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import correlate1d

from .image import Image

__all__ = ["SsimConfig", "psnr", "ssim"]


@dataclass(frozen=True)
class SsimConfig:
    window_size: int = 11
    window_sigma: float = 1.5
    k1: float = 0.01
    k2: float = 0.03
    dynamic_range: float = 1.0

    def __post_init__(self) -> None:
        if self.window_size < 1 or self.window_size % 2 == 0:
            raise ValueError("window size must be odd and positive")
        if self.window_sigma <= 0 or self.k1 <= 0 or self.k2 <= 0:
            raise ValueError("sigma, k1 and k2 must be positive")


def psnr(reference: Image, test: Image) -> float:
    """10*log10(1 / MSE) in dB for a peak of 1; inf for identical images."""
    if reference.data.shape != test.data.shape:
        raise ValueError("psnr requires equal image dimensions")
    mse = float(np.mean((reference.data - test.data) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def _window_1d(cfg: SsimConfig) -> np.ndarray:
    half = cfg.window_size // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    w = np.exp(-0.5 * (x / cfg.window_sigma) ** 2)
    return w / w.sum()


def _local_mean(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    half = len(w) // 2
    out = correlate1d(a, w, axis=0, mode="constant")
    out = correlate1d(out, w, axis=1, mode="constant")
    return out[half:-half or None, half:-half or None]


def ssim(reference: Image, test: Image, cfg: SsimConfig = SsimConfig()) -> float:
    """Mean structural similarity over all fully-interior window positions."""
    if reference.data.shape != test.data.shape:
        raise ValueError("ssim requires equal image dimensions")
    if min(reference.data.shape) < cfg.window_size:
        raise ValueError("image smaller than the SSIM window")
    x = reference.data
    y = test.data
    w = _window_1d(cfg)

    mu_x = _local_mean(x, w)
    mu_y = _local_mean(y, w)
    xx = _local_mean(x * x, w) - mu_x * mu_x
    yy = _local_mean(y * y, w) - mu_y * mu_y
    xy = _local_mean(x * y, w) - mu_x * mu_y

    c1 = (cfg.k1 * cfg.dynamic_range) ** 2
    c2 = (cfg.k2 * cfg.dynamic_range) ** 2
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * xy + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (xx + yy + c2)
    return float(np.mean(num / den))
