"""Traditional image-quality measures: PSNR and mean SSIM.

SSIM uses the canonical 11x11 Gaussian window (sigma 1.5) and aggregates
over fully-interior window positions only, so degradation border artifacts
do not pollute the score. PSNR of identical images is float('inf'),
serialized as the literal "inf" in CSV output.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.ndimage import correlate1d

from .image import Image

__all__ = ["psnr", "ssim"]

# Wang et al., 2004: K1 = 0.01 and K2 = 0.03 at a dynamic range of 1
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = (0.01 * 1.0) ** 2
SSIM_C2 = (0.03 * 1.0) ** 2

_HALF = SSIM_WINDOW // 2
_WINDOW_1D = np.exp(-0.5 * (np.arange(-_HALF, _HALF + 1.0) / SSIM_SIGMA) ** 2)
_WINDOW_1D /= _WINDOW_1D.sum()


def psnr(reference: Image, test: Image) -> float:
    """10*log10(1 / MSE) in dB for a peak of 1; inf for identical images."""
    if reference.data.shape != test.data.shape:
        raise ValueError("psnr requires equal image dimensions")
    mse = float(np.mean((reference.data - test.data) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def _local_mean(a: np.ndarray) -> np.ndarray:
    out = correlate1d(a, _WINDOW_1D, axis=0, mode="constant")
    out = correlate1d(out, _WINDOW_1D, axis=1, mode="constant")
    return out[_HALF:-_HALF, _HALF:-_HALF]


def ssim(reference: Image, test: Image) -> float:
    """Mean structural similarity over all fully-interior window positions."""
    if reference.data.shape != test.data.shape:
        raise ValueError("ssim requires equal image dimensions")
    if min(reference.data.shape) < SSIM_WINDOW:
        raise ValueError("image smaller than the SSIM window")
    x = reference.data
    y = test.data

    mu_x = _local_mean(x)
    mu_y = _local_mean(y)
    xx = _local_mean(x * x) - mu_x * mu_x
    yy = _local_mean(y * y) - mu_y * mu_y
    xy = _local_mean(x * y) - mu_x * mu_y

    num = (2.0 * mu_x * mu_y + SSIM_C1) * (2.0 * xy + SSIM_C2)
    den = (mu_x * mu_x + mu_y * mu_y + SSIM_C1) * (xx + yy + SSIM_C2)
    return float(np.mean(num / den))
