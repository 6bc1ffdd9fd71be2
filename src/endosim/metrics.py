"""Traditional image-quality measures: PSNR and mean SSIM.

SSIM uses the canonical 11x11 Gaussian window (sigma 1.5) and aggregates
over fully-interior window positions only, so degradation border artifacts
do not pollute the score. PSNR of identical images is float('inf'),
serialized as the literal "inf" in CSV output.
"""

from __future__ import annotations

import math

import numpy as np

from .image import Image
from .preprocess import _window_product

__all__ = ["psnr", "ssim"]

# Wang et al., 2004: K1 = 0.01 and K2 = 0.03 at a dynamic range of 1
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = (0.01 * 1.0) ** 2
SSIM_C2 = (0.03 * 1.0) ** 2

_WINDOW_1D = np.exp(-0.5 * ((np.arange(SSIM_WINDOW) - SSIM_WINDOW // 2) / SSIM_SIGMA) ** 2)
_WINDOW_1D /= _WINDOW_1D.sum()


def psnr(reference: Image, test: Image) -> float:
    """10*log10(1 / MSE) in dB for a peak of 1; inf for identical images."""
    if reference.data.shape != test.data.shape:
        raise ValueError("psnr requires equal image dimensions")
    mse = float(np.mean((reference.data - test.data) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def ssim(reference: Image, test: Image) -> float:
    """Mean structural similarity over all fully-interior window positions."""
    if reference.data.shape != test.data.shape:
        raise ValueError("ssim requires equal image dimensions")
    if min(reference.data.shape) < SSIM_WINDOW:
        raise ValueError("image smaller than the SSIM window")
    x, y = reference.data, test.data
    # num = (2 mu_x mu_y + C1) (2 cov + C2), den = (mu_x^2 + mu_y^2 + C1) (var_x + var_y + C2),
    # in place and in this order; cov is freed first, so var's products run beside 4 maps, not 5
    mu_x, mu_y = _window_product(x, _WINDOW_1D), _window_product(y, _WINDOW_1D)
    num = mu_x * mu_y
    den, sq_y = np.square(mu_x, out=mu_x), np.square(mu_y, out=mu_y)
    cov = _window_product(x * y, _WINDOW_1D)
    cov -= num
    num *= 2.0
    num += SSIM_C1
    cov *= 2.0
    cov += SSIM_C2
    num *= cov
    del cov
    var = _window_product(x * x, _WINDOW_1D)
    var -= den
    var += _window_product(y * y, _WINDOW_1D) - sq_y
    den += sq_y
    den += SSIM_C1
    var += SSIM_C2
    den *= var
    num /= den
    return float(np.mean(num))
