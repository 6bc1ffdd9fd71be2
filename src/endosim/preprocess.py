"""Comb-pattern smoothing and contrast-limited adaptive histogram equalization.

The fiber-bundle comb pattern is removed by a truncated, renormalized
Gaussian (radius 4 sigma, mirror boundary), then contrast is stretched with
CLAHE. Clip semantics: ceiling = clip_limit * tile pixel count, excess
redistributed uniformly over all bins in a single pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import correlate1d

from .image import Image

__all__ = ["PreprocessConfig", "gaussian_blur", "clahe", "preprocess"]


@dataclass(frozen=True)
class PreprocessConfig:
    gaussian_sigma_px: float = 2.0
    clahe_clip_limit: float = 0.005
    clahe_tiles: tuple[int, int] = (8, 8)
    clahe_bins: int = 256

    def __post_init__(self) -> None:
        if not 0.0 < self.gaussian_sigma_px < np.inf:
            raise ValueError("sigma must be positive and finite")
        if not (0.0 < self.clahe_clip_limit <= 1.0):
            raise ValueError("clip limit must lie in (0, 1]")
        if min(self.clahe_tiles) < 1:
            raise ValueError("tile grid must be at least 1x1")
        if self.clahe_bins < 2:
            raise ValueError("need at least 2 histogram bins")


# the taps of a sigma near the float minimum are exp(-inf) = 0
@np.errstate(over="ignore")
def gaussian_kernel(sigma: float) -> np.ndarray:
    """1-D Gaussian taps truncated at radius ceil(4*sigma), sum 1."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if not 4.0 * sigma < np.inf:
        raise ValueError(f"kernel radius 4 * sigma = {4.0 * sigma} is not finite")
    radius = int(np.ceil(4.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def gaussian_blur(image: Image, sigma_px: float) -> Image:
    """Separable Gaussian smoothing with mirror (symmetric) boundaries."""
    kernel = gaussian_kernel(sigma_px)
    out = correlate1d(image.data, kernel, axis=0, mode="reflect")
    out = correlate1d(out, kernel, axis=1, mode="reflect")
    return Image(np.clip(out, 0.0, 1.0))


def _tile_edges(extent: int, count: int) -> np.ndarray:
    return np.rint(np.linspace(0, extent, count + 1)).astype(int)


def _equalization_table(tile: np.ndarray, bins: int, clip_limit: float) -> np.ndarray:
    """Clipped-histogram equalization mapping for one tile: bin -> [0, 1]."""
    idx = np.minimum((tile * bins).astype(int), bins - 1)
    hist = np.bincount(idx.ravel(), minlength=bins).astype(np.float64)
    ceiling = clip_limit * tile.size
    excess = np.maximum(hist - ceiling, 0.0).sum()
    hist = np.minimum(hist, ceiling) + excess / bins
    cdf = np.cumsum(hist)
    return cdf / cdf[-1]


def clahe(image: Image, cfg: PreprocessConfig) -> Image:
    """Per-tile equalization with clipped histograms, blended bilinearly
    between the four nearest tile centers."""
    rows, cols = cfg.clahe_tiles
    if image.height < rows or image.width < cols:
        raise ValueError(
            f"image {image.width}x{image.height} smaller than tile grid {cols}x{rows}"
        )
    bins = cfg.clahe_bins
    y_edges = _tile_edges(image.height, rows)
    x_edges = _tile_edges(image.width, cols)

    tables = np.empty((rows, cols, bins))
    for r in range(rows):
        for c in range(cols):
            tile = image.data[y_edges[r] : y_edges[r + 1], x_edges[c] : x_edges[c + 1]]
            tables[r, c] = _equalization_table(tile, bins, cfg.clahe_clip_limit)

    y_centers = (y_edges[:-1] + y_edges[1:] - 1) / 2.0
    x_centers = (x_edges[:-1] + x_edges[1:] - 1) / 2.0

    def axis_blend(coords: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        hi = np.searchsorted(centers, coords).clip(0, len(centers) - 1)
        lo = np.maximum(hi - 1, 0)
        span = centers[hi] - centers[lo]
        w = np.where(span > 0, (coords - centers[lo]) / np.where(span > 0, span, 1), 0.0)
        return lo, hi, np.clip(w, 0.0, 1.0)

    r_lo, r_hi, wy = axis_blend(np.arange(image.height, dtype=np.float64), y_centers)
    c_lo, c_hi, wx = axis_blend(np.arange(image.width, dtype=np.float64), x_centers)

    bin_idx = np.minimum((image.data * bins).astype(int), bins - 1)
    rl = r_lo[:, None]
    rh = r_hi[:, None]
    cl = c_lo[None, :]
    ch = c_hi[None, :]
    wy2 = wy[:, None]
    wx2 = wx[None, :]
    out = (
        (1 - wy2) * (1 - wx2) * tables[rl, cl, bin_idx]
        + (1 - wy2) * wx2 * tables[rl, ch, bin_idx]
        + wy2 * (1 - wx2) * tables[rh, cl, bin_idx]
        + wy2 * wx2 * tables[rh, ch, bin_idx]
    )
    return Image(np.clip(out, 0.0, 1.0))


def preprocess(image: Image, cfg: PreprocessConfig) -> Image:
    """Full pipeline: Gaussian smoothing followed by CLAHE."""
    return clahe(gaussian_blur(image, cfg.gaussian_sigma_px), cfg)
