"""Comb-pattern smoothing and contrast-limited adaptive histogram equalization.

The fiber-bundle comb pattern is removed by a truncated, renormalized
Gaussian (radius 4 sigma, mirror boundary), then contrast is stretched with
CLAHE. Clip semantics: ceiling = clip_limit * tile pixel count, excess
redistributed uniformly over all bins in a single pass.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .image import Image

__all__ = ["PreprocessConfig", "gaussian_blur", "clahe", "preprocess"]


@dataclass(frozen=True)
class PreprocessConfig:
    gaussian_sigma_px: float = 2.0
    clahe_clip_limit: float = 0.005
    clahe_tiles: tuple[int, int] = (8, 8)
    clahe_bins: int = 256

    def __post_init__(self) -> None:
        if not 0.0 < self.gaussian_sigma_px <= sys.float_info.max:  # NaN fails too
            raise ValueError("gaussian_sigma_px must be positive and finite")
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


def _window_product(a: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """a correlated with taps along each axis where they fit: two BLAS products along
    axis 0, the second on a C-ordered transposed copy that frees the first at once."""
    out = np.ascontiguousarray((sliding_window_view(a, len(taps), axis=0) @ taps).T)
    return (sliding_window_view(out, len(taps), axis=0) @ taps).T


def gaussian_blur(image: Image, sigma_px: float) -> Image:
    """Separable Gaussian smoothing with mirror (symmetric) boundaries; a pad
    wider than the image reflects again."""
    kernel = gaussian_kernel(sigma_px)
    out = _window_product(np.pad(image.data, len(kernel) // 2, mode="symmetric"), kernel)
    return Image(np.clip(out, 0.0, 1.0, out=out))


def _tile_edges(extent: int, count: int) -> np.ndarray:
    return np.rint(np.linspace(0, extent, count + 1)).astype(int)


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

    bin_idx = np.minimum((image.data * bins).astype(int), bins - 1)
    # one count per row of tiles: each pixel's bin offset by its tile column's block
    col_key = np.repeat(np.arange(cols) * bins, np.diff(x_edges))
    ceilings = cfg.clahe_clip_limit * np.outer(np.diff(y_edges), np.diff(x_edges))
    tables = np.empty((rows, cols, bins))
    for r, hist in enumerate(tables):
        band = bin_idx[y_edges[r] : y_edges[r + 1]]
        hist[...] = np.bincount((band + col_key).ravel(), minlength=cols * bins).reshape(cols, bins)
        ceiling = ceilings[r, :, None]
        excess = np.maximum(hist - ceiling, 0.0).sum(axis=1, keepdims=True)
        np.cumsum(np.minimum(hist, ceiling) + excess / bins, axis=1, out=hist)
    tables /= tables[:, :, -1:].copy()  # a view of tables itself would be copied whole

    def axis_blend(edges: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(tile index, weight) of the lower and the upper tile center per pixel."""
        centers = (edges[:-1] + edges[1:] - 1) / 2.0
        coords = np.arange(edges[-1], dtype=np.float64)
        hi = np.searchsorted(centers, coords).clip(0, len(centers) - 1)
        lo = np.maximum(hi - 1, 0)
        span = centers[hi] - centers[lo]
        w = np.where(span > 0, (coords - centers[lo]) / np.where(span > 0, span, 1), 0.0)
        w = np.clip(w, 0.0, 1.0)
        return (lo, 1 - w), (hi, w)

    out = 0.0  # out + term reuses the term's buffer; sum() would hold one more frame
    for (r, wy), (c, wx) in product(axis_blend(y_edges), axis_blend(x_edges)):
        out = out + wy[:, None] * wx * tables[r[:, None], c, bin_idx]
    return Image(np.clip(out, 0.0, 1.0, out=out))


def preprocess(image: Image, cfg: PreprocessConfig) -> Image:
    """Full pipeline: Gaussian smoothing followed by CLAHE."""
    return clahe(gaussian_blur(image, cfg.gaussian_sigma_px), cfg)
