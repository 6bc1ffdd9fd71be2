"""Fiber knock-out degradation model.

Each fiber strand owns an s x s FOV tile of the frame but only samples an
m x m ROI nominally centered in that tile, displaced by a random per-fiber
integer offset of at most d pixels per axis. The LR frame fills every FOV
tile with its ROI mean; the sparse frame keeps only the sampled ROI pixels.

All probe parameters are physical lengths in micrometers; pixel quantities
are derived through the configured pixel size (2 um by default).
"""

from __future__ import annotations

import functools
from dataclasses import astuple, dataclass

import numpy as np

from .image import Image

__all__ = [
    "DegradationConfig",
    "FiberSample",
    "DegradedPair",
    "grid_geometry",
    "degrade",
    "identity_check",
]


@dataclass(frozen=True)
class DegradationConfig:
    pixel_size_um: float = 2.0
    fiber_diameter_um: float = 6.0
    inter_fiber_distance_um: float = 12.0
    max_offset_um: float = 0.0

    def __post_init__(self) -> None:
        if self.pixel_size_um <= 0:
            raise ValueError("pixel size must be positive")
        # every field in pixels, the pixel size too (NaN if infinite); Python
        # float division makes a ratio past the float range inf, not a warning
        if not np.isfinite([v / self.pixel_size_um for v in astuple(self)]).all():
            raise ValueError("probe lengths in pixels must be finite")
        if self.fiber_diameter_um < self.pixel_size_um:
            raise ValueError("fiber diameter must be at least one pixel")
        if self.inter_fiber_distance_um < self.fiber_diameter_um:
            raise ValueError("inter-fiber distance must be at least the fiber diameter")
        if self.max_offset_um < 0:
            raise ValueError("max offset must be non-negative")

    @property
    def m_px(self) -> int:
        return int(round(self.fiber_diameter_um / self.pixel_size_um))

    @property
    def s_px(self) -> int:
        return int(round(self.inter_fiber_distance_um / self.pixel_size_um))

    @property
    def d_px(self) -> int:
        return int(round(self.max_offset_um / self.pixel_size_um))


@dataclass(frozen=True)
class FiberSample:
    tile_origin: tuple[int, int]  # (row, col)
    roi_origin: tuple[int, int]  # (row, col), after offset and clamping
    mean_value: float
    offset: tuple[int, int]  # (d_y, d_x) as drawn, before clamping


@dataclass(frozen=True, eq=False)
class DegradedPair:
    """Degraded frames plus the per-fiber log as arrays, one row per fiber
    in row-major tile order; each (n, 2) array holds (row, col) pairs."""

    sparse: Image
    lr: Image
    tile_origins: np.ndarray  # (n, 2)
    roi_origins: np.ndarray  # (n, 2), after offset and clamping
    offsets: np.ndarray  # (n, 2) of (d_y, d_x), as drawn, before clamping
    means: np.ndarray  # (n,)

    @functools.cached_property
    def samples(self) -> list[FiberSample]:
        """The same log as one FiberSample per fiber, built on first access."""
        return [
            FiberSample(
                tile_origin=tuple(t),
                roi_origin=tuple(r),
                mean_value=mean,
                offset=tuple(o),
            )
            for t, r, o, mean in zip(
                self.tile_origins.tolist(),
                self.roi_origins.tolist(),
                self.offsets.tolist(),
                self.means.tolist(),
            )
        ]


def grid_geometry(cfg: DegradationConfig, width: int, height: int) -> np.ndarray:
    """Row-major tile origins, an (n, 2) array of (row, col), of the
    non-overlapping s_px grid covering the top-left region; partial border
    strips carry no fiber."""
    s = cfg.s_px
    if width < s or height < s:
        raise ValueError(f"image {width}x{height} smaller than one {s}x{s} tile")
    rows, cols = np.indices((height // s, width // s))
    return np.stack([rows.ravel(), cols.ravel()], axis=1) * s


def degrade(
    image: Image, cfg: DegradationConfig, rng: np.random.Generator
) -> DegradedPair:
    """Simulate sparse fiber acquisition and reconstitute the LR frame.

    Offsets are drawn per fiber in row-major tile order (d_y then d_x),
    uniform on the integers [-d_px, d_px]. Offset ROIs are clamped to the
    image bounds but may leave their own FOV tile.
    """
    m, s, d = cfg.m_px, cfg.s_px, cfg.d_px
    h, w = image.height, image.width
    tiles = grid_geometry(cfg, w, h)
    # one call yields the same sequence as per-fiber scalar draws; at d = 0
    # it returns zeros and leaves the generator's state as it was
    offsets = rng.integers(-d, d + 1, size=tiles.shape)
    # odd s_px - m_px gap biases the ROI toward the top-left corner
    rois = np.clip(tiles + (s - m) // 2 + offsets, 0, [h - m, w - m])
    src = image.data
    span = np.arange(m)
    iy = rois[:, 0, None, None] + span[:, None]  # (n, m, 1)
    ix = rois[:, 1, None, None] + span  # (n, 1, m)
    pixels = src[iy, ix]  # (n, m, m)
    means = pixels.mean(axis=(1, 2))

    lr = src.copy()  # uncovered border strips keep the source pixels
    ny, nx = h // s, w // s
    lr[: ny * s, : nx * s] = np.repeat(
        np.repeat(means.reshape(ny, nx), s, axis=0), s, axis=1
    )
    sparse = np.zeros_like(src)
    # overlapping ROIs copy the same source pixels, so write order is moot
    sparse[iy, ix] = pixels
    return DegradedPair(
        sparse=Image(sparse),
        lr=Image(lr),
        tile_origins=tiles,
        roi_origins=rois,
        offsets=offsets,
        means=means,
    )


def identity_check(image: Image) -> Image:
    """Degenerate 1-pixel fibers with no gaps reproduce the input exactly."""
    cfg = DegradationConfig(
        pixel_size_um=1.0,
        fiber_diameter_um=1.0,
        inter_fiber_distance_um=1.0,
        max_offset_um=0.0,
    )
    return degrade(image, cfg, np.random.default_rng(0)).lr
