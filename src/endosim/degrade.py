"""Fiber knock-out degradation model.

Each fiber strand owns an s x s FOV tile of the frame but only samples an
m x m ROI nominally centered in that tile, displaced by a random per-fiber
integer offset of at most d pixels per axis. The LR frame fills every FOV
tile with its ROI mean; the sparse frame keeps only the sampled ROI pixels.

All probe parameters are physical lengths in micrometers; pixel quantities
are derived through the configured pixel size (2 um by default).
"""

from __future__ import annotations

import sys
from dataclasses import astuple, dataclass, fields

import numpy as np

from .image import Image

__all__ = [
    "DegradationConfig",
    "SAMPLE_DTYPE",
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
        # an int past the float range fails this exactly, as inf and NaN do
        for f, v in zip(fields(self), astuple(self)):
            if not abs(v) <= sys.float_info.max:
                raise ValueError(f"{f.name} must be a finite float")
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
        # degrade's int64 tile origins plus offsets of up to 2**62 cannot wrap
        if self.d_px > 2**62:
            raise ValueError("max_offset_um must be at most 2**62 pixels")

    @property
    def m_px(self) -> int:
        return int(round(self.fiber_diameter_um / self.pixel_size_um))

    @property
    def s_px(self) -> int:
        return int(round(self.inter_fiber_distance_um / self.pixel_size_um))

    @property
    def d_px(self) -> int:
        return int(round(self.max_offset_um / self.pixel_size_um))


# one row per fiber; each 2-vector is (row, col), offsets are (d_y, d_x) as
# drawn, and the ROI origin is after offset and clamping
SAMPLE_DTYPE = np.dtype([("tile_origin", np.int64, 2), ("roi_origin", np.int64, 2),
                         ("offset", np.int64, 2), ("mean", np.float64)])


@dataclass(frozen=True, eq=False)
class DegradedPair:
    """Degraded frames plus the per-fiber log, an (n,) SAMPLE_DTYPE array
    in row-major tile order."""

    sparse: Image
    lr: Image
    samples: np.ndarray


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
    ny, nx = h // s, w // s
    samples = np.empty(ny * nx, SAMPLE_DTYPE)
    samples["tile_origin"] = grid_geometry(cfg, w, h)
    tiles = samples["tile_origin"]
    # one call yields the same sequence as per-fiber scalar draws; at d = 0
    # it returns zeros and leaves the generator's state as it was
    samples["offset"] = rng.integers(-d, d + 1, size=tiles.shape)
    # odd s_px - m_px gap biases the ROI toward the top-left corner
    rois = np.clip(tiles + (s - m) // 2 + samples["offset"], 0, [h - m, w - m],
                   out=samples["roi_origin"])
    src = image.data
    span = np.arange(m)
    iy = rois[:, 0, None, None] + span[:, None]  # (n, m, 1)
    ix = rois[:, 1, None, None] + span  # (n, 1, m)
    pixels = src[iy, ix]  # (n, m, m)
    means = pixels.mean(axis=(1, 2), out=samples["mean"])

    lr = src.copy()  # uncovered border strips keep the source pixels
    lr[: ny * s, : nx * s] = np.repeat(
        np.repeat(means.reshape(ny, nx), s, axis=0), s, axis=1
    )
    sparse = np.zeros_like(src)
    # overlapping ROIs copy the same source pixels, so write order is moot
    sparse[iy, ix] = pixels
    return DegradedPair(sparse=Image(sparse), lr=Image(lr), samples=samples)


def identity_check(image: Image) -> Image:
    """Degenerate 1-pixel fibers with no gaps reproduce the input exactly."""
    cfg = DegradationConfig(
        pixel_size_um=1.0,
        fiber_diameter_um=1.0,
        inter_fiber_distance_um=1.0,
        max_offset_um=0.0,
    )
    return degrade(image, cfg, np.random.default_rng(0)).lr
