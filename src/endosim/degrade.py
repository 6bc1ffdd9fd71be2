"""Fiber knock-out degradation model.

Each fiber strand owns an s x s FOV tile of the frame but only samples an
m x m ROI nominally centered in that tile, displaced by a random per-fiber
integer offset of at most d pixels per axis. The LR frame fills every FOV
tile with its ROI mean; the sparse frame keeps only the sampled ROI pixels.

All probe parameters are physical lengths in micrometers; pixel quantities
are derived through the configured pixel size (2 um by default).
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if self.fiber_diameter_um < self.pixel_size_um:
            raise ValueError("fiber diameter must be at least one pixel")
        if self.inter_fiber_distance_um < self.fiber_diameter_um:
            raise ValueError("inter-fiber distance must be at least the fiber diameter")
        if self.max_offset_um < 0:
            raise ValueError("max offset must be non-negative")
        if not (self.m_px >= 1 and self.s_px >= self.m_px and self.d_px >= 0):
            raise ValueError("derived pixel geometry is inconsistent")

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
    roi_size: int
    mean_value: float
    offset: tuple[int, int]  # (d_y, d_x) as drawn, before clamping


@dataclass(frozen=True)
class DegradedPair:
    sparse: Image
    lr: Image
    samples: list[FiberSample]


def grid_geometry(
    cfg: DegradationConfig, width: int, height: int
) -> list[tuple[int, int]]:
    """Row-major tile origins of the non-overlapping s_px grid covering the
    top-left region; partial border strips carry no fiber."""
    s = cfg.s_px
    if width < s or height < s:
        raise ValueError(f"image {width}x{height} smaller than one {s}x{s} tile")
    return [
        (ty * s, tx * s) for ty in range(height // s) for tx in range(width // s)
    ]


def _nominal_margin(cfg: DegradationConfig) -> int:
    # odd s_px - m_px gap biases the ROI toward the top-left corner
    return (cfg.s_px - cfg.m_px) // 2


def degrade(
    image: Image, cfg: DegradationConfig, rng: np.random.Generator
) -> DegradedPair:
    """Simulate sparse fiber acquisition and reconstitute the LR frame.

    Offsets are drawn per fiber in row-major tile order (d_y then d_x),
    uniform on the integers [-d_px, d_px]. Offset ROIs are clamped to the
    image bounds but may leave their own FOV tile.
    """
    m, s, d = cfg.m_px, cfg.s_px, cfg.d_px
    tiles = grid_geometry(cfg, image.width, image.height)
    margin = _nominal_margin(cfg)
    src = image.data

    lr = src.copy()  # uncovered border strips keep the source pixels
    sparse = np.zeros_like(src)
    samples: list[FiberSample] = []
    for ty, tx in tiles:
        if d > 0:
            dy = int(rng.integers(-d, d + 1))
            dx = int(rng.integers(-d, d + 1))
        else:
            dy = dx = 0
        ry = min(max(ty + margin + dy, 0), image.height - m)
        rx = min(max(tx + margin + dx, 0), image.width - m)
        roi = src[ry : ry + m, rx : rx + m]
        mean = float(roi.mean())
        lr[ty : ty + s, tx : tx + s] = mean
        sparse[ry : ry + m, rx : rx + m] = roi
        samples.append(
            FiberSample(
                tile_origin=(ty, tx),
                roi_origin=(ry, rx),
                roi_size=m,
                mean_value=mean,
                offset=(dy, dx),
            )
        )
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
