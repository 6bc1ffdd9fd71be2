"""Synthetic fluorescent-nuclei phantoms.

Stands in for clinical microendoscopy frames: bright elliptical nuclei with
a cosine-squared edge taper on a noisy background. Nuclear density is the
knob separating the two diagnostic classes.
"""

from __future__ import annotations

import sys
from dataclasses import astuple, dataclass, fields

import numpy as np

from .image import Image

__all__ = ["PhantomSpec", "generate_phantom"]


@dataclass(frozen=True)
class PhantomSpec:
    width: int = 1280
    height: int = 960
    nuclei_per_megapixel: float = 300.0
    nucleus_radius_px: tuple[float, float] = (3.0, 6.0)
    nucleus_intensity: tuple[float, float] = (0.6, 0.95)
    background_level: float = 0.15
    background_noise_sd: float = 0.02
    eccentricity_max: float = 0.4

    def __post_init__(self) -> None:
        r_min, r_max = self.nucleus_radius_px
        i_lo, i_hi = self.nucleus_intensity
        # every field is a number or a pair of numbers; an int past the float
        # range fails abs(v) <= max float exactly, as inf and NaN do
        for f, value in zip(fields(self), astuple(self)):
            if not all(abs(v) <= sys.float_info.max for v in np.ravel(value)):
                raise ValueError(f"{f.name} must be a finite float")
        if self.width < 1 or self.height < 1:
            raise ValueError("canvas must be at least 1x1")
        if not (r_min >= 1.0 and r_max >= r_min):
            raise ValueError("need 1 <= r_min <= r_max")
        if not (0.0 < i_lo <= i_hi <= 1.0):
            raise ValueError("nucleus intensity range must lie in (0, 1]")
        if self.nuclei_per_megapixel < 0 or self.background_noise_sd < 0:
            raise ValueError("density and noise sd must be non-negative")
        # generate_phantom rounds this nucleus count to an int
        if not self.nuclei_per_megapixel * self.width * self.height / 1e6 < np.inf:
            raise ValueError("density times canvas area must be finite")
        if not (0.0 <= self.eccentricity_max < 1.0):
            raise ValueError("eccentricity_max must lie in [0, 1)")
        if self.background_level + 3.0 * self.background_noise_sd >= i_lo:
            raise ValueError("background must stay below the nucleus intensity range")


def _render_nuclei(canvas: np.ndarray, draws: np.ndarray, r_max: float) -> None:
    """Max-blend into canvas an elliptical nucleus with a cos^2 radial taper
    per row of draws (cy, cx, r_major, ratio, theta, peak), on windows of one
    size covering the canvas pixels within r_max + 1 of floor(center) (rho > 1
    and the profile is 0 beyond r_major), in chunks of about 2**20 pixels."""
    (h, w), reach = canvas.shape, int(np.ceil(r_max)) + 1
    sy, sx = min(2 * reach + 2, h), min(2 * reach + 2, w)
    for chunk in np.array_split(draws, max(1, len(draws) * sy * sx // 2**20)):
        cy, cx, r_major, ratio, theta, peak = (col[:, None, None] for col in chunk.T)
        # window origins floor(center) - reach, moved onto the canvas
        yy = np.clip(np.floor(cy) - reach, 0, h - sy) + np.arange(sy)[:, None]
        xx = np.clip(np.floor(cx) - reach, 0, w - sx) + np.arange(sx)
        dy, dx = yy - cy, xx - cx
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        u = (dx * cos_t + dy * sin_t) / r_major
        v = (-dx * sin_t + dy * cos_t) / (r_major * ratio)
        rho = np.sqrt(u * u + v * v)
        profile = np.where(rho <= 1.0, peak * np.cos(0.5 * np.pi * rho) ** 2, 0.0)
        np.maximum.at(canvas, (yy.astype(np.intp), xx.astype(np.intp)), profile)


def generate_phantom(
    spec: PhantomSpec, seed: int
) -> tuple[Image, list[tuple[float, float]]]:
    """Deterministically render one phantom; returns the image and the
    nucleus centers placed (row, col), for downstream oracles."""
    rng = np.random.default_rng(seed)
    n_nuclei = int(round(spec.nuclei_per_megapixel * spec.width * spec.height / 1e6))

    background = np.full((spec.height, spec.width), spec.background_level)
    if spec.background_noise_sd > 0:
        background += rng.normal(0.0, spec.background_noise_sd, background.shape)

    # one row per nucleus, in the order of six scalar draws
    (r_lo, r_hi), (i_lo, i_hi) = spec.nucleus_radius_px, spec.nucleus_intensity
    draws = rng.uniform((0, 0, r_lo, 1 - spec.eccentricity_max, 0, i_lo),
                        (spec.height, spec.width, r_hi, 1, 2 * np.pi, i_hi), size=(n_nuclei, 6))
    nuclei = np.zeros_like(background)
    _render_nuclei(nuclei, draws, r_hi)
    centers = list(zip(draws[:, 0].tolist(), draws[:, 1].tolist()))

    # stacked fluorescence saturates rather than adding: combine by maximum
    data = np.clip(np.maximum(background, nuclei), 0.0, 1.0)
    return Image(data), centers
