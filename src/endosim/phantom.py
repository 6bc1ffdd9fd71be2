"""Synthetic fluorescent-nuclei phantoms.

Stands in for clinical microendoscopy frames: bright elliptical nuclei with
a cosine-squared edge taper on a noisy background. Nuclear density is the
knob separating the two diagnostic classes.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

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
        # every field is a number or a pair of numbers; unlike np.isfinite,
        # abs() < inf takes an int too large for a float (a width)
        if not all(abs(v) < np.inf for v in np.hstack(astuple(self))):
            raise ValueError("phantom spec values must be finite")
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


def _render_nucleus(
    canvas: np.ndarray, cy: float, cx: float, r_major: float, ratio: float,
    theta: float, peak: float,
) -> None:
    """Max-blend one elliptical nucleus with a cos^2 radial taper."""
    h, w = canvas.shape
    reach = int(np.ceil(r_major)) + 1
    y0 = max(0, int(np.floor(cy)) - reach)
    y1 = min(h, int(np.ceil(cy)) + reach + 1)
    x0 = max(0, int(np.floor(cx)) - reach)
    x1 = min(w, int(np.ceil(cx)) + reach + 1)
    yy, xx = np.mgrid[y0:y1, x0:x1]
    dy = yy - cy
    dx = xx - cx
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    u = (dx * cos_t + dy * sin_t) / r_major
    v = (-dx * sin_t + dy * cos_t) / (r_major * ratio)
    rho = np.sqrt(u * u + v * v)
    inside = rho <= 1.0
    profile = np.zeros_like(rho)
    profile[inside] = peak * np.cos(0.5 * np.pi * rho[inside]) ** 2
    patch = canvas[y0:y1, x0:x1]
    np.maximum(patch, profile, out=patch)


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

    nuclei = np.zeros_like(background)
    centers: list[tuple[float, float]] = []
    for _ in range(n_nuclei):
        cy = rng.uniform(0, spec.height)
        cx = rng.uniform(0, spec.width)
        r_major = rng.uniform(*spec.nucleus_radius_px)
        ratio = rng.uniform(1.0 - spec.eccentricity_max, 1.0)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        peak = rng.uniform(*spec.nucleus_intensity)
        _render_nucleus(nuclei, cy, cx, r_major, ratio, theta, peak)
        centers.append((cy, cx))

    # stacked fluorescence saturates rather than adding: combine by maximum
    data = np.clip(np.maximum(background, nuclei), 0.0, 1.0)
    return Image(data), centers
