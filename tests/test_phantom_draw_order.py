import numpy as np
import pytest

from endosim.phantom import PhantomSpec, generate_phantom


def scalar_phantom(spec, seed):
    """generate_phantom as a loop of scalar draws and one clipped window per
    nucleus: the reference for its single draw and vectorized render."""
    rng = np.random.default_rng(seed)
    n = int(round(spec.nuclei_per_megapixel * spec.width * spec.height / 1e6))
    background = np.full((spec.height, spec.width), spec.background_level)
    if spec.background_noise_sd > 0:
        background += rng.normal(0.0, spec.background_noise_sd, background.shape)
    nuclei = np.zeros_like(background)
    h, w = nuclei.shape
    centers = []
    for _ in range(n):
        cy = rng.uniform(0, spec.height)
        cx = rng.uniform(0, spec.width)
        r_major = rng.uniform(*spec.nucleus_radius_px)
        ratio = rng.uniform(1.0 - spec.eccentricity_max, 1.0)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        peak = rng.uniform(*spec.nucleus_intensity)
        reach = int(np.ceil(r_major)) + 1
        y0, y1 = max(0, int(np.floor(cy)) - reach), min(h, int(np.ceil(cy)) + reach + 1)
        x0, x1 = max(0, int(np.floor(cx)) - reach), min(w, int(np.ceil(cx)) + reach + 1)
        yy, xx = np.mgrid[y0:y1, x0:x1]
        dy, dx = yy - cy, xx - cx
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        u = (dx * cos_t + dy * sin_t) / r_major
        v = (-dx * sin_t + dy * cos_t) / (r_major * ratio)
        rho = np.sqrt(u * u + v * v)
        inside = rho <= 1.0
        profile = np.zeros_like(rho)
        profile[inside] = peak * np.cos(0.5 * np.pi * rho[inside]) ** 2
        patch = nuclei[y0:y1, x0:x1]
        np.maximum(patch, profile, out=patch)
        centers.append((cy, cx))
    return np.clip(np.maximum(background, nuclei), 0.0, 1.0), centers, rng


@pytest.mark.parametrize("spec", [
    dict(),  # 1280x960
    dict(width=96, height=80),
    dict(width=37, height=5, nuclei_per_megapixel=5000),  # windows wider than the canvas
    dict(width=1, height=1, nuclei_per_megapixel=1e6),
    dict(width=200, height=150, nucleus_radius_px=(1.0, 1.0), eccentricity_max=0.0,
         background_noise_sd=0.0),
    dict(width=200, height=150, nucleus_radius_px=(2.5, 17.3), eccentricity_max=0.9,
         nuclei_per_megapixel=2000),
    dict(width=128, height=96, nucleus_radius_px=(3.0, 1000.0)),
    dict(width=640, height=480, nucleus_radius_px=(20.0, 45.0),
         nuclei_per_megapixel=2000),  # several render chunks
    dict(width=64, height=64, nuclei_per_megapixel=0.0),
])
@pytest.mark.parametrize("seed", [1, 2])
def test_one_draw_replays_scalar_draws(spec, seed):
    """The six parameters of each nucleus are drawn in order, nucleus by
    nucleus, as scalar draws would be; the image, the centers (as Python
    floats) and the generator's state after the draws all match."""
    spec = PhantomSpec(**spec)
    img, centers = generate_phantom(spec, seed)
    expected, expected_centers, rng = scalar_phantom(spec, seed)
    np.testing.assert_array_equal(img.data, expected)
    assert centers == expected_centers
    assert all(type(v) is float for center in centers for v in center)
    # the next draw after generate_phantom's would be the same
    replay = np.random.default_rng(seed)
    if spec.background_noise_sd > 0:
        replay.normal(0.0, spec.background_noise_sd, (spec.height, spec.width))
    replay.uniform(size=(len(centers), 6))
    assert replay.random() == rng.random()
