import numpy as np
import pytest

from endosim.image import Image
from endosim.preprocess import (
    PreprocessConfig,
    clahe,
    gaussian_blur,
    gaussian_kernel,
    preprocess,
)


def brute_force_blur(data, sigma):
    """Direct 2-D convolution oracle: outer-product kernel, symmetric pad."""
    k1 = gaussian_kernel(sigma)
    k2 = np.outer(k1, k1)
    r = len(k1) // 2
    padded = np.pad(data, r, mode="symmetric")
    h, w = data.shape
    out = np.zeros_like(data)
    for i in range(h):
        for j in range(w):
            out[i, j] = np.sum(k2 * padded[i : i + 2 * r + 1, j : j + 2 * r + 1])
    return out


def global_he_oracle(data, bins):
    """Plain global histogram equalization: v -> cdf(bin(v)) / N."""
    idx = np.minimum((data * bins).astype(int), bins - 1)
    hist = np.bincount(idx.ravel(), minlength=bins)
    cdf = np.cumsum(hist)
    return cdf[idx] / data.size


class TestGaussianBlur:
    def test_constant_preserved(self):
        img = Image(np.full((12, 12), 0.37))
        for sigma in (0.5, 2.0, 5.0):
            out = gaussian_blur(img, sigma)
            np.testing.assert_allclose(out.data, 0.37, atol=1e-12)

    def test_impulse_mass_conserved(self):
        data = np.zeros((41, 41))
        data[20, 20] = 1.0
        out = gaussian_blur(Image(data), 2.0)
        assert abs(out.data.sum() - 1.0) <= 1e-9

    def test_matches_brute_force_2d(self):
        rng = np.random.default_rng(11)
        data = rng.uniform(0, 1, (16, 16))
        out = gaussian_blur(Image(data), 2.0)
        expected = brute_force_blur(data, 2.0)
        assert np.abs(out.data - expected).max() <= 1e-12

    def test_mean_preserved_on_constant_border(self):
        data = np.full((20, 20), 0.4)
        data[8:12, 8:12] = 0.8
        out = gaussian_blur(Image(data), 1.5)
        assert abs(out.data.mean() - data.mean()) <= 1e-6

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian_blur(Image(np.zeros((4, 4))), 0.0)

    def test_rejects_sigma_with_infinite_radius(self):
        # int(ceil(4 * sigma)) of an infinite radius would raise OverflowError
        with pytest.raises(ValueError, match="kernel radius 4 \\* sigma = inf"):
            gaussian_blur(Image(np.zeros((4, 4))), 1e308)

    def test_subnormal_sigma_is_identity(self):
        # the off-centre taps are exp(-inf) = 0, with no overflow warning
        img = Image(np.random.default_rng(3).uniform(0, 1, (6, 5)))
        np.testing.assert_array_equal(gaussian_kernel(5e-324), [0.0, 1.0, 0.0])
        assert gaussian_blur(img, 1e-300) == img


class TestClahe:
    def test_constant_maps_to_constant(self):
        cfg = PreprocessConfig()
        out = clahe(Image(np.full((16, 16), 0.25)), cfg)
        assert np.unique(out.data).size == 1

    def test_clip_one_single_tile_equals_global_he(self):
        cfg = PreprocessConfig(clahe_clip_limit=1.0, clahe_tiles=(1, 1))
        rng = np.random.default_rng(13)
        data = rng.uniform(0, 1, (24, 24))
        out = clahe(Image(data), cfg)
        expected = global_he_oracle(data, cfg.clahe_bins)
        assert np.abs(out.data - expected).max() <= 1.0 / cfg.clahe_bins

    def test_tile_interior_order_preserved(self):
        cfg = PreprocessConfig(clahe_tiles=(2, 2))
        rng = np.random.default_rng(17)
        data = rng.uniform(0, 1, (32, 32))
        out = clahe(Image(data), cfg)
        # strict interior of tile (0,0): no blend with other tiles only at
        # the exact tile-center point; check monotonicity through the shared
        # mapping instead on a 1x1-tile config where no blending happens
        cfg1 = PreprocessConfig(clahe_tiles=(1, 1))
        out1 = clahe(Image(data), cfg1)
        flat_in = data.ravel()
        flat_out = out1.data.ravel()
        order = np.argsort(flat_in, kind="stable")
        assert np.all(np.diff(flat_out[order]) >= -1e-12)

    def test_rejects_image_smaller_than_grid(self):
        with pytest.raises(ValueError):
            clahe(Image(np.zeros((4, 4))), PreprocessConfig(clahe_tiles=(8, 8)))

    def test_clip_one_idempotent_on_constant(self):
        cfg = PreprocessConfig(clahe_clip_limit=1.0, clahe_tiles=(1, 1))
        once = clahe(Image(np.full((16, 16), 0.6)), cfg)
        twice = clahe(once, cfg)
        assert once == twice


class TestPreprocessPipeline:
    def test_constant_in_constant_out(self):
        cfg = PreprocessConfig()
        out = preprocess(Image(np.full((16, 16), 0.5)), cfg)
        assert np.unique(out.data).size == 1

    def test_deterministic(self):
        cfg = PreprocessConfig()
        rng = np.random.default_rng(19)
        img = Image(rng.uniform(0, 1, (20, 20)))
        assert preprocess(img, cfg) == preprocess(img, cfg)

    def test_equals_manual_composition(self):
        cfg = PreprocessConfig()
        rng = np.random.default_rng(23)
        img = Image(rng.uniform(0, 1, (20, 20)))
        manual = clahe(gaussian_blur(img, cfg.gaussian_sigma_px), cfg)
        assert preprocess(img, cfg) == manual

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PreprocessConfig(clahe_clip_limit=0.0)
        with pytest.raises(ValueError):
            PreprocessConfig(clahe_bins=1)
