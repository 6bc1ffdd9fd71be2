import os

import numpy as np
import pytest
from scipy.ndimage import correlate1d

from endosim import srcnn
from endosim.image import Image
from endosim.metrics import ssim
from endosim.preprocess import (
    PreprocessConfig,
    _window_product,
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


def reference_blur(data, sigma):
    """The whole-frame form of gaussian_blur: one symmetric pad of the frame,
    one window product over it."""
    kernel = gaussian_kernel(sigma)
    out = _window_product(np.pad(data, len(kernel) // 2, mode="symmetric"), kernel)
    return np.clip(out, 0.0, 1.0, out=out)


def reference_clahe(image, cfg):
    """Per-tile loop and four-term bilinear blend: one clipped histogram and
    one equalization table per tile, then the four corner terms written out."""
    rows, cols = cfg.clahe_tiles
    bins = cfg.clahe_bins
    y_edges = np.rint(np.linspace(0, image.height, rows + 1)).astype(int)
    x_edges = np.rint(np.linspace(0, image.width, cols + 1)).astype(int)

    bin_idx = np.minimum((image.data * bins).astype(int), bins - 1)
    tables = np.empty((rows, cols, bins))
    for r in range(rows):
        for c in range(cols):
            tile = bin_idx[y_edges[r] : y_edges[r + 1], x_edges[c] : x_edges[c + 1]]
            hist = np.bincount(tile.ravel(), minlength=bins).astype(np.float64)
            ceiling = cfg.clahe_clip_limit * tile.size
            excess = np.maximum(hist - ceiling, 0.0).sum()
            hist = np.minimum(hist, ceiling) + excess / bins
            cdf = np.cumsum(hist)
            tables[r, c] = cdf / cdf[-1]

    y_centers = (y_edges[:-1] + y_edges[1:] - 1) / 2.0
    x_centers = (x_edges[:-1] + x_edges[1:] - 1) / 2.0

    def axis_blend(coords, centers):
        hi = np.searchsorted(centers, coords).clip(0, len(centers) - 1)
        lo = np.maximum(hi - 1, 0)
        span = centers[hi] - centers[lo]
        w = np.where(span > 0, (coords - centers[lo]) / np.where(span > 0, span, 1), 0.0)
        return lo, hi, np.clip(w, 0.0, 1.0)

    r_lo, r_hi, wy = axis_blend(np.arange(image.height, dtype=np.float64), y_centers)
    c_lo, c_hi, wx = axis_blend(np.arange(image.width, dtype=np.float64), x_centers)

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
    return np.clip(out, 0.0, 1.0)


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

    @pytest.mark.parametrize("shape", [(1, 1), (2, 9), (5, 3)])
    @pytest.mark.parametrize("sigma", [0.3, 2.0, 5.0])
    def test_image_smaller_than_radius_matches_scipy_reflect(self, shape, sigma):
        # the symmetric pad is wider than the image and reflects repeatedly
        data = np.random.default_rng(12).uniform(0, 1, shape)
        kernel = gaussian_kernel(sigma)
        expected = correlate1d(data, kernel, axis=0, mode="reflect")
        expected = correlate1d(expected, kernel, axis=1, mode="reflect")
        out = gaussian_blur(Image(data), sigma)
        assert np.abs(out.data - np.clip(expected, 0.0, 1.0)).max() <= 1e-12

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

    @pytest.mark.parametrize("shape, tiles, bins, clip", [
        ((960, 1280), (8, 8), 256, 0.005),
        ((61, 97), (3, 5), 64, 0.02),  # uneven tiles
        ((40, 6), (2, 2), 2, 0.5),
        ((11, 11), (1, 1), 256, 0.005),
        ((80, 96), (8, 8), 65536, 0.005),
    ])
    def test_bit_equal_to_per_tile_reference(self, shape, tiles, bins, clip):
        cfg = PreprocessConfig(clahe_clip_limit=clip, clahe_tiles=tiles, clahe_bins=bins)
        img = gaussian_blur(Image(np.random.default_rng(29).uniform(0, 1, shape)), 2.0)
        np.testing.assert_array_equal(clahe(img, cfg).data, reference_clahe(img, cfg),
                                      strict=True)


class TestBandedFrames:
    # the blur and the CLAHE blend in 64-row bands, on the main thread's pool
    # and serially in a _pool worker (a sweep cell), against the whole frame
    @pytest.mark.parametrize("shape", [
        (960, 1280),
        (700, 1000),  # a last band of 60 rows
        (193, 1280),  # one row taller than three bands: a last band of 65
        (517, 300),  # under _BAND_PIXELS; run whole
    ])
    def test_equal_whole_frame_references(self, recording_pool, shape):
        cfg = PreprocessConfig()
        data = np.random.default_rng(33).uniform(0, 1, shape)
        blurred = reference_blur(data, cfg.gaussian_sigma_px)
        equalized = reference_clahe(Image(blurred), cfg)

        def stages():
            blur = gaussian_blur(Image(data), cfg.gaussian_sigma_px)
            return blur.data, clahe(blur, cfg).data

        for got, expected in zip(stages(), (blurred, equalized)):
            np.testing.assert_array_equal(got, expected, strict=True)
        if srcnn._openblas_thread_fns() and len(os.sched_getaffinity(0)) >= 2:
            assert bool(recording_pool) == (data.size > srcnn._BAND_PIXELS)
        with srcnn._pool(2) as pool:
            for got, expected in zip(pool.submit(stages).result(), (blurred, equalized)):
                np.testing.assert_array_equal(got, expected, strict=True)

    def test_small_frame_starts_no_pool(self, recording_pool):
        # a sweep cell's and frame_hd set-up's 128x128 frames run whole and inline
        img = Image(np.random.default_rng(34).uniform(0, 1, (128, 128)))
        ssim(img, preprocess(img, PreprocessConfig()))
        assert recording_pool == []


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

    def test_sigma_past_float_range_names_its_field(self):
        with pytest.raises(ValueError, match="^gaussian_sigma_px must be positive"):
            PreprocessConfig(gaussian_sigma_px=10**309)
