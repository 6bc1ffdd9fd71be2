import math

import numpy as np
import pytest

from endosim.image import Image
from endosim.metrics import SSIM_C1, SSIM_C2, SSIM_SIGMA, SSIM_WINDOW, psnr, ssim
from endosim.preprocess import _window_product, gaussian_blur, gaussian_kernel
from endosim.srcnn import _pool


def ssim_window_1d():
    half = SSIM_WINDOW // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    w1 = np.exp(-0.5 * (x / SSIM_SIGMA) ** 2)
    return w1 / w1.sum()


def ssim_window_2d():
    w1 = ssim_window_1d()
    return np.outer(w1, w1)


def brute_force_ssim(x, y):
    """Per-window sliding oracle evaluated in double precision."""
    w = ssim_window_2d()
    k = SSIM_WINDOW
    c1, c2 = SSIM_C1, SSIM_C2
    h, wd = x.shape
    vals = []
    for i in range(h - k + 1):
        for j in range(wd - k + 1):
            px = x[i : i + k, j : j + k]
            py = y[i : i + k, j : j + k]
            mx = np.sum(w * px)
            my = np.sum(w * py)
            vx = np.sum(w * px * px) - mx * mx
            vy = np.sum(w * py * py) - my * my
            cov = np.sum(w * px * py) - mx * my
            vals.append(
                ((2 * mx * my + c1) * (2 * cov + c2))
                / ((mx * mx + my * my + c1) * (vx + vy + c2))
            )
    return float(np.mean(vals))


def brute_force_window_sum(a, taps):
    """The weighted sum of the outer(taps, taps) window at every position
    where it fits."""
    w = np.outer(taps, taps)
    k = len(taps)
    h, wd = a.shape
    return np.array([[np.sum(w * a[i : i + k, j : j + k]) for j in range(wd - k + 1)]
                     for i in range(h - k + 1)])


class TestPsnr:
    def test_identical_is_infinite(self):
        img = Image(np.random.default_rng(0).uniform(0, 1, (8, 8)))
        assert math.isinf(psnr(img, img))

    def test_uniform_difference_exact(self):
        a = Image(np.full((16, 16), 0.5))
        b = Image(np.full((16, 16), 0.6))
        assert abs(psnr(a, b) - 20.0) <= 1e-9

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 1, (12, 12))
        b = rng.uniform(0, 1, (12, 12))
        expected = 10 * math.log10(1.0 / np.mean((a - b) ** 2))
        assert abs(psnr(Image(a), Image(b)) - expected) <= 1e-9

    def test_decreases_with_error(self):
        base = Image(np.full((8, 8), 0.4))
        values = [
            psnr(base, Image(np.full((8, 8), 0.4 + e))) for e in (0.05, 0.1, 0.2)
        ]
        assert values[0] > values[1] > values[2]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            psnr(Image(np.zeros((4, 4))), Image(np.zeros((4, 5))))


class TestSsim:
    def test_self_similarity_is_one(self):
        img = Image(np.random.default_rng(2).uniform(0, 1, (16, 16)))
        assert abs(ssim(img, img) - 1.0) <= 1e-12

    def test_constant_pair_closed_form(self):
        a, b = 0.3, 0.7
        expected = (2 * a * b + SSIM_C1) / (a * a + b * b + SSIM_C1)
        got = ssim(Image(np.full((16, 16), a)), Image(np.full((16, 16), b)))
        assert abs(got - expected) <= 1e-12

    def test_matches_sliding_window_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.uniform(0, 1, (16, 16))
            y = rng.uniform(0, 1, (16, 16))
            assert abs(ssim(Image(x), Image(y)) - brute_force_ssim(x, y)) <= 1e-9

    def test_smallest_image_matches_sliding_window_oracle(self):
        rng = np.random.default_rng(6)
        x, y = rng.uniform(0, 1, (2, SSIM_WINDOW, SSIM_WINDOW))
        assert abs(ssim(Image(x), Image(y)) - brute_force_ssim(x, y)) <= 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a = Image(rng.uniform(0, 1, (14, 14)))
        b = Image(rng.uniform(0, 1, (14, 14)))
        assert abs(ssim(a, b) - ssim(b, a)) <= 1e-12

    def test_flip_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 1, (13, 15))
        b = rng.uniform(0, 1, (13, 15))
        direct = ssim(Image(a), Image(b))
        flipped = ssim(Image(a[:, ::-1]), Image(b[:, ::-1]))
        assert abs(direct - flipped) <= 1e-12
        assert abs(
            psnr(Image(a), Image(b)) - psnr(Image(a[:, ::-1]), Image(b[:, ::-1]))
        ) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="ssim requires equal image dimensions"):
            ssim(Image(np.zeros((16, 16))), Image(np.zeros((16, 17))))

    def test_window_too_large(self):
        with pytest.raises(ValueError):
            ssim(Image(np.zeros((8, 8))), Image(np.zeros((8, 8))))


class TestLocalMean:
    # SSIM's 11 taps and the blur's 17 at its default sigma; each shape is
    # grown by the taps beyond 11, so a side equal to the tap length is in
    @pytest.mark.parametrize("shape", [(11, 11), (11, 30), (30, 11), (13, 27), (29, 17)])
    def test_matches_2d_window_oracle(self, shape):
        for taps in (ssim_window_1d(), gaussian_kernel(2.0)):
            grow = len(taps) - SSIM_WINDOW
            a = np.random.default_rng(7).uniform(0, 1, (shape[0] + grow, shape[1] + grow))
            got = _window_product(a, taps)
            expected = brute_force_window_sum(a, taps)
            assert got.shape == (shape[0] - SSIM_WINDOW + 1, shape[1] - SSIM_WINDOW + 1)
            assert np.abs(got - expected).max() <= 1e-12


class TestWindowProductsOnThreads:
    # BLAS may run a window product on several threads on the main thread
    # and runs it on one in a _pool worker; sweep bytes must not depend on that
    @pytest.mark.parametrize("shape", [(300, 257), (61, 1003), (960, 1280)])
    def test_same_bits_on_main_thread_and_pool_worker(self, shape):
        rng = np.random.default_rng(8)
        x, y = (Image(rng.uniform(0, 1, shape)) for _ in range(2))

        def scores():
            return ssim(x, y), gaussian_blur(x, 2.0).data

        main_ssim, main_blur = scores()
        with _pool(2) as pool:
            worker_ssim, worker_blur = pool.submit(scores).result()
        assert main_ssim == worker_ssim
        np.testing.assert_array_equal(main_blur, worker_blur)
