import math

import numpy as np
import pytest

from endosim.image import Image
from endosim.metrics import SSIM_C1, SSIM_C2, SSIM_SIGMA, SSIM_WINDOW, psnr, ssim


def ssim_window_2d():
    half = SSIM_WINDOW // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    w1 = np.exp(-0.5 * (x / SSIM_SIGMA) ** 2)
    w1 /= w1.sum()
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
