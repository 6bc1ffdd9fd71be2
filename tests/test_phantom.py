import numpy as np
import pytest

from endosim.phantom import PhantomSpec, generate_phantom

SMALL = dict(width=64, height=64)


class TestSpecValidation:
    def test_background_must_clear_nuclei(self):
        with pytest.raises(ValueError):
            PhantomSpec(background_level=0.5, background_noise_sd=0.1,
                        nucleus_intensity=(0.6, 0.9))

    def test_radius_ordering(self):
        with pytest.raises(ValueError):
            PhantomSpec(nucleus_radius_px=(5.0, 3.0))


class TestGeneratePhantom:
    def test_empty_placement_is_constant(self):
        spec = PhantomSpec(nuclei_per_megapixel=0, background_noise_sd=0, **SMALL)
        img, centers = generate_phantom(spec, seed=1)
        assert centers == []
        assert np.all(img.data == spec.background_level)

    def test_determinism(self):
        spec = PhantomSpec(**SMALL)
        a, ca = generate_phantom(spec, seed=5)
        b, cb = generate_phantom(spec, seed=5)
        assert a == b and ca == cb

    def test_center_count_scales_with_density(self):
        a = PhantomSpec(nuclei_per_megapixel=200, width=256, height=256)
        b = PhantomSpec(nuclei_per_megapixel=400, width=256, height=256)
        counts_a = counts_b = 0
        for seed in range(100):
            counts_a += len(generate_phantom(a, seed)[1])
            counts_b += len(generate_phantom(b, seed)[1])
        assert abs(counts_a / counts_b - 0.5) <= 0.05

    def test_values_in_unit_interval(self):
        spec = PhantomSpec(background_noise_sd=0.05, **SMALL)
        for seed in range(5):
            img, _ = generate_phantom(spec, seed)
            assert img.data.min() >= 0.0 and img.data.max() <= 1.0

    def test_uncovered_pixels_keep_background(self):
        spec = PhantomSpec(background_noise_sd=0, nuclei_per_megapixel=500, **SMALL)
        img, centers = generate_phantom(spec, seed=3)
        r_max = spec.nucleus_radius_px[1]
        yy, xx = np.mgrid[0 : spec.height, 0 : spec.width]
        covered = np.zeros((spec.height, spec.width), dtype=bool)
        for cy, cx in centers:
            covered |= (yy - cy) ** 2 + (xx - cx) ** 2 <= (r_max + 1.5) ** 2
        outside = img.data[~covered]
        assert outside.size > 0
        assert np.all(outside == spec.background_level)

    def test_bright_pixel_count_grows_with_density(self):
        lo = PhantomSpec(nuclei_per_megapixel=100, background_noise_sd=0, **SMALL)
        hi = PhantomSpec(nuclei_per_megapixel=800, background_noise_sd=0, **SMALL)
        threshold = 0.5
        n_lo = n_hi = 0
        for seed in range(100):
            n_lo += int((generate_phantom(lo, seed)[0].data > threshold).sum())
            n_hi += int((generate_phantom(hi, seed)[0].data > threshold).sum())
        assert n_hi > n_lo

