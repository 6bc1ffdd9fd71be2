import numpy as np
import pytest

from endosim.image import Image, ImageError, crop, load_pgm, random_crop, save_pgm


def make_pgm(width, height, maxval, samples, comment=False):
    comment_line = "# a comment\n" if comment else ""
    header = f"P5\n{comment_line}{width} {height}\n{maxval}\n"
    dtype = ">u2" if maxval == 65535 else "u1"
    return header.encode() + np.asarray(samples, dtype=dtype).tobytes()


class TestImage:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        data = np.full((2, 3), 0.5)
        data[1, 2] = bad
        with pytest.raises(ImageError, match="non-finite"):
            Image(data)

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_out_of_range_rejected(self, bad):
        data = np.full((2, 3), 0.5)
        data[0, 1] = bad
        with pytest.raises(ImageError, match=r"\[0, 1\]"):
            Image(data)

    def test_caller_writes_do_not_reach_the_image(self):
        data = np.full((3, 3), 0.25)
        view = data[1:]
        img = Image(data)
        data[0, 0] = 0.75
        view[0, 0] = 0.75
        np.testing.assert_array_equal(img.data, 0.25)
        assert not img.data.flags.writeable

    def test_fortran_order_input_gives_c_layout(self):
        data = np.asfortranarray(np.random.default_rng(8).uniform(0, 1, (4, 5)))
        img = Image(data)
        assert img.data.flags.c_contiguous
        np.testing.assert_array_equal(img.data, data)


class TestLoadPgm:
    def test_8bit_scaling(self):
        img = load_pgm(make_pgm(2, 2, 255, [0, 255, 128, 64]))
        assert img.width == 2 and img.height == 2
        np.testing.assert_array_equal(
            img.data, np.array([[0, 1], [128 / 255, 64 / 255]])
        )

    def test_16bit_big_endian(self):
        img = load_pgm(make_pgm(1, 1, 65535, [65535]))
        assert img.data[0, 0] == 1.0

    def test_truncated_payload(self):
        with pytest.raises(ImageError, match="truncated"):
            load_pgm(make_pgm(2, 2, 255, [0, 1, 2]))

    def test_comment_lines(self):
        img = load_pgm(make_pgm(1, 2, 255, [10, 20], comment=True))
        assert img.height == 2

    def test_bad_magic(self):
        with pytest.raises(ImageError, match="magic"):
            load_pgm(b"P2\n1 1\n255\n0")

    def test_unsupported_maxval(self):
        with pytest.raises(ImageError, match="maxval"):
            load_pgm(make_pgm(1, 1, 255, [0]).replace(b"255", b"100"))


class TestSavePgm:
    def test_round_to_nearest(self):
        blob = save_pgm(Image(np.array([[0.5]])), maxval=255)
        assert blob.endswith(bytes([128]))

    def test_zero(self):
        blob = save_pgm(Image(np.array([[0.0]])), maxval=255)
        assert blob.endswith(bytes([0]))

    def test_roundtrip_16bit(self):
        rng = np.random.default_rng(3)
        img = Image(rng.uniform(0, 1, (8, 8)))
        back = load_pgm(save_pgm(img, maxval=65535))
        assert np.abs(back.data - img.data).max() <= 1.0 / 131070

    def test_lossless_on_grid_values(self):
        rng = np.random.default_rng(4)
        img = Image(rng.integers(0, 65536, (6, 5)) / 65535.0)
        assert load_pgm(save_pgm(img, maxval=65535)) == img


class TestCrop:
    def test_identity(self):
        img = Image(np.random.default_rng(0).uniform(0, 1, (4, 6)))
        assert crop(img, 0, 0, img.width, img.height) == img

    def test_single_pixel(self):
        img = Image(np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert crop(img, 1, 1, 1, 1).data[0, 0] == 0.4

    def test_out_of_bounds(self):
        img = Image(np.zeros((2, 2)))
        with pytest.raises(ImageError):
            crop(img, 1, 0, img.width, 1)

    def test_composition(self):
        img = Image(np.random.default_rng(1).uniform(0, 1, (10, 12)))
        inner = crop(crop(img, 2, 1, 8, 7), 3, 2, 4, 4)
        assert inner == crop(img, 5, 3, 4, 4)

    def test_inputs_unmodified(self):
        data = np.random.default_rng(2).uniform(0, 1, (5, 5))
        img = Image(data)
        crop(img, 1, 1, 3, 3)
        np.testing.assert_array_equal(img.data, data)


class TestRandomCrop:
    def test_full_size_is_whole_image(self):
        img = Image(np.random.default_rng(5).uniform(0, 1, (4, 4)))
        assert random_crop(img, 4, np.random.default_rng(9)) == img

    def test_determinism(self):
        img = Image(np.random.default_rng(6).uniform(0, 1, (8, 8)))
        a = random_crop(img, 3, np.random.default_rng(42))
        b = random_crop(img, 3, np.random.default_rng(42))
        assert a == b

    def test_too_large(self):
        with pytest.raises(ImageError):
            random_crop(Image(np.zeros((3, 3))), 4, np.random.default_rng(0))

    def test_offset_distribution_uniform(self):
        # 4x4 image, size-2 crop: 9 valid offsets, expect frequency 1/9
        base = np.arange(16).reshape(4, 4) / 15.0
        img = Image(base)
        rng = np.random.default_rng(7)
        counts = np.zeros((3, 3))
        for _ in range(10_000):
            c = random_crop(img, 2, rng)
            v = c.data[0, 0] * 15.0
            y0, x0 = int(round(v)) // 4, int(round(v)) % 4
            counts[y0, x0] += 1
        freqs = counts / 10_000
        assert np.abs(freqs - 1 / 9).max() <= 0.02
