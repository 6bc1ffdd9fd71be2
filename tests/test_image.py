import numpy as np
import pytest

from endosim.image import Image, ImageError, load_pgm, save_pgm


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

    @pytest.mark.parametrize("header", [
        b"P5#x\n1 1\n255\n",  # comment directly after a token
        b"P5\n# c\r1 1\n255\n",  # comment ended by CR
        b"P5 1 1#c\n255\n",  # comment between height and maxval
        b"P5\t1\x0b1\x0c255\n",  # tab, VT and FF as separators
        b"P5 1 1 255\r",  # the one whitespace byte after maxval may be CR
    ])
    def test_header_grammar(self, header):
        img = load_pgm(header + b"\x33")
        assert img.width == img.height == 1 and img.data[0, 0] == 0x33 / 255

    @pytest.mark.parametrize("blob, message", [
        (b"P5 1 1 #c", "truncated PGM header"),  # comment runs to EOF
        (b"P5 1 1 255", "missing whitespace after maxval"),
        (b"P5 1 1 255#\n\x33", "missing whitespace after maxval"),
    ])
    def test_header_errors(self, blob, message):
        with pytest.raises(ImageError, match=message):
            load_pgm(blob)


class TestSavePgm:
    def test_round_to_nearest(self):
        blob = save_pgm(Image(np.array([[0.5]])))
        assert blob.endswith((32768).to_bytes(2, "big"))

    def test_zero(self):
        blob = save_pgm(Image(np.array([[0.0]])))
        assert blob.endswith(bytes([0, 0]))

    def test_roundtrip_16bit(self):
        rng = np.random.default_rng(3)
        img = Image(rng.uniform(0, 1, (8, 8)))
        back = load_pgm(save_pgm(img))
        assert np.abs(back.data - img.data).max() <= 1.0 / 131070

    def test_lossless_on_grid_values(self):
        rng = np.random.default_rng(4)
        img = Image(rng.integers(0, 65536, (6, 5)) / 65535.0)
        assert load_pgm(save_pgm(img)) == img

