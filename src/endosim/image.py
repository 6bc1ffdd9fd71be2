"""Grayscale image container, binary PGM codec and cropping primitives.

Intensities are kept as floats in [0, 1] internally; 8-bit and 16-bit
portable graymaps are accepted on disk. 16-bit samples are big-endian per
the graymap convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Image", "ImageError", "load_pgm", "save_pgm", "crop", "random_crop"]


class ImageError(ValueError):
    """Malformed image data or invalid image operation."""


@dataclass(frozen=True)
class Image:
    """Immutable 2-D grayscale intensity field with values in [0, 1]."""

    data: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        # a private C-ordered copy: the caller's array and its views stay live
        arr = np.array(self.data, dtype=np.float64, order="C")
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ImageError(f"expected a non-empty 2-D array, got shape {arr.shape}")
        # NaN fails both comparisons and +-inf fails one
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):
            if not np.isfinite(arr).all():
                raise ImageError("image contains non-finite values")
            raise ImageError("image values must lie in [0, 1]")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Image):
            return NotImplemented
        return self.data.shape == other.data.shape and bool(
            np.array_equal(self.data, other.data)
        )


def _tokenize_pgm_header(blob: bytes) -> tuple[list[bytes], int]:
    """Return the first 4 header tokens and the offset of the raster start.

    Tokens are whitespace-delimited; '#' starts a comment running to end of
    line. Exactly one whitespace byte separates the maxval token from the
    raster.
    """
    tokens: list[bytes] = []
    i = 0
    n = len(blob)
    while len(tokens) < 4:
        while i < n and blob[i : i + 1].isspace():
            i += 1
        if i < n and blob[i] == ord("#"):
            while i < n and blob[i] not in (0x0A, 0x0D):
                i += 1
            continue
        start = i
        while i < n and not blob[i : i + 1].isspace() and blob[i] != ord("#"):
            i += 1
        if i == start:
            raise ImageError("truncated PGM header")
        tokens.append(blob[start:i])
    if i >= n or not blob[i : i + 1].isspace():
        raise ImageError("missing whitespace after maxval")
    return tokens, i + 1


def load_pgm(blob: bytes) -> Image:
    """Decode a binary ("P5") portable graymap into a normalized Image."""
    tokens, offset = _tokenize_pgm_header(blob)
    if tokens[0] != b"P5":
        raise ImageError(f"not a binary PGM (magic {tokens[0]!r})")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise ImageError(f"non-numeric PGM header field: {exc}") from exc
    if width < 1 or height < 1:
        raise ImageError(f"invalid dimensions {width}x{height}")
    if maxval not in (255, 65535):
        raise ImageError(f"unsupported maxval {maxval}")
    dtype = np.dtype(">u2") if maxval == 65535 else np.dtype("u1")
    count = width * height
    payload = blob[offset : offset + count * dtype.itemsize]
    if len(payload) < count * dtype.itemsize:
        raise ImageError("truncated payload")
    samples = np.frombuffer(payload, dtype=dtype, count=count)
    data = samples.astype(np.float64).reshape(height, width) / maxval
    return Image(data)


def save_pgm(image: Image, maxval: int = 65535) -> bytes:
    """Encode an Image as a binary PGM; quantization is round-to-nearest."""
    if maxval not in (255, 65535):
        raise ImageError(f"unsupported maxval {maxval}")
    dtype = np.dtype(">u2") if maxval == 65535 else np.dtype("u1")
    samples = np.rint(image.data * maxval).astype(dtype)
    header = f"P5\n{image.width} {image.height}\n{maxval}\n".encode("ascii")
    return header + samples.tobytes()


def crop(image: Image, x0: int, y0: int, w: int, h: int) -> Image:
    """Extract the w x h rectangle whose top-left corner is (x0, y0)."""
    if w < 1 or h < 1 or x0 < 0 or y0 < 0:
        raise ImageError(f"invalid crop rectangle ({x0},{y0},{w},{h})")
    if x0 + w > image.width or y0 + h > image.height:
        raise ImageError(
            f"crop ({x0},{y0},{w},{h}) exceeds image {image.width}x{image.height}"
        )
    return Image(image.data[y0 : y0 + h, x0 : x0 + w])


def random_crop(image: Image, size: int, rng: np.random.Generator) -> Image:
    """Square crop at an offset drawn uniformly over all valid positions."""
    if size > min(image.width, image.height):
        raise ImageError(f"crop size {size} exceeds image {image.width}x{image.height}")
    x0 = int(rng.integers(0, image.width - size + 1))
    y0 = int(rng.integers(0, image.height - size + 1))
    return crop(image, x0, y0, size, size)
