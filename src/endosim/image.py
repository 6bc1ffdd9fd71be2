"""Grayscale image container and binary PGM codec.

Intensities are kept as floats in [0, 1] internally; 8-bit and 16-bit
portable graymaps are read from disk, and 16-bit ones are written. 16-bit
samples are big-endian per the graymap convention.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Image", "ImageError", "load_pgm", "save_pgm"]


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


# the lookahead stops a '#' comment from backtracking into a token
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\n\r]*(?![^\n\r]))*([^\s#]+)")


def _tokenize_pgm_header(blob: bytes) -> tuple[list[bytes], int]:
    """Return the first 4 header tokens and the offset of the raster start.

    Tokens are whitespace-delimited; '#' starts a comment running to end of
    line. Exactly one whitespace byte separates the maxval token from the
    raster.
    """
    tokens: list[bytes] = []
    i = 0
    for _ in range(4):
        match = _HEADER_TOKEN.match(blob, i)
        if match is None:
            raise ImageError("truncated PGM header")
        tokens.append(match[1])
        i = match.end()
    if not blob[i : i + 1].isspace():
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
    dtype = np.dtype(">u2" if maxval == 65535 else "u1")
    if len(blob) - offset < width * height * dtype.itemsize:
        raise ImageError("truncated payload")
    samples = np.frombuffer(blob, dtype, width * height, offset)  # a view: no copy of the raster
    return Image(np.divide(samples, maxval, dtype=np.float64).reshape(height, width))


def save_pgm(image: Image) -> bytes:
    """Encode an Image as a 16-bit binary PGM; quantization is round-to-nearest."""
    scaled = np.multiply(image.data, 65535)
    samples = np.rint(scaled, out=scaled).astype(">u2")
    header = f"P5\n{image.width} {image.height}\n65535\n".encode("ascii")
    return header + samples.data  # the raster's own buffer, not a tobytes() copy
