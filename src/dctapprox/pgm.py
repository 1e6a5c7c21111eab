"""Minimal binary PGM (P5, 8-bit, maxval 255) reader and writer."""

from __future__ import annotations

import numpy as np

__all__ = ["read_pgm", "write_pgm"]


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":  # comment runs to end of line
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ValueError("truncated PGM header")
    return data[start:pos], pos


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit binary PGM (maxval 255) into a (height, width) uint8
    array.  A malformed header raises ValueError."""
    with open(path, "rb") as f:
        data = f.read()
    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        raise ValueError(f"not a binary PGM (magic {magic!r}, expected b'P5')")
    fields = []
    for _ in range(3):
        tok, pos = _next_token(data, pos)
        if not tok.isdigit():  # bytes: ASCII 0-9 only, unlike int()
            raise ValueError(f"PGM header value {tok!r} is not a decimal number")
        fields.append(int(tok))
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise ValueError(f"bad PGM dimensions {width}x{height}")
    if maxval != 255:  # PSNR and SSIM score against a peak of 255
        raise ValueError(f"only 8-bit PGM with maxval 255 supported, maxval={maxval}")
    pos += 1  # single whitespace byte after maxval
    raster = data[pos : pos + width * height]
    if len(raster) != width * height:
        raise ValueError(
            f"truncated PGM raster: expected {width * height} bytes, got {len(raster)}"
        )
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()


def write_pgm(path, image: np.ndarray) -> None:
    """Write a 2-d uint8 array as binary PGM with maxval 255."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError(f"image must be 2-d, got shape {image.shape}")
    if image.dtype != np.uint8:
        raise ValueError(f"image must be uint8, got {image.dtype}")
    height, width = image.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        f.write(image.tobytes())
