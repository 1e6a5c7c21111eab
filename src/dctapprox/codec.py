"""JPEG-like blockwise compression harness: 2-d transform, zig-zag
coefficient retention, reconstruction, and PSNR/SSIM/APE scoring.

Quality scores are computed on the clamped floating-point reconstruction;
quantization to 8-bit samples happens only when an image is written out.
Images whose dimensions are not multiples of the block size are
edge-replicated up and cropped back after reconstruction.  The caller's
image is read through float64 casts, never copied or written, and nothing
is kept across calls.

Each part of the buffer and lane plan is stated once:

- ``_reconstruct``: the (inverse, scratch) pair of image-sized float64
  buffers in which a level is retained, inverted and scored, and what each
  holds in turn (``_forward`` for the forward stage);
- ``_SsimBands``: SSIM's integral images, built one band of window rows at
  a time in a small buffer or a caller's, bit-identical to whole-image
  integral images;
- ``_SsimReference``: a sweep's one pass over the image's window means and
  variances, and its SSIM map built over the spent reconstruction;
- ``_sweep_lane``: what a sweep lane holds, and why its scratch holds tall
  bands; ``_run_lanes``: how the lanes run.

Traced peaks in image-sized float64 arrays, measured 2026-10-22 on a
500x524 image at 8, 16 and 32 points: a warm ``compress_image`` call
2.9-3.0, a one-lane sweep 5.4-5.5 and a two-lane sweep 7.8-8.0, the shared
coefficients, means and variances included.  A two-lane sweep of an image
under 174 rows peaks higher, 12.5-12.6 at 8 points on 100x1000 and 60x2000
images, as each lane's scratch holds the whole image's band set; with an
image-sized scratch and shorter bands it would peak at 8.6-8.8.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import Transform

__all__ = [
    "RetentionPolicy",
    "QualityScores",
    "zigzag_order",
    "forward_2d",
    "inverse_2d",
    "retain",
    "psnr",
    "ssim",
    "ape",
    "compress_image",
    "retention_sweep",
    "ar1_test_image",
    "default_r_grid",
    "PSNR_IDENTICAL_SENTINEL",
]

PSNR_IDENTICAL_SENTINEL = 999.0

_SSIM_WINDOW = 8
_SSIM_K1 = 0.01
_SSIM_K2 = 0.03
_SSIM_L = 255.0
# SSIM sub-band size in elements per channel: its height is this over the
# width + 1 integral columns, so its means buffers stay in cache.
_SSIM_SUB_ELEMENTS = 16_384
# numpy runs an accumulate such as np.cumsum without the GIL only over more
# than this many independent rows (NPY_BEGIN_THREADS_THRESHOLDED in
# numpy/_core/include/numpy/ndarraytypes.h).
_GIL_FREE_ROWS = 500


def zigzag_order(n: int) -> list[tuple[int, int]]:
    """Zig-zag scan of an n x n grid: (0,0), (0,1), (1,0), ... along
    anti-diagonals, odd diagonals walked top-down."""
    if n < 2:
        raise ValueError(f"grid size must be at least 2, got {n}")
    order = []
    for s in range(2 * n - 1):
        lo = max(0, s - n + 1)
        hi = min(s, n - 1)
        rows = range(lo, hi + 1) if s % 2 else range(hi, lo - 1, -1)
        order.extend((i, s - i) for i in rows)
    return order


@lru_cache(maxsize=None)
def _zigzag_flat(n: int) -> tuple[int, ...]:
    return tuple(i * n + j for i, j in zigzag_order(n))


@lru_cache(maxsize=None)
def _retention_mask(n: int, kept: int) -> np.ndarray:
    mask = np.zeros(n * n)
    mask[list(_zigzag_flat(n)[:kept])] = 1.0
    mask = mask.reshape(n, n)
    mask.setflags(write=False)
    return mask


@dataclass(frozen=True)
class RetentionPolicy:
    """Keep a zig-zag prefix of the block coefficients, zero the rest."""

    n: int
    r_fraction: float

    def __post_init__(self) -> None:
        if not 0.0 < self.r_fraction <= 1.0:
            raise ValueError(
                f"retention fraction must be in (0, 1], got {self.r_fraction}"
            )

    @property
    def retained_count(self) -> int:
        return int(math.floor(self.r_fraction * self.n * self.n + 0.5))

    @property
    def mask(self) -> np.ndarray:
        return _retention_mask(self.n, self.retained_count)


@dataclass(frozen=True)
class QualityScores:
    psnr_db: float
    ssim: float


def _as_matrix(transform) -> np.ndarray:
    if hasattr(transform, "transform"):  # ScaledTransform
        transform = transform.transform
    if isinstance(transform, Transform):
        return transform.matrix
    m = np.asarray(transform, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"transform must be square, got shape {m.shape}")
    return m


def _matrix_and_block(transform, block) -> tuple[np.ndarray, np.ndarray]:
    m = _as_matrix(transform)
    block = np.asarray(block, dtype=np.float64)
    if block.shape[-2:] != m.shape:
        raise ValueError(f"block shape {block.shape} != transform size {m.shape}")
    return m, block


def forward_2d(transform, block: np.ndarray) -> np.ndarray:
    """Separable 2-d forward transform of a block, or of each block in a
    (..., n, n) stack: M @ A @ M^t."""
    m, block = _matrix_and_block(transform, block)
    return m @ block @ m.T


def inverse_2d(transform, block: np.ndarray) -> np.ndarray:
    """Inverse of forward_2d for orthonormal transforms: M^t @ B @ M."""
    m, block = _matrix_and_block(transform, block)
    return m.T @ block @ m


def retain(block: np.ndarray, policy: RetentionPolicy) -> np.ndarray:
    """Zero the coefficients the policy drops, in a block or a stack."""
    block = np.asarray(block, dtype=np.float64)
    if block.shape[-2:] != (policy.n, policy.n):
        raise ValueError(f"block shape {block.shape} != policy size {policy.n}")
    return block * policy.mask


def psnr(reference: np.ndarray, test: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB against an 8-bit peak of 255.
    Identical inputs report 999 dB, not infinity; empty ones raise ValueError."""
    reference = np.asarray(reference)
    test = np.asarray(test)
    if reference.shape != test.shape:
        raise ValueError(f"shape mismatch {reference.shape} vs {test.shape}")
    if reference.size == 0:
        raise ValueError("psnr of empty images")
    return _psnr(reference, test, np.empty(reference.size))


def _psnr(reference: np.ndarray, test: np.ndarray, buf: np.ndarray) -> float:
    # The squared error is built in the first elements of buf, a contiguous
    # float64 array, so np.mean sums it in the order it sums a fresh array.
    # The images are read as float64 by the subtraction itself.
    err = buf[: reference.size].reshape(reference.shape)
    np.subtract(reference, test, out=err, dtype=np.float64)
    mse = np.mean(np.square(err, out=err))
    if mse == 0.0:
        return PSNR_IDENTICAL_SENTINEL
    return float(10.0 * np.log10(255.0**2 / mse))


def _ssim_window(shape: tuple[int, ...]) -> tuple[int, int]:
    """Shape of the SSIM map of an image: one entry per 8x8 window."""
    if len(shape) != 2:
        raise ValueError(f"image must be 2-d, got shape {shape}")
    if min(shape) < _SSIM_WINDOW:
        raise ValueError(f"image smaller than the {_SSIM_WINDOW}x{_SSIM_WINDOW} window")
    return shape[0] - _SSIM_WINDOW + 1, shape[1] - _SSIM_WINDOW + 1


def _band_size(shape: tuple[int, ...], channels: int, rows: int) -> int:
    """Float64 elements of an SSIM integral buffer whose bands are ``rows``
    window rows tall (see ``_SsimBands``)."""
    pairs = (shape[1] + 2) // 2   # width + 1 columns, padded to an even count
    return 2 * channels * (rows + _SSIM_WINDOW) * pairs


class _SsimBands:
    """Window means of several channels of one image shape, band by band,
    and the SSIM map step over them.

    The integral images of the channels (each an image, or the product of
    two) are built one band of window rows at a time, stacked in one buffer
    of shape (channels, band + 8, width + 1).  Each band copies the last 8
    integral rows of the band before it as its halo, continues the
    down-the-column ``np.cumsum`` of its new rows from the carried column
    sums, runs the along-row ``np.cumsum`` over them and takes the window
    sums, sub-band by sub-band, in a small means buffer.  The column cumsum
    runs on a complex128 view of the buffer, each element a pair of
    adjacent columns, so every step adds two columns; complex addition adds
    the real and imaginary parts on their own, so each column gets the
    same additions.

    A band is as many window rows as the integral buffer holds, at most the
    whole image: ``min(window rows, size // (2 * channels * pairs) - 8)``
    for a buffer of ``size`` float64 elements and ``pairs`` complex column
    pairs (see ``_band_size``).  With no host, the band set allocates a
    buffer of one sub-band, small enough to stay in cache; ``_ssim`` scores
    one image this way.  With a host, a caller's float64 buffer, the
    integral buffer is its prefix of whole bands; a sweep lane hosts its
    band set in its scratch (see ``_sweep_lane``).  A sub-band is
    ``_SSIM_SUB_ELEMENTS`` per channel over the width + 1 integral columns,
    at most one band, so the means buffers do not grow with the host.

    The window step copies the lower-right corner view into the sub-band's
    means buffer, subtracts the upper-right and lower-left views from it
    and adds the upper-left one in place, then scales by 2**-6 with a
    multiply.  A ufunc that reads two strided views of the band is slower
    than a copy of one view plus an in-place ufunc, and a divide is slower
    than a multiply.  Neither changes a bit: x - y is the same IEEE
    subtraction whichever buffer holds x, and since 64 is a power of two,
    x / 64 and x * 2**-6 are the same correctly rounded value, subnormals
    included.

    The means equal those over whole-image integral images (``np.cumsum``
    over the whole image, every term freshly allocated), bit for bit, at
    any band and sub-band height:

    - each integral entry is made by the same additions in the same order:
      the carry plus a row equals the column sum so far plus that row, as
      IEEE addition commutes;
    - the window and map steps are element by element, in the same
      operation order, ((A - B) - C) + D for the window sums, and a
      product channel is the oracle's float64 ``x * y``;
    - a map that is a contiguous array keeps ``np.mean``'s pairwise order.

    Column 0 of the buffer is the integral image's zero border, and the
    last column pads the column count to even; the fills never write
    either, and each pass zeroes both afresh, since the buffer, allocated
    uncleared or hosted, holds earlier contents there.  Row 0 is zeroed for the first band, since halos
    overwrite it.
    """

    def __init__(self, shape: tuple[int, ...], channels: int,
                 host: np.ndarray | None = None) -> None:
        w = _SSIM_WINDOW
        window = _ssim_window(shape)
        sub = max(1, min(window[0], _SSIM_SUB_ELEMENTS // (shape[1] + 1)))
        if host is None:
            host = np.empty(_band_size(shape, channels, sub))
        pairs = (shape[1] + 2) // 2   # the complex column pairs of _band_size
        band = min(window[0], host.size // (2 * channels * pairs) - w)
        sub = min(sub, band)
        size = _band_size(shape, channels, band)
        self._pairs = host[:size].view(np.complex128).reshape(channels, band + w, pairs)
        self._window = window
        self._band = band
        self._sub = sub
        self._flat = self._pairs.view(np.float64)
        self._s = self._flat[..., : shape[1] + 1]
        self._carry = np.empty((channels, pairs), dtype=np.complex128)
        self._means = np.empty((channels, sub, window[1]))
        self._tmp = np.empty((sub, window[1]))

    def _map(self, buf: np.ndarray) -> np.ndarray:
        """The SSIM map, built in the first elements of buf, a contiguous
        float64 array, so that ``np.mean`` sums it in the order it sums a
        fresh array."""
        return buf[: self._window[0] * self._window[1]].reshape(self._window)

    def _window_means(self, *channels: tuple[np.ndarray, ...]):
        """Yield (window-row slice, stacked window means) sub-band by
        sub-band, one mean per channel.  A channel is a 1-tuple of an image
        or a pair of images to multiply; images of any real dtype are read
        as float64.  A band of window rows top .. top + rows - 1 reads the
        image rows through top + rows + 6, which they need, before its
        first yield, and no row beyond them."""
        w, band, sub = _SSIM_WINDOW, self._band, self._sub
        k = len(channels)
        s, pairs, carry = self._s[:k], self._pairs[:k], self._carry[:k]
        means = self._means[:k]
        total = self._window[0]
        # The zero-border column and the padding column, never written by
        # the fills below.
        self._flat[:k, :, 0] = 0.0
        self._flat[:k, :, s.shape[-1] :] = 0.0
        for top in range(0, total, band):
            rows = min(band, total - top)
            if top:
                # Halo: the last w integral rows of the band before, which
                # was full; the new rows continue the column sums from the
                # carried row.
                s[:, :w] = s[:, band : band + w]
                new = slice(w, rows + w)
            else:
                s[:, 0] = 0.0   # the integral image's zero border row
                new = slice(1, rows + w)
            src = slice(top + new.start - 1, top + new.stop - 1)
            fresh = s[:, new, 1:]
            for factors, out in zip(channels, fresh):
                if len(factors) == 1:
                    np.copyto(out, factors[0][src])
                else:
                    np.multiply(factors[0][src], factors[1][src], out=out, dtype=np.float64)
            down = pairs[:, new]
            if top:
                np.add(down[:, 0], carry, out=down[:, 0])
            np.cumsum(down, axis=1, out=down)
            carry[:] = down[:, -1]
            np.cumsum(fresh, axis=2, out=fresh)
            for lo in range(0, rows, sub):
                hi = min(lo + sub, rows)
                m = means[:, : hi - lo]
                np.copyto(m, s[:, lo + w : hi + w, w:])
                np.subtract(m, s[:, lo:hi, w:], out=m)
                np.subtract(m, s[:, lo + w : hi + w, :-w], out=m)
                np.add(m, s[:, lo:hi, :-w], out=m)
                yield slice(top + lo, top + hi), np.multiply(m, 1.0 / (w * w), out=m)

    def _map_rows(self, mu_a, var_a, mu_b, var_b, cov, out) -> None:
        """Write one sub-band's rows of the SSIM map into out.  var_b and cov
        come in as the window means of b*b and a*b and are overwritten."""
        c1 = (_SSIM_K1 * _SSIM_L) ** 2
        c2 = (_SSIM_K2 * _SSIM_L) ** 2
        t = self._tmp[: out.shape[0]]
        # s_map = ((2 mu_a mu_b + c1) (2 cov + c2))
        #         / ((mu_a mu_a + mu_b mu_b + c1) (var_a + var_b + c2)),
        # with var_b = E[b b] - mu_b mu_b and cov = E[a b] - mu_a mu_b
        # built over the means they replace; t keeps mu_b mu_b for the
        # denominator.
        np.subtract(cov, np.multiply(mu_a, mu_b, out=t), out=cov)
        np.subtract(var_b, np.multiply(mu_b, mu_b, out=t), out=var_b)
        np.multiply(mu_a, mu_a, out=out)
        np.add(out, t, out=out)
        np.add(out, c1, out=out)
        np.add(var_a, var_b, out=var_b)
        np.add(var_b, c2, out=var_b)
        np.multiply(out, var_b, out=out)
        np.multiply(2, mu_a, out=t)
        np.multiply(t, mu_b, out=t)
        np.add(t, c1, out=t)
        np.multiply(2, cov, out=cov)
        np.add(cov, c2, out=cov)
        np.multiply(t, cov, out=t)
        np.divide(t, out, out=out)


class _SsimReference:
    """SSIM scorer for one reference image: ``reference(b, bands, buf)`` is
    the mean structural similarity of ``b`` against the image, for a
    retention sweep that scores every level against the same image.

    The image's window means ``mu_a`` and variances ``var_a`` are computed
    once, through a band set of the image's shape, and are the only arrays
    it keeps; they are read-only, so lanes can share them.  Each call runs
    one band pass over the three channels b, b*b and a*b in the caller's
    band set, which needs three channels, builds the SSIM map in the first
    elements of buf (see ``_SsimBands._map``) and takes ``np.mean`` once.
    Images of any real dtype are read as float64.

    buf may be the buffer that b is a row-major view of, with rows of
    stride w_pad >= width, as a sweep lane's reconstruction is a crop of
    its inverse buffer: b is then spent.  Map row r ends at flat offset
    (r + 1)(width - 7), and it is written only after the band pass has
    read every row of b through row r + 7 (see
    ``_SsimBands._window_means``), so it stays behind the first unread row
    of b, which starts at (r + 8) w_pad.
    """

    def __init__(self, a: np.ndarray, bands: _SsimBands) -> None:
        self._a = a
        self._mu_a, self._var_a = np.empty(bands._window), np.empty(bands._window)
        for rows, (mu, mean_sq) in bands._window_means((a,), (a, a)):
            # var_a = E[a a] - mu_a mu_a, written straight into its rows.
            var = self._var_a[rows]
            np.subtract(mean_sq, np.multiply(mu, mu, out=var), out=var)
            self._mu_a[rows] = mu
        self._mu_a.setflags(write=False)
        self._var_a.setflags(write=False)

    def __call__(self, b: np.ndarray, bands: _SsimBands, buf: np.ndarray) -> float:
        s_map = bands._map(buf)
        for rows, (mu_b, var_b, cov) in bands._window_means((b,), (b, b), (self._a, b)):
            mu_a, var_a = self._mu_a[rows], self._var_a[rows]
            bands._map_rows(mu_a, var_a, mu_b, var_b, cov, s_map[rows])
        return float(np.mean(s_map))


def _ssim(a: np.ndarray, b: np.ndarray, buf: np.ndarray) -> float:
    """SSIM of b against a (same shape, any real dtype) in one band pass
    over the five channels b, b*b, a*b, a and a*a, so a's window means and
    variances exist only as band rows.  The map is built in the first
    elements of buf (see ``_SsimBands._map``)."""
    bands = _SsimBands(a.shape, 5)
    s_map = bands._map(buf)
    channels = (b,), (b, b), (a, b), (a,), (a, a)
    for rows, (mu_b, var_b, cov, mu_a, var_a) in bands._window_means(*channels):
        out = s_map[rows]
        # var_a = E[a a] - mu_a mu_a, over the mean it replaces.
        np.subtract(var_a, np.multiply(mu_a, mu_a, out=out), out=var_a)
        bands._map_rows(mu_a, var_a, mu_b, var_b, cov, out)
    return float(np.mean(s_map))


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean structural similarity with a uniform 8x8 window (K1=0.01,
    K2=0.03, dynamic range 255).  Integer and float32 images are read as
    float64 without a copy; the one window-sized array is the SSIM map."""
    a = np.asarray(a)
    b = np.asarray(b)
    window = _ssim_window(a.shape)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return _ssim(a, b, np.empty(window[0] * window[1]))


def ape(metric_approx: float, metric_baseline: float) -> float:
    """Absolute percentage error of a measurement against its baseline."""
    if metric_baseline == 0:
        raise ValueError("APE undefined for a zero baseline")
    return 100.0 * abs(metric_baseline - metric_approx) / abs(metric_baseline)


def _blocks(buf: np.ndarray, n: int) -> np.ndarray:
    """The n x n blocks of an image-layout (h, w) buffer, as an
    (h/n, w/n, n, n) view."""
    h, w = buf.shape
    return buf.reshape(h // n, n, w // n, n).swapaxes(1, 2)


def _transform_buffers(
    shape: tuple[int, int], n: int, scratch_size: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """A fresh (inverse, scratch) pair for an image of this shape, padded to
    whole n x n blocks: inverse is (h, w) and scratch max(h * w,
    scratch_size) contiguous float64 elements (see ``_reconstruct``)."""
    rows, cols = shape
    h, w = rows + (-rows) % n, cols + (-cols) % n
    return np.empty((h, w)), np.empty(max(h * w, scratch_size))


def _forward(image, m, inverse, scratch, coeffs) -> None:
    """Forward-transform a 2-d image into coeffs, h * w contiguous elements
    in block order, which may be inverse itself.

    inverse first holds the image, edge-replicated to whole blocks
    (``np.pad``'s "edge" mode) and read block by block in place; scratch
    holds M @ A.  Each product is the same IEEE operation on the same
    operands as ``forward_2d`` on a blocked copy of the padded float image.
    The image is only read, through float64 casts.
    """
    n = m.shape[0]
    rows, cols = image.shape
    np.copyto(inverse[:rows, :cols], image)
    inverse[rows:, :cols] = inverse[rows - 1, :cols]
    inverse[:, cols:] = inverse[:, cols - 1 : cols]
    blocks = _blocks(inverse, n)
    half = scratch[: inverse.size].reshape(blocks.shape)
    # forward_2d with out= buffers: M @ A @ M^t.
    np.matmul(m, blocks, out=half)
    np.matmul(half, m.T, out=coeffs.reshape(blocks.shape))


def _reconstruct(image, m, coeffs, mask, inverse, scratch):
    """(reconstruction, PSNR in dB) of one retention level: retain, inverse,
    crop, clamp to [0, 255] and score against the image, in one
    (inverse, scratch) pair from ``_transform_buffers``.

    - ``inverse`` holds the masked coefficients, then the inverse in image
      layout, written through its block view.  The reconstruction is its
      crop, clamped in place.  coeffs may be inverse itself (masked in
      place, as in ``compress_image``) or a buffer that is only read, so
      that a sweep's lanes can share it.
    - ``scratch`` holds the half-inverted blocks M^t (C * mask), after the
      forward stage's M @ A in ``compress_image`` (see ``_forward``); once
      the inverse is taken, its first rows x cols elements are PSNR's
      squared-error buffer (see ``_psnr``), and then it is free for the
      caller: ``compress_image`` builds its SSIM map there, a sweep lane
      hosts its SSIM integral bands (see ``_sweep_lane``).

    Each product is the same IEEE operation on the same operands as
    ``retain`` and ``inverse_2d``.  The returned reconstruction is
    overwritten by the next level in the same pair, so copy it to keep it.
    """
    blocks = _blocks(inverse, m.shape[0])
    masked, half = inverse.reshape(blocks.shape), scratch[: inverse.size].reshape(blocks.shape)
    # retain and inverse_2d, with out= buffers: M^t @ (C * mask) @ M.
    np.multiply(coeffs.reshape(blocks.shape), mask, out=masked)
    np.matmul(m.T, masked, out=half)
    np.matmul(half, m, out=blocks)
    recon = inverse[: image.shape[0], : image.shape[1]]
    np.clip(recon, 0.0, 255.0, out=recon)
    return recon, _psnr(image, recon, scratch)


def compress_image(image: np.ndarray, transform, policy: RetentionPolicy):
    """Blockwise forward -> retain -> inverse over a whole image.

    Returns (reconstruction, QualityScores); the reconstruction is float,
    clamped to [0, 255], same shape as the input.  It is a crop view of the
    padded inverse buffer, which each call allocates afresh, so arrays from
    different calls are independent.

    The shape, the SSIM window and the block size are checked before any
    transform work.  A call runs in one (inverse, scratch) pair (see
    ``_reconstruct``), and SSIM in one band pass over five channels (see
    ``_ssim``).
    """
    m = _as_matrix(transform)
    image = np.asarray(image)
    _ssim_window(image.shape)
    if policy.n != m.shape[0]:
        raise ValueError(f"policy block size {policy.n} != transform size {m.shape[0]}")
    inverse, scratch = _transform_buffers(image.shape, m.shape[0])
    _forward(image, m, inverse, scratch, inverse)
    recon, psnr_db = _reconstruct(image, m, inverse, policy.mask, inverse, scratch)
    return recon, QualityScores(psnr_db=psnr_db, ssim=_ssim(image, recon, scratch))


def _lane_count() -> int:
    """The usable CPUs, at most two: the most lanes a sweep runs."""
    if hasattr(os, "sched_getaffinity"):
        return min(2, len(os.sched_getaffinity(0)))
    return min(2, os.cpu_count() or 1)


def _sweep_lane(shape: tuple[int, int], n: int):
    """One retention-sweep lane for an image of this shape at n points:
    (inverse, scratch, bands), an (inverse, scratch) pair (see
    ``_reconstruct``) and a three-channel SSIM band set hosted in the
    scratch, which is free once PSNR is taken.

    The scratch holds the larger of the padded image and a band of
    ``_GIL_FREE_ROWS // 3 + 1`` window rows, or of the whole image if it has
    fewer, and the bands are as tall as it holds (see ``_SsimBands``).  So
    the along-row cumsum of every band but a short last one runs over more
    than ``_GIL_FREE_ROWS`` rows, numpy releases the GIL for it, and two
    lanes' SSIM passes overlap.  On an image under 174 rows that band is
    the whole image's, about three image sizes.  An image-sized scratch
    with shorter bands peaks lower on such an image (see the module
    docstring), but ran 8-10% slower (2026-10-20), so the scratch holds the
    whole band.
    """
    tall = _band_size(shape, 3, min(_ssim_window(shape)[0], _GIL_FREE_ROWS // 3 + 1))
    inverse, scratch = _transform_buffers(shape, n, tall)
    return inverse, scratch, _SsimBands(shape, 3, scratch)


def _run_lanes(lanes: Sequence, items: Sequence, step: Callable) -> None:
    """Call step(lanes[k], item) for each item, lane k taking items k,
    k + L, k + 2L, ... of L = len(lanes).

    Lane 0 runs in the calling thread and each other lane in one thread of
    its own, in a copy of the caller's context, so that the caller's
    ``np.errstate`` governs every lane.  Every thread is joined before the
    call returns or raises.  The first exception in any lane stops the
    others at their next item and is raised again here.  With one lane no
    thread starts.
    """
    failed: list[BaseException] = []

    def run(k: int) -> None:
        try:
            for item in items[k :: len(lanes)]:
                if failed:
                    return
                step(lanes[k], item)
        except BaseException as exc:   # raised again by the caller below
            failed.append(exc)

    workers = [threading.Thread(target=contextvars.copy_context().run, args=(run, k))
               for k in range(1, len(lanes))]
    for worker in workers:
        worker.start()
    try:
        run(0)
    finally:
        for worker in workers:
            worker.join()
    if failed:
        raise failed[0]


def retention_sweep(
    image: np.ndarray, transform, r_values: Iterable[float]
) -> list[tuple[float, float, float]]:
    """(r, psnr, ssim) over a retention grid, in grid order.

    The levels are read once, so any iterable works.  The image must be
    2-d and at least as large as the SSIM window, and every level a valid
    retention fraction; both are checked before any transform work.

    The image is forward-transformed once, into one coefficient buffer
    that the levels only read, and its SSIM window means and variances are
    computed once (see ``_SsimReference``).  The levels are then scored in
    min(``_lane_count()``, levels) lanes (see ``_run_lanes``), each level
    into its grid-order slot, and each lane in buffers of its own (see
    ``_sweep_lane``).

    Scores equal per-level ``compress_image`` exactly, whatever the lane
    count.
    """
    m = _as_matrix(transform)
    n = m.shape[0]
    image = np.asarray(image)
    _ssim_window(image.shape)
    policies = [RetentionPolicy(n=n, r_fraction=r) for r in r_values]
    if not policies:
        return []
    levels = [(i, p.r_fraction, p.mask) for i, p in enumerate(policies)]
    lanes = [_sweep_lane(image.shape, n) for _ in range(min(_lane_count(), len(levels)))]
    inverse, scratch, bands = lanes[0]
    reference = _SsimReference(image, bands)
    coeffs = np.empty(inverse.size)
    _forward(image, m, inverse, scratch, coeffs)
    scores: list = [None] * len(levels)

    def score(lane, level) -> None:
        # Private kernels only: no lane calls a public function, which a
        # caller may have wrapped with state that is not thread-safe.
        inverse, scratch, bands = lane
        i, r, mask = level
        recon, psnr_db = _reconstruct(image, m, coeffs, mask, inverse, scratch)
        scores[i] = (r, psnr_db, reference(recon, bands, inverse.reshape(-1)))

    _run_lanes(lanes, levels, score)
    return scores


def default_r_grid() -> tuple[float, ...]:
    """Retention fractions 0.25 to 0.99 in steps of 0.02."""
    return tuple(round(0.25 + 0.02 * k, 2) for k in range(38))


def ar1_test_image(
    height: int = 512,
    width: int = 512,
    rho: float = 0.95,
    seed: int = 20240817,
    mean: float = 128.0,
    std: float = 32.0,
) -> np.ndarray:
    """Synthetic grayscale image whose rows are AR(1) processes, quantized
    to uint8.  Deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((height, width))
    rows = np.empty((height, width))
    rows[:, 0] = noise[:, 0]
    c = math.sqrt(1.0 - rho * rho)
    for j in range(1, width):
        rows[:, j] = rho * rows[:, j - 1] + c * noise[:, j]
    pixels = np.clip(mean + std * rows, 0.0, 255.0)
    return np.rint(pixels).astype(np.uint8)
