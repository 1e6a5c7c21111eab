"""JPEG-like blockwise compression harness: 2-d transform, zig-zag
coefficient retention, reconstruction, and PSNR/SSIM/APE scoring.

Quality scores are computed on the clamped floating-point reconstruction;
quantization to 8-bit samples happens only when an image is written out.
Images whose dimensions are not multiples of the block size are
edge-replicated up and cropped back after reconstruction.

A retention sweep scores every level against one SSIM reference: the
reference image's window means and variances are computed once per sweep,
and the SSIM and reconstruction buffers (each about the size of the image)
are allocated once per sweep and overwritten level by level.  Nothing is
kept across calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

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


def forward_2d(transform, block: np.ndarray) -> np.ndarray:
    """Separable 2-d forward transform of a block, or of each block in a
    (..., n, n) stack: M @ A @ M^t."""
    m = _as_matrix(transform)
    block = np.asarray(block, dtype=np.float64)
    if block.shape[-2:] != m.shape:
        raise ValueError(f"block shape {block.shape} != transform size {m.shape}")
    return m @ block @ m.T


def inverse_2d(transform, block: np.ndarray) -> np.ndarray:
    """Inverse of forward_2d for orthonormal transforms: M^t @ B @ M."""
    m = _as_matrix(transform)
    block = np.asarray(block, dtype=np.float64)
    if block.shape[-2:] != m.shape:
        raise ValueError(f"block shape {block.shape} != transform size {m.shape}")
    return m.T @ block @ m


def retain(block: np.ndarray, policy: RetentionPolicy) -> np.ndarray:
    """Zero the coefficients the policy drops, in a block or a stack."""
    block = np.asarray(block, dtype=np.float64)
    if block.shape[-2:] != (policy.n, policy.n):
        raise ValueError(f"block shape {block.shape} != policy size {policy.n}")
    return block * policy.mask


def psnr(reference: np.ndarray, test: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB against an 8-bit peak of 255.
    Identical inputs report the 999 dB sentinel instead of infinity."""
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ValueError(f"shape mismatch {reference.shape} vs {test.shape}")
    err = np.mean((reference - test) ** 2)
    if err == 0.0:
        return PSNR_IDENTICAL_SENTINEL
    return float(10.0 * np.log10(255.0**2 / err))


class _SsimReference:
    """SSIM scorer for one reference image: ``_SsimReference(a)(b)`` is the
    mean structural similarity of ``b`` against ``a``.

    The reference's window means and variances are computed once.  Every
    call reuses the integral image ``s`` and three window-shaped buffers
    (six image-sized arrays in all, none allocated per call) and evaluates
    the same float expression, in the same operation order, as SSIM with
    every term freshly allocated, so the scores are equal.  Row 0 and
    column 0 of ``s`` are the integral image's zero border and are never
    written.
    """

    def __init__(self, a: np.ndarray) -> None:
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError(f"image must be 2-d, got shape {a.shape}")
        if min(a.shape) < _SSIM_WINDOW:
            raise ValueError(f"image smaller than the {_SSIM_WINDOW}x{_SSIM_WINDOW} window")
        w = _SSIM_WINDOW
        window = (a.shape[0] - w + 1, a.shape[1] - w + 1)
        self._a = a
        self._s = np.zeros((a.shape[0] + 1, a.shape[1] + 1))
        self._mu_a, self._var_a, self._mu_b, self._var_b, self._cov = (
            np.empty(window) for _ in range(5)
        )
        mu_a = self._box_means(a, self._mu_a)
        self._moment(np.multiply(a, a, out=self._s[1:, 1:]), mu_a, mu_a, self._var_a)

    def _box_means(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        # Integral image of x (which may already be s[1:, 1:]) in place, then
        # one sliding-window mean per fully interior position.
        s, w = self._s, _SSIM_WINDOW
        np.cumsum(x, axis=0, out=s[1:, 1:])
        np.cumsum(s[1:, 1:], axis=1, out=s[1:, 1:])
        np.subtract(s[w:, w:], s[:-w, w:], out=out)
        np.subtract(out, s[w:, :-w], out=out)
        np.add(out, s[:-w, :-w], out=out)
        return np.divide(out, w * w, out=out)

    def _moment(
        self, product: np.ndarray, mu_x: np.ndarray, mu_y: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        # Window mean of a product minus mu_x * mu_y; the integral image is
        # dead once the mean is taken, so its interior holds mu_x * mu_y.
        self._box_means(product, out)
        scratch = self._s[1 : out.shape[0] + 1, 1 : out.shape[1] + 1]
        return np.subtract(out, np.multiply(mu_x, mu_y, out=scratch), out=out)

    def __call__(self, b: np.ndarray) -> float:
        a, s = self._a, self._s
        b = np.asarray(b, dtype=np.float64)
        if a.shape != b.shape:
            raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
        c1 = (_SSIM_K1 * _SSIM_L) ** 2
        c2 = (_SSIM_K2 * _SSIM_L) ** 2
        mu_a, var_a, mu_b, var_b, cov = (
            self._mu_a, self._var_a, self._mu_b, self._var_b, self._cov
        )
        self._box_means(b, mu_b)
        self._moment(np.multiply(b, b, out=s[1:, 1:]), mu_b, mu_b, var_b)
        self._moment(np.multiply(a, b, out=s[1:, 1:]), mu_a, mu_b, cov)
        # s_map = ((2 mu_a mu_b + c1) (2 cov + c2))
        #         / ((mu_a mu_a + mu_b mu_b + c1) (var_a + var_b + c2)),
        # built in s's interior and the buffers that are dead by then.
        num = s[1 : cov.shape[0] + 1, 1 : cov.shape[1] + 1]
        np.multiply(2, mu_a, out=num)
        np.multiply(num, mu_b, out=num)
        np.add(num, c1, out=num)
        np.multiply(2, cov, out=cov)
        np.add(cov, c2, out=cov)
        np.multiply(num, cov, out=num)
        den = cov
        np.multiply(mu_b, mu_b, out=mu_b)
        np.multiply(mu_a, mu_a, out=den)
        np.add(den, mu_b, out=den)
        np.add(den, c1, out=den)
        np.add(var_a, var_b, out=var_b)
        np.add(var_b, c2, out=var_b)
        np.multiply(den, var_b, out=den)
        # The map ends in den, a contiguous window-shaped array, so np.mean
        # sums it in the same order as it sums a freshly allocated map.
        return float(np.mean(np.divide(num, den, out=den)))


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean structural similarity with a uniform 8x8 window (K1=0.01,
    K2=0.03, dynamic range 255).  A retention sweep scores all its levels
    against one reference; this is the one-image case."""
    return _SsimReference(a)(b)


def ape(metric_approx: float, metric_baseline: float) -> float:
    """Absolute percentage error of a measurement against its baseline."""
    if metric_baseline == 0:
        raise ValueError("APE undefined for a zero baseline")
    return 100.0 * abs(metric_baseline - metric_approx) / abs(metric_baseline)


def _pad_to_multiple(image: np.ndarray, n: int) -> np.ndarray:
    h, w = image.shape
    pad_h = (-h) % n
    pad_w = (-w) % n
    if pad_h == 0 and pad_w == 0:
        return image
    return np.pad(image, ((0, pad_h), (0, pad_w)), mode="edge")


def _blockify(image: np.ndarray, n: int) -> np.ndarray:
    h, w = image.shape
    return image.reshape(h // n, n, w // n, n).swapaxes(1, 2).reshape(-1, n, n)


def _reconstructions(image: np.ndarray, transform, policies: Sequence[RetentionPolicy]):
    """Yield the reconstruction of a float image under each policy: forward
    transform once, then per policy retain, inverse, crop, clamp to [0, 255].

    The masked coefficients, the half-inverted blocks, the padded inverse
    and the yielded array are allocated once per call; the inverse is
    written straight into the padded image's block view.  The yielded array
    is overwritten by the next level, so copy it to keep it.
    """
    m = _as_matrix(transform)
    n = m.shape[0]
    if image.ndim != 2:
        raise ValueError(f"image must be 2-d, got shape {image.shape}")
    rows, cols = image.shape
    padded = _pad_to_multiple(image, n)
    h, w = padded.shape
    coeffs = forward_2d(m, _blockify(padded, n)).reshape(h // n, w // n, n, n)
    masked = np.empty_like(coeffs)
    half = np.empty_like(coeffs)
    inverse = np.empty((h, w))
    inverse_blocks = inverse.reshape(h // n, n, w // n, n).swapaxes(1, 2)
    recon = np.empty((rows, cols))
    for policy in policies:
        if policy.n != n:
            raise ValueError(f"policy block size {policy.n} != transform size {n}")
        # retain and inverse_2d, with out= buffers: M^t @ (C * mask) @ M.
        np.multiply(coeffs, policy.mask, out=masked)
        np.matmul(m.T, masked, out=half)
        np.matmul(half, m, out=inverse_blocks)
        yield np.clip(inverse[:rows, :cols], 0.0, 255.0, out=recon)


def compress_image(image: np.ndarray, transform, policy: RetentionPolicy):
    """Blockwise forward -> retain -> inverse over a whole image.

    Returns (reconstruction, QualityScores); the reconstruction is float,
    clamped to [0, 255], same shape as the input.
    """
    image = np.asarray(image, dtype=np.float64)
    recon = next(_reconstructions(image, transform, [policy]))
    return recon, QualityScores(psnr_db=psnr(image, recon), ssim=ssim(image, recon))


def retention_sweep(
    image: np.ndarray, transform, r_values: Sequence[float]
) -> list[tuple[float, float, float]]:
    """(r, psnr, ssim) over a retention grid, in grid order.

    The image is forward-transformed once, and every level is scored
    against one SSIM reference built from the image, so its window means
    and variances are computed once.  The reference is built first: an
    image smaller than the SSIM window raises ValueError before any
    transform work.  Scores equal per-level ``compress_image`` exactly.
    """
    m = _as_matrix(transform)
    image = np.asarray(image, dtype=np.float64)
    score_ssim = _SsimReference(image)
    policies = [RetentionPolicy(n=m.shape[0], r_fraction=r) for r in r_values]
    recons = _reconstructions(image, m, policies)
    return [
        (r, psnr(image, rec), score_ssim(rec)) for r, rec in zip(r_values, recons)
    ]


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
