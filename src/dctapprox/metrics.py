"""Assessment figures for an orthonormal approximation at any size:
distance to the exact DCT (total error energy, MSE) and energy-compaction
quality (unified coding gain, transform efficiency) under an AR(1) signal
model.

The default correlation coefficient everywhere is 0.95; the unified coding
gain of the exact 8-point DCT at that setting is 8.8259 dB, which serves as
the calibration point for the whole module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    FeasibilityError,
    ParamVector,
    exact_dct_matrix,
    is_feasible,
    orthonormal_approx,
)
from .kernel import complexity

__all__ = [
    "DEFAULT_RHO",
    "SignalModel",
    "MetricsReport",
    "ar1_covariance",
    "total_error_energy",
    "mse",
    "unified_coding_gain",
    "transform_efficiency",
    "evaluate_matrix",
    "evaluate",
]

DEFAULT_RHO = 0.95


@dataclass(frozen=True)
class SignalModel:
    """First-order autoregressive source: covariance rho^|i-j|, unit variance."""

    rho: float = DEFAULT_RHO
    n: int = 8

    def __post_init__(self) -> None:
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"correlation coefficient must be in (0, 1), got {self.rho}")
        if self.n < 2:
            raise ValueError(f"transform size must be at least 2, got {self.n}")


@lru_cache(maxsize=None)
def ar1_covariance(model: SignalModel) -> np.ndarray:
    """Covariance matrix rho^|i-j|; cached and returned read-only."""
    idx = np.arange(model.n)
    r = model.rho ** np.abs(idx[:, None] - idx[None, :])
    r.setflags(write=False)
    return r


def _check_square(c_hat: np.ndarray, model: SignalModel | None = None) -> np.ndarray:
    c_hat = np.asarray(c_hat, dtype=np.float64)
    if c_hat.ndim < 2 or c_hat.shape[-1] != c_hat.shape[-2]:
        raise ValueError(
            f"expected a square matrix or a stack of them, got shape {c_hat.shape}"
        )
    if model is not None and c_hat.shape[-1] != model.n:
        raise ValueError(f"matrix size {c_hat.shape[-1]} != model size {model.n}")
    return c_hat


def _float_or_array(x: np.ndarray) -> float | np.ndarray:
    return float(x) if np.ndim(x) == 0 else x


# Every metric takes one (n, n) matrix or an (..., n, n) stack and returns a
# float or an array of the stack's leading shape.  Each formula is written
# once, in a private kernel of explicit reference, covariance and transform
# size n.  Kernel values are sums over rows (the efficiency's in two parts),
# so the search adds them over a candidate's even and odd 4x4 blocks.

def _error_energy(c_hat, ref):
    d = ref - c_hat
    return np.pi * np.sum(d * d, axis=(-2, -1))


def _mse(c_hat, ref, r, n):
    d = ref - c_hat
    return np.einsum("...ij,jk,...ik->...", d, r, d) / n


def _coding_gain(c_hat, r, n):
    g = np.swapaxes(np.linalg.inv(c_hat), -1, -2)
    band_var = np.einsum("...ki,...kj,ij->...k", c_hat, c_hat, r)
    synth = np.sum(g * g, axis=-1)
    return 10.0 * (np.sum(np.log10(1.0 / (band_var * synth)), axis=-1) / n)


def _efficiency_parts(c_hat, r):
    r_y = c_hat @ r @ np.swapaxes(c_hat, -1, -2)
    diag = np.sum(np.abs(np.diagonal(r_y, axis1=-2, axis2=-1)), axis=-1)
    return 100.0 * diag, np.sum(np.abs(r_y), axis=(-2, -1))


def total_error_energy(c_hat: np.ndarray) -> float | np.ndarray:
    """pi-scaled squared Frobenius distance to the exact DCT of equal size."""
    c_hat = _check_square(c_hat)
    return _float_or_array(_error_energy(c_hat, exact_dct_matrix(c_hat.shape[-1])))


def mse(c_hat: np.ndarray, model: SignalModel) -> float | np.ndarray:
    """Mean square error against the exact DCT under the signal model:
    trace((C - C_hat) R (C - C_hat)^t) / n."""
    c_hat = _check_square(c_hat, model)
    ref, r = exact_dct_matrix(model.n), ar1_covariance(model)
    return _float_or_array(_mse(c_hat, ref, r, model.n))


def unified_coding_gain(c_hat: np.ndarray, model: SignalModel) -> float | np.ndarray:
    """Energy-compaction gain in dB, valid for any invertible transform.

    With h_k the rows of the transform and g_k the rows of its transposed
    inverse, each band contributes A_k = h_k^t R h_k (coefficient variance)
    and B_k = ||g_k||^2 (synthesis gain); the result is the geometric mean
    of 1/(A_k B_k) in dB.  For orthonormal rows B_k = 1.
    """
    c_hat = _check_square(c_hat, model)
    try:
        return _float_or_array(_coding_gain(c_hat, ar1_covariance(model), model.n))
    except np.linalg.LinAlgError:
        raise ValueError("transform is singular; coding gain undefined") from None


def transform_efficiency(c_hat: np.ndarray, model: SignalModel) -> float | np.ndarray:
    """Percentage of transformed-covariance energy on the diagonal."""
    c_hat = _check_square(c_hat, model)
    numerator, total = _efficiency_parts(c_hat, ar1_covariance(model))
    return _float_or_array(numerator / total)


@dataclass(frozen=True)
class MetricsReport:
    """All assessment figures for one candidate transform."""

    epsilon: float
    mse: float
    coding_gain_db: float
    efficiency_pct: float
    additions: int
    shifts: int


def evaluate_matrix(c_hat: np.ndarray, model: SignalModel) -> tuple:
    """(total error energy, mse, coding gain dB, efficiency %) of a matrix,
    or four arrays for a stack of matrices."""
    return (
        total_error_energy(c_hat),
        mse(c_hat, model),
        unified_coding_gain(c_hat, model),
        transform_efficiency(c_hat, model),
    )


def evaluate(params: ParamVector, model: SignalModel) -> MetricsReport:
    """Full report for a feasible parameter vector at the model's size 8."""
    if model.n != 8:
        raise ValueError(f"parameter evaluation is 8-point; model size is {model.n}")
    if not is_feasible(params):
        raise FeasibilityError(f"parameters {params} do not give an orthogonal matrix")
    eps, m, cg, eta = evaluate_matrix(orthonormal_approx(params).matrix, model)
    c = complexity(params)
    return MetricsReport(
        epsilon=eps,
        mse=m,
        coding_gain_db=cg,
        efficiency_pct=eta,
        additions=c.additions,
        shifts=c.shifts,
    )
