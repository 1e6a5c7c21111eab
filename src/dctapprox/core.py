"""Exact construction and orthonormalization of the parametrized family of
low-complexity 8-point transforms.

Every matrix entry lives in the dyadic set ``{0, +-1/2, +-1, +-2}`` and is
stored as an integer scaled by two ("half units"), so construction, Gram
products and the orthogonality feasibility test run in exact integer
arithmetic.  Floating point enters only when a transform is orthonormalized,
because the diagonal scaling factors are irrational.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

__all__ = [
    "ALLOWED_DOUBLED",
    "ALLOWED_VALUES",
    "FeasibilityError",
    "ParamVector",
    "DyadicMatrix",
    "GramDiagnostics",
    "Transform",
    "exact_dct_matrix",
    "build_matrix",
    "gram_quarter_units",
    "gram",
    "gram_diagnostics",
    "is_feasible",
    "feasible_mask",
    "scale_factors",
    "orthonormal_approx",
]

# Parameter alphabet, as value*2 integers and as exact floats.
ALLOWED_DOUBLED = (-4, -2, -1, 0, 1, 2, 4)
ALLOWED_VALUES = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)

_ALLOWED_SET = frozenset(ALLOWED_DOUBLED)


class FeasibilityError(ValueError):
    """Raised when an operation needs an orthogonal, nonsingular parameter
    vector but the supplied one fails the feasibility conditions."""


@dataclass(frozen=True)
class ParamVector:
    """The eight transform parameters, stored losslessly as value*2 integers."""

    doubled: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.doubled) != 8:
            raise ValueError(f"expected 8 parameters, got {len(self.doubled)}")
        for d in self.doubled:
            if d not in _ALLOWED_SET:
                raise ValueError(
                    f"parameter value {d / 2} not in {{0, +-1/2, +-1, +-2}}"
                )

    @classmethod
    def from_values(cls, values: Iterable) -> "ParamVector":
        """Build from numbers (int, float, Fraction or numeric string)."""
        doubled = []
        for v in values:
            try:
                f = 2 * Fraction(v)
            except (TypeError, ValueError, ZeroDivisionError, OverflowError):
                raise ValueError(f"invalid parameter value {v!r}") from None
            if f not in _ALLOWED_SET:
                raise ValueError(f"parameter {v!r} not in {{0, +-1/2, +-1, +-2}}")
            doubled.append(int(f))
        return cls(tuple(doubled))

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(d / 2 for d in self.doubled)

    def __str__(self) -> str:
        return ",".join(format(v, "g") for v in self.values)


@dataclass(frozen=True, eq=False)
class DyadicMatrix:
    """Integer matrix interpreted as value*2 (fixed denominator 2)."""

    half_units: np.ndarray

    def __post_init__(self) -> None:
        h = np.asarray(self.half_units, dtype=np.int64)
        h.setflags(write=False)
        object.__setattr__(self, "half_units", h)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.half_units.shape

    def to_float(self) -> np.ndarray:
        return self.half_units / 2.0

    def __eq__(self, other) -> bool:
        if not isinstance(other, DyadicMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(
            np.array_equal(self.half_units, other.half_units)
        )


@dataclass(frozen=True)
class GramDiagnostics:
    """The distinct entries of T*T^t for a parametrized matrix T.

    ``diagonal_terms`` holds the five parameter-dependent diagonal values
    (rows 1, 2/6, 3, 5, 7; rows 0 and 4 are always 8).  ``cross_terms`` holds
    the six potentially nonzero off-diagonal inner products, at positions
    (1,3), (1,5), (1,7), (3,5), (3,7) and (5,7).  All values are exact.
    """

    diagonal_terms: tuple[Fraction, ...]
    cross_terms: tuple[Fraction, ...]
    off_diagonal_zero: bool


def exact_dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix of size n, rows indexed by frequency."""
    if n < 2:
        raise ValueError(f"transform size must be at least 2, got {n}")
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    m = np.cos(np.pi * i * (2 * j + 1) / (2 * n))
    m[0, :] *= 1.0 / np.sqrt(n)
    m[1:, :] *= np.sqrt(2.0 / n)
    return m


def build_matrix(params: ParamVector) -> DyadicMatrix:
    """Assemble the 8x8 low-complexity matrix for a parameter vector.

    Rows 0 and 4 are fixed +-1 patterns; the remaining rows interleave the
    eight parameters with fixed signs.
    """
    u1, u2, u3, u4, u5, u6, u7, u8 = params.doubled
    half = np.array(
        [
            [2, 2, 2, 2, 2, 2, 2, 2],
            [2, 2, u1, u1, -u1, -u1, -2, -2],
            [2, u2, -u2, -2, -2, -u2, u2, 2],
            [u1, u3, -u4, -u1, u1, u4, -u3, -u1],
            [2, -2, -2, 2, 2, -2, -2, 2],
            [u5, -u5, -u1, u6, -u6, u1, u5, -u5],
            [u2, -2, 2, -u2, -u2, 2, -2, u2],
            [u7, -u6, u1, -u8, u8, -u1, u6, -u7],
        ],
        dtype=np.int64,
    )
    return DyadicMatrix(half)


def gram_quarter_units(m: DyadicMatrix) -> np.ndarray:
    """T*T^t scaled by four, as exact int64 (entries are value*4)."""
    if len(m.shape) != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"gram requires a square matrix, got shape {m.shape}")
    return m.half_units @ m.half_units.T


def gram(m: DyadicMatrix) -> np.ndarray:
    """T*T^t as an exact rational matrix (object array of Fraction)."""
    q = gram_quarter_units(m)
    out = np.empty(q.shape, dtype=object)
    for i in range(q.shape[0]):
        for j in range(q.shape[1]):
            out[i, j] = Fraction(int(q[i, j]), 4)
    return out


def gram_diagnostics(params: ParamVector) -> GramDiagnostics:
    """Closed-form Gram entries of build_matrix(params), exactly."""
    a1, a2, a3, a4, a5, a6, a7, a8 = (Fraction(d, 2) for d in params.doubled)
    diagonal = (
        4 * a1**2 + 4,
        4 * a2**2 + 4,
        4 * a1**2 + 2 * a3**2 + 2 * a4**2,
        2 * a6**2 + 4 * a5**2 + 2 * a1**2,
        2 * a8**2 + 2 * a7**2 + 2 * a6**2 + 2 * a1**2,
    )
    cross = (
        2 * a1 - 2 * a1**2 + 2 * a3 - 2 * a1 * a4,
        2 * a1 * a6 - 2 * a1**2,
        2 * a1**2 - 2 * a6 + 2 * a7 - 2 * a1 * a8,
        2 * a1 * a4 + 2 * a1 * a5 - 2 * a3 * a5 - 2 * a1 * a6,
        2 * a1 * a8 + 2 * a1 * a7 - 2 * a3 * a6 - 2 * a1 * a4,
        2 * a5 * a7 + 2 * a5 * a6 - 2 * a1**2 - 2 * a6 * a8,
    )
    return GramDiagnostics(
        diagonal_terms=diagonal,
        cross_terms=cross,
        off_diagonal_zero=all(c == 0 for c in cross),
    )


def _feasible(u1, u2, u3, u4, u5, u6, u7, u8):
    """Feasibility of doubled parameters, element-wise: takes 8 ints or 8
    integer columns.

    The six polynomials are the cross terms of gram_diagnostics scaled by
    two; all must vanish.  The last three conditions keep rows 3, 5 and 7
    from being identically zero, which makes the Gram diagonal positive.
    """
    return (
        (2 * u1 - u1 * u1 + 2 * u3 - u1 * u4 == 0)
        & (u1 * (u6 - u1) == 0)
        & (u1 * u1 - 2 * u6 + 2 * u7 - u1 * u8 == 0)
        & (u1 * u4 + u1 * u5 - u3 * u5 - u1 * u6 == 0)
        & (u1 * u8 + u1 * u7 - u3 * u6 - u1 * u4 == 0)
        & (u5 * u7 + u5 * u6 - u1 * u1 - u6 * u8 == 0)
        & ((u1 != 0) | (u3 != 0) | (u4 != 0))
        & ((u1 != 0) | (u5 != 0) | (u6 != 0))
        & ((u1 != 0) | (u6 != 0) | (u7 != 0) | (u8 != 0))
    )


def is_feasible(params: ParamVector) -> bool:
    """True iff the matrix is orthogonal (all six cross terms vanish) and
    nonsingular (strictly positive Gram diagonal), in integer arithmetic on
    the doubled parameters."""
    return bool(_feasible(*params.doubled))


def feasible_mask(doubled: np.ndarray) -> np.ndarray:
    """is_feasible over the rows of an (m, 8) array of doubled values."""
    return _feasible(*(doubled[:, k].astype(np.int32) for k in range(8)))


def _row_scale(half_units: np.ndarray) -> np.ndarray:
    """1/sqrt(row norm^2) of a half-unit matrix or stack of them: the
    diagonal scaling that orthonormalizes orthogonal rows."""
    quarter_norms = np.sum(half_units * half_units, axis=-1)
    return 2.0 / np.sqrt(quarter_norms.astype(np.float64))


def scale_factors(params: ParamVector) -> np.ndarray:
    """Diagonal scaling that orthonormalizes the rows: 1/sqrt(row norm^2).

    Positions 0 and 4 are always 1/(2*sqrt(2)) because those rows are fixed
    +-1 patterns of squared norm 8.
    """
    if not is_feasible(params):
        raise FeasibilityError(f"parameters {params} do not give an orthogonal matrix")
    return _row_scale(build_matrix(params).half_units)


def _json_array(d: dict, key: str, shape: tuple, kinds: str) -> np.ndarray:
    """d[key] as an array of the given shape and dtype kind ('i' integer, 'f'
    float); ValueError otherwise, a missing key included."""
    try:
        arr = np.array(d.get(key))
    except ValueError:  # ragged nesting
        arr = np.array(None)
    if arr.shape != shape or arr.dtype.kind not in kinds:
        what = "integers" if kinds == "i" else "numbers"
        raise ValueError(f"transform {key!r} must be a {shape} array of {what}")
    return arr


@dataclass(frozen=True, eq=False)
class Transform:
    """An orthonormal approximation: integer part plus diagonal scaling.

    The composed real matrix is ``diag(scale) @ (half_units / 2)`` and has
    orthonormal rows whenever the integer part came from a feasible build.
    """

    n: int
    half_units: np.ndarray
    scale: np.ndarray

    def __post_init__(self) -> None:
        h = np.asarray(self.half_units, dtype=np.int64)
        s = np.asarray(self.scale, dtype=np.float64)
        if h.shape != (self.n, self.n):
            raise ValueError(f"integer part shape {h.shape} != ({self.n}, {self.n})")
        if s.shape != (self.n,):
            raise ValueError(f"scale length {s.shape} != ({self.n},)")
        if not np.all(s > 0):
            raise ValueError("scale factors must be strictly positive")
        h.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "half_units", h)
        object.__setattr__(self, "scale", s)

    @property
    def matrix(self) -> np.ndarray:
        return self.scale[:, None] * (self.half_units / 2.0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Transform):
            return NotImplemented
        return (
            self.n == other.n
            and bool(np.array_equal(self.half_units, other.half_units))
            and bool(np.array_equal(self.scale, other.scale))
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "den": 2,
            "entries": self.half_units.tolist(),
            "scale": self.scale.tolist(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Transform":
        """Inverse of to_json_dict.  A malformed document raises ValueError;
        one that is not an orthonormal dyadic transform of size 8, 16 or 32
        (scale within 1e-12 of the row norms) raises FeasibilityError."""
        if not isinstance(d, dict):
            raise ValueError(f"transform must be a JSON object, got {type(d).__name__}")
        if d.get("den") != 2:
            raise ValueError(f"unsupported denominator {d.get('den')!r}, expected 2")
        n = d.get("n")
        if type(n) is not int:
            raise ValueError(f"transform size 'n' must be an integer, got {n!r}")
        if n not in (8, 16, 32):
            raise FeasibilityError(f"transform size {n} not in (8, 16, 32)")
        half = _json_array(d, "entries", (n, n), "i")
        scale = _json_array(d, "scale", (n,), "if")
        if not np.all(np.isin(half, ALLOWED_DOUBLED)):
            raise FeasibilityError("transform entries outside {0, +-1/2, +-1, +-2}")
        quarter = half @ half.T
        diag = np.diag(quarter)
        if np.any(quarter != np.diag(diag)) or np.any(diag == 0):
            raise FeasibilityError("transform rows are not nonzero and orthogonal")
        if not np.all(np.abs(scale - _row_scale(half)) <= 1e-12):
            raise FeasibilityError("transform scale does not normalize its rows")
        return cls(n=n, half_units=half, scale=scale)

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as f:
            json.dump(self.to_json_dict(), f)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "Transform":
        return cls.from_json_dict(_read_json(path))


def _read_json(path):
    """The JSON document in a file.  A malformed one raises ValueError, one
    nested too deeply for the parser included."""
    with open(path, "r", encoding="ascii") as f:
        try:
            return json.load(f)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def orthonormal_approx(params: ParamVector) -> Transform:
    """Orthonormalized transform for a feasible parameter vector."""
    m = build_matrix(params)
    s = scale_factors(params)
    return Transform(n=8, half_units=m.half_units, scale=s)
