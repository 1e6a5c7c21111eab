"""Sparse-factorization evaluation of the 8-point transform and exact
arithmetic-complexity accounting.

The transform factors into two +-1 butterfly stages, a block-diagonal core
that carries all eight parameters, and an output permutation.  Multiplying by
a parameter therefore only ever means skip, negate, halve or double, which is
what the addition/shift counting below models.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import floordiv, truediv

import numpy as np

from .core import DyadicMatrix, ParamVector, scale_factors

__all__ = [
    "FactorSet",
    "ComplexityCount",
    "factor_matrices",
    "factored_product",
    "apply_fast",
    "apply_fast_doubled",
    "apply_inverse",
    "complexity",
    "count_operations",
]

_U = None  # the fixed unit coefficient of a term

# Each factor is a table of output rows; a row is a tuple of
# (sign, coefficient, input wire) terms, where the coefficient indexes
# params.doubled or is _U.  Everything else (the factor matrices, the forward
# and transposed walks, the operation count) is derived from these tables.
_STAGE1 = (
    ((1, _U, 0), (1, _U, 7)), ((1, _U, 1), (1, _U, 6)),
    ((1, _U, 2), (1, _U, 5)), ((1, _U, 3), (1, _U, 4)),
    ((1, _U, 3), (-1, _U, 4)), ((1, _U, 2), (-1, _U, 5)),
    ((1, _U, 1), (-1, _U, 6)), ((1, _U, 0), (-1, _U, 7)),
)
_STAGE2 = (
    ((1, _U, 0), (1, _U, 3)), ((1, _U, 1), (1, _U, 2)),
    ((1, _U, 1), (-1, _U, 2)), ((1, _U, 0), (-1, _U, 3)),
    ((1, _U, 4),), ((1, _U, 5),), ((1, _U, 6),), ((1, _U, 7),),
)
_CORE = (
    ((1, _U, 0), (1, _U, 1)),
    ((1, _U, 0), (-1, _U, 1)),
    ((1, 1, 2), (1, _U, 3)),
    ((-1, _U, 2), (1, 1, 3)),
    ((1, 0, 4), (1, 0, 5), (1, _U, 6), (1, _U, 7)),
    ((1, 5, 4), (-1, 0, 5), (-1, 4, 6), (1, 4, 7)),
    ((-1, 0, 4), (-1, 3, 5), (1, 2, 6), (1, 0, 7)),
    ((-1, 7, 4), (1, 0, 5), (-1, 5, 6), (1, 6, 7)),
)
# Output permutation: X[i] = w[src].
_PERM = tuple(((1, _U, src),) for src in (0, 4, 2, 6, 1, 5, 3, 7))

_FORWARD = (_STAGE1, _STAGE2, _CORE, _PERM)


def _transpose(rows):
    """The table of the transposed factor: column j's terms, in row order."""
    return tuple(
        tuple(
            (sign, coef, i)
            for i, terms in enumerate(rows)
            for sign, coef, wire in terms
            if wire == j
        )
        for j in range(len(rows))
    )


# T^t = stage1^t stage2^t core^t perm^t, so the inverse walks the transposed
# tables in reverse order (the two +-1 stages are their own transposes).
_TRANSPOSED = tuple(_transpose(rows) for rows in reversed(_FORWARD))


@dataclass(frozen=True)
class FactorSet:
    """The four sparse factors: input butterfly, second butterfly, parameter
    core, and output permutation.  Their product equals build_matrix exactly."""

    stage1: DyadicMatrix
    stage2: DyadicMatrix
    core: DyadicMatrix
    perm: DyadicMatrix


def _coef(coef, doubled) -> int:
    return 2 if coef is None else doubled[coef]


def _factor(rows, doubled) -> DyadicMatrix:
    h = np.zeros((len(rows), len(rows)), dtype=np.int64)
    for i, terms in enumerate(rows):
        for sign, coef, wire in terms:
            h[i, wire] = sign * _coef(coef, doubled)
    return DyadicMatrix(h)


def factor_matrices(params: ParamVector) -> FactorSet:
    return FactorSet(*(_factor(rows, params.doubled) for rows in _FORWARD))


def factored_product(factors: FactorSet) -> DyadicMatrix:
    """Exact product perm @ core @ stage2 @ stage1 as a dyadic matrix.

    The four half-unit factors multiply to 16x the true product, so one
    integer shift by 8 recovers half units exactly.
    """
    prod = (
        factors.perm.half_units
        @ factors.core.half_units
        @ factors.stage2.half_units
        @ factors.stage1.half_units
    )
    if np.any(prod % 8):
        raise AssertionError("factored product is not a half-unit matrix")
    return DyadicMatrix(prod // 8)


def _mul(doubled_coef: int, v, div):
    """Multiply by a parameter given as value*2: skip, negate, halve or double.
    Halving is div(v, 2): truediv on floats, floordiv on even integers."""
    if doubled_coef == 0:
        return 0 * v
    if doubled_coef == 2:
        return v
    if doubled_coef == -2:
        return -v
    if doubled_coef == 1:
        return div(v, 2)
    if doubled_coef == -1:
        return -div(v, 2)
    if doubled_coef == 4:
        return v + v
    return -(v + v)  # -4


def _walk(stages, doubled, x, div) -> list:
    """Push the wires x through the stage tables, summing terms left to right."""
    for rows in stages:
        out = []
        for terms in rows:
            acc = None
            for sign, coef, wire in terms:
                v = _mul(_coef(coef, doubled), x[wire], div)
                if sign < 0:
                    v = -v
                acc = v if acc is None else acc + v
            out.append(acc)
        x = out
    return x


def _check_vector(x: np.ndarray) -> None:
    if x.shape != (8,):
        raise ValueError(f"input must be a length-8 vector, got shape {x.shape}")


def apply_fast(params: ParamVector, x) -> np.ndarray:
    """Evaluate T(params) @ x stage by stage (no matrix multiply)."""
    x = np.asarray(x, dtype=np.float64)
    _check_vector(x)
    return np.array(_walk(_FORWARD, params.doubled, list(x), truediv), dtype=np.float64)


def apply_fast_doubled(params: ParamVector, x) -> np.ndarray:
    """Exact integer twin of apply_fast: returns 2 * T(params) @ x for
    integer x.  All intermediate values stay even where halving occurs, so
    the result is exact."""
    x = np.asarray(x)
    _check_vector(x)
    y = _walk(_FORWARD, params.doubled, [2 * int(v) for v in x], floordiv)
    return np.array(y, dtype=np.int64)


def apply_inverse(params: ParamVector, coeffs) -> np.ndarray:
    """Inverse transform of an orthonormalized forward pass: T^t @ S @ X,
    realized as diagonal scaling followed by the transposed stage sequence."""
    scale = scale_factors(params)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    _check_vector(coeffs)
    y = list(coeffs * scale)
    return np.array(_walk(_TRANSPOSED, params.doubled, y, truediv), dtype=np.float64)


@dataclass(frozen=True)
class ComplexityCount:
    """Additions and bit-shifts of the cheapest applicable evaluation rule."""

    additions: int
    shifts: int
    rule: str


def _needs_shift(mag):
    """Element-wise: a doubled magnitude of 1 or 4 (value 1/2 or 2) costs a
    bit-shift."""
    return (mag == 1) | (mag == 4)


_ONE = 8  # chain index standing for the magnitude 2 (parameter value +-1)

# (name, base additions, per-parameter weights, equality chains).  A chain
# lists parameter indices whose |doubled| magnitudes must all be equal, and
# _ONE in a chain pins them to value +-1.  A rule applies when all its
# chains hold, so the general rule, which has none, always applies; the
# others trade shared sub-expressions for lower bases or weights when
# parameter magnitudes coincide.
_RULES = (
    ("general", 28, (6, 2, 1, 1, 2, 2, 1, 1), ()),
    ("r1", 26, (6, 2, 1, 0, 2, 0, 1, 0), ((0, 3, 5, 7),)),
    ("r2", 26, (0, 2, 0, 1, 3, 0, 1, 0), ((0, 2, _ONE), (4, 5, 7))),
    ("r3", 26, (0, 2, 1, 1, 3, 0, 1, 0), ((0, _ONE), (4, 5), (6, 7))),
    ("r4", 26, (0, 2, 1, 0, 0, 0, 1, 1), ((0, 4, 5, _ONE), (2, 3))),
    ("r5", 26, (0, 2, 1, 0, 0, 2, 0, 1), ((0, 3, 4, 6, _ONE),)),
    ("r6", 26, (6, 2, 0, 1, 1, 2, 0, 1), ((0, 2), (5, 6))),
    ("r7", 24, (6, 2, 0, 0, 1, 0, 0, 0), ((0, 2, 3, 5, 6, 7),)),
    ("r8", 24, (0, 2, 0, 0, 0, 0, 0, 0), ((0, 2, 3, 4, 5, 6, 7, _ONE),)),
    ("r9", 24, (0, 2, 1, 0, 0, 0, 1, 0), ((0, 4, 5, _ONE), (2, 3), (6, 7))),
)

_BASES = np.array([base for _, base, _, _ in _RULES])
_WEIGHTS = np.array([weights for _, _, weights, _ in _RULES]).T  # (8, rules)
# Every link of every chain as an index pair, and a (links, rules) incidence
# matrix that counts each rule's broken links.
_LINKS = [
    (i, j, r)
    for r, (*_, chains) in enumerate(_RULES)
    for chain in chains
    for i, j in zip(chain, chain[1:])
]
_LINK_I, _LINK_J, _LINK_RULE = (np.array(c) for c in zip(*_LINKS))
_LINK_RULES = np.eye(len(_RULES), dtype=np.int64)[_LINK_RULE]
_NOT_APPLICABLE = np.iinfo(np.int64).max


def _cheapest_rule(doubled) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(additions, shifts, rule index) of the cheapest applicable rule, for
    an (8,) or (m, 8) array of doubled values.

    Each rule's cost is packed as additions*64 + shifts (shifts never reach
    64), so argmin picks the fewest additions, then the fewest shifts, then
    the first rule in order.
    """
    d = np.asarray(doubled, dtype=np.int64)
    mags = np.abs(d)
    adds = _BASES - (d == 0) @ _WEIGHTS
    shifts = _needs_shift(mags) @ _WEIGHTS
    ext = np.concatenate([mags, np.full(d.shape[:-1] + (1,), 2)], axis=-1)
    broken = (ext[..., _LINK_I] != ext[..., _LINK_J]) @ _LINK_RULES
    key = np.where(broken == 0, adds * 64 + shifts, _NOT_APPLICABLE)
    best_adds, best_shifts = np.divmod(np.min(key, axis=-1), 64)
    return best_adds, best_shifts, np.argmin(key, axis=-1)


def complexity(params: ParamVector) -> ComplexityCount:
    """Addition/shift cost, minimized over all applicable rules.

    Ties on additions break toward fewer shifts, then rule order (general
    first).
    """
    adds, shifts, rule = _cheapest_rule(params.doubled)
    return ComplexityCount(additions=int(adds), shifts=int(shifts), rule=_RULES[rule][0])


def count_operations(params: ParamVector) -> tuple[int, int]:
    """Instrumented walk of the stage graph: count the additions of
    structurally nonzero terms and the shifts actually applied.

    A zero parameter removes both its multiplication and the downstream
    addition; negation is free.
    """
    adds = shifts = 0
    for rows in _FORWARD:
        for terms in rows:
            mags = [abs(_coef(coef, params.doubled)) for _, coef, _ in terms]
            live = [m for m in mags if m != 0]
            adds += max(0, len(live) - 1)
            shifts += sum(_needs_shift(m) for m in live)
    return adds, shifts
