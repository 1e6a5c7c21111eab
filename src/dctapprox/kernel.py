"""Sparse-factorization evaluation of the 8-point transform and exact
arithmetic-complexity accounting.

The transform factors into four half-unit matrices, each an int64 array:
two +-1 butterfly stages, a block-diagonal core that carries all eight
parameters, and an output permutation.  The fast walks, the inverse and the
operation count all read these matrices.  Zero entries are skipped, so
multiplying by an entry only ever means negate, halve or double, and each
row costs one addition fewer than its nonzero entries, which is what the
addition/shift counting below models.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import floordiv, truediv

import numpy as np

from .core import ParamVector, _square_half_units, scale_factors

__all__ = [
    "ComplexityCount",
    "factor_matrices",
    "factored_product",
    "apply_fast",
    "apply_fast_doubled",
    "apply_inverse",
    "complexity",
    "count_operations",
]


def _butterfly(n: int) -> np.ndarray:
    """2·[[I, J], [J, -I]] of size n, with I and J the identity and exchange
    matrices of size n/2: the sums and differences of mirrored wires."""
    i = np.eye(n // 2, dtype=np.int64)
    return 2 * np.block([[i, i[::-1]], [i[::-1], -i]])


# The constant factors in half units (2 stands for 1): the input butterfly,
# the second butterfly on the even half, and the output permutation
# X = (w0, w4, w2, w6, w1, w5, w3, w7).
_STAGE1 = _butterfly(8)
_STAGE2 = 2 * np.eye(8, dtype=np.int64)
_STAGE2[:4, :4] = _butterfly(4)
_PERM = 2 * np.eye(8, dtype=np.int64)[[0, 4, 2, 6, 1, 5, 3, 7]]
_STAGE1.flags.writeable = _STAGE2.flags.writeable = _PERM.flags.writeable = False


def _core(u1, u2, u3, u4, u5, u6, u7, u8) -> np.ndarray:
    """The block-diagonal core in half units, from the doubled parameters."""
    return np.array([
        [2, 2, 0, 0, 0, 0, 0, 0],
        [2, -2, 0, 0, 0, 0, 0, 0],
        [0, 0, u2, 2, 0, 0, 0, 0],
        [0, 0, -2, u2, 0, 0, 0, 0],
        [0, 0, 0, 0, u1, u1, 2, 2],
        [0, 0, 0, 0, u6, -u1, -u5, u5],
        [0, 0, 0, 0, -u1, -u4, u3, u1],
        [0, 0, 0, 0, -u8, u1, -u6, u7],
    ], dtype=np.int64)


def factor_matrices(params: ParamVector) -> tuple[np.ndarray, ...]:
    """The half-unit factors (stage1, stage2, core, perm), in the order they
    apply.  The core is fresh; the other three are shared read-only
    constants.  Their product equals build_matrix(params) exactly."""
    return _STAGE1, _STAGE2, _core(*params.doubled), _PERM


def factored_product(factors: tuple[np.ndarray, ...]) -> np.ndarray:
    """Exact product perm @ core @ stage2 @ stage1 of the four half-unit
    factors, as a half-unit array.

    The four factors multiply to 16x the true product, so one integer shift
    by 8 recovers half units exactly.  A factor that is not a square integer
    matrix, or a product that is not a multiple of 8, raises ValueError.
    """
    stage1, stage2, core, perm = (_square_half_units(f, "factored_product") for f in factors)
    prod = perm @ core @ stage2 @ stage1
    if np.any(prod % 8):
        raise ValueError("factored product is not a half-unit matrix")
    return prod // 8


def _mul(entry: int, v, div):
    """Multiply v by a nonzero half-unit entry (+-1, +-2 or +-4): halve or
    double, then negate.  Halving is div(v, 2): truediv on floats, floordiv
    on even integers."""
    if abs(entry) != 2:
        v = div(v, 2) if abs(entry) == 1 else v + v
    return -v if entry < 0 else v


def _walk(factors, x, div) -> list:
    """Push the wires x through the half-unit factor matrices in order.

    Each output sums its row's nonzero entries times their wires, left to
    right from the first such term; a row without one gives 0.
    """
    for h in factors:
        out = []
        for row in h.tolist():
            acc = None
            for entry, v in zip(row, x):
                if entry:
                    v = _mul(entry, v, div)
                    acc = v if acc is None else acc + v
            out.append(0 if acc is None else acc)
        x = out
    return x


def _check_vector(x: np.ndarray) -> None:
    if x.shape != (8,):
        raise ValueError(f"input must be a length-8 vector, got shape {x.shape}")


def apply_fast(params: ParamVector, x) -> np.ndarray:
    """Evaluate T(params) @ x factor by factor (no matrix multiply).

    Zero entries are skipped rather than added as 0 * x, so the walk
    performs exactly the additions count_operations counts.  On finite
    input this changes at most the sign of a zero output; on non-finite
    input a skipped 0 * inf no longer turns its row into NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_vector(x)
    return np.array(_walk(factor_matrices(params), x.tolist(), truediv), dtype=np.float64)


def apply_fast_doubled(params: ParamVector, x) -> np.ndarray:
    """Exact integer twin of apply_fast: returns 2 * T(params) @ x for
    integer x.  All intermediate values stay even where halving occurs, so
    the result is exact.  Input of any non-integer dtype is a ValueError."""
    x = np.asarray(x)
    _check_vector(x)
    if x.dtype.kind not in "iu":
        raise ValueError(f"input must have an integer dtype, got {x.dtype}")
    y = _walk(factor_matrices(params), [2 * v for v in x.tolist()], floordiv)
    return np.array(y, dtype=np.int64)


def apply_inverse(params: ParamVector, coeffs) -> np.ndarray:
    """Inverse transform of an orthonormalized forward pass: T^t @ S @ X,
    realized as diagonal scaling followed by the transposed factors in
    reverse order.  Zero entries are skipped as in apply_fast."""
    scale = scale_factors(params)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    _check_vector(coeffs)
    transposed = [h.T for h in reversed(factor_matrices(params))]
    return np.array(_walk(transposed, (coeffs * scale).tolist(), truediv), dtype=np.float64)


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
    """Instrumented count over the factor matrices: each row costs one
    addition fewer than its nonzero entries, and each entry of half-unit
    magnitude 1 or 4 one shift.

    A zero parameter removes both its multiplication and the downstream
    addition; negation is free.
    """
    h = np.stack(factor_matrices(params))
    adds = np.maximum(np.count_nonzero(h, axis=-1) - 1, 0).sum()
    return int(adds), int(np.count_nonzero(_needs_shift(np.abs(h))))
