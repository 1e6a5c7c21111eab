"""Size doubling for low-complexity transforms.

One loop, `_grown`, takes a parameter vector to its transform and cost at
8, 16 and 32 points: it starts at the gated ``orthonormal_approx`` and
takes each doubling once from the size below; `build_scaled` returns its
last size.  A transform of size N is lifted to size 2N by feeding an input
butterfly of identity and counter-identity blocks into two copies of the
N-point kernel.  Output rows are emitted frequency-interleaved: row 2k
comes from the half-sum path (even frequencies), row 2k+1 from the
half-difference path, so the doubled transform stays frequency-ordered like
its seed.  Orthogonality is preserved exactly, and cost grows as twice the
seed's plus 2N additions.  The integer part at every size is an int64
half-unit array, doubled in exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SIZES, ParamVector, Transform, _row_scale, _square_half_units, orthonormal_approx
from .kernel import ComplexityCount, complexity

__all__ = ["ScaledTransform", "scale_once", "scaled_complexity", "build_scaled"]


@dataclass(frozen=True)
class ScaledTransform:
    """An 8-, 16- or 32-point transform grown from a feasible 8-point seed
    (at 8 points, the orthonormalized seed itself) and its cost."""

    seed: ParamVector
    transform: Transform
    complexity: ComplexityCount


def scale_once(m) -> np.ndarray:
    """Double a square half-unit matrix into a fresh int64 array: butterfly
    the input, interleave the sum/difference outputs."""
    h = _square_half_units(m, "scale_once")
    n = h.shape[0]
    out = np.empty((2 * n, 2 * n), dtype=np.int64)
    out[0::2] = np.hstack([h, h[:, ::-1]])
    out[1::2] = np.hstack([h, -h[:, ::-1]])
    return out


def scaled_complexity(c: ComplexityCount, n: int) -> ComplexityCount:
    """Cost of the doubled transform: the input butterfly adds 2n additions,
    everything else is two seed evaluations."""
    return ComplexityCount(
        additions=2 * c.additions + 2 * n,
        shifts=2 * c.shifts,
        rule=c.rule,
    )


def _grown(params: ParamVector, largest: int = 32) -> list[ScaledTransform]:
    """The seed's transforms at 8, 16, ... up to ``largest`` points, from
    one growth: ``orthonormal_approx(params)`` and ``complexity(params)``,
    then each doubling taken once from the size below."""
    t, cost = orthonormal_approx(params), complexity(params)
    grown = [ScaledTransform(seed=params, transform=t, complexity=cost)]
    while t.n < largest:
        m = scale_once(t.half_units)
        cost = scaled_complexity(cost, t.n)
        t = Transform(n=2 * t.n, half_units=m, scale=_row_scale(m))
        grown.append(ScaledTransform(seed=params, transform=t, complexity=cost))
    return grown


def build_scaled(params: ParamVector, target: int) -> ScaledTransform:
    """Grow a feasible 8-point seed to an 8-, 16- or 32-point transform.

    At 8 no doubling runs: the transform equals ``orthonormal_approx(params)``
    and the cost ``complexity(params)``.  Raises ValueError for any other
    target size, checked first, and FeasibilityError for an infeasible seed.
    """
    if target not in SIZES:
        raise ValueError(f"target size must be 8, 16 or 32, got {target}")
    return _grown(params, target)[-1]
