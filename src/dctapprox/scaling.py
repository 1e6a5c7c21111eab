"""Size doubling for low-complexity transforms.

`build_scaled` is the one path from a parameter vector to a transform and
its cost at 8, 16 or 32 points, and `build_scaled_sizes` the same path to
several sizes at once; the 8-point transform is the seed with no
doubling.  A transform of size N is lifted to size 2N by feeding an input
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
from typing import Sequence

import numpy as np

from .core import SIZES, ParamVector, Transform, _row_scale, _seed_half_units, _square_half_units
from .kernel import ComplexityCount, complexity

__all__ = [
    "ScaledTransform", "scale_once", "scaled_complexity", "build_scaled", "build_scaled_sizes",
]


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


def build_scaled(params: ParamVector, target: int) -> ScaledTransform:
    """Grow a feasible 8-point seed to an 8-, 16- or 32-point transform.

    At 8 no doubling runs: the transform equals ``orthonormal_approx(params)``
    and the cost ``complexity(params)``.  Raises FeasibilityError for an
    infeasible seed and ValueError for any other target size.
    """
    return build_scaled_sizes(params, (target,))[0]


def build_scaled_sizes(
    params: ParamVector, targets: Sequence[int]
) -> tuple[ScaledTransform, ...]:
    """``build_scaled(params, t)`` for each t in ``targets``, in order, from
    one growth of the seed: each doubling is taken once, from the size
    below it, up to the largest target."""
    for target in targets:
        if target not in SIZES:
            raise ValueError(f"target size must be 8, 16 or 32, got {target}")
    largest = max(targets, default=8)
    m = _seed_half_units(params)
    cost = complexity(params)
    built = {}
    n = 8
    while True:
        if n in targets:
            transform = Transform(n=n, half_units=m, scale=_row_scale(m))
            built[n] = ScaledTransform(seed=params, transform=transform, complexity=cost)
        if n == largest:
            return tuple(built[t] for t in targets)
        m = scale_once(m)
        cost = scaled_complexity(cost, n)
        n *= 2
