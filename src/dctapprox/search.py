"""Exhaustive sweep of the 7^8 parameter space and Pareto-front extraction
for the six-objective problem (error energy, mse, -gain, -efficiency,
additions, shifts).

Both modes run one scoring pass over the odd rows of the 7^7 grid with a2
pinned: all of them, or with the feasibility filter the 403 that pass the
six integer checks (none reads a2).  After the input butterfly a candidate
is block-diagonal, with an even block of a2 alone and an odd block of the
other parameters, so its metrics are sums of the two blocks' kernel values.
One non-dominated filter decides all dominance: it cuts each scored chunk,
stacked under the running front, back to a front, and pareto_front applies
it before grouping ties.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Sequence

import numpy as np

from . import core, metrics
from .core import ALLOWED_DOUBLED, ParamVector, _row_scale, build_matrix, feasible_mask
from .kernel import _cheapest_rule
from .metrics import MetricsReport, SignalModel

__all__ = [
    "N_CANDIDATES",
    "ParetoEntry",
    "SearchResult",
    "all_candidates_doubled",
    "feasible_mask",
    "objectives",
    "dominates",
    "pareto_front",
    "run_search",
]

N_CANDIDATES = 7**8  # 5,764,801

_SLICE = 7**5  # odd rows scored together; the 403 feasible ones form one slice


def _grid(columns) -> np.ndarray:
    """Cartesian product of per-column value lists as an int8 array, first
    column most significant."""
    grids = np.meshgrid(*(np.array(c, dtype=np.int8) for c in columns), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def all_candidates_doubled() -> np.ndarray:
    """The full candidate grid as a (7^8, 8) int8 array of doubled values, in
    lexicographic order (component order -2 < -1 < -1/2 < 0 < 1/2 < 1 < 2,
    first index most significant)."""
    return _grid([ALLOWED_DOUBLED] * 8)


def _odd_rows(feasibility_filter: bool) -> np.ndarray:
    """The 7^7 grid of the parameters other than a2, as rows with a2 pinned
    to 0; with the filter only its feasible rows.  Feasibility does not
    depend on a2, so each feasible row gives 7 feasible candidates."""
    odd = _grid([ALLOWED_DOUBLED, (0,)] + [ALLOWED_DOUBLED] * 6)
    return odd[feasible_mask(odd)] if feasibility_filter else odd


def _minimized(epsilon, mse, gain, efficiency, additions, shifts) -> tuple:
    """Minimization vector, element-wise over scalars or columns: gain and
    efficiency negated, floats rounded to 1e-9 so dominance is not decided
    by summation noise."""
    return (
        np.round(epsilon, 9),
        np.round(mse, 9),
        np.round(-gain, 9),
        np.round(-efficiency, 9),
        additions,
        shifts,
    )


def objectives(report: MetricsReport) -> tuple:
    """Minimization vector of one report."""
    *floats, adds, shifts = _minimized(*astuple(report))
    return (*map(float, floats), adds, shifts)


def dominates(x: Sequence, y: Sequence) -> bool:
    """Component-wise dominance for minimization."""
    return all(a <= b for a, b in zip(x, y)) and any(a < b for a, b in zip(x, y))


@dataclass(frozen=True)
class ParetoEntry:
    params: ParamVector
    report: MetricsReport
    canonical: bool


def _front(objs: np.ndarray) -> np.ndarray:
    """Sorted indices of the rows no other row dominates (minimization).

    Rows are visited by row sum, then lexicographically.  A dominator is no
    larger in any column, so its rounded sum is never larger, and on equal
    sums it comes first lexicographically: a row is visited after all its
    dominators, so each row still there when visited is on the front and
    drops the later rows it dominates.  Identical rows never dominate each
    other, so whole tie groups survive.
    """
    rest = np.lexsort((*objs.T[::-1], objs.sum(axis=1)))
    front = []
    while rest.size:
        top, rest = rest[0], rest[1:]
        front.append(top)
        p, later = objs[top], objs[rest]
        rest = rest[~(np.all(p <= later, axis=1) & np.any(p < later, axis=1))]
    return np.sort(np.array(front, dtype=np.int64))


def _canonical_rep(group: list[ParamVector]) -> ParamVector:
    # Most nonnegative components first, then lexicographically smallest.
    return min(group, key=lambda pv: (-sum(1 for v in pv.values if v >= 0), pv.values))


def pareto_front(
    evaluated: Sequence[tuple[ParamVector, MetricsReport]],
) -> list[ParetoEntry]:
    """Non-dominated entries of an evaluated collection, by the filter the
    search fold uses, on the objectives vectors.

    Entries whose objective vectors are identical are grouped; exactly one
    member per group is flagged canonical.  Output order is deterministic:
    additions, then error energy, then shifts, then mse (the floats rounded
    as in objectives), canonical members first within a tie group.
    """
    if not evaluated:
        return []
    objs = np.array([objectives(rep) for _, rep in evaluated], dtype=np.float64)
    groups: dict[tuple, list[int]] = {}
    for i in _front(objs):
        groups.setdefault(tuple(objs[i]), []).append(int(i))
    entries = []
    for key, idxs in groups.items():
        rep_pv = _canonical_rep([evaluated[i][0] for i in idxs])
        for i in idxs:
            pv, report = evaluated[i]
            entries.append(ParetoEntry(pv, report, canonical=(pv == rep_pv)))

    def order(e: ParetoEntry) -> tuple:
        eps, m, _gain, _eff, adds, shifts = objectives(e.report)
        return (adds, eps, shifts, m, not e.canonical, e.params.values)

    return sorted(entries, key=order)


@dataclass(frozen=True)
class SearchResult:
    entries: tuple[ParetoEntry, ...]
    n_candidates: int
    n_feasible: int | None
    n_evaluated: int
    model: SignalModel
    feasibility_filter: bool

    @property
    def canonical(self) -> tuple[ParetoEntry, ...]:
        return tuple(e for e in self.entries if e.canonical)


def _half_units(rows: np.ndarray) -> np.ndarray:
    """build_matrix over an (m, 8) array of doubled values; it is affine in
    them: half units H0 + sum_k u_k B_k."""
    h0 = build_matrix(ParamVector((0,) * 8)).half_units
    basis = np.stack([
        build_matrix(ParamVector(tuple(int(i == k) for i in range(8)))).half_units - h0
        for k in range(8)
    ])
    return h0 + np.einsum("mk,kij->mij", rows.astype(np.int64), basis)


# The orthonormal input butterfly Q in two halves: rows (e_i + e_7-i)/sqrt2
# and (e_i - e_7-i)/sqrt2, i < 4.  A candidate's even rows are symmetric and
# its odd rows antisymmetric, so Q maps each onto one half.
_EYE, _MIRROR = np.eye(8)[:4], np.eye(8)[7:3:-1]
_Q_HALVES = ((_EYE + _MIRROR) / np.sqrt(2.0), (_EYE - _MIRROR) / np.sqrt(2.0))


def _blocks(half: np.ndarray, parity: int) -> np.ndarray:
    """The even (parity 0) or odd (1) rows of half-unit 8x8 matrices,
    row-normalized as orthonormal_approx scales them, in the butterfly
    basis: 4x4 blocks."""
    rows = half[..., parity::2, :]
    return (_row_scale(rows)[..., None] * (rows / 2.0)) @ _Q_HALVES[parity].T


def _block_sums(blocks: np.ndarray, parity: int, model: SignalModel) -> np.ndarray:
    """Columns error energy, mse, coding gain, efficiency numerator and
    denominator of even or odd blocks, against the same block of the exact
    DCT and of Q R Q^t (block-diagonal: R is centrosymmetric)."""
    q = _Q_HALVES[parity]
    ref = core.exact_dct_matrix(8)[parity::2] @ q.T
    r = q @ metrics.ar1_covariance(model) @ q.T
    return np.column_stack([
        metrics._error_energy(blocks, ref),
        metrics._mse(blocks, ref, r, 8),
        metrics._coding_gain(blocks, r, 8),
        *metrics._efficiency_parts(blocks, r),
    ])


def _scored(odd: np.ndarray, model: SignalModel):
    """Metric rows (epsilon, mse, gain, efficiency, additions, shifts) of the
    nonsingular candidates among the odd rows with every a2, and those
    candidates: a chunk per slice of _SLICE odd rows and value of a2.  A
    candidate's metric sums are its even block's plus its odd block's, its
    determinant their product.  Odd blocks with a zero row, or singular with
    every a2, are dropped before they are scaled or inverted."""
    even = np.array([(0, a2) + (0,) * 6 for a2 in ALLOWED_DOUBLED])
    even_blocks = _blocks(_half_units(even), 0)
    even_sums, even_det = _block_sums(even_blocks, 0, model), np.linalg.det(even_blocks)
    for start in range(0, len(odd), _SLICE):
        rows = odd[start : start + _SLICE]
        half = _half_units(rows)
        nonzero = np.all(np.any(half != 0, axis=2), axis=1)
        rows, blocks = rows[nonzero], _blocks(half[nonzero], 1)
        keep = np.abs(np.outer(np.linalg.det(blocks), even_det)) > 1e-12
        live = np.any(keep, axis=1)
        rows, keep, odd_sums = rows[live], keep[live], _block_sums(blocks[live], 1, model)
        for j, a2 in enumerate(ALLOWED_DOUBLED):
            candidates = rows[keep[:, j]]
            candidates[:, 1] = a2
            eps, m, gain, eff_num, eff_den = (even_sums[j] + odd_sums[keep[:, j]]).T
            adds, shifts, _rule = _cheapest_rule(candidates)
            yield np.column_stack([eps, m, gain, eff_num / eff_den, adds, shifts]), candidates


def _running_front(scored) -> tuple[np.ndarray, np.ndarray, int]:
    """Fold a stream of (metric rows, candidate rows) chunks into the
    non-dominated metric rows, their candidates, and the number scored.
    Each chunk is stacked under the front and the stack cut back to its
    front, which keeps rows in chunk order."""
    values = np.empty((0, 6))
    rows = np.empty((0, 8), dtype=np.int8)
    n_scored = 0
    for new_values, new_rows in scored:
        n_scored += len(new_values)
        values = np.vstack([values, new_values])
        rows = np.vstack([rows, new_rows])
        keep = _front(np.column_stack(_minimized(*values.T)))
        values, rows = values[keep], rows[keep]
    return values, rows, n_scored


def run_search(
    model: SignalModel,
    feasibility_filter: bool = True,
    workers: int = 1,
) -> SearchResult:
    """Full pipeline: select the odd rows (see _odd_rows), score them with
    every a2 (see _scored), fold each chunk into the running front, and let
    pareto_front group the survivors' ties.  Without the filter every
    nonsingular candidate is scored with row-norm diagonal scaling
    (orthogonality not required), about 1,900 times as many.  ``workers``
    must be at least 1 and has no effect: the search runs in one process.
    """
    if model.n != 8:
        raise ValueError(f"the search evaluates 8-point seeds; model size is {model.n}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    odd = _odd_rows(feasibility_filter)
    values, rows, n_scored = _running_front(_scored(odd, model))

    evaluated = [
        (
            ParamVector(tuple(int(v) for v in row)),
            MetricsReport(*(float(v) for v in vals[:4]), *(int(v) for v in vals[4:])),
        )
        for row, vals in zip(rows, values)
    ]
    return SearchResult(
        entries=tuple(pareto_front(evaluated)),
        n_candidates=N_CANDIDATES,
        n_feasible=len(odd) * len(ALLOWED_DOUBLED) if feasibility_filter else None,
        n_evaluated=n_scored,
        model=model,
        feasibility_filter=feasibility_filter,
    )
