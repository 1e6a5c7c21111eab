"""Exhaustive sweep of the 7^8 parameter space and Pareto-front extraction
for the six-objective problem (error energy, mse, -gain, -efficiency,
additions, shifts).

The default pipeline keeps only orthogonal candidates.  None of the six
integer polynomial checks reads a2 (the even rows depend on a2 alone), so
they run on the 7^7 rows of the other seven parameters with a2 pinned, and
the 403 survivors are expanded over the 7 values of a2: the 2,821 feasible
rows in enumeration order, without building the 5.76M-row grid.  Without
the filter every candidate is scored.  The selected rows are scored in
fixed chunks of the enumeration order, each chunk as one stack of
row-normalized matrices through the metrics functions.  One non-dominated
filter decides all dominance: it cuts each chunk, stacked under the
running front, back to a front, and pareto_front applies it before
grouping ties.  Chunks can be spread over worker processes; results are
merged in chunk order and are byte-identical for any worker count.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import ALLOWED_DOUBLED, ParamVector, _row_scale, build_matrix, feasible_mask
from .kernel import _cheapest_rule
from .metrics import MetricsReport, SignalModel, evaluate_matrix

__all__ = [
    "N_CANDIDATES",
    "ParetoEntry",
    "SearchResult",
    "enumerate_candidates",
    "all_candidates_doubled",
    "feasible_mask",
    "feasible_candidates",
    "objectives",
    "dominates",
    "pareto_front",
    "run_search",
]

N_CANDIDATES = 7**8  # 5,764,801

_CHUNK = 16807  # 7^5 rows; fixed so worker count cannot affect merge order


def enumerate_candidates() -> Iterator[ParamVector]:
    """All 7^8 parameter vectors in lexicographic order (component order
    -2 < -1 < -1/2 < 0 < 1/2 < 1 < 2, first index most significant)."""
    for doubled in itertools.product(*(ALLOWED_DOUBLED,) * 8):
        yield ParamVector(doubled)


def _grid(columns) -> np.ndarray:
    """Cartesian product of per-column value lists as an int8 array, first
    column most significant."""
    grids = np.meshgrid(*(np.array(c, dtype=np.int8) for c in columns), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def all_candidates_doubled() -> np.ndarray:
    """The full candidate grid as a (7^8, 8) int8 array of doubled values,
    in the same order as enumerate_candidates."""
    return _grid([ALLOWED_DOUBLED] * 8)


def _feasible_doubled() -> np.ndarray:
    """The feasible rows of all_candidates_doubled, in its order.

    Feasibility does not depend on a2 (column 1), so the mask runs on the
    7^7 grid with a2 pinned to 0 and each surviving row is repeated with
    every a2 value.  The alphabet is ascending, so enumeration order is
    lexicographic order of the values.
    """
    odd = _grid([ALLOWED_DOUBLED, (0,)] + [ALLOWED_DOUBLED] * 6)
    odd = odd[feasible_mask(odd)]
    rows = np.tile(odd, (len(ALLOWED_DOUBLED), 1))
    rows[:, 1] = np.repeat(ALLOWED_DOUBLED, len(odd))
    return rows[np.lexsort(rows.T[::-1])]


def feasible_candidates() -> Iterator[ParamVector]:
    """Feasible vectors in enumeration order (count is deterministic)."""
    for row in _feasible_doubled():
        yield ParamVector(tuple(int(v) for v in row))


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
    eps, m, gain, eff, adds, shifts = _minimized(
        report.epsilon, report.mse, report.coding_gain_db,
        report.efficiency_pct, report.additions, report.shifts,
    )
    return (float(eps), float(m), float(gain), float(eff), adds, shifts)


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


def _affine_basis() -> tuple[np.ndarray, np.ndarray]:
    """build_matrix is affine in the doubled parameters: half units
    H0 + sum_k u_k B_k.  Returns (H0, B) with B of shape (8, 8, 8)."""
    h0 = build_matrix(ParamVector((0,) * 8)).half_units
    basis = np.stack([
        build_matrix(ParamVector(tuple(int(i == k) for i in range(8)))).half_units - h0
        for k in range(8)
    ])
    return h0, basis


def _score_chunk(args) -> tuple[np.ndarray, np.ndarray]:
    """Metric rows (epsilon, mse, gain, efficiency, additions, shifts) of the
    nonsingular candidates among some doubled rows, and those rows.

    Each candidate is row-normalized exactly as orthonormal_approx scales a
    feasible one; the coding gain uses the true matrix inverse, so it is
    meaningful for non-orthogonal matrices too.
    """
    rows, rho = args
    h0, basis = _affine_basis()
    half = h0 + np.einsum("mk,kij->mij", rows.astype(np.int64), basis)
    nonzero_rows = np.all(np.any(half != 0, axis=2), axis=1)
    rows, half = rows[nonzero_rows], half[nonzero_rows]
    c_hat = _row_scale(half)[..., None] * (half / 2.0)
    nonsingular = np.abs(np.linalg.det(c_hat)) > 1e-12
    rows, c_hat = rows[nonsingular], c_hat[nonsingular]
    adds, shifts, _rule = _cheapest_rule(rows)
    metrics = evaluate_matrix(c_hat, SignalModel(rho=rho, n=8))
    return np.column_stack([*metrics, adds, shifts]), rows


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
    """Full pipeline: enumerate, select, evaluate, extract the front.

    The selected candidates (the feasible ones, or all of them without the
    filter) are scored in fixed chunks of the enumeration order, folded into
    the running front in chunk order, and pareto_front groups the survivors'
    ties.  The filter checks feasibility once per row of the 7^7 grid
    without a2 and expands the survivors over a2 (see _feasible_doubled),
    so the full grid is built only without the filter.  With more than one
    chunk and ``workers > 1``, a pool of at most one process per chunk
    scores them; the fold order keeps the result independent of the worker
    count.  The filtered rows fit in one chunk, so no pool is started.
    Without the filter every nonsingular candidate is scored with row-norm
    diagonal scaling (orthogonality not required), which takes about 2,000
    times as many evaluations.
    """
    if model.n != 8:
        raise ValueError(f"the search evaluates 8-point seeds; model size is {model.n}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    doubled = _feasible_doubled() if feasibility_filter else all_candidates_doubled()
    chunks = [
        (doubled[s : s + _CHUNK], model.rho) for s in range(0, len(doubled), _CHUNK)
    ]
    workers = min(workers, len(chunks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            values, rows, n_scored = _running_front(pool.map(_score_chunk, chunks))
    else:
        values, rows, n_scored = _running_front(map(_score_chunk, chunks))

    evaluated = [
        (
            ParamVector(tuple(int(v) for v in row)),
            MetricsReport(
                epsilon=float(eps),
                mse=float(m),
                coding_gain_db=float(cg),
                efficiency_pct=float(eta),
                additions=int(adds),
                shifts=int(shifts),
            ),
        )
        for row, (eps, m, cg, eta, adds, shifts) in zip(rows, values)
    ]
    return SearchResult(
        entries=tuple(pareto_front(evaluated)),
        n_candidates=N_CANDIDATES,
        n_feasible=len(doubled) if feasibility_filter else None,
        n_evaluated=n_scored,
        model=model,
        feasibility_filter=feasibility_filter,
    )
