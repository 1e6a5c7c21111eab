"""Exhaustive sweep of the 7^8 parameter space and Pareto-front extraction
for the six-objective problem (error energy, mse, -gain, -efficiency,
additions, shifts).

Both modes run one scoring pass over the odd rows of the 7^7 grid with a2
pinned: all of them, or with the feasibility filter the 403 that pass the
six integer checks (none reads a2).  The filter binds the parameters in
grid order, in three stages, and applies each check once every parameter
it reads is bound, so no table spans the 7^7 grid.  After the input
butterfly a candidate is block-diagonal, with an even block of a2 alone
and an odd block of the other parameters, and every objective is an odd
part plus an even part: the metrics are sums of the two blocks' kernel
values, and the cost is the odd row's plus what a2 adds.  So each slice
of odd rows is scored against the 4 values a2 >= 0 in one broadcast (a
negative a2 gives a mirror twin of one of them that is always dominated,
so it is counted but not scored), in two passes: a rho-free pass keeps
the nonsingular odd rows (one integer determinant each) and builds what
no signal model changes (their blocks, error energy, costs and synthesis
gains), and a rho pass adds the mse, band variances and efficiency.  The
even table and the filtered search's odd table are built once per
process and kept read-only; the unfiltered search builds one odd table
per slice and keeps none.
One non-dominated filter decides all dominance on the integer 1e-9 grid:
it cuts each scored chunk, stacked under the running front, back to a
front, visiting the rows by one argsort of their integer row sums, where
a dominator's is strictly smaller.  Scoring, the fold and the tie
grouping pass two arrays, the (m, 6) metric rows and the (m, 8) int8
candidates, and pareto_front is the fold and grouping over one chunk.
Each entry's output order is taken from its grid row.
"""

from __future__ import annotations

import functools
from dataclasses import astuple, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import core, metrics
from .core import (
    _FEASIBILITY_STAGES,
    ALLOWED_DOUBLED,
    ParamVector,
    _half_units,
    _row_scale,
    feasible_mask,
)
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

_SLICE = 3 * 7**4  # odd rows scored together; the 403 feasible ones form one slice


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
    to 0, in _grid order; with the filter only its feasible rows.
    Feasibility does not depend on a2, so each feasible row gives 7 feasible
    candidates.  The filter binds the parameters in grid order, one stage
    group of conditions at a time (core._FEASIBILITY_STAGES): it extends the
    surviving prefix rows by the group's new parameters on open axes and
    keeps the extensions that pass the group.  C order over (prefix row, new
    axes) is the grid's lexicographic order, so the survivors (25 through
    a4, 308 through a6, 403 through a8) stay in _grid order."""
    columns = [np.array(c, dtype=np.int8) for c in [ALLOWED_DOUBLED, (0,)] + [ALLOWED_DOUBLED] * 6]
    if not feasibility_filter:
        return _grid(columns)
    rows = np.empty((1, 0), dtype=np.int32)
    for stop, conditions in _FEASIBILITY_STAGES:
        new = [c.astype(np.int32) for c in columns[rows.shape[1] : stop]]
        prefix, *axes = np.ix_(np.arange(len(rows)), *new)
        mask = conditions(*(rows[prefix, k] for k in range(rows.shape[1])), *axes)
        kept, *index = np.unravel_index(np.flatnonzero(mask), mask.shape)
        rows = np.column_stack([rows[kept], *(c[i] for c, i in zip(new, index))])
    return rows.astype(np.int8)


def _minimized(values: np.ndarray) -> np.ndarray:
    """Minimization rows of (m, 6) metric rows (epsilon, mse, gain,
    efficiency, additions, shifts), gain and efficiency negated, as int64
    grid indices k = rint(v * 1e9).  np.round(v, 9) is k / 1e9; for |v| <
    1e6 (else ValueError) the two agree in order and six k sum exactly."""
    if not np.all(np.abs(values) < 1e6):
        raise ValueError("metric values must be finite and below 1e6 in magnitude")
    return np.rint(values * [1e9, 1e9, -1e9, -1e9, 1e9, 1e9]).astype(np.int64)


def objectives(report: MetricsReport) -> tuple:
    """Minimization vector of one report: the one-row case of _minimized
    over 1e9, with its costs kept as the report's integers."""
    floats = _minimized(np.array(astuple(report), dtype=np.float64))[:4] / 1e9
    return (*floats.tolist(), report.additions, report.shifts)


def dominates(x: Sequence, y: Sequence) -> bool:
    """Component-wise dominance for minimization."""
    return all(a <= b for a, b in zip(x, y)) and any(a < b for a, b in zip(x, y))


@dataclass(frozen=True)
class ParetoEntry:
    params: ParamVector
    report: MetricsReport
    canonical: bool


def _front(objs: np.ndarray) -> np.ndarray:
    """Sorted indices of the int64 rows no other row dominates (minimization).

    A dominator is no larger in any column and not equal, so on integers
    its row sum is strictly smaller.  Visited by one stable argsort of the
    sums, a row comes after all its dominators, so each row still there
    when visited is on the front and drops the later rows it dominates: no
    smaller in any column, larger in sum.  Identical rows never dominate
    each other, so whole tie groups survive.
    """
    sums = objs.sum(axis=1)
    rest = np.argsort(sums, kind="stable")
    front = []
    while rest.size:
        top, rest = rest[0], rest[1:]
        front.append(top)
        rest = rest[~(np.all(objs[top] <= objs[rest], axis=1) & (sums[rest] > sums[top]))]
    return np.sort(np.array(front, dtype=np.int64))


def _canonical_rep(group: list[ParamVector]) -> ParamVector:
    # Most nonnegative components first, then lexicographically smallest
    # (doubled values order and sign alike).
    return min(group, key=lambda pv: (-sum(1 for v in pv.doubled if v >= 0), pv.doubled))


def _tie_grouped(values: np.ndarray, rows: np.ndarray) -> list[ParetoEntry]:
    """Front entries of non-dominated (m, 6) metric rows and their (m, 8)
    candidates, each with its ParamVector (alphabet checked) and its
    MetricsReport built here.

    Members with identical _minimized rows are grouped; exactly one member
    per group is flagged canonical.  Output order is deterministic:
    additions, then error energy, then shifts, then mse (on the grid, in
    rounded-float order), canonical members first within a tie group.
    """
    members = [
        (ParamVector(tuple(row)), MetricsReport(*vals[:4], *map(int, vals[4:])))
        for row, vals in zip(rows.tolist(), values.tolist())
    ]
    groups: dict[tuple, list[int]] = {}
    for i, obj in enumerate(_minimized(values).tolist()):
        groups.setdefault(tuple(obj), []).append(i)
    keyed = []
    for (eps, m, _gain, _eff, adds, shifts), idxs in groups.items():
        rep_pv = _canonical_rep([members[i][0] for i in idxs])
        for i in idxs:
            pv, report = members[i]
            canonical = pv == rep_pv
            key = (adds, eps, shifts, m, not canonical, pv.doubled)
            keyed.append((key, ParetoEntry(pv, report, canonical)))
    return [entry for _, entry in sorted(keyed, key=lambda pair: pair[0])]


def pareto_front(
    evaluated: Sequence[tuple[ParamVector, MetricsReport]],
) -> list[ParetoEntry]:
    """Non-dominated entries of an evaluated collection, ties grouped and
    ordered as in _tie_grouped: the search's fold and grouping over one
    chunk.  Params and reports are rebuilt from the float64 and int8 rows,
    so they equal the ones passed in by value (floats round-trip exactly,
    costs are small integers) but are not the same objects."""
    values = np.array([astuple(r) for _, r in evaluated], dtype=np.float64).reshape(-1, 6)
    rows = np.array([pv.doubled for pv, _ in evaluated], dtype=np.int8).reshape(-1, 8)
    return _tie_grouped(*_running_front([(values, rows)]))


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


# The orthonormal input butterfly Q in two halves: rows (e_i + e_7-i)/sqrt2
# and (e_i - e_7-i)/sqrt2, i < 4.  A candidate's even rows are symmetric and
# its odd rows antisymmetric, so Q maps each onto one half.
_EYE, _MIRROR = np.eye(8)[:4], np.eye(8)[7:3:-1]
_Q_HALVES = ((_EYE + _MIRROR) / np.sqrt(2.0), (_EYE - _MIRROR) / np.sqrt(2.0))
# The even and odd rows of the exact DCT in the butterfly basis.
_REFS = tuple(core.exact_dct_matrix(8)[parity::2] @ q.T for parity, q in enumerate(_Q_HALVES))


def _blocks(half: np.ndarray, parity: int) -> np.ndarray:
    """The even (parity 0) or odd (1) rows of half-unit 8x8 matrices,
    row-normalized as orthonormal_approx scales them, in the butterfly
    basis: 4x4 blocks."""
    rows = half[..., parity::2, :]
    return (_row_scale(rows)[..., None] * (rows / 2.0)) @ _Q_HALVES[parity].T


class _Table(NamedTuple):
    """Blocks of one parity with what no signal model changes: their int8
    rows, the blocks, their synthesis gains, and columns error energy,
    additions and shifts."""

    rows: np.ndarray
    blocks: np.ndarray
    synth: np.ndarray
    fixed: np.ndarray


def _table(rows: np.ndarray, blocks: np.ndarray, parity: int) -> _Table:
    eps = metrics._error_energy(blocks, _REFS[parity])
    fixed = np.column_stack([eps, *_cheapest_rule(rows)[:2]])
    return _Table(rows, blocks, metrics._synthesis_gains(blocks), fixed)


def _parts(table: _Table, parity: int, model: SignalModel) -> np.ndarray:
    """Columns error energy, additions, shifts (the table's), mse, coding
    gain, efficiency numerator and denominator of an even (parity 0) or odd
    (1) table's blocks: the model's parts against the same block of the
    exact DCT and of Q R Q^t (block-diagonal: R is centrosymmetric)."""
    q = _Q_HALVES[parity]
    r = q @ metrics.ar1_covariance(model) @ q.T
    return np.column_stack([
        table.fixed,
        metrics._mse(table.blocks, _REFS[parity], r, 8),
        metrics._coding_gain(table.blocks, r, 8, table.synth),
        *metrics._efficiency_parts(table.blocks, r),
    ])


@functools.cache
def _even_table() -> _Table:
    """The 4 even blocks of a2 in {0, 1/2, 1, 2} (doubled 0, 1, 2, 4; their
    rows have a2 alone set), with the costs what a2 adds to an odd row's.
    Built on first use and kept read-only for the process.

    A negative a2 is never scored: it is the mirror twin of -1/a2.  Only rows
    2 and 6 read a2, as (2, u, -u, -2, -2, -u, u, 2) and (u, -2, 2, -u, -u,
    2, -2, u) for doubled u, and doubled -4/u turns them into (2/u) times
    row 6 and (-2/u) times row 2.  So a candidate with a2 = -1, -2 or -1/2
    is its twin with a2 = 1, 1/2 or 2 with rows 2 and 6 swapped, up to sign
    and a factor of 2 that the row scaling removes.  Coding gain and
    efficiency do not change under a row permutation or a sign flip, and
    the twins' costs are equal, but the kept twin's even error energy is
    lower by more than 1 and its even mse by more than 1e-5 (on a 4,001-point
    rho grid over (0, 1)), so the pruned twin is dominated and never on the
    front.  Their gain and efficiency parts differ only by rounding, within
    1e-12, and no scored pair was found to straddle _minimized's 1e-9 step.
    """
    rows = np.array([(0, a2) + (0,) * 6 for a2 in ALLOWED_DOUBLED if a2 >= 0], dtype=np.int8)
    table = _table(rows, _blocks(_half_units(*rows.T), 0), 0)
    table.fixed[:, 1:] -= _cheapest_rule(np.zeros(8))[:2]  # the cost a2 adds
    for array in table:
        array.setflags(write=False)
    return table


def _odd_table(odd: np.ndarray) -> _Table:
    """The rho-free pass over odd rows: the table of the nonsingular ones.
    The cost is the odd row's (a2 = 0) plus what a2 adds, because every
    rule weighs a2 alike (2) and no chain holds it, so a2 neither changes
    which rules apply nor which is cheapest.  The even rows are orthogonal
    and nonzero for every a2, so the odd block alone decides singularity,
    and so does the int 4x4 of its antisymmetric rows' first halves, whose
    determinant is an integer of magnitude at most 3,072.  Singular rows
    are dropped before they are scaled or inverted."""
    half = _half_units(*odd.T)
    live = np.abs(np.linalg.det(half[:, 1::2, :4])) > 0.5
    return _table(odd[live], _blocks(half[live], 1), 1)


def _with_rho(table: _Table, even_parts: np.ndarray, model: SignalModel):
    """The rho pass: metric rows (epsilon, mse, gain, efficiency, additions,
    shifts) of an odd table's rows with every a2 of the even table, and
    those candidates.  Every metric sum is the odd block's plus the even
    block's, whose parts are given."""
    eps, adds, shifts, m, gain, eff_num, eff_den = (
        (_parts(table, 1, model)[:, None] + even_parts).reshape(-1, 7).T
    )
    candidates = (table.rows[:, None] + _even_table().rows).reshape(-1, 8)
    return np.column_stack([eps, m, gain, eff_num / eff_den, adds, shifts]), candidates


@functools.cache
def _feasible_table() -> _Table:
    """The odd table of the feasible odd rows (one slice), built on the
    first filtered search and kept read-only for the process."""
    table = _odd_table(_odd_rows(True))
    for array in table:
        array.setflags(write=False)
    return table


def _running_front(scored) -> tuple[np.ndarray, np.ndarray]:
    """Fold a stream of (metric rows, candidate rows) chunks into the
    non-dominated metric rows and their candidates.  Each chunk is stacked
    under the front and the stack cut back to its front, which keeps rows
    in chunk order."""
    values = np.empty((0, 6))
    rows = np.empty((0, 8), dtype=np.int8)
    for new_values, new_rows in scored:
        values = np.vstack([values, new_values])
        rows = np.vstack([rows, new_rows])
        keep = _front(_minimized(values))
        values, rows = values[keep], rows[keep]
    return values, rows


def run_search(
    model: SignalModel,
    feasibility_filter: bool = True,
    workers: int = 1,
) -> SearchResult:
    """Full pipeline: score each odd table (see _odd_table) with every
    a2 >= 0, fold each chunk into the running front, and group the
    survivors' ties (see _tie_grouped): they are already the front, so no
    second non-dominated filter runs.  A candidate with a2 < 0 is dominated
    by its mirror twin (see _even_table), so it is not scored, but it is
    counted: each nonsingular odd row stands for one candidate per a2.  The
    filtered search reads one odd table, built on its first call (see
    _feasible_table), so later calls at any rho run only the rho pass, the
    fold and the grouping; a feasible candidate is nonsingular, so each one
    is counted (1,612 scored stand for 2,821).  Without the filter every
    nonsingular candidate is counted, and those with a2 >= 0 scored, with
    row-norm diagonal scaling (orthogonality not required), about 1,900
    times as many, one slice of odd rows at a time.  ``workers`` must be at
    least 1 and has no effect: the search runs in one process.
    """
    if model.n != 8:
        raise ValueError(f"the search evaluates 8-point seeds; model size is {model.n}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if feasibility_filter:
        tables = [_feasible_table()]
    else:
        odd = _odd_rows(False)
        tables = (_odd_table(odd[i : i + _SLICE]) for i in range(0, len(odd), _SLICE))
    even_parts = _parts(_even_table(), 0, model)
    n_evaluated = 0

    def score(table: _Table):
        nonlocal n_evaluated
        n_evaluated += len(table.rows) * len(ALLOWED_DOUBLED)  # every a2, scored or not
        return _with_rho(table, even_parts, model)

    # map drops each table before the next is built, so one slice's is live.
    values, rows = _running_front(map(score, tables))
    return SearchResult(
        entries=tuple(_tie_grouped(values, rows)),
        n_candidates=N_CANDIDATES,
        n_feasible=n_evaluated if feasibility_filter else None,
        n_evaluated=n_evaluated,
        model=model,
        feasibility_filter=feasibility_filter,
    )
