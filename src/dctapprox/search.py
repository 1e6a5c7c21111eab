"""Exhaustive sweep of the 7^8 parameter space and Pareto-front extraction
for the six-objective problem (error energy, mse, -gain, -efficiency,
additions, shifts).

Both modes run one loop over slices of the odd rows of the 7^7 grid with
a2 pinned.  The first slice is the 403 rows that pass the six integer
checks (none reads a2; one call on open axes finds them), where the
filtered search stops; the unfiltered one goes on through the rest.  After
the input butterfly a candidate is block-diagonal, with an even block of
a2 alone and an odd block of the other parameters, and every objective is
an odd part plus an even part: the metrics are sums of the two blocks'
kernel values, and the cost is the odd row's plus what a2 adds.  So each
slice is scored against the 4 values a2 >= 0 in one broadcast (a negative
a2 gives a mirror twin of one of them that is always dominated, so it is
counted but not scored), in two passes: a rho-free pass keeps the
nonsingular odd rows (one float determinant each) and builds what no
signal model changes (their blocks, error energy, costs and synthesis
gains), and a rho pass adds the mse, band variances and efficiency.  The
even table and the first slice's are built once per process and kept.
One non-dominated filter decides all dominance on the integer 1e-9 grid,
visiting the rows by one argsort of their integer row sums, where a
dominator's is strictly smaller.  Each slice is cut to its own front, and
the union of the slice fronts, if more than one, once: the front of a
union is the front of the union of its parts' fronts.  The first front
(13 to 19 rows) pre-cuts each later slice in its cut, dropping most of
it: a dropped row is dominated by a scored candidate, so it is neither on
the front nor tied with a member.  Scoring, the cuts and the grouping pass
the (m, 6) metric rows and the (m, 8) int8 candidates, and pareto_front is
one cut and the grouping.  Each entry's output order is taken from its
grid row, so the order of the rows that reach the grouping never shows.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import astuple, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import core, metrics
from .core import (
    ALLOWED_DOUBLED,
    ParamVector,
    _feasible,
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
    "pareto_front",
    "run_search",
]

N_CANDIDATES = 7**8  # 5,764,801

_SLICE = 3 * 7**4  # odd rows scored together after the first slice
_NO_ROWS = np.empty((0, 6), dtype=np.int64)  # no killers (see _cut)


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
    to 0, in _grid order: with the filter only its 403 feasible rows,
    without it the other 823,140, so the two never share a row.
    Feasibility does not depend on a2, so each feasible row gives 7 feasible
    candidates.  _feasible runs once on open axes, whose mask's C order is
    _grid order, so the filter builds no table of the grid's rows."""
    columns = [np.array(c, dtype=np.int8) for c in [ALLOWED_DOUBLED, (0,)] + [ALLOWED_DOUBLED] * 6]
    mask = _feasible(*np.ix_(*(c.astype(np.int32) for c in columns)))
    if not feasibility_filter:
        return _grid(columns)[~mask.ravel()]
    index = np.unravel_index(np.flatnonzero(mask), mask.shape)
    return np.column_stack([c[i] for c, i in zip(columns, index)])


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
    ordered as in _tie_grouped: one cut (see _cut) and the search's
    grouping.  Params and reports are rebuilt from the float64 and int8
    rows, so they equal the ones passed in by value (floats round-trip
    exactly, costs are small integers) but are not the same objects."""
    values = np.array([astuple(r) for _, r in evaluated], dtype=np.float64).reshape(-1, 6)
    rows = np.array([pv.doubled for pv, _ in evaluated], dtype=np.int8).reshape(-1, 8)
    return _tie_grouped(*_cut(values, rows))


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
    and so does the int 4x4 of its antisymmetric rows' first halves.  Its
    determinant is an integer of magnitude at most 3,072, and a row is kept
    when LAPACK's float ``np.linalg.det`` of the 4x4 exceeds 0.5 in
    magnitude.  That is exact while the float error stays below 0.5:
    test_odd_determinant_decides_every_a2_on_a_full_slice bounds it by
    1e-9, and over all 823,543 odd rows it measured at most 4.6e-12
    (numpy 2.4.6, 2026-10-22).  Singular rows are dropped before they are
    scaled or inverted."""
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
    """The odd table of the feasible odd rows, every search's first slice,
    built on the first search and kept read-only for the process."""
    table = _odd_table(_odd_rows(True))
    for array in table:
        array.setflags(write=False)
    return table


def _cut(values: np.ndarray, rows: np.ndarray, killers=_NO_ROWS) -> tuple[np.ndarray, np.ndarray]:
    """The non-dominated (m, 6) metric rows and their (m, 8) candidates, in
    input order.  Killers, _minimized rows of scored candidates, pre-cut them:
    they go ahead in the one _front call and are left out of its output."""
    keep = _front(np.concatenate([killers, _minimized(values)]))
    keep = keep[keep >= len(killers)] - len(killers)
    return values[keep], rows[keep]


def run_search(
    model: SignalModel,
    feasibility_filter: bool = True,
    workers: int = 1,
) -> SearchResult:
    """Full pipeline, one loop over slices of odd rows: score each slice's
    odd table (see _odd_table) with every a2 >= 0, cut it to its front (see
    _cut), cut the union of the slice fronts once if there are more than
    one, and group the survivors' ties (see _tie_grouped).  The first slice
    is the feasible table (see _feasible_table), so later filtered searches,
    which stop after it, run at any rho only the rho pass, one cut and the
    grouping.  Without the filter the loop goes on through the other odd
    rows (see _odd_rows), scored with row-norm diagonal scaling
    (orthogonality not required), each slice pre-cut by the first front.
    The cuts are exact: a row off the whole front is dominated by a row on
    it (on the integer grid dominance is transitive), which survives its
    own slice's cut and the pre-cut.  A candidate with a2 < 0 is dominated
    by its mirror twin (see _even_table), so it is not scored, but it is
    counted: each nonsingular odd row stands for one candidate per a2 (with
    the filter, 1,612 scored stand for 2,821).  ``workers`` must be at
    least 1 and has no effect: the search runs in one process.
    """
    if model.n != 8:
        raise ValueError(f"the search evaluates 8-point seeds; model size is {model.n}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    even_parts = _parts(_even_table(), 0, model)
    odd = np.empty((0, 8), dtype=np.int8) if feasibility_filter else _odd_rows(False)
    tables = (_odd_table(odd[i : i + _SLICE]) for i in range(0, len(odd), _SLICE))
    n_evaluated, fronts = 0, []
    for table in itertools.chain([_feasible_table()], tables):
        n_evaluated += len(table.rows) * len(ALLOWED_DOUBLED)  # every a2, scored or not
        killers = _minimized(fronts[0][0]) if fronts else _NO_ROWS  # the first front
        fronts.append(_cut(*_with_rho(table, even_parts, model), killers))
        del table  # released before the next slice's table is built
    values, rows = fronts[0] if len(fronts) == 1 else _cut(*map(np.concatenate, zip(*fronts)))
    return SearchResult(
        entries=tuple(_tie_grouped(values, rows)),
        n_candidates=N_CANDIDATES,
        n_feasible=n_evaluated if feasibility_filter else None,
        n_evaluated=n_evaluated,
        model=model,
        feasibility_filter=feasibility_filter,
    )
