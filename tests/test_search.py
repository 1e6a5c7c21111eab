import itertools
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dctapprox.search as search_mod
from dctapprox import (
    CATALOG,
    MetricsReport,
    N_CANDIDATES,
    ParamVector,
    SignalModel,
    all_candidates_doubled,
    build_scaled,
    dominates,
    complexity,
    evaluate,
    feasible_mask,
    gram_diagnostics,
    objectives,
    pareto_front,
    run_search,
)
from dctapprox import core
from dctapprox.core import _FEASIBILITY_STAGES, ALLOWED_DOUBLED, _feasible, build_matrix
from dctapprox.kernel import _cheapest_rule
from dctapprox.metrics import (
    mse,
    total_error_energy,
    transform_efficiency,
    unified_coding_gain,
)
from dctapprox.search import (
    _even_table,
    _feasible_table,
    _front,
    _minimized,
    _odd_rows,
    _odd_table,
    _parts,
    _with_rho,
)
from helpers import (
    FEASIBLE_DOUBLED,
    _nondominated_mask,
    count_calls,
    objectives_reference,
    param_vectors,
    pareto_front_reference,
    rng,
)


class TestEnumeration:
    def test_total_count(self):
        assert all_candidates_doubled().shape == (N_CANDIDATES, 8)
        assert N_CANDIDATES == 5_764_801

    def test_first_vector_and_order_prefix(self):
        grid = all_candidates_doubled()
        assert ParamVector(tuple(int(v) for v in grid[0])).values == (-2.0,) * 8
        prefix = itertools.islice(itertools.product(ALLOWED_DOUBLED, repeat=8), 2500)
        assert [tuple(int(v) for v in row) for row in grid[:2500]] == list(prefix)

    def test_binary_subset_count(self):
        grid = all_candidates_doubled()
        binary = np.all((grid == 0) | (grid == 2), axis=1)
        assert int(binary.sum()) == 256


# One alphabet subset per parameter, each holding one feasible row's value
# so the product is not all infeasible.
_axis_values = st.sampled_from(FEASIBLE_DOUBLED).flatmap(
    lambda row: st.tuples(*(
        st.sets(st.sampled_from(ALLOWED_DOUBLED), max_size=3).map(
            lambda extra, v=v: sorted(extra | {v})
        )
        for v in row
    ))
)


class TestFeasibleSet:
    def test_contains_whole_catalog(self):
        table = set(FEASIBLE_DOUBLED)
        for pv in CATALOG.values():
            assert pv.doubled in table

    def test_excludes_zero(self):
        assert (0,) * 8 not in set(FEASIBLE_DOUBLED)

    def test_mask_agrees_with_scalar_check(self):
        gen = rng(99)
        rows = gen.choice([-4, -2, -1, 0, 1, 2, 4], size=(2000, 8)).astype(np.int8)
        mask = feasible_mask(rows)
        for row, ok in zip(rows, mask):
            g = gram_diagnostics(ParamVector(tuple(int(v) for v in row)))
            exact = g.off_diagonal_zero and all(d > 0 for d in g.diagonal_terms)
            assert exact == bool(ok)

    def test_count_is_stable(self):
        grid = all_candidates_doubled()
        assert int(feasible_mask(grid).sum()) == len(FEASIBLE_DOUBLED)

    def test_odd_grid_selection_equals_full_grid_mask(self):
        # FEASIBLE_DOUBLED masks the full 7^8 grid; the search masks the 7^7
        # grid without a2, whose survivors with every a2 are the feasible set.
        odd = _odd_rows(True)
        assert odd.dtype == np.int8 and np.all(odd[:, 1] == 0)
        expanded = sorted(
            row[:1] + (a2,) + row[2:]
            for row in (tuple(int(v) for v in r) for r in odd)
            for a2 in ALLOWED_DOUBLED
        )
        assert expanded == FEASIBLE_DOUBLED
        assert len(FEASIBLE_DOUBLED) == 2821

    def test_odd_grid_selection_keeps_grid_order(self):
        # Row for row against the materialized 7^7 grid masked by columns:
        # the open-axis filter must keep its rows in the grid's order.
        odd = search_mod._grid([ALLOWED_DOUBLED, (0,)] + [ALLOWED_DOUBLED] * 6)
        reference = odd[feasible_mask(odd)]
        selected = _odd_rows(True)
        assert selected.dtype == reference.dtype
        assert np.array_equal(selected, reference)

    def test_staged_filter_builds_no_grid_mask(self):
        # A mask over the whole 7^7 grid takes 823 KB as booleans alone; the
        # staged filter's largest table is 308 x 7 x 7.
        _odd_rows(True)
        tracemalloc.start()
        try:
            _odd_rows(True)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024

    @settings(max_examples=60, deadline=None)
    @given(_axis_values)
    def test_stage_groups_agree_with_columns(self, values):
        # Each stage group called on open axes of only the parameters it
        # takes, broadcast over the later ones, must equal the group on the
        # materialized product's columns; all groups together, _feasible.
        grid = search_mod._grid(values)
        columns = [grid[:, k].astype(np.int32) for k in range(8)]
        shape = tuple(len(v) for v in values)
        conjunction = np.ones(len(grid), dtype=bool)
        for stop, conditions in _FEASIBILITY_STAGES:
            axes = np.ix_(*(np.array(v, dtype=np.int32) for v in values[:stop]))
            on_axes = np.broadcast_to(conditions(*axes), shape[:stop])
            expanded = np.broadcast_to(
                on_axes.reshape(shape[:stop] + (1,) * (8 - stop)), shape
            ).ravel()
            assert np.array_equal(expanded, conditions(*columns[:stop]))
            conjunction &= expanded
        assert np.array_equal(conjunction, _feasible(*columns))

    @settings(max_examples=60, deadline=None)
    @given(_axis_values)
    def test_open_axes_agree_with_columns(self, values):
        # _feasible over the subsets' open axes, broadcast to the product's
        # shape, must equal the column call on the materialized product.
        axes = np.ix_(*(np.array(v, dtype=np.int32) for v in values))
        shape = tuple(len(v) for v in values)
        broadcast = np.broadcast_to(_feasible(*axes), shape).ravel()
        assert np.array_equal(broadcast, feasible_mask(search_mod._grid(values)))

    @given(
        st.one_of(
            st.sampled_from(FEASIBLE_DOUBLED),
            st.tuples(*[st.sampled_from(ALLOWED_DOUBLED)] * 8),
        ),
        st.sampled_from(ALLOWED_DOUBLED),
    )
    def test_feasibility_does_not_read_a2(self, row, a2):
        # The odd-grid selection is exact only while this holds.
        rows = np.array([row, row[:1] + (a2,) + row[2:]], dtype=np.int8)
        ok = feasible_mask(rows)
        assert ok[0] == ok[1]


def _report(eps, m, cg, eta, adds, shifts):
    return MetricsReport(
        epsilon=eps, mse=m, coding_gain_db=cg, efficiency_pct=eta,
        additions=adds, shifts=shifts,
    )


# Rows drawn from a small pool, so duplicates are common; 10**15 is the
# grid index of a metric near the grid's bound of 1e6.
_objective_rows = st.lists(
    st.tuples(*[st.sampled_from([0, 1, 2, 10**15])] * 6), min_size=1, max_size=6
).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=25))


# Rows of one pool: a row of large magnitudes of both signs plus small
# offsets, so different rows often share a row sum.
_shared_sum_rows = st.tuples(
    st.tuples(*[st.sampled_from([0, 10**15, -(10**15), 3 * 10**14, -(2**49)])] * 6),
    st.lists(st.tuples(*[st.sampled_from([0, 1, -1, 2, 4])] * 6), min_size=1, max_size=5),
).flatmap(lambda pool: st.lists(st.sampled_from([
    tuple(big + small for big, small in zip(pool[0], offsets)) for offsets in pool[1]
]), max_size=25))


class TestFront:
    @given(_objective_rows)
    @example([(10**15, 0, 0, 0, 0, 0), (10**15, 1, 0, 0, 0, 0)])
    @example([(10**15, 1, 0, 0, 0, 0), (10**15, 0, 0, 0, 0, 0)])
    def test_matches_brute_force(self, rows):
        objs = np.array(rows, dtype=np.int64).reshape(-1, 6)
        assert np.array_equal(_front(objs), np.flatnonzero(_nondominated_mask(objs)))

    @settings(max_examples=200, deadline=None)
    @given(_shared_sum_rows)
    def test_shared_sums_match_brute_force(self, rows):
        objs = np.array(rows, dtype=np.int64).reshape(-1, 6)
        assert np.array_equal(_front(objs), np.flatnonzero(_nondominated_mask(objs)))


# Floats a little off a few bases, so that rows tie, differ by less than
# 1e-9, and straddle the 1e-9 rounding step.
_near_floats = st.builds(
    lambda base, offset: base + offset,
    st.sampled_from([0.0, 0.5, 4.123456789, -8.0]),
    st.sampled_from([0.0, 1e-10, 4.9e-10, 5e-10, 5.1e-10, 1e-9, 2.5e-9]),
)
_reports = st.builds(
    MetricsReport,
    _near_floats, _near_floats, _near_floats, _near_floats,
    st.integers(16, 18), st.integers(0, 1),
)
# Entries drawn from a small pool of reports, so tie groups are common.
_evaluated = st.lists(_reports, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.tuples(param_vectors, st.sampled_from(pool)), max_size=12)
)


# Floats over the grid's domain, with the half-step cases of _near_floats.
_grid_rows = st.lists(
    st.tuples(*[st.one_of(st.floats(-1e6, 1e6, exclude_min=True, exclude_max=True),
                          _near_floats)] * 6),
    min_size=1, max_size=8,
)


class TestGrid:
    @settings(max_examples=300, deadline=None)
    @given(_grid_rows)
    def test_grid_is_np_round_one_to_one_in_order(self, rows):
        values = np.array(rows, dtype=np.float64)
        k = _minimized(values)
        assert k.dtype == np.int64
        rounded = np.round(values * [1, 1, -1, -1, 1, 1], 9)
        # Bit for bit up to the sign of zero, which adding 0.0 clears.
        assert (k / 1e9 + 0.0).tobytes() == (rounded + 0.0).tobytes()
        x, kx = rounded.ravel(), k.ravel()
        assert np.array_equal(x[:, None] < x, kx[:, None] < kx)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e7, -1e7, 1e6])
    @pytest.mark.parametrize("field", range(4))
    def test_values_off_the_grid_are_rejected(self, bad, field):
        values = [1.0, 1.0, 8.0, 90.0]
        values[field] = bad
        report = _report(*values, 16, 0)
        with pytest.raises(ValueError, match="finite and below 1e6"):
            objectives(report)
        with pytest.raises(ValueError, match="finite and below 1e6"):
            pareto_front([(CATALOG[1], report)])

    def test_costs_off_the_grid_are_rejected(self):
        with pytest.raises(ValueError, match="finite and below 1e6"):
            pareto_front([(CATALOG[1], _report(1.0, 1.0, 8.0, 90.0, 10**7, 0))])

    def test_largest_values_on_the_grid_are_accepted(self):
        report = _report(999999.999999999, -999999.999999999, 1.0, 1.0, 999999, 0)
        assert objectives(report) == (999999.999999999, -999999.999999999, -1.0, -1.0, 999999, 0)
        assert [e.report for e in pareto_front([(CATALOG[1], report)])] == [report]


class TestParetoFront:
    @given(_reports)
    def test_objectives_round_like_scalar_calls(self, report):
        got = objectives(report)
        assert got == objectives_reference(report)
        assert [type(v) for v in got] == [float] * 4 + [int] * 2

    @settings(max_examples=200, deadline=None)
    @given(_evaluated)
    def test_matches_reference_sort(self, evaluated):
        # Same entries, order and canonical flags as sorting on a key taken
        # from each entry's report.
        key = lambda front: [(e.params, e.report, e.canonical) for e in front]
        assert key(pareto_front(evaluated)) == key(pareto_front_reference(evaluated))

    def test_empty_input(self):
        assert pareto_front([]) == []

    def test_matches_run_search_on_feasible_set(self, model8):
        # Both ways to the front: per-vector evaluate over every feasible
        # vector, and the search's even/odd scoring.
        evaluated = [(ParamVector(d), evaluate(ParamVector(d), model8)) for d in FEASIBLE_DOUBLED]
        assert len(evaluated) == 2821
        key = lambda entries: [
            (e.params, e.canonical, objectives(e.report)) for e in entries
        ]
        assert key(pareto_front(evaluated)) == key(run_search(model8).entries)

    def test_single_candidate_survives(self):
        pv = CATALOG[1]
        front = pareto_front([(pv, _report(1, 1, 8, 90, 16, 0))])
        assert len(front) == 1 and front[0].canonical

    def test_dominated_candidate_removed(self):
        a = (CATALOG[1], _report(1.0, 1.0, 8.0, 90.0, 16, 0))
        b = (CATALOG[2], _report(2.0, 1.0, 8.0, 90.0, 16, 0))
        front = pareto_front([a, b])
        assert [e.params for e in front] == [CATALOG[1]]

    def test_tie_grouping_picks_nonnegative_lexicographic_rep(self):
        rep = _report(1.0, 1.0, 8.0, 90.0, 16, 0)
        neg = ParamVector.from_values([0, -1, 0, 1, 1, 0, 0, 1])
        pos = ParamVector.from_values([0, 1, 0, 1, 1, 0, 0, 1])
        front = pareto_front([(neg, rep), (pos, rep)])
        assert len(front) == 2
        canon = [e for e in front if e.canonical]
        assert [e.params for e in canon] == [pos]

    def test_input_order_does_not_matter(self, model8):
        gen = rng(5)
        sample = [FEASIBLE_DOUBLED[i] for i in gen.choice(len(FEASIBLE_DOUBLED), 300, replace=False)]
        evaluated = [(ParamVector(d), evaluate(ParamVector(d), model8)) for d in sample]
        front_a = pareto_front(evaluated)
        shuffled = evaluated[:]
        random.Random(17).shuffle(shuffled)
        front_b = pareto_front(shuffled)
        assert [(e.params, e.canonical) for e in front_a] == [
            (e.params, e.canonical) for e in front_b
        ]

    def test_against_brute_force_oracle(self, model8):
        gen = rng(31)
        idx = gen.choice(len(FEASIBLE_DOUBLED), 1000, replace=False)
        evaluated = []
        for i in idx:
            pv = ParamVector(FEASIBLE_DOUBLED[i])
            evaluated.append((pv, evaluate(pv, model8)))
        objs = [objectives(rep) for _, rep in evaluated]
        oracle = set()
        for i, oi in enumerate(objs):
            if not any(dominates(oj, oi) for j, oj in enumerate(objs) if j != i):
                oracle.add(evaluated[i][0].doubled)
        produced = {e.params.doubled for e in pareto_front(evaluated)}
        assert produced == oracle


class TestRunSearch:
    def test_full_sweep_front(self, model8):
        result = run_search(model8)
        assert result.n_candidates == N_CANDIDATES
        assert result.n_feasible == len(FEASIBLE_DOUBLED)
        # a feasible candidate is nonsingular, so each one is scored
        assert result.n_evaluated == result.n_feasible == 2821
        assert type(result.n_evaluated) is int
        canonical = {e.params.doubled: e.report for e in result.canonical}
        # spot rows: lowest-cost member and the 22-addition shift-free member
        j1 = canonical[CATALOG[1].doubled]
        assert (j1.additions, j1.shifts) == (16, 0)
        j11 = canonical[CATALOG[11].doubled]
        assert (j11.additions, j11.shifts) == (22, 0)
        for pv in CATALOG.values():
            assert pv.doubled in canonical

    def test_worker_count_is_invisible(self, model8):
        a = run_search(model8, workers=1)
        b = run_search(model8, workers=2)
        key = lambda res: [
            (e.params.doubled, e.canonical, objectives(e.report)) for e in res.entries
        ]
        assert key(a) == key(b)

    def test_nonpositive_workers_rejected(self, model8):
        with pytest.raises(ValueError, match="workers"):
            run_search(model8, workers=0)

    def test_other_sizes_rejected(self):
        with pytest.raises(ValueError, match="8-point seeds; model size is 16"):
            run_search(SignalModel(n=16))

    @pytest.mark.parametrize("rho", [0.5, 0.90, 0.95, 0.97, 0.99])
    def test_stacked_objectives_equal_per_candidate_exactly(self, rho):
        # Dominance is decided on the 1e-9 grid, so the even/odd scoring the
        # search runs must agree with evaluate() there, bit for bit.
        # It scores no candidate with a2 < 0: its mirror twin dominates it.
        model = SignalModel(rho=rho, n=8)
        values, rows = _scored_rows(_odd_rows(True), model)
        assert sorted(rows) == [d for d in FEASIBLE_DOUBLED if d[1] >= 0]
        stacked = dict(zip(rows, map(tuple, _minimized(values) / 1e9)))
        evaluated = {d: objectives(evaluate(ParamVector(d), model)) for d in FEASIBLE_DOUBLED}
        for d, objs in evaluated.items():
            if d[1] >= 0:
                assert objs == stacked[d]
            else:
                assert dominates(evaluated[_twin(d)], objs)


_RHOS = (0.5, 0.9, 0.95, 0.97, 0.99)


def _search_bytes(result):
    """A search's front, pickled: entries in order with their canonical
    flags and reports (floats bit for bit), and the number scored."""
    entries = [(e.params.doubled, e.canonical, e.report) for e in result.entries]
    return pickle.dumps((entries, result.n_evaluated))


class TestFeasibleTable:
    def test_built_once_for_every_rho(self, monkeypatch):
        _even_table.cache_clear()
        _feasible_table.cache_clear()
        calls = count_calls(monkeypatch, search_mod, ("_odd_rows", "_cheapest_rule"))
        run_search(SignalModel(rho=0.9))
        built = dict(calls)
        run_search(SignalModel(rho=0.97))
        assert built["_odd_rows"] == 1 and built["_cheapest_rule"] > 0
        assert calls == built
        even = _even_table()
        # A mini unfiltered search over three slices shares the even table:
        # the rule engine runs once per slice, on its odd rows alone.
        odd = _odd_rows(True)
        monkeypatch.setattr(search_mod, "_SLICE", 150)
        monkeypatch.setattr(search_mod, "_odd_rows", lambda feasibility_filter: odd)
        run_search(SignalModel(rho=0.97), feasibility_filter=False)
        assert calls["_cheapest_rule"] == built["_cheapest_rule"] + 3
        assert _even_table() is even and _even_table.cache_info().misses == 1

    def test_cached_arrays_are_read_only(self):
        table = _feasible_table()
        for array in (*table, *_even_table()):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_cached_equals_fresh_at_every_rho(self):
        # The table is built at one rho and reused at the others; no rho may
        # leak into it.  Each fresh result builds its own table.
        _even_table.cache_clear()
        _feasible_table.cache_clear()
        run_search(SignalModel(rho=0.7))
        cached = {rho: _search_bytes(run_search(SignalModel(rho=rho))) for rho in _RHOS}
        for rho in _RHOS:
            _even_table.cache_clear()
            _feasible_table.cache_clear()
            assert _search_bytes(run_search(SignalModel(rho=rho))) == cached[rho]

    def test_cached_equals_streamed_at_every_rho(self, monkeypatch):
        # The same feasible rows through the streamed path, which keeps no
        # table: a rho left anywhere in the filtered path would show here.
        cached = {rho: _search_bytes(run_search(SignalModel(rho=rho))) for rho in _RHOS}
        feasible = _odd_rows(True)
        monkeypatch.setattr(search_mod, "_odd_rows", lambda feasibility_filter: feasible)
        for rho in _RHOS:
            streamed = run_search(SignalModel(rho=rho), feasibility_filter=False)
            assert _search_bytes(streamed) == cached[rho]

    def test_not_built_at_import(self):
        import dctapprox

        code = ("import dctapprox, dctapprox.search as s; "
                "print(s._even_table.cache_info().currsize, "
                "s._feasible_table.cache_info().currsize)")
        env = dict(os.environ, PYTHONPATH=str(Path(dctapprox.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out == "0 0\n"


def _twin(d):
    """The mirror twin of a candidate with a2 != 0: a2 -> -1/a2, which is
    -4/a2 in doubled values (-2 <-> 1, -4 <-> 1/2, -1/2 <-> 2)."""
    return (d[0], -4 // d[1], *d[2:])


def _scored_rows(odd, model):
    """All chunks of the even/odd scoring pass, stacked: metric rows and the
    candidates as tuples."""
    chunks = [_with_rho(_odd_table(odd), _parts(_even_table(), 0, model), model)]
    values = np.vstack([v for v, _ in chunks])
    rows = [tuple(int(x) for x in r) for _, c in chunks for r in c]
    return values, rows


def _expanded(odd):
    """Every candidate of some odd rows: each row with every value of a2."""
    return [
        (int(r[0]), a2) + tuple(int(x) for x in r[2:])
        for r in odd
        for a2 in ALLOWED_DOUBLED
    ]


class TestUnfilteredSweep:
    def _reference_objectives(self, doubled_row, model):
        pv = ParamVector(tuple(int(v) for v in doubled_row))
        t = build_matrix(pv).to_float()
        norms = np.sqrt(np.sum(t * t, axis=1))
        if np.any(norms == 0):
            return None
        c = t / norms[:, None]
        if abs(np.linalg.det(c)) <= 1e-12:
            return None
        cost = complexity(pv)
        return (
            round(total_error_energy(c), 9),
            round(mse(c, model), 9),
            round(-unified_coding_gain(c, model), 9),
            round(-transform_efficiency(c, model), 9),
            cost.additions,
            cost.shifts,
        )

    def test_batch_matches_reference(self, model8):
        gen = rng(77)
        odd = gen.choice([-4, -2, -1, 0, 1, 2, 4], size=(60, 8)).astype(np.int8)
        odd[:20] = np.array(FEASIBLE_DOUBLED[:140:7], dtype=np.int8)
        odd[20] = 0  # zero rows: must be excluded
        odd[21] = (0, 0, 2, 0, 2, 2, 2, -2)  # rows 5 and 7 equal: singular
        odd[:, 1] = 0
        values, kept = _scored_rows(odd, model8)
        candidates = _expanded(odd)
        reference = [self._reference_objectives(d, model8) for d in candidates]
        expected = dict(zip(candidates, reference))
        assert expected[(0, 0, 2, 0, 2, 2, 2, -2)] is None
        nonsingular = [d for d, e in zip(candidates, reference) if e]
        assert sorted(kept) == sorted(d for d in nonsingular if d[1] >= 0)
        # A pruned twin is nonsingular with its partner, which dominates it,
        # so each kept candidate with a2 != 0 counts twice.
        for d in candidates:
            if d[1] < 0:
                assert (expected[d] is None) == (expected[_twin(d)] is None)
                assert expected[d] is None or dominates(expected[_twin(d)], expected[d])
        assert len(kept) + sum(d[1] != 0 for d in kept) == len(nonsingular)
        objs = _minimized(values) / 1e9
        for d, got in zip(kept, objs):
            assert got == pytest.approx(expected[d], abs=1e-8)

    def test_cost_split_on_a_full_slice(self, model8):
        # The scoring adds a2's cost to the odd row's; on one whole slice of
        # the unfiltered grid it must equal the rule engine on every scored
        # candidate, and on its unscored mirror twin, which stands for it.
        odd = _odd_rows(False)[: search_mod._SLICE]
        values, candidates = _with_rho(_odd_table(odd), _parts(_even_table(), 0, model8), model8)
        adds, shifts, _rule = _cheapest_rule(candidates)
        paired = candidates[:, 1] != 0
        assert len(candidates) + np.count_nonzero(paired) > 6 * len(odd)
        assert np.array_equal(values[:, 4], adds) and np.array_equal(values[:, 5], shifts)
        twins = candidates[paired].copy()
        twins[:, 1] = -4 // twins[:, 1]
        assert np.all(twins[:, 1] < 0)
        twin_adds, twin_shifts, _rule = _cheapest_rule(twins)
        assert np.array_equal(twin_adds, adds[paired])
        assert np.array_equal(twin_shifts, shifts[paired])

    def test_odd_determinant_decides_every_a2_on_a_full_slice(self):
        # The odd table keeps exactly the odd rows whose candidates are
        # nonsingular after row scaling, with every a2, and the integer
        # determinant that decides it comes out of float elimination within
        # far less than 1/2 of an integer.
        odd = _odd_rows(False)[: search_mod._SLICE]
        det = np.linalg.det(core._half_units(*odd.T)[:, 1::2, :4])
        assert np.all(np.abs(det - np.round(det)) < 1e-9) and np.abs(det).max() <= 3072
        kept = {tuple(r) for r in _odd_table(odd).rows.tolist()}
        assert 0 < len(kept) < len(odd)
        for a2 in ALLOWED_DOUBLED:
            odd[:, 1] = a2
            t = core._half_units(*odd.T) / 2.0
            norms = np.sqrt(np.sum(t * t, axis=2))
            scaled = t / np.where(norms == 0, 1.0, norms)[..., None]
            nonsingular = np.all(norms > 0, axis=1) & (np.abs(np.linalg.det(scaled)) > 1e-12)
            odd[:, 1] = 0
            assert [tuple(r) in kept for r in odd.tolist()] == nonsingular.tolist()

    def test_mini_sweep_equals_brute_force(self, model8, monkeypatch):
        gen = rng(13)
        odd = gen.choice([-4, -2, -1, 0, 1, 2, 4], size=(300, 8)).astype(np.int8)
        odd[:15] = np.array([list(pv.doubled) for pv in CATALOG.values()], dtype=np.int8)
        odd[:, 1] = 0
        monkeypatch.setattr(search_mod, "_SLICE", 70)
        monkeypatch.setattr(search_mod, "_odd_rows", lambda feasibility_filter: odd)
        result = run_search(model8, feasibility_filter=False)
        reference = [self._reference_objectives(d, model8) for d in _expanded(odd)]
        objs = np.array([e for e in reference if e is not None], dtype=np.float64)
        brute = objs[_nondominated_mask(objs)]
        produced = np.array(sorted(objectives(e.report) for e in result.entries))
        expected = np.array(sorted(map(tuple, brute)))
        assert result.n_evaluated == len(objs)
        assert result.n_feasible is None
        assert produced.shape == expected.shape
        assert np.allclose(produced, expected, atol=1e-9)


# a2 (doubled) of each pruned candidate and of its scored mirror twin.
_TWIN_PAIRS = ((-4, 1), (-2, 2), (-1, 4))


def _even_rows_every_a2():
    """The 7 even blocks' rows (a2 alone set) in ALLOWED_DOUBLED order, with
    a2 -> row index."""
    rows = np.array([(0, a2) + (0,) * 6 for a2 in ALLOWED_DOUBLED], dtype=np.int8)
    return rows, {a2: i for i, a2 in enumerate(ALLOWED_DOUBLED)}


def _parallel(x, y):
    """x = c y for one c in {+-1, +-2, +-1/2}."""
    return any(np.array_equal(2 * x, c * y) for c in (-4, -2, -1, 1, 2, 4))


def _signed_sorted_rows(matrix):
    """The rows of a matrix, each signed so that its first nonzero entry is
    positive, in lexicographic order: the matrix up to row order and sign."""
    first = matrix[np.arange(len(matrix)), np.argmax(matrix != 0, axis=1)]
    signed = matrix * np.sign(first)[:, None]
    return signed[np.lexsort(signed.T[::-1])]


class TestMirrorTwins:
    def test_twin_matrices_swap_rows_2_and_6(self):
        # Every feasible odd row and 2,000 drawn ones: only rows 2 and 6
        # read a2, and the twins' rows 2 and 6 are swapped, up to sign and a
        # factor of 2.
        drawn = rng(3).choice(ALLOWED_DOUBLED, size=(2000, 8)).astype(np.int8)
        odd = np.vstack([_odd_rows(True), drawn])
        for pruned, kept in _TWIN_PAIRS:
            assert _twin((0, pruned)) == (0, kept) and _twin((0, kept)) == (0, pruned)
            odd[:, 1] = pruned
            a = core._half_units(*odd.T)
            odd[:, 1] = kept
            b = core._half_units(*odd.T)
            others = [0, 1, 3, 4, 5, 7]
            assert np.array_equal(a[:, others], b[:, others])
            assert _parallel(a[:, 2], b[:, 6]) and _parallel(a[:, 6], b[:, 2])
            assert not np.array_equal(a[:, 2], b[:, 2])

    def test_even_rows_are_orthogonal_for_every_a2(self):
        # Every even block is orthonormal once scaled, so the odd block alone
        # decides whether a candidate is singular, with every a2 alike: the
        # search counts each nonsingular odd row once per value of a2.
        rows, _index = _even_rows_every_a2()
        even = core._half_units(*rows.T)[:, ::2]
        for gram in even @ even.swapaxes(1, 2):
            assert np.array_equal(gram, np.diag(np.diag(gram))) and np.all(np.diag(gram) > 0)
        assert _even_table().rows[:, 1].tolist() == [0, 1, 2, 4]

    def test_kept_twin_dominates_even_parts_at_every_rho(self):
        rows, index = _even_rows_every_a2()
        table = search_mod._table(rows, search_mod._blocks(core._half_units(*rows.T), 0), 0)
        rhos = np.linspace(0.0, 1.0, 4003)[1:-1]
        parts = np.stack([_parts(table, 0, SignalModel(rho=rho, n=8)) for rho in rhos])
        assert len(rhos) == 4001
        for pruned, kept in _TWIN_PAIRS:
            p, k = parts[:, index[pruned]], parts[:, index[kept]]
            # error energy, additions, shifts, mse, gain, efficiency parts
            assert np.array_equal(p[:, 1:3], k[:, 1:3])
            assert np.all(p[:, 0] - k[:, 0] >= 1)
            assert np.all(p[:, 3] - k[:, 3] >= 1e-5)
            assert np.all(np.abs(p[:, 4:] - k[:, 4:]) <= 1e-12)

    @pytest.mark.parametrize("size", [16, 32])
    def test_scaled_twins_have_the_same_rows(self, size):
        seeds = [pv for pv in CATALOG.values() if pv.doubled[1] != 0]
        assert len(seeds) == 9
        for pv in seeds:
            twin = ParamVector(_twin(pv.doubled))
            a = build_scaled(pv, size).transform.matrix
            b = build_scaled(twin, size).transform.matrix
            assert not np.array_equal(a, b)
            assert np.array_equal(_signed_sorted_rows(a), _signed_sorted_rows(b))
