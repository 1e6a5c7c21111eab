import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import dctapprox.search as search_mod
from dctapprox import (
    CATALOG,
    MetricsReport,
    N_CANDIDATES,
    ParamVector,
    all_candidates_doubled,
    dominates,
    complexity,
    evaluate,
    feasible_candidates,
    feasible_mask,
    gram_diagnostics,
    objectives,
    pareto_front,
    run_search,
)
from dctapprox.core import ALLOWED_DOUBLED
from dctapprox.metrics import (
    mse,
    total_error_energy,
    transform_efficiency,
    unified_coding_gain,
)
from dctapprox.search import (
    _feasible_doubled,
    _front,
    _minimized,
    _score_chunk,
    enumerate_candidates,
)
from helpers import FEASIBLE_DOUBLED, _nondominated_mask, rng


class TestEnumeration:
    def test_total_count(self):
        assert all_candidates_doubled().shape == (N_CANDIDATES, 8)
        assert N_CANDIDATES == 5_764_801

    def test_stream_yields_every_candidate(self):
        assert sum(1 for _ in enumerate_candidates()) == N_CANDIDATES

    def test_first_vector_and_order_prefix(self):
        gen = enumerate_candidates()
        first = next(gen)
        assert first.values == (-2.0,) * 8
        grid = all_candidates_doubled()
        for i, pv in enumerate(itertools.islice(enumerate_candidates(), 2500)):
            assert pv.doubled == tuple(int(v) for v in grid[i])

    def test_binary_subset_count(self):
        grid = all_candidates_doubled()
        binary = np.all((grid == 0) | (grid == 2), axis=1)
        assert int(binary.sum()) == 256


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
        # grid without a2 and expands over a2.
        selected = _feasible_doubled()
        assert selected.dtype == np.int8
        assert [tuple(int(v) for v in row) for row in selected] == FEASIBLE_DOUBLED
        assert [pv.doubled for pv in feasible_candidates()] == FEASIBLE_DOUBLED
        assert len(FEASIBLE_DOUBLED) == 2821

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


# Rows drawn from a small pool, so duplicates are common; 1e16 makes float
# row sums tie between rows that differ by 1 in another column.
_objective_rows = st.lists(
    st.tuples(*[st.sampled_from([0.0, 1.0, 2.0, 1e16])] * 6), min_size=1, max_size=6
).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=25))


class TestFront:
    @given(_objective_rows)
    @example([(1e16, 0, 0, 0, 0, 0), (1e16, 1, 0, 0, 0, 0)])
    @example([(1e16, 1, 0, 0, 0, 0), (1e16, 0, 0, 0, 0, 0)])
    def test_matches_brute_force(self, rows):
        objs = np.array(rows, dtype=np.float64).reshape(-1, 6)
        assert np.array_equal(_front(objs), np.flatnonzero(_nondominated_mask(objs)))


class TestParetoFront:
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

    def test_one_chunk_starts_no_pool(self, model8, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for one chunk")

        monkeypatch.setattr(search_mod, "ProcessPoolExecutor", no_pool)
        assert run_search(model8, workers=2).n_evaluated == len(FEASIBLE_DOUBLED)

    def test_nonpositive_workers_rejected(self, model8):
        with pytest.raises(ValueError, match="workers"):
            run_search(model8, workers=0)

    def test_stacked_objectives_equal_per_candidate_exactly(self, model8):
        # Dominance is decided on rounded floats, so the stacked evaluation
        # the search runs must agree with evaluate() bit for bit.
        rows = np.array(FEASIBLE_DOUBLED, dtype=np.int8)
        values, kept = _score_chunk((rows, model8.rho))
        assert np.array_equal(kept, rows)
        stacked = np.column_stack(_minimized(*values.T))
        for d, obj in zip(FEASIBLE_DOUBLED, stacked):
            assert objectives(evaluate(ParamVector(d), model8)) == tuple(obj)


class TestUnfilteredSweep:
    def _reference_objectives(self, doubled_row, model):
        pv = ParamVector(tuple(int(v) for v in doubled_row))
        t = search_mod.build_matrix(pv).to_float()
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
        rows = gen.choice([-4, -2, -1, 0, 1, 2, 4], size=(300, 8)).astype(np.int8)
        rows[:20] = np.array([list(d) for d in FEASIBLE_DOUBLED[:20]], dtype=np.int8)
        rows[20] = 0  # singular candidate must be excluded
        values, kept = _score_chunk((rows, model8.rho))
        expected = [self._reference_objectives(r, model8) for r in rows]
        valid = [e is not None for e in expected]
        assert np.array_equal(kept, rows[valid])
        objs = np.column_stack(_minimized(*values.T))
        want = np.array([e for e in expected if e is not None], dtype=np.float64)
        assert objs.shape == want.shape
        for got, w in zip(objs, want):
            assert got == pytest.approx(w, abs=1e-8)

    def test_mini_sweep_equals_brute_force(self, model8, monkeypatch):
        gen = rng(13)
        rows = gen.choice([-4, -2, -1, 0, 1, 2, 4], size=(2000, 8)).astype(np.int8)
        rows[:15] = np.array([list(pv.doubled) for pv in CATALOG.values()], dtype=np.int8)
        monkeypatch.setattr(search_mod, "_CHUNK", 500)
        monkeypatch.setattr(search_mod, "all_candidates_doubled", lambda: rows)
        result = run_search(model8, feasibility_filter=False)
        values, _kept = _score_chunk((rows, model8.rho))
        objs = np.column_stack(_minimized(*values.T))
        brute = objs[_nondominated_mask(objs)]
        produced = np.array(sorted(objectives(e.report) for e in result.entries))
        expected = np.array(sorted(map(tuple, brute)))
        assert result.n_evaluated == len(values)
        assert produced.shape == expected.shape
        assert np.allclose(produced, expected, atol=1e-9)
