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
    SignalModel,
    all_candidates_doubled,
    dominates,
    complexity,
    evaluate,
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
from dctapprox.search import _front, _minimized, _odd_rows, _scored
from helpers import FEASIBLE_DOUBLED, _nondominated_mask, rng


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
        # grid without a2 and scores each survivor with every a2.
        odd = _odd_rows(True)
        assert odd.dtype == np.int8 and np.all(odd[:, 1] == 0)
        expanded = sorted(
            row[:1] + (a2,) + row[2:]
            for row in (tuple(int(v) for v in r) for r in odd)
            for a2 in ALLOWED_DOUBLED
        )
        assert expanded == FEASIBLE_DOUBLED
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

    def test_nonpositive_workers_rejected(self, model8):
        with pytest.raises(ValueError, match="workers"):
            run_search(model8, workers=0)

    @pytest.mark.parametrize("rho", [0.90, 0.95, 0.97])
    def test_stacked_objectives_equal_per_candidate_exactly(self, rho):
        # Dominance is decided on rounded floats, so the even/odd scoring the
        # search runs must agree with evaluate() after rounding, bit for bit.
        model = SignalModel(rho=rho, n=8)
        values, rows = _scored_rows(_odd_rows(True), model)
        assert sorted(rows) == FEASIBLE_DOUBLED
        stacked = dict(zip(rows, map(tuple, np.column_stack(_minimized(*values.T)))))
        for d in FEASIBLE_DOUBLED:
            assert objectives(evaluate(ParamVector(d), model)) == stacked[d]


def _scored_rows(odd, model):
    """All chunks of the even/odd scoring pass, stacked: metric rows and the
    candidates as tuples."""
    chunks = list(_scored(odd, model))
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
        assert sorted(kept) == sorted(d for d, e in zip(candidates, reference) if e)
        objs = np.column_stack(_minimized(*values.T))
        for d, got in zip(kept, objs):
            assert got == pytest.approx(expected[d], abs=1e-8)

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
        assert produced.shape == expected.shape
        assert np.allclose(produced, expected, atol=1e-9)
