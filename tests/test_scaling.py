import numpy as np
import pytest
from hypothesis import given, settings

from dctapprox import (
    CATALOG,
    ComplexityCount,
    FeasibilityError,
    ParamVector,
    SignalModel,
    build_matrix,
    build_scaled,
    count_operations,
    evaluate_matrix,
    gram_quarter_units,
    scale_once,
    scaled_complexity,
)
from dctapprox import scaling
from dctapprox.scaling import build_scaled_sizes
from helpers import (
    EXPECTED_16PT,
    EXPECTED_32PT,
    TOL_CG,
    TOL_EPSILON,
    TOL_ETA,
    TOL_MSE,
    count_calls,
    feasible_param_vectors,
)


class TestScaleOnce:
    def test_dc_row_stays_all_ones(self):
        doubled = scale_once(build_matrix(CATALOG[1]))
        assert np.array_equal((doubled / 2)[0], np.ones(16))

    def test_gram_diagonal_interleaves(self):
        doubled = scale_once(build_matrix(CATALOG[1]))
        quarter = gram_quarter_units(doubled)
        seed_diag = [8, 4, 4, 2, 8, 4, 4, 2]
        expected = np.repeat(2 * np.array(seed_diag), 2)  # each value twice
        assert np.array_equal(np.diag(quarter), 4 * expected)
        off = quarter - np.diag(np.diag(quarter))
        assert np.all(off == 0)

    def test_double_scaling_matches_build_scaled_32(self):
        m32 = scale_once(scale_once(build_matrix(CATALOG[9])))
        st = build_scaled(CATALOG[9], 32)
        assert np.array_equal(m32, st.transform.half_units)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            scale_once(np.ones((2, 3), dtype=np.int64))


class TestScaledComplexity:
    @pytest.mark.parametrize(
        "adds, shifts, n, expected",
        [(16, 0, 8, (48, 0)), (48, 0, 16, (128, 0)), (24, 4, 8, (64, 8))],
    )
    def test_recursion_values(self, adds, shifts, n, expected):
        c = ComplexityCount(additions=adds, shifts=shifts, rule="general")
        out = scaled_complexity(c, n)
        assert (out.additions, out.shifts) == expected

    @settings(max_examples=25)
    @given(feasible_param_vectors)
    def test_matches_instrumented_graph(self, pv):
        # One doubling = butterfly (2n additions) plus two seed evaluations;
        # walking the doubled graph with the general kernel must match the
        # recursion applied to the walked seed counts, and the rule-based
        # count can only be cheaper.
        adds, shifts = count_operations(pv)
        walked16 = scaled_complexity(ComplexityCount(adds, shifts, "general"), 8)
        assert (walked16.additions, walked16.shifts) == (2 * adds + 16, 2 * shifts)
        st = build_scaled(pv, 16)
        assert walked16.additions >= st.complexity.additions
        assert walked16.shifts >= st.complexity.shifts
        st32 = build_scaled(pv, 32)
        walked32 = scaled_complexity(walked16, 16)
        assert walked32.additions >= st32.complexity.additions
        # recursion consistency on the rule-based counts themselves
        from dctapprox import complexity as seed_complexity

        seed = seed_complexity(pv)
        assert st.complexity == scaled_complexity(seed, 8)
        assert st32.complexity == scaled_complexity(scaled_complexity(seed, 8), 16)


class TestBuildScaled:
    def test_catalog_9_at_16(self):
        st = build_scaled(CATALOG[9], 16)
        eps, m, cg, eta = evaluate_matrix(
            st.transform.matrix, SignalModel(rho=0.95, n=16)
        )
        want = EXPECTED_16PT[9]
        assert eps == pytest.approx(want[0], abs=TOL_EPSILON)
        assert m == pytest.approx(want[1], abs=TOL_MSE)
        assert cg == pytest.approx(want[2], abs=TOL_CG)
        assert eta == pytest.approx(want[3], abs=TOL_ETA)
        assert (st.complexity.additions, st.complexity.shifts) == want[4:]

    def test_catalog_15_at_32(self):
        st = build_scaled(CATALOG[15], 32)
        eps, m, cg, eta = evaluate_matrix(
            st.transform.matrix, SignalModel(rho=0.95, n=32)
        )
        want = EXPECTED_32PT[15]
        assert eps == pytest.approx(want[0], abs=TOL_EPSILON)
        assert cg == pytest.approx(want[2], abs=TOL_CG)
        assert (st.complexity.additions, st.complexity.shifts) == (160, 16)

    @settings(max_examples=20)
    @given(feasible_param_vectors)
    def test_16_point_is_orthonormal(self, pv):
        c = build_scaled(pv, 16).transform.matrix
        assert np.max(np.abs(c @ c.T - np.eye(16))) < 1e-12

    @pytest.mark.parametrize("target", [16, 32])
    def test_all_catalog_grams_stay_diagonal(self, target):
        for pv in CATALOG.values():
            m = build_matrix(pv)
            n = 8
            while n < target:
                m = scale_once(m)
                n *= 2
            quarter = gram_quarter_units(m)
            off = quarter - np.diag(np.diag(quarter))
            assert np.all(off == 0)
            assert np.all(np.diag(quarter) > 0)

    def test_infeasible_seed_rejected(self):
        with pytest.raises(FeasibilityError):
            build_scaled(ParamVector((0,) * 8), 16)

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            build_scaled(CATALOG[1], 64)


class TestBuildScaledSizes:
    @pytest.mark.parametrize("targets", [(8, 16, 32), (32, 8), (16,), (16, 16), ()])
    def test_equals_build_scaled_at_each_size(self, targets):
        for pv in CATALOG.values():
            built = build_scaled_sizes(pv, targets)
            assert built == tuple(build_scaled(pv, t) for t in targets)

    def test_grows_the_seed_once(self, monkeypatch):
        calls = count_calls(monkeypatch, scaling, ("complexity", "scale_once"))
        build_scaled_sizes(CATALOG[5], (8, 16, 32))
        assert calls == {"complexity": 1, "scale_once": 2}

    def test_infeasible_seed_and_bad_target_rejected(self):
        with pytest.raises(FeasibilityError):
            build_scaled_sizes(ParamVector((0,) * 8), (8, 16))
        with pytest.raises(ValueError, match="8, 16 or 32"):
            build_scaled_sizes(CATALOG[1], (8, 64))
