import numpy as np
import pytest
from hypothesis import given, settings

from dctapprox import metrics
from dctapprox import (
    CATALOG,
    FeasibilityError,
    MetricsReport,
    ParamVector,
    SignalModel,
    ar1_covariance,
    build_scaled,
    complexity,
    evaluate,
    evaluate_matrix,
    exact_dct_matrix,
    mse,
    orthonormal_approx,
    total_error_energy,
    transform_efficiency,
    unified_coding_gain,
)
from helpers import (
    DCT8_CODING_GAIN_DB,
    EXPECTED_8PT,
    TOL_CG,
    TOL_EPSILON,
    TOL_ETA,
    TOL_MSE,
    feasible_param_vectors,
    rng,
)


class TestAr1Covariance:
    def test_unit_diagonal(self):
        r = ar1_covariance(SignalModel(rho=0.37, n=6))
        assert np.array_equal(np.diag(r), np.ones(6))

    def test_two_by_two(self):
        r = ar1_covariance(SignalModel(rho=0.95, n=2))
        assert np.allclose(r, [[1, 0.95], [0.95, 1]], atol=0, rtol=0)

    def test_corner_power(self, model8):
        r = ar1_covariance(model8)
        assert r[0, 7] == pytest.approx(0.95**7, rel=1e-15)
        assert r[0, 7] == pytest.approx(0.69834, abs=5e-6)

    @pytest.mark.parametrize("rho", [0.0, 1.0, -0.2, 1.5])
    def test_invalid_rho(self, rho):
        with pytest.raises(ValueError):
            SignalModel(rho=rho, n=8)


class TestProximity:
    def test_zero_at_exact_dct(self, model8):
        c = exact_dct_matrix(8)
        assert total_error_energy(c) == 0.0
        assert mse(c, model8) == 0.0

    def test_positive_away_from_dct(self, model8):
        c = orthonormal_approx(CATALOG[15]).matrix
        assert total_error_energy(c) > 0
        assert mse(c, model8) > 0

    @pytest.mark.parametrize("j, expected", [(1, 6.85), (15, 4.09)])
    def test_error_energy_catalog(self, j, expected):
        val = total_error_energy(orthonormal_approx(CATALOG[j]).matrix)
        assert val == pytest.approx(expected, abs=TOL_EPSILON)

    @pytest.mark.parametrize("j, expected", [(1, 0.03), (15, 0.02)])
    def test_mse_catalog(self, model8, j, expected):
        val = mse(orthonormal_approx(CATALOG[j]).matrix, model8)
        assert val == pytest.approx(expected, abs=TOL_MSE)

    def test_shape_mismatch(self, model8):
        with pytest.raises(ValueError):
            mse(exact_dct_matrix(4), model8)
        with pytest.raises(ValueError):
            total_error_energy(np.ones((3, 4)))


class TestCodingGain:
    def test_dct_calibration(self, model8):
        cg = unified_coding_gain(exact_dct_matrix(8), model8)
        assert cg == pytest.approx(8.8259, abs=0.005)
        assert cg == pytest.approx(DCT8_CODING_GAIN_DB, abs=1e-9)

    @pytest.mark.parametrize("j, expected", [(1, 7.91), (15, 8.33)])
    def test_catalog(self, model8, j, expected):
        cg = unified_coding_gain(orthonormal_approx(CATALOG[j]).matrix, model8)
        assert cg == pytest.approx(expected, abs=TOL_CG)

    def test_singular_rejected(self, model8):
        m = np.zeros((8, 8))
        m[0, 0] = 1.0
        with pytest.raises(ValueError):
            unified_coding_gain(m, model8)


def _inline_coding_gain(c_hat, r, n):
    """The coding gain with its synthesis term written inline, as one
    expression, before the term became its own kernel."""
    g = np.swapaxes(np.linalg.inv(c_hat), -1, -2)
    band_var = np.einsum("...ki,...kj,ij->...k", c_hat, c_hat, r)
    synth = np.sum(g * g, axis=-1)
    return 10.0 * (np.sum(np.log10(1.0 / (band_var * synth)), axis=-1) / n)


class TestSynthesisKernel:
    # The search passes its tables' synthesis gains and evaluate_matrix
    # computes them in _checked_coding_gain: both must give the inline
    # formula's bits.
    @staticmethod
    def _assert_inline_bits(c_hat, n):
        model = SignalModel(rho=0.95, n=n)
        r = ar1_covariance(model)
        expected = _inline_coding_gain(c_hat, r, n).tobytes()
        assert metrics._checked_coding_gain(c_hat, r, n).tobytes() == expected
        synth = metrics._synthesis_gains(c_hat)
        assert metrics._coding_gain(c_hat, r, n, synth).tobytes() == expected
        assert np.asarray(evaluate_matrix(c_hat, model)[2]).tobytes() == expected

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_random_stacks(self, n):
        stack = rng(n).standard_normal((6, n, n))
        assert np.all(np.abs(np.linalg.det(stack)) > 1e-6)
        self._assert_inline_bits(stack, n)

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_catalog_stacks(self, n):
        stack = np.stack([build_scaled(pv, n).transform.matrix for pv in CATALOG.values()])
        self._assert_inline_bits(stack, n)


class TestEfficiency:
    def test_klt_reaches_100(self, model8):
        w, v = np.linalg.eigh(ar1_covariance(model8))
        klt = v.T[::-1]
        assert transform_efficiency(klt, model8) == pytest.approx(100.0, abs=1e-9)

    @pytest.mark.parametrize("j, expected", [(1, 85.64), (15, 88.22)])
    def test_catalog(self, model8, j, expected):
        eta = transform_efficiency(orthonormal_approx(CATALOG[j]).matrix, model8)
        assert eta == pytest.approx(expected, abs=TOL_ETA)


class TestEvaluate:
    @pytest.mark.parametrize("j", [5, 9])
    def test_catalog_reports(self, model8, j):
        rep = evaluate(CATALOG[j], model8)
        eps, m, cg, eta, adds, shifts = EXPECTED_8PT[j]
        assert rep.epsilon == pytest.approx(eps, abs=TOL_EPSILON)
        assert rep.mse == pytest.approx(m, abs=TOL_MSE)
        assert rep.coding_gain_db == pytest.approx(cg, abs=TOL_CG)
        assert rep.efficiency_pct == pytest.approx(eta, abs=TOL_ETA)
        assert (rep.additions, rep.shifts) == (adds, shifts)

    def test_exact_dct_path(self, model8):
        eps, m, cg, _eta = evaluate_matrix(exact_dct_matrix(8), model8)
        assert eps == 0.0
        assert m == 0.0
        assert cg == pytest.approx(8.8259, abs=0.005)

    def test_stack_matches_single_matrices(self, model8):
        # Exact equality at every size: report scores each table as a stack.
        for n in (8, 16, 32):
            model = SignalModel(rho=model8.rho, n=n)
            mats = [build_scaled(pv, n).transform.matrix for pv in CATALOG.values()]
            mats.append(exact_dct_matrix(n))
            stacked = evaluate_matrix(np.stack(mats), model)
            assert all(v.shape == (len(mats),) for v in stacked)
            for i, c in enumerate(mats):
                single = evaluate_matrix(c, model)
                assert all(isinstance(v, float) for v in single)
                assert tuple(v[i] for v in stacked) == single, (n, i)

    def test_infeasible_raises(self, model8):
        with pytest.raises(FeasibilityError):
            evaluate(ParamVector((0,) * 8), model8)

    def test_wrong_model_size(self):
        with pytest.raises(ValueError):
            evaluate(CATALOG[1], SignalModel(rho=0.95, n=64))

    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("entry", sorted(CATALOG))
    def test_every_size_is_one_path(self, entry, n):
        # evaluate grows the seed with build_scaled; at 8 points no doubling
        # runs and the result is the orthonormalized seed with its own cost.
        pv, model = CATALOG[entry], SignalModel(rho=0.95, n=n)
        assert build_scaled(pv, 8).transform == orthonormal_approx(pv)
        if n == 8:
            c_hat, cost = orthonormal_approx(pv).matrix, complexity(pv)
        else:
            st = build_scaled(pv, n)
            c_hat, cost = st.transform.matrix, st.complexity
        expected = MetricsReport(*evaluate_matrix(c_hat, model), cost.additions, cost.shifts)
        assert evaluate(pv, model) == expected


class TestInvariances:
    @settings(max_examples=30)
    @given(feasible_param_vectors)
    def test_row_sign_flips_leave_gain_and_efficiency(self, pv):
        model = SignalModel(rho=0.95, n=8)
        c = orthonormal_approx(pv).matrix
        flips = np.where(rng(11).random(8) < 0.5, -1.0, 1.0)
        flipped = flips[:, None] * c
        assert unified_coding_gain(flipped, model) == pytest.approx(
            unified_coding_gain(c, model), abs=1e-12
        )
        assert transform_efficiency(flipped, model) == pytest.approx(
            transform_efficiency(c, model), abs=1e-12
        )

    @settings(max_examples=60)
    @given(feasible_param_vectors)
    def test_mse_trace_bound(self, pv):
        model = SignalModel(rho=0.95, n=8)
        c = orthonormal_approx(pv).matrix
        lam_max = np.linalg.eigvalsh(ar1_covariance(model)).max()
        bound = total_error_energy(c) / (np.pi * 8) * lam_max
        assert mse(c, model) <= bound + 1e-12
