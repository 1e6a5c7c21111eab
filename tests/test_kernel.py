import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from dctapprox import (
    CATALOG,
    FeasibilityError,
    ParamVector,
    apply_fast,
    apply_fast_doubled,
    apply_inverse,
    build_matrix,
    complexity,
    count_operations,
    factor_matrices,
    factored_product,
    orthonormal_approx,
)
from dctapprox.kernel import _RULES
from helpers import (
    EXPECTED_8PT,
    FEASIBLE_DOUBLED,
    feasible_param_vectors,
    param_vectors,
    rng,
)


class TestFactorMatrices:
    def test_butterflies_and_perm_are_sign_matrices(self):
        stage1, stage2, _, perm = factor_matrices(CATALOG[1])
        for m in (stage1, stage2, perm):
            assert set(np.unique(m)) <= {-2, 0, 2}

    def test_perm_is_a_permutation(self):
        *_, perm = factor_matrices(CATALOG[1])
        p = perm / 2
        assert np.array_equal(p @ p.T, np.eye(8))
        assert np.array_equal(p.sum(axis=0), np.ones(8))
        assert np.array_equal(p.sum(axis=1), np.ones(8))

    def test_core_block_pattern(self):
        _, _, k, _ = factor_matrices(CATALOG[15])
        blocks = [(range(0, 2), range(0, 2)), (range(2, 4), range(2, 4)),
                  (range(4, 8), range(4, 8))]
        inside = np.zeros((8, 8), dtype=bool)
        for rows, cols in blocks:
            inside[np.ix_(rows, cols)] = True
        assert np.all(k[~inside] == 0)

    def test_core_lower_block_catalog_1(self):
        _, _, core, _ = factor_matrices(CATALOG[1])
        k = core / 2
        expected = [[0, 0, 1, 1], [0, 0, -1, 1], [0, -1, 0, 0], [-1, 0, 0, 0]]
        assert np.array_equal(k[4:, 4:], expected)

    @given(param_vectors)
    def test_product_identity(self, pv):
        assert np.array_equal(factored_product(factor_matrices(pv)), build_matrix(pv))

    def test_product_identity_10000_samples(self):
        gen = rng(271828)
        for _ in range(10_000):
            pv = ParamVector(
                tuple(int(v) for v in gen.choice([-4, -2, -1, 0, 1, 2, 4], 8))
            )
            assert np.array_equal(factored_product(factor_matrices(pv)), build_matrix(pv))

    def test_product_not_in_half_units_rejected(self):
        # Four identities read as half units multiply to 1/16 of a unit.
        eye = np.eye(8, dtype=np.int64)
        with pytest.raises(ValueError):
            factored_product((eye, eye, eye, eye))


    def test_constant_factors_read_only_at_import(self):
        # In a fresh interpreter, before any factor_matrices call.
        import dctapprox

        code = ("import dctapprox.kernel as k; "
                "print([c.flags.writeable for c in (k._STAGE1, k._STAGE2, k._PERM)])")
        env = dict(os.environ, PYTHONPATH=str(Path(dctapprox.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out == "[False, False, False]\n"


class TestApplyFast:
    def test_basis_vector_gives_first_column(self):
        pv = CATALOG[13]
        x = np.zeros(8)
        x[0] = 1.0
        assert np.array_equal(apply_fast(pv, x), (build_matrix(pv) / 2)[:, 0])

    def test_dc_input(self):
        out = apply_fast(CATALOG[1], np.ones(8))
        assert np.array_equal(out, [8, 0, 0, 0, 0, 0, 0, 0])

    def test_exact_equality_1000_random_pairs(self):
        gen = rng(42)
        for _ in range(1000):
            pv = ParamVector(tuple(int(v) for v in gen.choice([-4, -2, -1, 0, 1, 2, 4], 8)))
            x = gen.integers(-100, 100, size=8)
            assert np.array_equal(
                apply_fast_doubled(pv, x), build_matrix(pv) @ x
            )

    def test_float_walk_is_exact(self):
        # Integer-valued inputs keep every partial sum exact in both the walk
        # and the dense product, so the two agree bit for bit.
        gen = rng(7)
        for _ in range(1000):
            pv = ParamVector(tuple(int(v) for v in gen.choice([-4, -2, -1, 0, 1, 2, 4], 8)))
            x = gen.integers(-100, 100, size=8).astype(np.float64)
            assert np.array_equal(apply_fast(pv, x), (build_matrix(pv) / 2) @ x)

    def test_zero_entry_is_skipped_not_multiplied(self):
        # Column 3 of this transform has zero entries, so the dense product
        # turns an infinite x[3] into NaN there; the walk never forms 0 * inf.
        pv = CATALOG[1]
        x = np.zeros(8)
        x[3] = np.inf
        with np.errstate(invalid="ignore"):
            dense = (build_matrix(pv) / 2) @ x
        assert np.isnan(dense).sum() == 4
        expected = [np.inf, 0, -np.inf, 0, np.inf, 0, 0, -np.inf]
        assert np.array_equal(apply_fast(pv, x), expected)

    @pytest.mark.parametrize("x", [np.full(8, 0.5), ["1"] * 8, [2**70] * 8, [True] * 8])
    def test_doubled_rejects_non_integer_input(self, x):
        with pytest.raises(ValueError):
            apply_fast_doubled(CATALOG[9], x)

    def test_doubled_accepts_integer_dtypes(self):
        expected = build_matrix(CATALOG[9]) @ np.arange(8)
        for x in (list(range(8)), np.arange(8, dtype=np.uint8), np.arange(8, dtype=np.int32)):
            assert np.array_equal(apply_fast_doubled(CATALOG[9], x), expected)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            apply_fast(CATALOG[1], np.zeros(7))


class TestApplyInverse:
    @settings(max_examples=40)
    @given(feasible_param_vectors)
    def test_round_trip(self, pv):
        x = rng(3).standard_normal(8)
        forward = orthonormal_approx(pv).matrix @ x
        assert np.max(np.abs(apply_inverse(pv, forward) - x)) < 1e-10

    def test_matches_transposed_matrix_on_every_feasible_vector(self):
        gen = rng(11)
        for doubled in FEASIBLE_DOUBLED:
            pv = ParamVector(doubled)
            coeffs = gen.standard_normal(8)
            expected = orthonormal_approx(pv).matrix.T @ coeffs
            assert np.max(np.abs(apply_inverse(pv, coeffs) - expected)) < 1e-12

    def test_zero_maps_to_zero(self):
        assert np.array_equal(apply_inverse(CATALOG[5], np.zeros(8)), np.zeros(8))

    def test_basis_vector_gives_first_column_of_transform(self):
        pv = CATALOG[15]
        e0 = np.zeros(8)
        e0[0] = 1.0
        expected = orthonormal_approx(pv).matrix[0, :]  # row of C == column of C^t
        assert np.max(np.abs(apply_inverse(pv, e0) - expected)) < 1e-12

    def test_infeasible_raises(self):
        with pytest.raises(FeasibilityError):
            apply_inverse(ParamVector((0,) * 8), np.zeros(8))


class TestComplexity:
    @pytest.mark.parametrize("j", sorted(EXPECTED_8PT))
    def test_catalog_counts(self, j):
        c = complexity(CATALOG[j])
        assert (c.additions, c.shifts) == EXPECTED_8PT[j][4:]

    def test_rule_selection(self):
        assert complexity(CATALOG[1]).rule == "general"
        assert complexity(CATALOG[9]).rule == "r6"
        assert complexity(CATALOG[5]).rule == "general"  # r6 ties, general wins

    def test_matches_rule_by_rule_minimum(self):
        # Reference: try every rule whose chains each hold one magnitude
        # (index 8 is the magnitude 2), in order, and keep the first strictly
        # cheaper (additions, shifts) pair.  The sample makes every rule win
        # somewhere except r8, which applies only where r7 does, at equal
        # cost, so r7 wins the tie.
        sample = list(FEASIBLE_DOUBLED) + [(2, -2, 2, 2, -2, 2, 2, -2), (2,) * 8]
        sample += [tuple(int(v) for v in r)
                   for r in rng(8).choice([-4, -2, -1, 0, 1, 2, 4], size=(3000, 8))]
        rules = set()
        for doubled in sample:
            mags = [abs(d) for d in doubled]
            best = None
            for name, base, weights, chains in _RULES:
                if any(len({(mags + [2])[i] for i in chain}) > 1 for chain in chains):
                    continue
                adds = base - sum(w for w, d in zip(weights, doubled) if d == 0)
                shifts = sum(w for w, m in zip(weights, mags) if m in (1, 4))
                if best is None or (adds, shifts) < best[:2]:
                    best = (adds, shifts, name)
            c = complexity(ParamVector(doubled))
            assert (c.additions, c.shifts, c.rule) == best
            rules.add(c.rule)
        assert rules == {name for name, *_ in _RULES} - {"r8"}

    def test_a2_weighs_alike_in_every_rule(self):
        # The search adds a2's cost to the cost of the rest of the vector;
        # that is exact only while no chain holds a2 and every rule gives it
        # the same weight, so a2 cannot change which rule is cheapest.
        assert len({weights[1] for _, _, weights, _ in _RULES}) == 1
        assert not any(1 in chain for *_, chains in _RULES for chain in chains)

    @given(param_vectors)
    def test_ranges(self, pv):
        c = complexity(pv)
        assert 0 <= c.shifts <= 16
        assert c.additions <= 28


class TestInstrumentedCounter:
    @given(feasible_param_vectors)
    def test_matches_general_formula_on_feasible_vectors(self, pv):
        # On feasible vectors no core row vanishes entirely, so the
        # structural walk agrees with the indicator-weight formula exactly.
        weights = (6, 2, 1, 1, 2, 2, 1, 1)
        adds = 28 - sum(w for w, d in zip(weights, pv.doubled) if d == 0)
        shifts = sum(w for w, d in zip(weights, pv.doubled) if abs(d) in (1, 4))
        assert count_operations(pv) == (adds, shifts)

    @pytest.mark.parametrize("doubled, expected", [
        ((0,) * 8, (15, 0)),
        ((2, 0, 0, 0, 0, 0, 0, 0), (18, 0)),
        ((0, 0, 0, 0, 1, 0, 0, 0), (16, 2)),
        ((4,) * 8, (28, 16)),
        ((1, -1, 0, 0, 0, 0, 0, 1), (21, 9)),
    ])
    def test_vanishing_core_rows(self, doubled, expected):
        # Infeasible vectors, most with core rows that lose some or all of
        # their parameter entries; a row with no nonzero entry costs nothing.
        assert count_operations(ParamVector(doubled)) == expected

    @given(param_vectors)
    def test_never_below_general_formula(self, pv):
        # A vanishing row saves fewer additions than its weights claim, so
        # the walk can only sit at or above the formula, never below.
        weights = (6, 2, 1, 1, 2, 2, 1, 1)
        adds = 28 - sum(w for w, d in zip(weights, pv.doubled) if d == 0)
        assert count_operations(pv)[0] >= adds

    @given(param_vectors)
    def test_never_below_selected_rule(self, pv):
        counted_adds, _ = count_operations(pv)
        assert counted_adds >= complexity(pv).additions
