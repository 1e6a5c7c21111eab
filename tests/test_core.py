import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctapprox import (
    CATALOG,
    DyadicMatrix,
    FeasibilityError,
    ParamVector,
    Transform,
    build_matrix,
    exact_dct_matrix,
    gram,
    gram_diagnostics,
    gram_quarter_units,
    is_feasible,
    orthonormal_approx,
    scale_factors,
)
from dctapprox.scaling import build_scaled
from helpers import (
    assert_orthonormal_transform,
    feasible_param_vectors,
    json_values,
    param_vectors,
    rng,
)


class TestParamVector:
    def test_from_values_accepts_all_allowed(self):
        pv = ParamVector.from_values([0, 0.5, -0.5, 1, -1, 2, -2, 0])
        assert pv.doubled == (0, 1, -1, 2, -2, 4, -4, 0)
        assert pv.values == (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 0.0)

    def test_from_values_accepts_fractions_and_strings(self):
        pv = ParamVector.from_values([Fraction(1, 2), "1/2", "0.5", 0, 0, 0, 1, 1])
        assert pv.values[:3] == (0.5, 0.5, 0.5)

    @pytest.mark.parametrize("bad", [[3] + [0] * 7, [0.25] + [0] * 7, [0] * 7])
    def test_rejects_bad_input(self, bad):
        with pytest.raises(ValueError):
            ParamVector.from_values(bad)

    def test_str(self):
        assert str(CATALOG[9]) == "0,0.5,0,1,1,1,1,2"


class TestExactDct:
    def test_row0_constant(self):
        c = exact_dct_matrix(8)
        assert np.allclose(c[0], 1 / math.sqrt(8), atol=0, rtol=1e-15)

    def test_orthonormal(self):
        c = exact_dct_matrix(8)
        assert np.max(np.abs(c @ c.T - np.eye(8))) < 1e-12

    def test_n4_entry(self):
        # sqrt(2/4) * cos(pi/8)
        c = exact_dct_matrix(4)
        assert c[1, 0] == pytest.approx(0.6532814824381883, abs=1e-12)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            exact_dct_matrix(1)


class TestBuildMatrix:
    def test_fixed_rows(self):
        m = build_matrix(CATALOG[15]).to_float()
        assert np.array_equal(m[0], np.ones(8))
        assert np.array_equal(m[4], [1, -1, -1, 1, 1, -1, -1, 1])

    def test_catalog_15_rows(self):
        m = build_matrix(CATALOG[15]).to_float()
        assert np.array_equal(m[1], [1, 1, 1, 1, -1, -1, -1, -1])
        assert np.array_equal(m[3], [1, 0.5, -0.5, -1, 1, 0.5, -0.5, -1])

    def test_zero_vector_rows_vanish(self):
        m = build_matrix(ParamVector((0,) * 8)).to_float()
        for row in (3, 5, 7):
            assert np.array_equal(m[row], np.zeros(8))
        assert np.linalg.matrix_rank(m) < 8

    def test_sparse_row3(self):
        m = build_matrix(CATALOG[1]).to_float()
        assert np.array_equal(m[3], [0, 0, -1, 0, 0, 1, 0, 0])

    @given(param_vectors)
    def test_entries_stay_in_alphabet(self, pv):
        h = build_matrix(pv).half_units
        assert set(np.unique(h)) <= {-4, -2, -1, 0, 1, 2, 4}

    @given(param_vectors, param_vectors)
    def test_even_rows_depend_only_on_a2(self, pv1, pv2):
        # Rows 0, 2, 4, 6 are built from constants and a2 alone.
        merged = ParamVector(
            (pv1.doubled[0], pv2.doubled[1]) + pv1.doubled[2:]
        )
        m1 = build_matrix(merged).half_units
        m2 = build_matrix(pv2).half_units
        for row in (0, 2, 4, 6):
            assert np.array_equal(m1[row], m2[row])


class TestGram:
    def test_catalog_1_diagonal(self):
        g = gram(build_matrix(CATALOG[1]))
        expected = [8, 4, 4, 2, 8, 4, 4, 2]
        for i in range(8):
            for j in range(8):
                want = Fraction(expected[i]) if i == j else Fraction(0)
                assert g[i, j] == want

    def test_identity(self):
        ident = DyadicMatrix(2 * np.eye(8, dtype=np.int64))
        g = gram(ident)
        assert all(g[i, i] == 1 for i in range(8))
        assert all(g[i, j] == 0 for i in range(8) for j in range(8) if i != j)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            gram_quarter_units(DyadicMatrix(np.ones((2, 3), dtype=np.int64)))

    def test_all_ones_cross_terms_vanish(self):
        d = gram_diagnostics(ParamVector((2,) * 8))
        assert d.cross_terms[0] == 0
        assert d.off_diagonal_zero

    def test_matches_closed_forms_10000_samples(self):
        # Exact integer equality between the matrix-product Gram and the
        # closed-form entries, including the structural zero pattern.
        gen = rng(1234)
        doubled = gen.choice([-4, -2, -1, 0, 1, 2, 4], size=(10_000, 8))
        cross_pos = [(1, 3), (1, 5), (1, 7), (3, 5), (3, 7), (5, 7)]
        diag_pos = [1, 2, 3, 5, 7]
        for row in doubled:
            pv = ParamVector(tuple(int(v) for v in row))
            quarter = gram_quarter_units(build_matrix(pv))
            d = gram_diagnostics(pv)
            expected = np.zeros((8, 8), dtype=np.int64)
            expected[0, 0] = expected[4, 4] = 32
            expected[2, 2] = expected[6, 6] = 4 * d.diagonal_terms[1]
            for pos, term in zip(diag_pos, (0, 1, 2, 3, 4)):
                expected[pos, pos] = 4 * d.diagonal_terms[term]
            for (i, j), term in zip(cross_pos, d.cross_terms):
                expected[i, j] = expected[j, i] = 4 * term
            assert np.array_equal(quarter, expected)


class TestFeasibility:
    def test_examples(self):
        assert is_feasible(CATALOG[1])
        assert not is_feasible(ParamVector((0,) * 8))
        assert not is_feasible(ParamVector((4,) * 8))  # cross term -8

    @given(param_vectors)
    def test_agrees_with_gram(self, pv):
        quarter = gram_quarter_units(build_matrix(pv))
        off = quarter - np.diag(np.diag(quarter))
        expected = bool(np.all(off == 0) and np.all(np.diag(quarter) > 0))
        assert is_feasible(pv) == expected


class TestScaleFactors:
    def test_catalog_1(self):
        s = scale_factors(CATALOG[1])
        inv_2sqrt2 = 1 / (2 * math.sqrt(2))
        expected = [inv_2sqrt2, 0.5, 0.5, 1 / math.sqrt(2),
                    inv_2sqrt2, 0.5, 0.5, 1 / math.sqrt(2)]
        assert np.allclose(s, expected, rtol=1e-15, atol=0)

    @given(feasible_param_vectors)
    def test_fixed_positions(self, pv):
        s = scale_factors(pv)
        assert s[0] == pytest.approx(1 / (2 * math.sqrt(2)), rel=1e-15)
        assert s[4] == pytest.approx(1 / (2 * math.sqrt(2)), rel=1e-15)

    def test_catalog_15_position_1(self):
        # row-1 squared norm is 4*1 + 4 = 8
        s = scale_factors(CATALOG[15])
        assert s[1] == pytest.approx(1 / (2 * math.sqrt(2)), rel=1e-15)

    def test_infeasible_raises(self):
        with pytest.raises(FeasibilityError):
            scale_factors(ParamVector((0,) * 8))


class TestOrthonormal:
    @pytest.mark.parametrize("j", [1, 2, 15])
    def test_catalog_members(self, j):
        c = orthonormal_approx(CATALOG[j]).matrix
        assert np.max(np.abs(c @ c.T - np.eye(8))) < 1e-12

    @settings(max_examples=50)
    @given(feasible_param_vectors)
    def test_round_trip(self, pv):
        c = orthonormal_approx(pv).matrix
        x = rng(7).standard_normal(8)
        assert np.max(np.abs(c.T @ (c @ x) - x)) < 1e-10

    def test_infeasible_raises(self):
        with pytest.raises(FeasibilityError):
            orthonormal_approx(ParamVector((4,) * 8))


class TestTransformJson:
    def test_schema_and_roundtrip(self, tmp_path):
        t = orthonormal_approx(CATALOG[9])
        d = t.to_json_dict()
        assert set(d) == {"n", "den", "entries", "scale"}
        assert d["den"] == 2
        path = tmp_path / "t8.json"
        t.save(path)
        loaded = Transform.load(path)
        assert loaded == t
        assert np.array_equal(loaded.scale, t.scale)  # bit-exact floats

    def test_bad_denominator_rejected(self):
        with pytest.raises(ValueError):
            Transform.from_json_dict({"n": 8, "den": 4, "entries": [], "scale": []})

    @settings(deadline=None)
    @given(st.data())
    def test_fuzz(self, data):
        # Arbitrary documents, and valid ones with one field replaced or one
        # entry changed: either a transform that passes the Gram and scale
        # checks loads, or ValueError (FeasibilityError is one) is raised.
        doc = data.draw(st.sampled_from(_VALID_DOCS)).copy()
        mutation = data.draw(st.sampled_from(["none", "field", "entry", "document"]))
        if mutation == "field":
            doc[data.draw(st.sampled_from(sorted(doc)))] = data.draw(json_values)
        elif mutation == "entry":
            doc["entries"] = [list(row) for row in doc["entries"]]
            i, j = data.draw(st.tuples(*[st.integers(0, doc["n"] - 1)] * 2))
            doc["entries"][i][j] = data.draw(st.integers(-5, 5))
        elif mutation == "document":
            doc = data.draw(json_values)
        try:
            t = Transform.from_json_dict(doc)
        except ValueError:
            return
        assert_orthonormal_transform(t)


_VALID_DOCS = [
    orthonormal_approx(CATALOG[9]).to_json_dict(),
    build_scaled(CATALOG[15], 16).transform.to_json_dict(),
]
