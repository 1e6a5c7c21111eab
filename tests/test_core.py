import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dctapprox import (
    CATALOG,
    FeasibilityError,
    ParamVector,
    SignalModel,
    Transform,
    apply_inverse,
    build_matrix,
    evaluate,
    exact_dct_matrix,
    factored_product,
    gram_quarter_units,
    is_feasible,
    orthonormal_approx,
    scale_factors,
)
from dctapprox.core import ALLOWED_DOUBLED, ALLOWED_VALUES, _half_units
from dctapprox.scaling import build_scaled, scale_once
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
        assert ALLOWED_VALUES == (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)

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
        m = build_matrix(CATALOG[15]) / 2
        assert np.array_equal(m[0], np.ones(8))
        assert np.array_equal(m[4], [1, -1, -1, 1, 1, -1, -1, 1])

    def test_catalog_15_rows(self):
        m = build_matrix(CATALOG[15]) / 2
        assert np.array_equal(m[1], [1, 1, 1, 1, -1, -1, -1, -1])
        assert np.array_equal(m[3], [1, 0.5, -0.5, -1, 1, 0.5, -0.5, -1])

    def test_zero_vector_rows_vanish(self):
        m = build_matrix(ParamVector((0,) * 8)) / 2
        for row in (3, 5, 7):
            assert np.array_equal(m[row], np.zeros(8))
        assert np.linalg.matrix_rank(m) < 8

    def test_sparse_row3(self):
        m = build_matrix(CATALOG[1]) / 2
        assert np.array_equal(m[3], [0, 0, -1, 0, 0, 1, 0, 0])

    @given(param_vectors)
    def test_entries_stay_in_alphabet(self, pv):
        h = build_matrix(pv)
        assert set(np.unique(h)) <= {-4, -2, -1, 0, 1, 2, 4}

    @given(param_vectors, param_vectors)
    def test_even_rows_depend_only_on_a2(self, pv1, pv2):
        # Rows 0, 2, 4, 6 are built from constants and a2 alone.
        merged = ParamVector(
            (pv1.doubled[0], pv2.doubled[1]) + pv1.doubled[2:]
        )
        m1 = build_matrix(merged)
        m2 = build_matrix(pv2)
        for row in (0, 2, 4, 6):
            assert np.array_equal(m1[row], m2[row])


class TestHalfUnitColumns:
    @given(st.lists(st.tuples(*[st.sampled_from(ALLOWED_DOUBLED)] * 8), max_size=12))
    @example([])
    @example([(2, 0, 2, 0, 2, 2, 2, 0)])
    def test_rows_match_build_matrix(self, rows):
        doubled = np.array(rows, dtype=np.int8).reshape(-1, 8)
        half = _half_units(*doubled.T)
        assert half.shape == (len(rows), 8, 8)
        assert half.dtype == np.int64 and half.flags.c_contiguous
        for row, h in zip(rows, half):
            assert np.array_equal(h, build_matrix(ParamVector(row)))


class TestGram:
    def test_catalog_1_diagonal(self):
        q = gram_quarter_units(build_matrix(CATALOG[1]))
        assert np.array_equal(q, np.diag([32, 16, 16, 8, 32, 16, 16, 8]))

    def test_identity(self):
        q = gram_quarter_units(2 * np.eye(8, dtype=np.int64))
        assert np.array_equal(q, 4 * np.eye(8, dtype=np.int64))

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            gram_quarter_units(np.ones((2, 3), dtype=np.int64))

    @pytest.mark.parametrize("call", [
        gram_quarter_units,
        scale_once,
        lambda m: Transform(n=1, half_units=m, scale=np.ones(1)),
        lambda m: factored_product((m, m, m, m)),
    ], ids=["gram_quarter_units", "scale_once", "Transform", "factored_product"])
    def test_non_integer_dtype_rejected(self, call):
        # A half-unit matrix holds integers: 1.5 would otherwise truncate.
        with pytest.raises(ValueError, match="integer"):
            call(np.array([[1.5]]))

    def test_narrow_integers_widened(self):
        # A row of 4s (value 2) has squared norm 128 in quarter units, which
        # overflows int8.
        q = gram_quarter_units(np.full((8, 8), 4, dtype=np.int8))
        assert q.dtype == np.int64
        assert np.all(q == 128)

    def test_all_ones_cross_terms_vanish(self):
        q = gram_quarter_units(build_matrix(ParamVector((2,) * 8)))
        assert q[1, 3] == 0
        assert np.array_equal(q, np.diag(np.diag(q)))

    def test_structural_pattern_10000_samples(self):
        # Whatever the parameters, T*T^t is zero outside the diagonal and
        # the six cross positions, rows 0 and 4 have squared norm 8, and row
        # 6 has the norm of row 2.
        gen = rng(1234)
        doubled = gen.choice([-4, -2, -1, 0, 1, 2, 4], size=(10_000, 8))
        free = np.eye(8, dtype=bool)
        for i, j in [(1, 3), (1, 5), (1, 7), (3, 5), (3, 7), (5, 7)]:
            free[i, j] = free[j, i] = True
        for row in doubled:
            pv = ParamVector(tuple(int(v) for v in row))
            quarter = gram_quarter_units(build_matrix(pv))
            assert np.all(quarter[~free] == 0)
            assert quarter[0, 0] == quarter[4, 4] == 32
            assert quarter[6, 6] == quarter[2, 2]


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


class TestSeedGate:
    _SEED = ParamVector((2, 0, 2, 0, 2, 2, 2, 0))  # cross term (1,3) is 2

    @pytest.mark.parametrize("call", [
        orthonormal_approx,
        scale_factors,
        lambda pv: build_scaled(pv, 8),
        lambda pv: build_scaled(pv, 16),
        lambda pv: build_scaled(pv, 32),
        lambda pv: evaluate(pv, SignalModel(n=16)),
        lambda pv: apply_inverse(pv, np.ones(8)),
    ], ids=["orthonormal_approx", "scale_factors", "build_scaled8", "build_scaled16",
            "build_scaled32", "evaluate", "apply_inverse"])
    def test_every_seed_path_raises_the_same_error(self, call):
        with pytest.raises(FeasibilityError) as err:
            call(self._SEED)
        assert str(err.value) == "parameters 1,0,1,0,1,1,1,0 do not give an orthogonal matrix"


class TestValueTypesCopy:
    # Transform holds read-only copies: the caller's arrays stay writable,
    # and writing to them leaves the value as it was.  Functions that return
    # a half-unit array return a fresh one each call.
    @pytest.mark.parametrize("call", [
        lambda: build_matrix(CATALOG[9]),
        lambda: scale_once(build_matrix(CATALOG[9])),
    ], ids=["build_matrix", "scale_once"])
    def test_returned_arrays_are_fresh(self, call):
        a = call()
        expected = a.copy()
        a[...] = 0
        assert np.array_equal(call(), expected)

    def test_transform(self):
        t = orthonormal_approx(CATALOG[9])
        h, s = t.half_units.copy(), t.scale.copy()
        u = Transform(n=8, half_units=h, scale=s)
        h[0, 0] += 2
        s[0] *= 2
        assert h.flags.writeable and s.flags.writeable
        assert not u.half_units.flags.writeable and not u.scale.flags.writeable
        assert u == t


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
