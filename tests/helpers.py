"""Shared test data: frozen reference tables and hypothesis strategies.

The feasible-parameter sample is computed once per session from the
vectorized feasibility mask, because random parameter vectors are almost
never orthogonal and hypothesis could not find feasible ones by filtering.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from dctapprox import CATALOG, forward_2d, inverse_2d, retain
from dctapprox.codec import _as_matrix
from dctapprox.core import ALLOWED_DOUBLED, ParamVector
from dctapprox.search import ParetoEntry, all_candidates_doubled, feasible_mask

# Expected metric rows (epsilon, mse, coding gain dB, efficiency %,
# additions, shifts) for the catalog transforms at rho = 0.95.
EXPECTED_8PT = {
    1: (6.85, 0.03, 7.91, 85.64, 16, 0),
    2: (6.85, 0.03, 7.91, 85.38, 18, 0),
    3: (5.79, 0.03, 7.91, 85.78, 18, 1),
    4: (5.05, 0.03, 7.91, 85.51, 18, 1),
    5: (5.93, 0.02, 8.12, 86.86, 18, 2),
    6: (6.85, 0.03, 7.93, 85.80, 20, 0),
    7: (5.05, 0.03, 7.91, 85.25, 20, 1),
    8: (5.79, 0.03, 7.91, 85.52, 20, 1),
    9: (4.12, 0.02, 8.12, 86.73, 20, 3),
    10: (4.87, 0.02, 8.12, 87.01, 20, 3),
    11: (5.05, 0.02, 7.95, 85.58, 22, 0),
    12: (5.93, 0.02, 8.14, 87.02, 22, 2),
    13: (5.02, 0.02, 8.12, 86.96, 22, 2),
    14: (4.12, 0.02, 8.15, 86.79, 24, 2),
    15: (4.09, 0.02, 8.33, 88.22, 24, 4),
}

EXPECTED_16PT = {
    1: (25.13, 0.07, 8.16, 70.98, 48, 0),
    2: (24.27, 0.07, 8.16, 70.80, 52, 0),
    3: (21.75, 0.07, 8.16, 71.25, 52, 2),
    4: (20.88, 0.06, 8.16, 71.48, 52, 2),
    5: (23.02, 0.06, 8.37, 71.83, 52, 4),
    6: (22.46, 0.06, 8.18, 71.29, 56, 0),
    7: (20.02, 0.06, 8.16, 71.30, 56, 2),
    8: (20.89, 0.06, 8.16, 71.06, 56, 2),
    9: (18.77, 0.06, 8.37, 72.34, 56, 6),
    10: (19.64, 0.06, 8.37, 72.10, 56, 6),
    11: (18.29, 0.06, 8.19, 70.83, 60, 0),
    12: (20.35, 0.06, 8.38, 72.14, 60, 4),
    13: (18.52, 0.06, 8.36, 72.63, 60, 4),
    14: (16.18, 0.06, 8.40, 71.67, 64, 4),
    15: (16.41, 0.06, 8.57, 73.51, 64, 8),
}

EXPECTED_32PT = {
    1: (68.13, 0.13, 8.23, 56.18, 128, 0),
    2: (65.78, 0.13, 8.23, 56.05, 136, 0),
    3: (60.57, 0.13, 8.23, 56.43, 136, 4),
    4: (59.47, 0.13, 8.23, 56.78, 136, 4),
    5: (63.93, 0.12, 8.44, 56.72, 136, 8),
    6: (60.69, 0.12, 8.25, 56.47, 144, 0),
    7: (57.12, 0.12, 8.23, 56.65, 144, 4),
    8: (58.22, 0.12, 8.23, 56.31, 144, 4),
    9: (55.27, 0.12, 8.44, 57.33, 144, 12),
    10: (56.37, 0.12, 8.44, 56.98, 144, 12),
    11: (52.23, 0.12, 8.27, 56.03, 152, 0),
    12: (56.49, 0.12, 8.46, 57.01, 152, 8),
    13: (52.93, 0.12, 8.44, 57.57, 152, 8),
    14: (48.04, 0.12, 8.48, 56.57, 160, 8),
    15: (48.73, 0.12, 8.65, 58.14, 160, 16),
}

# Tolerances for comparing computed metrics against the reference rows.
TOL_EPSILON = 0.02
TOL_MSE = 0.005
TOL_CG = 0.01
TOL_ETA = 0.05

# Unified coding gain of the exact 8-point DCT at rho = 0.95, frozen from
# direct evaluation of the band-variance product.
DCT8_CODING_GAIN_DB = 8.825909175731962

# Canonical zig-zag order of an 8x8 grid, flattened row-major.
JPEG_ZIGZAG_8 = [
    0, 1, 8, 16, 9, 2, 3, 10,
    17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34,
    27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36,
    29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46,
    53, 60, 61, 54, 47, 55, 62, 63,
]


def _feasible_doubled_rows() -> list[tuple[int, ...]]:
    doubled = all_candidates_doubled()
    surv = doubled[feasible_mask(doubled)]
    return [tuple(int(v) for v in row) for row in surv]


FEASIBLE_DOUBLED = _feasible_doubled_rows()

param_vectors = st.builds(
    lambda t: ParamVector(t),
    st.tuples(*([st.sampled_from(ALLOWED_DOUBLED)] * 8)),
)

feasible_param_vectors = st.builds(
    lambda t: ParamVector(t), st.sampled_from(FEASIBLE_DOUBLED)
)


# Arbitrary JSON documents, for fuzzing the loaders.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=6), inner, max_size=6),
    max_leaves=40,
)


def assert_orthonormal_transform(t) -> None:
    """A loaded transform passes the Gram and scale checks: nonzero,
    exactly orthogonal integer rows, scaled to unit norm."""
    quarter = t.half_units @ t.half_units.T
    diag = np.diag(quarter)
    assert np.array_equal(quarter, np.diag(diag)) and np.all(diag > 0)
    assert np.all(np.abs(t.scale - 2.0 / np.sqrt(diag)) <= 1e-12)
    assert np.allclose(t.matrix @ t.matrix.T, np.eye(t.n), rtol=0, atol=1e-12)


def dominates(x, y) -> bool:
    """Component-wise dominance for minimization: the scalar oracle for the
    search's non-dominated filter."""
    return all(a <= b for a, b in zip(x, y)) and any(a < b for a, b in zip(x, y))


def _nondominated_mask(objs: np.ndarray) -> np.ndarray:
    """Brute-force reference front: boolean mask of rows not dominated by any
    other row (minimization).  Rows with identical values never dominate
    each other."""
    n = objs.shape[0]
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        if not keep[i]:
            continue
        weakly = np.all(objs <= objs[i], axis=1)
        strictly = np.any(objs < objs[i], axis=1)
        if np.any(weakly & strictly):
            keep[i] = False
    return keep


def objectives_reference(report) -> tuple:
    """Minimization vector of one report, each float rounded on its own with
    np.round (Python's round can differ): the oracle for the column call
    behind ``search.objectives``."""
    return (
        float(np.round(report.epsilon, 9)),
        float(np.round(report.mse, 9)),
        float(np.round(-report.coding_gain_db, 9)),
        float(np.round(-report.efficiency_pct, 9)),
        report.additions,
        report.shifts,
    )


def pareto_front_reference(evaluated) -> list:
    """Reference ``search.pareto_front``: the brute-force front of the
    objectives_reference vectors, identical vectors grouped with one
    canonical member (most nonnegative components, then lexicographically
    smallest), sorted by a key computed from each entry's report."""
    if not evaluated:
        return []
    objs = np.array([objectives_reference(rep) for _, rep in evaluated], dtype=np.float64)
    groups: dict[tuple, list[int]] = {}
    for i in np.flatnonzero(_nondominated_mask(objs)):
        groups.setdefault(tuple(objs[i]), []).append(int(i))
    entries = []
    for idxs in groups.values():
        rep_pv = min(
            (evaluated[i][0] for i in idxs),
            key=lambda pv: (-sum(1 for v in pv.values if v >= 0), pv.values),
        )
        for i in idxs:
            pv, report = evaluated[i]
            entries.append(ParetoEntry(pv, report, canonical=(pv == rep_pv)))

    def order(e) -> tuple:
        eps, m, _gain, _eff, adds, shifts = objectives_reference(e.report)
        return (adds, eps, shifts, m, not e.canonical, e.params.values)

    return sorted(entries, key=order)


def _box_means(x: np.ndarray, w: int) -> np.ndarray:
    # Integral image; one sliding-window mean per fully interior position.
    s = np.zeros((x.shape[0] + 1, x.shape[1] + 1))
    s[1:, 1:] = np.cumsum(np.cumsum(x, axis=0), axis=1)
    total = s[w:, w:] - s[:-w, w:] - s[w:, :-w] + s[:-w, :-w]
    return total / (w * w)


def ssim_reference(a: np.ndarray, b: np.ndarray) -> float:
    """Reference SSIM (uniform 8x8 window, K1=0.01, K2=0.03, range 255),
    every term freshly allocated: the oracle for ``codec.ssim`` and
    ``codec._SsimReference``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c1 = (0.01 * 255.0) ** 2
    c2 = (0.03 * 255.0) ** 2
    w = 8
    mu_a = _box_means(a, w)
    mu_b = _box_means(b, w)
    var_a = _box_means(a * a, w) - mu_a * mu_a
    var_b = _box_means(b * b, w) - mu_b * mu_b
    cov = _box_means(a * b, w) - mu_a * mu_b
    s_map = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    )
    return float(np.mean(s_map))


def reconstruction_reference(image: np.ndarray, transform, policy) -> np.ndarray:
    """Reference reconstruction of one level, every step freshly allocated:
    pad, blocks, forward, retain, inverse, reassemble, crop, clamp."""
    n = _as_matrix(transform).shape[0]
    rows, cols = image.shape
    image = np.asarray(image, dtype=np.float64)
    padded = np.pad(image, ((0, -rows % n), (0, -cols % n)), mode="edge")
    h, w = padded.shape
    blocks = padded.reshape(h // n, n, w // n, n).swapaxes(1, 2).reshape(-1, n, n)
    blocks = inverse_2d(transform, retain(forward_2d(transform, blocks), policy))
    whole = blocks.reshape(h // n, w // n, n, n).swapaxes(1, 2).reshape(h, w)
    return np.clip(whole[:rows, :cols], 0.0, 255.0)


def count_calls(monkeypatch, module, names) -> dict[str, int]:
    """Wrap each named function of ``module`` to count its calls; the
    returned dict holds the counts so far."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name))
    return calls


def catalog_values(j: int) -> tuple[float, ...]:
    return CATALOG[j].values


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)
