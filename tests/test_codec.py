import math
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctapprox import (
    CATALOG,
    RetentionPolicy,
    ape,
    ar1_test_image,
    build_scaled,
    compress_image,
    default_r_grid,
    exact_dct_matrix,
    forward_2d,
    inverse_2d,
    orthonormal_approx,
    psnr,
    read_pgm,
    retain,
    retention_sweep,
    ssim,
    write_pgm,
    zigzag_order,
)
from dctapprox import codec, pgm
from dctapprox.codec import (
    _forward,
    _reconstruct,
    _SsimBands,
    _SsimReference,
    _sweep_lane,
    _transform_buffers,
)
from helpers import (
    JPEG_ZIGZAG_8,
    _box_means,
    count_calls,
    next_token_reference,
    reconstruction_reference,
    rng,
    ssim_reference,
)


def _one_lane_reference(a, n: int = 8):
    """The SSIM scorer of a one-lane sweep of image a at n points: (score,
    band set).  The band set is hosted in the lane's scratch buffer, and
    score(b) copies b into the crop of the lane's inverse buffer and builds
    the map over it, as a lane builds it over the spent reconstruction."""
    inverse, _, bands = _sweep_lane(a.shape, n)
    reference = _SsimReference(a, bands)
    recon = inverse[: a.shape[0], : a.shape[1]]

    def score(b):
        np.copyto(recon, b)
        return reference(recon, bands, inverse.reshape(-1))

    return score, bands


# Window rows of a sweep lane's shortest tall integral band, as the lane
# builder makes it where the padded image is too small to hold it.
_TALL = _sweep_lane((400, 400), 8)[2]._band


def _force_lanes(monkeypatch, lanes: int) -> None:
    monkeypatch.setattr(codec, "_lane_count", lambda: lanes)


class TestZigzag:
    def test_canonical_8x8_order(self):
        flat = [i * 8 + j for i, j in zigzag_order(8)]
        assert flat == JPEG_ZIGZAG_8

    def test_start_and_end(self):
        order = zigzag_order(8)
        assert order[:3] == [(0, 0), (0, 1), (1, 0)]
        assert order[-1] == (7, 7)

    @given(st.integers(min_value=2, max_value=16))
    def test_bijective(self, n):
        order = zigzag_order(n)
        assert sorted(order) == [(i, j) for i in range(n) for j in range(n)]


class TestRetention:
    def test_full_retention_is_identity(self):
        block = rng(1).standard_normal((8, 8))
        policy = RetentionPolicy(n=8, r_fraction=1.0)
        assert np.array_equal(retain(block, policy), block)

    def test_dc_only(self):
        block = rng(2).standard_normal((8, 8))
        policy = RetentionPolicy(n=8, r_fraction=1 / 64)
        out = retain(block, policy)
        assert out[0, 0] == block[0, 0]
        out[0, 0] = 0.0
        assert np.all(out == 0)

    def test_quarter_keeps_16(self):
        assert RetentionPolicy(n=8, r_fraction=0.25).retained_count == 16

    def test_masks_are_nested(self):
        grid = default_r_grid()
        prev = np.zeros((8, 8))
        for r in grid:
            mask = RetentionPolicy(n=8, r_fraction=r).mask
            assert np.all(mask >= prev)
            prev = mask

    @pytest.mark.parametrize("r", [0.0, -0.1, 1.01])
    def test_bad_fraction_rejected(self, r):
        with pytest.raises(ValueError):
            RetentionPolicy(n=8, r_fraction=r)


class TestBlockTransforms:
    def test_constant_block_concentrates_dc(self):
        for transform, n in [
            (orthonormal_approx(CATALOG[5]), 8),
            (build_scaled(CATALOG[5], 16), 16),
        ]:
            block = np.full((n, n), 3.25)
            coeffs = forward_2d(transform, block)
            assert coeffs[0, 0] == pytest.approx(n * 3.25, abs=1e-10)
            coeffs[0, 0] = 0.0
            assert np.max(np.abs(coeffs)) < 1e-10

    def test_zero_block(self):
        t = orthonormal_approx(CATALOG[1])
        assert np.array_equal(forward_2d(t, np.zeros((8, 8))), np.zeros((8, 8)))

    def test_dct_preserves_energy(self):
        block = rng(3).standard_normal((8, 8))
        coeffs = forward_2d(exact_dct_matrix(8), block)
        assert np.linalg.norm(coeffs) == pytest.approx(np.linalg.norm(block), abs=1e-10)

    def test_round_trip(self):
        t = orthonormal_approx(CATALOG[15])
        block = rng(4).standard_normal((8, 8))
        assert np.max(np.abs(inverse_2d(t, forward_2d(t, block)) - block)) < 1e-10

    def test_impulse_round_trip(self):
        t = orthonormal_approx(CATALOG[9])
        block = np.zeros((8, 8))
        block[0, 0] = 1.0
        assert np.max(np.abs(inverse_2d(t, forward_2d(t, block)) - block)) < 1e-10

    def test_stack_matches_per_block(self):
        t = orthonormal_approx(CATALOG[15])
        policy = RetentionPolicy(n=8, r_fraction=0.45)
        stack = rng(5).standard_normal((3, 2, 8, 8))
        out = inverse_2d(t, retain(forward_2d(t, stack), policy))
        for idx in np.ndindex(3, 2):
            block = inverse_2d(t, retain(forward_2d(t, stack[idx]), policy))
            assert np.array_equal(out[idx], block)

    def test_shape_mismatch(self):
        for shape in [(4, 4), (2, 8, 4), (8,)]:
            with pytest.raises(ValueError):
                forward_2d(orthonormal_approx(CATALOG[1]), np.zeros(shape))


class TestQualityMetrics:
    def test_psnr_sentinel_for_identical(self):
        img = ar1_test_image(64, 64, seed=5)
        assert psnr(img, img) == 999.0

    @pytest.mark.parametrize("shape", [(0,), (0, 0), (0, 8), (8, 0)])
    def test_psnr_refuses_empty_images(self, shape):
        # An empty mean would be nan with a RuntimeWarning; ssim raises too.
        with pytest.raises(ValueError, match="empty"):
            psnr(np.zeros(shape), np.zeros(shape))

    def test_ssim_identical_is_exactly_one(self):
        img = ar1_test_image(64, 64, seed=6).astype(np.float64)
        assert ssim(img, img) == 1.0

    def test_ssim_symmetric_and_bounded(self):
        a = ar1_test_image(64, 64, seed=7).astype(np.float64)
        b = ar1_test_image(64, 64, seed=8).astype(np.float64)
        assert ssim(a, b) == ssim(b, a)
        assert -1.0 <= ssim(a, b) <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=8, max_value=40),
        st.integers(min_value=8, max_value=40),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=3),
    )
    def test_one_reference_scores_a_sequence(self, h, w, seed, extra):
        g = rng(seed)
        a = g.integers(0, 256, size=(h, w)).astype(np.float64)
        others = [np.clip(a + g.normal(0.0, 40.0, size=(h, w)), 0.0, 255.0)
                  for _ in range(extra)]
        others.append(np.full((h, w), 17.0))
        score, _ = _one_lane_reference(a)
        for b in [a, *others, others[0], a]:
            assert score(b) == ssim_reference(a, b)
        assert ssim(others[0], a) == ssim_reference(others[0], a)

    def test_ape(self):
        assert ape(30.0, 32.0) == pytest.approx(6.25)
        assert ape(5.0, 5.0) == 0.0
        with pytest.raises(ValueError):
            ape(1.0, 0.0)


def _sub_rows(width: int) -> int:
    """Window rows of an SSIM means sub-band: the whole band of a band set
    with no host, as ``ssim`` makes."""
    return codec._SSIM_SUB_ELEMENTS // (width + 1)


def _sub_bands(bands: _SsimBands) -> int:
    """The means sub-bands of one three-channel pass."""
    zero = np.zeros((bands._window[0] + 7, bands._window[1] + 7))
    return sum(1 for _ in bands._window_means((zero,), (zero,), (zero,)))


# Band-seam cases of a one-lane sweep at 8 points: (shape, integral bands,
# sub-bands, host), where host says whether the lane's scratch, padded to
# whole 8 x 8 blocks, holds a 167-row band unaided ("larger"), so that its
# bands are as tall as it holds, or is allocated larger for it ("smaller").
_SEAMS = [
    # The last band ends on its band edge, each band with a means sub-band
    # seam inside it.
    ((3 * _TALL + 7, 150), 3, 6, "smaller"),
    ((3 * _TALL + 8, 150), 4, 7, "smaller"),   # a one-row last band
    ((500, 524), 3, 18, "smaller"),   # the benchmark's shape
    ((_TALL + 7, 150), 1, 2, "smaller"),   # the whole image in one band
    ((9, 700), 1, 1, "smaller"),
    ((1200, 9), 2, 2, "larger"),   # tall and narrow: a sub-band is a band
    ((524, 500), 4, 19, "larger"),   # the benchmark's transposed shape
    ((14, 5000), 1, 3, "smaller"),   # sub-bands shorter than the halo
    # The width a multiple of 32, so the padded width is the width at every
    # block size: the map's row r ends closest to the first unread row of
    # the reconstruction it is built over.
    ((400, 192), 3, 5, "smaller"),
    ((720, 203), 4, 10, "larger"),   # 236-row bands with sub-band seams
]


class TestSsimBands:
    """The banded integral images give the whole-image oracle's scores
    exactly, across band and sub-band seams and at the extremes of the band
    height."""

    @pytest.mark.parametrize("shape, bands", [case[:2] for case in _SEAMS])
    def test_scores_equal_the_oracle(self, shape, bands):
        g = rng(shape[0] * shape[1])
        a = g.integers(0, 256, size=shape).astype(np.float64)
        noisy = np.clip(a + g.normal(0.0, 40.0, size=shape), 0.0, 255.0)
        score, band_set = _one_lane_reference(a)
        assert math.ceil((shape[0] - 7) / band_set._band) == bands
        for b in [noisy, a, np.full(shape, 17.0), noisy]:
            assert score(b) == ssim_reference(a, b)
        assert ssim(noisy, a) == ssim_reference(noisy, a)

    @pytest.mark.parametrize("shape, bands, subs, host", _SEAMS)
    def test_seam_cases_have_their_geometry(self, shape, bands, subs, host):
        # A band is as many window rows as the lane's scratch holds, at most
        # the whole image; a sub-band is 16,384 elements per channel.
        inverse, scratch, band_set = _sweep_lane(shape, 8)
        held = scratch.size // (2 * 3 * ((shape[1] + 2) // 2)) - 8
        assert band_set._band == min(shape[0] - 7, held)
        assert band_set._sub == min(band_set._band, _sub_rows(shape[1]))
        assert math.ceil((shape[0] - 7) / band_set._band) == bands
        assert _sub_bands(band_set) == subs
        larger = scratch.size == inverse.size
        assert larger == (host == "larger")
        assert (band_set._band > _TALL) == (larger and shape[0] - 7 > _TALL)
        # Each band of three channels but a short last one runs over more
        # than numpy's GIL threshold of rows, and a scratch allocated past
        # the padded image holds one such band, or the whole image, and no
        # more.
        whole = band_set._band == shape[0] - 7
        assert whole or 3 * band_set._band > codec._GIL_FREE_ROWS
        if not larger:
            assert scratch.size == codec._band_size(shape, 3, band_set._band)
            assert whole or 3 * (band_set._band - 1) <= codec._GIL_FREE_ROWS

    @pytest.mark.parametrize("shape, bands", [
        ((3 * _sub_rows(40) + 7, 40), 3),    # the last band ends on a band edge
        ((3 * _sub_rows(40) + 8, 40), 4),    # one window row past it
        ((700, 9), 1),
        ((9, 700), 1),
    ])
    def test_one_image_scores_equal_the_oracle(self, shape, bands):
        # ssim and compress_image score one image in one pass over five
        # channels, whose bands are shorter than the sweep reference's.
        g = rng(shape[0] + 7 * shape[1])
        a = g.integers(0, 256, size=shape).astype(np.float64)
        noisy = np.clip(a + g.normal(0.0, 40.0, size=shape), 0.0, 255.0)
        assert math.ceil((shape[0] - 7) / _SsimBands(shape, 5)._band) == bands
        for b in [noisy, a, np.full(shape, 17.0)]:
            assert ssim(a, b) == ssim_reference(a, b)
            assert ssim(b, a) == ssim_reference(b, a)

    @pytest.mark.parametrize("scale, shape", [
        (1.0, (2 * _TALL + 11, 203)),   # band and sub-band seams
        (1e-310, (16, 40)),   # integral entries below 2**-1021, so exact
    ])
    def test_reference_means_equal_the_oracle(self, scale, shape):
        a = scale * rng(23).random(shape)
        mu = _box_means(a, 8)
        # Bands of one sub-band, and bands as tall as a lane's scratch holds.
        _, scratch, _ = _sweep_lane(shape, 8)
        scratch.fill(np.nan)
        for host in (None, scratch):
            score = _SsimReference(a, _SsimBands(shape, 3, host))
            assert np.array_equal(score._mu_a, mu)
            assert np.array_equal(score._var_a, _box_means(a * a, 8) - mu * mu)
            assert not (score._mu_a.flags.writeable or score._var_a.flags.writeable)
        if scale < 1.0:
            # The window sums in units of 2**-1074 are not all multiples of
            # 64, so the 2**-6 scale rounds; a*a underflows to finite zeros.
            units = (a * 2.0**537 * 2.0**537).astype(np.int64)
            s = np.pad(units.cumsum(0).cumsum(1), ((1, 0), (1, 0)))
            assert np.any((s[8:, 8:] - s[:-8, 8:] - s[8:, :-8] + s[:-8, :-8]) % 64)

    def test_call_allocates_no_image_sized_buffer(self):
        # Every array of a call is allocated at construction: the window
        # sums are formed in place in the band's means buffer.  What a call
        # still allocates does not grow with the image height: numpy's
        # 8192-element iterator buffers for ufuncs over strided band views,
        # and the temporary through which it copies the 3 x 8-row halo
        # between views of one buffer.  Together they peak near 9% of the
        # image here; one more means sub-band channel would add 6%, and one
        # integral band channel 35%.  The map is built in a buffer that the
        # caller passes in.
        img = ar1_test_image(500, 524, seed=22).astype(np.float64)
        score, _ = _one_lane_reference(img)
        b = np.clip(img + rng(22).normal(0.0, 9.0, size=img.shape), 0.0, 255.0)
        score(b)
        tracemalloc.start()
        try:
            score(b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * img.nbytes

    @pytest.mark.parametrize("fill", [np.nan, 1e308])
    def test_a_lane_clears_what_its_host_held(self, fill, monkeypatch):
        # A lane's scratch hosts its integral bands after the half-inverse
        # and PSNR's squared error.  Filled before each SSIM pass with NaN,
        # or with values whose column sums overflow, it must still give the
        # oracle's scores, and raise no warning: each pass zeroes the
        # integral's zero-border column and its padding column (the width
        # is even, so there is one) afresh.  The inverse buffer's padding
        # is filled too; the map is built over it.
        def spoiling(image, m, coeffs, mask, inverse, scratch):
            out = _reconstruct(image, m, coeffs, mask, inverse, scratch)
            scratch.fill(fill)
            inverse[image.shape[0] :] = fill
            inverse[:, image.shape[1] :] = fill
            return out

        img = ar1_test_image(2 * _TALL + 20, 86, seed=33)
        ref = img.astype(np.float64)
        t = exact_dct_matrix(8)
        monkeypatch.setattr(codec, "_reconstruct", spoiling)
        for lanes in (1, 2):
            _force_lanes(monkeypatch, lanes)
            for r, _, s in retention_sweep(img, t, default_r_grid()[:4]):
                rec = reconstruction_reference(ref, t, RetentionPolicy(n=8, r_fraction=r))
                assert s == ssim_reference(ref, rec)

    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize("shape", [(500, 524), (524, 500)])
    def test_a_lanes_cumsums_run_over_more_than_500_rows(self, shape, lanes, monkeypatch):
        # numpy releases the GIL for an accumulate only over more than 500
        # independent rows (NPY_BEGIN_THREADS_THRESHOLDED in
        # numpy/_core/include/numpy/ndarraytypes.h), so two lanes' SSIM
        # passes overlap only if each band of a lane's pass but the last,
        # which may be short, runs its along-row cumsum over channels x
        # fresh rows > 500 rows.  The column cumsum runs over channels x
        # column pairs.  Structure only: nothing here is timed.
        cumsum = np.cumsum
        calls = {}

        def recording(x, axis=None, **kwargs):
            if x.shape[0] == 3:   # a lane's channels; the reference has two
                calls.setdefault(threading.get_ident(), []).append((x.dtype, axis, x.shape))
            return cumsum(x, axis=axis, **kwargs)

        img = ar1_test_image(*shape, seed=34)
        _force_lanes(monkeypatch, lanes)
        monkeypatch.setattr(np, "cumsum", recording)
        retention_sweep(img, exact_dct_matrix(8), default_r_grid()[:lanes])
        assert len(calls) == lanes   # one pass in each lane
        for lane in calls.values():
            along = [rows for _, axis, (_, rows, _) in lane if axis == 2]
            down = [c * pairs for _, axis, (c, _, pairs) in lane if axis == 1]
            assert all(dtype == np.float64 for dtype, axis, _ in lane if axis == 2)
            assert sum(along) == shape[0]   # rows 1 .. height of the integral
            assert len(along) == len(down) > 1
            assert all(3 * rows > 500 for rows in along[:-1])
            assert all(chains > 500 for chains in down)

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_sweep_equals_the_oracles_at_every_level(self, n):
        # 500 x 524 pads at every size, so PSNR's error buffer is a prefix
        # of the padded half-inverse buffer and the reconstruction a crop.
        # Every level at 8 points, every fourth at 16 and 32, in the lanes
        # this host gives a sweep.
        img = ar1_test_image(500, 524, seed=19)
        ref = img.astype(np.float64)
        t = exact_dct_matrix(n)
        grid = default_r_grid()[:: 1 if n == 8 else 4]
        swept = retention_sweep(img, t, grid)
        assert [r for r, _, _ in swept] == list(grid)
        for r, p, s in swept:
            rec = reconstruction_reference(ref, t, RetentionPolicy(n=n, r_fraction=r))
            assert s == ssim_reference(ref, rec)
            assert p == 10.0 * np.log10(255.0**2 / np.mean((ref - rec) ** 2))

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_sweep_peak_memory(self, n, monkeypatch):
        # Peak traced allocation of a sweep, in image-sized float64 arrays,
        # under one and two lanes: the transform coefficients and the SSIM
        # reference's means and variances, shared by the lanes; per lane,
        # its means sub-band buffers and one (inverse, scratch) pair, each
        # padded to whole blocks: the masked coefficients, then the
        # inverse, whose crop is the reconstruction, then the SSIM map over
        # it; the half-inverse, then the PSNR error, then the SSIM integral
        # bands, for which the scratch is allocated 1.054 image sizes here,
        # past its 1.016 of padded image at 8 points.  Each lane's means
        # sub-bands take 16,384 elements per channel.  The uint8 image is
        # read through float64 casts, never copied.  The measured peaks are
        # in the codec module docstring.
        img = ar1_test_image(500, 524, seed=20)
        t = exact_dct_matrix(n)
        retention_sweep(img, t, (0.5,))   # fill the module's mask caches
        for lanes in (1, 2):
            _force_lanes(monkeypatch, lanes)
            tracemalloc.start()
            try:
                retention_sweep(img, t, (0.25, 0.5, 0.75, 0.99))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak / (img.size * 8) < 8.5, lanes

    @pytest.mark.parametrize("shape", [(100, 1000), (60, 2000)])
    def test_short_image_sweep_peak_memory(self, shape, monkeypatch):
        # A short image's band set is one band of the whole image, and each
        # lane's scratch is allocated for it: 3 channels x (window rows + 8)
        # rows, about three image sizes, against one padded image.  Two
        # lanes then peak near 12.5 image-sized arrays at 8 points (see the
        # codec module docstring, and ``_sweep_lane`` for why the scratch
        # is not cut to the image).  The bound keeps the peak from
        # growing unseen.
        img = ar1_test_image(*shape, seed=35)
        t = exact_dct_matrix(8)
        retention_sweep(img, t, (0.5,))   # fill the module's mask caches
        _force_lanes(monkeypatch, 2)
        tracemalloc.start()
        try:
            retention_sweep(img, t, (0.25, 0.5, 0.75, 0.99))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (img.size * 8) < 13.0


class TestSweepLanes:
    """A sweep scores its levels in one or two lanes with the same bytes,
    raises what either lane raises, and leaves no thread behind."""

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_one_and_two_lanes_equal_the_oracles(self, n, monkeypatch):
        # Every size pads each shape.  (172, 203): one band with two
        # sub-band seams and a short last sub-band.  (100, 1000): a short,
        # wide image, one band of the whole image in a scratch allocated
        # for it.  (1200, 9): a tall image whose image-sized scratch holds
        # bands of 632 rows at 8 points.
        t = build_scaled(CATALOG[9], n)
        grid = default_r_grid()
        for shape in [(2 * _sub_rows(203) + 12, 203), (100, 1000), (1200, 9)]:
            img = ar1_test_image(*shape, seed=28 + n)
            ref = img.astype(np.float64)
            for levels in (0, 1, 2, 3, 38):
                rs = grid[:levels]
                swept = []
                for lanes in (1, 2):
                    _force_lanes(monkeypatch, lanes)
                    swept.append(retention_sweep(img, t, (r for r in rs)))
                expected = []
                for r in rs:
                    rec = reconstruction_reference(ref, t, RetentionPolicy(n=n, r_fraction=r))
                    db = 10.0 * np.log10(255.0**2 / np.mean((ref - rec) ** 2))
                    expected.append((r, db, ssim_reference(ref, rec)))
                assert swept[0] == swept[1] == expected, (shape, levels)

    @pytest.mark.parametrize("cap", [1, 2])
    def test_a_sweep_runs_one_lane_per_level_up_to_the_cap(self, cap, monkeypatch):
        # min(cap, levels) lanes, each built once; lane 0 runs in the
        # calling thread, so one thread starts per lane past the first.
        # Structure only: nothing here is timed.
        img = ar1_test_image(40, 56, seed=36)
        t = exact_dct_matrix(8)
        _force_lanes(monkeypatch, cap)
        start = threading.Thread.start
        started = []

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        built = count_calls(monkeypatch, codec, ["_sweep_lane"])
        for levels in (0, 1, 2, 38):
            started.clear()
            built["_sweep_lane"] = 0
            assert len(retention_sweep(img, t, default_r_grid()[:levels])) == levels
            lanes = min(cap, levels)
            assert built["_sweep_lane"] == lanes, levels
            assert len(started) == max(0, lanes - 1), levels
            assert not any(thread.is_alive() for thread in started)

    def test_concurrent_sweeps_fill_their_own_slots(self, monkeypatch):
        # Four callers of two-lane sweeps at once, eight threads on fewer
        # cores, switching as often as the interpreter allows: a lost or
        # misplaced slot would change a result.
        img = ar1_test_image(40, 56, seed=27)
        t = exact_dct_matrix(8)
        grid = default_r_grid()
        _force_lanes(monkeypatch, 1)
        expected = retention_sweep(img, t, grid)
        _force_lanes(monkeypatch, 2)
        results = [None] * 4

        def run(i):
            results[i] = retention_sweep(img, t, grid)

        callers = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == [expected] * 4

    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_a_lane_error_is_raised_and_its_thread_joined(self, failing, monkeypatch):
        img = ar1_test_image(40, 56, seed=29)
        t = exact_dct_matrix(8)
        _force_lanes(monkeypatch, 2)
        caller = threading.get_ident()
        before = threading.active_count()

        def failing_lane(*args):
            lane = "caller" if threading.get_ident() == caller else "worker"
            if lane == failing:
                raise RuntimeError(f"in the {lane} lane")
            return _reconstruct(*args)

        monkeypatch.setattr(codec, "_reconstruct", failing_lane)
        with pytest.raises(RuntimeError, match=f"in the {failing} lane"):
            retention_sweep(img, t, default_r_grid())
        assert threading.active_count() == before

    def test_bad_input_raises_before_any_thread_starts(self, monkeypatch):
        def no_start(_thread):
            raise AssertionError("a lane started before the inputs were checked")

        def no_transform(*_args):
            raise AssertionError("transform work before the inputs were checked")

        _force_lanes(monkeypatch, 2)
        monkeypatch.setattr(threading.Thread, "start", no_start)
        monkeypatch.setattr(codec, "_forward", no_transform)
        t = exact_dct_matrix(8)
        img = ar1_test_image(40, 56, seed=30)
        for rs in [(0.5, 0.75, 1.5), (0.5, 0.0), (float("nan"),)]:
            with pytest.raises(ValueError, match="retention fraction"):
                retention_sweep(img, t, (r for r in rs))
        with pytest.raises(ValueError, match="smaller than the 8x8 window"):
            retention_sweep(img[:7], t, (0.5, 0.75))

    def test_lanes_run_in_the_callers_errstate_and_private_kernels(self, monkeypatch):
        # numpy keeps np.errstate in a contextvar, which a new thread would
        # start without.  The lanes call no public codec function, which a
        # caller may wrap with state that is not thread-safe.
        img = ar1_test_image(40, 56, seed=31)
        t = exact_dct_matrix(8)
        _force_lanes(monkeypatch, 2)
        public = count_calls(monkeypatch, codec, ["psnr", "ssim", "compress_image",
                                                  "forward_2d", "inverse_2d", "retain"])
        seen = {}

        def recording_lane(*args):
            seen.setdefault(threading.get_ident(), set()).add(np.geterr()["over"])
            return _reconstruct(*args)

        monkeypatch.setattr(codec, "_reconstruct", recording_lane)
        with np.errstate(over="raise"):
            retention_sweep(img, t, default_r_grid()[:4])
        assert len(seen) == 2
        assert all(modes == {"raise"} for modes in seen.values())
        assert not any(public.values())


class TestCompressImage:
    def test_full_retention_is_lossless(self):
        img = ar1_test_image(96, 96, seed=9)
        t = orthonormal_approx(CATALOG[15])
        recon, scores = compress_image(img, t, RetentionPolicy(n=8, r_fraction=1.0))
        assert np.max(np.abs(recon - img)) < 1e-6
        assert scores.psnr_db >= 100.0
        assert scores.ssim == pytest.approx(1.0, abs=1e-9)

    def test_pad_and_crop_arbitrary_shape(self):
        img = ar1_test_image(100, 52, seed=10)
        t = orthonormal_approx(CATALOG[1])
        recon, _ = compress_image(img, t, RetentionPolicy(n=8, r_fraction=1.0))
        assert recon.shape == (100, 52)
        assert np.max(np.abs(recon - img)) < 1e-6

    def test_batched_blocks_match_per_block_reference(self):
        img = ar1_test_image(64, 64, seed=11).astype(np.float64)
        t = orthonormal_approx(CATALOG[9])
        policy = RetentionPolicy(n=8, r_fraction=0.45)
        recon, _ = compress_image(img, t, policy)
        reference = np.empty_like(img)
        for bi in range(8):
            for bj in range(8):
                block = img[8 * bi : 8 * bi + 8, 8 * bj : 8 * bj + 8]
                coeffs = retain(forward_2d(t, block), policy)
                reference[8 * bi : 8 * bi + 8, 8 * bj : 8 * bj + 8] = inverse_2d(t, coeffs)
        np.clip(reference, 0.0, 255.0, out=reference)
        assert np.array_equal(recon, reference)

    def test_approximation_close_to_dct_at_r045(self):
        img = ar1_test_image(256, 256, seed=12)
        policy = RetentionPolicy(n=8, r_fraction=0.45)
        _, dct_scores = compress_image(img, exact_dct_matrix(8), policy)
        _, approx_scores = compress_image(img, orthonormal_approx(CATALOG[15]), policy)
        assert abs(dct_scores.psnr_db - approx_scores.psnr_db) < 2.0

    def test_sweep_matches_compress(self):
        img = ar1_test_image(64, 64, seed=13)
        t = orthonormal_approx(CATALOG[5])
        for rs in [(0.3, 0.7), (0.9, 0.25, 0.9, 0.5)]:
            swept = retention_sweep(img, t, rs)
            assert [r for r, _, _ in swept] == list(rs)
            for r, p, s in swept:
                _, scores = compress_image(img, t, RetentionPolicy(n=8, r_fraction=r))
                assert p == scores.psnr_db
                assert s == scores.ssim

    def test_sweep_reads_the_levels_once(self):
        img = ar1_test_image(40, 48, seed=21)
        t = exact_dct_matrix(8)
        levels = (0.5, 0.75)
        swept = retention_sweep(img, t, (r for r in levels))
        assert len(swept) == 2
        assert swept == retention_sweep(img, t, levels)

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_reconstructions_match_per_level_reference(self, n):
        # One forward transform, read by two buffer pairs in turn, as the
        # lanes of a sweep read it.
        img = ar1_test_image(2 * n + 3, 3 * n - 5, seed=16).astype(np.float64)
        rs = (0.9, 0.25, 1.0, 0.5, 0.9)
        for t in (exact_dct_matrix(n), build_scaled(CATALOG[9], n)):
            m = codec._as_matrix(t)
            pairs = [_transform_buffers(img.shape, n) for _ in range(2)]
            coeffs = np.empty(pairs[0][0].size)
            _forward(img, m, *pairs[0], coeffs)
            kept = coeffs.copy()
            for k, r in enumerate(rs):
                policy = RetentionPolicy(n=n, r_fraction=r)
                rec, db = _reconstruct(img, m, coeffs, policy.mask, *pairs[k % 2])
                expected = reconstruction_reference(img, t, policy)
                assert np.array_equal(rec, expected)
                assert db == psnr(img, expected)
            assert np.array_equal(coeffs, kept)

    def test_compress_returns_independent_arrays(self):
        img = ar1_test_image(40, 44, seed=17)
        t = orthonormal_approx(CATALOG[3])
        first, _ = compress_image(img, t, RetentionPolicy(n=8, r_fraction=0.3))
        kept = first.copy()
        second, _ = compress_image(img, t, RetentionPolicy(n=8, r_fraction=0.9))
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("rows, cols", [(1, 5), (4, 3), (2.25, 2.75)])
    def test_caller_image_is_left_unchanged(self, n, rows, cols):
        # In block units: one block row, a whole number of blocks, and a
        # padded image.
        shape = (int(rows * n), int(cols * n))
        img = ar1_test_image(*shape, seed=22).astype(np.float64)
        kept = img.copy()
        t = build_scaled(CATALOG[9], n)
        retention_sweep(img, t, (0.25, 0.6, 1.0))
        assert np.array_equal(img, kept)
        recon, _ = compress_image(img, t, RetentionPolicy(n=n, r_fraction=0.4))
        assert np.array_equal(img, kept)
        assert not np.shares_memory(recon, img)

    @pytest.mark.parametrize("shape", [(64,), (2, 16, 16)])
    def test_rejects_images_that_are_not_2d(self, shape):
        img = np.zeros(shape)
        t = exact_dct_matrix(8)
        with pytest.raises(ValueError, match="2-d"):
            retention_sweep(img, t, (0.5,))
        with pytest.raises(ValueError, match="2-d"):
            compress_image(img, t, RetentionPolicy(n=8, r_fraction=0.5))
        with pytest.raises(ValueError, match="2-d"):
            ssim(img, img)

    def test_sweep_checks_ssim_window_before_transforming(self, monkeypatch):
        def no_transform(*_args):
            raise AssertionError("transform work before the SSIM window check")

        # _forward is the first transform work of both.
        monkeypatch.setattr(codec, "_forward", no_transform)
        small = ar1_test_image(6, 40, seed=18)
        t = exact_dct_matrix(8)
        with pytest.raises(ValueError, match="smaller than the 8x8 window"):
            retention_sweep(small, t, (0.5,))
        with pytest.raises(ValueError, match="smaller than the 8x8 window"):
            compress_image(small, t, RetentionPolicy(n=8, r_fraction=0.5))
        with pytest.raises(ValueError, match="policy block size 16 != transform size 8"):
            compress_image(ar1_test_image(40, 40, seed=18), t,
                           RetentionPolicy(n=16, r_fraction=0.5))

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_compress_equals_the_oracles(self, n):
        # Padded shapes: a few blocks, and five-channel SSIM bands whose
        # last one ends on its band edge.
        shapes = [(2 * n + 3, 3 * n - 5), (3 * _sub_rows(203) + 7, 203)]
        for shape in shapes:
            img = ar1_test_image(*shape, seed=n + shape[1]).astype(np.float64)
            for t in (exact_dct_matrix(n), build_scaled(CATALOG[9], n)):
                for r in (0.25, 0.6, 1.0):
                    policy = RetentionPolicy(n=n, r_fraction=r)
                    recon, scores = compress_image(img, t, policy)
                    expected = reconstruction_reference(img, t, policy)
                    assert np.array_equal(recon, expected)
                    mse = np.mean((img - expected) ** 2)
                    assert scores.psnr_db == 10.0 * np.log10(255.0**2 / mse)
                    assert scores.ssim == ssim_reference(img, expected)

    def test_integer_and_float32_images_read_as_float64(self, monkeypatch):
        img = ar1_test_image(45, 61, seed=25)   # uint8
        t = build_scaled(CATALOG[9], 16)
        policy = RetentionPolicy(n=16, r_fraction=0.4)
        int16 = (img.astype(np.int16) - 64) * 2   # values outside [0, 255]
        float32 = (img + rng(25).random(img.shape)).astype(np.float32)
        for typed in (img, int16, float32):
            as_float = typed.astype(np.float64)
            other = np.clip(as_float[::-1] + 3.0, 0.0, 255.0)
            assert psnr(typed, other) == psnr(as_float, other)
            assert psnr(other, typed) == psnr(other, as_float)
            mse = np.mean((as_float - other) ** 2)
            assert psnr(typed, other) == 10.0 * np.log10(255.0**2 / mse)
            for x, y, oracle in [(typed, other, (as_float, other)),
                                 (other, typed, (other, as_float))]:
                assert ssim(x, y) == ssim(*oracle) == ssim_reference(*oracle)
            recon, scores = compress_image(typed, t, policy)
            expected = reconstruction_reference(as_float, t, policy)
            assert np.array_equal(recon, expected)
            assert scores == compress_image(as_float, t, policy)[1]
            assert scores.ssim == ssim_reference(as_float, expected)
            for lanes in (1, 2):
                _force_lanes(monkeypatch, lanes)
                rs = (0.25, 0.4, 0.99)
                assert retention_sweep(typed, t, rs) == retention_sweep(as_float, t, rs)

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_compress_peak_memory(self, n):
        # Peak traced allocation of a warm call, in image-sized float64
        # arrays, each buffer padded to whole blocks:
        # - the inverse buffer: the edge-replicated image, then the masked
        #   coefficients, then the inverse, whose crop is returned;
        # - the scratch buffer: the forward stage's M @ A, the half-inverse,
        #   PSNR's squared error, then the SSIM map;
        # - the five-channel SSIM band buffers, one sub-band of 16,384
        #   elements per channel, under one array.
        # The uint8 image is read through float64 casts, never copied.  The
        # measured peaks are in the codec module docstring.
        img = ar1_test_image(500, 524, seed=24)
        t = exact_dct_matrix(n)
        policy = RetentionPolicy(n=n, r_fraction=0.45)
        compress_image(img, t, policy)   # fill the module's mask cache
        tracemalloc.start()
        try:
            compress_image(img, t, policy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (img.size * 8) < 3.5


class TestDefaultGrid:
    def test_grid_shape(self):
        grid = default_r_grid()
        assert grid[0] == 0.25
        assert grid[-1] == 0.99
        assert len(grid) == 38


_HEADER_TOKENS = [
    b"0", b"1", b"2", b"3", b"0255", b"255", b"254", b"256", b"65535",
    b"+5", b"-1", b"1_0", b"0x10", b"1e2", b"\xd9\xa3", b"\xef\xbc\x93",
]
_SEPARATORS = [b" ", b"\n", b"\t", b"\r\n", b"\x0b", b" # note\n", b"\n#\n"]


@st.composite
def _pgm_bytes(draw):
    """(file bytes, declared (height, width) or None): arbitrary bytes, or a
    P5 header of plausible and malformed tokens before a raster of random
    length.  Tokens hold no whitespace or '#', so the declared shape is the
    one the header states."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=40)), None
    token = st.one_of(
        st.sampled_from(_HEADER_TOKENS),
        st.binary(min_size=1, max_size=4)
        .map(lambda b: b.translate(None, b" \t\n\r\x0b\x0c#"))
        .filter(bool),
    )
    magic = draw(st.one_of(st.just(b"P5"), st.sampled_from([b"P2", b"P6", b"P55"])))
    dim = st.one_of(st.sampled_from([b"1", b"2", b"3"]), token)
    width, height = draw(dim), draw(dim)
    maxval = draw(st.one_of(st.just(b"255"), token))
    sep = st.sampled_from(_SEPARATORS)
    data = b"".join([
        magic, draw(sep), width, draw(sep), height, draw(sep), maxval,
        draw(st.sampled_from([b"\n", b" "])), draw(st.binary(max_size=12)),
    ])
    declared = None
    if width.isdigit() and height.isdigit():
        declared = (int(height), int(width))
    return data, declared


# Bytes that matter to a header scanner: tokens, '#', every byte of
# bytes.isspace, and bytes that str.isspace accepts but bytes.isspace does not.
_HEADER_SOUP = st.lists(st.sampled_from([
    b"P5", b"2", b"255", b"x", b"#", b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c",
    b"\x1c", b"\x85", b"\xa0",
]), max_size=16).map(b"".join)


def _token_or_error(scan, data: bytes, pos: int):
    try:
        return scan(data, pos)
    except ValueError as e:
        return str(e)


def _read_outcome(path):
    try:
        image = pgm.read_pgm(path)
    except ValueError as e:
        return str(e)
    return image.dtype, image.shape, image.tobytes()


def _assert_same_as_scanner(tmp_path_factory, data: bytes):
    """`read_pgm` gives the array or the ValueError message it gave with the
    byte-by-byte scanner, and `_next_token` agrees with it at every offset;
    returns that outcome."""
    path = tmp_path_factory.mktemp("pgm") / "f.pgm"
    path.write_bytes(data)
    with mock.patch.object(pgm, "_next_token", next_token_reference):
        expected = _read_outcome(path)
    assert _read_outcome(path) == expected
    for pos in range(len(data) + 1):
        assert (_token_or_error(pgm._next_token, data, pos)
                == _token_or_error(next_token_reference, data, pos)), pos
    return expected


class TestPgm:
    def test_round_trip(self, tmp_path):
        img = ar1_test_image(40, 56, seed=14)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        assert np.array_equal(read_pgm(path), img)

    def test_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "c.pgm"
        raster = bytes(range(6))
        path.write_bytes(b"P5 # magic\n# a comment line\n 3\n2 # size\n255\n" + raster)
        img = read_pgm(path)
        assert img.shape == (2, 3)
        assert img.tobytes() == raster

    def test_rejects_other_formats(self, tmp_path):
        path = tmp_path / "p2.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(ValueError):
            read_pgm(path)

    def test_rejects_16_bit(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(ValueError):
            read_pgm(path)

    @pytest.mark.parametrize("header", [
        b"P5\n2 2\n200\n", b"P5\n2 2\n256\n", b"P5\n+2 2\n255\n",
        b"P5\n1_0 1\n255\n", b"P5\n2 2\n0xff\n", b"P5\n2 -2\n255\n",
    ])
    def test_rejects_non_netpbm_header(self, tmp_path, header):
        path = tmp_path / "h.pgm"
        path.write_bytes(header + bytes(20))
        with pytest.raises(ValueError):
            read_pgm(path)

    @settings(max_examples=300)
    @given(_pgm_bytes())
    def test_header_fuzz(self, tmp_path_factory, case):
        data, declared = case
        path = tmp_path_factory.mktemp("fuzz") / "f.pgm"
        path.write_bytes(data)
        try:
            img = read_pgm(path)
        except ValueError:
            return
        assert img.dtype == np.uint8 and img.ndim == 2
        if declared is not None:
            assert img.shape == declared

    @settings(max_examples=300)
    @given(_pgm_bytes())
    def test_tokenizer_matches_the_byte_scanner(self, tmp_path_factory, case):
        _assert_same_as_scanner(tmp_path_factory, case[0])

    @settings(max_examples=300)
    @given(_HEADER_SOUP)
    def test_tokenizer_matches_the_byte_scanner_on_separator_soup(self, tmp_path_factory,
                                                                   data):
        _assert_same_as_scanner(tmp_path_factory, data)

    @pytest.mark.parametrize("data, outcome", [
        (b"P5 #c", "truncated PGM header"),
        (b"P5\n2 2\n255 # c", "truncated PGM raster: expected 4 bytes, got 3"),
        (b"P5\n2#3 2\n255\n" + bytes(6), "PGM header value b'2#3' is not a decimal number"),
        (b"P5#c\n2 2\n255\n" + bytes(4), "not a binary PGM (magic b'P5#c', expected b'P5')"),
        (b"P5\x0c2\x0c1\x0c255\x0c" + bytes(2), (1, 2)),
        (b"P5\r2\r1\r255\r" + bytes(2), (1, 2)),
        (b"P5 # c\r2 # d\x0c\n1\r255\n" + bytes(2), (1, 2)),
    ])
    def test_tokenizer_cases(self, tmp_path_factory, data, outcome):
        # A comment at end of file leaves no token, and one after maxval is
        # raster; '#' inside a token is part of it; \x0c and \r separate
        # tokens and \r ends a comment.
        found = _assert_same_as_scanner(tmp_path_factory, data)
        assert (found if isinstance(outcome, str) else found[1]) == outcome

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(ValueError):
            read_pgm(path)

    def test_write_rejects_non_uint8(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "f.pgm", np.zeros((4, 4)))
