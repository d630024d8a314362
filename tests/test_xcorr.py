"""Correlation routes and peak refinement."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from itfmap import wavelets, xcorr
from itfmap.xcorr import (
    CorrelationSeries,
    DegenerateWindowError,
    InterpSpec,
    PeakNeighborhoods,
    cc_freq,
    cc_time,
    cc_wavelet,
    peak_neighborhoods,
    refine_peak,
    refine_peaks,
)

DT = 4e-9


def brute_force_corr(x, y):
    """Direct double-loop oracle for c[k] = sum_n x[n] y[n+k]."""
    n = len(x)
    out = np.zeros(2 * n - 1)
    for i, k in enumerate(range(-(n - 1), n)):
        s = 0.0
        for m in range(n):
            if 0 <= m + k < n:
                s += x[m] * y[m + k]
        out[i] = s
    return out


def normalized_window(seed, n=256):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    x -= x.mean()
    return x / np.abs(x).max()


def delayed_by(x, k):
    y = np.zeros_like(x)
    y[k:] = x[:-k]
    return y


def bandlimited_pair(delay_samples, n=256, seed=5):
    """Analytic fractional delay of a 40-80 MHz multi-sine (periodic in n)."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) * DT
    x = np.zeros(n)
    for f0 in np.linspace(42e6, 78e6, 16):
        x += rng.uniform(0.5, 1.0) * np.sin(2 * np.pi * f0 * t + rng.uniform(0, 2 * np.pi))
    x -= x.mean()
    x /= np.abs(x).max()
    spec = np.fft.rfft(x)
    k = np.arange(len(spec))
    y = np.fft.irfft(spec * np.exp(-2j * np.pi * k * delay_samples / n), n)
    return x, y


class TestCcTime:
    def test_matches_brute_force_oracle(self):
        x = normalized_window(0, 48)
        y = normalized_window(1, 48)
        series = cc_time(x, y)
        oracle = brute_force_corr(x, y) / (np.linalg.norm(x) * np.linalg.norm(y))
        np.testing.assert_allclose(series.coefficients, oracle, atol=1e-12)
        assert series.lags[0] == -47 and series.lags[-1] == 47

    def test_autocorrelation_peak(self):
        x = normalized_window(2)
        lag, coeff = cc_time(x, x).peak()
        assert lag == 0
        assert coeff == pytest.approx(1.0, abs=1e-12)

    def test_integer_shift_recovered(self):
        x = normalized_window(3)
        lag, _ = cc_time(x, delayed_by(x, 5)).peak()
        assert lag == 5

    def test_orthogonal_signals_zero_at_lag_zero(self):
        n = 256
        t = np.arange(n)
        x = np.sin(2 * np.pi * 8 * t / n)
        y = np.cos(2 * np.pi * 8 * t / n)
        series = cc_time(x, y)
        assert abs(series.coefficients[n - 1]) < 1e-9

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateWindowError):
            cc_time(np.zeros(16), np.ones(16))

    def test_coefficient_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b = rng.normal(size=128), rng.normal(size=128)
            assert np.max(np.abs(cc_time(a, b).coefficients)) <= 1.0 + 1e-9

    def test_antisymmetry_of_peak_on_shifts(self):
        x = normalized_window(6)
        y = delayed_by(x, 7)
        assert cc_time(x, y).peak()[0] == -cc_time(y, x).peak()[0]


class TestCcFreq:
    def test_equals_cc_time_everywhere(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            a, b = rng.normal(size=256), rng.normal(size=256)
            np.testing.assert_allclose(
                cc_freq(a, b).coefficients, cc_time(a, b).coefficients, atol=1e-9
            )

    def test_self_and_negated_peaks(self):
        x = normalized_window(11)
        assert cc_freq(x, x).peak() == (0, pytest.approx(1.0, abs=1e-12))
        lag, coeff = cc_freq(x, -x).peak()
        series = cc_freq(x, -x)
        i0 = np.flatnonzero(series.lags == 0)[0]
        assert series.coefficients[i0] == pytest.approx(-1.0, abs=1e-12)


class TestCcWavelet:
    def test_identity_peak(self):
        x = normalized_window(12)
        lag, coeff = cc_wavelet(x, x).peak()
        assert lag == 0
        assert coeff == pytest.approx(1.0, abs=1e-6)

    def test_integer_shift_matches_cc_time(self):
        x = normalized_window(13)
        y = delayed_by(x, 5)
        assert cc_wavelet(x, y).peak()[0] == cc_time(x, y).peak()[0] == 5

    def test_null_distribution(self):
        high = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            a, b = rng.normal(size=256), rng.normal(size=256)
            _, coeff = cc_wavelet(a, b).peak()
            high += coeff >= 0.35
        assert high <= 10  # < 0.35 in >= 90% of seeded trials

    def test_band_mismatch_rejected(self):
        x = normalized_window(14)
        with pytest.raises(ValueError, match="band"):
            cc_wavelet(x, x, dt=1e-7)  # both levels lie below 5 MHz

    def test_lag_axis_shared_with_cc_time(self):
        x = normalized_window(15)
        np.testing.assert_array_equal(cc_wavelet(x, x).lags, cc_time(x, x).lags)

    def test_coefficient_bound(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            a, b = rng.normal(size=256), rng.normal(size=256)
            assert np.max(np.abs(cc_wavelet(a, b).coefficients)) <= 1 + 1e-9


class TestCorrelateBlock:
    @pytest.mark.parametrize("method", xcorr.CC_METHODS)
    def test_rows_equal_one_pair_calls(self, method):
        block = np.random.default_rng(17).normal(size=(3, 9, 37))
        out = xcorr.correlate_block(block, method)
        assert out.shape == (9, 2, 73)
        for k in range(9):
            for p in (1, 2):
                one = xcorr.correlate(block[0, k], block[p, k], method)
                np.testing.assert_array_equal(out[k, p - 1], one.coefficients)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown correlation method"):
            xcorr.correlate_block(np.ones((3, 1, 8)), "ccxx")


def modwt_reference(segment, levels):
    """Detail levels 1 .. `levels` of one segment by `np.convolve`, as ccwd
    computed them one window at a time."""
    out, v = [], segment
    for hj, gj in wavelets.level_filters(wavelets.get_basis("sym4"), levels):
        out.append(np.convolve(v, gj)[: len(segment)])
        v = np.convolve(v, hj)[: len(segment)]
    return out


def ccwd_reference(block, selected, levels=None):
    """The per-window ccwd loop: per pair and level, `np.correlate` of the
    details normalized by their energies, averaged with weights
    sqrt(ex * ey); a level where either energy is 0 is left out.
    `levels[j - 1][p, k]` replaces the details of segment (p, k) when given."""
    n = block.shape[-1]

    def details(p, k):
        if levels is not None:
            return [d[p, k] for d in levels]
        return modwt_reference(block[p, k], max(selected))

    out = np.empty((block.shape[1], len(block) - 1, 2 * n - 1))
    for k in range(block.shape[1]):
        bx = details(0, k)
        for p in range(1, len(block)):
            by = details(p, k)
            acc, wsum = np.zeros(2 * n - 1), 0.0
            for dx, dy in ((bx[j - 1], by[j - 1]) for j in selected):
                ex, ey = np.dot(dx, dx), np.dot(dy, dy)
                if ex != 0.0 and ey != 0.0:
                    weight = np.sqrt(ex * ey)
                    acc += weight * (np.correlate(dy, dx, "full") / np.sqrt(ex * ey))
                    wsum += weight
            if wsum == 0.0:
                raise DegenerateWindowError("no detail energy in the selected levels")
            out[k, p - 1] = acc / wsum
    return out


class TestCrossWaveletBlock:
    """The block ccwd kernel against the per-window loop it replaced.  The
    coefficients lie in [-1, 1] and the kernel's FFT rounds them to about
    1e-16 absolute, so the lags where they are near 0 need the `atol`."""

    @pytest.mark.parametrize("n", [4, 5, 16, 128])
    @pytest.mark.parametrize("dt, selected", [(4e-9, [1, 2]), (6.25e-9, [1]), (2.5e-9, [2])])
    def test_rows_match_the_per_window_loop(self, n, dt, selected):
        # a 4-sample window is shorter than the 15-tap level-2 filter
        assert xcorr.band_levels(dt) == selected
        block = np.random.default_rng(n).normal(size=(3, 6, n))
        np.testing.assert_allclose(
            xcorr.correlate_block(block, "ccwd", dt), ccwd_reference(block, selected), rtol=1e-12, atol=1e-15
        )

    def test_a_level_without_energy_is_left_out(self, monkeypatch):
        # the details are given, as small integers times powers of two, so
        # every energy is exact in any summation order.  Window 0's D has no
        # level-2 detail, so its BD pair uses level 1 alone.  Window 1's B
        # has level-1 details whose squares underflow to an energy of 0 but
        # whose correlations do not, so both its pairs use level 2 alone
        rng = np.random.default_rng(18)
        levels = [rng.integers(-3, 4, size=(3, 2, 32)).astype(float) for _ in range(2)]
        levels[1][2, 0] = 0.0
        levels[0][0, 1] *= 2.0**-540
        levels[1][0, 1] *= 2.0**-520
        assert np.einsum("w,w->", levels[0][0, 1], levels[0][0, 1]) == 0.0 and levels[0][0, 1].any()
        monkeypatch.setattr(wavelets, "modwt_levels", lambda block, filters, approximation: levels)
        block = np.empty((3, 2, 32))
        got = xcorr.correlate_block(block, "ccwd", DT)
        np.testing.assert_allclose(got, ccwd_reference(block, [1, 2], levels), rtol=1e-12, atol=1e-15)
        window = [[d[:, k : k + 1] for d in levels] for k in range(2)]
        np.testing.assert_allclose(got[0, 1], ccwd_reference(block[:, :1], [1], window[0])[0, 1], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(got[1], ccwd_reference(block[:, 1:], [2], window[1])[0], rtol=1e-12, atol=1e-15)

    def test_a_window_without_energy_in_any_selected_level_is_degenerate(self):
        block = np.random.default_rng(19).normal(size=(3, 4, 32))
        block[1, 2] = 0.0
        with pytest.raises(DegenerateWindowError, match="no detail energy"):
            ccwd_reference(block, [1, 2])
        with pytest.raises(DegenerateWindowError, match="no detail energy"):
            xcorr.correlate_block(block, "ccwd")

    def test_block_modwt_matches_convolution(self):
        block = np.random.default_rng(20).normal(size=(3, 5, 16))
        filters = wavelets.level_filters(wavelets.get_basis("sym4"), 3)
        levels = wavelets.modwt_levels(block, filters, approximation=False)
        for p in range(3):
            for k in range(5):
                for got, ref in zip(levels, modwt_reference(block[p, k], 3)):
                    np.testing.assert_allclose(got[p, k], ref, rtol=0, atol=1e-15)


class TestRefinePeak:
    def triangle(self, peak_at=3, half_width=8.0):
        lags = np.arange(-255, 256)
        return CorrelationSeries(lags, np.maximum(0.0, 1.0 - np.abs(lags - peak_at) / half_width))

    @pytest.mark.parametrize("spec", [
        InterpSpec(),
        InterpSpec("linear", 2),
        InterpSpec("linear", 8),
        InterpSpec("cubic", 4),
        InterpSpec("cubic", 8),
    ])
    def test_symmetric_triangle_fixed_point(self, spec):
        assert refine_peak(self.triangle(), spec) == 3.0

    def test_flat_series_tie_break(self):
        flat = CorrelationSeries(np.arange(-255, 256), np.ones(511))
        assert refine_peak(flat, InterpSpec("cubic", 8)) == 0.0
        assert refine_peak(flat, InterpSpec()) == 0.0

    def test_factor_one_is_integer_argmax(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            c = rng.normal(size=101)
            series = CorrelationSeries(np.arange(-50, 51), c)
            assert refine_peak(series, InterpSpec()) == float(series.peak()[0])

    def test_fractional_delay_cubic_beats_integer(self):
        # oracle: the analytic delay is 2.5 samples by construction
        x, y = bandlimited_pair(2.5)
        series = cc_time(x, y)
        coarse = refine_peak(series, InterpSpec())
        fine = refine_peak(series, InterpSpec("cubic", 8))
        assert abs(fine - 2.5) <= 0.25
        assert abs(fine - 2.5) < abs(coarse - 2.5)

    def test_monotone_refinement_mean_error(self):
        errs1, errs8 = [], []
        for i, d in enumerate(np.linspace(1.1, 3.9, 12)):
            x, y = bandlimited_pair(float(d), seed=30 + i)
            series = cc_time(x, y)
            errs1.append(abs(refine_peak(series, InterpSpec()) - d))
            errs8.append(abs(refine_peak(series, InterpSpec("cubic", 8)) - d))
        assert np.mean(errs8) <= np.mean(errs1)

    def test_interp_spec_validation(self):
        with pytest.raises(ValueError):
            InterpSpec("cubic", 3)
        with pytest.raises(ValueError):
            InterpSpec("quadratic", 2)
        assert InterpSpec.parse("cubic:8") == InterpSpec("cubic", 8)
        assert InterpSpec.parse("none") == InterpSpec()

    def test_no_refinement_has_one_spelling(self):
        for spec in (InterpSpec("cubic", 1), InterpSpec("linear", 1), InterpSpec("none", 4)):
            assert (spec.method, spec.factor) == ("none", 1)
            assert spec == InterpSpec() and hash(spec) == hash(InterpSpec())


def reference_peak(lags, c):
    """Per-series integer peak, ties -> smallest |lag| (first of a +-k pair)."""
    best = np.flatnonzero(c == c.max())
    i = best[np.argmin(np.abs(lags[best]))]
    return int(lags[i]), float(c[i])


def reference_refine(lags, c, interp):
    """Per-series refinement, one spline or np.interp call per series and
    spec: the oracle the batched `refine_peaks` must match exactly."""
    lag0, _ = reference_peak(lags, c)
    if interp.method == "none" or interp.factor == 1:
        return float(lag0)
    lo = max(int(lags[0]), lag0 - 8)
    hi = min(int(lags[-1]), lag0 + 8)
    base = lags[(lags >= lo) & (lags <= hi)].astype(np.float64)
    vals = c[(lags >= lo) & (lags <= hi)]
    if len(base) < 2:
        return float(lag0)
    dense = lo + np.arange(int((hi - lo) * interp.factor) + 1) / interp.factor
    if interp.method == "linear":
        curve = np.interp(dense, base, vals)
    else:
        curve = CubicSpline(base, vals)(dense)
    best = np.flatnonzero(curve == curve.max())
    return float(dense[best[np.argmin(np.abs(dense[best]))]])


ALL_SPECS = [InterpSpec()] + [
    InterpSpec(m, f) for m in ("linear", "cubic") for f in (1, 2, 4, 8)
]


def adversarial_rows(W, rng):
    """Coefficient rows over lags -(W-1)..W-1 that stress the tie breaks and
    the clipped neighborhoods, plus smooth and random ones.

    The near ties (a neighbor one or two ulps below the peak) are where
    linear refinement moves off the integer peak: rounding in the linear
    formula can lift an interior point to the peak value, and the tie break
    then picks it, so these rows pin that formula's rounding."""
    L = W - 1
    lags = np.arange(-L, L + 1)
    rows = [rng.uniform(-1, 1, 2 * L + 1) for _ in range(40)]
    rows.append(np.ones(2 * L + 1))                               # flat
    rows.append(np.round(rng.uniform(-1, 1, 2 * L + 1), 1))       # many ties
    for k in sorted(set(range(min(12, L + 1))) | set(range(max(0, L - 11), L + 1))):  # exact +-k ties
        r = rng.uniform(-1, 0.5, 2 * L + 1)
        r[L - k] = r[L + k] = 0.9
        rows.append(r)
    for centre in list(range(-L, min(-L + 10, L + 1))) + list(range(max(L - 9, -L), L + 1)):
        smooth = np.cos((lags - centre - rng.uniform(-0.5, 0.5)) / 3.0)  # peak near an end
        rows.append(smooth)
        plateau = np.minimum(smooth, 0.8)                        # flat top
        rows.append(plateau)
    for _ in range(20):
        rows.append(np.cos((lags - rng.uniform(-L, L)) / rng.uniform(1.0, 6.0)))
    for k in sorted(set(range(-min(6, L), min(6, L) + 1)) | {-L, 1 - L, L - 1, L}):  # near ties
        for side in (-1, 1):
            if 0 <= L + k + side <= 2 * L:
                for ulps in (1, 2):
                    r = rng.uniform(-1, 0.5, 2 * L + 1)
                    r[L + k] = peak = rng.uniform(0.5, 1.0)
                    r[L + k + side] = peak - ulps * np.spacing(peak)
                    rows.append(r)
    return lags, np.array(rows)


class TestBatchedRefinement:
    @pytest.mark.parametrize("W", [2, 3, 9, 17, 256])
    def test_equals_per_series_reference(self, W):
        lags, rows = adversarial_rows(W, np.random.default_rng(W))
        peaks = peak_neighborhoods(rows)
        refined = refine_peaks(peaks, ALL_SPECS)
        for r, c in enumerate(rows):
            lag0, coeff = reference_peak(lags, c)
            assert (peaks.lag[r], peaks.coefficient[r]) == (lag0, coeff)
            for spec, out in zip(ALL_SPECS, refined):
                expected = reference_refine(lags, c, spec)
                assert out[r] == expected, (r, spec)
                assert refine_peak(CorrelationSeries(lags, c), spec) == expected

    def test_batch_of_real_correlations(self):
        rng = np.random.default_rng(41)
        rows = []
        for d in rng.uniform(-6, 6, 60):
            x, y = bandlimited_pair(float(d), seed=int(rng.integers(1000)))
            rows.append(cc_time(x, y).coefficients)
        rows = np.array(rows)
        lags = np.arange(-255, 256)
        refined = refine_peaks(peak_neighborhoods(rows), ALL_SPECS)
        for spec, out in zip(ALL_SPECS, refined):
            assert out.tolist() == [reference_refine(lags, c, spec) for c in rows]

    def test_neighborhood_is_nan_past_the_lag_axis(self):
        lags = np.arange(-20, 21)
        c = np.cos((lags + 17) / 4.0)
        peaks = peak_neighborhoods(c)
        assert peaks.lag.tolist() == [-17]
        assert np.isnan(peaks.neighborhood[0, :5]).all()
        assert peaks.neighborhood[0, 5:].tolist() == c[:12].tolist()

    def test_batch_size_does_not_change_lags(self, monkeypatch):
        _, rows = adversarial_rows(256, np.random.default_rng(7))
        whole = refine_peaks(peak_neighborhoods(rows), ALL_SPECS)
        monkeypatch.setattr(xcorr, "REFINE_BATCH_ROWS", 7)
        split = refine_peaks(peak_neighborhoods(rows), ALL_SPECS)
        for a, b in zip(whole, split):
            assert a.tolist() == b.tolist()

    def test_no_rows(self):
        empty = PeakNeighborhoods(255, np.empty(0, dtype=np.int64), np.empty(0), np.empty((0, 17)))
        assert [len(x) for x in refine_peaks(empty, ALL_SPECS)] == [0] * len(ALL_SPECS)



def resampled_shapes():
    """Every (first, last) offset range `refine_peaks` resamples: the lags
    within `INTERP_NEIGHBORHOOD` of a peak on a lag axis -L .. L."""
    n = xcorr.INTERP_NEIGHBORHOOD
    return sorted({(max(-n, -L - lag), min(n, L - lag)) for L in range(1, 2 * n + 2) for lag in range(-L, L + 1)})


def spline_rows(n, rng):
    """Rows of n knot values: random, flat, 1-decimal ties, plateaus, and
    rows of signed zeros, +-1e300 and subnormals."""
    plateau = rng.uniform(-1, 1, (8, n))
    plateau[:, n // 3 : n // 3 + 3] = 0.75
    special = [0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 5e-324, -5e-324, 2.2e-308, -1e-310]
    return np.vstack([
        rng.uniform(-1, 1, (24, n)), np.ones((1, n)), np.full((1, n), -0.0),
        np.round(rng.uniform(-1, 1, (16, n)), 1), plateau,
        rng.choice([0.0, -0.0], (16, n)), rng.choice(special, (48, n)),
    ])


class TestCubicKernel:
    """The NumPy not-a-knot spline of cubic refinement against SciPy's
    `CubicSpline` to the bit, since the tie breaks compare exact values."""

    def test_refinement_resamples_3_to_17_knots(self):
        counts = {last - first + 1 for first, last in resampled_shapes()}
        assert min(counts) == 3 and max(counts) == 17  # 3 only on a lag axis of -1 .. 1

    @pytest.mark.parametrize("factor", [2, 4, 8])
    def test_matches_scipy_cubic_spline_bit_for_bit(self, factor):
        rng = np.random.default_rng(factor)
        for first, last in sorted(set(resampled_shapes()) | {(0, n - 1) for n in range(3, 18)}):
            vals = spline_rows(last - first + 1, rng)
            dense = first + np.arange((last - first) * factor + 1) / factor
            expected = CubicSpline(np.arange(first, last + 1, dtype=np.float64), vals, axis=1)(dense)
            got = xcorr._resample("cubic", vals, first, last, factor)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), (first, last)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_neighborhood_is_rejected(self, bad):
        lags = np.arange(-5, 6)
        c = np.cos(lags / 3.0)
        c[7] = bad
        with pytest.raises(ValueError):
            refine_peak(CorrelationSeries(lags, c), InterpSpec("cubic", 8))
