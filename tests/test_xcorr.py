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
        assert out.shape == (9, 2, 73) and out.flags.c_contiguous
        for k in range(9):
            for p in (1, 2):
                one = xcorr.correlate(block[0, k], block[p, k], method)
                np.testing.assert_array_equal(out[k, p - 1], one.coefficients)

    @pytest.mark.parametrize("method", xcorr.CC_METHODS)
    def test_one_pair_keeps_its_bytes_under_power_of_two_scaling(self, method):
        # the energy rule multiplies two segments' energies, which would
        # overflow at 2**300 and underflow at 2**-300 unscaled
        x, y = np.random.default_rng(23).normal(size=(2, 64))
        want = xcorr.correlate(x, y, method).coefficients.tobytes()
        for k in (-300, -20, 20, 300):
            assert xcorr.correlate(np.ldexp(x, k), y, method).coefficients.tobytes() == want, k
            assert xcorr.correlate(np.ldexp(x, k), np.ldexp(y, k), method).coefficients.tobytes() == want, k

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("method", xcorr.CC_METHODS)
    def test_non_finite_segment_is_rejected(self, method, bad):
        # unchecked, inf warned in the energy rule and NaN gave an all-NaN
        # series peaking at -(W-1)
        one_pair = {"cctd": cc_time, "ccfd": cc_freq, "ccwd": cc_wavelet}[method]
        x, y = np.random.default_rng(29).normal(size=(2, 64))
        x[40] = bad
        for a, b in ((x, y), (y, x)):
            with pytest.raises(ValueError, match="finite"):
                one_pair(a, b)
            with pytest.raises(ValueError, match="finite"):
                xcorr.correlate(a, b, method)

    @pytest.mark.parametrize("method", ["ccfd", "ccwd"])
    def test_no_step_calls_a_blas_routine(self, monkeypatch, method):
        """The CPU-dependent summation order of BLAS is what moves a map
        under another CPU's OpenBLAS kernels; this holds wherever the
        foreign-core golden test cannot force one."""
        block = np.random.default_rng(22).normal(size=(3, 5, 64))
        want = xcorr.correlate_block(block, method)

        def blas(*args, **kwargs):
            raise AssertionError("a BLAS routine was called")

        for name in ("vecdot", "dot", "matmul", "inner", "correlate"):
            monkeypatch.setattr(np, name, blas)
        assert xcorr.correlate_block(block, method).tobytes() == want.tobytes()
        with pytest.raises(AssertionError, match="BLAS"):  # the patch does catch cctd's np.correlate
            xcorr.correlate_block(block, "cctd")

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
                raise DegenerateWindowError("a segment has no energy in the selected detail levels")
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

    def test_a_level_without_energy_is_left_out(self):
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
        block = np.empty((3, 2, 32))
        got = xcorr.correlate_block(block, "ccwd", DT, details=levels)
        np.testing.assert_allclose(got, ccwd_reference(block, [1, 2], levels), rtol=1e-12, atol=1e-15)
        window = [[d[:, k : k + 1] for d in levels] for k in range(2)]
        np.testing.assert_allclose(got[0, 1], ccwd_reference(block[:, :1], [1], window[0])[0, 1], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(got[1], ccwd_reference(block[:, 1:], [2], window[1])[0], rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("selected", [[1], [1, 2], None])
    def test_spectrum_equals_the_out_of_place_sum(self, selected):
        """Byte for byte, -0.0 parts included: the first part is added to
        +0.0, which turns its -0.0 parts (the DC bins' imaginary parts among
        them) into +0.0.  The parts are detail levels (ccwd), of which
        segment (2, 1) has no level-2 energy, or one block (ccfd: None)."""
        rng = np.random.default_rng(21)
        details = [rng.normal(size=(3, 4, 16)) for _ in range(2)]
        details[1][2, 1] = 0.0
        parts = [rng.normal(size=(3, 4, 16))] if selected is None else [details[j - 1] for j in selected]
        cross, denom = 0.0, 0.0
        for d in parts:
            energy = np.einsum("...w,...w->...", d, d)
            used = (energy[0] != 0.0) & (energy[1:] != 0.0)
            spectra = np.fft.rfft(d, 32)
            cross = cross + np.where(used[..., None], np.conj(spectra[0]) * spectra[1:], 0.0)
            denom = denom + np.where(used, np.sqrt(energy[0] * energy[1:]), 0.0)
        first = (np.conj(np.fft.rfft(parts[0][0], 32)) * np.fft.rfft(parts[0][1:], 32)).view(np.float64)
        got = xcorr._energy_and_cross(parts, 32)
        assert (got[0].tobytes(), got[1].tobytes()) == (denom.tobytes(), cross.tobytes())
        assert (np.signbit(first) & (first == 0.0)).any()  # the case the +0.0 is there for
        assert xcorr._energy_and_cross(parts, None)[1] is None  # cctd: the denominator alone

    def test_a_window_without_energy_in_any_selected_level_is_degenerate(self):
        block = np.random.default_rng(19).normal(size=(3, 4, 32))
        block[1, 2] = 0.0
        with pytest.raises(DegenerateWindowError, match="has no energy"):
            ccwd_reference(block, [1, 2])
        with pytest.raises(DegenerateWindowError, match="has no energy"):
            xcorr.correlate_block(block, "ccwd")

    @pytest.mark.parametrize("n", [4, 5, 7, 16, 21, 22, 37, 128, 256])
    @pytest.mark.parametrize("dt", [4e-9, 6.25e-9, 2.5e-9])
    @pytest.mark.parametrize("scale", [1.0, 1e70, 1e-70, 2.0**-500])
    def test_one_transform_matches_the_full_gain_route_to_the_byte(self, n, dt, scale):
        """Without `details`, ccwd takes them from `wavelet_details` of the
        block at half gain.  The route it replaced transformed the block at
        full gain and summed its levels' spectra as below; the halving
        scales every detail exactly and the coefficient is a ratio, so no
        byte moves.  At 2**-500 every pair's energy product underflows, and
        both routes find the block degenerate."""
        block = scale * np.random.default_rng(n).normal(size=(3, 3, n))
        m, selected = 1 << int(np.ceil(np.log2(2 * n - 1))), xcorr.band_levels(dt)
        filters = wavelets.level_filters(wavelets.get_basis("sym4"), max(selected))
        details = wavelets.modwt_levels(block, filters, approximation=False)
        cross, wsum = None, 0.0
        for j in selected:
            d = details[j - 1]
            energy = np.einsum("...w,...w->...", d, d)
            used = (energy[0] != 0.0) & (energy[1:] != 0.0)
            spectra = np.fft.rfft(d, m)
            term = np.multiply(np.conj(spectra[0], out=spectra[0]), spectra[1:], out=spectra[1:])
            if not used.all():
                term = np.where(used[..., None], term, 0.0)
            if cross is None:
                cross = term
                cross += 0.0
            else:
                cross += term
            wsum = wsum + np.where(used, np.sqrt(energy[0] * energy[1:]), 0.0)
        if not np.all(wsum):
            with pytest.raises(DegenerateWindowError):
                xcorr.correlate_block(block, "ccwd", dt)
            assert scale == 2.0**-500
            return
        c, scale_by = np.fft.irfft(cross, m).transpose(1, 0, 2), wsum.T[..., None]
        want = np.concatenate([c[..., m - (n - 1):] / scale_by, c[..., :n] / scale_by], axis=-1)
        assert xcorr.correlate_block(block, "ccwd", dt).tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("lags", [np.arange(0, 21), np.arange(-10, 10), np.arange(-9, 11)])
    def test_series_off_a_symmetric_lag_axis_is_rejected(self, lags):
        # refinement reads the lag axis from the length alone, so an axis
        # 0 .. 20 peaked at lag 13 would refine to 3.0
        with pytest.raises(ValueError):
            CorrelationSeries(lags, np.cos((lags - 13) / 4.0))

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

    @pytest.mark.parametrize("W", [9, 256])
    def test_batch_size_does_not_change_lags(self, monkeypatch, W):
        # at W = 9 every row off lag 0 is clipped: its group spans batches
        _, rows = adversarial_rows(W, np.random.default_rng(7))
        whole = refine_peaks(peak_neighborhoods(rows), ALL_SPECS)
        monkeypatch.setattr(xcorr, "REFINE_BATCH_ROWS", 7)
        split = refine_peaks(peak_neighborhoods(rows), ALL_SPECS)
        for a, b in zip(whole, split):
            assert a.tolist() == b.tolist()

    def test_no_rows(self):
        empty = PeakNeighborhoods(255, np.empty(0, dtype=np.int64), np.empty((0, 17)))
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
            got = xcorr._resample("cubic", vals, factor)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), (first, last)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_neighborhood_is_rejected(self, bad):
        lags = np.arange(-5, 6)
        c = np.cos(lags / 3.0)
        c[7] = bad
        with pytest.raises(ValueError):
            refine_peak(CorrelationSeries(lags, c), InterpSpec("cubic", 8))
