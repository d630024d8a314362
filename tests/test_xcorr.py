"""Correlation routes, peak refinement, and TDOA conversion."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from itfmap import xcorr
from itfmap.wavelets import get_basis
from itfmap.xcorr import (
    CorrelationSeries,
    DegenerateWindowError,
    InterpSpec,
    PeakNeighborhoods,
    cc_freq,
    cc_time,
    cc_wavelet,
    lag_to_tdoa,
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
        lag, coeff = cc_wavelet(x, x, get_basis("sym4")).peak()
        assert lag == 0
        assert coeff == pytest.approx(1.0, abs=1e-6)

    def test_integer_shift_matches_cc_time(self):
        x = normalized_window(13)
        y = delayed_by(x, 5)
        assert cc_wavelet(x, y, get_basis("sym4")).peak()[0] == cc_time(x, y).peak()[0] == 5

    def test_null_distribution(self):
        high = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            a, b = rng.normal(size=256), rng.normal(size=256)
            _, coeff = cc_wavelet(a, b, get_basis("sym4")).peak()
            high += coeff >= 0.35
        assert high <= 10  # < 0.35 in >= 90% of seeded trials

    def test_band_mismatch_rejected(self):
        x = normalized_window(14)
        with pytest.raises(ValueError, match="band"):
            cc_wavelet(x, x, get_basis("sym4"), levels=1, band=(1e6, 2e6))

    def test_lag_axis_shared_with_cc_time(self):
        x = normalized_window(15)
        np.testing.assert_array_equal(
            cc_wavelet(x, x, get_basis("sym4")).lags, cc_time(x, x).lags
        )

    def test_coefficient_bound(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            a, b = rng.normal(size=256), rng.normal(size=256)
            assert np.max(np.abs(cc_wavelet(a, b, get_basis("sym4")).coefficients)) <= 1 + 1e-9


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
        assert InterpSpec.parse("linear:4").label() == "linear:4"


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
    the clipped neighborhoods, plus smooth and random ones."""
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


class TestLagToTdoa:
    def test_zero(self):
        assert lag_to_tdoa(0.0, DT) == (0.0, 0.0)

    def test_hand_arithmetic(self):
        tau, phase = lag_to_tdoa(5, DT, 60e6)
        assert tau == pytest.approx(20e-9, abs=0)
        assert phase == pytest.approx(2 * np.pi * 60e6 * 20e-9, rel=1e-12)
        assert phase == pytest.approx(7.5398223686, abs=1e-9)

    def test_linearity_negative_fraction(self):
        tau, _ = lag_to_tdoa(-2.5, DT)
        assert tau == pytest.approx(-10e-9, abs=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            lag_to_tdoa(1.0, 0.0)
        with pytest.raises(ValueError):
            lag_to_tdoa(1.0, DT, 0.0)
