"""Band-pass, Kalman and wavelet-denoise behavior against independent oracles."""

import numpy as np
import pytest

from itfmap import denoise
from itfmap.denoise import (
    BANDS,
    DEFAULT_BAND,
    bandpass_filter,
    filter_label,
    kalman_filter,
    parse_filter_spec,
    wavelet_denoise,
)
from itfmap.evaluate import FILTERS
from itfmap.wavelets import get_basis

DT = 4e-9


def tone(freq, n=4096, dt=DT):
    return np.sin(2 * np.pi * freq * np.arange(n) * dt)


def rms(x):
    return float(np.sqrt(np.mean(np.square(x))))


CORE = slice(500, -500)  # skip filter edge transients


class TestBandpass:
    def test_midband_tone_within_1db(self):
        y = bandpass_filter(tone(60e6), DEFAULT_BAND, DT)
        gain_db = 20 * np.log10(rms(y[CORE]) / rms(tone(60e6)[CORE]))
        assert abs(gain_db) < 1.0

    def test_dc_blocked(self):
        y = bandpass_filter(np.ones(4096), DEFAULT_BAND, DT)
        assert np.max(np.abs(y[CORE])) < 1e-3

    def test_5mhz_attenuated_40db(self):
        # 5 MHz sits two octaves below the 20 MHz edge; order-4 two-pass
        y = bandpass_filter(tone(5e6), DEFAULT_BAND, DT)
        atten_db = -20 * np.log10(rms(y[CORE]) / rms(tone(5e6)[CORE]))
        assert atten_db >= 40.0

    def test_cutoffs_validated_against_nyquist(self):
        with pytest.raises(ValueError, match="Nyquist"):
            bandpass_filter(tone(60e6), (20e6, 130e6), DT)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=2048)
        y = rng.normal(size=2048)
        lhs = bandpass_filter(2.5 * x - 1.5 * y, DEFAULT_BAND, DT)
        rhs = 2.5 * bandpass_filter(x, DEFAULT_BAND, DT) - 1.5 * bandpass_filter(y, DEFAULT_BAND, DT)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_zero_phase_peak_at_lag_zero(self):
        rng = np.random.default_rng(1)
        t = np.arange(2048) * DT
        x = sum(np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi)) for f in (45e6, 60e6, 75e6))
        y = bandpass_filter(x, DEFAULT_BAND, DT)
        c = np.correlate(y, x, mode="full")
        assert int(np.argmax(c)) - (len(x) - 1) == 0

    def test_length_preserved(self):
        assert len(bandpass_filter(tone(60e6, 999), DEFAULT_BAND, DT)) == 999

    def test_design_is_made_once_and_handed_out_as_copies(self, monkeypatch):
        import scipy.signal

        calls = []
        butter = scipy.signal.butter
        monkeypatch.setattr(scipy.signal, "butter", lambda *a, **k: calls.append(a) or butter(*a, **k))
        denoise._butter_sos.cache_clear()
        first, second = denoise._bandpass_sos(DEFAULT_BAND, 2e-9), denoise._bandpass_sos(DEFAULT_BAND, 2e-9)
        assert len(calls) == 1
        assert first is not second and first.flags.writeable and first.tobytes() == second.tobytes()
        assert first.tobytes() == butter(4, list(DEFAULT_BAND), btype="bandpass", fs=1.0 / 2e-9, output="sos").tobytes()


class TestKalman:
    def test_constant_signal_exact(self):
        out = kalman_filter(np.full(100, 3.25), q=0.0, r=0.5)
        np.testing.assert_allclose(out, 3.25)

    def test_q_zero_equals_running_mean(self):
        # closed form: static-state Kalman with diffuse start = cumulative mean
        rng = np.random.default_rng(3)
        z = 2.0 + rng.normal(0, 0.5, 500)
        out = kalman_filter(z, q=0.0, r=0.25)
        oracle = np.cumsum(z) / np.arange(1, len(z) + 1)
        assert np.max(np.abs(out - oracle)) < 1e-9

    def test_mse_reduction_matched_random_walk(self):
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            truth = np.cumsum(rng.normal(0, 0.05, 2000))
            z = truth + rng.normal(0, 0.1, 2000)
            f = kalman_filter(z, q=0.05**2, r=0.1**2)
            wins += np.mean((f - truth) ** 2) < np.mean((z - truth) ** 2)
        assert wins >= 19  # >= 95% of seeds

    def test_gain_and_variance_sequences(self):
        # recompute the recursion by hand and track gain/posterior variance
        q, r = 0.01, 1.0
        p = r
        prev_p = np.inf
        for _ in range(200):
            pp = p + q
            gain = pp / (pp + r)
            assert 0.0 < gain <= 1.0
            p = (1 - gain) * pp
            assert p <= prev_p + 1e-15
            prev_p = p

    def test_nonpositive_r_rejected(self):
        with pytest.raises(ValueError, match="measurement variance"):
            kalman_filter(np.zeros(4), q=0.0, r=0.0)

    def test_length_preserved_and_deterministic(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=333)
        a = kalman_filter(z, 0.01, 0.5)
        b = kalman_filter(z, 0.01, 0.5)
        assert len(a) == 333
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", ["short", "noise", "constant"])
    def test_kf_output_scales_exactly_with_the_channel(self, kind):
        """A power-of-two scaling of the channel scales its kf output to the
        bit, from 2**-20 to 2**660: the filter is linear in the samples and
        runs on the channel over a power of two near its peak."""
        x = {"short": np.array([0.5, -1.25]), "constant": np.full(50, 0.75),
             "noise": np.random.default_rng(10).normal(size=1000)}[kind]
        want = denoise.apply_filter(x, "kf", DT)
        for k in (-20, 7, 660):
            got = denoise.apply_filter(np.ldexp(x, k), "kf", DT)
            assert got.tobytes() == np.ldexp(want, k).tobytes(), k

    @pytest.mark.parametrize("kind", ["noise", "random-walk", "two-sample", "constant"])
    def test_kf_does_not_depend_on_the_variance_scale(self, kind):
        """The gains read only q/r, so kf is `kalman_filter` at q = r/100 for
        any r: within rounding of the settle step, and to the bit when r is a
        power of two."""
        rng = np.random.default_rng(11)
        x = {"noise": rng.normal(size=3000), "random-walk": np.cumsum(rng.normal(size=3000)),
             "two-sample": np.array([0.5, -1.25]), "constant": np.full(50, 0.75)}[kind]
        got = denoise.apply_filter(x, "kf", DT)
        for s in (1e-6, 3.7, 1e6):
            np.testing.assert_allclose(got, kalman_filter(x, 0.01 * s, s), rtol=0, atol=4e-15 * np.max(np.abs(x)))
        for s in (2.0**-20, 1.0, 2.0**20):
            assert got.tobytes() == kalman_filter(x, 0.01 * s, s).tobytes(), s

    def test_kf_stays_finite_near_the_largest_float(self):
        # unscaled, z - x overflows between samples of opposite sign above
        # half the largest float
        big = 0.9 * np.finfo(np.float64).max
        assert np.isfinite(denoise.apply_filter(np.tile([big, -big], 2000), "kf", DT)).all()


class TestWaveletDenoise:
    def test_zero_threshold_is_identity(self, monkeypatch):
        # force both rules to threshold 0: reconstruction must be the input
        monkeypatch.setattr(denoise.wavelets, "level_threshold", lambda d, rule, n: 0.0)
        rng = np.random.default_rng(5)
        x = rng.normal(size=512)
        out = wavelet_denoise(x, get_basis("coif5"), 4, "sure")
        assert np.max(np.abs(out - x)) < 1e-10

    def test_pure_noise_energy_crushed_universal(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=2048)
            out = wavelet_denoise(x, get_basis("sym4"), 4, "universal")
            assert np.sum(out**2) < 0.2 * np.sum(x**2)

    def test_snr_improves_sure(self):
        t = np.arange(8192) * DT
        clean = np.sin(2 * np.pi * 1e6 * t)
        rng = np.random.default_rng(7)
        noisy = clean + rng.normal(0, 0.3, len(clean))
        out = wavelet_denoise(noisy, get_basis("sym4"), 4, "sure")
        snr_in = np.mean(clean**2) / np.mean((noisy - clean) ** 2)
        snr_out = np.mean(clean**2) / np.mean((out - clean) ** 2)
        assert snr_out > snr_in

    def test_short_signal_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            wavelet_denoise(np.zeros(8), get_basis("sym4"), 4, "sure")

    def test_length_preserved_odd(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=1001)
        assert len(wavelet_denoise(x, get_basis("db10"), 3, "universal")) == 1001


class TestCheckInput:
    @pytest.mark.parametrize("selector", ["bpf", "bpf-hw"])
    @pytest.mark.parametrize("dt", [DT, 2e-9, 1e-9])
    def test_bandpass_length_is_sosfiltfilt_padding(self, selector, dt):
        spec = parse_filter_spec(selector)

        def accepts(n):
            try:
                denoise.check_input(spec, dt, n)
            except ValueError:
                return False
            return True

        shortest = next(n for n in range(1, 500) if accepts(n))
        with pytest.raises(ValueError, match="padlen"):
            bandpass_filter(np.ones(shortest - 1), BANDS[spec], dt)
        assert len(bandpass_filter(np.ones(shortest), BANDS[spec], dt)) == shortest

    def test_cutoff_at_nyquist_rejected(self):
        with pytest.raises(ValueError, match="Nyquist"):
            denoise.check_input("bpf", 5e-9)
        denoise.check_input("bpf", DT)

    def test_wavelet_levels_need_their_samples(self):
        spec = "wt-sym4-sure"
        short = 2**denoise.DEFAULT_LEVELS - 1
        with pytest.raises(ValueError, match="needs at least 16 samples"):
            denoise.check_input(spec, DT, short)
        with pytest.raises(ValueError, match="too short"):
            denoise.apply_filter(np.ones(short), spec, DT)
        denoise.check_input(spec, DT, short + 1)

    @pytest.mark.parametrize("spec", [None, "kf"])
    def test_other_filters_take_any_record(self, spec):
        denoise.check_input(spec, 1e-3, 1)


class TestFilterSpecs:
    @pytest.mark.parametrize("text", [*FILTERS, "bpf-hw", "none"])
    def test_parse_and_label_roundtrip(self, text):
        assert filter_label(parse_filter_spec(text)) == text

    def test_selector_is_checked_and_lower_cased(self):
        assert parse_filter_spec(" BPF ") == "bpf"
        assert parse_filter_spec("bypass") is None

    def test_hardware_preset_band(self):
        assert BANDS["bpf-hw"] == (40e6, 80e6)

    def test_bad_selectors_rejected(self):
        for bad in ("wt-sym4", "wt-nope-sure", "wt-sym4-hard", "gauss"):
            with pytest.raises((ValueError, KeyError)):
                parse_filter_spec(bad)

    def test_apply_filter_dispatch_preserves_length(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=1024)
        for text in ("bpf", "kf", "wt-sym4-sure", "none"):
            out = denoise.apply_filter(x, parse_filter_spec(text), DT)
            assert len(out) == len(x)
