"""Track generation, augmentation, channel synthesis and noise injection."""

import numpy as np
import pytest

from itfmap import xcorr
from itfmap.geometry import ArrayGeometry
from itfmap.signals import SegmentationPlan, normalize_window, segment
from itfmap.simulate import (
    AngleTrack,
    AugmentSpec,
    add_awgn,
    augment_track,
    load_truth,
    make_track,
    save_truth,
    snr_power_ratio,
    synthesize_record,
)

G3 = ArrayGeometry(d=15.0, c=3e8)
DT = 4e-9


def reference(n, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n) * DT
    x = np.zeros(n)
    for f0 in np.linspace(42e6, 78e6, 20):
        x += rng.uniform(0.5, 1.0) * np.sin(2 * np.pi * f0 * t + rng.uniform(0, 2 * np.pi))
    return x / np.abs(x).max()


class TestMakeTrack:
    def test_constant(self):
        tr = make_track("constant", 10, az0=120.0, el0=45.0)
        assert len(tr) == 10
        assert np.all(tr.az_deg == 120.0) and np.all(tr.el_deg == 45.0)

    def test_linear_sweep(self):
        tr = make_track("linear-sweep", 4, el0=60.0, el1=30.0, az0=10.0, az1=10.0)
        np.testing.assert_allclose(tr.el_deg, [60, 50, 40, 30])

    def test_random_walk_deterministic(self):
        a = make_track("random-walk", 50, seed=7)
        b = make_track("random-walk", 50, seed=7)
        np.testing.assert_array_equal(a.az_deg, b.az_deg)
        np.testing.assert_array_equal(a.el_deg, b.el_deg)

    def test_elevation_always_clipped(self):
        tr = make_track("random-walk", 500, seed=1, el0=88.0, el_step=5.0, el_range=(0.0, 90.0))
        assert np.all(tr.el_deg >= 0.0) and np.all(tr.el_deg <= 90.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_track("constant", 0)
        with pytest.raises(ValueError, match="unknown track kind"):
            make_track("spiral", 5)

    @pytest.mark.parametrize("kind, angles", [
        ("constant", {"el0": 95.0}),
        ("constant", {"el0": -5.0}),
        ("linear-sweep", {"el1": 95.0}),
        ("linear-sweep", {"az1": np.nan}),
        ("random-walk", {"az0": np.nan}),
        ("random-walk", {"el0": np.inf}),
    ])
    def test_angles_outside_the_domain_rejected(self, kind, angles):
        with pytest.raises(ValueError):
            make_track(kind, 5, **angles)

    def test_random_walk_starts_inside_its_range(self):
        assert make_track("random-walk", 1, el0=95.0, el_step=0.0).el_deg[0] == 85.0


class TestAugmentTrack:
    def base(self):
        return make_track("random-walk", 64, seed=3, el_range=(20.0, 70.0))

    def test_identity_spec(self):
        tr = self.base()
        out = augment_track(tr, AugmentSpec(noise_sigma=0.0, scale_factor=1.0, flip=False))
        np.testing.assert_array_equal(out.az_deg, tr.az_deg)
        np.testing.assert_array_equal(out.el_deg, tr.el_deg)

    def test_flip_only_rotates_azimuth_180(self):
        tr = make_track("constant", 5, az0=30.0, el0=40.0)
        out = augment_track(tr, AugmentSpec(noise_sigma=0.0, scale_factor=1.0, flip=True))
        assert np.all(out.az_deg == 210.0)
        np.testing.assert_array_equal(out.el_deg, tr.el_deg)

    def test_noise_deterministic_and_clipped(self):
        tr = self.base()
        spec = AugmentSpec(noise_sigma=1.0, scale_factor=1.0, flip=False, seed=11)
        a = augment_track(tr, spec)
        b = augment_track(tr, spec)
        np.testing.assert_array_equal(a.el_deg, b.el_deg)
        assert np.all((a.el_deg >= 0.0) & (a.el_deg <= 90.0))
        assert not np.array_equal(a.el_deg, tr.el_deg)
        # elevation carries the noise; azimuth stays untouched by default
        np.testing.assert_array_equal(a.az_deg, tr.az_deg)

    def test_outward_scaling_expands_spread(self):
        tr = self.base()
        out = augment_track(tr, AugmentSpec(noise_sigma=0.0, scale_factor=1.2, flip=False))
        assert np.std(out.el_deg) > np.std(tr.el_deg)
        assert np.all((out.el_deg >= 0.0) & (out.el_deg <= 90.0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            AugmentSpec(scale_factor=0.0)
        with pytest.raises(ValueError):
            AugmentSpec(noise_sigma=-1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                AugmentSpec(scale_factor=bad)
            with pytest.raises(ValueError):
                AugmentSpec(noise_sigma=bad)


class TestSynthesize:
    def test_zenith_channels_identical(self):
        tr = make_track("constant", 8, az0=77.0, el0=90.0, window_length=64, hop=8)
        sim = synthesize_record(reference(120), tr, G3, dt=DT)
        np.testing.assert_allclose(sim.record.c, sim.record.b, atol=1e-12)
        np.testing.assert_allclose(sim.record.d, sim.record.b, atol=1e-12)

    def test_horizon_delay_integer_peak(self):
        # Az 0, El 0: tau2 = d/c = 50 ns = 12.5 samples at 4 ns; the integer
        # correlation peak must land on one of the two neighboring lags
        tr = make_track("constant", 40, az0=0.0, el0=0.0, window_length=256, hop=8)
        sim = synthesize_record(reference(600), tr, G3, dt=DT)
        wins = segment(sim.record, SegmentationPlan(256, 8))
        for wi in (0, 3, 10):
            w = normalize_window(wins[wi])
            lag, _ = xcorr.cc_time(w.segments[0], w.segments[2]).peak()
            assert lag in (12, 13)
        assert sim.tau2_s[0] == pytest.approx(50e-9, abs=0)

    def test_fractional_peak_recovers_half_sample(self):
        tr = make_track("constant", 40, az0=0.0, el0=0.0, window_length=256, hop=8)
        sim = synthesize_record(reference(600), tr, G3, dt=DT)
        wins = segment(sim.record, SegmentationPlan(256, 8))
        w = normalize_window(wins[3])
        series = xcorr.cc_time(w.segments[0], w.segments[2])
        fine = xcorr.refine_peak(series, xcorr.InterpSpec("cubic", 8))
        assert fine == pytest.approx(12.5, abs=0.25)

    def test_window_count_bookkeeping(self):
        n = 37
        tr = make_track("random-walk", n, seed=2, window_length=128, hop=1)
        sim = synthesize_record(reference(4000), tr, G3, dt=DT)
        assert sim.record.length == n - 1 + 128
        wins = segment(sim.record, SegmentationPlan(128, 1))
        assert len(wins) == n

    def test_reference_too_short_rejected(self):
        tr = make_track("constant", 100, window_length=256, hop=8)
        with pytest.raises(ValueError, match="cannot host"):
            synthesize_record(reference(500), tr, G3, dt=DT)

    def test_embedded_delays_pass_gate(self):
        tr = make_track("random-walk", 60, seed=5, window_length=64, hop=4)
        sim = synthesize_record(reference(500), tr, G3, dt=DT)
        norms = np.hypot(sim.tau1_s, sim.tau2_s)
        assert np.all(norms <= G3.transit_time * (1 + 1e-12))

    def test_delay_operator_is_unitary(self):
        # the circular phase ramp preserves energy up to the Nyquist-bin
        # realification of irfft (~1e-6 here), far inside the 1% contract
        from itfmap.simulate import fractional_delay

        x = reference(256, seed=3)
        for d in (0.0, 0.5, 2.5, 12.5, -7.25):
            y = fractional_delay(x, d)
            assert abs(np.sum(y**2) / np.sum(x**2) - 1.0) < 1e-4

    def test_window_energy_near_preserved(self):
        # synthesized windows shift content across their edges, so energy is
        # preserved only up to boundary flux; a stationary reference keeps it
        # within a few percent
        tr = make_track("constant", 6, az0=30.0, el0=20.0, window_length=256, hop=256)
        sim = synthesize_record(reference(2000), tr, G3, dt=DT)
        for i in range(6):
            sl = slice(i * 256, (i + 1) * 256)
            eb = np.sum(sim.record.b[sl] ** 2)
            ec = np.sum(sim.record.c[sl] ** 2)
            assert abs(ec / eb - 1.0) < 0.05

    def test_gap_samples_are_zero_and_deterministic(self):
        # hop > window leaves samples no window covers in C and D
        tr = make_track("random-walk", 4, seed=11, window_length=256, hop=1024)
        runs = [synthesize_record(reference(4000, seed=11), tr, G3, dt=DT) for _ in range(2)]
        assert runs[0].record.channels.tobytes() == runs[1].record.channels.tobytes()
        gaps = np.ones(runs[0].record.length, dtype=bool)
        for i in range(4):
            gaps[i * 1024 : i * 1024 + 256] = False
        assert np.all(runs[0].record.channels[1:, gaps] == 0.0)

    def test_truth_sidecar_roundtrip(self, tmp_path):
        tr = make_track("random-walk", 12, seed=9, window_length=64, hop=8)
        sim = synthesize_record(reference(300), tr, G3, dt=DT)
        p = save_truth(sim, tmp_path / "truth.csv")
        header = p.read_text().splitlines()[0]
        assert header == "window_index,az_deg,el_deg,tau1_s,tau2_s"
        back = load_truth(p, window_length=64, hop=8)
        np.testing.assert_array_equal(back.az_deg, sim.truth.az_deg)
        np.testing.assert_array_equal(back.el_deg, sim.truth.el_deg)


class TestAwgn:
    def test_infinite_snr_identity(self):
        x = reference(512)
        np.testing.assert_array_equal(add_awgn(x, np.inf), x)

    def test_zero_db_unit_noise_variance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1.0, 100_000)  # unit-power signal
        noisy = add_awgn(x, 0.0, seed=1)
        added = noisy - x
        assert np.var(added) == pytest.approx(1.0, rel=0.05)

    def test_deterministic_per_seed(self):
        x = reference(256)
        np.testing.assert_array_equal(add_awgn(x, 10.0, seed=3), add_awgn(x, 10.0, seed=3))
        assert not np.array_equal(add_awgn(x, 10.0, seed=3), add_awgn(x, 10.0, seed=4))

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError, match="zero-power"):
            add_awgn(np.zeros(64), 10.0)

    @pytest.mark.parametrize("snr_db", [np.nan, -np.inf, 1e308, -1e308, -3090.0])
    def test_snr_without_a_normal_power_ratio_rejected(self, snr_db):
        with pytest.raises(ValueError, match="power ratio"):
            add_awgn(reference(64), snr_db)

    def test_power_ratio(self):
        assert snr_power_ratio(20.0) == 100.0
        assert snr_power_ratio(np.inf) == np.inf


class TestAngleTrack:
    def test_elevation_domain_enforced(self):
        for el in (91.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="elevation"):
                AngleTrack(np.array([0.0]), np.array([el]))

    def test_azimuth_must_be_finite(self):
        with pytest.raises(ValueError, match="azimuth"):
            AngleTrack(np.array([np.inf]), np.array([45.0]))

    def test_length_one_allowed(self):
        assert len(AngleTrack(np.array([10.0]), np.array([45.0]))) == 1
