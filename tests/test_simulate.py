"""Track generation, augmentation, channel synthesis and noise injection."""

import tracemalloc

import numpy as np
import pytest

from itfmap import pipeline, simulate, xcorr
from itfmap.evaluate import map_error
from itfmap.geometry import ArrayGeometry, direction_from_tdoa, tdoa_from_direction
from itfmap.signals import SIGNAL_BAND, SegmentationPlan, normalize_window, segment
from itfmap.simulate import (
    AngleTrack,
    add_awgn,
    augment_track,
    fractional_delay,
    load_truth,
    make_track,
    reference_waveform,
    save_truth,
    snr_power_ratio,
    simulate_record,
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

    def test_identity_parameters(self):
        tr = self.base()
        out = augment_track(tr, noise_sigma=0.0, scale_factor=1.0, flip=False)
        np.testing.assert_array_equal(out.az_deg, tr.az_deg)
        np.testing.assert_array_equal(out.el_deg, tr.el_deg)

    def test_flip_only_rotates_azimuth_180(self):
        tr = make_track("constant", 5, az0=30.0, el0=40.0)
        out = augment_track(tr, noise_sigma=0.0, scale_factor=1.0, flip=True)
        assert np.all(out.az_deg == 210.0)
        np.testing.assert_array_equal(out.el_deg, tr.el_deg)

    def test_noise_deterministic_and_clipped(self):
        tr = self.base()
        a = augment_track(tr, noise_sigma=1.0, scale_factor=1.0, flip=False, seed=11)
        b = augment_track(tr, noise_sigma=1.0, scale_factor=1.0, flip=False, seed=11)
        np.testing.assert_array_equal(a.el_deg, b.el_deg)
        assert np.all((a.el_deg >= 0.0) & (a.el_deg <= 90.0))
        assert not np.array_equal(a.el_deg, tr.el_deg)
        # elevation carries the noise; azimuth stays untouched by default
        np.testing.assert_array_equal(a.az_deg, tr.az_deg)

    def test_outward_scaling_expands_spread(self):
        tr = self.base()
        out = augment_track(tr, noise_sigma=0.0, scale_factor=1.2, flip=False)
        assert np.std(out.el_deg) > np.std(tr.el_deg)
        assert np.all((out.el_deg >= 0.0) & (out.el_deg <= 90.0))

    def test_parameter_validation(self):
        tr = self.base()
        with pytest.raises(ValueError, match="scale_factor"):
            augment_track(tr, scale_factor=0.0)
        with pytest.raises(ValueError, match="noise_sigma"):
            augment_track(tr, noise_sigma=-1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="scale_factor"):
                augment_track(tr, scale_factor=bad)
            with pytest.raises(ValueError, match="noise_sigma"):
                augment_track(tr, noise_sigma=bad)


def track_delays(track, geom, dt):
    """The (tau1, tau2) rows of a track, and the pad of 64 + max |delay|
    samples each window's slice takes on either side."""
    tau = np.array([tdoa_from_direction(az, el, geom) for az, el in zip(track.az_deg.tolist(), track.el_deg.tolist())])
    return tau, 64 + int(np.ceil(np.max(np.abs(tau)) / dt))


def oracle_channels(ref, track, geom, dt):
    """The record `synthesize_record` is meant to build, one window and one
    delay at a time: each window's slice of the reference, zero-padded by
    64 + max |delay| samples, is delayed by each scalar delay, and every
    sample n of C and D is taken from the window whose centre is nearest,
    clip(floor((n - W/2) / hop + 1/2), 0, windows - 1), if that window
    covers it."""
    w, h, n = track.window_length, track.hop, len(track)
    needed = (n - 1) * h + w
    ref = np.asarray(ref[:needed], dtype=np.float64)
    tau, pad = track_delays(track, geom, dt)
    delayed = np.empty((n, 2, w))
    for i in range(n):
        seg = np.zeros(w + 2 * pad)
        a = i * h - pad
        lo, hi = max(a, 0), min(a + len(seg), needed)
        seg[lo - a : hi - a] = ref[lo:hi]
        for j in range(2):
            delayed[i, j] = fractional_delay(seg, tau[i, j] / dt)[pad : pad + w]
    sample = np.arange(needed)
    owner = np.clip(np.floor((sample - w / 2) / h + 0.5).astype(int), 0, n - 1)
    offset = sample - owner * h
    covered = (offset >= 0) & (offset < w)
    channels = np.zeros((3, needed))
    channels[0] = ref
    channels[1:, covered] = delayed[owner[covered], :, offset[covered]].T
    return channels


class TestSynthesize:
    @pytest.mark.parametrize("n, window, hop", [
        (20, 64, 16),    # hop < window
        (15, 64, 7),     # odd hop
        (6, 64, 64),     # hop = window
        (7, 32, 50),     # hop > window: uncovered gaps
        (1, 64, 3),      # one window
    ])
    def test_matches_the_window_by_window_oracle(self, n, window, hop):
        tr = make_track("random-walk", n, seed=n, az_step=20.0, el_step=10.0, window_length=window, hop=hop)
        ref = reference((n - 1) * hop + window + 5, seed=hop)
        sim = synthesize_record(ref, tr, G3, dt=DT)
        assert sim.record.channels.tobytes() == oracle_channels(ref, tr, G3, DT).tobytes()

    @pytest.mark.parametrize("hop", [40, 64, 90])  # hop < W, hop = W, hop > W
    @pytest.mark.parametrize("windows_per_block", [1, 7, 1000])
    def test_bytes_do_not_depend_on_the_block_size(self, monkeypatch, hop, windows_per_block):
        # 200 windows: more than the default block holds at W = 64
        n, w = 200, 64
        tr = make_track("random-walk", n, seed=hop, az_step=20.0, el_step=10.0, window_length=w, hop=hop)
        ref = reference((n - 1) * hop + w, seed=hop)
        _, pad = track_delays(tr, G3, DT)
        assert n > simulate.SYNTH_BLOCK_SAMPLES // (w + 2 * pad)
        monkeypatch.setattr(simulate, "SYNTH_BLOCK_SAMPLES", windows_per_block * (w + 2 * pad))
        sim = synthesize_record(ref, tr, G3, dt=DT)
        assert sim.record.channels.tobytes() == oracle_channels(ref, tr, G3, DT).tobytes()

    def test_delays_as_an_array_match_the_scalar_calls(self):
        x = reference(300, seed=4)
        delays = [12.5, -3.25, 0.0]
        rows = fractional_delay(x, delays)
        assert rows.shape == (3, 300)
        for row, d in zip(rows, delays):
            assert row.tobytes() == fractional_delay(x, d).tobytes()
        assert fractional_delay(x, np.float64(2.5)).shape == (300,)
        # a 2-D block: one row of delays per segment
        block = np.stack([reference(300, seed=s) for s in range(4)])
        block_delays = np.array([[12.5, -3.25], [0.0, 7.75], [-0.5, 0.125], [3.0, -12.5]])
        out = fractional_delay(block, block_delays)
        assert out.shape == (4, 2, 300)
        for seg, seg_delays, seg_out in zip(block, block_delays, out):
            for d, row in zip(seg_delays, seg_out):
                assert row.tobytes() == fractional_delay(seg, d).tobytes()
        for bad in (block_delays[:3], block_delays[:, 0]):
            with pytest.raises(ValueError, match="one row of delays"):
                fractional_delay(block, bad)

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


def direct_reference(n, dt, seed):
    """The reference's direct formula, amplitude * sin(omega * t + phase) per
    sample and tone under an `np.exp` envelope, which `reference_waveform`
    computed before angle addition."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) * dt
    x = np.zeros(n)
    for f0 in np.linspace(*SIGNAL_BAND, 24):
        x += rng.uniform(0.5, 1.0) * np.sin(2 * np.pi * f0 * t + rng.uniform(0, 2 * np.pi))
    burst = np.exp(-0.5 * ((np.arange(n) - n / 2) / (n / 3)) ** 2)
    x *= 0.2 + burst
    return x / np.max(np.abs(x))


def angle_addition_reference(n, dt, seed):
    """`reference_waveform` as whole-array expressions per tone: the sin and
    cos tables of one block's angles, tiled over the record, times the
    tone's terms at each block start, repeated over the block."""
    rng = np.random.default_rng(seed)
    block = simulate.REFERENCE_BLOCK
    x = np.zeros(n)
    for f0 in np.linspace(*SIGNAL_BAND, 24):
        omega, amplitude, phase = 2 * np.pi * f0, rng.uniform(0.5, 1.0), rng.uniform(0, 2 * np.pi)
        beta = np.arange(min(n, block)) * dt * omega
        alpha = np.arange(0, n, block) * dt * omega + phase
        x += np.resize(np.cos(beta), n) * np.repeat(amplitude * np.sin(alpha), block)[:n]
        x += np.resize(np.sin(beta), n) * np.repeat(amplitude * np.cos(alpha), block)[:n]
    x *= simulate._envelope((np.arange(n) - n / 2) / (n / 3))
    return x / np.max(np.abs(x))


class TestRecordRecipe:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_blocks_match_the_angle_addition_formula(self, seed):
        block = simulate.REFERENCE_BLOCK
        for n in (2, block - 1, block, block + 1, 3 * block + 5):
            assert reference_waveform(n, DT, seed).tobytes() == angle_addition_reference(n, DT, seed).tobytes()

    def test_angle_addition_stays_near_the_direct_formula(self):
        # one argument ulp at the record's end is 4.7e-10 rad; the sums differ by less
        n = 2**20
        np.testing.assert_allclose(reference_waveform(n, DT, 1), direct_reference(n, DT, 1), rtol=0, atol=1e-9)

    def test_envelope_matches_exp(self):
        n = 2**20
        for u in ((np.arange(n) - n / 2) / (n / 3), np.linspace(-1.5, 1.5, 10_001)):
            np.testing.assert_allclose(simulate._envelope(u), 0.2 + np.exp(-0.5 * u**2), rtol=1e-15, atol=0)

    def test_block_is_a_multiple_of_64(self):
        assert simulate.REFERENCE_BLOCK % 64 == 0

    def test_synthesis_memory_is_bounded_by_the_record(self):
        # 1,024 windows at hop = W = 256: a record of 262,144 samples, 6 MiB
        tr = make_track("linear-sweep", 1024, az0=120.0, az1=150.0, el0=45.0, el1=55.0, window_length=256, hop=256)
        tracemalloc.start()
        try:
            sim = simulate_record(tr, ArrayGeometry(), DT, seed=1, noise_seed=1, snr_db=20.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        record_bytes = sim.record.channels.nbytes
        assert record_bytes == 6 * 2**20
        assert peak <= 3 * record_bytes, f"{peak / record_bytes:.2f}x the record"


class TestTruthLabels:
    """Window i's samples around its centre carry window i's delays, which
    the truth labels it with, so a noiseless cctd map at cubic x8 scores
    near the grid floor: the error of the true delays rounded to 1/8
    sample (0.32 deg here)."""

    @pytest.mark.parametrize("hop, n", [(1, 2000), (32, 120)])
    def test_noiseless_sweep_scores_near_the_grid_floor(self, hop, n):
        geom = ArrayGeometry()
        tr = make_track("linear-sweep", n, az0=120.0, az1=150.0, el0=45.0, el1=55.0, window_length=256, hop=hop)
        sim = simulate_record(tr, geom, DT, seed=1, noise_seed=1, snr_db=None)
        config = pipeline.PipelineConfig(cc_method="cctd", interp=xcorr.InterpSpec("cubic", 8),
                                         plan=SegmentationPlan(256, hop), geometry=geom)
        error = map_error(pipeline.map_record(sim.record, config).track(), sim.truth)
        on_grid = [direction_from_tdoa(np.round(t1 / DT * 8) / 8 * DT, np.round(t2 / DT * 8) / 8 * DT, geom)
                   for t1, t2 in zip(sim.tau1_s, sim.tau2_s)]
        floor = map_error(AngleTrack([e.az_deg for e in on_grid], [e.el_deg for e in on_grid]), sim.truth)
        assert floor == pytest.approx(0.32, abs=0.01)
        assert error < floor + 0.15


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

    @pytest.mark.parametrize("window_length, hop", [(16, 0), (16, -3), (1, 1)])
    def test_window_layout_is_a_segmentation_plan(self, window_length, hop):
        # at hop 0, synthesis would return a 16-sample record for 5 windows
        with pytest.raises(ValueError, match="hop|window_length"):
            make_track("constant", 5, window_length=window_length, hop=hop)
        with pytest.raises(ValueError, match="hop|window_length"):
            AngleTrack(np.zeros(5), np.zeros(5), window_length, hop)
