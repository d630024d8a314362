"""Acceptance suite: the toolkit's exit criteria.

Each test exercises one criterion end to end at its stated tolerance and
prints a single pass/fail line in the terminal summary.  Run with:

    pytest tests/test_acceptance.py -v
"""

import time

import numpy as np

from itfmap import evaluate, pipeline, simulate, wavelets
from itfmap.cli import _reference_waveform, main
from itfmap.denoise import DEFAULT_BAND, bandpass_filter, kalman_filter
from itfmap.evaluate import map_error, run_benchmark
from itfmap.geometry import ArrayGeometry, direction_from_tdoa, tdoa_from_direction
from itfmap.signals import SegmentationPlan
from itfmap.simulate import AngleTrack
from itfmap.wavelets import get_basis
from itfmap.xcorr import InterpSpec, cc_freq, cc_time

DT = 4e-9


def report(recorder, num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    recorder(f"[{verdict}] criterion {num}: {detail}")


def test_criterion_1_geometry_round_trip(criterion_reporter):
    geom = ArrayGeometry()
    rng = np.random.default_rng(1)
    az = rng.uniform(0.0, 360.0, 10_000)
    el = rng.uniform(0.5, 90.0, 10_000)
    t0 = time.perf_counter()
    worst = 0.0
    for a, e in zip(az, el):
        est = direction_from_tdoa(*tdoa_from_direction(a, e, geom), geom)
        assert est.valid
        worst = max(worst, abs(est.az_deg - a), abs(est.el_deg - e))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    report(criterion_reporter, 1, ok, f"10,000 round trips, worst {worst:.2e} deg (gate 1e-9) in {elapsed:.2f} s (gate 1 s)")
    assert worst < 1e-9
    assert elapsed < 1.0


def test_criterion_2_route_equivalence(criterion_reporter):
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        x = rng.normal(size=256)
        y = rng.normal(size=256)
        d = np.max(np.abs(cc_time(x, y).coefficients - cc_freq(x, y).coefficients))
        worst = max(worst, float(d))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    report(criterion_reporter, 2, ok, f"1,000 window pairs, max route disagreement {worst:.2e} (gate 1e-9) in {elapsed:.1f} s (gate 10 s)")
    assert worst < 1e-9
    assert elapsed < 10.0


def test_criterion_3_noise_free_closed_loop(criterion_reporter):
    geom = ArrayGeometry()
    W, hop, n_ref = 256, 8, 20_000
    n_win = (n_ref - W) // hop + 1
    track = simulate.make_track(
        "random-walk", n_win, seed=11, az0=200.0, el0=45.0,
        az_step=0.5, el_step=0.3, el_range=(10.0, 75.0),
        window_length=W, hop=hop,
    )
    ref = _reference_waveform(n_ref, DT, seed=3)
    t0 = time.perf_counter()
    sim = simulate.synthesize_record(ref, track, geom, dt=DT)
    plan = SegmentationPlan(W, hop)
    dists = {}
    for label, interp in (("factor1", InterpSpec()), ("cubic8", InterpSpec("cubic", 8))):
        cfg = pipeline.PipelineConfig(
            filter_spec=None, cc_method="cctd", interp=interp, plan=plan, geometry=geom
        )
        res = pipeline.map_record(sim.record, cfg)
        dists[label] = map_error(res.track(), sim.truth)
    elapsed = time.perf_counter() - t0
    ok = dists["cubic8"] <= 2.0 and dists["cubic8"] < dists["factor1"] and elapsed < 60.0
    report(criterion_reporter, 3,
        ok,
        f"closed loop ({n_win} windows): cubic x8 = {dists['cubic8']:.3f} deg (gate 2.0), "
        f"factor 1 = {dists['factor1']:.3f} deg, in {elapsed:.1f} s (gate 60 s)",
    )
    assert dists["cubic8"] <= 2.0
    assert dists["cubic8"] < dists["factor1"]
    assert elapsed < 60.0


def test_criterion_4_full_grid_completes(tmp_path, criterion_reporter):
    geom = ArrayGeometry()
    W, hop, n_win = 256, 32, 120
    plan = SegmentationPlan(W, hop)
    t0 = time.perf_counter()
    datasets = []
    for ri in range(2):
        track = simulate.make_track(
            "random-walk", n_win, seed=40 + ri, az0=100.0 + 60 * ri, el0=45.0,
            el_range=(15.0, 70.0), window_length=W, hop=hop,
        )
        ref = _reference_waveform((n_win - 1) * hop + W, DT, seed=50 + ri)
        sim = simulate.synthesize_record(ref, track, geom, dt=DT)
        rec = simulate.add_record_noise(sim.record, 20.0, seed=60 + ri)
        datasets.append(simulate.SimulatedRecord(rec, sim.truth, sim.tau1_s, sim.tau2_s))
    base = pipeline.PipelineConfig(plan=plan, geometry=geom)
    cells = run_benchmark(datasets, base)
    csv_path = evaluate.emit_report_csv(cells, tmp_path / "grid.csv")
    md_path = evaluate.emit_report_markdown(cells, tmp_path / "grid.md")
    elapsed = time.perf_counter() - t0
    md_lines = [l for l in md_path.read_text().splitlines() if l.startswith("|")]
    data_rows = [
        l for l in csv_path.read_text().splitlines()
        if l and not l.startswith("#") and not l.startswith("filter,")
    ]
    ok = (
        len(cells) == 240
        and len(data_rows) == 240
        and len(md_lines) == 2 + 10
        and elapsed < 900.0
    )
    report(criterion_reporter, 4,
        ok,
        f"benchmark grid 10x3x2x4 = {len(cells)} cells over 2 records "
        f"in {elapsed:.1f} s (gate 900 s); table layout rows = {len(md_lines) - 2}",
    )
    assert ok


def test_criterion_5_ccwd_directional_claim(criterion_reporter):
    geom = ArrayGeometry()
    W, hop, n_win = 256, 16, 300
    plan = SegmentationPlan(W, hop)
    n_ref = (n_win - 1) * hop + W
    t0 = time.perf_counter()
    wins = 0
    margins = []
    for seed in range(20):
        track = simulate.make_track(
            "random-walk", n_win, seed=seed, az0=150.0, el0=40.0,
            az_step=0.5, el_step=0.3, el_range=(15.0, 70.0),
            window_length=W, hop=hop,
        )
        ref = _reference_waveform(n_ref, DT, seed=100 + seed)
        sim = simulate.synthesize_record(ref, track, geom, dt=DT)
        noisy = simulate.add_record_noise(sim.record, 10.0, seed=200 + seed)
        dist = {}
        for method in ("cctd", "ccwd"):
            cfg = pipeline.PipelineConfig(
                filter_spec=None, cc_method=method, interp=InterpSpec("cubic", 8),
                plan=plan, geometry=geom,
            )
            res = pipeline.map_record(noisy, cfg)
            dist[method] = map_error(res.track(), sim.truth)
        wins += dist["ccwd"] <= dist["cctd"]
        margins.append(dist["cctd"] - dist["ccwd"])
    elapsed = time.perf_counter() - t0
    ok = wins >= 14  # >= 70% of 20 seeds
    report(criterion_reporter, 5,
        ok,
        f"CCWD <= CCTD at 10 dB in {wins}/20 seeds (gate >= 14), mean margin "
        f"{np.mean(margins):+.4f} deg, in {elapsed:.1f} s. Caveat: the margin is "
        "waveform-dependent; published absolute distances need the original waveform",
    )
    assert wins >= 14


def test_criterion_6_filter_properties(criterion_reporter):
    # wavelet analysis/synthesis identity
    rng = np.random.default_rng(6)
    worst_id = 0.0
    for name in ("sym4", "coif5", "db10", "fk14"):
        basis = get_basis(name)
        x = rng.normal(size=1024)
        back = wavelets.waverec(wavelets.wavedec(x, basis, 4), basis)
        worst_id = max(worst_id, float(np.max(np.abs(back - x))))
    # band-pass gates
    n = 4096
    t = np.arange(n) * DT
    core = slice(500, -500)
    x5 = np.sin(2 * np.pi * 5e6 * t)
    x60 = np.sin(2 * np.pi * 60e6 * t)
    atten5 = -20 * np.log10(
        np.sqrt(np.mean(bandpass_filter(x5, DEFAULT_BAND, DT)[core] ** 2) / np.mean(x5[core] ** 2))
    )
    gain60 = 20 * np.log10(
        np.sqrt(np.mean(bandpass_filter(x60, DEFAULT_BAND, DT)[core] ** 2) / np.mean(x60[core] ** 2))
    )
    # Kalman running mean
    z = 2.0 + np.random.default_rng(3).normal(0, 0.5, 500)
    km = kalman_filter(z, 0.0, 0.25)
    mean_err = float(np.max(np.abs(km - np.cumsum(z) / np.arange(1, 501))))
    # Kalman MSE reduction
    mse_wins = 0
    for seed in range(20):
        r = np.random.default_rng(seed)
        truth = np.cumsum(r.normal(0, 0.05, 2000))
        zz = truth + r.normal(0, 0.1, 2000)
        f = kalman_filter(zz, 0.05**2, 0.1**2)
        mse_wins += np.mean((f - truth) ** 2) < np.mean((zz - truth) ** 2)
    ok = worst_id <= 1e-10 and atten5 >= 40.0 and abs(gain60) <= 1.0 and mean_err <= 1e-9 and mse_wins >= 19
    report(criterion_reporter, 6,
        ok,
        f"wavelet identity {worst_id:.1e} (gate 1e-10); 5 MHz attenuation {atten5:.0f} dB "
        f"(gate 40); 60 MHz gain {gain60:+.2f} dB (gate +-1); Kalman running-mean error "
        f"{mean_err:.1e} (gate 1e-9); MSE reduced in {mse_wins}/20 seeds (gate 19)",
    )
    assert worst_id <= 1e-10
    assert atten5 >= 40.0
    assert abs(gain60) <= 1.0
    assert mean_err <= 1e-9
    assert mse_wins >= 19


def test_criterion_7_transit_gate_fuzz(tmp_path, criterion_reporter):
    geom = ArrayGeometry()
    rng = np.random.default_rng(7)
    estimates = []
    n_beyond = 0
    for i in range(5000):
        t1 = rng.uniform(-2.0, 2.0) * geom.transit_time
        t2 = rng.uniform(-2.0, 2.0) * geom.transit_time
        est = direction_from_tdoa(t1, t2, geom)
        if np.hypot(t1, t2) > geom.transit_time * (1 + 1e-12):
            n_beyond += 1
            assert not est.valid
            assert est.az_deg is None and est.el_deg is None
        estimates.append(est)
    angles = np.array([(e.az_deg, e.el_deg) if e.valid else (np.nan, np.nan) for e in estimates])
    result = pipeline.MapResult(
        np.arange(5000), *angles.T, np.array([e.valid for e in estimates]),
        np.full(5000, 0.5), np.empty(0, dtype=np.int64), 5000, DT, 1, 256,
    )
    csv_path = pipeline.write_map_csv(result, tmp_path / "fuzz.csv")
    text = csv_path.read_text().lower()
    ok = n_beyond > 1000 and "nan" not in text
    report(criterion_reporter, 7,
        ok,
        f"{n_beyond}/5000 fuzzed pairs beyond the gate: all invalid, emitted CSV has no NaN angles",
    )
    assert ok


def test_criterion_8_error_metric_units(criterion_reporter):
    ident = AngleTrack(np.array([10.0, 250.0]), np.array([30.0, 60.0]))
    v0 = map_error(ident, ident)
    truth = AngleTrack(np.full(5, 10.0), np.full(5, 40.0))
    est = AngleTrack(np.array([13.0, 10, 10, 10, 10]), np.array([44.0, 40, 40, 40, 40]))
    v1 = map_error(est, truth)
    wrap = map_error(
        AngleTrack(np.array([1.0]), np.array([45.0])),
        AngleTrack(np.array([359.0]), np.array([45.0])),
    )
    ok = v0 == 0.0 and abs(v1 - 1.0) < 1e-12 and abs(wrap - 2.0) < 1e-12
    report(criterion_reporter, 8,
        ok,
        f"identical tracks -> {v0}; (3,4) offset among 5 -> {v1:.12f} (exact 1.0); "
        f"359 vs 1 wrap -> {wrap:.12f} deg (exact 2.0)",
    )
    assert ok


def test_criterion_9_seeded_determinism(tmp_path, criterion_reporter):
    def one_run(tag):
        rec = tmp_path / f"rec_{tag}.csv"
        mp = tmp_path / f"map_{tag}.csv"
        bench = tmp_path / f"bench_{tag}.csv"
        assert main([
            "simulate", "--output", str(rec), "--windows", "80", "--window", "128",
            "--hop", "8", "--seed", "21", "--snr-db", "15",
        ]) == 0
        assert main([
            "map", "--input", str(rec), "--output", str(mp), "--window", "128",
            "--hop", "8", "--interp", "cubic:4", "--filter", "bpf",
        ]) == 0
        assert main([
            "bench", "--output", str(bench), "--window", "128", "--hop", "32",
            "--records", "1", "--record-windows", "40", "--seed", "21",
        ]) == 0
        return rec, mp, bench

    first = one_run("a")
    second = one_run("b")
    identical = all(
        a.read_bytes().replace(b"_a.", b"_x.") == b.read_bytes().replace(b"_b.", b"_x.")
        for a, b in zip(first, second)
    )
    report(criterion_reporter, 9, identical, "simulate+map+bench reruns with fixed seeds are byte-identical")
    assert identical
