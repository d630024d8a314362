"""End-to-end mapping chain and map-CSV round trips."""

import tracemalloc

import numpy as np
import pytest

from itfmap import evaluate, pipeline, simulate, xcorr
from itfmap.denoise import parse_filter_spec
from itfmap.geometry import ArrayGeometry, direction_from_tdoa
from itfmap.pipeline import (
    MapResult, PipelineConfig, WindowPeaks, correlate_window, map_record, read_map_csv, solve_directions, window_peaks,
    write_map_csv,
)
from itfmap.signals import SampleRecord, SegmentationPlan, load_record, normalize_window, save_record, segment
from itfmap.simulate import make_track, synthesize_record
from itfmap.xcorr import InterpSpec

G = ArrayGeometry()
DT = 4e-9


def fixture_sim(n_win=120, W=128, hop=8, seed=0, el_range=(20.0, 65.0)):
    rng = np.random.default_rng(seed + 50)
    n_ref = (n_win - 1) * hop + W
    t = np.arange(n_ref) * DT
    ref = np.zeros(n_ref)
    for f0 in np.linspace(42e6, 78e6, 16):
        ref += rng.uniform(0.5, 1) * np.sin(2 * np.pi * f0 * t + rng.uniform(0, 2 * np.pi))
    ref /= np.abs(ref).max()
    tr = make_track("random-walk", n_win, seed=seed, el_range=el_range, window_length=W, hop=hop)
    return synthesize_record(ref, tr, G, dt=DT)


class TestMapRecord:
    @pytest.mark.parametrize("method", ["cctd", "ccfd", "ccwd"])
    def test_noise_free_recovery(self, method):
        sim = fixture_sim()
        cfg = PipelineConfig(
            filter_spec=None,
            cc_method=method,
            interp=InterpSpec("cubic", 8),
            plan=SegmentationPlan(128, 8),
            geometry=G,
        )
        res = map_record(sim.record, cfg)
        stats = evaluate.map_error_stats(res.track(), sim.truth)
        assert stats.mean_deg < 3.0
        assert stats.excluded <= 2

    def test_degenerate_windows_produce_no_estimates(self):
        rec = SampleRecord(np.zeros((3, 400)), sample_interval=DT)
        cfg = PipelineConfig(plan=SegmentationPlan(64, 64))
        res = map_record(rec, cfg)
        assert len(res.window_index) == 0
        assert len(res.degenerate_windows) == res.total_windows

    @pytest.mark.parametrize("spec", [*evaluate.FILTERS, "bpf-hw", None])
    @pytest.mark.parametrize("record", ["d-constant", "all-ones"])
    def test_a_constant_channel_degenerates_under_every_filter(self, spec, record):
        """A channel whose samples are all equal passes its filter unchanged,
        so every window flags it degenerate; a filter's rounding residue
        (about 3e-16) would pass the degenerate check and map as directions."""
        channels = np.ones((3, 64))
        if record == "d-constant":
            channels[:2] = np.random.default_rng(5).normal(size=(2, 64))
            channels[2] = 0.5
        cfg = PipelineConfig(filter_spec=spec, plan=SegmentationPlan(16, 4))
        res = map_record(SampleRecord(channels, sample_interval=DT), cfg)
        assert res.total_windows == 13
        assert len(res.degenerate_windows) == 13 and len(res.window_index) == 0

    def test_filtered_pipeline_runs(self):
        sim = fixture_sim(n_win=60)
        cfg = PipelineConfig(
            filter_spec=parse_filter_spec("wt-sym4-sure"),
            cc_method="cctd",
            interp=InterpSpec("linear", 4),
            plan=SegmentationPlan(128, 8),
            geometry=G,
        )
        res = map_record(sim.record, cfg)
        assert res.total_windows == 60
        assert len(res.window_index) == 60

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="correlation method"):
            PipelineConfig(cc_method="ccxx")

    @pytest.mark.parametrize("spec", ["BPF", "wt-sym4", "gauss"])
    def test_unparsed_filter_selector_rejected(self, spec):
        with pytest.raises(ValueError):
            PipelineConfig(filter_spec=spec)

    def test_parsed_filter_selector_accepted(self):
        assert PipelineConfig(filter_spec="wt-db10-universal").filter_spec == "wt-db10-universal"

    def test_ccwd_needs_a_window_of_two_to_the_levels(self):
        with pytest.raises(ValueError, match="ccwd needs a window of at least 4"):
            PipelineConfig(cc_method="ccwd", plan=SegmentationPlan(3, 1))
        PipelineConfig(cc_method="ccwd", plan=SegmentationPlan(4, 1))
        PipelineConfig(cc_method="cctd", plan=SegmentationPlan(2, 1))


def gaps_record(layout="C"):
    """A noisy 220-sample record with one NaN sample in B and one constant
    stretch in D, its channels handed to `SampleRecord` in C or Fortran
    memory order (which it stores C-contiguous either way)."""
    sim = fixture_sim(n_win=40, W=64, hop=4)
    channels = simulate.add_record_noise(sim.record, 20.0, seed=4).channels.copy()
    channels[0, 30] = np.nan
    channels[2, 120:200] = 0.25
    return SampleRecord(np.asfortranarray(channels) if layout == "F" else channels, DT)


GAPS_PLAN = SegmentationPlan(32, 3)  # 63 windows, 28 degenerate


class TestWindowChunks:
    @pytest.mark.parametrize("method", xcorr.CC_METHODS)
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_block_loop_matches_the_one_window_forms(self, monkeypatch, method, layout):
        monkeypatch.setattr(pipeline, "WINDOW_CHUNK", 7)
        rec = gaps_record(layout)
        cfg = PipelineConfig(cc_method=method, plan=GAPS_PLAN)
        wp = window_peaks(rec, cfg)[method]
        pairs = [correlate_window(normalize_window(w), cfg, DT) for w in segment(rec, GAPS_PLAN)]
        np.testing.assert_array_equal(wp.degenerate, [i for i, pair in enumerate(pairs) if pair is None])
        np.testing.assert_array_equal(wp.index, [i for i, pair in enumerate(pairs) if pair is not None])
        assert wp.index.dtype == wp.degenerate.dtype == np.int64
        assert len(wp.degenerate) == 28
        ref = xcorr.peak_neighborhoods(np.vstack([s.coefficients for pair in pairs if pair for s in pair]))
        for field in ("lag", "coefficient", "neighborhood"):
            np.testing.assert_array_equal(getattr(wp.peaks, field), getattr(ref, field))

    @pytest.mark.parametrize("method", xcorr.CC_METHODS)
    def test_chunk_size_changes_no_map_byte(self, tmp_path, monkeypatch, method):
        rec = gaps_record("F")
        n = GAPS_PLAN.count(rec.length)

        def maps():
            out = []
            for interp in ("none", "linear:8", "cubic:8"):
                cfg = PipelineConfig(cc_method=method, interp=InterpSpec.parse(interp), plan=GAPS_PLAN, geometry=G)
                out.append(write_map_csv(map_record(rec, cfg), tmp_path / "m.csv").read_bytes())
            return out

        expected = maps()
        for chunk in (1, 7, n, n + 5):
            monkeypatch.setattr(pipeline, "WINDOW_CHUNK", chunk)
            assert maps() == expected, chunk

    def test_chunk_size_changes_no_bench_cell(self, monkeypatch):
        datasets = []
        for seed in (1, 2):
            sim = fixture_sim(n_win=12, W=64, hop=16, seed=seed)
            noisy = simulate.add_record_noise(sim.record, 20.0, seed=seed)
            datasets.append(simulate.SimulatedRecord(noisy, sim.truth, sim.tau1_s, sim.tau2_s))
        base = PipelineConfig(plan=SegmentationPlan(64, 16), geometry=G)

        def cells():
            return [repr(c) for c in evaluate.run_benchmark(datasets, base)]

        expected = cells()
        monkeypatch.setattr(pipeline, "WINDOW_CHUNK", 1)
        assert cells() == expected

    def test_memory_stays_bounded_as_records_grow(self):
        n, w = 20_000, 256
        rec = SampleRecord(np.random.default_rng(0).normal(size=(3, n - 1 + w)), DT)
        tracemalloc.start()
        try:
            res = map_record(rec, PipelineConfig(plan=SegmentationPlan(w, 1)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.total_windows == n
        assert peak < 32 * 2**20, f"{peak / 2**20:.1f} MiB"


def result_bits(res: MapResult) -> list:
    """Every field of a MapResult as bytes (arrays) or repr (scalars)."""
    return [(v.dtype.str, v.tobytes()) if isinstance(v, np.ndarray) else repr(v) for v in vars(res).values()]


def layouts(channels: np.ndarray) -> dict[str, np.ndarray]:
    """The same samples as a C-order copy, a Fortran-order copy (the layout
    ``np.array(rows).T`` gives) and a strided slice of a wider array."""
    wide = np.zeros((3, 2 * channels.shape[1]))
    wide[:, 1::2] = channels
    return {"C": channels.copy(order="C"), "F": np.asfortranarray(channels), "strided": wide[:, 1::2]}


class TestRecordLayout:
    """A map depends on the samples and the settings, never on the memory
    layout the record's channels arrive in."""

    def test_record_channels_are_c_contiguous_in_every_layout(self):
        channels = np.random.default_rng(3).normal(size=(3, 50))
        for name, arr in layouts(channels).items():
            rec = SampleRecord(arr, DT)
            assert rec.channels.flags.c_contiguous and rec.channels.dtype == np.float64, name
            np.testing.assert_array_equal(rec.channels, channels)

    @pytest.mark.parametrize("fmt", [".csv", ".bin"])
    def test_loaded_channels_are_c_contiguous(self, tmp_path, fmt):
        rec = SampleRecord(np.random.default_rng(3).normal(size=(3, 50)), DT)
        assert load_record(save_record(rec, tmp_path / f"rec{fmt}")).channels.flags.c_contiguous

    @pytest.mark.parametrize("spec", [None, "wt-sym4-sure"])
    @pytest.mark.parametrize("method", xcorr.CC_METHODS)
    def test_map_is_the_same_in_every_layout(self, tmp_path, method, spec):
        sim = fixture_sim(n_win=40, W=64, hop=4)
        channels = simulate.add_record_noise(sim.record, 20.0, seed=4).channels
        cfg = PipelineConfig(filter_spec=spec, cc_method=method, interp=InterpSpec("cubic", 8),
                             plan=SegmentationPlan(64, 1), geometry=G)
        bits, csv = {}, {}
        for name, arr in layouts(channels).items():
            res = map_record(SampleRecord(arr, DT), cfg)
            bits[name] = result_bits(res)
            csv[name] = write_map_csv(res, tmp_path / f"{name}.csv").read_bytes()
        assert bits["F"] == bits["C"] and bits["strided"] == bits["C"]
        assert csv["F"] == csv["C"] and csv["strided"] == csv["C"]

    @pytest.mark.parametrize("method", xcorr.CC_METHODS)
    def test_a_csv_record_maps_as_the_in_memory_record_bench_scores(self, tmp_path, method):
        """CSV samples are written with repr, so they round-trip exactly and
        `map` of the file scores the same bits as `bench` of the record."""
        sim = fixture_sim(n_win=60, W=128, hop=1)
        record = simulate.add_record_noise(sim.record, 20.0, seed=11)
        loaded = load_record(save_record(record, tmp_path / "rec.csv"))
        np.testing.assert_array_equal(loaded.channels, record.channels)
        cfg = PipelineConfig(cc_method=method, interp=InterpSpec("cubic", 8), plan=SegmentationPlan(128, 1),
                             geometry=G)
        from_file = write_map_csv(map_record(loaded, cfg), tmp_path / "file.csv").read_bytes()
        in_memory = write_map_csv(map_record(record, cfg), tmp_path / "memory.csv").read_bytes()
        assert from_file == in_memory


class TestSolveDirections:
    def test_equals_the_per_window_solve(self):
        # lag pairs repeat across windows and specs; (0, 0) is the zenith
        # and |lag| 40 lies beyond the 12.5-sample transit gate
        rng = np.random.default_rng(21)
        pairs = np.array([[0.0, 0.0], [3.0, -4.0], [40.0, 0.0], [-2.5, 7.125], [12.0, 9.0], [-40.0, -40.0]])
        specs = [pairs[rng.integers(len(pairs), size=30)].ravel() for _ in range(3)]
        assert {tuple(p) for p in np.reshape(specs, (-1, 2))} >= {(0.0, 0.0), (40.0, 0.0)}
        index = np.sort(rng.choice(50, size=30, replace=False))
        coefficient = rng.uniform(0.2, 1.0, size=60)
        coefficient[7] = coefficient[6]  # a tie between the window's BC and BD peaks
        peaks = xcorr.PeakNeighborhoods(127, np.zeros(60, dtype=int), coefficient, np.zeros((60, 17)))
        wp = WindowPeaks(index, np.setdiff1d(np.arange(50), index), 50, peaks)
        results = solve_directions(wp, specs, PipelineConfig(geometry=G), DT)
        assert len(results) == 3
        for lags, res in zip(specs, results):
            np.testing.assert_array_equal(res.window_index, index)
            np.testing.assert_array_equal(res.degenerate_windows, wp.degenerate)
            assert res.total_windows == 50
            for row, ((bc, bd), (peak_bc, peak_bd)) in enumerate(
                zip(lags.reshape(-1, 2).tolist(), coefficient.reshape(-1, 2).tolist())
            ):
                est = direction_from_tdoa(bc * DT, bd * DT, G)
                assert res.valid[row] == est.valid
                assert res.peak_coefficient[row] == min(peak_bc, peak_bd)
                if est.valid:
                    assert (res.az_deg[row], res.el_deg[row]) == (est.az_deg, est.el_deg)
                else:
                    assert np.isnan(res.az_deg[row]) and np.isnan(res.el_deg[row])

    def test_no_correlated_window(self):
        peaks = xcorr.peak_neighborhoods(np.empty((0, 15)))
        wp = WindowPeaks(np.empty(0, dtype=np.int64), np.arange(2), 2, peaks)
        (res,) = solve_directions(wp, [np.empty(0)], PipelineConfig(geometry=G), DT)
        assert len(res.window_index) == len(res.az_deg) == 0
        assert not res.track().valid.any()


class TestMapCsv:
    def test_roundtrip(self, tmp_path):
        sim = fixture_sim(n_win=40)
        cfg = PipelineConfig(plan=SegmentationPlan(128, 8), geometry=G, interp=InterpSpec("cubic", 4))
        res = map_record(sim.record, cfg)
        path = write_map_csv(res, tmp_path / "map.csv", ["cc = cctd"])
        text = path.read_text()
        assert text.startswith("# cc = cctd\nwindow_index,")
        columns = (res.window_index, res.az_deg, res.el_deg, res.peak_coefficient, res.valid)
        for back, column in zip(read_map_csv(path), columns, strict=True):
            assert back.dtype == column.dtype and back.tobytes() == column.tobytes()

    def test_read_back_is_bit_identical_with_gate_failed_rows(self, tmp_path):
        rng = np.random.default_rng(12)
        lags = rng.uniform(-20.0, 20.0, size=(40, 2))  # beyond 12.5 samples of transit, the gate fails
        lags[0] = 0.0  # the zenith
        coefficient = rng.uniform(0.2, 1.0, size=80)
        peaks = xcorr.PeakNeighborhoods(127, np.zeros(80, dtype=int), coefficient, np.zeros((80, 17)))
        index = np.sort(rng.choice(60, size=40, replace=False))
        wp = WindowPeaks(index, np.setdiff1d(np.arange(60), index), 60, peaks)
        (res,) = solve_directions(wp, [lags.ravel()], PipelineConfig(geometry=G), DT)
        assert 0 < np.count_nonzero(res.valid) < 40
        path = write_map_csv(res, tmp_path / "map.csv", ["cc = cctd"])
        columns = (res.window_index, res.az_deg, res.el_deg, res.peak_coefficient, res.valid)
        for back, column in zip(read_map_csv(path), columns, strict=True):
            assert back.dtype == column.dtype and back.tobytes() == column.tobytes()

    @pytest.mark.parametrize("row", [
        "0,0.0,10.0,20.0,0.5,2", "0,0.0,10.0,20.0,0.5,", "0,0.0,,20.0,0.5,1", "0,0.0,nan,20.0,0.5,1",
        "0,0.0,10.0,inf,0.5,1", "0,0.0,360.5,20.0,0.5,1", "0,0.0,10.0,-1.0,0.5,1", "0,0.0,10.0,90.5,0.5,1",
        "x,0.0,10.0,20.0,0.5,1", "0,t,10.0,20.0,0.5,1", "0,0.0,10.0,20.0,p,1", "0,0.0,10.0,20.0,0.5",
    ])
    def test_reader_rejects_a_damaged_row(self, tmp_path, row):
        path = tmp_path / "m.csv"
        path.write_text(f"{pipeline.MAP_CSV_HEADER}\n{row}\n")
        with pytest.raises(ValueError):
            read_map_csv(path)

    def test_reader_takes_the_angle_bounds_and_ignores_invalid_angles(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(f"{pipeline.MAP_CSV_HEADER}\n0,0.0,360.0,90.0,0.5,1\n1,0.0,0.0,0.0,0.5,1\n2,0.0,x,,0.5,0\n")
        index, az, el, _peak, valid = read_map_csv(path)
        assert index.tolist() == [0, 1, 2] and valid.tolist() == [True, True, False]
        np.testing.assert_array_equal(az, [360.0, 0.0, np.nan])
        np.testing.assert_array_equal(el, [90.0, 0.0, np.nan])

    def test_invalid_rows_have_empty_angles_not_nan(self, tmp_path):
        res = MapResult(
            np.array([0, 1]), np.array([10.0, np.nan]), np.array([20.0, np.nan]), np.array([True, False]),
            np.array([0.8, 0.2]), np.empty(0, dtype=np.int64), 2, DT, 1, 64,
        )
        text = write_map_csv(res, tmp_path / "m.csv").read_text()
        assert "nan" not in text.lower()
        row = text.splitlines()[-1]
        assert row == f"1,{float(1*1*DT)!r},,,{0.2!r},0"

    def test_elevation_series(self, tmp_path):
        sim = fixture_sim(n_win=30)
        cfg = PipelineConfig(plan=SegmentationPlan(128, 8), geometry=G)
        res = map_record(sim.record, cfg)
        path = pipeline.write_elevation_series_csv(res, tmp_path / "el.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "window_index,time_s,elevation_deg"
        assert len(lines) == 1 + np.count_nonzero(res.valid)
