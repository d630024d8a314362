"""Error metric unit cases and the benchmark sweep machinery."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from itfmap import evaluate, pipeline, simulate
from itfmap.denoise import parse_filter_spec
from itfmap.evaluate import (
    FACTORS,
    FILTERS,
    INTERP_METHODS,
    emit_report_csv,
    emit_report_markdown,
    load_report_csv,
    map_error,
    map_error_stats,
    run_benchmark,
    wrap_azimuth_residual,
)
from itfmap.geometry import ArrayGeometry
from itfmap.signals import SegmentationPlan
from itfmap.simulate import AngleTrack
from itfmap.xcorr import CC_METHODS, InterpSpec

G3 = ArrayGeometry(d=15.0, c=3e8)


def track(az, el, valid=None):
    return AngleTrack(np.asarray(az, float), np.asarray(el, float), valid=valid)


class TestMapError:
    def test_identical_tracks_zero(self):
        t = track([10, 20, 30], [40, 50, 60])
        assert map_error(t, t) == 0.0

    def test_three_four_five_triangle(self):
        truth = track([10] * 5, [40] * 5)
        est = track([13, 10, 10, 10, 10], [44, 40, 40, 40, 40])
        assert map_error(est, truth) == pytest.approx(1.0, abs=1e-12)

    def test_azimuth_wrap_seam(self):
        truth = track([359.0], [45.0])
        est = track([1.0], [45.0])
        assert map_error(est, truth) == pytest.approx(2.0, abs=1e-12)

    def test_wrap_function_range(self):
        d = wrap_azimuth_residual(np.array([0.0, 180.0, -180.0, 359.0, -359.0, 540.0]))
        np.testing.assert_allclose(d, [0.0, 180.0, 180.0, -1.0, 1.0, 180.0])

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = track(rng.uniform(0, 360, 20), rng.uniform(0, 90, 20))
        b = track(rng.uniform(0, 360, 20), rng.uniform(0, 90, 20))
        assert map_error(a, b) == pytest.approx(map_error(b, a), rel=1e-12)

    def test_triangle_inequality_per_window(self):
        rng = np.random.default_rng(1)
        a = track(rng.uniform(0, 360, 50), rng.uniform(0, 90, 50))
        b = track(rng.uniform(0, 360, 50), rng.uniform(0, 90, 50))
        c = track(rng.uniform(0, 360, 50), rng.uniform(0, 90, 50))
        assert map_error(a, c) <= map_error(a, b) + map_error(b, c) + 1e-9

    def test_invalid_windows_excluded_and_counted(self):
        truth = track([10, 20, 30, 40], [10, 20, 30, 40])
        est = track([10, 89, 30, 40], [10, 89, 30, 40], valid=[True, False, True, True])
        stats = map_error_stats(est, truth)
        assert stats.mean_deg == 0.0
        assert stats.included == 3 and stats.excluded == 1

    def test_no_overlap_raises(self):
        truth = track([1], [1])
        est = track([1], [1], valid=[False])
        with pytest.raises(ValueError, match="no overlapping"):
            map_error_stats(est, truth)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="lengths differ"):
            map_error(track([1], [1]), track([1, 2], [1, 2]))


def tiny_dataset(seed=0, n_win=40, W=64, hop=8):
    rng = np.random.default_rng(seed)
    dt = 4e-9
    n_ref = (n_win - 1) * hop + W
    t = np.arange(n_ref) * dt
    ref = np.zeros(n_ref)
    for f0 in np.linspace(42e6, 78e6, 12):
        ref += rng.uniform(0.5, 1) * np.sin(2 * np.pi * f0 * t + rng.uniform(0, 2 * np.pi))
    ref /= np.abs(ref).max()
    tr = simulate.make_track("random-walk", n_win, seed=seed, el_range=(20, 60), window_length=W, hop=hop)
    return simulate.synthesize_record(ref, tr, G3, dt=dt)


PLAN = SegmentationPlan(64, 8)  # the grid `tiny_dataset` cuts by default
GRID = list(itertools.product(FILTERS, CC_METHODS, INTERP_METHODS, FACTORS))


@pytest.fixture(scope="module")
def noisy_dataset():
    """12 windows of 64 at hop 8, 20 dB."""
    ds = tiny_dataset(n_win=12)
    return replace(ds, record=simulate.add_record_noise(ds.record, 20.0, seed=1))


@pytest.fixture(scope="module")
def cells(noisy_dataset):
    return run_benchmark([noisy_dataset], G3)


def key(c):
    return c.filter_id, c.method, c.interp_method, c.factor


class TestBenchmark:
    def test_cells_in_report_order(self, cells):
        assert len(GRID) == 10 * 3 * 2 * 4 == 240
        assert [key(c) for c in cells] == GRID

    def test_every_cell_equals_a_single_run(self, noisy_dataset, cells):
        ds = noisy_dataset
        for c in cells:
            cfg = pipeline.PipelineConfig(parse_filter_spec(c.filter_id), c.method,
                                          InterpSpec(c.interp_method, c.factor), PLAN, G3)
            res = pipeline.map_record(ds.record, cfg)
            try:
                stats = map_error_stats(res.track(), ds.truth)
            except ValueError:
                stats = evaluate.ErrorStats(float("nan"), 0, len(ds.truth))
            expect = (stats.mean_deg, int(stats.included > 0), stats.excluded)
            got = (c.mean_dist_deg, c.records, c.excluded_windows)
            assert got == expect or (np.isnan(got[0]) and np.isnan(expect[0]) and got[1:] == expect[1:]), key(c)
            assert stats.included + stats.excluded == res.total_windows

    def test_deterministic_reports(self, tmp_path, noisy_dataset, cells):
        p1 = emit_report_csv(cells, tmp_path / "a.csv")
        p2 = emit_report_csv(run_benchmark([noisy_dataset], G3), tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_roundtrip_six_decimals(self, tmp_path, cells):
        back = load_report_csv(emit_report_csv(cells, tmp_path / "r.csv"))
        assert [key(c) for c in back] == GRID
        for orig, loaded in zip(cells, back):
            assert loaded.mean_dist_deg == pytest.approx(orig.mean_dist_deg, abs=5e-7, nan_ok=True)
            assert (loaded.records, loaded.excluded_windows) == (orig.records, orig.excluded_windows)

    def test_markdown_layout(self, tmp_path, cells):
        md = emit_report_markdown(cells, tmp_path / "r.md").read_text().splitlines()
        assert md[0].startswith("| filter | CCTD linear x1 | CCTD linear x2 |")
        assert md[0].endswith("| CCWD cubic x8 |")
        assert [row.split(" | ")[0] for row in md[2:]] == [f"| {f}" for f in FILTERS]
        assert all(row.count("|") == 26 for row in md)

    def test_factor_one_interp_methods_agree(self, cells):
        # factor 1 collapses linear and cubic to the integer peak
        by_key = {key(c): c for c in cells}
        for f, m in itertools.product(FILTERS, CC_METHODS):
            a, b = by_key[f, m, "linear", 1], by_key[f, m, "cubic", 1]
            assert repr(a.mean_dist_deg) == repr(b.mean_dist_deg) and a.records == b.records

    def test_dataset_without_truth_rejected(self):
        ds = tiny_dataset(8, n_win=4)
        broken = simulate.SimulatedRecord(ds.record, None, ds.tau1_s, ds.tau2_s)
        with pytest.raises(ValueError, match="ground truth"):
            run_benchmark([broken], G3)

    def test_misaligned_truth_rejected(self):
        ds = tiny_dataset(8, n_win=20)
        truth = AngleTrack(ds.truth.az_deg[:10], ds.truth.el_deg[:10], window_length=64, hop=8)
        short = replace(ds, truth=truth)
        with pytest.raises(ValueError, match="ground truth of 10 windows for a record of 20"):
            run_benchmark([short], G3)

    def test_record_with_no_valid_truth_window_goes_unscored(self, noisy_dataset):
        truth = noisy_dataset.truth
        blind = replace(noisy_dataset, truth=replace(truth, valid=np.zeros(len(truth), dtype=bool)))
        for c in run_benchmark([blind], G3):
            assert np.isnan(c.mean_dist_deg) and c.records == 0 and c.excluded_windows == len(truth)

    def test_each_record_is_windowed_as_its_truth_track(self):
        # the 216 samples of 20 windows of 64 at hop 8 also hold 20 windows
        # of 140 at hop 4, so the window-count check passes either grid:
        # scored on (140, 4), this cell reads 0.683 deg
        track = simulate.make_track("random-walk", 20, seed=3, window_length=64, hop=8)
        ds = simulate.simulate_record(track, ArrayGeometry(), 4e-9, 3, 3, 20.0)
        by_key = {key(c): c for c in run_benchmark([ds], ArrayGeometry())}
        assert by_key["bpf", "cctd", "cubic", 8].mean_dist_deg == pytest.approx(0.629, abs=5e-4)

    def test_records_on_different_grids_score_as_each_alone(self):
        datasets = []
        for seed, hop in ((1, 8), (2, 16)):
            ds = tiny_dataset(seed, n_win=6, hop=hop)
            datasets.append(replace(ds, record=simulate.add_record_noise(ds.record, 20.0, seed=seed)))
        alone = [run_benchmark([ds], G3) for ds in datasets]
        for c, *singles in zip(run_benchmark(datasets, G3), *alone, strict=True):
            scored = [s.mean_dist_deg for s in singles if s.records]
            assert key(c) == key(singles[0])
            assert repr(c.mean_dist_deg) == repr(float(np.mean(scored)) if scored else float("nan")), key(c)
            assert c.records == sum(s.records for s in singles)
            assert c.excluded_windows == sum(s.excluded_windows for s in singles)
