"""End-to-end mapping chain and map-CSV round trips."""

import numpy as np
import pytest

from itfmap import evaluate, pipeline
from itfmap.denoise import parse_filter_spec
from itfmap.geometry import ArrayGeometry
from itfmap.pipeline import MapResult, PipelineConfig, map_record, read_map_csv, write_map_csv
from itfmap.signals import SampleRecord, SegmentationPlan
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
    return synthesize_record(ref, tr, G, W, hop, dt=DT)


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
        assert res.estimates == []
        assert len(res.degenerate_windows) == res.total_windows

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
        assert len(res.estimates) == 60

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="correlation method"):
            PipelineConfig(cc_method="ccxx")

    def test_ccwd_needs_a_window_of_two_to_the_levels(self):
        with pytest.raises(ValueError, match="ccwd needs a window of at least 4"):
            PipelineConfig(cc_method="ccwd", plan=SegmentationPlan(3, 1))
        PipelineConfig(cc_method="ccwd", plan=SegmentationPlan(4, 1))
        PipelineConfig(cc_method="cctd", plan=SegmentationPlan(2, 1))


class TestMapCsv:
    def test_roundtrip(self, tmp_path):
        sim = fixture_sim(n_win=40)
        cfg = PipelineConfig(plan=SegmentationPlan(128, 8), geometry=G, interp=InterpSpec("cubic", 4))
        res = map_record(sim.record, cfg)
        path = write_map_csv(res, tmp_path / "map.csv", ["cc = cctd"])
        text = path.read_text()
        assert text.startswith("# cc = cctd\nwindow_index,")
        back = read_map_csv(path)
        assert len(back) == len(res.estimates)
        for orig, loaded in zip(res.estimates, back):
            assert loaded.window_index == orig.window_index
            assert loaded.valid == orig.valid
            if orig.valid:
                assert loaded.az_deg == pytest.approx(orig.az_deg, abs=0)
                assert loaded.el_deg == pytest.approx(orig.el_deg, abs=0)

    def test_invalid_rows_have_empty_angles_not_nan(self, tmp_path):
        est = [
            pipeline.DirectionEstimate(0, 10.0, 20.0, True, 0.9, 0.8),
            pipeline.DirectionEstimate(1, None, None, False, 1.4, 0.2),
        ]
        res = MapResult(est, [], 2, DT, 1, 64)
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
        assert len(lines) == 1 + sum(1 for e in res.estimates if e.valid)
