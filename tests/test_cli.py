"""CLI commands, exit codes, config handling, output determinism."""

import numpy as np
import pytest

from itfmap import evaluate, pipeline, simulate
from itfmap.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_OK, EXIT_PROCESS, main
from itfmap.signals import load_record


def run(*argv):
    return main(list(argv))


class TestSimulateCommand:
    def test_writes_record_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "rec.csv"
        assert run("simulate", "--output", str(out), "--windows", "50",
                   "--hop", "4", "--window", "128", "--seed", "5") == EXIT_OK
        assert out.exists()
        sidecar = tmp_path / "rec.csv.truth.csv"
        assert sidecar.exists()
        rec = load_record(out)
        assert rec.length == 49 * 4 + 128
        truth = simulate.load_truth(sidecar)
        assert len(truth) == 50

    def test_binary_output(self, tmp_path):
        out = tmp_path / "rec.bin"
        assert run("simulate", "--output", str(out), "--windows", "30",
                   "--hop", "4", "--window", "128") == EXIT_OK
        rec = load_record(out)
        assert rec.length == 29 * 4 + 128

    def test_deterministic_outputs(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            run("simulate", "--output", str(out), "--windows", "40", "--hop", "4",
                "--window", "128", "--seed", "7", "--snr-db", "15")
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.truth.csv").read_bytes() == (tmp_path / "b.csv.truth.csv").read_bytes()

    def test_missing_output_is_config_error(self):
        assert run("simulate", "--windows", "10") == EXIT_CONFIG


class TestMapCommand:
    def make_record(self, tmp_path, windows=60, window=128, hop=4, seed=3):
        out = tmp_path / "rec.csv"
        run("simulate", "--output", str(out), "--windows", str(windows),
            "--window", str(window), "--hop", str(hop), "--seed", str(seed))
        return out

    def test_map_produces_csv(self, tmp_path):
        rec = self.make_record(tmp_path)
        out = tmp_path / "map.csv"
        assert run("map", "--input", str(rec), "--output", str(out),
                   "--window", "128", "--hop", "4", "--interp", "cubic:8") == EXIT_OK
        rows = pipeline.read_map_csv(out)
        assert len(rows) == 60
        assert any(r.valid for r in rows)

    def test_map_matches_truth(self, tmp_path):
        rec = self.make_record(tmp_path)
        out = tmp_path / "map.csv"
        run("map", "--input", str(rec), "--output", str(out),
            "--window", "128", "--hop", "4", "--interp", "cubic:8")
        rows = [r for r in pipeline.read_map_csv(out) if r.valid]
        truth = simulate.load_truth(tmp_path / "rec.csv.truth.csv")
        errs = [
            np.hypot(
                float(evaluate.wrap_azimuth_residual(np.array([r.az_deg - truth.az_deg[r.window_index]]))[0]),
                r.el_deg - truth.el_deg[r.window_index],
            )
            for r in rows
        ]
        assert np.mean(errs) < 3.0

    def test_missing_input(self, tmp_path):
        assert run("map", "--input", str(tmp_path / "nope.csv"),
                   "--output", str(tmp_path / "m.csv")) == EXIT_INPUT

    def test_record_shorter_than_window_names_precondition(self, tmp_path, capsys):
        rec = self.make_record(tmp_path, windows=10, window=64, hop=1)
        code = run("map", "--input", str(rec), "--output", str(tmp_path / "m.csv"),
                   "--window", "4096")
        err = capsys.readouterr().err
        assert code == EXIT_PROCESS
        assert "window" in err and "record" in err

    def test_bad_filter_is_config_error(self, tmp_path):
        rec = self.make_record(tmp_path, windows=10, window=64)
        assert run("map", "--input", str(rec), "--output", str(tmp_path / "m.csv"),
                   "--filter", "sobel") == EXIT_CONFIG

    def test_elevation_series_sidecar(self, tmp_path):
        rec = self.make_record(tmp_path)
        el = tmp_path / "el.csv"
        run("map", "--input", str(rec), "--output", str(tmp_path / "m.csv"),
            "--window", "128", "--hop", "4", "--el-series", str(el))
        lines = [l for l in el.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "window_index,time_s,elevation_deg"
        assert len(lines) > 1

    def test_byte_identical_reruns(self, tmp_path):
        rec = self.make_record(tmp_path)
        m1, m2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        for m in (m1, m2):
            run("map", "--input", str(rec), "--output", str(m), "--window", "128", "--hop", "4")
        a, b = m1.read_text(), m2.read_text()
        # outputs differ only in the self-describing output-path comment
        strip = lambda t: [l for l in t.splitlines() if not l.startswith("# output")]
        assert strip(a) == strip(b)

    def test_nan_sample_skips_the_windows_covering_it(self, tmp_path, capsys):
        rec = self.make_record(tmp_path, windows=40, window=64, hop=4)
        lines = rec.read_text().splitlines()
        header = sum(1 for l in lines if l.startswith("#"))
        row = header + 100                   # sample 100 of the record
        b, c, d = lines[row].split(",")
        lines[row] = f"{b},nan,{d}"
        rec.write_text("\n".join(lines) + "\n")
        out = tmp_path / "m.csv"
        assert run("map", "--input", str(rec), "--output", str(out),
                   "--window", "64", "--hop", "4", "--interp", "cubic:8") == EXIT_OK
        covering = {i for i in range(40) if 4 * i <= 100 < 4 * i + 64}
        assert [r.window_index for r in pipeline.read_map_csv(out)] == [
            i for i in range(40) if i not in covering
        ]
        assert f"{len(covering)} degenerate" in capsys.readouterr().out


class TestConfigFile:
    def test_file_plus_flag_override(self, tmp_path):
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("window = 128\nhop = 4\nseed = 9  # comment\n")
        out = tmp_path / "rec.csv"
        assert run("simulate", "--config", str(cfgf), "--output", str(out),
                   "--windows", "20", "--hop", "2") == EXIT_OK
        rec = load_record(out)
        assert rec.length == 19 * 2 + 128  # flag hop=2 overrode file hop=4

    def test_unknown_key_rejected(self, tmp_path):
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("wibble = 3\n")
        assert run("simulate", "--config", str(cfgf), "--output", str(tmp_path / "r.csv")) == EXIT_CONFIG

    def test_malformed_line_rejected(self, tmp_path):
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("window 128\n")
        assert run("simulate", "--config", str(cfgf), "--output", str(tmp_path / "r.csv")) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert run("simulate", "--config", str(tmp_path / "none.cfg"),
                   "--output", str(tmp_path / "r.csv")) == EXIT_INPUT


class TestBenchCommand:
    def test_pipeline_composition(self, tmp_path):
        # simulate -> map -> score against the sidecar equals the matching
        # bench cell when bench replays the same seed and parameters
        rec = tmp_path / "rec.csv"
        mp = tmp_path / "map.csv"
        rpt = tmp_path / "report.csv"
        common = ["--window", "128", "--hop", "16", "--seed", "31", "--snr-db", "20"]
        assert run("simulate", "--output", str(rec), "--windows", "50", *common) == EXIT_OK
        assert run("map", "--input", str(rec), "--output", str(mp),
                   "--filter", "bpf", "--cc", "cctd", "--interp", "cubic:8", *common) == EXIT_OK
        assert run("bench", "--output", str(rpt), "--records", "1",
                   "--record-windows", "50", *common) == EXIT_OK

        truth = simulate.load_truth(tmp_path / "rec.csv.truth.csv", window_length=128, hop=16)
        rows = pipeline.read_map_csv(mp)
        az = np.zeros(len(truth))
        el = np.zeros(len(truth))
        valid = np.zeros(len(truth), dtype=bool)
        for r in rows:
            if r.valid:
                az[r.window_index], el[r.window_index] = r.az_deg, r.el_deg
                valid[r.window_index] = True
        est = simulate.AngleTrack(az, el, window_length=128, hop=16, valid=valid)
        direct = evaluate.map_error(est, truth)

        cells = evaluate.load_report_csv(rpt)
        cell = next(
            c for c in cells
            if (c.filter_id, c.method, c.interp_method, c.factor) == ("bpf", "cctd", "cubic", 8)
        )
        assert cell.mean_dist_deg == pytest.approx(direct, abs=5e-7)

    def test_small_grid_runs_and_reports(self, tmp_path):
        out = tmp_path / "report.csv"
        md = tmp_path / "report.md"
        assert run("bench", "--output", str(out), "--markdown", str(md),
                   "--window", "64", "--hop", "16", "--records", "1",
                   "--record-windows", "30", "--seed", "2") == EXIT_OK
        rows = evaluate.load_report_csv(out)
        assert len(rows) == 240
        assert md.read_text().startswith("| filter |")
        # markdown has one row per filter
        body = [l for l in md.read_text().splitlines() if l.startswith("|")][2:]
        assert len(body) == 10

    @pytest.mark.parametrize("all_nan", [False, True])
    def test_best_line_ignores_nan_cells(self, tmp_path, capsys, monkeypatch, all_nan):
        def fake_run_benchmark(grid, datasets, base):
            report = evaluate.ErrorReport(grid=grid)
            for k, dist in enumerate([float("nan"), 7.5, 2.25, 4.0]):
                if all_nan:
                    dist = float("nan")
                report.cells.append(evaluate.CellResult("bpf", "cctd", "cubic", 2 ** k, dist, 0, 0))
            return report

        monkeypatch.setattr(evaluate, "run_benchmark", fake_run_benchmark)
        assert run("bench", "--output", str(tmp_path / "r.csv"), "--window", "64",
                   "--hop", "16", "--records", "1", "--record-windows", "2") == EXIT_OK
        out = capsys.readouterr().out
        if all_nan:
            assert "4 cells; no cell was scored" in out
        else:
            assert "best bpf/cctd/cubic x4 = 2.25 deg" in out


class TestPlotCommand:
    def test_svg_from_map(self, tmp_path):
        rec = TestMapCommand().make_record(tmp_path)
        m = tmp_path / "m.csv"
        run("map", "--input", str(rec), "--output", str(m), "--window", "128", "--hop", "4")
        svg = tmp_path / "m.svg"
        assert run("plot", "--input", str(m), "--output", str(svg)) == EXIT_OK
        text = svg.read_text()
        assert text.startswith("<svg") and "<circle" in text

    def test_empty_map_is_process_error(self, tmp_path, capsys):
        m = tmp_path / "empty.csv"
        m.write_text(pipeline.MAP_CSV_HEADER + "\n")
        assert run("plot", "--input", str(m), "--output", str(tmp_path / "x.svg")) == EXIT_PROCESS
        assert "no valid windows" in capsys.readouterr().err

    def test_missing_input(self, tmp_path):
        assert run("plot", "--input", str(tmp_path / "nope.csv"),
                   "--output", str(tmp_path / "x.svg")) == EXIT_INPUT
