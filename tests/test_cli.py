"""CLI commands, exit codes, config handling, output determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from itfmap import evaluate, pipeline, simulate
from itfmap.cli import (COMMANDS, EXIT_CONFIG, EXIT_INPUT, EXIT_OK, EXIT_PROCESS, EXIT_WRITE, SETTINGS, build_parser,
                        main)
from itfmap.signals import SampleRecord, load_record, save_record


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

    def test_sample_beyond_f32_in_raw_binary_is_process_error(self, tmp_path, capsys):
        # noise at -3000 dB is ~1e150 per sample: a CSV holds it, f32 cannot
        assert run("simulate", "--output", str(tmp_path / "big.bin"), "--windows", "4",
                   "--window", "16", "--snr-db=-3000") == EXIT_PROCESS
        assert "does not fit the f32 samples" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert run("simulate", "--output", str(tmp_path / "big.csv"), "--windows", "4",
                   "--window", "16", "--snr-db=-3000") == EXIT_OK

    @pytest.mark.parametrize("command", ["simulate", "bench"])
    @pytest.mark.parametrize("dt_ns", ["1e-9", "1e-37", "1e-6"])
    def test_delay_beyond_the_synthesis_pad_is_config_error(self, tmp_path, monkeypatch, capsys, command, dt_ns):
        def refuse(*args, **kwargs):  # at 1e-9 ns the pad alone would take 458 GiB
            raise AssertionError("synthesis started")

        monkeypatch.setattr(simulate, "synthesize_record", refuse)
        out = tmp_path / "t.csv"
        counts = ["--windows", "4"] if command == "simulate" else ["--records", "1", "--record-windows", "4"]
        assert run(command, "--output", str(out), *counts, "--window", "16", "--dt-ns", dt_ns) == EXIT_CONFIG
        assert "synthesis pads a window by at most 65536" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_delay_inside_the_synthesis_pad_synthesizes(self, tmp_path):
        # 1 ps samples put the 15 m baseline's transit at 50,035 samples
        out = tmp_path / "t.csv"
        assert run("simulate", "--output", str(out), "--windows", "4", "--window", "16", "--dt-ns", "1e-3") == EXIT_OK
        assert load_record(out).length == 19


class TestMapCommand:
    def make_record(self, tmp_path, windows=60, window=128, hop=4, seed=3):
        out = tmp_path / "rec.csv"
        run("simulate", "--output", str(out), "--windows", str(windows),
            "--window", str(window), "--hop", str(hop), "--seed", str(seed))
        return out

    @pytest.mark.parametrize("cc", ["cctd", "ccfd", "ccwd"])
    def test_csv_and_raw_binary_copies_map_to_the_same_bytes(self, tmp_path, cc):
        # f32-exact samples; raw binary stores dt = 4e-9 as an f32, which must
        # read back as 4e-9, or time_s and the angles move
        rec = load_record(self.make_record(tmp_path, windows=40, window=64, hop=8))
        exact = SampleRecord(rec.channels.astype(np.float32).astype(np.float64), 4e-9)
        maps = []
        for name in ("rec.csv", "rec.bin"):
            out = tmp_path / f"{name}.map.csv"
            assert run("map", "--input", str(save_record(exact, tmp_path / name)), "--output", str(out),
                       "--window", "64", "--hop", "8", "--interp", "cubic:8", "--cc", cc) == EXIT_OK
            maps.append([line for line in out.read_text().splitlines() if not line.startswith("# input")])
        assert maps[0] == maps[1]

    def test_kf_maps_a_record_scaled_near_the_overflow_as_the_record(self, tmp_path):
        # kf filters each channel over a power of two near its peak, and the
        # correlation coefficient is a ratio: no byte moves at 2**660 times
        # the record, and nothing overflows
        rec = load_record(self.make_record(tmp_path, windows=72, window=64, hop=4))
        maps = []
        for scale in (1.0, 2.0**660):
            scaled = save_record(SampleRecord(rec.channels * scale, rec.sample_interval), tmp_path / f"{scale}.csv")
            assert np.array_equal(load_record(scaled).channels, rec.channels * scale)
            out = tmp_path / f"{scale}.map.csv"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run("map", "--input", str(scaled), "--output", str(out), "--window", "64", "--hop", "4",
                           "--interp", "cubic:8", "--filter", "kf") == EXIT_OK
            maps.append([line for line in out.read_text().splitlines() if not line.startswith("# input")])
        assert maps[0] == maps[1]
        assert pipeline.read_map_csv(tmp_path / "1.0.map.csv")[4].any()

    def test_map_produces_csv(self, tmp_path):
        rec = self.make_record(tmp_path)
        out = tmp_path / "map.csv"
        assert run("map", "--input", str(rec), "--output", str(out),
                   "--window", "128", "--hop", "4", "--interp", "cubic:8") == EXIT_OK
        index, _az, _el, _peak, valid = pipeline.read_map_csv(out)
        assert len(index) == 60
        assert valid.any()

    def test_map_matches_truth(self, tmp_path):
        rec = self.make_record(tmp_path)
        out = tmp_path / "map.csv"
        run("map", "--input", str(rec), "--output", str(out),
            "--window", "128", "--hop", "4", "--interp", "cubic:8")
        index, az, el, _peak, valid = pipeline.read_map_csv(out)
        truth = simulate.load_truth(tmp_path / "rec.csv.truth.csv")
        rows = index[valid]
        errs = np.hypot(
            evaluate.wrap_azimuth_residual(az[valid] - truth.az_deg[rows]), el[valid] - truth.el_deg[rows]
        )
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

    def test_nonfinite_dt_is_input_error(self, tmp_path, capsys):
        rec = self.make_record(tmp_path, windows=10, window=64)
        lines = rec.read_text().splitlines()
        for dt in ("inf", "1e400"):
            rec.write_text("\n".join(f"# dt={dt}" if l.startswith("# dt=") else l for l in lines) + "\n")
            for cc in ("cctd", "ccwd"):
                assert run("map", "--input", str(rec), "--output", str(tmp_path / "m.csv"),
                           "--window", "64", "--cc", cc) == EXIT_INPUT
                assert "non-finite sample interval" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["map", "--cc", "ccwd", "--window", "2"],
        ["map", "--cc", "ccwd", "--window", "3"],
        ["bench", "--window", "3"],
    ])
    def test_window_too_short_for_ccwd_is_config_error(self, tmp_path, capsys, argv):
        rec = self.make_record(tmp_path, windows=10, window=64)
        out = tmp_path / "o.csv"
        if argv[0] == "map":
            argv = [*argv, "--input", str(rec)]
        assert run(*argv, "--output", str(out)) == EXIT_CONFIG
        assert "ccwd needs a window of at least 4" in capsys.readouterr().err
        assert not out.exists()

    def test_shortest_ccwd_window_maps(self, tmp_path):
        rec = self.make_record(tmp_path, windows=10, window=64)
        out = tmp_path / "m.csv"
        assert run("map", "--input", str(rec), "--output", str(out),
                   "--cc", "ccwd", "--window", "4", "--hop", "8") == EXIT_OK
        assert out.exists()

    def test_format_flag(self, tmp_path):
        rec = self.make_record(tmp_path, windows=10, window=64)
        out = tmp_path / "m.csv"
        assert run("map", "--input", str(rec), "--output", str(out), "--window", "64",
                   "--format", "raw-binary") == EXIT_INPUT
        assert run("map", "--input", str(rec), "--output", str(out), "--window", "64",
                   "--format", "xml") == EXIT_CONFIG
        assert not out.exists()
        assert run("map", "--input", str(rec), "--output", str(out), "--window", "64",
                   "--format", "csv") == EXIT_OK

    def test_bad_filter_is_config_error(self, tmp_path):
        rec = self.make_record(tmp_path, windows=10, window=64)
        assert run("map", "--input", str(rec), "--output", str(tmp_path / "m.csv"),
                   "--filter", "sobel") == EXIT_CONFIG

    def test_record_shorter_than_bandpass_padding_is_config_error(self, tmp_path, capsys):
        rec = tmp_path / "short.csv"
        save_record(SampleRecord(np.random.default_rng(15).normal(size=(3, 15))), rec)
        out = tmp_path / "m.csv"
        assert run("map", "--input", str(rec), "--output", str(out),
                   "--filter", "bpf", "--window", "8") == EXIT_CONFIG
        assert "filter bpf needs at least" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--filter", "bpf"], ["--cc", "ccwd"]])
    def test_sample_interval_the_chain_cannot_take_is_config_error(self, tmp_path, capsys, argv):
        rec = tmp_path / "rec.csv"
        assert run("simulate", "--output", str(rec), "--dt-ns", "100", "--windows", "10",
                   "--window", "64", "--hop", "8") == EXIT_OK
        out = tmp_path / "m.csv"
        assert run("map", "--input", str(rec), "--output", str(out), "--window", "64", *argv) == EXIT_CONFIG
        assert "invalid configuration" in capsys.readouterr().err
        assert not out.exists()

    def test_elevation_series_sidecar(self, tmp_path):
        rec = self.make_record(tmp_path)
        el = tmp_path / "el.csv"
        run("map", "--input", str(rec), "--output", str(tmp_path / "m.csv"),
            "--window", "128", "--hop", "4", "--el-series", str(el))
        lines = [l for l in el.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "window_index,time_s,elevation_deg"
        assert len(lines) > 1
        for path in (el, tmp_path / "m.csv"):  # output paths are not among the settings comments
            assert not [l for l in path.read_text().splitlines() if l.startswith(("# output", "# el_series"))]

    def test_el_series_naming_the_map_file_is_config_error(self, tmp_path, capsys, monkeypatch):
        rec = self.make_record(tmp_path, windows=10, window=64)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(pipeline, "map_record", lambda *a: pytest.fail("mapped"))
        same = tmp_path / "sub" / ".." / "m.csv"  # resolves to ./m.csv
        assert run("map", "--input", str(rec), "--output", "m.csv", "--el-series", str(same),
                   "--window", "64", "--hop", "8") == EXIT_CONFIG
        assert "name one file" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    # a value `plot` would read back as bare lines above the map CSV's header
    @pytest.mark.parametrize("argv", [["--filter", "\nnone"], ["--interp", "\ncubic:8"], ["--filter", "none\u2028"]])
    def test_setting_holding_a_line_break_is_config_error(self, tmp_path, capsys, argv):
        rec = self.make_record(tmp_path, windows=10, window=64)
        out = tmp_path / "m.csv"
        assert run("map", "--input", str(rec), "--output", str(out), "--window", "64", "--hop", "8",
                   *argv) == EXIT_CONFIG
        assert "holds a line break" in capsys.readouterr().err
        assert not out.exists()

    def test_input_name_holding_a_line_break_is_config_error(self, tmp_path, capsys, monkeypatch):
        rec = self.make_record(tmp_path, windows=10, window=64).rename(tmp_path / "rec\n.csv")
        monkeypatch.setattr("itfmap.cli.load_record", lambda *a: pytest.fail("read"))
        out = tmp_path / "m.csv"
        assert run("map", "--input", str(rec), "--output", str(out), "--window", "64", "--hop", "8") == EXIT_CONFIG
        assert "holds a line break" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_el_series_names_that_file(self, tmp_path, capsys):
        rec = self.make_record(tmp_path)
        el = tmp_path / "nodir" / "el.csv"
        assert run("map", "--input", str(rec), "--output", str(tmp_path / "m.csv"), "--window", "128", "--hop", "4",
                   "--el-series", str(el)) == EXIT_WRITE
        assert capsys.readouterr().err.startswith(f"error: cannot write {el}:")

    def test_byte_identical_reruns(self, tmp_path):
        rec = self.make_record(tmp_path)
        m1, m2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        for m in (m1, m2):
            run("map", "--input", str(rec), "--output", str(m), "--window", "128", "--hop", "4")
        # the output path is not among the settings comments
        assert m1.read_bytes() == m2.read_bytes()

    @pytest.mark.parametrize("filt", ["none", "bpf", "kf", "wt-sym4-sure"])
    def test_nan_sample_skips_the_windows_covering_it(self, tmp_path, capsys, filt):
        rec = self.make_record(tmp_path, windows=40, window=64, hop=4)
        lines = rec.read_text().splitlines()
        header = sum(1 for l in lines if l.startswith("#"))
        row = header + 100                   # sample 100 of the record
        b, c, d = lines[row].split(",")
        lines[row] = f"{b},nan,{d}"
        rec.write_text("\n".join(lines) + "\n")
        out = tmp_path / "m.csv"
        assert run("map", "--input", str(rec), "--output", str(out),
                   "--window", "64", "--hop", "4", "--interp", "cubic:8",
                   "--filter", filt) == EXIT_OK
        covering = {i for i in range(40) if 4 * i <= 100 < 4 * i + 64}
        index = pipeline.read_map_csv(out)[0]
        assert index.tolist() == [i for i in range(40) if i not in covering]
        assert f"{len(covering)} degenerate" in capsys.readouterr().out


class TestConfigFile:
    @pytest.mark.parametrize("argv", [
        ["bench", "--window", "0"],
        ["bench", "--hop", "0"],
        ["bench", "--baseline-m", "-1"],
        ["bench", "--dt-ns", "0"],
        ["simulate", "--baseline-m", "0"],
        ["simulate", "--dt-ns", "0"],
        ["simulate", "--windows", "0"],
        ["simulate", "--windows", "-3"],
        ["bench", "--record-windows", "0"],
        ["bench", "--records", "0"],
        ["simulate", "--snr-db", "nan"],
        ["bench", "--snr-db", "nan"],
        ["simulate", "--snr-db", "1e308"],
        ["bench", "--snr-db", "1e308"],
        ["simulate", "--snr-db=-1e308"],
        ["simulate", "--track", "spiral"],
        ["simulate", "--az", "nan"],
        ["simulate", "--el", "inf"],
        ["simulate", "--el", "95", "--track", "constant"],
        ["simulate", "--el-end", "95", "--track", "linear-sweep"],
        ["simulate", "--augment-scale", "-1"],
        ["simulate", "--augment-scale", "0"],
        ["simulate", "--augment-noise-sigma", "-1"],
        ["simulate", "--augment-noise-sigma", "nan"],
        ["simulate", "--format", "xml"],
        ["simulate", "--seed", "-1"],
        ["simulate", "--seed", "-1", "--track", "constant"],
        ["bench", "--seed", "-1"],
    ])
    def test_bad_setting_is_config_error(self, tmp_path, capsys, argv):
        assert run(*argv, "--output", str(tmp_path / "o.csv")) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: invalid configuration:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["simulate", "bench"])
    def test_minus_infinite_snr_from_file_is_config_error(self, tmp_path, command):
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("snr_db = -inf\n")
        assert run(command, "--config", str(cfgf), "--output", str(tmp_path / "o.csv")) == EXIT_CONFIG
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("value", ["7", "-3", "2"])
    def test_switch_other_than_0_or_1_from_file_is_config_error(self, tmp_path, value):
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text(f"augment_flip = {value}\n")
        assert run("simulate", "--config", str(cfgf), "--output", str(tmp_path / "o.csv")) == EXIT_CONFIG
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_neutral_augment_settings_leave_the_record_unchanged(self, tmp_path):
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("augment_flip = 0\naugment_noise_sigma = 0\n")
        common = ["--windows", "6", "--window", "32", "--hop", "8", "--seed", "4"]
        assert run("simulate", "--output", str(tmp_path / "a.csv"), *common) == EXIT_OK
        assert run("simulate", "--output", str(tmp_path / "b.csv"), "--config", str(cfgf), *common) == EXIT_OK
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

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
        for line in ("wibble = 3", "band_low_hz = 40e6"):
            cfgf.write_text(line + "\n")
            assert run("simulate", "--config", str(cfgf), "--output", str(tmp_path / "r.csv")) == EXIT_CONFIG

    def test_malformed_line_rejected(self, tmp_path):
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("window 128\n")
        assert run("simulate", "--config", str(cfgf), "--output", str(tmp_path / "r.csv")) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert run("simulate", "--config", str(tmp_path / "none.cfg"),
                   "--output", str(tmp_path / "r.csv")) == EXIT_INPUT


# the settings each command takes besides --config
TAKES = {
    "simulate": {"output", "format", "window", "hop", "baseline_m", "c", "dt_ns", "seed", "snr_db",
                 "track", "windows", "az", "el", "az_end", "el_end",
                 "augment_noise_sigma", "augment_scale", "augment_flip"},
    "map": {"input", "output", "format", "filter", "cc", "interp", "window", "hop", "baseline_m", "c",
            "el_series"},
    "bench": {"output", "window", "hop", "baseline_m", "c", "dt_ns", "seed", "snr_db", "markdown",
              "records", "record_windows"},
    "plot": {"input", "output"},
}
UNREAD = [(command, key) for command in COMMANDS for key in SETTINGS if key not in TAKES[command]]


class TestSettingsTable:
    def test_each_command_takes_its_table_keys(self):
        subparsers = build_parser()._subparsers._group_actions[0].choices
        assert set(subparsers) == set(TAKES)
        for command, sp in subparsers.items():
            dests = {a.dest for a in sp._actions if a.option_strings} - {"help"}
            assert dests == TAKES[command] | {"config"}, command
            assert {k for k, (_, commands, _) in SETTINGS.items() if command in commands} == TAKES[command]
        assert [len(TAKES[c]) for c in ("simulate", "map", "bench", "plot")] == [18, 11, 11, 2]

    @pytest.mark.parametrize("command, key", UNREAD)
    def test_setting_a_command_does_not_read_is_rejected(self, tmp_path, capsys, command, key):
        argv = [command, "--output", str(tmp_path / "o.csv")]
        if "input" in TAKES[command]:
            argv += ["--input", str(tmp_path / "in.csv")]
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--" + key.replace("_", "-"), "1")
        assert exc.value.code == 2
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text(f"{key} = 1\n")
        assert run(*argv, "--config", str(cfgf)) == EXIT_CONFIG
        assert f"{command} does not take config key {key!r}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfgf]


class TestBenchCommand:
    def test_pipeline_composition(self, tmp_path):
        # simulate -> map -> score against the sidecar equals the matching
        # bench cell when bench replays the same seed and parameters
        rec = tmp_path / "rec.csv"
        mp = tmp_path / "map.csv"
        rpt = tmp_path / "report.csv"
        plan = ["--window", "128", "--hop", "16"]
        synthesis = [*plan, "--seed", "31", "--snr-db", "20"]
        assert run("simulate", "--output", str(rec), "--windows", "50", *synthesis) == EXIT_OK
        assert run("map", "--input", str(rec), "--output", str(mp),
                   "--filter", "bpf", "--cc", "cctd", "--interp", "cubic:8", *plan) == EXIT_OK
        assert run("bench", "--output", str(rpt), "--records", "1",
                   "--record-windows", "50", *synthesis) == EXIT_OK

        truth = simulate.load_truth(tmp_path / "rec.csv.truth.csv", window_length=128, hop=16)
        index, az_rows, el_rows, _peak, valid_rows = pipeline.read_map_csv(mp)
        az = np.zeros(len(truth))
        el = np.zeros(len(truth))
        valid = np.zeros(len(truth), dtype=bool)
        rows = index[valid_rows]
        az[rows], el[rows], valid[rows] = az_rows[valid_rows], el_rows[valid_rows], True
        est = simulate.AngleTrack(az, el, window_length=128, hop=16, valid=valid)
        direct = evaluate.map_error(est, truth)

        cells = evaluate.load_report_csv(rpt)
        cell = next(
            c for c in cells
            if (c.filter_id, c.method, c.interp_method, c.factor) == ("bpf", "cctd", "cubic", 8)
        )
        assert cell.mean_dist_deg == pytest.approx(direct, abs=5e-7)

    def test_record_zero_is_the_simulate_record(self, tmp_path, monkeypatch):
        caught = []

        def catch(datasets, geometry):
            caught.extend(datasets)
            return []

        monkeypatch.setattr(evaluate, "run_benchmark", catch)
        synthesis = ["--window", "64", "--hop", "16", "--seed", "5", "--snr-db", "12"]
        assert run("bench", "--output", str(tmp_path / "r.csv"), "--records", "2",
                   "--record-windows", "20", *synthesis) == EXIT_OK
        assert run("simulate", "--output", str(tmp_path / "rec.csv"), "--windows", "20", *synthesis) == EXIT_OK
        rec = load_record(tmp_path / "rec.csv")
        assert np.array_equal(caught[0].record.channels, rec.channels)
        assert caught[0].record.sample_interval == rec.sample_interval
        truth = simulate.load_truth(tmp_path / "rec.csv.truth.csv", window_length=64, hop=16)
        assert np.array_equal(caught[0].truth.az_deg, truth.az_deg)
        assert not np.array_equal(caught[1].record.channels, rec.channels)

    def test_header_carries_record_counts(self, tmp_path):
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("records = 1\n")
        out = tmp_path / "r.csv"
        assert run("bench", "--config", str(cfgf), "--output", str(out), "--window", "64",
                   "--hop", "16", "--record-windows", "2", "--markdown", str(tmp_path / "r.md")) == EXIT_OK
        header = [l for l in out.read_text().splitlines() if l.startswith("#")]
        assert "# records = 1" in header and "# record_windows = 2" in header
        assert not [l for l in header if l.startswith(("# output", "# markdown"))]

    @pytest.fixture
    def synthesized(self, monkeypatch):
        """One entry per `simulate.synthesize_record` call."""
        calls = []
        real = simulate.synthesize_record
        monkeypatch.setattr(simulate, "synthesize_record", lambda *a, **k: calls.append(1) or real(*a, **k))
        return calls

    @pytest.mark.parametrize("dt_ns, code", [("100", EXIT_CONFIG), ("4", EXIT_OK)])
    def test_sample_interval_checked_before_synthesis(self, tmp_path, synthesized, dt_ns, code):
        assert run("bench", "--output", str(tmp_path / "r.csv"), "--dt-ns", dt_ns, "--window", "64",
                   "--hop", "64", "--records", "1", "--record-windows", "4") == code
        assert len(synthesized) == (code == EXIT_OK)

    def test_record_length_checked_before_synthesis(self, tmp_path, capsys, synthesized):
        # 2 windows of 8 at hop 1 make 9-sample records; the wavelet filters need 16
        assert run("bench", "--output", str(tmp_path / "r.csv"), "--window", "8",
                   "--hop", "1", "--records", "1", "--record-windows", "2") == EXIT_CONFIG
        assert "needs at least 16 samples, got 9" in capsys.readouterr().err
        assert synthesized == []

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

    def test_markdown_naming_the_report_file_is_config_error(self, tmp_path, capsys, synthesized):
        out = tmp_path / "r.csv"
        assert run("bench", "--output", str(out), "--markdown", str(out), "--window", "64",
                   "--hop", "16", "--records", "1", "--record-windows", "2") == EXIT_CONFIG
        assert "name one file" in capsys.readouterr().err
        assert synthesized == [] and not out.exists()

    def test_unwritable_markdown_names_that_file(self, tmp_path, capsys):
        md = tmp_path / "nodir" / "r.md"
        assert run("bench", "--output", str(tmp_path / "r.csv"), "--markdown", str(md), "--window", "64",
                   "--hop", "16", "--records", "1", "--record-windows", "2") == EXIT_WRITE
        assert capsys.readouterr().err.startswith(f"error: cannot write {md}:")

    @pytest.mark.parametrize("all_nan", [False, True])
    def test_best_line_ignores_nan_cells(self, tmp_path, capsys, monkeypatch, all_nan):
        def fake_run_benchmark(datasets, geometry):
            dists = [float("nan")] * 4 if all_nan else [float("nan"), 7.5, 2.25, 4.0]
            return [evaluate.CellResult("bpf", "cctd", "cubic", 2 ** k, dist, 0, 0) for k, dist in enumerate(dists)]

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


SCIPY_PROBE = """
import json, sys
from itfmap.cli import main
print(json.dumps([None, "scipy" in sys.modules]))
for argv in json.loads(sys.argv[1]):
    print(json.dumps([main(argv), "scipy" in sys.modules]))
"""


def test_scipy_loads_only_for_the_filters_that_use_it(tmp_path):
    """A fresh interpreter imports the CLI, simulates, maps by every cc
    method at cubic:8 with no filter and with a wavelet filter, and plots,
    all without loading SciPy; the Kalman and band-pass filters then load it
    on first use."""
    m = ["map", "--input", "rec.csv", "--output", "m.csv", "--window", "64", "--hop", "32"]
    free = [["simulate", "--output", "rec.csv", "--windows", "10", "--hop", "32", "--window", "64", "--seed", "3"]]
    free += [m + ["--filter", "none", "--interp", "cubic:8", "--cc", cc] for cc in ("cctd", "ccfd", "ccwd")]
    free += [m + ["--filter", "wt-sym4-sure", "--interp", "cubic:8", "--cc", "ccwd"],
             ["plot", "--input", "m.csv", "--output", "m.svg"]]
    scipy = [m + ["--filter", "kf"], m + ["--filter", "bpf"]]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, json.dumps(free + scipy)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    steps = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("[")]
    assert steps == [[None, False]] + [[EXIT_OK, False]] * len(free) + [[EXIT_OK, True]] * len(scipy), proc.stdout
