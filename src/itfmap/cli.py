"""Command-line front end: synthesize records, map records to angle tracks,
run the benchmark grid, and render map CSVs to SVG.

Configuration comes from an optional flat ``key = value`` file plus flags
(flags win).  Every output file is self-describing: its header comments carry
the producing configuration, and seeded runs are byte-identical.

Exit codes: 0 ok, 2 usage (argparse), 3 invalid configuration, 4 missing or
unreadable input, 5 write failure, 6 processing error.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from itfmap import evaluate, pipeline, simulate
from itfmap.denoise import parse_filter_spec
from itfmap.evaluate import BenchmarkGrid
from itfmap.geometry import ArrayGeometry
from itfmap.signals import SIGNAL_BAND, SegmentationPlan, load_record, record_format, save_record
from itfmap.simulate import AugmentSpec
from itfmap.xcorr import InterpSpec

EXIT_OK = 0
EXIT_CONFIG = 3
EXIT_INPUT = 4
EXIT_WRITE = 5
EXIT_PROCESS = 6


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# ----------------------------------------------------------------------
# Config file + flags
# ----------------------------------------------------------------------

CONFIG_KEYS = {
    "input": str,
    "output": str,
    "filter": str,
    "cc": str,
    "interp": str,
    "window": int,
    "hop": int,
    "baseline_m": float,
    "dt_ns": float,
    "seed": int,
    "snr_db": float,
    "c": float,
    "track": str,
    "windows": int,
    "az": float,
    "el": float,
    "az_end": float,
    "el_end": float,
    "format": str,
    "el_series": str,
    "markdown": str,
    "augment_noise_sigma": float,
    "augment_scale": float,
    "augment_flip": int,
}


def read_config_file(path: Path) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment."""
    if not path.exists():
        raise CliError(f"config file not found: {path}", EXIT_INPUT)
    out = {}
    for ln, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{ln}: expected 'key = value'", EXIT_CONFIG)
        key, value = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in CONFIG_KEYS:
            raise CliError(f"{path}:{ln}: unknown config key {key!r}", EXIT_CONFIG)
        try:
            out[key] = CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise CliError(f"{path}:{ln}: bad value for {key}: {exc}", EXIT_CONFIG) from exc
    return out


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="itfmap", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", type=Path, help="flat key = value config file")
        sp.add_argument("--input", help="input path")
        sp.add_argument("--output", help="output path")
        sp.add_argument("--filter", dest="filter", help="bpf | bpf-hw | kf | wt-<basis>-<rule> | none")
        sp.add_argument("--cc", help="cctd | ccfd | ccwd")
        sp.add_argument("--interp", help="none | linear:N | cubic:N (N in 1,2,4,8)")
        sp.add_argument("--window", type=int, help="window length in samples")
        sp.add_argument("--hop", type=int, help="window hop in samples")
        sp.add_argument("--baseline-m", dest="baseline_m", type=float, help="baseline length (m)")
        sp.add_argument("--dt-ns", dest="dt_ns", type=float, help="sample interval (ns)")
        sp.add_argument("--seed", type=int, help="random seed")
        sp.add_argument("--snr-db", dest="snr_db", type=float, help="channel AWGN SNR (dB); omit for none")
        sp.add_argument("--c", type=float, help="propagation speed (m/s)")

    sp = sub.add_parser("simulate", help="synthesize a record + ground-truth sidecar")
    common(sp)
    sp.add_argument("--track", help="constant | linear-sweep | random-walk")
    sp.add_argument("--windows", type=int, help="number of windows to generate")
    sp.add_argument("--az", type=float, help="initial azimuth (deg)")
    sp.add_argument("--el", type=float, help="initial elevation (deg)")
    sp.add_argument("--az-end", dest="az_end", type=float, help="sweep end azimuth")
    sp.add_argument("--el-end", dest="el_end", type=float, help="sweep end elevation")
    sp.add_argument("--format", help="csv | raw-binary (default by suffix)")
    sp.add_argument("--augment-noise-sigma", dest="augment_noise_sigma", type=float)
    sp.add_argument("--augment-scale", dest="augment_scale", type=float)
    sp.add_argument("--augment-flip", dest="augment_flip", action="store_const", const=1)

    sp = sub.add_parser("map", help="map a record to per-window directions")
    common(sp)
    sp.add_argument("--el-series", dest="el_series", help="also write elevation-vs-time CSV here")

    sp = sub.add_parser("bench", help="run the benchmark grid on simulated records")
    common(sp)
    sp.add_argument("--markdown", help="also render the report as a markdown table here")
    sp.add_argument("--records", type=int, default=2, help="simulated records to score")
    sp.add_argument("--record-windows", type=int, default=120, help="windows per record")

    sp = sub.add_parser("plot", help="render a map CSV as an SVG scatter")
    common(sp)
    return p


def merge_config(args: argparse.Namespace) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        cfg.update(read_config_file(args.config))
    for key in CONFIG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _require(cfg: dict, key: str, code: int = EXIT_CONFIG):
    if key not in cfg:
        raise CliError(f"missing required setting {key!r}", code)
    return cfg[key]


@contextmanager
def _config_guard():
    """A ValueError or KeyError raised inside is a bad setting: exit 3."""
    try:
        yield
    except (ValueError, KeyError) as exc:
        raise CliError(f"invalid configuration: {exc}", EXIT_CONFIG) from exc


def _pipeline_config(
    cfg: dict, default_hop: int = 1, grid: BenchmarkGrid | None = None,
    n_windows: int = 1, n_records: int = 1,
) -> tuple[pipeline.PipelineConfig, float]:
    """The run configuration and the sample interval (s) from the merged
    settings; any bad value exits 3, as does a window or record count below
    1, or a sample interval or record of `n_windows` windows that a filter or
    correlation method of `grid`, when the run sweeps one, cannot take."""
    with _config_guard():
        if n_windows < 1:
            raise ValueError(f"window count must be at least 1, got {n_windows}")
        if n_records < 1:
            raise ValueError(f"record count must be at least 1, got {n_records}")
        dt = float(cfg.get("dt_ns", 4.0)) * 1e-9
        if not 0 < dt < np.inf:
            raise ValueError(f"sample interval must be finite and > 0, got {cfg['dt_ns']} ns")
        plan = SegmentationPlan(
            window_length=int(cfg.get("window", 256)), hop=int(cfg.get("hop", default_hop))
        )
        geom = ArrayGeometry(
            d=float(cfg.get("baseline_m", 15.0)),
            c=float(cfg.get("c", 299792458.0)),
        )
        config = pipeline.PipelineConfig(
            filter_spec=parse_filter_spec(cfg.get("filter", "none")),
            cc_method=cfg.get("cc", "cctd"),
            interp=InterpSpec.parse(cfg.get("interp", "none")),
            plan=plan,
            geometry=geom,
        )
        if grid is not None:
            length = (n_windows - 1) * plan.hop + plan.window_length
            for filter_id, method in itertools.product(grid.filters, grid.methods):
                replace(config, filter_spec=parse_filter_spec(filter_id), cc_method=method).check_record(dt, length)
    return config, dt


def _config_comments(cfg: dict) -> list[str]:
    return [f"{k} = {cfg[k]}" for k in sorted(cfg)]


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def _reference_waveform(n: int, dt: float, seed: int) -> np.ndarray:
    """Broadband reference for synthesis, limited to `SIGNAL_BAND`."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) * dt
    x = np.zeros(n)
    for f0 in np.linspace(*SIGNAL_BAND, 24):
        x += rng.uniform(0.5, 1.0) * np.sin(2 * np.pi * f0 * t + rng.uniform(0, 2 * np.pi))
    burst = np.exp(-0.5 * ((np.arange(n) - n / 2) / (n / 3)) ** 2)  # slow envelope
    x *= 0.2 + burst
    return x / np.max(np.abs(x))


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = merge_config(args)
    out = Path(_require(cfg, "output"))
    n_windows = int(cfg.get("windows", 200))
    config, dt = _pipeline_config(cfg, n_windows=n_windows)
    window, hop = config.plan.window_length, config.plan.hop
    seed = int(cfg.get("seed", 0))
    with _config_guard():  # nothing is synthesized or written for a bad setting
        record_format(out, cfg.get("format"))
        if "snr_db" in cfg:
            simulate.snr_power_ratio(cfg["snr_db"])
        track = simulate.make_track(
            cfg.get("track", "random-walk"),
            n_windows,
            seed=seed,
            az0=float(cfg.get("az", 120.0)),
            el0=float(cfg.get("el", 45.0)),
            az1=cfg.get("az_end"),
            el1=cfg.get("el_end"),
            window_length=window,
            hop=hop,
        )
        if any(k in cfg for k in ("augment_noise_sigma", "augment_scale", "augment_flip")):
            track = simulate.augment_track(
                track,
                AugmentSpec(
                    noise_sigma=float(cfg.get("augment_noise_sigma", 0.0)),
                    scale_factor=float(cfg.get("augment_scale", 1.0)),
                    flip=bool(cfg.get("augment_flip", 0)),
                    seed=seed,
                ),
            )
    needed = (n_windows - 1) * hop + window
    ref = _reference_waveform(needed, dt, seed)
    sim = simulate.synthesize_record(ref, track, config.geometry, window, hop, dt=dt)
    record = sim.record
    if "snr_db" in cfg:
        record = simulate.add_record_noise(record, float(cfg["snr_db"]), seed=seed)
    try:
        save_record(record, out, cfg.get("format"))
        simulate.save_truth(sim, out.with_suffix(out.suffix + ".truth.csv"))
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc}", EXIT_WRITE) from exc
    print(f"wrote {out} ({record.length} samples) and ground-truth sidecar")
    return EXIT_OK


def cmd_map(args: argparse.Namespace) -> int:
    cfg = merge_config(args)
    inp = Path(_require(cfg, "input"))
    out = Path(_require(cfg, "output"))
    if not inp.exists():
        raise CliError(f"input not found: {inp}", EXIT_INPUT)
    config, _ = _pipeline_config(cfg)
    try:
        record = load_record(inp, cfg.get("format"))
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load {inp}: {exc}", EXIT_INPUT) from exc
    if record.length < config.plan.window_length:
        raise CliError(
            f"record of {record.length} samples is shorter than the "
            f"window length {config.plan.window_length}; segmentation "
            "requires window_length <= record length",
            EXIT_PROCESS,
        )
    try:
        config.check_record(record.sample_interval, record.length)
    except ValueError as exc:
        raise CliError(f"invalid configuration for {inp}: {exc}", EXIT_CONFIG) from exc
    result = pipeline.map_record(record, config)
    comments = _config_comments(cfg)
    try:
        pipeline.write_map_csv(result, out, comments)
        if cfg.get("el_series"):
            pipeline.write_elevation_series_csv(result, Path(cfg["el_series"]), comments)
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc}", EXIT_WRITE) from exc
    n_valid = sum(1 for e in result.estimates if e.valid)
    print(
        f"wrote {out}: {result.total_windows} windows, {n_valid} valid, "
        f"{len(result.degenerate_windows)} degenerate"
    )
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = merge_config(args)
    out = Path(_require(cfg, "output"))
    grid = BenchmarkGrid()
    n_records = int(getattr(args, "records", 2))
    n_windows = int(getattr(args, "record_windows", 120))
    base, dt = _pipeline_config(cfg, default_hop=16, grid=grid, n_windows=n_windows, n_records=n_records)
    window, hop = base.plan.window_length, base.plan.hop
    seed = int(cfg.get("seed", 0))
    # channels carry noise by default: threshold-based denoisers are only
    # meaningful (and only well-behaved) on noisy inputs
    snr_db = float(cfg.get("snr_db", 20.0))
    with _config_guard():
        simulate.snr_power_ratio(snr_db)
    datasets = []
    for ri in range(n_records):
        # record 0 replicates `simulate` with the same seed/window/hop/snr,
        # so a bench cell can be cross-checked against a mapped record
        track = simulate.make_track(
            "random-walk", n_windows, seed=seed + 101 * ri,
            az0=120.0 + 40.0 * ri, el0=45.0 + 5.0 * ri,
            window_length=window, hop=hop,
        )
        needed = (n_windows - 1) * hop + window
        ref = _reference_waveform(needed, dt, seed + 7 * ri)
        sim = simulate.synthesize_record(ref, track, base.geometry, window, hop, dt=dt)
        record = simulate.add_record_noise(sim.record, snr_db, seed=seed + ri)
        sim = simulate.SimulatedRecord(record, sim.truth, sim.tau1_s, sim.tau2_s)
        datasets.append(sim)
    report = evaluate.run_benchmark(grid, datasets, base)
    try:
        evaluate.emit_report_csv(report, out, _config_comments(cfg))
        if cfg.get("markdown"):
            evaluate.emit_report_markdown(report, Path(cfg["markdown"]))
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc}", EXIT_WRITE) from exc
    scored = [c for c in report.cells if np.isfinite(c.mean_dist_deg)]
    best = min(scored, key=lambda c: c.mean_dist_deg) if scored else None
    summary = (f"best {best.filter_id}/{best.method}/{best.interp_method} x{best.factor} "
               f"= {best.mean_dist_deg:.2f} deg") if best else "no cell was scored"
    print(f"wrote {out}: {len(report.cells)} cells; {summary}")
    return EXIT_OK


# ----------------------------------------------------------------------
# SVG scatter (azimuth-elevation plane, colored by window time)
# ----------------------------------------------------------------------

def _color(fraction: float) -> str:
    """Blue -> green ramp over normalized time."""
    r = int(40 + 30 * fraction)
    g = int(80 + 150 * fraction)
    b = int(200 - 160 * fraction)
    return f"#{r:02x}{g:02x}{b:02x}"


def render_map_svg(estimates, path: Path, title: str = "") -> Path:
    pts = [(e.window_index, e.az_deg, e.el_deg) for e in estimates if e.valid]
    if not pts:
        raise CliError("no valid windows to plot", EXIT_PROCESS)
    width, height, margin = 640, 480, 50
    idx = [p[0] for p in pts]
    lo, hi = min(idx), max(idx)
    span = max(hi - lo, 1)

    def sx(az):
        return margin + (az / 360.0) * (width - 2 * margin)

    def sy(el):
        return height - margin - (el / 90.0) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height-margin}" x2="{width-margin}" y2="{height-margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height-margin}" stroke="black"/>',
        f'<text x="{width/2:.0f}" y="{height-12}" text-anchor="middle" font-size="12">azimuth (deg)</text>',
        f'<text x="14" y="{height/2:.0f}" text-anchor="middle" font-size="12" transform="rotate(-90 14 {height/2:.0f})">elevation (deg)</text>',
    ]
    for az_tick in range(0, 361, 90):
        parts.append(
            f'<text x="{sx(az_tick):.1f}" y="{height-margin+16}" text-anchor="middle" font-size="10">{az_tick}</text>'
        )
    for el_tick in range(0, 91, 30):
        parts.append(
            f'<text x="{margin-6}" y="{sy(el_tick):.1f}" text-anchor="end" font-size="10">{el_tick}</text>'
        )
    for i, az, el in pts:
        parts.append(
            f'<circle cx="{sx(az):.2f}" cy="{sy(el):.2f}" r="3" fill="{_color((i-lo)/span)}" fill-opacity="0.8"/>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")
    return path


def cmd_plot(args: argparse.Namespace) -> int:
    cfg = merge_config(args)
    inp = Path(_require(cfg, "input"))
    out = Path(_require(cfg, "output"))
    if not inp.exists():
        raise CliError(f"input not found: {inp}", EXIT_INPUT)
    try:
        estimates = pipeline.read_map_csv(inp)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot parse map CSV {inp}: {exc}", EXIT_INPUT) from exc
    try:
        render_map_svg(estimates, out, title=inp.name)
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc}", EXIT_WRITE) from exc
    print(f"wrote {out}")
    return EXIT_OK


COMMANDS = {
    "simulate": cmd_simulate,
    "map": cmd_map,
    "bench": cmd_bench,
    "plot": cmd_plot,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:  # any other failure is a processing error, never a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PROCESS


if __name__ == "__main__":
    sys.exit(main())
