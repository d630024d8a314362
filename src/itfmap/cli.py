"""Command-line front end: synthesize records, map records to angle tracks,
run the benchmark grid, and render map CSVs to SVG.

Each command takes the settings `SETTINGS` lists for it, from an optional
flat ``key = value`` file plus flags (flags win).  The map CSV, the elevation
CSV and the report CSV carry the merged settings, all but the output paths,
as header comments; the record, its sidecar, the markdown report and the SVG
do not.  Seeded runs are byte-identical.

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

from itfmap import evaluate, geometry, pipeline, signals, simulate
from itfmap.denoise import parse_filter_spec
from itfmap.geometry import ArrayGeometry
from itfmap.signals import SegmentationPlan, load_record, record_format, save_record
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
# Settings: config file + flags
# ----------------------------------------------------------------------

def _switch(value: str) -> int:
    """An on/off setting: a bare flag, or 0/1 in a config file."""
    if value not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {value!r}")
    return int(value)


# key -> (type, the commands that read it, help).  A command takes exactly
# its keys, as ``--key-name`` flags and as config-file keys.
SETTINGS = {
    "input": (str, ("map", "plot"), "input path"),
    "output": (str, ("simulate", "map", "bench", "plot"), "output path"),
    "format": (str, ("simulate", "map"), "record format: csv | raw-binary (default by suffix)"),
    "filter": (str, ("map",), "bpf | bpf-hw | kf | wt-<basis>-<rule> | none"),
    "cc": (str, ("map",), "cctd | ccfd | ccwd"),
    "interp": (str, ("map",), "none | linear:N | cubic:N (N in 1,2,4,8)"),
    "window": (int, ("simulate", "map", "bench"), "window length in samples"),
    "hop": (int, ("simulate", "map", "bench"), "window hop in samples"),
    "baseline_m": (float, ("simulate", "map", "bench"), "baseline length (m)"),
    "c": (float, ("simulate", "map", "bench"), "propagation speed (m/s)"),
    "dt_ns": (float, ("simulate", "bench"), "sample interval (ns)"),
    "seed": (int, ("simulate", "bench"), "random seed"),
    "snr_db": (float, ("simulate", "bench"), "channel AWGN SNR (dB); default none (simulate), 20 (bench)"),
    "track": (str, ("simulate",), "constant | linear-sweep | random-walk"),
    "windows": (int, ("simulate",), "number of windows to generate"),
    "az": (float, ("simulate",), "initial azimuth (deg)"),
    "el": (float, ("simulate",), "initial elevation (deg)"),
    "az_end": (float, ("simulate",), "sweep end azimuth (deg)"),
    "el_end": (float, ("simulate",), "sweep end elevation (deg)"),
    "augment_noise_sigma": (float, ("simulate",), "augment: elevation noise sigma (deg)"),
    "augment_scale": (float, ("simulate",), "augment: outward scale about the centroid"),
    "augment_flip": (_switch, ("simulate",), "augment: flip the track horizontally"),
    "el_series": (str, ("map",), "also write elevation-vs-time CSV here"),
    "markdown": (str, ("bench",), "also render the report as a markdown table here"),
    "records": (int, ("bench",), "simulated records to score"),
    "record_windows": (int, ("bench",), "windows per record"),
}


def read_config_file(path: Path, command: str) -> dict:
    """Flat ``key = value`` lines of `command`'s settings; '#' starts a comment."""
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
        if key not in SETTINGS:
            raise CliError(f"{path}:{ln}: unknown config key {key!r}", EXIT_CONFIG)
        kind, commands, _ = SETTINGS[key]
        if command not in commands:
            raise CliError(f"{path}:{ln}: {command} does not take config key {key!r}", EXIT_CONFIG)
        try:
            out[key] = kind(value)
        except ValueError as exc:
            raise CliError(f"{path}:{ln}: bad value for {key}: {exc}", EXIT_CONFIG) from exc
    return out


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="itfmap", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    for command, run in COMMANDS.items():
        # no abbreviations: `plot --c` must not read as `plot --config`
        sp = sub.add_parser(command, help=run.__doc__, allow_abbrev=False)
        sp.add_argument("--config", type=Path, help="flat key = value config file")
        for key, (kind, commands, text) in SETTINGS.items():
            if command in commands:
                how = {"action": "store_const", "const": 1} if kind is _switch else {"type": kind}
                sp.add_argument("--" + key.replace("_", "-"), help=text, **how)
    return p


def merge_config(args: argparse.Namespace) -> dict:
    """The command's settings from its config file, overlaid by its flags."""
    cfg = read_config_file(args.config, args.command) if args.config else {}
    cfg.update((k, v) for k, v in vars(args).items() if k in SETTINGS and v is not None)
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


@contextmanager
def _write_guard(path: str | Path):
    """An OSError raised inside failed to write `path`: exit 5."""
    try:
        yield
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_WRITE) from exc


def _pipeline_config(
    cfg: dict, default_hop: int = signals.DEFAULT_HOP, n_windows: int | None = None
) -> tuple[pipeline.PipelineConfig, float]:
    """The run configuration and the sample interval (s) from the merged
    settings; any bad value exits 3.  A run that synthesizes `n_windows`
    windows also exits 3 for a window count below 1 or a baseline transit
    above `simulate.MAX_DELAY_SAMPLES`."""
    with _config_guard():
        if n_windows is not None and n_windows < 1:
            raise ValueError(f"window count must be at least 1, got {n_windows}")
        dt = cfg["dt_ns"] * 1e-9 if "dt_ns" in cfg else signals.DEFAULT_SAMPLE_INTERVAL
        if not 0 < dt < np.inf:
            raise ValueError(f"sample interval must be finite and > 0, got {cfg['dt_ns']} ns")
        plan = SegmentationPlan(
            window_length=cfg.get("window", signals.DEFAULT_WINDOW_LENGTH), hop=cfg.get("hop", default_hop)
        )
        geom = ArrayGeometry(
            d=cfg.get("baseline_m", geometry.DEFAULT_BASELINE_M), c=cfg.get("c", geometry.SPEED_OF_LIGHT)
        )
        if n_windows is not None and not geom.transit_time / dt <= simulate.MAX_DELAY_SAMPLES:
            raise ValueError(f"baseline transit of {geom.transit_time / dt:.3g} samples; synthesis "
                             f"pads a window by at most {simulate.MAX_DELAY_SAMPLES}")
        config = pipeline.PipelineConfig(
            filter_spec=parse_filter_spec(cfg.get("filter", "none")),
            cc_method=cfg.get("cc", "cctd"),
            interp=InterpSpec.parse(cfg.get("interp", "none")),
            plan=plan,
            geometry=geom,
        )
    return config, dt


def _config_comments(cfg: dict) -> list[str]:
    """The settings as header comments, all but the output paths: a result's
    bytes do not depend on the file it is written to."""
    return [f"{k} = {cfg[k]}" for k in sorted(cfg) if k not in ("output", "markdown", "el_series")]


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    """synthesize a record + ground-truth sidecar"""
    cfg = merge_config(args)
    out = Path(_require(cfg, "output"))
    n_windows = cfg.get("windows", 200)
    config, dt = _pipeline_config(cfg, n_windows=n_windows)
    seed = cfg.get("seed", 0)
    with _config_guard():  # nothing is synthesized or written for a bad setting
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        record_format(out, cfg.get("format"))
        if "snr_db" in cfg:
            simulate.snr_power_ratio(cfg["snr_db"])
        track = simulate.make_track(
            cfg.get("track", "random-walk"),
            n_windows,
            seed=seed,
            az0=cfg.get("az", 120.0),
            el0=cfg.get("el", 45.0),
            az1=cfg.get("az_end"),
            el1=cfg.get("el_end"),
            window_length=config.plan.window_length,
            hop=config.plan.hop,
        )
        if any(k in cfg for k in ("augment_noise_sigma", "augment_scale", "augment_flip")):
            track = simulate.augment_track(
                track,
                noise_sigma=cfg.get("augment_noise_sigma", 0.0),
                scale_factor=cfg.get("augment_scale", 1.0),
                flip=bool(cfg.get("augment_flip", 0)),
                seed=seed,
            )
    sim = simulate.simulate_record(track, config.geometry, dt, seed, seed, cfg.get("snr_db"))
    with _write_guard(out):
        save_record(sim.record, out, cfg.get("format"))
        simulate.save_truth(sim, out.with_suffix(out.suffix + ".truth.csv"))
    print(f"wrote {out} ({sim.record.length} samples) and ground-truth sidecar")
    return EXIT_OK


def cmd_map(args: argparse.Namespace) -> int:
    """map a record to per-window directions"""
    cfg = merge_config(args)
    inp = Path(_require(cfg, "input"))
    out = Path(_require(cfg, "output"))
    if not inp.exists():
        raise CliError(f"input not found: {inp}", EXIT_INPUT)
    config, _ = _pipeline_config(cfg)
    with _config_guard():
        fmt = record_format(inp, cfg.get("format"))
    try:
        record = load_record(inp, fmt)
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
    with _write_guard(out):
        pipeline.write_map_csv(result, out, comments)
    if cfg.get("el_series"):
        with _write_guard(cfg["el_series"]):
            pipeline.write_elevation_series_csv(result, Path(cfg["el_series"]), comments)
    n_valid = int(np.count_nonzero(result.valid))
    print(
        f"wrote {out}: {result.total_windows} windows, {n_valid} valid, "
        f"{len(result.degenerate_windows)} degenerate"
    )
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    """run the benchmark grid on simulated records"""
    cfg = merge_config(args)
    out = Path(_require(cfg, "output"))
    n_records = cfg.get("records", 2)
    n_windows = cfg.get("record_windows", 120)
    base, dt = _pipeline_config(cfg, default_hop=16, n_windows=n_windows)
    seed = cfg.get("seed", 0)
    # channels carry noise by default: threshold-based denoisers are only
    # meaningful (and only well-behaved) on noisy inputs
    snr_db = cfg.get("snr_db", 20.0)
    with _config_guard():  # nothing is synthesized for a bad setting
        if n_records < 1:
            raise ValueError(f"record count must be at least 1, got {n_records}")
        simulate.snr_power_ratio(snr_db)
        length = (n_windows - 1) * base.plan.hop + base.plan.window_length
        for filter_id, method in itertools.product(evaluate.FILTERS, evaluate.METHODS):
            replace(base, filter_spec=parse_filter_spec(filter_id), cc_method=method).check_record(dt, length)
        # record 0 is the record `simulate` writes with the same seed,
        # window, hop and snr, so a bench cell can be cross-checked
        # against a mapped record.  Track 0 takes `seed` and every later
        # seed is larger, so a seed NumPy rejects fails here, not below.
        tracks = [
            simulate.make_track(
                "random-walk", n_windows, seed=seed + 101 * ri,
                az0=120.0 + 40.0 * ri, el0=45.0 + 5.0 * ri,
                window_length=base.plan.window_length, hop=base.plan.hop,
            )
            for ri in range(n_records)
        ]
    datasets = [simulate.simulate_record(track, base.geometry, dt, seed + 7 * ri, seed + ri, snr_db)
                for ri, track in enumerate(tracks)]
    cells = evaluate.run_benchmark(datasets, base)
    with _write_guard(out):
        evaluate.emit_report_csv(cells, out, _config_comments(cfg))
    if cfg.get("markdown"):
        with _write_guard(cfg["markdown"]):
            evaluate.emit_report_markdown(cells, Path(cfg["markdown"]))
    scored = [c for c in cells if np.isfinite(c.mean_dist_deg)]
    best = min(scored, key=lambda c: c.mean_dist_deg) if scored else None
    summary = (f"best {best.filter_id}/{best.method}/{best.interp_method} x{best.factor} "
               f"= {best.mean_dist_deg:.2f} deg") if best else "no cell was scored"
    print(f"wrote {out}: {len(cells)} cells; {summary}")
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


# the characters a file name may hold that XML text must escape; not
# `html.escape`, whose module loads a 2,000-entry table on every command
_XML_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def render_map_svg(index: np.ndarray, az_deg: np.ndarray, el_deg: np.ndarray, path: Path, title: str = "") -> Path:
    """Scatter of the windows `index` at (azimuth, elevation), colored by
    window order."""
    if not len(index):
        raise CliError("no valid windows to plot", EXIT_PROCESS)
    width, height, margin = 640, 480, 50
    lo, hi = int(index.min()), int(index.max())
    span = max(hi - lo, 1)

    def sx(az):
        return margin + (az / 360.0) * (width - 2 * margin)

    def sy(el):
        return height - margin - (el / 90.0) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.0f}" y="20" text-anchor="middle" font-size="14">{title.translate(_XML_TEXT_ESCAPES)}</text>',
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
    for i, az, el in zip(index.tolist(), az_deg.tolist(), el_deg.tolist()):
        parts.append(
            f'<circle cx="{sx(az):.2f}" cy="{sy(el):.2f}" r="3" fill="{_color((i-lo)/span)}" fill-opacity="0.8"/>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")
    return path


def cmd_plot(args: argparse.Namespace) -> int:
    """render a map CSV as an SVG scatter"""
    cfg = merge_config(args)
    inp = Path(_require(cfg, "input"))
    out = Path(_require(cfg, "output"))
    if not inp.exists():
        raise CliError(f"input not found: {inp}", EXIT_INPUT)
    try:
        index, az, el, _peak, valid = pipeline.read_map_csv(inp)
    except (OSError, ValueError, OverflowError) as exc:  # OverflowError: an index beyond int64
        raise CliError(f"cannot parse map CSV {inp}: {exc}", EXIT_INPUT) from exc
    with _write_guard(out):
        render_map_svg(index[valid], az[valid], el[valid], out, title=inp.name)
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
