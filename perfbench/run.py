#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ``itfmap map`` and ``itfmap bench``.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload map-hop1 --seed 1 --seconds 40 --trace 0

The workload's inputs are made from ``--seed``.  Its operations then run in a
closed loop (one caller, each call after the previous one returns) through
``itfmap.cli.main`` in this process, in rounds, as many as fit in
``--seconds`` (at least one); every operation's output goes through the
workload's gate.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds traced at every layer boundary and reports the
per-layer metrics, including the tracing overhead; the spans are written to
``.perfbench_work/spans/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUPS = 3  # input generations per run; setup_s takes their median


def load_cli():
    """Import ``itfmap.cli`` from this checkout's ``src``; return it with the
    import time."""
    if not (SRC / "itfmap" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no itfmap sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    from itfmap import cli

    import_s = time.perf_counter() - t
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: itfmap was imported from {cli.__file__}, not {SRC}")
    return cli, import_s


def error_gate(workload: str, size: str) -> tuple[dict[str, float], float]:
    """Per-operation reference errors of a workload, and the share by which
    an operation's error may exceed its reference."""
    baseline = json.loads((HERE / "baseline.json").read_text())
    refs = baseline["error_reference_deg"].get(workload, {}).get(size, {})
    return refs, baseline["error_tolerance"]


def rss_mib() -> float:
    """Resident set size of this process now, in MiB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0
    return peak_rss_mib()


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class RoundLog:
    """Per-round wall times and per-operation outcomes."""

    walls: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    op_times: list[tuple[object, float, bool]] = field(default_factory=list)  # (Op, s, traced)
    outcomes: list = field(default_factory=list)


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: list[str]
    bindings: list = field(default_factory=list)


class Runner:
    def __init__(self, cli, workload, log):
        self.cli = cli
        self.wl = workload
        self.log = log  # SpanLog, or None when untraced
        self.bindings: list = []

    @contextlib.contextmanager
    def traced(self, root: str, on: bool):
        if not on:
            yield
            return
        from tracer import Tracing

        with Tracing(self.log) as tracing:
            self.bindings.extend(tracing.installed)
            i = self.log.open(root)
            try:
                yield
            finally:
                self.log.close(i)

    def call(self, argv: list[str]) -> tuple[int | None, str, float]:
        buf = io.StringIO()
        rc = None
        with contextlib.redirect_stdout(buf):
            t = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                rc = exc.code
            except Exception:  # a traceback is a failed operation, not a crashed run
                traceback.print_exc()
            elapsed = time.perf_counter() - t
        return rc, buf.getvalue(), elapsed

    def run_round(self, ops, rounds: RoundLog, traced: bool) -> None:
        wall = 0.0
        with self.traced("round", traced):
            for op in ops:
                op.output.unlink(missing_ok=True)  # so a stale output cannot pass
                gc.collect()
                rc, out, elapsed = self.call(op.argv)
                wall += elapsed
                try:
                    outcome = self.wl.check(op, rc, out)
                except (OSError, ValueError) as exc:
                    from workloads import failed

                    outcome = failed(f"unreadable output: {exc}")
                if not outcome.ok:
                    print(f"FAILED {op.label}: {outcome.reason}", file=sys.stderr)
                rounds.op_times.append((op, elapsed, traced))
                rounds.outcomes.append(outcome)
        rounds.walls.append(wall)
        rounds.traced.append(traced)


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> Result:
    cli, import_s = load_cli()
    import tracer
    import workloads

    wl = workloads.WORKLOADS[workload](size, seed, *error_gate(workload, size))
    workdir = WORK / f"{workload}-{size}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    log = tracer.SpanLog() if trace else None
    runner = Runner(cli, wl, log)
    notes: list[str] = []
    try:
        gen_times, digests = [], []
        for k in range(SETUPS):
            dest = workdir / f"gen{k}"
            with runner.traced("setup", trace), contextlib.redirect_stdout(io.StringIO()):
                t = time.perf_counter()
                files = wl.generate(cli.main, dest)
                gen_times.append(time.perf_counter() - t)
            digests.append([digest(f) for f in files])
        deterministic = all(d == digests[0] for d in digests)
        if not deterministic:
            notes.append("inputs generated twice from one seed differ")
        wl.prepare(workdir / "gen0", workdir)
        for k in range(1, SETUPS):
            shutil.rmtree(workdir / f"gen{k}", ignore_errors=True)
        setup_s = import_s + statistics.median(gen_times)
        since_start = time.perf_counter() - T_START
        rss_setup = rss_mib()

        ops = wl.ops()
        rounds = RoundLog()
        deadline = time.perf_counter() + seconds
        min_rounds = 2 if trace else 1
        took: list[float] = []
        while True:
            # traced runs alternate untraced and traced rounds, untraced first
            t = time.perf_counter()
            runner.run_round(ops, rounds, traced=trace and len(took) % 2 == 1)
            took.append(time.perf_counter() - t)
            # stop before a round that would end after the deadline
            if len(took) >= min_rounds and time.perf_counter() + statistics.median(took) > deadline:
                break

        outcomes = rounds.outcomes
        failed = sum(not o.ok for o in outcomes)
        quality = scored_quality(outcomes)
        untraced_walls = [w for w, t in zip(rounds.walls, rounds.traced) if not t]
        if trace:
            metrics = layer_metrics(log, rounds, wl, import_s, rss_setup, len(gen_times))
            metrics.update(quality)
            metrics["error_deg"] = (gated_error(rounds, wl.reference), "deg")
            spans_dir = WORK / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            log.save(spans_dir / f"{workload}-{size}-seed{seed}.npz")
        else:
            wall = statistics.median(untraced_walls)
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (wall, "s"),
                "windows_per_s": (wl.windows_per_round / wall, "1/s"),
                "msamples_per_s": (wl.samples_per_round / wall / 1e6, "Msample/s"),
                "peak_rss_mib": (peak_rss_mib(), "MiB"),
            }
            notes.append(f"error_deg {gated_error(rounds, wl.reference)!r} deg")
            notes.extend(f"{k} {v!r} {u}" for k, (v, u) in quality.items())
        notes.append(
            f"{len(rounds.walls)} rounds ({sum(rounds.traced)} traced) of {len(ops)} operations; "
            f"untraced round wall s: median {statistics.median(untraced_walls):.4f}, "
            f"min {min(untraced_walls):.4f}, max {max(untraced_walls):.4f}"
        )
        notes.append(f"process start to first timed operation: {since_start:.4f} s")
        notes.append(f"failed_op_frac {failed / len(outcomes):.6f} frac")
        return Result(deterministic and failed == 0, len(outcomes), failed, metrics, notes, runner.bindings)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def gated_error(rounds: RoundLog, reference: dict[str, float]) -> float:
    """Mean gate error of the operations that have a reference."""
    errors = [
        o.gate_error_deg
        for (op, _, _), o in zip(rounds.op_times, rounds.outcomes)
        if op.label in reference and o.ok and math.isfinite(o.gate_error_deg)
    ]
    return statistics.fmean(errors) if errors else math.nan


def scored_quality(outcomes) -> dict[str, tuple[float, str]]:
    """itfmap's own mean angular error over every scored window of every
    operation (for bench-grid, over the scored cells), and scored windows
    over attempted windows."""
    scored = [o for o in outcomes if o.ok and o.valid and math.isfinite(o.error_deg)]
    weight = sum(o.valid for o in scored)
    mean = sum(o.error_deg * o.valid for o in scored) / weight if weight else math.nan
    windows = sum(o.windows for o in outcomes)
    return {
        "evaluate.error_deg": (mean, "deg"),
        "evaluate.valid_frac": (sum(o.valid for o in outcomes) / max(1, windows), "frac"),
    }


# per-layer metrics reported as absolute time: every workload runs these layers
LAYER_TIMES = (
    "signals.segment",
    "signals.normalize_window",
    "pipeline.denoise_record",
    "xcorr.refine_peak",
    "core.correlate_full",
    "geometry.direction_from_tdoa",
    "evaluate.map_error_stats",
    "simulate.synthesize_record",
    "simulate.add_record_noise",
)
# ... and as a share of the traced round wall time: some workload skips these
LAYER_SHARES = (
    "xcorr.correlate.cctd",
    "xcorr.correlate.ccfd",
    "xcorr.correlate.ccwd",
    "wavelets.modwt",
    "signals.load_record",
    "pipeline.map_record",
    "pipeline.write_map_csv",
    "core.kalman_local_level",
    "wavelets.wavedec",
    "wavelets.waverec",
    "evaluate.run_benchmark",
) + tuple(
    f"denoise.apply_filter.{f}"
    for f in (
        "bpf", "kf",
        "wt-coif5-sure", "wt-coif5-universal", "wt-db10-sure", "wt-db10-universal",
        "wt-fk14-sure", "wt-fk14-universal", "wt-sym4-sure", "wt-sym4-universal",
    )
)
SELF_SHARES = ("pipeline.map_record", "evaluate.run_benchmark")
LAYER_CALLS = (
    "xcorr.refine_peak",
    "xcorr.correlate.cctd",
    "xcorr.correlate.ccfd",
    "xcorr.correlate.ccwd",
    "core.correlate_full",
    "wavelets.modwt",
    "wavelets.get_basis",
    "signals.normalize_window",
    "geometry.direction_from_tdoa",
    "evaluate.map_error_stats",
)
LAYER_COUNTS = (
    ("signals.window_bytes_computed", "bytes"),
    ("geometry.gate_failed", "count"),
    ("pipeline.degenerate_windows", "count"),
)


def layer_metrics(log, rounds: RoundLog, wl, import_s: float, rss_setup: float, n_setups: int):
    """Per-layer metrics of a traced run: layer time per setup plus per
    traced round, calls and counts per traced round."""
    n_rounds = sum(rounds.traced)
    in_round = log.totals("round")
    in_setup = log.totals("setup")

    def per_unit(name: str, k: int) -> float:
        r = in_round.get(name, (0.0, 0.0, 0))[k] / n_rounds
        s = in_setup.get(name, (0.0, 0.0, 0))[k] / n_setups
        return r + s

    traced_wall = in_round["round"][0] / n_rounds
    correlate = [f"xcorr.correlate.{m}" for m in ("cctd", "ccfd", "ccwd")]
    series = sum(per_unit(n, 2) for n in correlate)
    splines = per_unit("xcorr.CubicSpline", 2)
    refines = per_unit("xcorr.refine_peak", 2)

    m: dict[str, tuple[float, str]] = {"cli.import_s": (import_s, "s")}
    for name in LAYER_TIMES:
        m[f"{name}.s"] = (per_unit(name, 0), "s")
    m["xcorr.correlate.s"] = (sum(per_unit(n, 0) for n in correlate), "s")
    for name in LAYER_SHARES:
        m[f"{name}.share"] = (per_unit(name, 0) / traced_wall, "frac")
    for name in SELF_SHARES:
        m[f"{name}.self.share"] = (per_unit(name, 1) / traced_wall, "frac")
    for name in LAYER_CALLS:
        m[f"{name}.calls"] = (per_unit(name, 2), "count")
    m["xcorr.spline_builds"] = (splines, "count")
    m["xcorr.spline_builds_per_series"] = (splines / series if series else 0.0, "ratio")
    m["evaluate.refine_calls_per_series"] = (refines / series if series else 0.0, "ratio")
    for key, unit in LAYER_COUNTS:
        m[key] = (log.counts["round", key] / n_rounds, unit)
    m["evaluate.nan_cells"] = (
        sum(o.nan_cells for o in rounds.outcomes) / len(rounds.walls), "count"
    )
    m["rss_after_setup_mib"] = (rss_setup, "MiB")

    traced_walls = [w for w, t in zip(rounds.walls, rounds.traced) if t]
    plain_walls = [w for w, t in zip(rounds.walls, rounds.traced) if not t]
    plain = statistics.median(plain_walls)
    m["tracing_overhead_frac"] = ((statistics.median(traced_walls) - plain) / plain, "frac")
    # windows/s of the map operations of each method, from the untraced rounds
    for cc in ("cctd", "ccfd", "ccwd"):
        times = [s for op, s, traced in rounds.op_times if not traced and op.cc == cc]
        m[f"{cc}_windows_per_s"] = (wl.map_windows / statistics.median(times) if times else 0.0, "1/s")
    return m


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("map-hop1", "bench-grid", "denoise-long"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs the same operations on small inputs")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    for note in result.notes:
        print(note)
    for name, (value, unit) in result.metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
