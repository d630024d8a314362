"""Scoring and benchmarking: mean angular distance between estimated and
ground-truth maps, and the full filter x correlation x interpolation sweep.

The error metric is the per-window Euclidean distance in degree units,
averaged over the windows both tracks claim; azimuth residuals are wrapped
to (-180, 180] before squaring so the 0/360 seam does not inflate scores.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from itfmap import xcorr
from itfmap.denoise import parse_filter_spec
# direction_from_tdoa, correlate_window, normalize_window and segment are the
# one-window forms of the pipeline stages; perfbench's tracer expects them
# bound here as well
from itfmap.geometry import direction_from_tdoa  # noqa: F401
from itfmap.pipeline import correlate_window, denoise_record, solve_directions, window_peaks  # noqa: F401
from itfmap.signals import normalize_window, segment  # noqa: F401
from itfmap.geometry import ArrayGeometry
from itfmap.signals import SegmentationPlan, read_table, write_table
from itfmap.simulate import AngleTrack, SimulatedRecord
from itfmap.xcorr import CC_METHODS, InterpSpec


@dataclass(frozen=True)
class ErrorStats:
    """Mean distance plus the pairwise inclusion bookkeeping."""

    mean_deg: float
    included: int
    excluded: int


def wrap_azimuth_residual(delta_deg: np.ndarray) -> np.ndarray:
    """Map raw azimuth differences into (-180, 180]."""
    return 180.0 - (180.0 - np.asarray(delta_deg)) % 360.0


def map_error_stats(estimated: AngleTrack, truth: AngleTrack) -> ErrorStats:
    """Pairwise-aligned scoring; windows invalid on either side are excluded
    (and counted).  Raises when no window is valid on both sides."""
    if len(estimated) != len(truth):
        raise ValueError(
            f"track lengths differ ({len(estimated)} vs {len(truth)}); align windows first"
        )
    both = estimated.valid & truth.valid
    n_total = len(truth)
    n_inc = int(np.count_nonzero(both))
    if n_inc == 0:
        raise ValueError("no overlapping valid windows to score")
    daz = wrap_azimuth_residual(estimated.az_deg[both] - truth.az_deg[both])
    del_ = estimated.el_deg[both] - truth.el_deg[both]
    dist = float(np.mean(np.sqrt(daz**2 + del_**2)))
    return ErrorStats(mean_deg=dist, included=n_inc, excluded=n_total - n_inc)


def map_error(estimated: AngleTrack, truth: AngleTrack) -> float:
    """Mean per-window Euclidean distance in degrees (see `map_error_stats`)."""
    return map_error_stats(estimated, truth).mean_deg


# ----------------------------------------------------------------------
# Benchmark grid: the paper's one fixed comparison, 10 x 3 x 2 x 4 cells
# ----------------------------------------------------------------------

FILTERS = (
    "wt-coif5-sure",
    "wt-coif5-universal",
    "wt-db10-sure",
    "wt-db10-universal",
    "wt-fk14-sure",
    "wt-fk14-universal",
    "wt-sym4-sure",
    "wt-sym4-universal",
    "bpf",
    "kf",
)
INTERP_METHODS = ("linear", "cubic")
FACTORS = (1, 2, 4, 8)


@dataclass(frozen=True)
class CellResult:
    filter_id: str
    method: str
    interp_method: str
    factor: int
    mean_dist_deg: float
    records: int
    excluded_windows: int


def run_benchmark(datasets: list[SimulatedRecord], geometry: ArrayGeometry) -> list[CellResult]:
    """Score every grid cell on every dataset, mapped onto `geometry`; the
    cells come in report order, filter by filter, then method (as
    `xcorr.CC_METHODS`), interpolation method and factor.  Each record is
    windowed as its truth track is, by the track's window length and hop.

    Per dataset and filter the denoised record is computed once, and its
    windows are normalized once per block for every correlation method; per
    method the eight interpolation variants share the correlation peaks,
    refined together, and one geometry solve per distinct lag pair.  Every
    cell value equals a full independent pipeline run (purity makes the
    caching invisible).
    Distances are averaged per record first, then across records; a record
    with no window valid on both sides goes unscored.
    """
    if not datasets:
        raise ValueError("benchmark needs at least one dataset")
    plans = []
    for ds in datasets:
        if ds.truth is None:
            raise ValueError("benchmark datasets must carry ground truth")
        plans.append(SegmentationPlan(ds.truth.window_length, ds.truth.hop))
        n_windows = plans[-1].count(ds.record.length)
        if len(ds.truth) != n_windows:
            raise ValueError(f"ground truth of {len(ds.truth)} windows for a record of {n_windows}")

    # every x1 cell is the same spec, the integer peak, so each distinct spec
    # is refined and scored once
    specs = list(dict.fromkeys(InterpSpec(im, fa) for im in INTERP_METHODS for fa in FACTORS))
    cells = []
    for filter_id in FILTERS:
        spec = parse_filter_spec(filter_id)
        # method -> interp spec -> per-record stats
        stats: dict[str, dict[InterpSpec, list[ErrorStats]]] = {m: {s: [] for s in specs} for m in CC_METHODS}
        for ds, plan in zip(datasets, plans):
            peaks = window_peaks(denoise_record(ds.record, spec), plan, CC_METHODS)
            for method, wp in peaks.items():
                results = solve_directions(wp, xcorr.refine_peaks(wp.peaks, specs), geometry)
                for interp, result in zip(specs, results):
                    try:
                        record_stats = map_error_stats(result.track(), ds.truth)
                    except ValueError:  # no window valid on both sides
                        record_stats = ErrorStats(mean_deg=float("nan"), included=0, excluded=len(ds.truth))
                    stats[method][interp].append(record_stats)
        for method, interp_method, factor in itertools.product(CC_METHODS, INTERP_METHODS, FACTORS):
            per_record = stats[method][InterpSpec(interp_method, factor)]
            scored = [s.mean_deg for s in per_record if s.included > 0]
            cells.append(CellResult(
                filter_id, method, interp_method, factor,
                mean_dist_deg=float(np.mean(scored)) if scored else float("nan"),
                records=len(scored),
                excluded_windows=sum(s.excluded for s in per_record),
            ))
    return cells


# ----------------------------------------------------------------------
# Report emission
# ----------------------------------------------------------------------

REPORT_CSV_HEADER = "filter,method,interp,factor,mean_dist_deg,records,excluded_windows"


def emit_report_csv(cells: Sequence[CellResult], path: str | Path, header_comments: Sequence[str] = ()) -> Path:
    rows = (
        f"{c.filter_id},{c.method},{c.interp_method},{c.factor},{c.mean_dist_deg:.6f},{c.records},{c.excluded_windows}"
        for c in cells
    )
    return write_table(path, REPORT_CSV_HEADER, rows, header_comments)


def emit_report_markdown(cells: Sequence[CellResult], path: str | Path) -> Path:
    """Render `run_benchmark`'s cells in the benchmark-table layout: one row
    per filter, its method/interp/factor combinations as columns."""
    per_filter = len(CC_METHODS) * len(INTERP_METHODS) * len(FACTORS)
    head = [f"{c.method.upper()} {c.interp_method} x{c.factor}" for c in cells[:per_filter]]
    lines = ["| filter | " + " | ".join(head) + " |", "|" + "---|" * (per_filter + 1)]
    for i in range(0, len(cells), per_filter):
        row = [cells[i].filter_id] + ["-" if np.isnan(c.mean_dist_deg) else f"{c.mean_dist_deg:.2f}"
                                      for c in cells[i : i + per_filter]]
        lines.append("| " + " | ".join(row) + " |")
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    return path


def load_report_csv(path: str | Path) -> list[CellResult]:
    return [
        CellResult(f, m, im, int(fa), float(dist), int(recs), int(exc))
        for f, m, im, fa, dist, recs, exc in read_table(path, REPORT_CSV_HEADER)
    ]
