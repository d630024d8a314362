"""Scoring and benchmarking: mean angular distance between estimated and
ground-truth maps, and the full filter x correlation x interpolation sweep.

The error metric is the per-window Euclidean distance in degree units,
averaged over the windows both tracks claim; azimuth residuals are wrapped
to (-180, 180] before squaring so the 0/360 seam does not inflate scores.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from itfmap import xcorr
from itfmap.denoise import parse_filter_spec
# direction_from_tdoa, correlate_window, normalize_window and segment are the
# one-window forms of the pipeline stages; perfbench's tracer expects them
# bound here as well
from itfmap.geometry import direction_from_tdoa  # noqa: F401
from itfmap.pipeline import PipelineConfig, correlate_window, denoise_record, solve_directions, window_peaks  # noqa: F401
from itfmap.signals import normalize_window, segment  # noqa: F401
from itfmap.signals import read_table, write_table
from itfmap.simulate import AngleTrack, SimulatedRecord
from itfmap.xcorr import InterpSpec


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
# Benchmark grid
# ----------------------------------------------------------------------

DEFAULT_FILTERS = (
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
DEFAULT_METHODS = ("cctd", "ccfd", "ccwd")
DEFAULT_INTERP_METHODS = ("linear", "cubic")
DEFAULT_FACTORS = (1, 2, 4, 8)


@dataclass(frozen=True)
class BenchmarkGrid:
    """The sweep axes; defaults reproduce the 10 x 3 x 2 x 4 layout."""

    filters: tuple[str, ...] = DEFAULT_FILTERS
    methods: tuple[str, ...] = DEFAULT_METHODS
    interp_methods: tuple[str, ...] = DEFAULT_INTERP_METHODS
    factors: tuple[int, ...] = DEFAULT_FACTORS

    def __post_init__(self):
        if not (self.filters and self.methods and self.interp_methods and self.factors):
            raise ValueError("every grid dimension must be non-empty")

    @property
    def cells(self) -> int:
        return len(self.filters) * len(self.methods) * len(self.interp_methods) * len(self.factors)


@dataclass(frozen=True)
class CellResult:
    filter_id: str
    method: str
    interp_method: str
    factor: int
    mean_dist_deg: float
    records: int
    excluded_windows: int


@dataclass
class ErrorReport:
    grid: BenchmarkGrid
    cells: list[CellResult] = field(default_factory=list)

    def cell(self, filter_id: str, method: str, interp_method: str, factor: int) -> CellResult:
        for c in self.cells:
            if (c.filter_id, c.method, c.interp_method, c.factor) == (
                filter_id,
                method,
                interp_method,
                factor,
            ):
                return c
        raise KeyError((filter_id, method, interp_method, factor))


def run_benchmark(
    grid: BenchmarkGrid,
    datasets: list[SimulatedRecord],
    base_config: PipelineConfig | None = None,
) -> ErrorReport:
    """Score every grid cell on every dataset.

    Per dataset and filter the denoised record is computed once, and its
    windows are normalized once per block for every correlation method; per
    method the eight interpolation variants share the correlation peaks,
    refined together, and one geometry solve per distinct lag pair.  Every
    cell value equals a full independent pipeline run (purity makes the
    caching invisible).
    Distances are averaged per record first, then across records.
    """
    if not datasets:
        raise ValueError("benchmark needs at least one dataset")
    for ds in datasets:
        if ds.truth is None:
            raise ValueError("benchmark datasets must carry ground truth")
    base = base_config or PipelineConfig()
    report = ErrorReport(grid=grid)

    # (interp method, factor) -> spec; every x1 cell is the same spec, the
    # integer peak, so each distinct spec is refined and scored once
    cell_specs = {(im, fa): InterpSpec(method=im, factor=fa) for im in grid.interp_methods for fa in grid.factors}
    specs = list(dict.fromkeys(cell_specs.values()))
    # cell accumulators: (filter, method, imethod, factor) -> per-record stats
    acc: dict[tuple[str, str, str, int], list[ErrorStats]] = {
        (f, m, im, fa): [] for f in grid.filters for m in grid.methods for im, fa in cell_specs
    }

    for ds in datasets:
        dt = ds.record.sample_interval
        for filter_id in grid.filters:
            spec = parse_filter_spec(filter_id)
            peaks = window_peaks(denoise_record(ds.record, spec), base, grid.methods)
            for method, wp in peaks.items():
                scores = {}
                results = solve_directions(wp, xcorr.refine_peaks(wp.peaks, specs), base, dt)
                for interp, result in zip(specs, results):
                    try:
                        scores[interp] = map_error_stats(result.track(), ds.truth)
                    except ValueError:
                        # every window gate-failed for this record: the
                        # cell still reports, with the record unscored
                        scores[interp] = ErrorStats(
                            mean_deg=float("nan"), included=0, excluded=wp.total_windows
                        )
                for (interp_method, factor), interp in cell_specs.items():
                    acc[(filter_id, method, interp_method, factor)].append(scores[interp])

    for (filter_id, method, interp_method, factor), stats_list in acc.items():
        scored = [s.mean_deg for s in stats_list if s.included > 0]
        report.cells.append(
            CellResult(
                filter_id=filter_id,
                method=method,
                interp_method=interp_method,
                factor=factor,
                mean_dist_deg=float(np.mean(scored)) if scored else float("nan"),
                records=len(scored),
                excluded_windows=int(sum(s.excluded for s in stats_list)),
            )
        )
    return report


# ----------------------------------------------------------------------
# Report emission
# ----------------------------------------------------------------------

REPORT_CSV_HEADER = "filter,method,interp,factor,mean_dist_deg,records,excluded_windows"


def emit_report_csv(report: ErrorReport, path: str | Path, header_comments: Sequence[str] = ()) -> Path:
    rows = (
        f"{c.filter_id},{c.method},{c.interp_method},{c.factor},{c.mean_dist_deg:.6f},{c.records},{c.excluded_windows}"
        for c in report.cells
    )
    return write_table(path, REPORT_CSV_HEADER, rows, header_comments)


def emit_report_markdown(report: ErrorReport, path: str | Path) -> Path:
    """Render the sweep in the benchmark-table layout: one row per filter,
    method/interp/factor combinations as columns."""
    path = Path(path)
    grid = report.grid
    cols = [
        (m, im, fa)
        for m in grid.methods
        for im in grid.interp_methods
        for fa in grid.factors
    ]
    head1 = "| filter | " + " | ".join(f"{m.upper()} {im} x{fa}" for m, im, fa in cols) + " |"
    sep = "|" + "---|" * (len(cols) + 1)
    lines = [head1, sep]
    for f in grid.filters:
        row = [f]
        for m, im, fa in cols:
            v = report.cell(f, m, im, fa).mean_dist_deg
            row.append("-" if np.isnan(v) else f"{v:.2f}")
        lines.append("| " + " | ".join(row) + " |")
    path.write_text("\n".join(lines) + "\n")
    return path


def load_report_csv(path: str | Path) -> list[CellResult]:
    return [
        CellResult(f, m, im, int(fa), float(dist), int(recs), int(exc))
        for f, m, im, fa, dist, recs, exc in read_table(path, REPORT_CSV_HEADER)
    ]
