"""The per-record mapping chain: denoise, window, correlate both baselines,
refine peaks, convert to delays, solve geometry.

Shared by the CLI ``map`` command and the benchmark sweep so both score the
same code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from itfmap import denoise, wavelets, xcorr
from itfmap.denoise import FilterSpec
from itfmap.geometry import ArrayGeometry, DirectionEstimate, direction_from_tdoa
from itfmap.signals import SampleRecord, SegmentationPlan, Window, normalize_window, segment
from itfmap.simulate import AngleTrack
from itfmap.xcorr import CorrelationSeries, InterpSpec, TdoaEstimate


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one mapping run needs besides the record itself."""

    filter_spec: FilterSpec = None
    cc_method: str = "cctd"
    interp: InterpSpec = field(default_factory=InterpSpec)
    plan: SegmentationPlan = field(default_factory=SegmentationPlan)
    geometry: ArrayGeometry = field(default_factory=ArrayGeometry)
    ccwd_basis: str = "sym4"
    ccwd_levels: int = xcorr.DEFAULT_CCWD_LEVELS
    signal_band: tuple[float, float] = xcorr.DEFAULT_SIGNAL_BAND
    center_frequency: float = xcorr.CENTER_FREQUENCY

    def __post_init__(self):
        if self.cc_method not in xcorr.CC_METHODS:
            raise ValueError(f"unknown correlation method {self.cc_method!r}")


@dataclass
class MapResult:
    """Direction estimates plus the per-window bookkeeping the scorer needs."""

    estimates: list[DirectionEstimate]
    tdoas: list[tuple[TdoaEstimate, TdoaEstimate]]
    degenerate_windows: list[int]
    total_windows: int
    sample_interval: float
    hop: int
    window_length: int

    def track(self) -> AngleTrack:
        """Estimated AngleTrack over all windows; gate-failed and degenerate
        windows are marked invalid (angles present as zeros, claims carried
        by the mask)."""
        n = self.total_windows
        az = np.zeros(n)
        el = np.zeros(n)
        valid = np.zeros(n, dtype=bool)
        for est in self.estimates:
            if est.valid:
                az[est.window_index] = est.az_deg
                el[est.window_index] = est.el_deg
                valid[est.window_index] = True
        return AngleTrack(az, el, window_length=self.window_length, hop=self.hop, valid=valid)


def denoise_record(record: SampleRecord, spec: FilterSpec) -> SampleRecord:
    """Apply one filter spec to all three channels (before segmentation)."""
    if spec is None:
        return record
    chans = [denoise.apply_filter(record.channels[i], spec, record.sample_interval) for i in range(3)]
    return SampleRecord(np.vstack(chans), record.sample_interval, record.label)


def correlate_window(
    window: Window,
    config: PipelineConfig,
    dt: float,
) -> tuple[CorrelationSeries, CorrelationSeries] | None:
    """(BC, BD) correlation series for one normalized window, or None when
    any needed channel is degenerate."""
    if any(window.degenerate):
        return None
    b, c, d = window.segments
    basis = wavelets.get_basis(config.ccwd_basis) if config.cc_method == "ccwd" else None
    kw = dict(
        method=config.cc_method,
        basis=basis,
        levels=config.ccwd_levels,
        dt=dt,
        band=config.signal_band,
    )
    return xcorr.correlate(b, c, **kw), xcorr.correlate(b, d, **kw)


@dataclass(frozen=True)
class WindowPeaks:
    """Correlation peaks of a record's windows on both baselines: the rows of
    `peaks` are BC, BD, BC, BD, ... for the windows in `index`."""

    index: list[int]
    degenerate: list[int]
    total_windows: int
    peaks: xcorr.PeakNeighborhoods


def window_peaks(windows: list[Window], config: PipelineConfig, dt: float) -> WindowPeaks:
    """Correlate every window on both baselines, keeping only each series'
    integer peak and neighborhood, never all the full series at once."""
    rows = 2 * len(windows)
    lag = np.zeros(rows, dtype=np.int64)
    coefficient = np.zeros(rows)
    neighborhood = np.zeros((rows, 2 * xcorr.INTERP_NEIGHBORHOOD + 1))
    index: list[int] = []
    degenerate: list[int] = []
    for win in windows:
        pair = correlate_window(win, config, dt)
        if pair is None:
            degenerate.append(win.index)
            continue
        p = xcorr.peak_neighborhoods(np.vstack([s.coefficients for s in pair]))
        k = slice(2 * len(index), 2 * len(index) + 2)
        lag[k], coefficient[k], neighborhood[k] = p.lag, p.coefficient, p.neighborhood
        index.append(win.index)
    n = 2 * len(index)
    peaks = xcorr.PeakNeighborhoods(config.plan.window_length - 1, lag[:n], coefficient[:n], neighborhood[:n])
    return WindowPeaks(index, degenerate, len(windows), peaks)


def solve_directions(wp: WindowPeaks, lags: np.ndarray, config: PipelineConfig, dt: float) -> MapResult:
    """Delays and directions of the correlated windows, from `lags`: the
    refined peak lags in the row order of `wp.peaks`."""
    estimates: list[DirectionEstimate] = []
    tdoas: list[tuple[TdoaEstimate, TdoaEstimate]] = []
    coeffs = wp.peaks.coefficient.reshape(-1, 2).tolist()
    for idx, (lag_bc, lag_bd), (peak_bc, peak_bd) in zip(wp.index, lags.reshape(-1, 2).tolist(), coeffs):
        tau1, phase1 = xcorr.lag_to_tdoa(lag_bc, dt, config.center_frequency)
        tau2, phase2 = xcorr.lag_to_tdoa(lag_bd, dt, config.center_frequency)
        tdoas.append((
            TdoaEstimate(idx, xcorr.BASELINE_BC, lag_bc, tau1, peak_bc, phase1),
            TdoaEstimate(idx, xcorr.BASELINE_BD, lag_bd, tau2, peak_bd, phase2),
        ))
        estimates.append(direction_from_tdoa(
            tau1, tau2, config.geometry, window_index=idx, peak_coefficient=min(peak_bc, peak_bd)
        ))
    return MapResult(estimates, tdoas, wp.degenerate, wp.total_windows, dt, config.plan.hop, config.plan.window_length)


def map_record(record: SampleRecord, config: PipelineConfig) -> MapResult:
    """Run the full chain on one record."""
    filtered = denoise_record(record, config.filter_spec)
    dt = record.sample_interval
    # the normalized windows are freed once correlated, before refinement
    wp = window_peaks([normalize_window(w) for w in segment(filtered, config.plan)], config, dt)
    (lags,) = xcorr.refine_peaks(wp.peaks, [config.interp])
    return solve_directions(wp, lags, config, dt)


# ----------------------------------------------------------------------
# Map CSV (window_index,time_s,azimuth_deg,elevation_deg,peak_coeff,valid)
# ----------------------------------------------------------------------

MAP_CSV_HEADER = "window_index,time_s,azimuth_deg,elevation_deg,peak_coeff,valid"


def write_map_csv(result: MapResult, path: str | Path, header_comments: list[str] | None = None) -> Path:
    """One row per non-degenerate window, ordered by window index.

    Invalid (gate-failed) rows keep their index and peak but leave the angle
    fields empty, so the file never carries NaN angles.
    """
    path = Path(path)
    lines = [f"# {c}" for c in (header_comments or [])]
    lines.append(MAP_CSV_HEADER)
    dt = result.sample_interval
    for est in result.estimates:
        t = float(est.window_index * result.hop * dt)
        if est.valid:
            az, el = f"{float(est.az_deg)!r}", f"{float(est.el_deg)!r}"
        else:
            az, el = "", ""
        lines.append(
            f"{est.window_index},{t!r},{az},{el},{float(est.peak_coefficient)!r},{int(est.valid)}"
        )
    path.write_text("\n".join(lines) + "\n")
    return path


def read_map_csv(path: str | Path) -> list[DirectionEstimate]:
    path = Path(path)
    out: list[DirectionEstimate] = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("window_index"):
            continue
        idx, _t, az, el, peak, valid = line.split(",")
        is_valid = valid == "1"
        out.append(
            DirectionEstimate(
                window_index=int(idx),
                az_deg=float(az) if is_valid else None,
                el_deg=float(el) if is_valid else None,
                valid=is_valid,
                gate_value=float("nan"),
                peak_coefficient=float(peak),
            )
        )
    return out


def write_elevation_series_csv(result: MapResult, path: str | Path, header_comments: list[str] | None = None) -> Path:
    """Elevation-vs-time series of the valid windows (one row per window)."""
    path = Path(path)
    lines = [f"# {c}" for c in (header_comments or [])]
    lines.append("window_index,time_s,elevation_deg")
    dt = result.sample_interval
    for est in result.estimates:
        if est.valid:
            t = float(est.window_index * result.hop * dt)
            lines.append(f"{est.window_index},{t!r},{float(est.el_deg)!r}")
    path.write_text("\n".join(lines) + "\n")
    return path
