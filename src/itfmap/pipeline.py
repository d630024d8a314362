"""The per-record mapping chain: denoise, window, correlate both baselines,
refine peaks, convert to delays, solve geometry.

Shared by the CLI ``map`` command and the benchmark sweep so both score the
same code path.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from itfmap import denoise, xcorr
from itfmap.geometry import ArrayGeometry, direction_from_tdoa
from itfmap.signals import SampleRecord, SegmentationPlan, Window, normalize_segments, read_table, write_table
# the one-window forms of what `window_peaks` does a block at a time;
# perfbench's tracer expects them bound here
from itfmap.signals import normalize_window, segment  # noqa: F401
from itfmap.simulate import AngleTrack
from itfmap.xcorr import CorrelationSeries, InterpSpec

WINDOW_CHUNK = 32  # windows normalized and correlated together: bounds the block temporaries


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one mapping run needs besides the record itself.

    `filter_spec` is a filter selector as `denoise.parse_filter_spec`
    returns it: lower-cased, or None for no filter.  ccwd always runs on
    sym4 with `xcorr.DEFAULT_CCWD_LEVELS` undecimated levels, so it needs
    windows of at least 2**levels samples.
    """

    filter_spec: str | None = None
    cc_method: str = "cctd"
    interp: InterpSpec = field(default_factory=InterpSpec)
    plan: SegmentationPlan = field(default_factory=SegmentationPlan)
    geometry: ArrayGeometry = field(default_factory=ArrayGeometry)

    def __post_init__(self):
        if self.filter_spec is not None and denoise.parse_filter_spec(self.filter_spec) != self.filter_spec:
            raise ValueError(f"not a parsed filter selector: {self.filter_spec!r}")
        if self.cc_method not in xcorr.CC_METHODS:
            raise ValueError(f"unknown correlation method {self.cc_method!r}")
        min_window = 2**xcorr.DEFAULT_CCWD_LEVELS
        if self.cc_method == "ccwd" and self.plan.window_length < min_window:
            raise ValueError(
                f"ccwd needs a window of at least {min_window} samples for its "
                f"{xcorr.DEFAULT_CCWD_LEVELS} levels, got {self.plan.window_length}"
            )

    def check_record(self, dt: float, length: int | None = None) -> None:
        """Raise ValueError when the filter or the correlation method cannot
        run on a record sampled every `dt` seconds (and `length` samples
        long, when given)."""
        denoise.check_input(self.filter_spec, dt, length)
        if self.cc_method == "ccwd":
            xcorr.band_levels(dt)


@dataclass
class MapResult:
    """Directions of the correlated windows, in window order, plus the
    per-window bookkeeping the scorer needs.  A gate-failed window is not
    `valid` and has NaN angles."""

    window_index: np.ndarray
    az_deg: np.ndarray
    el_deg: np.ndarray
    valid: np.ndarray
    peak_coefficient: np.ndarray
    degenerate_windows: np.ndarray
    total_windows: int
    sample_interval: float
    hop: int
    window_length: int

    def track(self) -> AngleTrack:
        """Estimated AngleTrack over all windows; gate-failed and degenerate
        windows are marked invalid (angles present as zeros, claims carried
        by the mask)."""
        n = self.total_windows
        az, el, valid = np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool)
        rows = self.window_index[self.valid]
        az[rows], el[rows], valid[rows] = self.az_deg[self.valid], self.el_deg[self.valid], True
        return AngleTrack(az, el, window_length=self.window_length, hop=self.hop, valid=valid)


def denoise_record(record: SampleRecord, spec: str | None) -> SampleRecord:
    """Apply one filter spec to all three channels (before segmentation).

    Non-finite samples (capture dropouts) are filtered as zeros and written
    back as NaN afterwards, so only the windows that cover one turn
    degenerate instead of the filter spreading it through the record.  A
    constant channel passes unfiltered: rounding residue would pass the degenerate check.
    """
    if spec is None:
        return record
    channels = record.channels
    bad = None
    if not np.isfinite(channels).all():
        bad = ~np.isfinite(channels)
        channels = np.where(bad, 0.0, channels)
    filtered = np.vstack([
        ch if len(ch) and ch.min() == ch.max() else denoise.apply_filter(ch, spec, record.sample_interval)
        for ch in channels])
    if bad is not None:
        filtered[bad] = np.nan
    return SampleRecord(filtered, record.sample_interval, record.label)


def correlate_window(window: Window, method: str, dt: float) -> tuple[CorrelationSeries, CorrelationSeries] | None:
    """(BC, BD) correlation series for one normalized window by `method`, or
    None when any needed channel is degenerate."""
    if any(window.degenerate):
        return None
    bc, bd = xcorr.correlate_block(window.segments[:, None], method, dt)[0]
    lags = np.arange(1 - window.length, window.length)
    return CorrelationSeries(lags, bc), CorrelationSeries(lags, bd)


@dataclass(frozen=True)
class WindowPeaks:
    """Correlation peaks of a record's windows on both baselines: the rows of
    `peaks` are BC, BD, BC, BD, ... for the windows in `index`, cut by
    `plan` from a record sampled every `sample_interval` seconds."""

    index: np.ndarray
    degenerate: np.ndarray
    total_windows: int
    peaks: xcorr.PeakNeighborhoods
    plan: SegmentationPlan
    sample_interval: float


def window_peaks(record: SampleRecord, plan: SegmentationPlan, methods: Sequence[str]) -> dict[str, WindowPeaks]:
    """Normalize the record's windows and correlate them on both baselines
    by each of `methods`, `WINDOW_CHUNK` windows at a time, keeping only
    each series' integer peak and neighborhood: memory holds one block,
    never all the windows."""
    w, hop, total = plan.window_length, plan.hop, plan.count(record.length)
    dt = record.sample_interval
    views = sliding_window_view(record.channels, w, axis=1)[:, ::hop]
    lost = np.zeros(total, dtype=bool)
    parts = {m: [xcorr.peak_neighborhoods(np.empty((0, 2 * w - 1)))] for m in methods}
    for start in range(0, total, WINDOW_CHUNK):
        raw = views[:, start : start + WINDOW_CHUNK]
        block = raw.copy()
        degenerate, peaks = normalize_segments(block)
        bad = degenerate.any(axis=0)
        lost[start : start + WINDOW_CHUNK] = bad
        if bad.all():
            continue
        keep = ~bad if bad.any() else slice(None)
        good = block[:, keep]
        for m, found in parts.items():
            details = None
            if m == "ccwd":
                # one transform of the raw samples the windows cover: the span
                # they lie in when they overlap, else the windows themselves
                stop = start * hop + (raw.shape[1] - 1) * hop + w
                source = record.channels[:, start * hop : stop] if hop < w else raw
                details = [d[:, keep] for d in xcorr.wavelet_details(source, min(hop, w), block, peaks, dt)]
            coeff = xcorr.correlate_block(good, m, dt, details)
            found.append(xcorr.peak_neighborhoods(coeff.reshape(-1, 2 * w - 1)))
    fields = ("lag", "neighborhood")
    return {
        m: WindowPeaks(np.flatnonzero(~lost), np.flatnonzero(lost), total, xcorr.PeakNeighborhoods(
            w - 1, *(np.concatenate([getattr(p, f) for p in found]) for f in fields)), plan, dt)
        for m, found in parts.items()
    }


def solve_directions(wp: WindowPeaks, lags: Sequence[np.ndarray], geometry: ArrayGeometry) -> list[MapResult]:
    """Directions of the correlated windows, one result per array in `lags`:
    refined peak lags in the row order of `wp.peaks`, on the grid and
    sample interval of `wp`.  `direction_from_tdoa` runs once per distinct
    (BC, BD) lag pair over all of them."""
    dt = wp.sample_interval
    pairs, inverse = np.unique(np.reshape(lags, (-1, 2)), axis=0, return_inverse=True)
    solved = [direction_from_tdoa(bc * dt, bd * dt, geometry) for bc, bd in pairs.tolist()]
    valid = np.array([e.valid for e in solved], dtype=bool)
    angles = np.array([(e.az_deg, e.el_deg) for e in solved], dtype=np.float64).reshape(-1, 2)  # None -> NaN
    peak_bc, peak_bd = wp.peaks.coefficient.reshape(-1, 2).T
    peak = np.where(peak_bd < peak_bc, peak_bd, peak_bc)  # min(peak_bc, peak_bd), ties to BC
    return [
        MapResult(wp.index, *angles[rows].T, valid[rows], peak, wp.degenerate, wp.total_windows, dt,
                  wp.plan.hop, wp.plan.window_length)
        for rows in inverse.reshape(len(lags), -1)
    ]


def map_record(record: SampleRecord, config: PipelineConfig) -> MapResult:
    """Run the full chain on one record."""
    method = config.cc_method
    wp = window_peaks(denoise_record(record, config.filter_spec), config.plan, [method])[method]
    return solve_directions(wp, xcorr.refine_peaks(wp.peaks, [config.interp]), config.geometry)[0]


# ----------------------------------------------------------------------
# Map CSV (window_index,time_s,azimuth_deg,elevation_deg,peak_coeff,valid)
# ----------------------------------------------------------------------

MAP_CSV_HEADER = "window_index,time_s,azimuth_deg,elevation_deg,peak_coeff,valid"


def write_map_csv(result: MapResult, path: str | Path, header_comments: Sequence[str] = ()) -> Path:
    """One row per non-degenerate window, ordered by window index.

    Invalid (gate-failed) rows keep their index and peak but leave the angle
    fields empty, so the file never carries NaN angles.
    """
    columns = (result.window_index, result.az_deg, result.el_deg, result.peak_coefficient, result.valid)
    rows = (
        f"{i},{float(i * result.hop * result.sample_interval)!r},{f'{az!r},{el!r}' if ok else ','},{peak!r},{int(ok)}"
        for i, az, el, peak, ok in zip(*(c.tolist() for c in columns))
    )
    return write_table(path, MAP_CSV_HEADER, rows, header_comments)


def read_map_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The columns `write_map_csv` writes from: window index, azimuth,
    elevation (NaN on invalid rows), peak coefficient and valid.

    ValueError when `signals.read_table` rejects the file, a number field
    does not parse, a valid field is not 0 or 1, or a valid row's angles are
    not finite and in [0, 360] x [0, 90] (a tiny negative azimuth wraps to
    360.0, so 360 is accepted).
    """
    index, time, az, el, peak, valid = np.array(read_table(path, MAP_CSV_HEADER), dtype=str).reshape(-1, 6).T
    time.astype(np.float64)  # parsed only to reject a non-number: the index gives the time
    if not np.isin(valid, ("0", "1")).all():
        raise ValueError("a valid field is not 0 or 1")
    valid = valid == "1"
    az, el = (np.where(valid, a, "nan").astype(np.float64) for a in (az, el))
    if not ((0 <= az) & (az <= 360) & (0 <= el) & (el <= 90))[valid].all():
        raise ValueError("a valid row's angles are not finite and in [0, 360] x [0, 90]")
    return index.astype(np.int64), az, el, peak.astype(np.float64), valid


def write_elevation_series_csv(result: MapResult, path: str | Path, header_comments: Sequence[str] = ()) -> Path:
    """Elevation-vs-time series of the valid windows (one row per window)."""
    rows = (
        f"{i},{float(i * result.hop * result.sample_interval)!r},{el!r}"
        for i, el in zip(result.window_index[result.valid].tolist(), result.el_deg[result.valid].tolist())
    )
    return write_table(path, "window_index,time_s,elevation_deg", rows, header_comments)
