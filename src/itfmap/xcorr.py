"""Per-window time-difference estimation by normalized cross-correlation.

Three routes to the same lag axis: direct time-domain (`cc_time`), conjugate
spectral product (`cc_freq`) and undecimated-wavelet-domain (`cc_wavelet`).
`peak_neighborhoods` and `refine_peaks` find and interpolate the peaks of
many series at once (`refine_peak` is the one-series form); `lag_to_tdoa`
converts lags to seconds and phase.

Sign convention, fixed project-wide: a positive lag means the second input
is delayed relative to the first.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import pi

import numpy as np
from scipy.interpolate import CubicSpline

from itfmap._core import correlate_full
from itfmap import wavelets
from itfmap.wavelets import WaveletBasis

CENTER_FREQUENCY = 60e6          # Hz, band center used for phase readout
DEFAULT_SIGNAL_BAND = (40e6, 80e6)
DEFAULT_CCWD_LEVELS = 2
INTERP_NEIGHBORHOOD = 8          # integer lags kept on each side of the peak
REFINE_BATCH_ROWS = 256          # rows resampled together: bounds the dense-grid temporaries

BASELINE_BC = "BC"
BASELINE_BD = "BD"


class DegenerateWindowError(ValueError):
    """Correlation requested on a zero-variance (flagged constant) segment."""


@dataclass(frozen=True)
class CorrelationSeries:
    """Normalized correlation coefficients over lags -(W-1) .. +(W-1)."""

    lags: np.ndarray
    coefficients: np.ndarray

    def peak(self) -> tuple[int, float]:
        """(integer lag, coefficient) of the maximum; ties -> smallest |lag|."""
        i = _argmax_nearest_zero(self.coefficients[None, :], self.lags)[0]
        return int(self.lags[i]), float(self.coefficients[i])


@dataclass(frozen=True)
class InterpSpec:
    """Peak refinement: method in {none, linear, cubic}, factor in {1,2,4,8}."""

    method: str = "none"
    factor: int = 1

    def __post_init__(self):
        if self.method not in ("none", "linear", "cubic"):
            raise ValueError(f"unknown interpolation method {self.method!r}")
        if self.factor not in (1, 2, 4, 8):
            raise ValueError(f"interpolation factor must be 1, 2, 4 or 8, got {self.factor}")

    @classmethod
    def parse(cls, text: str) -> "InterpSpec":
        """Parse ``none`` or ``<method>:<factor>`` (e.g. ``cubic:8``)."""
        t = text.strip().lower()
        if t in ("none", "", "1"):
            return cls()
        if ":" not in t:
            raise ValueError(f"bad interpolation selector {text!r}")
        method, factor = t.split(":", 1)
        return cls(method=method, factor=int(factor))

    def label(self) -> str:
        return "none" if self.method == "none" or self.factor == 1 else f"{self.method}:{self.factor}"


@dataclass(frozen=True)
class TdoaEstimate:
    """One baseline's per-window result: fractional lag, seconds, phase."""

    window_index: int
    baseline: str
    lag_samples: float
    tau_s: float
    peak_coefficient: float
    phase_rad: float


def _validated(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("expected two equal-length 1-D segments")
    if len(x) < 2:
        raise ValueError("segments must have at least 2 samples")
    denom = float(np.linalg.norm(x) * np.linalg.norm(y))
    if denom == 0.0:
        raise DegenerateWindowError("zero-variance segment has no correlation")
    return x, y, denom


def _lag_axis(n: int) -> np.ndarray:
    return np.arange(-(n - 1), n)


def cc_time(x: np.ndarray, y: np.ndarray) -> CorrelationSeries:
    """Direct sliding-dot-product correlation, normalized by ||x|| ||y||."""
    x, y, denom = _validated(x, y)
    return CorrelationSeries(_lag_axis(len(x)), correlate_full(x, y) / denom)


def cc_freq(x: np.ndarray, y: np.ndarray) -> CorrelationSeries:
    """Same contract as `cc_time`, via inverse transform of conj(X) * Y with
    zero padding to at least 2W-1 points."""
    x, y, denom = _validated(x, y)
    n = len(x)
    m = 1 << int(np.ceil(np.log2(2 * n - 1)))
    spec = np.conj(np.fft.rfft(x, m)) * np.fft.rfft(y, m)
    c = np.fft.irfft(spec, m)
    coeff = np.concatenate([c[m - (n - 1):], c[:n]]) / denom
    return CorrelationSeries(_lag_axis(n), coeff)


def cc_wavelet(
    x: np.ndarray,
    y: np.ndarray,
    basis: WaveletBasis,
    levels: int = DEFAULT_CCWD_LEVELS,
    dt: float = 4e-9,
    band: tuple[float, float] = DEFAULT_SIGNAL_BAND,
) -> CorrelationSeries:
    """Wavelet-domain correlation on the undecimated decomposition.

    Both segments are decomposed with the shift-invariant transform; the
    detail sequences of every level whose octave intersects `band` are
    cross-correlated and the normalized per-level series are averaged with
    weights given by the geometric mean of the two segments' level energies.
    """
    x, y, _ = _validated(x, y)
    selected = wavelets.levels_in_band(levels, dt, band)
    if not selected:
        raise ValueError(
            f"no decomposition level of {levels} intersects band {band} at dt={dt}"
        )
    wx = wavelets.modwt(x, basis, levels)
    wy = wavelets.modwt(y, basis, levels)
    acc = np.zeros(2 * len(x) - 1)
    wsum = 0.0
    for j in selected:
        dxj, dyj = wx[j - 1], wy[j - 1]
        ex = float(np.dot(dxj, dxj))
        ey = float(np.dot(dyj, dyj))
        if ex == 0.0 or ey == 0.0:
            continue
        weight = np.sqrt(ex * ey)
        acc += weight * (correlate_full(dxj, dyj) / np.sqrt(ex * ey))
        wsum += weight
    if wsum == 0.0:
        raise DegenerateWindowError("no detail energy in the selected levels")
    return CorrelationSeries(_lag_axis(len(x)), acc / wsum)


def _argmax_nearest_zero(curves: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """Column of each row's maximum in `curves`, where `lags` (one row, or one
    per curve) holds each column's lag: among equal maxima the smallest |lag|
    wins, and of a +-k pair the negative one."""
    at_max = curves == curves.max(axis=1, keepdims=True)
    return np.argmin(np.where(at_max, np.abs(lags), np.inf), axis=1)


@dataclass(frozen=True)
class PeakNeighborhoods:
    """Integer peaks of correlation series over lags -max_lag .. +max_lag, one
    row per series, each with its coefficients at lags peak-8 .. peak+8 (NaN
    past either end of the lag axis): all that peak refinement reads."""

    max_lag: int
    lag: np.ndarray
    coefficient: np.ndarray
    neighborhood: np.ndarray


def peak_neighborhoods(coefficients: np.ndarray) -> PeakNeighborhoods:
    """Integer peak (ties -> smallest |lag|) and neighborhood of every row of
    `coefficients`, an (n, 2L+1) array of series over lags -L .. +L."""
    c = np.atleast_2d(coefficients)
    max_lag, n, rows = (c.shape[1] - 1) // 2, INTERP_NEIGHBORHOOD, np.arange(len(c))
    i = _argmax_nearest_zero(c, np.arange(-max_lag, max_lag + 1))
    nan = np.full((len(c), n), np.nan)
    around = np.hstack([nan, c, nan])[rows[:, None], i[:, None] + np.arange(2 * n + 1)]
    return PeakNeighborhoods(max_lag, i - max_lag, c[rows, i], around)


def _resample(method: str, vals: np.ndarray, first: int, last: int, factor: int) -> np.ndarray:
    """Rows of `vals`, sampled at integer offsets first .. last, resampled at
    offsets first + k/factor."""
    k = np.arange((last - first) * factor + 1)
    if method == "cubic":
        knots = np.arange(first, last + 1, dtype=np.float64)
        return CubicSpline(knots, vals, axis=1)(first + k / factor)
    # np.interp's arithmetic: slope * (x - x_j) + y_j, with unit knot spacing
    slopes = np.diff(vals, axis=1, append=vals[:, -1:])
    j, r = np.divmod(k, factor)
    return vals[:, j] + slopes[:, j] * (r / factor)


def refine_peaks(peaks: PeakNeighborhoods, interps: Sequence[InterpSpec]) -> list[np.ndarray]:
    """Fractional-lag peak locations of every row of `peaks`, one array per
    spec in `interps` (see `refine_peak`).

    Each method is resampled once, on the grid of its largest requested
    factor; a smaller factor's curve is a slice of that grid, with the same
    values because the grid points are dyadic.  Rows whose neighborhood lies
    inside the lag axis are resampled together, `REFINE_BATCH_ROWS` at a
    time; a row clipped at either end of the axis is resampled alone over the
    lags it has.
    """
    out = [peaks.lag.astype(np.float64) for _ in interps]
    finest: dict[str, int] = {}
    for spec in interps:
        if spec.method != "none" and spec.factor > 1:
            finest[spec.method] = max(spec.factor, finest.get(spec.method, 1))
    if not finest:
        return out
    n = INTERP_NEIGHBORHOOD
    lo = np.maximum(peaks.lag - n, -peaks.max_lag)
    hi = np.minimum(peaks.lag + n, peaks.max_lag)
    clipped = hi - lo < 2 * n
    inside = np.flatnonzero(~clipped)
    groups = [inside[k : k + REFINE_BATCH_ROWS] for k in range(0, len(inside), REFINE_BATCH_ROWS)]
    for rows in groups + [[i] for i in np.flatnonzero(clipped)]:
        first, last = lo[rows[0]] - peaks.lag[rows[0]], hi[rows[0]] - peaks.lag[rows[0]]
        if first == last:
            continue  # one-lag axis: nothing to resample
        vals = peaks.neighborhood[rows, first + n : last + n + 1]
        for method, top in finest.items():
            curve = _resample(method, vals, first, last, top)
            for spec, lags in zip(interps, out):
                if spec.method == method and spec.factor > 1:
                    dense = lo[rows][:, None] + np.arange((last - first) * spec.factor + 1) / spec.factor
                    best = _argmax_nearest_zero(curve[:, :: top // spec.factor], dense)
                    lags[rows] = dense[np.arange(len(rows)), best]
    return out


def refine_peak(series: CorrelationSeries, interp: InterpSpec) -> float:
    """Fractional-lag peak location.

    Finds the integer argmax (ties toward smallest |lag|), then resamples the
    +-8-lag neighborhood at `factor` times density with the chosen method and
    returns the argmax of the resampled curve (same tie break).  Factor 1 or
    method ``none`` return the integer peak.  A one-row `refine_peaks`.
    """
    if len(series.coefficients) == 0:
        raise ValueError("empty correlation series")
    return float(refine_peaks(peak_neighborhoods(series.coefficients), [interp])[0][0])


def lag_to_tdoa(lag_samples: float, dt: float, f: float = CENTER_FREQUENCY) -> tuple[float, float]:
    """(tau seconds, phase radians) for a fractional sample lag.

    tau = lag * dt and phase = 2 pi f tau at band-center frequency f.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if f <= 0:
        raise ValueError("f must be > 0")
    tau = lag_samples * dt
    return tau, 2.0 * pi * f * tau


CC_METHODS = ("cctd", "ccfd", "ccwd")


def correlate(
    x: np.ndarray,
    y: np.ndarray,
    method: str,
    basis: WaveletBasis | None = None,
    levels: int = DEFAULT_CCWD_LEVELS,
    dt: float = 4e-9,
    band: tuple[float, float] = DEFAULT_SIGNAL_BAND,
) -> CorrelationSeries:
    """Method-string dispatch (``cctd`` | ``ccfd`` | ``ccwd``)."""
    if method == "cctd":
        return cc_time(x, y)
    if method == "ccfd":
        return cc_freq(x, y)
    if method == "ccwd":
        if basis is None:
            basis = wavelets.get_basis("sym4")
        return cc_wavelet(x, y, basis, levels=levels, dt=dt, band=band)
    raise ValueError(f"unknown correlation method {method!r}")
