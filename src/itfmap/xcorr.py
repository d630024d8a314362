"""Per-window time-difference estimation by normalized cross-correlation.

Three routes to the same lag axis: direct time-domain (`cc_time`), conjugate
spectral product (`cc_freq`) and undecimated-wavelet-domain (`cc_wavelet`).
`correlate_block` runs them on a block of windows at once; the `cc_*`
functions and `correlate` are its one-pair forms.
`peak_neighborhoods` and `refine_peaks` find and interpolate the peaks of
many series at once (`refine_peak` is the one-series form).

Sign convention, fixed project-wide: a positive lag means the second input
is delayed relative to the first.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from itfmap._core import correlate_full
from itfmap import wavelets
from itfmap.signals import SIGNAL_BAND

CC_METHODS = ("cctd", "ccfd", "ccwd")
DEFAULT_CCWD_LEVELS = 2
_CCWD_FILTERS = wavelets.level_filters(wavelets.get_basis("sym4"), DEFAULT_CCWD_LEVELS)  # built once
INTERP_NEIGHBORHOOD = 8          # integer lags kept on each side of the peak
REFINE_BATCH_ROWS = 256          # rows resampled together: bounds the dense-grid temporaries


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
    """Peak refinement: method in {none, linear, cubic}, factor in {1,2,4,8};
    method ``none`` or factor 1 is stored as ``("none", 1)``."""

    method: str = "none"
    factor: int = 1

    def __post_init__(self):
        if self.method not in ("none", "linear", "cubic"):
            raise ValueError(f"unknown interpolation method {self.method!r}")
        if self.factor not in (1, 2, 4, 8):
            raise ValueError(f"interpolation factor must be 1, 2, 4 or 8, got {self.factor}")
        if self.method == "none" or self.factor == 1:
            object.__setattr__(self, "method", "none")
            object.__setattr__(self, "factor", 1)

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


def _validated(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The one-window block (see `correlate_block`) pairing x with y."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("expected two equal-length 1-D segments")
    if len(x) < 2:
        raise ValueError("segments must have at least 2 samples")
    return np.stack([x, y])[:, None]


def cc_time(x: np.ndarray, y: np.ndarray) -> CorrelationSeries:
    """Direct sliding-dot-product correlation, normalized by ||x|| ||y||."""
    return correlate(x, y, "cctd")


def cc_freq(x: np.ndarray, y: np.ndarray) -> CorrelationSeries:
    """Same contract as `cc_time`, via inverse transform of conj(X) * Y with
    zero padding to at least 2W-1 points."""
    return correlate(x, y, "ccfd")


def cc_wavelet(x: np.ndarray, y: np.ndarray, dt: float = 4e-9) -> CorrelationSeries:
    """Wavelet-domain correlation on the undecimated sym4 decomposition of
    `DEFAULT_CCWD_LEVELS` levels.

    Both segments are decomposed with the shift-invariant transform; the
    detail sequences of every level whose octave intersects `SIGNAL_BAND` are
    cross-correlated and the normalized per-level series are averaged with
    weights given by the geometric mean of the two segments' level energies.
    """
    return correlate(x, y, "ccwd", dt)


def band_levels(dt: float) -> list[int]:
    """The ccwd levels in `SIGNAL_BAND` at sample interval `dt`, raising
    ValueError when there is none."""
    selected = wavelets.levels_in_band(DEFAULT_CCWD_LEVELS, dt, SIGNAL_BAND)
    if not selected:
        raise ValueError(
            f"no decomposition level of {DEFAULT_CCWD_LEVELS} intersects band {SIGNAL_BAND} at dt={dt}"
        )
    return selected


def _wavelet_spectrum(block: np.ndarray, selected: list[int], m: int) -> tuple[np.ndarray, np.ndarray]:
    """The ccwd cross spectrum and denominator of `correlate_block`: sums over
    the `selected` levels of their `m`-point cross spectra and their weights
    (see `cc_wavelet`), leaving out a level where either segment has no
    energy.  No step calls BLAS, whose summation order depends on the CPU."""
    n = block.shape[-1]
    if n < 2**DEFAULT_CCWD_LEVELS:
        raise ValueError(f"signal of {n} samples too short for {DEFAULT_CCWD_LEVELS} levels")
    # deeper levels and the last approximation go unused
    details = wavelets.modwt_levels(block, _CCWD_FILTERS[: max(selected)], approximation=False)
    cross, wsum = 0.0, 0.0
    for j in selected:
        d = details[j - 1]
        energy = np.einsum("...w,...w->...", d, d)  # (1 + P, K)
        used = (energy[0] != 0.0) & (energy[1:] != 0.0)
        spectra = np.fft.rfft(d, m)
        cross = cross + np.where(used[..., None], np.conj(spectra[0]) * spectra[1:], 0.0)
        wsum = wsum + np.where(used, np.sqrt(energy[0] * energy[1:]), 0.0)
    if not np.all(wsum):
        raise DegenerateWindowError("no detail energy in the selected levels")
    return cross, wsum


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


def __getattr__(name: str):
    # `xcorr.CubicSpline` is SciPy's class, imported on first access:
    # perfbench's tracer wraps this binding and its tests pin it
    if name != "CubicSpline":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.interpolate import CubicSpline
    globals()[name] = CubicSpline
    return CubicSpline


def _cubic(vals: np.ndarray, factor: int) -> np.ndarray:
    """Rows of `vals` (n >= 3 columns) resampled at offsets k/factor by
    SciPy's not-a-knot ``CubicSpline(np.arange(n), vals, axis=1)``, operation
    for operation: LAPACK dgtsv's solve (n = 3: the reciprocal Cholesky sweeps
    of SciPy's SPD solve) and PPoly's evaluation.  No dot product, dense
    operator or fma: each rounds differently, and the tie breaks read the bits."""
    if not np.isfinite(vals).all():
        raise ValueError("cubic refinement needs finite values")
    n, y = vals.shape[1], vals.T
    m = np.diff(y, axis=0)
    if n == 3:
        i1 = 1.0 / math.sqrt(4.0 - 1.0 * 1.0)
        i2 = 1.0 / math.sqrt(1.0 - i1 * i1)
        z1 = (3.0 * (m[1] + m[0]) - 2.0 * m[0]) * i1
        s2 = (2.0 * m[1] - i1 * z1) * i2 * i2
        s1 = (z1 - i1 * s2) * i1
        s = np.stack([2.0 * m[0] - s1, s1, s2])
    else:
        s = np.empty_like(y)
        s[0], s[-1] = (5.0 * m[0] + m[1]) / 2.0, (m[-2] + 5.0 * m[-1]) / 2.0
        s[1:-1] = 3.0 * (m[:-1] + m[1:])
        d, du, dl = [1.0] + [4.0] * (n - 2) + [1.0], [2.0] + [1.0] * (n - 2), [1.0] * (n - 2) + [2.0]
        for i in range(n - 1):  # this matrix never needs a row swap
            fact = dl[i] / d[i]
            d[i + 1] -= fact * du[i]
            s[i + 1] -= fact * s[i]
        s[-1] /= d[-1]
        s[-2] = (s[-2] - du[-1] * s[-1]) / d[-2]
        for i in range(n - 3, -1, -1):
            s[i] = (s[i] - du[i] * s[i + 1] - 0.0 * s[i + 2]) / d[i]  # 0.0: the eliminated dl[i]
    t = s[:-1] + s[1:] - 2.0 * m
    c0, c1, c2, c3 = (c[:, None] for c in (t, m - s[:-1] - t, s[:-1], y[:-1]))
    x = (np.arange(factor + 1) / factor)[:, None]
    v = (((0.0 + c3) + c2 * x) + c1 * (x * x)) + c0 * ((x * x) * x)  # (n - 1, factor + 1, rows)
    # each knot is offset 0 of the interval after it, the last knot offset 1 of the last
    return np.concatenate([v[:, :factor].reshape(-1, v.shape[-1]), v[-1, factor:]]).T


def _resample(method: str, vals: np.ndarray, first: int, last: int, factor: int) -> np.ndarray:
    """Rows of `vals`, sampled at integer offsets first .. last, resampled at
    offsets first + k/factor."""
    if method == "cubic":
        return _cubic(vals, factor)
    k = np.arange((last - first) * factor + 1)
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
        if spec.method != "none":
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
                if spec.method == method:
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


def correlate(x: np.ndarray, y: np.ndarray, method: str, dt: float = 4e-9) -> CorrelationSeries:
    """Method-string dispatch (``cctd`` | ``ccfd`` | ``ccwd``) on one pair:
    a one-window `correlate_block`."""
    return CorrelationSeries(np.arange(1 - len(x), len(x)), correlate_block(_validated(x, y), method, dt)[0, 0])


def correlate_block(block: np.ndarray, method: str, dt: float = 4e-9) -> np.ndarray:
    """Correlation coefficients of each window's first segment with each of
    its others, by `method`; ``ccwd`` runs on sym4 at `DEFAULT_CCWD_LEVELS`
    levels.

    `block` is a (1 + P, K, W) float64 array of K windows; the result is a
    (K, P, 2W - 1) array over lags -(W-1) .. W-1.  A segment's norm, and
    its spectrum (ccfd) or detail levels (ccwd), are computed once however
    many pairs it is in.
    """
    if method not in CC_METHODS:
        raise ValueError(f"unknown correlation method {method!r}")
    n = block.shape[-1]
    m = 1 << int(np.ceil(np.log2(2 * n - 1)))  # holds every lag
    if method == "ccwd":
        cross, denom = _wavelet_spectrum(block, band_levels(dt), m)
    else:
        # vecdot calls BLAS, so a norm may round differently on another CPU
        # (ccwd avoids it); on rows made contiguous it matches `np.linalg.norm`,
        # which ravels to a contiguous copy before its dot product, to the bit
        rows = np.ascontiguousarray(block)
        norms = np.sqrt(np.vecdot(rows, rows))  # one per segment
        denom = norms[0] * norms[1:]  # (P, K): ||B|| ||other|| of every pair
        if not denom.all():
            raise DegenerateWindowError("zero-variance segment has no correlation")
        if method == "cctd":
            b = block[0]
            out = np.array([[correlate_full(b[k], y[k]) for y in block[1:]] for k in range(len(b))])
            return out / denom.T[:, :, None]
        spectra = np.fft.rfft(block, m)
        cross = np.conj(spectra[0]) * spectra[1:]
    c = np.fft.irfft(cross, m)
    coeff = np.concatenate([c[..., m - (n - 1):], c[..., :n]], axis=-1) / denom[..., None]
    return coeff.transpose(1, 0, 2)
