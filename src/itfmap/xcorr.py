"""Per-window time-difference estimation by normalized cross-correlation.

Three routes to the same lag axis: direct time-domain (`cc_time`), conjugate
spectral product (`cc_freq`) and undecimated-wavelet-domain (`cc_wavelet`).
`correlate_block` runs them on a block of windows at once; the `cc_*`
functions and `correlate` are its one-pair forms.  `wavelet_details` gives
it the ccwd details of a block from one transform of its samples.  One
energy rule divides every pair: the sum, over the parts it is taken on (the
window for cctd and ccfd, the selected detail levels for ccwd), of
sqrt(E(x) E(y)), E a segment's energy in the part, leaving out a part where
either has none.  ccfd (Knapp & Carter's unweighted generalized correlation,
1976) and ccwd sum the parts' cross spectra.  Only cctd calls BLAS.
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
from numpy.lib.stride_tricks import sliding_window_view

from itfmap._core import correlate_full
from itfmap import wavelets
from itfmap.signals import SIGNAL_BAND

CC_METHODS = ("cctd", "ccfd", "ccwd")
DEFAULT_CCWD_LEVELS = 2
_CCWD_FILTERS = wavelets.level_filters(wavelets.get_basis("sym4"), DEFAULT_CCWD_LEVELS)  # built once
# level 1 at half gain: every level is halved, exactly, which leaves the
# coefficients as they are, and no sum in `wavelet_details` overflows
_CCWD_FILTERS[0] /= 2.0
# the first samples of a window whose detail at each level reads the zero
# padding before it: the filter spans summed down the pyramid (sym4: 7, 21)
_CCWD_HEADS = np.cumsum([f.shape[1] - 1 for f in _CCWD_FILTERS]).tolist()
INTERP_NEIGHBORHOOD = 8          # integer lags kept on each side of the peak
REFINE_BATCH_ROWS = 256          # rows resampled together: bounds the dense-grid temporaries


class DegenerateWindowError(ValueError):
    """Correlation requested on a zero-variance (flagged constant) segment."""


@dataclass(frozen=True)
class CorrelationSeries:
    """Normalized correlation coefficients over lags -(W-1) .. +(W-1)."""

    lags: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        n = len(self.coefficients)
        if n % 2 == 0 or not np.array_equal(self.lags, np.arange(-(n // 2), n // 2 + 1)):
            raise ValueError("a correlation series needs an odd number of coefficients over lags -L .. L")

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
    """The one-window block (see `correlate_block`) pairing x with y, each
    over the power of two above its peak: an exact scaling, so no
    coefficient bit moves, which keeps the energies of raw samples far from
    1 from overflowing or underflowing.  ValueError on a non-finite sample,
    as `refine_peak` gives on a non-finite neighborhood."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("expected two equal-length 1-D segments")
    if len(x) < 2:
        raise ValueError("segments must have at least 2 samples")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("correlation needs finite segments")
    return np.stack([np.ldexp(v, -np.frexp(np.max(np.abs(v)))[1]) for v in (x, y)])[:, None]


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


def wavelet_details(
    source: np.ndarray, hop: int, windows: np.ndarray, peaks: np.ndarray, dt: float
) -> list[np.ndarray]:
    """The ccwd detail levels of a block of normalized `windows`, a
    (1 + P, K, W) array, from one transform of the raw samples they cover.

    `peaks` (1 + P, K) holds what each segment was divided by.  Each row of
    `source`, flattened, holds one channel's raw samples with window k from
    sample k * `hop` on: the span the windows lie in, or the raw windows
    themselves with `hop` = W.  The transform is causal and
    shift-equivariant, so past its level's head (`_CCWD_HEADS`) a window's
    detail is the source's, divided by the peak; the head, which reads the
    zero padding before the window, is the transform of the normalized
    window's first samples, placed in the same row behind zeros.  Every
    level is halved (see `_CCWD_FILTERS`), which leaves the coefficients as
    they are.  A non-finite source sample reaches only the windows that hold
    it, which are degenerate.
    """
    levels, (c, k, w) = max(band_levels(dt)), windows.shape
    reach, n = _CCWD_HEADS[levels - 1], source.size
    head = min(reach, w)
    # one row for all: the source's rows end to end, a window's detail past
    # its head reading only its own samples, then each head behind `reach` zeros
    row = np.zeros(n + c * k * (reach + head))
    row[:n].reshape(source.shape)[...] = source
    row[n:].reshape(c, k, -1)[..., reach:] = windows[..., :head]
    with np.errstate(invalid="ignore"):  # inf - inf next to a non-finite sample
        transformed = wavelets.modwt_levels(row, _CCWD_FILTERS[:levels], approximation=False)
    out = []
    for d, h in zip(transformed, _CCWD_HEADS):
        level = np.empty_like(windows)
        level[..., :h] = d[n:].reshape(c, k, -1)[..., reach : reach + h]
        tail = sliding_window_view(d[:n].reshape(c, -1), w, axis=-1)[:, ::hop]
        np.divide(tail[..., h:], peaks[..., None], out=level[..., h:])
        out.append(level)
    return out


def _energy_and_cross(parts: list[np.ndarray], m: int | None) -> tuple[np.ndarray, np.ndarray | None]:
    """The energy rule's denominator over `parts`, each a (1 + P, K, W)
    array, and for an `m` their summed `m`-point cross spectra conj(first) *
    other, leaving out a part where either segment has no energy."""
    cross, denom = None, 0.0
    for d in parts:
        energy = np.einsum("...w,...w->...", d, d)  # (1 + P, K)
        used = (energy[0] != 0.0) & (energy[1:] != 0.0)
        denom = denom + np.where(used, np.sqrt(energy[0] * energy[1:]), 0.0)
        if m is None:
            continue
        spectra = np.fft.rfft(d, m)
        # conj(first) * others, in place, operands in that order
        term = np.multiply(np.conj(spectra[0], out=spectra[0]), spectra[1:], out=spectra[1:])
        if not used.all():
            term = np.where(used[..., None], term, 0.0)
        if cross is None:
            cross = term
            cross += 0.0  # as 0.0 + term: a -0.0 part becomes +0.0
        else:
            cross += term
    if not np.all(denom):
        raise DegenerateWindowError("a segment has no energy (for ccwd: in the selected detail levels)")
    return denom, cross


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
    neighborhood: np.ndarray

    @property
    def coefficient(self) -> np.ndarray:
        """Each row's peak coefficient: the centre of its neighborhood."""
        return self.neighborhood[:, INTERP_NEIGHBORHOOD]


def peak_neighborhoods(coefficients: np.ndarray) -> PeakNeighborhoods:
    """Integer peak (ties -> smallest |lag|) and neighborhood of every row of
    `coefficients`, an (n, 2L+1) array of series over lags -L .. +L."""
    c = np.atleast_2d(coefficients)
    max_lag, n = (c.shape[1] - 1) // 2, INTERP_NEIGHBORHOOD
    i = _argmax_nearest_zero(c, np.arange(-max_lag, max_lag + 1))
    cols = i[:, None] + np.arange(-n, n + 1)
    around = np.take_along_axis(c, np.clip(cols, 0, c.shape[1] - 1), axis=1)
    around[(cols < 0) | (cols >= c.shape[1])] = np.nan
    return PeakNeighborhoods(max_lag, i - max_lag, around)


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


def _resample(method: str, vals: np.ndarray, factor: int) -> np.ndarray:
    """Rows of `vals`, sampled at unit spacing, resampled at offsets k/factor."""
    if method == "cubic":
        return _cubic(vals, factor)
    k = np.arange((vals.shape[1] - 1) * factor + 1)
    # np.interp's arithmetic: slope * (x - x_j) + y_j, with unit knot spacing
    slopes = np.diff(vals, axis=1, append=vals[:, -1:])
    j, r = np.divmod(k, factor)
    return vals[:, j] + slopes[:, j] * (r / factor)


def refine_peaks(peaks: PeakNeighborhoods, interps: Sequence[InterpSpec]) -> list[np.ndarray]:
    """Fractional-lag peak locations of every row of `peaks`, one array per
    spec in `interps` (see `refine_peak`).

    Rows are grouped by the offsets of their neighborhood that lie inside
    the lag axis, so the rows clear of both ends form one group, and each
    group is resampled `REFINE_BATCH_ROWS` rows at a time.  Each method is
    resampled once, on the grid of the largest factor in `interps`; a smaller
    factor's curve is a slice of that grid, with the same values because the
    grid points are dyadic.
    """
    out = [peaks.lag.astype(np.float64) for _ in interps]
    methods = {spec.method for spec in interps if spec.method != "none"}
    if not methods or peaks.max_lag == 0:  # a one-lag axis has nothing to resample
        return out
    n, top = INTERP_NEIGHBORHOOD, max(spec.factor for spec in interps)
    ends = np.clip(peaks.lag + np.array([[-n], [n]]), -peaks.max_lag, peaks.max_lag) - peaks.lag
    for first, last in sorted(set(zip(*ends.tolist()))):
        group = np.flatnonzero((ends[0] == first) & (ends[1] == last))
        for rows in (group[k : k + REFINE_BATCH_ROWS] for k in range(0, len(group), REFINE_BATCH_ROWS)):
            vals = peaks.neighborhood[rows, first + n : last + n + 1]
            dense = (peaks.lag[rows] + first)[:, None] + np.arange((last - first) * top + 1) / top
            curves = {method: _resample(method, vals, top) for method in methods}
            for spec, lags in zip(interps, out):
                if spec.method != "none":
                    step = top // spec.factor
                    best = _argmax_nearest_zero(curves[spec.method][:, ::step], dense[:, ::step])
                    lags[rows] = dense[np.arange(len(rows)), best * step]
    return out


def refine_peak(series: CorrelationSeries, interp: InterpSpec) -> float:
    """Fractional-lag peak location.

    Finds the integer argmax (ties toward smallest |lag|), then resamples the
    +-8-lag neighborhood at `factor` times density with the chosen method and
    returns the argmax of the resampled curve (same tie break).  Factor 1 or
    method ``none`` return the integer peak.  A one-row `refine_peaks`.
    """
    return float(refine_peaks(peak_neighborhoods(series.coefficients), [interp])[0][0])


def correlate(x: np.ndarray, y: np.ndarray, method: str, dt: float = 4e-9) -> CorrelationSeries:
    """Method-string dispatch (``cctd`` | ``ccfd`` | ``ccwd``) on one pair:
    a one-window `correlate_block`."""
    return CorrelationSeries(np.arange(1 - len(x), len(x)), correlate_block(_validated(x, y), method, dt)[0, 0])


def correlate_block(
    block: np.ndarray, method: str, dt: float = 4e-9, details: list[np.ndarray] | None = None
) -> np.ndarray:
    """Correlation coefficients of each window's first segment with each of
    its others, by `method`; ``ccwd`` runs on sym4 at `DEFAULT_CCWD_LEVELS`
    levels, on `details` (as `wavelet_details` gives them) when given and
    otherwise on `wavelet_details` of `block`.

    `block` is a (1 + P, K, W) float64 array of K windows; the result is a
    (K, P, 2W - 1) array over lags -(W-1) .. W-1, divided by the module's
    energy rule.  A segment's energies and spectra are computed once however
    many pairs it is in.
    """
    if method not in CC_METHODS:
        raise ValueError(f"unknown correlation method {method!r}")
    n, parts = block.shape[-1], [block]
    m = 1 << int(np.ceil(np.log2(2 * n - 1)))  # holds every lag
    if method == "ccwd":
        selected = band_levels(dt)
        if n < 2**DEFAULT_CCWD_LEVELS:
            raise ValueError(f"signal of {n} samples too short for {DEFAULT_CCWD_LEVELS} levels")
        if details is None:  # each window its own source
            details = wavelet_details(block, n, block, np.ones(block.shape[:2]), dt)
        parts = [details[j - 1] for j in selected]
    denom, cross = _energy_and_cross(parts, None if method == "cctd" else m)
    scale = denom.T[..., None]
    if method == "cctd":
        out = np.empty((block.shape[1], len(block) - 1, 2 * n - 1))
        for k, b in enumerate(block[0]):
            for p, y in enumerate(block[1:]):
                out[k, p] = correlate_full(b, y[k])
        out /= scale
        return out
    # the two halves of the circular correlation, negative lags first, each
    # divided straight into the (K, P, 2W - 1) result
    c = np.fft.irfft(cross, m).transpose(1, 0, 2)
    out = np.empty(c.shape[:2] + (2 * n - 1,))
    np.divide(c[..., m - (n - 1):], scale, out=out[..., : n - 1])
    np.divide(c[..., :n], scale, out=out[..., n - 1:])
    return out
