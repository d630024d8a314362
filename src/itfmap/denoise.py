"""Interchangeable signal-to-signal preprocessing filters.

Selectable by spec string:

* ``bpf``               zero-phase Butterworth band-pass, 20-100 MHz
* ``bpf-hw``            the same over `signals.SIGNAL_BAND`, 40-80 MHz
* ``kf``                scalar local-level Kalman filter
* ``wt-<basis>-<rule>`` wavelet denoising, e.g. ``wt-sym4-sure``

A filter spec is its lower-cased selector, checked by `parse_filter_spec`,
which returns ``None`` for the explicit bypass ``none``.  All filters
preserve signal length and are deterministic.
"""

from __future__ import annotations

import functools

import numpy as np

from itfmap._core import kalman_local_level
from itfmap import wavelets
from itfmap.signals import SIGNAL_BAND
from itfmap.wavelets import WaveletBasis

DEFAULT_BAND = (20e6, 100e6)   # digital band-pass cut-offs
BANDS = {"bpf": DEFAULT_BAND, "bpf-hw": SIGNAL_BAND}
DEFAULT_ORDER = 4
DEFAULT_LEVELS = 4
KALMAN_Q_OVER_R = 0.01     # kf's process over measurement variance


def parse_filter_spec(text: str) -> str | None:
    """Check a CLI/config selector, bpf | bpf-hw | kf | wt-<basis>-<rule> |
    none, and return it lower-cased, or None for ``none``/``bypass``."""
    spec = text.strip().lower()
    if spec in ("none", "bypass"):
        return None
    if spec in BANDS or spec == "kf":
        return spec
    if spec.startswith("wt-"):
        _wavelet(spec)
        return spec
    raise ValueError(f"unknown filter selector {text!r}")


def _wavelet(spec: str) -> tuple[WaveletBasis, str]:
    """The basis and threshold rule a ``wt-<basis>-<rule>`` selector names."""
    parts = spec.split("-")
    if len(parts) != 3:
        raise ValueError(f"bad wavelet selector {spec!r}, expected wt-<basis>-<rule>")
    _, basis, rule = parts
    if rule not in wavelets.THRESHOLD_RULES:
        raise ValueError(f"unknown threshold rule {rule!r}")
    return wavelets.get_basis(basis), rule  # raises KeyError on unknown basis


def filter_label(spec: str | None) -> str:
    """The selector text of a parsed spec: the spec itself, or ``none``."""
    return spec or "none"


def apply_filter(signal: np.ndarray, spec: str | None, dt: float) -> np.ndarray:
    """Dispatch a parsed spec onto one channel."""
    if spec is None:
        return np.asarray(signal, dtype=np.float64)
    if spec in BANDS:
        return bandpass_filter(signal, BANDS[spec], dt)
    if spec == "kf":
        # the gains read only q/r, so every channel gets the same filter;
        # it runs on the channel over the power of two above its peak, so
        # that z - x stays finite for samples above half the largest float.
        # Both scalings are exact, and the filter is linear in the samples
        x = np.asarray(signal, dtype=np.float64)
        e = int(np.frexp(np.max(np.abs(x), initial=0.0))[1])
        return np.ldexp(kalman_filter(np.ldexp(x, -e), KALMAN_Q_OVER_R, 1.0), e)
    basis, rule = _wavelet(spec)
    return wavelet_denoise(signal, basis, DEFAULT_LEVELS, rule)


def bandpass_filter(signal: np.ndarray, band: tuple[float, float], dt: float) -> np.ndarray:
    """Butterworth band-pass of order `DEFAULT_ORDER` between the `band`
    cut-offs (Hz), applied forward-backward (zero phase).

    The two-pass application squares the magnitude response and cancels the
    group delay, so downstream correlation lags carry no filter bias.
    """
    from scipy.signal import sosfiltfilt  # SciPy loads only for the filters that use it
    return sosfiltfilt(_bandpass_sos(band, dt), np.asarray(signal, dtype=np.float64))


def _bandpass_sos(band: tuple[float, float], dt: float) -> np.ndarray:
    """The band-pass's second-order sections, designed once per (band, dt);
    each caller gets its own writable copy, as `sosfiltfilt` rejects a
    read-only one."""
    low, high = band
    return _butter_sos(low, high, dt).copy()


@functools.lru_cache(maxsize=16)
def _butter_sos(low: float, high: float, dt: float) -> np.ndarray:
    nyquist = 0.5 / dt
    if not 0 < low < high:
        raise ValueError(f"need 0 < low < high, got ({low}, {high})")
    if high >= nyquist:
        raise ValueError(f"high cut-off {high} at/above Nyquist {nyquist}")
    from scipy.signal import butter
    sos = butter(DEFAULT_ORDER, [low, high], btype="bandpass", fs=1.0 / dt, output="sos")
    sos.flags.writeable = False  # shared by every caller
    return sos


def check_input(spec: str | None, dt: float, length: int | None = None) -> None:
    """Raise ValueError when `apply_filter` cannot filter a channel sampled
    every `dt` seconds (and `length` samples long, when given): a band-pass
    cut-off at or above Nyquist, or fewer samples than the band-pass edge
    padding or the wavelet levels need."""
    if spec in BANDS:
        sos = _bandpass_sos(BANDS[spec], dt)
        # sosfiltfilt's default edge padding, which the signal must exceed
        need = 3 * (2 * len(sos) + 1 - min((sos[:, 2] == 0).sum(), (sos[:, 5] == 0).sum())) + 1
    elif spec is not None and spec.startswith("wt-"):
        need = 2**DEFAULT_LEVELS
    else:
        return
    if length is not None and length < need:
        raise ValueError(f"filter {filter_label(spec)} needs at least {need} samples, got {length}")


def kalman_filter(signal: np.ndarray, q: float, r: float) -> np.ndarray:
    """Scalar local-level (random walk) Kalman filter; returns the per-step
    posterior mean.  q >= 0 is the process variance, r > 0 the measurement
    variance."""
    if r <= 0:
        raise ValueError(f"measurement variance must be > 0, got {r}")
    if q < 0:
        raise ValueError(f"process variance must be >= 0, got {q}")
    return kalman_local_level(np.asarray(signal, dtype=np.float64), q, r)


def wavelet_denoise(
    signal: np.ndarray,
    basis: WaveletBasis,
    levels: int = DEFAULT_LEVELS,
    rule: str = "sure",
) -> np.ndarray:
    """Periodic DWT, per-level soft threshold on details, reconstruct.

    The per-level noise scale is median(|d|)/0.6745; ``universal`` thresholds
    at sigma*sqrt(2 ln n) (n = signal length), ``sure`` minimizes the Stein
    unbiased risk per level.  Output length equals input length.
    """
    if rule not in wavelets.THRESHOLD_RULES:
        raise ValueError(f"unknown threshold rule {rule!r}")
    x = np.asarray(signal, dtype=np.float64)
    coeffs = wavelets.wavedec(x, basis, levels)
    *parts, lengths = coeffs
    n = len(x)
    for d in parts[1:]:  # details only, thresholded in place; approximation untouched
        wavelets._soft_threshold_inplace(d, wavelets.level_threshold(d, rule, n))
    return wavelets.waverec(parts + [lengths], basis)
