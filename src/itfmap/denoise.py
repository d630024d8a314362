"""Interchangeable signal-to-signal preprocessing filters.

Three variants, selectable by spec string:

* ``bpf``               zero-phase Butterworth band-pass (default 20-100 MHz)
* ``kf``                scalar local-level Kalman filter
* ``wt-<basis>-<rule>`` wavelet denoising, e.g. ``wt-sym4-sure``

All filters preserve signal length and are deterministic.  ``none`` is
accepted by `parse_filter_spec` as an explicit bypass for pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.signal import butter, sosfiltfilt

from itfmap._core import kalman_local_level
from itfmap import wavelets
from itfmap.wavelets import WaveletBasis

DEFAULT_BAND = (20e6, 100e6)   # digital band-pass cut-offs
HARDWARE_BAND = (40e6, 80e6)   # analog front-end preset
DEFAULT_ORDER = 4
DEFAULT_LEVELS = 4


@dataclass(frozen=True)
class BandpassSpec:
    """Butterworth band-pass of order `DEFAULT_ORDER` between the cut-offs."""

    low_hz: float = DEFAULT_BAND[0]
    high_hz: float = DEFAULT_BAND[1]

    def validate(self, dt: float) -> None:
        nyquist = 0.5 / dt
        if not 0 < self.low_hz < self.high_hz:
            raise ValueError(f"need 0 < low < high, got ({self.low_hz}, {self.high_hz})")
        if self.high_hz >= nyquist:
            raise ValueError(f"high cut-off {self.high_hz} at/above Nyquist {nyquist}")


@dataclass(frozen=True)
class KalmanSpec:
    """Local-level Kalman filter with q and r estimated from the signal
    (see `estimate_kalman_vars`)."""


@dataclass(frozen=True)
class WaveletSpec:
    """Wavelet denoising over `DEFAULT_LEVELS` levels."""

    basis: str = "sym4"
    rule: str = "sure"

    def validate(self) -> None:
        if self.rule not in wavelets.THRESHOLD_RULES:
            raise ValueError(f"unknown threshold rule {self.rule!r}")
        wavelets.get_basis(self.basis)  # raises KeyError on unknown basis


FilterSpec = Union[BandpassSpec, KalmanSpec, WaveletSpec, None]


def parse_filter_spec(text: str) -> FilterSpec:
    """Parse a CLI/config selector: bpf | bpf-hw | kf | wt-<basis>-<rule> | none.

    ``bpf`` is the 20-100 MHz digital preset; ``bpf-hw`` mirrors the 40-80 MHz
    analog front-end band.
    """
    t = text.strip().lower()
    if t in ("none", "bypass"):
        return None
    if t == "bpf":
        return BandpassSpec()
    if t == "bpf-hw":
        return BandpassSpec(low_hz=HARDWARE_BAND[0], high_hz=HARDWARE_BAND[1])
    if t == "kf":
        return KalmanSpec()
    if t.startswith("wt-"):
        parts = t.split("-")
        if len(parts) != 3:
            raise ValueError(f"bad wavelet selector {text!r}, expected wt-<basis>-<rule>")
        spec = WaveletSpec(basis=parts[1], rule=parts[2])
        spec.validate()
        return spec
    raise ValueError(f"unknown filter selector {text!r}")


def filter_label(spec: FilterSpec) -> str:
    if spec is None:
        return "none"
    if isinstance(spec, BandpassSpec):
        return "bpf-hw" if (spec.low_hz, spec.high_hz) == HARDWARE_BAND else "bpf"
    if isinstance(spec, KalmanSpec):
        return "kf"
    return f"wt-{spec.basis}-{spec.rule}"


def apply_filter(signal: np.ndarray, spec: FilterSpec, dt: float) -> np.ndarray:
    """Dispatch a parsed spec onto one channel."""
    if spec is None:
        return np.asarray(signal, dtype=np.float64)
    if isinstance(spec, BandpassSpec):
        return bandpass_filter(signal, spec, dt)
    if isinstance(spec, KalmanSpec):
        return kalman_filter(signal, *estimate_kalman_vars(signal))
    if isinstance(spec, WaveletSpec):
        return wavelet_denoise(signal, wavelets.get_basis(spec.basis), DEFAULT_LEVELS, spec.rule)
    raise TypeError(f"not a filter spec: {spec!r}")


def bandpass_filter(signal: np.ndarray, spec: BandpassSpec, dt: float) -> np.ndarray:
    """Butterworth band-pass, applied forward-backward (zero phase).

    The two-pass application squares the magnitude response and cancels the
    group delay, so downstream correlation lags carry no filter bias.
    """
    spec.validate(dt)
    return sosfiltfilt(_bandpass_sos(spec, dt), np.asarray(signal, dtype=np.float64))


def _bandpass_sos(spec: BandpassSpec, dt: float) -> np.ndarray:
    return butter(DEFAULT_ORDER, [spec.low_hz, spec.high_hz], btype="bandpass", fs=1.0 / dt, output="sos")


def check_input(spec: FilterSpec, dt: float, length: int | None = None) -> None:
    """Raise ValueError when `apply_filter` cannot filter a channel sampled
    every `dt` seconds (and `length` samples long, when given): a band-pass
    cut-off at or above Nyquist, or fewer samples than the band-pass edge
    padding or the wavelet levels need."""
    if isinstance(spec, BandpassSpec):
        spec.validate(dt)
        sos = _bandpass_sos(spec, dt)
        # sosfiltfilt's default edge padding, which the signal must exceed
        need = 3 * (2 * len(sos) + 1 - min((sos[:, 2] == 0).sum(), (sos[:, 5] == 0).sum())) + 1
    elif isinstance(spec, WaveletSpec):
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


def estimate_kalman_vars(signal: np.ndarray) -> tuple[float, float]:
    """(q, r) for `kalman_filter`: r from the first-difference variance over
    two (white-noise estimate), q = r/100."""
    x = np.asarray(signal, dtype=np.float64)
    if len(x) < 3:
        return 1e-6, 1e-4
    r = float(np.var(np.diff(x))) / 2.0
    r = max(r, 1e-30)
    return r / 100.0, r


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
    for i in range(1, len(parts)):  # details only; approximation untouched
        d = parts[i]
        sigma = wavelets.noise_sigma(d)
        if rule == "universal":
            t = wavelets.universal_threshold(sigma, n)
        else:
            t = wavelets.sure_threshold(d, sigma)
        parts[i] = wavelets.soft_threshold(d, t)
    return wavelets.waverec(parts + [lengths], basis)
