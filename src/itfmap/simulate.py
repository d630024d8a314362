"""Closed-loop signal synthesis: ground-truth angle tracks, track
augmentation, per-window fractionally delayed channel synthesis, and channel
noise injection.

The synthesized record embeds its own truth (angles and per-window delays),
so the whole pipeline can be scored against it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from itfmap.geometry import ArrayGeometry, tdoa_from_direction
from itfmap.signals import SampleRecord, read_table, write_table

TRACK_KINDS = ("constant", "linear-sweep", "random-walk")
MAX_DELAY_SAMPLES = 2**16  # largest baseline transit (samples) the command line synthesizes


@dataclass(frozen=True)
class AngleTrack:
    """Per-window (azimuth, elevation) in degrees, plus the (window, hop)
    geometry it was generated for.  `valid` marks windows carrying a claim;
    estimated tracks use it for gate-failed windows."""

    az_deg: np.ndarray
    el_deg: np.ndarray
    window_length: int = 256
    hop: int = 1
    valid: np.ndarray | None = None

    def __post_init__(self):
        az = np.asarray(self.az_deg, dtype=np.float64)
        el = np.asarray(self.el_deg, dtype=np.float64)
        if az.shape != el.shape or az.ndim != 1 or len(az) < 1:
            raise ValueError("need equal-length non-empty az/el arrays")
        if not np.isfinite(az).all():
            raise ValueError("azimuth not finite")
        if not ((el >= 0.0) & (el <= 90.0)).all():
            raise ValueError("elevation out of [0, 90]")
        object.__setattr__(self, "az_deg", az)
        object.__setattr__(self, "el_deg", el)
        v = self.valid
        v = np.ones(len(az), dtype=bool) if v is None else np.asarray(v, dtype=bool)
        if v.shape != az.shape:
            raise ValueError("valid mask shape mismatch")
        object.__setattr__(self, "valid", v)

    def __len__(self) -> int:
        return len(self.az_deg)


@dataclass(frozen=True)
class AugmentSpec:
    """Track augmentation: Gaussian elevation noise, outward scaling about
    the centroid, horizontal flip.  Applied in that order, seeded."""

    noise_sigma: float = 1.0
    scale_factor: float = 1.2
    flip: bool = False
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.scale_factor < np.inf:
            raise ValueError(f"scale_factor must be finite and > 0, got {self.scale_factor}")
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


@dataclass(frozen=True)
class SimulatedRecord:
    """A synthesized record plus its embedded ground truth."""

    record: SampleRecord
    truth: AngleTrack
    tau1_s: np.ndarray
    tau2_s: np.ndarray


def make_track(
    kind: str,
    n: int,
    seed: int = 0,
    az0: float = 120.0,
    el0: float = 45.0,
    az1: float | None = None,
    el1: float | None = None,
    az_step: float = 0.5,
    el_step: float = 0.3,
    el_range: tuple[float, float] = (5.0, 85.0),
    window_length: int = 256,
    hop: int = 1,
) -> AngleTrack:
    """Ground-truth track generator.

    kind ``constant`` repeats (az0, el0); ``linear-sweep`` moves linearly to
    (az1, el1); ``random-walk`` takes seeded Gaussian steps of scale
    (az_step, el_step) from el0 clipped into `el_range`, with elevation
    reflected into `el_range`.  A non-finite angle, or an elevation outside
    [0, 90] on a constant track or a sweep, raises ValueError.
    """
    if n < 1:
        raise ValueError("track needs at least one window")
    if not np.isfinite([az0, el0]).all():
        raise ValueError(f"start angles must be finite, got az {az0}, el {el0}")
    if kind == "constant":
        az = np.full(n, az0 % 360.0)
        el = np.full(n, el0)
    elif kind == "linear-sweep":
        az = np.linspace(az0, az0 if az1 is None else az1, n) % 360.0
        el = np.linspace(el0, el0 if el1 is None else el1, n)
    elif kind == "random-walk":
        rng = np.random.default_rng(seed)
        az = (az0 + np.cumsum(rng.normal(0.0, az_step, n))) % 360.0
        el_lo, el_hi = el_range
        el = np.empty(n)
        e = float(np.clip(el0, el_lo, el_hi))
        for i, step in enumerate(rng.normal(0.0, el_step, n)):
            e += step
            if e > el_hi:          # reflect off the range edges
                e = 2 * el_hi - e
            if e < el_lo:
                e = 2 * el_lo - e
            el[i] = e
    else:
        raise ValueError(f"unknown track kind {kind!r}; expected one of {TRACK_KINDS}")
    return AngleTrack(az, el, window_length=window_length, hop=hop)


def augment_track(track: AngleTrack, spec: AugmentSpec) -> AngleTrack:
    """Noise -> scale -> flip, deterministic per seed.

    Noise adds N(0, sigma^2) to elevation; scaling expands both angles
    outward about the track centroid; flip rotates the azimuth by 180
    degrees.  Elevation is re-clipped to [0, 90] after every stage, which
    keeps the implied delays inside the transit gate (the delay norm is
    (d/c) cos el <= d/c for any baseline).
    """
    az = track.az_deg.copy()
    el = track.el_deg.copy()
    rng = np.random.default_rng(spec.seed)
    if spec.noise_sigma > 0:
        el = el + rng.normal(0.0, spec.noise_sigma, len(el))
        el = np.clip(el, 0.0, 90.0)
    if spec.scale_factor != 1.0:
        az_c = float(np.mean(az))
        el_c = float(np.mean(el))
        az = az_c + spec.scale_factor * (az - az_c)
        el = np.clip(el_c + spec.scale_factor * (el - el_c), 0.0, 90.0)
    if spec.flip:
        az = az + 180.0
    az = az % 360.0
    return AngleTrack(az, el, window_length=track.window_length, hop=track.hop, valid=track.valid.copy())


def fractional_delay(segment: np.ndarray, delay_samples: float) -> np.ndarray:
    """Band-limited circular delay via a spectral phase ramp (unitary)."""
    n = len(segment)
    spec = np.fft.rfft(segment)
    k = np.arange(len(spec))
    return np.fft.irfft(spec * np.exp(-2j * np.pi * k * delay_samples / n), n)


def synthesize_record(
    reference: np.ndarray,
    track: AngleTrack,
    geom: ArrayGeometry | None = None,
    dt: float = 4e-9,
) -> SimulatedRecord:
    """Build the three-channel record for a ground-truth track, windowed
    as the track is.

    Channel B is the reference as-is.  For window i the per-window delays
    (tau1, tau2) follow from the track angles; the C (BC baseline) and D
    (BD baseline) windows are the B window delayed by tau1 and tau2
    (band-limited spectral phase ramp on a padded slice).  The windows are
    concatenated with each output sample owned by the latest window covering
    it, so overlapped synthesis stays single-valued.  With hop > window the
    samples of C and D that no window covers are zero.
    """
    geom = geom or ArrayGeometry()
    w, h = track.window_length, track.hop
    n_win = len(track)
    needed = (n_win - 1) * h + w
    ref = np.asarray(reference, dtype=np.float64)
    if len(ref) < needed:
        raise ValueError(
            f"reference of {len(ref)} samples cannot host {n_win} windows "
            f"(need {needed} at window {w}, hop {h})"
        )
    ref = ref[:needed]
    tau1 = np.empty(n_win)
    tau2 = np.empty(n_win)
    for i in range(n_win):
        tau1[i], tau2[i] = tdoa_from_direction(
            float(track.az_deg[i]), float(track.el_deg[i]), geom
        )
    # pad each window's slice so the spectral ramp's circular wrap-around
    # never reaches the samples the window actually contributes
    pad = 64 + int(np.ceil(np.max(np.abs(np.concatenate([tau1, tau2]))) / dt))
    chan_c = np.zeros(needed)
    chan_d = np.zeros(needed)
    for i in range(n_win):
        start = i * h
        a = start - pad
        b = start + w + pad
        seg = np.zeros(b - a)
        lo, hi = max(a, 0), min(b, needed)
        seg[lo - a : hi - a] = ref[lo:hi]
        delayed_c = fractional_delay(seg, tau1[i] / dt)
        delayed_d = fractional_delay(seg, tau2[i] / dt)
        chan_c[start : start + w] = delayed_c[pad : pad + w]
        chan_d[start : start + w] = delayed_d[pad : pad + w]
    record = SampleRecord(
        channels=np.vstack([ref, chan_c, chan_d]),
        sample_interval=dt,
        label="simulated",
    )
    truth = AngleTrack(track.az_deg.copy(), track.el_deg.copy(), window_length=w, hop=h, valid=track.valid.copy())
    return SimulatedRecord(record=record, truth=truth, tau1_s=tau1, tau2_s=tau2)


def snr_power_ratio(snr_db: float) -> float:
    """The signal-to-noise power ratio 10^(snr_db/10), infinite (no noise)
    at +inf dB; ValueError unless it is a normal positive float, so NaN,
    -inf and dB values far enough from 0 to overflow or underflow fail."""
    try:
        ratio = 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        ratio = 0.0
    if not ratio >= sys.float_info.min:
        raise ValueError(f"SNR of {snr_db} dB has no positive finite power ratio")
    return ratio


def add_awgn(signal: np.ndarray, snr_db: float, seed: int = 0) -> np.ndarray:
    """White Gaussian noise at the requested SNR; infinite SNR is identity.

    Noise power = signal power / `snr_power_ratio(snr_db)`; deterministic
    per seed.
    """
    x = np.asarray(signal, dtype=np.float64)
    ratio = snr_power_ratio(snr_db)
    if ratio == np.inf:
        return x.copy()
    power = float(np.mean(x**2))
    if power == 0.0:
        raise ValueError("zero-power signal cannot take a finite SNR")
    sigma = np.sqrt(power / ratio)
    rng = np.random.default_rng(seed)
    return x + rng.normal(0.0, sigma, len(x))


def add_record_noise(record: SampleRecord, snr_db: float, seed: int = 0) -> SampleRecord:
    """AWGN on all three channels with per-channel seed derivation."""
    chans = [add_awgn(record.channels[i], snr_db, seed=seed + i) for i in range(3)]
    return SampleRecord(np.vstack(chans), record.sample_interval, record.label)


# ----------------------------------------------------------------------
# Ground-truth sidecar CSV
# ----------------------------------------------------------------------

TRUTH_CSV_HEADER = "window_index,az_deg,el_deg,tau1_s,tau2_s"


def save_truth(sim: SimulatedRecord, path: str | Path) -> Path:
    """Sidecar CSV: one `TRUTH_CSV_HEADER` row per window."""
    columns = (sim.truth.az_deg, sim.truth.el_deg, sim.tau1_s, sim.tau2_s)
    rows = (
        f"{i},{az!r},{el!r},{t1!r},{t2!r}" for i, (az, el, t1, t2) in enumerate(zip(*(c.tolist() for c in columns)))
    )
    return write_table(path, TRUTH_CSV_HEADER, rows)


def load_truth(path: str | Path, window_length: int = 256, hop: int = 1) -> AngleTrack:
    rows = read_table(path, TRUTH_CSV_HEADER)
    az, el = np.array([(float(az), float(el)) for _, az, el, _, _ in rows]).reshape(-1, 2).T
    return AngleTrack(az, el, window_length=window_length, hop=hop)
