"""Closed-loop signal synthesis: ground-truth angle tracks, track
augmentation, the broadband reference waveform, per-window fractionally
delayed channel synthesis, channel noise injection, and `simulate_record`,
the recipe of the record `itfmap simulate` writes and `itfmap bench` scores.

The synthesized record embeds its own truth (angles and per-window delays),
so the whole pipeline can be scored against it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from itfmap.geometry import ArrayGeometry, tdoa_from_direction
from itfmap.signals import SIGNAL_BAND, SampleRecord, SegmentationPlan, read_table, write_table

TRACK_KINDS = ("constant", "linear-sweep", "random-walk")
MAX_DELAY_SAMPLES = 2**16  # largest baseline transit (samples) the command line synthesizes
SYNTH_BLOCK_SAMPLES = 2**14  # padded window samples delayed per block; a record's bytes do not depend on it
REFERENCE_BLOCK = 8192  # samples per block, a constant of the formula: each tone's sin/cos table spans one block


@dataclass(frozen=True)
class AngleTrack:
    """Per-window (azimuth, elevation) in degrees, plus the (window, hop)
    geometry it was generated for, checked as a `SegmentationPlan`.  `valid`
    marks windows carrying a claim; estimated tracks use it for gate-failed
    windows."""

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
        SegmentationPlan(self.window_length, self.hop)
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


def augment_track(
    track: AngleTrack, noise_sigma: float = 1.0, scale_factor: float = 1.2, flip: bool = False, seed: int = 0
) -> AngleTrack:
    """Noise -> scale -> flip, deterministic per seed.

    Noise adds N(0, noise_sigma^2) to elevation; scaling expands both angles
    outward about the track centroid by `scale_factor`; flip rotates the
    azimuth by 180 degrees.  Elevation is re-clipped to [0, 90] after every
    stage, which keeps the implied delays inside the transit gate (the delay
    norm is (d/c) cos el <= d/c for any baseline).
    """
    if not 0 < scale_factor < np.inf:
        raise ValueError(f"scale_factor must be finite and > 0, got {scale_factor}")
    if not 0 <= noise_sigma < np.inf:
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    az = track.az_deg.copy()
    el = track.el_deg.copy()
    rng = np.random.default_rng(seed)
    if noise_sigma > 0:
        el = el + rng.normal(0.0, noise_sigma, len(el))
        el = np.clip(el, 0.0, 90.0)
    if scale_factor != 1.0:
        az_c = float(np.mean(az))
        el_c = float(np.mean(el))
        az = az_c + scale_factor * (az - az_c)
        el = np.clip(el_c + scale_factor * (el - el_c), 0.0, 90.0)
    if flip:
        az = az + 180.0
    az = az % 360.0
    return AngleTrack(az, el, window_length=track.window_length, hop=track.hop, valid=track.valid.copy())


def _envelope(u: np.ndarray) -> np.ndarray:
    """0.2 + exp(-u**2 / 2) for |u| <= 1.5 from correctly rounded + and *
    alone, so every CPU rounds it alike: (1 + q)**4 with q = expm1(-u**2 / 8)
    by its Taylor terms through the 12th (remainder below 2e-17)."""
    z, q = u * u * -0.125, np.zeros_like(u)
    for k in range(12, 0, -1):
        q += 1 / math.factorial(k)
        q *= z
    q *= q + 2
    q *= q + 2
    return np.add(q, 1.2, out=q)


def reference_waveform(n: int, dt: float, seed: int) -> np.ndarray:
    """Broadband reference for synthesis, limited to `SIGNAL_BAND`: 24 tones
    A sin(omega t + phase) under a slow envelope.  By sin(a + b) = sin a cos b
    + cos a sin b, each block adds per tone its sin and cos table over one
    block's angles b, scaled by A cos a and A sin a at the block's start."""
    rng = np.random.default_rng(seed)
    tones = [(2 * np.pi * f0, rng.uniform(0.5, 1.0), rng.uniform(0, 2 * np.pi))
             for f0 in np.linspace(*SIGNAL_BAND, 24)]
    block, starts = min(n, REFERENCE_BLOCK), np.arange(0, n, REFERENCE_BLOCK) * dt
    tables, anchors = np.empty((len(tones), 2, block)), np.empty((len(tones), 2, len(starts)))
    for (omega, amplitude, phase), (sin_b, cos_b), anchor in zip(tones, tables, anchors):
        np.multiply(np.arange(block) * dt, omega, out=sin_b)
        np.cos(sin_b, out=cos_b)
        np.sin(sin_b, out=sin_b)
        alpha = starts * omega + phase
        anchor[:] = amplitude * np.sin(alpha), amplitude * np.cos(alpha)
    x, tmp = np.zeros(n), np.empty(block)
    for m, lo in enumerate(range(0, n, REFERENCE_BLOCK)):
        xb, tb = x[lo : lo + block], tmp[: min(block, n - lo)]
        for (sin_b, cos_b), (a_sin, a_cos) in zip(tables[:, :, : len(xb)], anchors[:, :, m]):
            xb += np.multiply(cos_b, a_sin, out=tb)
            xb += np.multiply(sin_b, a_cos, out=tb)
        xb *= _envelope((np.arange(lo, lo + len(xb)) - n / 2) / (n / 3))
    return np.divide(x, np.max(np.abs(x)), out=x)


def fractional_delay(segment: np.ndarray, delay_samples: float | np.ndarray) -> np.ndarray:
    """Band-limited circular delay via a spectral phase ramp (unitary); one row per delay of an array.
    A 2-D block of segments takes one row of delays per segment and gives shape (segments, delays, n)."""
    segment, delays = np.asarray(segment), np.asarray(delay_samples)
    n = segment.shape[-1]
    spec = np.fft.rfft(segment)
    if segment.ndim == 2:
        if delays.ndim != 2 or len(delays) != len(segment):
            raise ValueError(f"{len(segment)} segments need one row of delays each, got shape {delays.shape}")
        spec = spec[:, None, :]
    k = np.arange(spec.shape[-1])
    return np.fft.irfft(spec * np.exp(-2j * np.pi * k * delays[..., None] / n), n)


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
    (band-limited spectral phase ramp on a zero-padded slice).  Each sample
    of C and D is written once, by the window whose centre (start + W/2) is
    nearest, the later one on a tie; samples no window covers are zero.
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
    tau = np.array([tdoa_from_direction(az, el, geom) for az, el in zip(track.az_deg.tolist(), track.el_deg.tolist())])
    # pad each window's slice so the spectral ramp's circular wrap-around
    # never reaches the samples the window actually contributes
    pad = 64 + int(np.ceil(np.max(np.abs(tau)) / dt))
    channels = np.zeros((3, needed))
    channels[0] = ref[:needed]
    slices = sliding_window_view(np.pad(channels[0], pad), w + 2 * pad)[::h]
    # window i writes the samples of [bounds[i], bounds[i + 1]) that it covers
    bounds = np.concatenate(([0], (2 * h * np.arange(1, n_win) + w - h + 1) // 2, [needed]))
    block = max(1, SYNTH_BLOCK_SAMPLES // (w + 2 * pad))  # windows delayed per call
    for first in range(0, n_win, block):
        delayed = fractional_delay(slices[first : first + block], tau[first : first + block] / dt)
        for i in range(first, min(first + block, n_win)):
            start = i * h
            lo, hi = max(bounds[i], start), min(bounds[i + 1], start + w)
            channels[1:, lo:hi] = delayed[i - first, :, pad + lo - start : pad + hi - start]
    record = SampleRecord(
        channels=channels,
        sample_interval=dt,
        label="simulated",
    )
    truth = AngleTrack(track.az_deg.copy(), track.el_deg.copy(), window_length=w, hop=h, valid=track.valid.copy())
    return SimulatedRecord(record=record, truth=truth, tau1_s=tau[:, 0], tau2_s=tau[:, 1])


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


def add_awgn(signal: np.ndarray, snr_db: float, seed: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """White Gaussian noise at the requested SNR; infinite SNR is identity.

    Noise power = signal power / `snr_power_ratio(snr_db)`; deterministic
    per seed.  The noisy copy is written to `out` when given.
    """
    x = np.asarray(signal, dtype=np.float64)
    ratio = snr_power_ratio(snr_db)
    if ratio == np.inf:
        return np.positive(x, out=out)
    power = float(np.mean(x**2))
    if power == 0.0:
        raise ValueError("zero-power signal cannot take a finite SNR")
    sigma = np.sqrt(power / ratio)
    rng = np.random.default_rng(seed)
    return np.add(x, rng.normal(0.0, sigma, len(x)), out=out)


def add_record_noise(record: SampleRecord, snr_db: float, seed: int = 0) -> SampleRecord:
    """AWGN on all three channels with per-channel seed derivation."""
    noisy = np.empty_like(record.channels)
    for i, channel in enumerate(record.channels):
        add_awgn(channel, snr_db, seed=seed + i, out=noisy[i])
    return SampleRecord(noisy, record.sample_interval, record.label)


def simulate_record(
    track: AngleTrack, geom: ArrayGeometry, dt: float,
    seed: int, noise_seed: int, snr_db: float | None,
) -> SimulatedRecord:
    """The record `itfmap simulate` writes and `itfmap bench` scores: a
    reference waveform seeded by `seed`, delayed along `track` onto `geom`,
    plus AWGN at `snr_db` seeded by `noise_seed` unless `snr_db` is None."""
    ref = reference_waveform((len(track) - 1) * track.hop + track.window_length, dt, seed)
    sim = synthesize_record(ref, track, geom, dt=dt)
    if snr_db is None:
        return sim
    return replace(sim, record=add_record_noise(sim.record, snr_db, seed=noise_seed))


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
