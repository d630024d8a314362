"""Waveform records, sliding-window segmentation and window normalization.

A record holds the three synchronized antenna channels (B, C, D) of one
crossed-baseline interferometer capture.  Two on-disk formats are supported:

* CSV: comment headers ``# dt=<seconds>`` and ``# label=<text>``, then one
  ``b,c,d`` row of decimal floats per sample.
* raw binary: 16-byte header (magic ``ITFR``, u32 sample count, f32 sample
  interval, 4 reserved bytes; little-endian), then the three channels as
  little-endian f32, channel-major.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

MAGIC = b"ITFR"
DEFAULT_SAMPLE_INTERVAL = 4e-9
DEFAULT_WINDOW_LENGTH = 256
DEFAULT_HOP = 1

# max-|value| below this after mean removal marks a constant (degenerate) segment
_DEGENERATE_EPS = 1e-30


class RecordFormatError(ValueError):
    """Raised when a record file violates the CSV or raw-binary format."""


@dataclass(frozen=True)
class SampleRecord:
    """Three equal-length sample channels with a common sample interval.

    Parameters
    ----------
    channels : ndarray, shape (3, n)
        Antenna channels in B, C, D order (dimensionless amplitude).
    sample_interval : float
        Seconds per sample, > 0.
    label : str
        Free-text tag carried through file round trips.
    """

    channels: np.ndarray
    sample_interval: float = DEFAULT_SAMPLE_INTERVAL
    label: str = ""

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.channels, dtype=np.float64))
        if arr.ndim != 2 or arr.shape[0] != 3:
            raise ValueError(f"expected 3 channels, got shape {arr.shape}")
        if not self.sample_interval > 0:
            raise ValueError(f"sample_interval must be > 0, got {self.sample_interval}")
        object.__setattr__(self, "channels", arr)

    @property
    def length(self) -> int:
        return self.channels.shape[1]

    @property
    def b(self) -> np.ndarray:
        return self.channels[0]

    @property
    def c(self) -> np.ndarray:
        return self.channels[1]

    @property
    def d(self) -> np.ndarray:
        return self.channels[2]


@dataclass(frozen=True)
class SegmentationPlan:
    """Sliding-window geometry: length, hop, and the derived window count."""

    window_length: int = DEFAULT_WINDOW_LENGTH
    hop: int = DEFAULT_HOP

    def __post_init__(self):
        if self.window_length < 2:
            raise ValueError("window_length must be at least 2")
        if self.hop < 1:
            raise ValueError("hop must be >= 1")

    def count(self, record_length: int) -> int:
        """Number of windows a record of `record_length` samples yields."""
        if record_length < self.window_length:
            raise ValueError(
                f"window length {self.window_length} exceeds record length {record_length}"
            )
        return (record_length - self.window_length) // self.hop + 1


@dataclass(frozen=True)
class Window:
    """One sliding-window view of a record (all three channels).

    `segments` has shape (3, window_length).  After `normalize_window` each
    non-constant segment has zero mean and max |value| 1; constant segments
    become all-zeros with the matching `degenerate` flag set.
    """

    index: int
    start: int
    segments: np.ndarray
    normalized: bool = False
    degenerate: tuple[bool, bool, bool] = (False, False, False)

    @property
    def length(self) -> int:
        return self.segments.shape[1]


def segment(record: SampleRecord, plan: SegmentationPlan) -> list[Window]:
    """Cut a record into overlapped windows of `plan.window_length` samples.

    Window i starts at ``i * hop``; samples are referenced unmodified.
    Raises ValueError when the window does not fit the record.
    """
    n = plan.count(record.length)
    w = plan.window_length
    return [
        Window(index=i, start=i * plan.hop, segments=record.channels[:, i * plan.hop : i * plan.hop + w])
        for i in range(n)
    ]


def normalize_window(window: Window) -> Window:
    """Zero-mean, max-|value|-1 normalization per channel segment.

    Constant segments, and segments holding a non-finite sample, cannot be
    scaled; they map to all-zeros and raise the per-channel degenerate flag
    instead of erroring.
    """
    if window.length < 2:
        raise ValueError("window must have at least 2 samples per segment")
    segs = window.segments.astype(np.float64, copy=True)
    with np.errstate(invalid="ignore"):  # inf - inf; such segments are flagged below
        segs -= segs.mean(axis=1, keepdims=True)
    peaks = np.max(np.abs(segs), axis=1)
    degenerate = ~((peaks >= _DEGENERATE_EPS) & (peaks < np.inf))  # NaN and inf too
    segs[degenerate] = 0.0
    safe = np.where(degenerate, 1.0, peaks)
    segs /= safe[:, None]
    return replace(
        window,
        segments=segs,
        normalized=True,
        degenerate=tuple(bool(f) for f in degenerate),
    )


# ----------------------------------------------------------------------
# File I/O
# ----------------------------------------------------------------------

def _detect_format(path: Path) -> str:
    return "raw-binary" if path.suffix in (".bin", ".raw", ".itfr") else "csv"


def load_record(path: str | Path, fmt: str | None = None) -> SampleRecord:
    """Load a 3-channel record; `fmt` is ``csv``/``raw-binary`` or inferred
    from the suffix (``.bin``/``.raw``/``.itfr`` are binary)."""
    path = Path(path)
    fmt = fmt or _detect_format(path)
    if fmt == "csv":
        return _load_csv(path)
    if fmt == "raw-binary":
        return _load_raw(path)
    raise ValueError(f"unknown record format {fmt!r}")


def save_record(record: SampleRecord, path: str | Path, fmt: str | None = None) -> Path:
    path = Path(path)
    fmt = fmt or _detect_format(path)
    if fmt == "csv":
        return _save_csv(record, path)
    if fmt == "raw-binary":
        return _save_raw(record, path)
    raise ValueError(f"unknown record format {fmt!r}")


def _load_csv(path: Path) -> SampleRecord:
    dt = None
    label = ""
    rows: list[tuple[float, float, float]] = []
    try:
        lines: Iterable[str] = path.read_text().splitlines()
    except OSError as exc:
        raise RecordFormatError(f"cannot read {path}: {exc}") from exc
    for ln, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("dt="):
                try:
                    dt = float(body[3:])
                except ValueError as exc:
                    raise RecordFormatError(f"{path}:{ln}: malformed dt header {body!r}") from exc
            elif body.startswith("label="):
                label = body[6:]
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise RecordFormatError(
                f"{path}:{ln}: channel count != 3 (got {len(parts)} columns)"
            )
        try:
            rows.append((float(parts[0]), float(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise RecordFormatError(f"{path}:{ln}: non-numeric sample") from exc
    if dt is None:
        raise RecordFormatError(f"{path}: missing '# dt=<seconds>' header")
    if dt <= 0:
        raise RecordFormatError(f"{path}: non-positive sample interval {dt}")
    if not rows:
        raise RecordFormatError(f"{path}: no sample rows")
    data = np.array(rows, dtype=np.float64).T
    return SampleRecord(channels=data, sample_interval=dt, label=label)


def _save_csv(record: SampleRecord, path: Path) -> Path:
    out = [f"# dt={float(record.sample_interval)!r}"]
    if record.label:
        out.append(f"# label={record.label}")
    b, c, d = (ch.tolist() for ch in record.channels)  # repr-shortest floats
    out.extend(f"{b[i]!r},{c[i]!r},{d[i]!r}" for i in range(record.length))
    path.write_text("\n".join(out) + "\n")
    return path


_HEADER = struct.Struct("<4sIf4x")  # magic, length, dt, reserved


def _load_raw(path: Path) -> SampleRecord:
    blob = path.read_bytes()
    if len(blob) < _HEADER.size:
        raise RecordFormatError(f"{path}: truncated header")
    magic, length, dt = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise RecordFormatError(f"{path}: bad magic {magic!r}")
    if dt <= 0:
        raise RecordFormatError(f"{path}: non-positive sample interval {dt}")
    expected = _HEADER.size + 3 * length * 4
    if len(blob) != expected:
        raise RecordFormatError(
            f"{path}: size {len(blob)} != {expected} for 3 channels x {length} samples"
        )
    flat = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size)
    channels = flat.reshape(3, length).astype(np.float64)
    return SampleRecord(channels=channels, sample_interval=float(dt))


def _save_raw(record: SampleRecord, path: Path) -> Path:
    header = _HEADER.pack(MAGIC, record.length, record.sample_interval)
    body = record.channels.astype("<f4").tobytes()
    path.write_bytes(header + body)
    return path
