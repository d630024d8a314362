"""Waveform records, sliding-window segmentation and window normalization.

A record holds the three synchronized antenna channels (B, C, D) of one
crossed-baseline interferometer capture.  Two on-disk formats are supported:

* CSV: comment headers ``# dt=<seconds>`` and ``# label=<text>``, then one
  ``b,c,d`` row of decimal floats per sample.
* raw binary: 16-byte header (magic ``ITFR``, u32 sample count, f32 sample
  interval, 4 reserved bytes; little-endian), then the three channels as
  little-endian f32, channel-major.

Result tables (map, elevation series, benchmark report, ground-truth
sidecar) share one CSV layout, written by `write_table` and read by
`read_table`: ``# `` comment lines, one header line, then comma rows.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

MAGIC = b"ITFR"
DEFAULT_SAMPLE_INTERVAL = 4e-9
SIGNAL_BAND = (40e6, 80e6)  # Hz, the VHF band of the analog front end
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
        Antenna channels in B, C, D order (dimensionless amplitude), held
        as C-contiguous float64 whatever layout they are given in.
    sample_interval : float
        Seconds per sample, finite and > 0.
    label : str
        Free-text tag carried through file round trips.
    """

    channels: np.ndarray
    sample_interval: float = DEFAULT_SAMPLE_INTERVAL
    label: str = ""

    def __post_init__(self):
        arr = np.atleast_2d(np.ascontiguousarray(self.channels, dtype=np.float64))
        if arr.ndim != 2 or arr.shape[0] != 3:
            raise ValueError(f"expected 3 channels, got shape {arr.shape}")
        if not 0 < self.sample_interval < np.inf:
            raise ValueError(f"sample_interval must be finite and > 0, got {self.sample_interval}")
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
    degenerate, _ = normalize_segments(segs)
    return replace(window, segments=segs, degenerate=tuple(bool(f) for f in degenerate))


def normalize_segments(segments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`normalize_window` of float64 segments along their last axis, in
    place; returns the degenerate flag of every segment and the peak it was
    divided by (1.0 where degenerate)."""
    with np.errstate(invalid="ignore"):  # inf - inf; such segments are flagged below
        segments -= segments.mean(axis=-1, keepdims=True)
    peaks = np.max(np.abs(segments), axis=-1)
    degenerate = ~((peaks >= _DEGENERATE_EPS) & (peaks < np.inf))  # NaN and inf too
    segments[degenerate] = 0.0
    peaks[degenerate] = 1.0
    segments /= peaks[..., None]
    return degenerate, peaks


# ----------------------------------------------------------------------
# File I/O: result tables, and records as CSV or raw binary
# ----------------------------------------------------------------------

def write_table(path: str | Path, header: str, rows: Iterable[str], comments: Iterable[str] = ()) -> Path:
    """A result table: one ``# `` line per comment, the `header` line, then
    the comma-separated `rows`; every line ends with a newline."""
    path = Path(path)
    path.write_text("\n".join([*(f"# {c}" for c in comments), header, *rows]) + "\n")
    return path


def read_table(path: str | Path, header: str) -> list[list[str]]:
    """The field lists of the rows of a `write_table` table.  Blank and
    ``#`` lines are skipped; ValueError unless the first other line is
    `header` and every row has as many fields as it."""
    lines = [s for s in (line.strip() for line in Path(path).read_text().splitlines()) if s and s[0] != "#"]
    if not lines or lines[0] != header:
        raise ValueError(f"expected the header {header!r}, found {lines[0] if lines else 'none'!r}")
    rows = [line.split(",") for line in lines[1:]]
    width = header.count(",") + 1
    for n, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ValueError(f"row {n} has {len(row)} fields, the header {width}")
    return rows


def record_format(path: str | Path, fmt: str | None = None) -> str:
    """`fmt`, or the format the suffix of `path` implies (``.bin``/``.raw``/
    ``.itfr`` are binary); ValueError unless ``csv`` or ``raw-binary``."""
    fmt = fmt or ("raw-binary" if Path(path).suffix in (".bin", ".raw", ".itfr") else "csv")
    if fmt not in ("csv", "raw-binary"):
        raise ValueError(f"unknown record format {fmt!r}")
    return fmt


def load_record(path: str | Path, fmt: str | None = None) -> SampleRecord:
    """Load a 3-channel record in `record_format(path, fmt)`."""
    path = Path(path)
    return _load_csv(path) if record_format(path, fmt) == "csv" else _load_raw(path)


def save_record(record: SampleRecord, path: str | Path, fmt: str | None = None) -> Path:
    path = Path(path)
    return _save_csv(record, path) if record_format(path, fmt) == "csv" else _save_raw(record, path)


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
    if not 0 < dt < np.inf:
        raise RecordFormatError(f"{path}: non-positive or non-finite sample interval {dt}")
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
    dt = float(str(np.float32(dt)))  # its f32's shortest decimal: 4e-09 as written, not 3.999999886872274e-09
    if not 0 < dt < np.inf:
        raise RecordFormatError(f"{path}: non-positive or non-finite sample interval {dt}")
    expected = _HEADER.size + 3 * length * 4
    if len(blob) != expected:
        raise RecordFormatError(
            f"{path}: size {len(blob)} != {expected} for 3 channels x {length} samples"
        )
    flat = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size)
    channels = flat.reshape(3, length).astype(np.float64)
    return SampleRecord(channels=channels, sample_interval=dt)


def _save_raw(record: SampleRecord, path: Path) -> Path:
    """Raw binary; a finite sample too large for f32 raises ValueError and
    nothing is written (NaN and inf samples are written as themselves)."""
    header = _HEADER.pack(MAGIC, record.length, record.sample_interval)
    with np.errstate(over="ignore"):  # an overflow is rejected below
        body = record.channels.astype("<f4")
    big = record.channels[np.isinf(body) & np.isfinite(record.channels)]
    if big.size:
        raise ValueError(f"{path}: sample {big[0]:g} does not fit the f32 samples of raw binary")
    path.write_bytes(header + body.tobytes())
    return path
