"""Properties: `itfmap map` ends every hostile input in a documented exit
code, and `itfmap simulate` either writes its record or rejects its settings
with exit 3 before writing anything.

Records are small and generated from a few drawn parameters: records shorter
than the window, constant channels, NaN and inf samples, magnitudes near
1e300, truncated or garbled raw-binary headers, malformed CSV headers and a
hop larger than the record.  Simulate settings mix valid values with NaN,
infinities, out-of-range angles, non-positive augmentation and unknown track
kinds and formats.
"""

import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from itfmap.cli import main
from itfmap.signals import MAGIC

DOCUMENTED = {0, 3, 4, 5, 6}
SPECIALS = [np.nan, np.inf, -np.inf, 1e300, -1e300, 0.0]
CSV_DAMAGE = ["no-dt", "dt=0", "dt=-1", "dt=nan", "dt=inf", "dt=x", "two-columns", "text-sample"]
RAW_DAMAGE = ["magic", "length+1", "length-1", "length-huge", "dt=0", "dt=nan", "dt=inf",
              "cut-0", "cut-3", "cut-15", "cut-17"]


def record_file(data: np.ndarray, csv: bool, damage: str | None = None) -> tuple[str, bytes]:
    """(file suffix, file bytes) of a (3, n) record, one part of the file
    damaged as `damage` names."""
    n = data.shape[1]
    dt = {"dt=0": 0.0, "dt=-1": -1.0, "dt=nan": np.nan, "dt=inf": np.inf}.get(damage, 4e-9)
    if csv:
        rows = [f"{b!r},{c!r},{d!r}" for b, c, d in data.T.tolist()]
        if rows and damage in ("two-columns", "text-sample"):
            rows[n // 2] = "1,2" if damage == "two-columns" else "a,b,c"
        header = {"no-dt": "", "dt=x": "# dt=x"}.get(damage, f"# dt={dt!r}")
        return ".csv", "\n".join([header, *rows]).encode() + b"\n"
    magic = b"ITFX" if damage == "magic" else MAGIC
    length = {"length+1": n + 1, "length-1": max(n - 1, 0), "length-huge": 2**32 - 1}.get(damage, n)
    with np.errstate(over="ignore"):  # 1e300 samples become inf in f32, as a capture could hold
        body = data.astype("<f4").tobytes()
    blob = struct.pack("<4sIf4x", magic, length, dt) + body
    if damage and damage.startswith("cut-"):
        blob = blob[: int(damage[4:])]
    return ".bin", blob


def clean(n: int) -> np.ndarray:
    return np.random.default_rng(n).normal(size=(3, n))


@st.composite
def records(draw):
    n = draw(st.sampled_from([160, 130, 70, 15, 1, 0]))
    scale = draw(st.sampled_from([1.0, 1e-300, 1e300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    data = rng.normal(size=(3, n)) * scale
    for ch in draw(st.sets(st.integers(0, 2), max_size=3)):
        data[ch] = draw(st.sampled_from([0.0, 1.0, 1e300]))  # constant channel
    if n:
        for _ in range(draw(st.integers(0, 4))):
            ch, i = draw(st.integers(0, 2)), draw(st.integers(0, n - 1))
            data[ch, i] = draw(st.sampled_from(SPECIALS))
    csv = draw(st.booleans())
    # two draws in three leave the file intact
    damage = draw(st.one_of(st.none(), st.none(), st.sampled_from(CSV_DAMAGE if csv else RAW_DAMAGE)))
    return record_file(data, csv, damage)


@settings(max_examples=100, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    record=records(),
    window=st.sampled_from([16, 64, 2]),
    hop=st.sampled_from([1, 5, 10_000]),
    filt=st.sampled_from(["none", "bpf", "kf", "wt-sym4-sure"]),
    cc=st.sampled_from(["cctd", "ccfd", "ccwd"]),
    interp=st.sampled_from(["none", "linear:2", "cubic:8"]),
    writable=st.sampled_from([True, True, True, False]),
)
# a record shorter than the band-pass filter's edge padding
@example(record=record_file(clean(15), csv=True), window=2, hop=1, filt="bpf",
         cc="cctd", interp="none", writable=True)
# a window too short for the wavelet levels of ccwd
@example(record=record_file(clean(70), csv=False), window=2, hop=1, filt="none",
         cc="ccwd", interp="cubic:8", writable=True)
def test_map_exits_with_a_documented_code(record, window, hop, filt, cc, interp, writable):
    suffix, blob = record
    with tempfile.TemporaryDirectory() as tmp:
        inp = Path(tmp) / f"rec{suffix}"
        inp.write_bytes(blob)
        out = Path(tmp) / ("map.csv" if writable else "missing/map.csv")
        code = main([
            "map", "--input", str(inp), "--output", str(out), "--window", str(window),
            "--hop", str(hop), "--filter", filt, "--cc", cc, "--interp", interp,
        ])
    assert code in DOCUMENTED


# flag values: "=" keeps argparse from reading a leading "-" as an option
SNR_VALUES = ["20", "0", "-30", "3000", "inf", "-inf", "nan", "1e308", "-1e308"]
ANGLE_VALUES = ["0", "45", "90", "359.5", "-720", "95", "-5", "nan", "inf", "-inf", "1e308"]
AUGMENT_VALUES = ["0", "1", "1.5", "1e300", "-1", "nan", "inf"]


def setting(values):
    """A flag value drawn from `values`, or (two draws in three) no flag."""
    return st.one_of(st.none(), st.none(), st.sampled_from(values))


@settings(max_examples=100, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    snr=setting(SNR_VALUES),
    track=setting(["constant", "linear-sweep", "random-walk", "spiral"]),
    angles=st.fixed_dictionaries({k: setting(ANGLE_VALUES) for k in ("az", "el", "az-end", "el-end")}),
    augment=st.fixed_dictionaries({k: setting(AUGMENT_VALUES) for k in ("augment-noise-sigma", "augment-scale")}),
    flip=st.booleans(),
    fmt=setting(["csv", "raw-binary", "xml"]),
)
def test_simulate_writes_or_rejects_its_settings(snr, track, angles, augment, flip, fmt):
    flags = {"snr-db": snr, "track": track, "format": fmt, **angles, **augment}
    argv = [f"--{k}={v}" for k, v in flags.items() if v is not None] + ["--augment-flip"] * flip
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "rec.csv"
        code = main(["simulate", "--output", str(out), "--window", "16", "--hop", "4", "--windows", "4", *argv])
        written = sorted(p.name for p in Path(tmp).iterdir())
    assert code in (0, 3)
    assert written == (["rec.csv", "rec.csv.truth.csv"] if code == 0 else [])
