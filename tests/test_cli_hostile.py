"""Properties: `itfmap map` ends every hostile input in a documented exit
code, `itfmap simulate` either writes its record or rejects its settings
with exit 3 before writing anything, and `itfmap plot` rejects a damaged
map CSV with exit 4 and otherwise writes an SVG that parses as XML.

Records are small and generated from a few drawn parameters: records shorter
than the window, constant channels, NaN and inf samples, magnitudes near
1e300, truncated or garbled raw-binary headers, malformed CSV headers and a
hop larger than the record.  Simulate settings mix valid values with NaN,
infinities, out-of-range angles, non-positive augmentation and unknown track
kinds and formats.  Map CSVs lose or change their header, gain or lose a
field, carry text in a number field, a valid field other than 0/1, or valid
rows with empty, non-finite or out-of-range angles, under file names holding
``&``, ``<`` and ``"``.  ccwd, which filters the raw samples a block of
windows covers, maps a large DC offset, near-overflow samples and
non-finite samples next to valid windows with the lags of the one-window
forms.
"""

import struct
import tempfile
import warnings
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from itfmap.cli import main
from itfmap.geometry import ArrayGeometry
from itfmap.pipeline import correlate_window, window_peaks
from itfmap.signals import MAGIC, SegmentationPlan, load_record, normalize_window, segment
from itfmap.simulate import make_track, simulate_record

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


def hostile_ccwd_record(kind: str) -> np.ndarray:
    """A noisy 316-sample simulated record made hostile as `kind` names: a
    DC offset of 1e6 times its amplitude on every channel, samples of about
    2**1000 with two runs of +-0.9 times the largest float (whose unscaled
    wavelet details overflow), or NaN and inf samples in all three channels
    just before the window that starts at sample 41."""
    track = make_track("linear-sweep", 64, window_length=64, hop=4)
    data = simulate_record(track, ArrayGeometry(), 4e-9, 5, 5, 20.0).record.channels.copy()
    if kind == "dc-offset":
        data += 1e6 * np.abs(data).max()
    elif kind == "near-overflow":
        data *= 2.0**1000
        big = 0.9 * np.finfo(np.float64).max
        data[0, 100:106] = data[1, 180:186] = big * (-1.0) ** np.arange(6)
    else:
        data[0, 40], data[1, 38], data[2, 40] = np.nan, np.inf, -np.inf
    return data


@pytest.mark.parametrize("hop", [1, 5, 70])
@pytest.mark.parametrize("kind", ["dc-offset", "near-overflow", "non-finite"])
def test_ccwd_maps_hostile_samples_as_the_per_window_form(capsys, kind, hop):
    """ccwd exits 0 on each hostile record, with no traceback and no
    RuntimeWarning, and its integer lags are those of the one-window forms."""
    data = hostile_ccwd_record(kind)
    plan = SegmentationPlan(64, hop)
    with tempfile.TemporaryDirectory() as tmp:
        inp = Path(tmp) / "rec.csv"
        inp.write_bytes(record_file(data, csv=True)[1])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["map", "--input", str(inp), "--output", str(Path(tmp) / "map.csv"), "--window", "64",
                         "--hop", str(hop), "--cc", "ccwd", "--interp", "none"])
        record = load_record(inp)
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    np.testing.assert_array_equal(record.channels, data)
    wp = window_peaks(record, plan, ["ccwd"])["ccwd"]
    pairs = [correlate_window(normalize_window(w), "ccwd", 4e-9) for w in segment(record, plan)]
    np.testing.assert_array_equal(wp.index, [i for i, pair in enumerate(pairs) if pair is not None])
    np.testing.assert_array_equal(wp.peaks.lag, [s.peak()[0] for pair in pairs if pair for s in pair])
    if kind == "non-finite" and hop == 1:
        assert wp.index[0] == 41


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


MAP_DAMAGE = ["no-header", "foreign-header", "extra-field", "missing-field", "text-index", "huge-index",
              "text-time", "text-peak", "valid=2", "valid=true"]
GOOD_AZ = ["0.0", "123.456", "359.9", "360.0"]
GOOD_EL = ["0.0", "45.5", "90.0"]
BAD_ANGLES = ["", "nan", "inf", "-inf", "-0.5", "360.5", "90.5", "1e308", "abc"]
NAMES = ["map.csv", "a&b<c.csv", 'say "hi".csv', "<svg>&amp;'.csv"]


def in_range(text: str, top: float) -> bool:
    try:
        return 0.0 <= float(text) <= top
    except ValueError:
        return False


@st.composite
def map_rows(draw):
    """(valid, azimuth text, elevation text) rows; invalid rows leave their
    angles empty as `write_map_csv` does, or carry text the reader ignores."""
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            # two draws in three pick an angle in range
            az = draw(st.one_of(st.sampled_from(GOOD_AZ), st.sampled_from(GOOD_AZ), st.sampled_from(BAD_ANGLES)))
            el = draw(st.one_of(st.sampled_from(GOOD_EL), st.sampled_from(GOOD_EL), st.sampled_from(BAD_ANGLES)))
            rows.append((True, az, el))
        else:
            rows.append((False, *draw(st.sampled_from([("", ""), ("", ""), ("nan", "x")]))))
    return rows


def map_file(rows, damage: str | None) -> str:
    """Map CSV text of `rows`, with one part damaged as `damage` names."""
    lines = [f"{i},{i * 4e-9!r},{az},{el},0.5,{int(ok)}".split(",") for i, (ok, az, el) in enumerate(rows)]
    first = lines[0]
    if damage == "extra-field":
        first.append("0")
    elif damage == "missing-field":
        first.pop()
    elif damage in ("text-index", "huge-index", "text-time", "text-peak", "valid=2", "valid=true"):
        field = {"text-index": 0, "huge-index": 0, "text-time": 1, "text-peak": 4}.get(damage, 5)
        first[field] = {"text-index": "x", "huge-index": "9" * 24, "valid=2": "2", "valid=true": "true"}.get(damage, "t")
    header = {"no-header": [], "foreign-header": ["window,time_s,azimuth_deg,elevation_deg,peak_coeff,valid"]}.get(
        damage, ["window_index,time_s,azimuth_deg,elevation_deg,peak_coeff,valid"])
    return "\n".join(["# cc = cctd", *header, *(",".join(line) for line in lines)]) + "\n"


@settings(max_examples=100, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    rows=map_rows(),
    damage=st.sampled_from([None, *MAP_DAMAGE]),
    name=st.sampled_from(NAMES),
)
@example(rows=[(True, "10.0", "20.0")], damage=None, name="a&b<c.csv")
@example(rows=[(True, "nan", "inf")], damage=None, name="map.csv")
def test_plot_rejects_damaged_maps_and_writes_only_parsable_svg(rows, damage, name):
    """A damaged map or a valid row with angles that are not finite and in
    [0, 360] x [0, 90] exits 4; a map with no valid row exits 6; any other
    map exits 0 with one circle per valid row, under the file name escaped."""
    bad_angles = any(ok and not (in_range(az, 360.0) and in_range(el, 90.0)) for ok, az, el in rows)
    expected = 4 if damage or bad_angles else 0 if any(ok for ok, _, _ in rows) else 6
    with tempfile.TemporaryDirectory() as tmp:
        inp, svg = Path(tmp) / name, Path(tmp) / "map.svg"
        inp.write_text(map_file(rows, damage))
        code = main(["plot", "--input", str(inp), "--output", str(svg)])
        doc = xml.dom.minidom.parse(str(svg)) if code == 0 else None
        assert svg.exists() == (code == 0)
    assert code == expected
    if doc is not None:
        assert doc.getElementsByTagName("text")[0].firstChild.data == name
        assert len(doc.getElementsByTagName("circle")) == sum(ok for ok, _, _ in rows)
