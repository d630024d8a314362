"""Golden outputs: a seeded `simulate` record, its `map` CSV for every
correlation method and interpolation spec and its ccwd map under four wavelet
filters, a copy of the record with a NaN sample and a constant stretch mapped
at hop 3 by every correlation method, and a seeded `bench` report, as CSV and
as markdown table, stay byte-identical to the files committed under
``tests/golden/``.  The ccfd and ccwd maps stay so under OpenBLAS kernels
forced to other CPUs' (``OPENBLAS_CORETYPE``) as well, and every output stays
so with NumPy's AVX-512 dispatch targets switched off
(``NPY_DISABLE_CPU_FEATURES``).

Regenerate the files only when an output is meant to change:

    PYTHONPATH=src python tests/test_golden.py

It prints, for each file whose bytes change, how many rows changed and in
which columns.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np

from itfmap.cli import EXIT_OK, main
from itfmap.geometry import ArrayGeometry
from itfmap.signals import SampleRecord, load_record, save_record
from itfmap.simulate import make_track, save_truth, simulate_record
from itfmap.xcorr import CC_METHODS

GOLDEN = Path(__file__).parent / "golden"
RECORD = "rec.csv"
SIMULATE = ["--windows", "60", "--window", "128", "--hop", "1", "--seed", "11", "--snr-db", "20"]
INTERPS = ("none", "linear:2", "linear:8", "cubic:2", "cubic:8")
# the record with one NaN sample (in B) and one constant stretch (in D):
# windows covering either are skipped as degenerate
GAPS = "rec-gaps.csv"
GAPS_MAP = ["--window", "32", "--hop", "3", "--interp", "cubic:8"]
BENCH = ["--window", "128", "--hop", "32", "--records", "2", "--record-windows", "16", "--seed", "3"]
# the golden record denoised on every basis, under both threshold rules, then
# mapped by ccwd: pins the periodic DWT at full precision
WT_FILTERS = ("wt-sym4-sure", "wt-coif5-sure", "wt-db10-universal", "wt-fk14-universal")
WT_MAP = ["--cc", "ccwd", "--interp", "cubic:8", "--window", "128", "--hop", "1"]


def map_name(cc: str, interp: str) -> str:
    return f"map-{cc}-{interp.replace(':', 'x')}.csv"


OUTPUTS = (
    [RECORD, RECORD + ".truth.csv", "bench.csv", "bench.md"]
    + [map_name(cc, interp) for cc in CC_METHODS for interp in INTERPS]
    + [GAPS] + [f"map-gaps-{cc}.csv" for cc in CC_METHODS]
    + [f"map-{spec}-ccwd.csv" for spec in WT_FILTERS]
)


def make_gaps_record(source: Path, dest: Path) -> None:
    record = load_record(source)
    channels = record.channels.copy()
    channels[0, 30] = np.nan
    channels[2, 120:160] = 0.5
    save_record(SampleRecord(channels, record.sample_interval, record.label), dest)


def map_runs() -> list[tuple[str, list[str]]]:
    """(output, argv) of every golden map, run in the directory holding
    `RECORD` and `GAPS`."""
    runs = []
    for cc in CC_METHODS:
        for interp in INTERPS:
            runs.append((map_name(cc, interp), ["map", "--input", RECORD, "--output", map_name(cc, interp),
                                                "--cc", cc, "--interp", interp, "--window", "128", "--hop", "1"]))
    for cc in CC_METHODS:
        runs.append((f"map-gaps-{cc}.csv", ["map", "--input", GAPS, "--output", f"map-gaps-{cc}.csv", "--cc", cc,
                                            *GAPS_MAP]))
    for spec in WT_FILTERS:
        runs.append((f"map-{spec}-ccwd.csv", ["map", "--input", RECORD, "--output", f"map-{spec}-ccwd.csv",
                                              "--filter", spec, *WT_MAP]))
    return runs


def produce(workdir: Path) -> None:
    """Write every golden output into `workdir`.  Input paths given to the
    CLI are relative, so the header comments that echo them are the same
    anywhere."""
    here = Path.cwd()
    os.chdir(workdir)
    try:
        assert main(["simulate", "--output", RECORD, *SIMULATE]) == EXIT_OK
        make_gaps_record(Path(RECORD), Path(GAPS))
        for _, argv in map_runs():
            assert main(argv) == EXIT_OK
        assert main(["bench", "--output", "bench.csv", "--markdown", "bench.md", *BENCH]) == EXIT_OK
    finally:
        os.chdir(here)


@pytest.fixture(scope="module")
def produced(tmp_path_factory) -> Path:
    workdir = tmp_path_factory.mktemp("golden")
    produce(workdir)
    return workdir


def test_golden_set_is_complete():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(OUTPUTS)


@pytest.mark.parametrize("name", OUTPUTS)
def test_output_matches_golden(produced, name):
    assert (produced / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_library_recipe_writes_the_golden_record(tmp_path):
    # `simulate` with the SIMULATE settings, by the library alone
    track = make_track("random-walk", 60, seed=11, window_length=128, hop=1)
    sim = simulate_record(track, ArrayGeometry(), 4e-9, 11, 11, 20.0)
    save_record(sim.record, tmp_path / RECORD)
    save_truth(sim, tmp_path / (RECORD + ".truth.csv"))
    for name in (RECORD, RECORD + ".truth.csv"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


# OpenBLAS picks its dot-product kernels per CPU, and OPENBLAS_CORETYPE forces
# another CPU's.  ccfd and ccwd make no BLAS call, so their maps must not move;
# cctd still takes its correlation from BLAS (`np.correlate`), and its maps do
# move in the last digits of peak_coeff: these are left out.  The periodic DWT
# of the wt-* filters makes no BLAS call either.
FOREIGN_CORES = ("Haswell", "Prescott")
CROSS_CORE_MAPS = [name for name, _ in map_runs() if "-cctd" not in name]
NOT_YET_CROSS_CORE = [name for name, _ in map_runs() if name not in CROSS_CORE_MAPS]
CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from test_golden import core_name
from itfmap.cli import main
print(core_name())
for argv in json.loads(sys.argv[2]):
    if main(argv) != 0:
        sys.exit(f"{argv} failed")
"""


def core_name() -> str:
    """The CPU whose kernels this process's OpenBLAS uses, or "" when it
    cannot be read."""
    import ctypes
    import glob

    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            if hasattr(lib, symbol):
                getattr(lib, symbol).restype = ctypes.c_char_p
                return getattr(lib, symbol)().decode()
    return ""


def run_child(code: str, cwd: Path, *args: str, **env: str) -> str:
    """The standard output of `code` run by a fresh interpreter in `cwd`,
    with `env` added to its environment, the package source on its path and
    this directory as its first argument; a failing child fails the test."""
    path = os.pathsep.join([str(Path(__file__).resolve().parents[1] / "src"),
                            *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent), *args], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path, **env}, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def foreign_maps(tmp_path_factory) -> dict:
    """Per forced core type, the directory its child interpreter mapped the
    golden records in."""
    native, out, names = core_name(), {}, set()
    if not native:
        pytest.skip("cannot read this interpreter's OpenBLAS core name")
    argvs = json.dumps([argv for name, argv in map_runs() if name in CROSS_CORE_MAPS])
    for core in FOREIGN_CORES:
        out[core] = tmp_path_factory.mktemp(core)
        for name in (RECORD, GAPS):
            shutil.copy(GOLDEN / name, out[core] / name)
        names.add(run_child(CHILD, out[core], argvs, OPENBLAS_CORETYPE=core).splitlines()[0])
    if names == {native}:
        pytest.skip(f"this interpreter's OpenBLAS ignores OPENBLAS_CORETYPE (always {native})")
    return out


def test_cross_core_set_is_the_ccfd_and_ccwd_maps():
    assert len(CROSS_CORE_MAPS) == 16 and len(NOT_YET_CROSS_CORE) == 6
    assert all("-ccfd" in n or "-ccwd" in n for n in CROSS_CORE_MAPS)
    assert all("-cctd" in n for n in NOT_YET_CROSS_CORE)


@pytest.mark.parametrize("core", FOREIGN_CORES)
@pytest.mark.parametrize("name", CROSS_CORE_MAPS)
def test_map_matches_golden_on_foreign_blas_cores(foreign_maps, core, name):
    assert (foreign_maps[core] / name).read_bytes() == (GOLDEN / name).read_bytes(), f"{name} under {core}"


# NumPy picks its SIMD kernels per CPU as well, and NPY_DISABLE_CPU_FEATURES
# switches dispatch targets off.  With the AVX-512 ones off, as on an AVX2 CPU
# without AVX-512, every golden output must come out byte-identical.
AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
DISPATCH_CHILD = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from numpy._core._multiarray_umath import __cpu_features__
from test_golden import AVX512_TARGETS, produce
if any(__cpu_features__[target] for target in AVX512_TARGETS):
    sys.exit("NPY_DISABLE_CPU_FEATURES left an AVX-512 target on")
produce(Path.cwd())
"""


@pytest.fixture(scope="module")
def without_avx512(tmp_path_factory) -> Path:
    """The directory a child interpreter with NumPy's AVX-512 targets off
    wrote every golden output in."""
    workdir = tmp_path_factory.mktemp("without-avx512")
    run_child(DISPATCH_CHILD, workdir, NPY_DISABLE_CPU_FEATURES=" ".join(AVX512_TARGETS))
    return workdir


@pytest.mark.parametrize("name", OUTPUTS)
def test_output_matches_golden_without_avx512(without_avx512, name):
    assert (without_avx512 / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def describe_change(old: str, new: str) -> str:
    """The rows two versions of a golden table differ in, and the columns:
    named by the table's header line, or numbered when (as in a record CSV)
    the first line after the ``#`` comments is already a sample row.  A
    markdown row (one starting with ``|``) splits on ``|``, others on commas.
    A column whose changed fields are all numbers in both versions also gets
    its largest relative change, |new - old| / |old|."""
    def split(text):
        lines = text.splitlines()
        rows = [[f.strip() for f in line.strip("|").split("|")] if line.startswith("|") else line.split(",")
                for line in lines if not line.startswith("#")]
        header = rows.pop(0) if rows and not all(map(_is_number, rows[0])) else None
        return [line for line in lines if line.startswith("#")], header, rows

    (old_comments, old_header, old_rows), (new_comments, header, new_rows) = split(old), split(new)
    changed = [(a, b) for a, b in zip(old_rows, new_rows) if a != b]
    columns = sorted({i for a, b in changed for i in range(max(len(a), len(b)))
                      if i >= min(len(a), len(b)) or a[i] != b[i]})
    names = [header[i] if header and i < len(header) else f"column {i + 1}" for i in columns]
    for n, i in enumerate(columns):
        pairs = [(a[i], b[i]) for a, b in changed if i < min(len(a), len(b)) and a[i] != b[i]]
        if pairs and all(_is_number(f) for pair in pairs for f in pair):
            moves = [abs(float(b) - float(a)) / abs(float(a)) if float(a) else math.inf for a, b in pairs]
            names[n] += f" (largest relative change {max(moves):.1e})"
    parts = [f"{len(changed)} of {len(new_rows)} rows changed" + (f", in {', '.join(names)}" if names else "")]
    if len(old_rows) != len(new_rows):
        parts.append(f"row count {len(old_rows)} -> {len(new_rows)}")
    if old_header != header:
        parts.append("header line changed")
    if old_comments != new_comments:
        parts.append("comment lines changed")
    return "; ".join(parts)


def test_regeneration_names_the_changed_rows_and_columns():
    old = "# cc = ccwd\nwindow_index,peak_coeff,valid\n0,0.5,1\n1,0.25,1\n"
    assert describe_change(old, old.replace("0.25", "0.2500000000000001")) == (
        "1 of 2 rows changed, in peak_coeff (largest relative change 4.4e-16)")
    assert describe_change(old, old.replace("0.5,", "0.75,").replace("0.25", "0.2")) == (
        "2 of 2 rows changed, in peak_coeff (largest relative change 5.0e-01)")
    assert describe_change("# dt=4e-09\n1.0,2.0,3.0\n", "# dt=4e-09\n1.0,2.5,3.0\n4.0,5.0,6.0\n") == (
        "1 of 2 rows changed, in column 2 (largest relative change 2.5e-01); row count 1 -> 2")
    assert describe_change(old, old.replace("ccwd", "cctd")) == "0 of 2 rows changed; comment lines changed"
    table = "| filter | CCWD cubic x4 | CCWD cubic x8 |\n|---|---|---|\n| bpf | 1.00 | 2.00 |\n| kf | 3.00 | 4.00 |\n"
    assert describe_change(table, table.replace("4.00", "4.50")) == (
        "1 of 3 rows changed, in CCWD cubic x8 (largest relative change 1.2e-01)")
    # a number from or to zero moves infinitely far; a field that is no number has no figure
    assert describe_change(old, old.replace("0.5,1", "0.0,1")) == (
        "1 of 2 rows changed, in peak_coeff (largest relative change 1.0e+00)")
    assert describe_change(old.replace("0.5,1", "0.0,1"), old) == (
        "1 of 2 rows changed, in peak_coeff (largest relative change inf)")
    assert describe_change(old, old.replace("0.5,1", ",1")) == "1 of 2 rows changed, in peak_coeff"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    before = {name: (GOLDEN / name).read_text() for name in OUTPUTS if (GOLDEN / name).exists()}
    produce(GOLDEN)
    unchanged = 0
    for name in OUTPUTS:
        after = (GOLDEN / name).read_text()
        if name not in before:
            print(f"{name}: new file")
        elif after != before[name]:
            print(f"{name}: {describe_change(before[name], after)}")
        else:
            unchanged += 1
    print(f"{unchanged} of {len(OUTPUTS)} files unchanged")
    sys.exit(0)
