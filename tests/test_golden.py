"""Golden outputs: a seeded `simulate` record, its `map` CSV for every
correlation method and interpolation spec, a copy of the record with a NaN
sample and a constant stretch mapped at hop 3 by every correlation method,
and a seeded `bench` report stay byte-identical to the files committed under
``tests/golden/``.

Regenerate the files only when an output is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

import numpy as np

from itfmap.cli import EXIT_OK, main
from itfmap.signals import SampleRecord, load_record, save_record
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


def map_name(cc: str, interp: str) -> str:
    return f"map-{cc}-{interp.replace(':', 'x')}.csv"


OUTPUTS = (
    [RECORD, RECORD + ".truth.csv", "bench.csv"]
    + [map_name(cc, interp) for cc in CC_METHODS for interp in INTERPS]
    + [GAPS] + [f"map-gaps-{cc}.csv" for cc in CC_METHODS]
)


def make_gaps_record(source: Path, dest: Path) -> None:
    record = load_record(source)
    channels = record.channels.copy()
    channels[0, 30] = np.nan
    channels[2, 120:160] = 0.5
    save_record(SampleRecord(channels, record.sample_interval, record.label), dest)


def produce(workdir: Path) -> None:
    """Write every golden output into `workdir`.  Paths given to the CLI are
    relative, so the header comments that echo them are the same anywhere."""
    here = Path.cwd()
    os.chdir(workdir)
    try:
        assert main(["simulate", "--output", RECORD, *SIMULATE]) == EXIT_OK
        for cc in CC_METHODS:
            for interp in INTERPS:
                argv = ["map", "--input", RECORD, "--output", map_name(cc, interp),
                        "--cc", cc, "--interp", interp, "--window", "128", "--hop", "1"]
                assert main(argv) == EXIT_OK
        make_gaps_record(Path(RECORD), Path(GAPS))
        for cc in CC_METHODS:
            argv = ["map", "--input", GAPS, "--output", f"map-gaps-{cc}.csv", "--cc", cc, *GAPS_MAP]
            assert main(argv) == EXIT_OK
        assert main(["bench", "--output", "bench.csv", *BENCH]) == EXIT_OK
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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    produce(GOLDEN)
    sys.exit(0)
