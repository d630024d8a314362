"""The benchmark's workloads: inputs made from a seed, the operations run in
a closed loop through ``itfmap.cli.main``, and the gate every operation's
output must pass.

``map-hop1``     one hop-1 CSV record, mapped once per ``--cc`` at cubic:8.
``bench-grid``   ``itfmap bench`` on the default 240-cell grid.
``denoise-long`` one raw-binary record of about 1M samples per channel,
                 mapped at hop 4096 once per filter.

``full`` is the measured size; ``tiny`` runs the same operations on small
inputs, for the benchmark's own tests.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WINDOW = 256
SNR_DB = 20
# a fixed track: the seed draws the waveform and the noise.  A random walk
# drifts towards the zenith or the horizon on some seeds, where the angular
# error of the current code is several times larger, so the error would
# measure the seed rather than the code
TRACK = ["--track", "linear-sweep", "--az", "120", "--el", "45", "--az-end", "150", "--el-end", "55"]
MAP_METHODS = ("cctd", "ccfd", "ccwd")
LONG_FILTERS = ("bpf", "kf", "wt-sym4-sure", "wt-coif5-sure", "wt-fk14-universal")
# the default grid of `itfmap bench`: 10 filters x 3 methods x 2 interp x 4 factors
GRID_METHODS = {"cctd", "ccfd", "ccwd"}
GRID_INTERP = {"linear", "cubic"}
GRID_FACTORS = {1, 2, 4, 8}
GRID_FILTERS = 10
GRID_CELLS = 240
# the bench gate scores the cells of these filters; the wavelet filters' cell
# means swing by tens of degrees between seeds
GATE_FILTERS = ("bpf", "kf")

_MAP_SUMMARY = re.compile(r": (\d+) windows, (\d+) valid, (\d+) degenerate")


@dataclass(frozen=True)
class Op:
    """One ``itfmap`` invocation; `cc` names the correlation method of a map."""

    label: str
    argv: list[str]
    output: Path
    cc: str | None = None


@dataclass(frozen=True)
class Outcome:
    """The gate's verdict on one operation, and what it scored.

    `error_deg` is itfmap's own score (`map_error`, or the mean of the
    report's scored cells); `gate_error_deg` is the figure the gate compares
    with the operation's reference: `error_deg` for a map, the mean of the
    `GATE_FILTERS` cells for a bench report.
    """

    ok: bool
    error_deg: float
    gate_error_deg: float
    valid: int
    windows: int
    nan_cells: int = 0
    reason: str = ""


def failed(reason: str) -> Outcome:
    return Outcome(False, math.nan, math.nan, 0, 0, reason=reason)



def read_map_rows(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(window index, azimuth, elevation, valid) of a map CSV; angles of
    invalid rows are NaN."""
    idx, az, el, valid = [], [], [], []
    for line in path.read_text().splitlines():
        if not line or line.startswith("#") or line.startswith("window_index"):
            continue
        i, _t, a, e, _peak, v = line.split(",")
        idx.append(int(i))
        az.append(float(a) if a else math.nan)
        el.append(float(e) if e else math.nan)
        valid.append(v == "1")
    return np.array(idx, dtype=np.int64), np.array(az), np.array(el), np.array(valid, dtype=bool)


def read_truth(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(azimuth, elevation) per window of a ground-truth sidecar."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 1], data[:, 2]


class Workload:
    name = ""
    sizes: dict[str, dict[str, int]] = {}

    def __init__(self, size: str, seed: int, reference: dict[str, float], tolerance: float):
        self.seed = seed
        self.params = self.sizes[size]
        self.reference = reference
        self.tolerance = tolerance
        self.workdir = Path()

    def generate(self, cli_main, dest: Path) -> list[Path]:
        """Write the inputs under `dest` and return the files written."""
        return []

    def prepare(self, inputs: Path, workdir: Path) -> None:
        """Read what the gate needs from the inputs under `inputs`; outputs
        go to `workdir`."""
        self.workdir = workdir

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, rc: int, stdout: str) -> Outcome:
        raise NotImplementedError

    @property
    def windows_per_round(self) -> int:
        raise NotImplementedError

    @property
    def samples_per_round(self) -> int:
        """Channel samples pushed through the chain in one round."""
        raise NotImplementedError

    def _error_reason(self, label: str, error: float) -> str:
        """Why `error` fails the gate, or "" when it passes."""
        ref = self.reference.get(label)
        if ref is not None and error > ref * (1.0 + self.tolerance):  # False for NaN: nothing scored
            return f"error {error:.4f} deg above reference {ref:.4f} deg + {self.tolerance:.0%}"
        return ""


class _MapWorkload(Workload):
    """Simulate one record, then map it with several settings."""

    suffix = ".csv"
    sim_hop = 1
    map_hop = 1

    def _simulate_argv(self, out: Path) -> list[str]:
        return [
            "simulate", "--output", str(out), "--windows", str(self.params["windows"]),
            "--window", str(WINDOW), "--hop", str(self.sim_hop), "--seed", str(self.seed),
            "--snr-db", str(SNR_DB), *TRACK,
        ]

    @property
    def record_samples(self) -> int:
        return (self.params["windows"] - 1) * self.sim_hop + WINDOW

    @property
    def windows_per_round(self) -> int:
        return self.map_windows * len(self.ops())

    @property
    def samples_per_round(self) -> int:
        return 3 * self.record_samples * len(self.ops())

    @property
    def map_windows(self) -> int:
        return (self.record_samples - WINDOW) // self.map_hop + 1

    def generate(self, cli_main, dest: Path) -> list[Path]:
        dest.mkdir(parents=True, exist_ok=True)
        rec = dest / f"rec{self.suffix}"
        rc = cli_main(self._simulate_argv(rec))
        if rc != 0:
            raise RuntimeError(f"itfmap simulate exited with {rc}")
        return [rec, rec.with_suffix(rec.suffix + ".truth.csv")]

    def prepare(self, inputs: Path, workdir: Path) -> None:
        super().prepare(inputs, workdir)
        self.record = inputs / f"rec{self.suffix}"
        az, el = read_truth(self.record.with_suffix(self.record.suffix + ".truth.csv"))
        # truth is per simulated window; map window i starts at i * map_hop
        stride = self.map_hop // self.sim_hop
        self.truth_az = az[::stride][: self.map_windows]
        self.truth_el = el[::stride][: self.map_windows]

    def _map_op(self, label: str, cc: str, interp: str, filt: str) -> Op:
        out = self.workdir / f"{label}.csv"
        argv = [
            "map", "--input", str(self.record), "--output", str(out),
            "--cc", cc, "--interp", interp, "--filter", filt,
            "--window", str(WINDOW), "--hop", str(self.map_hop),
        ]
        return Op(label, argv, out, cc)

    def check(self, op: Op, rc: int, stdout: str) -> Outcome:
        from itfmap.evaluate import map_error_stats
        from itfmap.simulate import AngleTrack

        if rc != 0:
            return failed(f"exit code {rc}")
        m = _MAP_SUMMARY.search(stdout)
        if m is None:
            return failed("no summary line")
        total, degenerate = int(m.group(1)), int(m.group(3))
        if total != self.map_windows:
            return failed(f"{total} windows, expected {self.map_windows}")
        idx, az, el, valid = read_map_rows(op.output)
        if len(idx) != total - degenerate:
            return failed(f"{len(idx)} rows, expected {total} - {degenerate} degenerate")
        if np.any(np.diff(idx) <= 0) or (len(idx) and (idx[0] < 0 or idx[-1] >= total)):
            return failed("window indices not increasing within the record")
        if not np.all(np.isfinite(az[valid]) & np.isfinite(el[valid])):
            return failed("non-finite angle on a valid row")
        est_az = np.zeros(total)
        est_el = np.zeros(total)
        mask = np.zeros(total, dtype=bool)
        est_az[idx[valid]] = az[valid]
        est_el[idx[valid]] = el[valid]
        mask[idx[valid]] = True
        n_valid = int(mask.sum())
        error = math.nan
        if n_valid:
            error = map_error_stats(
                AngleTrack(est_az, est_el, WINDOW, self.map_hop, valid=mask),
                AngleTrack(self.truth_az, self.truth_el, WINDOW, self.map_hop),
            ).mean_deg
        reason = self._error_reason(op.label, error)
        return Outcome(not reason, error, error, n_valid, total, reason=reason)


class MapHop1(_MapWorkload):
    name = "map-hop1"
    sizes = {"full": {"windows": 2000}, "tiny": {"windows": 40}}

    def ops(self) -> list[Op]:
        return [self._map_op(f"map.{cc}", cc, "cubic:8", "none") for cc in MAP_METHODS]


class DenoiseLong(_MapWorkload):
    name = "denoise-long"
    sizes = {"full": {"windows": 4096}, "tiny": {"windows": 64}}
    suffix = ".bin"
    # synthesized at hop = window so every sample of C and D is written
    sim_hop = WINDOW
    map_hop = 4096

    def ops(self) -> list[Op]:
        return [self._map_op(f"map.{f}", "cctd", "none", f) for f in LONG_FILTERS]


class BenchGrid(Workload):
    name = "bench-grid"
    sizes = {"full": {"records": 2, "windows": 120}, "tiny": {"records": 1, "windows": 12}}
    hop = 32

    @property
    def record_samples(self) -> int:
        return (self.params["windows"] - 1) * self.hop + WINDOW

    def ops(self) -> list[Op]:
        out = self.workdir / "report.csv"
        argv = [
            "bench", "--output", str(out), "--window", str(WINDOW), "--hop", str(self.hop),
            "--records", str(self.params["records"]),
            "--record-windows", str(self.params["windows"]), "--seed", str(self.seed),
        ]
        return [Op("bench", argv, out)]

    @property
    def windows_per_round(self) -> int:
        # every window of every record is correlated once per filter x method
        return self.params["records"] * self.params["windows"] * GRID_FILTERS * len(GRID_METHODS)

    @property
    def samples_per_round(self) -> int:
        return 3 * self.record_samples * self.params["records"] * GRID_FILTERS

    def check(self, op: Op, rc: int, stdout: str) -> Outcome:
        if rc != 0:
            return failed(f"exit code {rc}")
        keys, filters, dist, records, excluded = set(), [], [], [], []
        for line in op.output.read_text().splitlines():
            if not line or line.startswith("#") or line.startswith("filter,"):
                continue
            f, m, im, fa, d, r, e = line.split(",")
            if m not in GRID_METHODS or im not in GRID_INTERP or int(fa) not in GRID_FACTORS:
                return failed(f"unexpected cell {line!r}")
            keys.add((f, m, im, int(fa)))
            filters.append(f)
            dist.append(float(d))  # 'nan' parses: a cell with no scored record
            records.append(int(r))
            excluded.append(int(e))
        if len(dist) != GRID_CELLS or len(keys) != GRID_CELLS:
            return failed(f"{len(dist)} report rows ({len(keys)} distinct), expected {GRID_CELLS}")
        dist_a = np.array(dist)
        finite = np.isfinite(dist_a)
        if np.any(finite != (np.array(records) > 0)):
            return failed("a cell's distance and its scored-record count disagree")
        per_cell = self.params["records"] * self.params["windows"]
        scored = GRID_CELLS * per_cell - sum(excluded)
        error = float(dist_a[finite].mean()) if finite.any() else math.nan
        gated = finite & np.isin(filters, GATE_FILTERS)
        gate_error = float(dist_a[gated].mean()) if gated.any() else math.nan
        reason = self._error_reason(op.label, gate_error)
        return Outcome(
            not reason, error, gate_error, scored, GRID_CELLS * per_cell,
            nan_cells=int((~finite).sum()), reason=reason,
        )


WORKLOADS = {w.name: w for w in (MapHop1, BenchGrid, DenoiseLong)}
