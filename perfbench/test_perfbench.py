"""Tests of the benchmark itself: tiny runs of every workload pass the gate,
tracing leaves the package as it found it, and metric names are well formed.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_cli(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_passes_gate(workload):
    proc = run_cli(
        ["--workload", workload, "--seed", "1", "--seconds", "0.2", "--trace", "0", "--size", "tiny"],
        run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == END_TO_END
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


def test_traced_run_restores_every_binding():
    result = run.measure("map-hop1", seed=1, seconds=0.2, trace=True, size="tiny")
    assert result.correct
    assert sorted(result.metrics) == sorted(PER_LAYER)
    bound = {(mod.__name__, attr) for mod, attr, _ in result.bindings}
    # functions imported by name are traced where they are imported
    for expected in [
        ("itfmap.evaluate", "normalize_window"),
        ("itfmap.evaluate", "segment"),
        ("itfmap.evaluate", "correlate_window"),
        ("itfmap.evaluate", "denoise_record"),
        ("itfmap.evaluate", "direction_from_tdoa"),
        ("itfmap.pipeline", "normalize_window"),
        ("itfmap.pipeline", "segment"),
        ("itfmap.pipeline", "direction_from_tdoa"),
        ("itfmap.xcorr", "correlate_full"),
        ("itfmap.xcorr", "CubicSpline"),
        ("itfmap.denoise", "kalman_local_level"),
        ("itfmap.cli", "load_record"),
        ("itfmap.cli", "main"),
    ]:
        assert expected in bound
    for mod, attr, original in result.bindings:
        assert getattr(mod, attr) is original, f"{mod.__name__}.{attr}"


def test_metric_names_are_well_formed():
    names = END_TO_END + PER_LAYER
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert "setup_s" in END_TO_END


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli(["--workload", "map-hop1", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
