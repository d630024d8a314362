#!/usr/bin/env python3
"""Record the gate's error references from the current code.

Runs every operation of a workload once per seed, with no reference applied,
and prints, per operation, the largest gate error seen and the smallest
number of scored windows.  The largest gate error is what `baseline.json`
keeps as the operation's reference; the gate fails an operation whose gate
error exceeds it by more than ``error_tolerance``.

    python3 perfbench/calibrate.py --workload map-hop1 --seeds 1-20 [--size tiny]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import shutil

import run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-20", help="inclusive range, e.g. 1-20")
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    lo, hi = (int(s) for s in args.seeds.split("-"))

    cli, _ = run.load_cli()
    import workloads

    per_op: dict[str, dict[str, list]] = {}
    for seed in range(lo, hi + 1):
        wl = workloads.WORKLOADS[args.workload](args.size, seed, {}, 0.0)
        workdir = run.WORK / f"calibrate-{args.workload}-{args.size}-seed{seed}"
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                wl.generate(cli.main, workdir / "gen0")
            workdir.mkdir(parents=True, exist_ok=True)
            wl.prepare(workdir / "gen0", workdir)
            runner = run.Runner(cli, wl, None)
            for op in wl.ops():
                rc, out, _ = runner.call(op.argv)
                o = wl.check(op, rc, out)
                rec = per_op.setdefault(op.label, {"gate_error_deg": [], "valid": []})
                rec["gate_error_deg"].append(o.gate_error_deg)
                rec["valid"].append(o.valid)
                print(
                    f"seed {seed} {op.label}: gate error {o.gate_error_deg:.4f} deg, "
                    f"error {o.error_deg:.4f} deg, {o.valid} scored"
                )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    summary = {
        label: {
            "max_gate_error_deg": max(
                (e for e in v["gate_error_deg"] if math.isfinite(e)), default=math.nan
            ),
            "min_scored": min(v["valid"]),
        }
        for label, v in per_op.items()
    }
    print(json.dumps({args.workload: {args.size: summary}}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
