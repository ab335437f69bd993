#!/usr/bin/env python3
"""Steadiness check: run each workload under several seeds and report, for
every end-to-end metric, the median and the spread (distance between the
first and third quartile as a share of the median) against its bound.

    python3 perfbench/steadiness.py [--seeds 10] [--workload NAME ...]

Runs are sequential, one process at a time, with the settings in
BENCHMARK.json.  Exits 1 when a run fails its checks or a spread exceeds
its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable); default all")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    workloads = args.workload or [w["name"] for w in config["workloads"]]
    ok = True
    for workload in workloads:
        values: dict = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = config["command"] + ["--workload", workload, "--seed", str(seed),
                                       "--seconds", str(config["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} operations failed", file=sys.stderr)
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload} ({args.seeds} seeds, {config['run_seconds']} s each)")
        for name, bound in bounds.items():
            s = spread(values[name])
            if s > bound:
                flag, ok = "  EXCEEDS BOUND", False
            else:
                flag = "  above a third of the bound" if s > bound / 3 else ""
            print(f"  {name:<14} median {statistics.median(values[name]):>12.6g}  "
                  f"spread {s:6.3f}  bound {bound:.2f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
