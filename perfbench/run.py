#!/usr/bin/env python3
"""galcodes benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload count_stream --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; galcodes is imported from its src/.
--trace 0 prints every end-to-end metric; --trace 1 wraps the galcodes
layers, prints the per-layer metrics and writes the spans to
perfbench/out/.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 9
SMOKE_SETUP_REPEATS = 2


def import_galcodes() -> None:
    """Import galcodes from this checkout's src/, and nothing else."""
    if not (SRC_DIR / "galcodes" / "__init__.py").is_file():
        print(f"perfbench: no galcodes sources under {SRC_DIR}; run from a checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC_DIR))
    import galcodes
    if Path(galcodes.__file__).resolve().parent != (SRC_DIR / "galcodes").resolve():
        print(f"perfbench: imported galcodes from {galcodes.__file__}, not {SRC_DIR}",
              file=sys.stderr)
        sys.exit(2)


def _child(args: argparse.Namespace, *extra: str) -> list[str]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed)]
    return cmd + (["--smoke"] if args.smoke else []) + list(extra)


def measure_setup(args: argparse.Namespace) -> list[float]:
    """Seconds from process start until the workload is built, in fresh
    processes, so every module-level cache starts cold; each scaled by the
    reference kernel timed in that process right after its set-up."""
    from workloads import KERNEL_REFERENCE_S
    out = []
    for _ in range(SMOKE_SETUP_REPEATS if args.smoke else SETUP_REPEATS):
        start = time.monotonic()
        done = subprocess.run(_child(args, "--setup-only"), capture_output=True, text=True,
                              timeout=170, check=True)
        ready, kernel = (float(x) for x in done.stdout.split()[-2:])
        out.append((ready - start) * KERNEL_REFERENCE_S / kernel)
    return out


def untraced_rate(args: argparse.Namespace, passes: int) -> float:
    """ops_per_s of an untraced run of the same seed and passes, in a child
    process."""
    done = subprocess.run(_child(args, "--passes", str(passes), "--trace", "0",
                                 "--no-setup-probe"),
                          capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["metrics"]["ops_per_s"]["value"]


def run_passes(workload, rec, *, seconds: float = 0.0, passes: int = 0):
    """Whole passes until `seconds` have passed, or exactly `passes` of them."""
    from workloads import Tally
    tally = Tally()
    deadline = time.perf_counter() + seconds
    done = 0
    while True:
        workload.run_pass(tally, rec)
        done += 1
        if done == passes or (not passes and time.perf_counter() >= deadline):
            return tally


def line(name: str, value, unit: str, n: int | None = None) -> None:
    count = "" if n is None else f"  (n={n})"
    print(f"{name:<40} {value:>14.6g} {unit}{count}")
    if "p99" in name and n is not None and n < 1000:
        print(f"perfbench: {name} rests on {n} samples, fewer than 10 beyond the 99th "
              "percentile", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs through the same code path")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--no-setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--passes", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    import_galcodes()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    make = WORKLOADS[args.workload]

    from spans import NullRecorder
    if args.setup_only:
        make(args.seed, args.smoke, NullRecorder())
        ready = time.monotonic()
        from workloads import time_kernel
        print(ready, statistics.median(time_kernel() for _ in range(5)))
        return 0

    if args.trace:
        return traced(args, make)

    setup = [] if args.no_setup_probe else measure_setup(args)
    workload = make(args.seed, args.smoke, NullRecorder())
    tally = run_passes(workload, NullRecorder(), seconds=args.seconds, passes=args.passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    metrics = {}
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, untraced")
    if setup:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        line("setup_s", metrics["setup_s"]["value"], "s", len(setup))
    metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    line("peak_rss_mb", rss_mb, "MB")
    for name, slot, value, unit, n in workload.report(tally):
        line(f"{name} [{slot}]" if slot else name, value, unit, n)
        if slot:
            metrics[slot] = {"value": value, "unit": unit}
    line("failed_ratio", tally.failed / max(tally.attempted, 1), "ratio", tally.attempted)
    for error in tally.errors:
        print(error, file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


def traced(args: argparse.Namespace, make) -> int:
    from spans import SpanRecorder, Tracer, layer_report
    # a fixed number of passes, set by --seconds and the workload's nominal
    # pass length, not by how fast this run goes: counts and self times
    # then cover the same work whatever the speed of the code
    passes = max(1, round(args.seconds / 2 / make.pass_s))
    reference = untraced_rate(args, passes)

    rec = SpanRecorder()
    tracer = Tracer(rec)
    tracer.install()
    before = tracer.cache_snapshot()
    rec.active = True
    workload = make(args.seed, args.smoke, rec)
    tally = run_passes(workload, rec, passes=passes)
    rec.active = False
    after = tracer.cache_snapshot()
    tracer.uninstall()

    rate = {slot: value for _, slot, value, _, _ in workload.report(tally) if slot}["ops_per_s"]
    overhead = (reference / rate - 1.0) * 100.0 if rate else 0.0
    metrics = layer_report(rec, before, after, overhead)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
    rec.write(spans_path)

    print(f"# workload {args.workload}, seed {args.seed}, {passes} passes traced "
          f"after the same untraced; spans in {os.path.relpath(spans_path)}"
          f" ({len(rec.spans)} kept, {rec.dropped} dropped)")
    for name, metric in metrics.items():
        line(name, metric["value"], metric["unit"])
    line("failed_ratio", tally.failed / max(tally.attempted, 1), "ratio", tally.attempted)
    for error in tally.errors:
        print(error, file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
