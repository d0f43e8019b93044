"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload online-t|batch-n|build --seed N --seconds S --trace 0|1

With --trace 0 the run measures the end-to-end metrics with tracing off;
with --trace 1 it measures the same phase untraced and then traced, and
prints the per-layer metrics plus the tracing overhead. Every output is
checked against the naive reference in reference.py. The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from common import FULL, ROOT, WORKLOADS, MissingLibrary, Sizes, use_source_tree

OUT = ROOT / ".bench"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def format_value(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None, sizes: Sizes = FULL, out: Path = OUT) -> int:
    args = parse_args(argv)
    try:
        use_source_tree()
    except MissingLibrary as exc:
        print(f"bench: {exc}; run from a checkout of the repository", file=sys.stderr)
        return 2
    import workloads

    out.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=out))
    try:
        outcome = workloads.run_workload(args.workload, sizes, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values, units = outcome.per_layer, workloads.PER_LAYER_UNITS
    else:
        values, units = outcome.end_to_end, workloads.END_TO_END_UNITS
    tally = outcome.tally
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for name, unit in units.items():
        label = " (derived)" if name in workloads.DERIVED else ""
        print(f"  {name:28s} {format_value(values[name]):>12s} {unit}{label}")
    if not args.trace:
        print("  also reported, not declared in BENCHMARK.json (see bench/README.md):")
        for name, (value, unit) in outcome.unbounded.items():
            print(f"  {name:28s} {format_value(value):>12s} {unit}")
    share = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  {'failed_share':28s} {format_value(share):>12s} share ({tally.failed} of {tally.attempted} operations)")
    for note in outcome.notes:
        print(f"  {note}")
    if outcome.tracer is not None:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        path = traces / f"{args.workload}-seed{args.seed}.json"
        outcome.tracer.write(path, {"workload": args.workload, "seed": args.seed, "per_layer": values})
        print(f"  trace: {len(outcome.tracer.spans)} spans -> {os.path.relpath(path, ROOT)}")
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
