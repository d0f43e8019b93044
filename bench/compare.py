"""Repeat a workload, or compare two checkouts, by the benchmark's own bounds.

    python3 bench/compare.py repeat --workload NAME|all [--runs 10] [--seed 1] [--trace 0]
    python3 bench/compare.py pair --parent DIR --change DIR --workload NAME|all [--pairs 10] [--seed 1]

`repeat` runs the workload with seeds seed, seed+1, ... and reports each
metric's median, quartiles and spread (q3 - q1 as a share of the median);
a metric whose spread exceeds its bound is marked unresolved.

`pair` runs both checkouts once per seed, alternating which runs first, and
reports per metric both sides' medians, the share of pairs
the change won (ties count for neither) and a verdict:

  gain        the change won at least 9 of 10 pairs and the medians differ by
              more than the parent's own spread (q3 - q1)
  regression  the change's median is worse than the parent's by more than the bound
  unresolved  the parent's spread exceeds the bound and not every change run
              beat every parent run
  unchanged   none of the above

A gain is void when more operations failed on the change than on the parent.

Both checkouts must hold identical bench/ files, so the same benchmark code
measures each side. Run length is BENCHMARK.json's run_seconds unless
--seconds is given.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import statistics
import subprocess
import sys
from pathlib import Path

from common import ROOT


def load_spec(root: Path = ROOT) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def declared(spec: dict, trace: int) -> dict:
    """metric name -> its BENCHMARK.json entry, for one trace mode."""
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run the benchmark in checkout `root` and return its parsed result line."""
    cmd = [
        sys.executable, str(root / "bench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    """Median, quartiles as statistics.quantiles(n=4) gives them, and spread."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med) if med else float("inf")}


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse the change is, as a share of the parent (negative: better)."""
    delta = change - parent if better == "lower" else parent - change
    return delta / abs(parent) if parent else float("inf") if delta > 0 else 0.0


def verdict(parent: list[float], change: list[float], better: str, bound: float | None) -> dict:
    """Section 8 of the choosing-metrics guide, for one metric over paired runs."""
    p, c = summary(parent), summary(change)
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    win_share = wins / len(parent)
    all_better = all(sign * (b - a) > 0 for a in parent for b in change)
    diff = sign * (c["median"] - p["median"])
    if win_share >= 0.9 and diff > p["q3"] - p["q1"]:
        call = "gain"
    elif bound is not None and worse_by(p["median"], c["median"], better) > bound:
        call = "regression"
    elif bound is not None and p["spread"] > bound and not all_better:
        call = "unresolved"
    else:
        call = "unchanged"
    return {"parent": p, "change": c, "win_share": win_share, "verdict": call}


def cmd_repeat(args, spec: dict, workload: str) -> None:
    metrics = declared(spec, args.trace)
    runs = []
    for i in range(args.runs):
        seed = args.seed + i
        res = run_once(ROOT, workload, seed, args.seconds, args.trace)
        runs.append(res)
        print(f"run {i + 1}/{args.runs} seed {seed}: correct={res['correct']} failed={res['failed']}", file=sys.stderr)
    print(f"{workload} trace {args.trace}: {args.runs} runs, seeds {args.seed}..{args.seed + args.runs - 1}")
    print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, m in metrics.items():
        s = summary([r["metrics"][name]["value"] for r in runs])
        bound = m.get("bound")
        b, status = ("", "") if bound is None else (f"{bound:g}", "unresolved" if s["spread"] > bound else "ok")
        print(
            f"  {name:28s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
            f"{s['spread']:8.2%} {b:>6s} {status}"
        )
    failed = sum(r["failed"] for r in runs)
    print(f"  correct in {sum(r['correct'] for r in runs)} of {len(runs)} runs; {failed} failed operations")


def same_benchmark(a: Path, b: Path) -> bool:
    files = sorted(p.relative_to(a / "bench") for p in (a / "bench").rglob("*.py"))
    other = sorted(p.relative_to(b / "bench") for p in (b / "bench").rglob("*.py"))
    if files != other:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a / "bench", b / "bench", [str(f) for f in files], shallow=False)
    return not mismatch and not errors


def cmd_pair(args, spec: dict, workload: str) -> None:
    parent, change = Path(args.parent).resolve(), Path(args.change).resolve()
    if not same_benchmark(parent, change):
        raise SystemExit("bench/ differs between the checkouts; measure both with the same benchmark code")
    metrics = declared(spec, args.trace)
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = [("parent", parent), ("change", change)]
        if i % 2:
            order.reverse()
        for side, root in order:
            runs[side].append(run_once(root, workload, seed, args.seconds, args.trace))
        print(f"pair {i + 1}/{args.pairs} seed {seed} ({order[0][0]} first)", file=sys.stderr)
    failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
    void = failed["change"] > failed["parent"]
    print(f"{workload} trace {args.trace}: {args.pairs} pairs")
    print(f"  {'metric':28s} {'parent':>12s} {'change':>12s} {'wins':>6s}  verdict")
    for name, m in metrics.items():
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        v = verdict(p, c, m["better"], m.get("bound"))
        call = "void" if void and v["verdict"] == "gain" else v["verdict"]
        print(f"  {name:28s} {v['parent']['median']:12.6g} {v['change']['median']:12.6g} {v['win_share']:6.0%}  {call}")
    for side in ("parent", "change"):
        print(f"  {side}: correct in {sum(r['correct'] for r in runs[side])} of {args.pairs} runs; {failed[side]} failed operations")
    if void:
        print("  no gain counts: more operations failed than at the parent")


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("repeat", "pair"):
        s = sub.add_parser(name)
        s.add_argument("--workload", required=True, choices=names + ["all"])
        s.add_argument("--seed", type=int, default=1)
        s.add_argument("--seconds", type=float, default=spec["run_seconds"])
        s.add_argument("--trace", type=int, choices=(0, 1), default=0)
    sub.choices["repeat"].add_argument("--runs", type=int, default=10)
    sub.choices["pair"].add_argument("--pairs", type=int, default=10)
    sub.choices["pair"].add_argument("--parent", required=True, help="checkout of the parent commit")
    sub.choices["pair"].add_argument("--change", required=True, help="checkout of the change")
    args = p.parse_args(argv)
    command = cmd_repeat if args.command == "repeat" else cmd_pair
    chosen = names if args.workload == "all" else [args.workload]
    for name in chosen:
        command(args, spec, name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
