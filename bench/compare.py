"""Compare two checkouts of rosenmorse with the same benchmark code.

    python3 bench/compare.py --base PARENT_CHECKOUT --change CHANGED_CHECKOUT

Each checkout is a directory holding `src/rosenmorse`.  For every workload in
BENCHMARK.json the script runs PAIRS alternating pairs (pair i uses seed
1 + i; even pairs run the base first, odd pairs the change first), each run a
fresh `bench/run.py` process from this directory, `run_seconds` long and
pointed at one checkout's source.
It prints, per workload and end-to-end metric, each side's median and
quartiles, the share of pairs the change won (ties count for neither) and a
verdict:

- better: the change won at least 9 in 10 pairs and the medians differ by
  more than the base's interquartile distance;
- worse: the change's median is worse than the base's by more than the
  metric's bound from BENCHMARK.json;
- unresolved: the base's interquartile spread exceeds the bound, unless
  every change run beats every base run;
- same: none of the above.

The share of failed operations is reported per side, since a gain does not
count when more operations fail.  The last stdout line is a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = BENCH_DIR.parent / "BENCHMARK.json"
PAIRS = 10
FIRST_SEED = 1


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--src", str(checkout / "src")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"compare: {workload} seed {seed} on {checkout} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, better, bound):
    """better/worse/unresolved/same for one metric, as described in the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    share = wins / len(base)
    b1, bm, b3 = quartiles(base)
    cm = statistics.median(change)
    spread = (b3 - b1) / abs(bm) if bm else 0.0
    if share >= 0.9 and sign * (cm - bm) > b3 - b1:
        return "better", share, spread
    if sign * (bm - cm) > bound * abs(bm):
        return "worse", share, spread
    if spread > bound and not min(sign * c for c in change) > max(sign * b for b in base):
        return "unresolved", share, spread
    return "same", share, spread


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        sides = {"base": [], "change": []}
        for i in range(PAIRS):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                checkout = args.base if side == "base" else args.change
                sides[side].append(run(checkout, workload, FIRST_SEED + i, seconds))
                print(f"{workload} pair {i + 1}/{PAIRS} {side} done", file=sys.stderr)
        rows = {}
        print(f"\n{workload}: {PAIRS} pairs, {seconds} s runs")
        for side, results in sides.items():
            failed = sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)
            print(f"  {side:<7} failed share {failed:.6f}")
            rows[f"{side}.failed_share"] = failed
        print(f"  {'metric':<18} {'base q1/med/q3':<34} {'change q1/med/q3':<34} {'won':>5}  verdict")
        for m in metrics:
            base = [r["metrics"][m["name"]]["value"] for r in sides["base"]]
            change = [r["metrics"][m["name"]]["value"] for r in sides["change"]]
            result, share, spread = verdict(base, change, m["better"], m["bound"])
            bq, cq = quartiles(base), quartiles(change)
            print(f"  {m['name']:<18} {'%.4g/%.4g/%.4g' % bq:<34} {'%.4g/%.4g/%.4g' % cq:<34} "
                  f"{share:>5.0%}  {result} (base spread {spread:.1%}, bound {m['bound']:.0%})")
            rows[m["name"]] = {"base": bq, "change": cq, "won": share, "verdict": result, "unit": m["unit"]}
        summary[workload] = rows
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
