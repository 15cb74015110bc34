#!/usr/bin/env python3
"""Repeat untraced runs over several seeds and report each metric's spread.

    python3 bench/steadiness.py --seeds 1-10 [--workloads a,b] [--out FILE]

For every workload and end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median,
next to the metric's bound in BENCHMARK.json.  With --out the same numbers
are merged into FILE as JSON, keyed by workload.  Run from the checkout
root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(raw: str) -> list[int]:
    if "-" in raw:
        lo, hi = raw.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in raw.split(",")]


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    if args.out and os.path.exists(args.out):
        with open(args.out) as fh:
            report = json.load(fh)
    for wl in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        walls = []
        for seed in parse_seeds(args.seeds):
            t0 = time.monotonic()
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"], capture_output=True, text=True, check=True)
            walls.append(time.monotonic() - t0)
            result = json.loads(out.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{wl} seed {seed}: INCORRECT\n{out.stdout}", file=sys.stderr)
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.5g}" for k, v in values.items())
                + f" (wall {walls[-1]:.1f} s)", flush=True)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med, "bound": bounds.get(name),
                          "runs": len(vals)}
            print(f"  {name:12s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                  f"spread {rows[name]['spread']:.4f}  bound {bounds.get(name)}")
        report[wl] = {"seeds": args.seeds, "run_seconds": spec["run_seconds"],
                      "median_wall_s": statistics.median(walls), "metrics": rows}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
