#!/usr/bin/env python3
"""Self-test of the benchmark and its correctness gate, at smoke sizes.

    python3 bench/selftest.py

Run from the checkout root; takes about a minute.  For every workload it
checks that an untraced run reports every end-to-end metric of
BENCHMARK.json and no failure, that two traced runs report every
per-layer metric with identical counts and output digests, and that a run
with one corrupted result reports failed > 0.  It also checks that the benchmark refuses to
run, without printing a result, in a directory holding only
BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys


def run(extra, cwd=None) -> tuple[int, list[str]]:
    out = subprocess.run([sys.executable, os.path.join(cwd or os.getcwd(), "bench", "run.py"),
                          "--seed", "7", "--seconds", "1", *extra],
                         cwd=cwd, capture_output=True, text=True, timeout=600)
    return out.returncode, out.stdout.splitlines()


def result(extra) -> tuple[dict, dict]:
    """The result line and the provenance line of one run."""
    rc, lines = run(extra)
    assert rc == 0 and lines, f"{extra}: exit code {rc}"
    prov = next(ln for ln in lines if ln.startswith("provenance "))
    return json.loads(lines[-1]), json.loads(prov[len("provenance "):])


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for wl in (w["name"] for w in spec["workloads"]):
        base = ["--workload", wl, "--smoke"]
        r, _ = result(base + ["--trace", "0"])
        assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, (wl, r)
        assert {k: v["unit"] for k, v in r["metrics"].items()} == e2e, (wl, r)
        assert all(v["value"] > 0 for v in r["metrics"].values()), (wl, r)

        traced = [result(base + ["--trace", "1"]) for _ in range(2)]
        digests = [p["output_digest"] for _, p in traced]
        assert digests[0] == digests[1], (wl, digests)
        traced = [t for t, _ in traced]
        for t in traced:
            assert t["correct"], (wl, t)
            assert {k: v["unit"] for k, v in t["metrics"].items()} == layer, (wl, t)
        counts = [{k: v["value"] for k, v in t["metrics"].items() if v["unit"] in ("count", "B")}
                  for t in traced]
        assert counts[0] == counts[1], (wl, counts)

        f, _ = result(base + ["--trace", "0", "--inject-fault"])
        assert not f["correct"] and f["failed"] / f["attempted"] > 0, (wl, f)
        print(f"selftest {wl}: metrics present, counts and digest repeat, "
              f"injected fault gives failed_frac {f['failed'] / f['attempted']:.3g}")

    bare = os.path.join(os.getcwd(), ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(path, os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines = run(["--workload", spec["workloads"][0]["name"], "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert rc != 0 and not any(ln.startswith('{"correct"') for ln in lines), (rc, lines)
    print(f"selftest bare directory: exit code {rc}, no result")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
