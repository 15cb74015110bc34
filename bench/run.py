#!/usr/bin/env python3
"""binomfactor benchmark: one workload, one seed, every metric checked.

    python3 bench/run.py --workload equiv_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its src/.
Workloads are closed loops of one caller (see workloads.py and
bench/README.md).  With --trace 0 the last stdout line carries the
end-to-end metrics of BENCHMARK.json; with --trace 1 it carries the
per-layer metrics of a traced pass over a fixed op list.  Lines before it
give every metric with its unit (failed_frac too) and the provenance of
the run, which is also written to .bench_out/.

Each workload process is a fresh interpreter with thread pools pinned to
one thread.  This orchestrator imports only the stdlib, because the CLI
children of decompose_cli inherit its peak RSS as their floor.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".bench_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The run cannot produce a result (no program, or a process died)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv, **kw) -> subprocess.Popen:
    return subprocess.Popen(argv, cwd=ROOT, env=child_env(), **kw)


def reap(p: subprocess.Popen) -> tuple[int, float]:
    """Wait for `p`; return its exit code and its peak RSS in MB."""
    _, status, ru = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, ru.ru_maxrss / 1024.0


def worker_argv(args, *extra) -> list[str]:
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        argv.append("--smoke")
    if args.inject_fault:
        argv.append("--inject-fault")
    return argv + list(extra)


def start_worker(args, *extra, stdin=None):
    """Spawn a worker; return it with its set-up time (spawn to READY)."""
    t0 = time.monotonic()
    p = spawn(worker_argv(args, *extra), stdout=subprocess.PIPE, stdin=stdin, text=True)
    line = p.stdout.readline().split()
    if len(line) != 2 or line[0] != "READY":
        reap(p)
        raise BenchError(f"worker {' '.join(extra)} failed during set-up")
    return p, float(line[1]) - t0


def setup_samples(args, count: int) -> list[float]:
    out = []
    for _ in range(count):
        p, dt = start_worker(args, "--setup-only")
        p.stdout.read()
        p.stdout.close()
        if reap(p)[0] != 0:
            raise BenchError("set-up probe failed")
        out.append(dt)
    return out


def run_worker(args, spans_out=None) -> tuple[dict, float, float]:
    extra = ["--spans-out", spans_out] if spans_out else []
    p, setup = start_worker(args, *extra)
    lines = p.stdout.read().splitlines()
    p.stdout.close()
    rc, rss = reap(p)
    if rc != 0 or not lines or not lines[-1].startswith("RESULT "):
        raise BenchError(f"worker exited with {rc} and no result")
    return json.loads(lines[-1][len("RESULT "):]), setup, rss


# -- decompose_cli: one CLI process per op, checked by a checker worker -----


def cli_ops(args, wl, checker, ops, seconds, traced, stdout_path):
    """Closed loop of CLI processes.  Op time runs from spawn to reap, so
    it includes interpreter start and import, as a user of the CLI sees."""
    lat, rss, failures, traces = [], [], [], []
    digest = hashlib.sha256()
    nbytes = 0
    timed = 0.0
    bounded = isinstance(ops, list)
    entry = ([os.path.join(HERE, "cli_trace.py")] if traced
             else ["-m", "binomfactor.cli"])
    for i, (_, n, k) in enumerate(ops):
        if not bounded and timed >= seconds and i >= wl.digest_ops and i % wl.block == 0:
            break
        argv = [sys.executable, *entry, "decompose", str(n), str(k), "--format", "json"]
        with open(stdout_path, "wb") as fh:
            t0 = time.perf_counter()
            p = spawn(argv, stdout=fh, stderr=subprocess.PIPE)
            err_text = p.stderr.read()
            rc, peak = reap(p)
            dt = time.perf_counter() - t0
        p.stderr.close()
        lat.append(dt)
        rss.append(peak)
        timed += dt
        err = None
        if rc != 0:
            err = f"exit code {rc}: {err_text[-300:].decode(errors='replace')}"
        else:
            req = {"path": stdout_path, "n": n, "k": k, "index": i,
                   "inject": bool(args.inject_fault and i == 0 and not traced)}
            checker.stdin.write(json.dumps(req) + "\n")
            checker.stdin.flush()
            reply = json.loads(checker.stdout.readline())
            err = reply["error"]
            nbytes += os.path.getsize(stdout_path)
            if i < wl.digest_ops:
                digest.update(f"{i}|{n}|{k}|{reply['digest']}".encode())
        if err is not None:
            failures.append(f"op {i} (N={n}, K={k}): {err}")
        if traced:
            tail = [ln for ln in err_text.decode().splitlines()
                    if ln.startswith("BENCH_TRACE ")]
            if tail:
                traces.append(json.loads(tail[-1][len("BENCH_TRACE "):]))
            else:
                failures.append(f"op {i}: traced CLI wrote no spans")
    return {"latencies": lat, "rss": rss, "failures": failures,
            "digest": digest.hexdigest(), "stdout_bytes": nbytes, "traces": traces}


def run_decompose(args, wl) -> tuple[dict, list[float], float]:
    samples = [] if args.trace else setup_samples(args, wl.setup_samples // 2)
    checker, _ = start_worker(args, "--checker", stdin=subprocess.PIPE)
    stdout_path = os.path.join(OUT, "cli_stdout.json")
    stream = workloads.op_stream(args.workload, args.seed, args.smoke)
    try:
        if not args.trace:
            res = cli_ops(args, wl, checker, stream, args.seconds, False, stdout_path)
            samples += setup_samples(args, wl.setup_samples - len(samples))
            return res, samples, max(res["rss"])
        ops = [next(stream) for _ in range(wl.trace_ops)]
        plain = cli_ops(args, wl, checker, ops, 0, False, stdout_path)
        traced = cli_ops(args, wl, checker, ops, 0, True, stdout_path)
    finally:
        checker.stdin.close()
        checker.stdout.close()
        reap(checker)
        if os.path.exists(stdout_path):
            os.remove(stdout_path)
    if traced["digest"] != plain["digest"]:
        plain["failures"].append("traced CLI output differs from untraced output")
    layer = {}
    for t in traced["traces"]:
        for key, v in t["layers"].items():
            layer[key] = layer.get(key, 0) + v
    layer["cli.stdout_bytes"] = traced["stdout_bytes"]
    layer["cli.import_s"] = statistics.median(
        [t["import_s"] for t in traced["traces"]] or [0.0])
    plain["failures"] += traced["failures"]
    plain.update(attempted=2 * len(ops), per_layer=layer,
                 traced_latencies=traced["latencies"],
                 missing_spans=sorted({m for t in traced["traces"] for m in t["missing"]}))
    spans = [{"op": i, "spans": t["spans"]} for i, t in enumerate(traced["traces"])]
    with open(spans_path(args), "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "processes": spans}, fh)
    return plain, samples, max(plain["rss"])


# -- metrics -------------------------------------------------------------------


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def _beta_inc(a: float, b: float, x: float) -> float:
    """The regularised incomplete beta function I_x(a, b)."""
    if x <= 0.0 or x >= 1.0:
        return max(0.0, min(1.0, x))
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def percentile(values, pct: float) -> float:
    """Harrell-Davis estimate of the pct-th percentile: a weighted mean of
    all order statistics, with weights from the beta distribution of the
    sample quantile.  It moves far less with the noise of the one or two
    samples next to the rank than interpolating between them does."""
    xs = sorted(values)
    n = len(xs)
    q = pct / 100.0
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    cdf = [_beta_inc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def spans_path(args) -> str:
    return os.path.join(OUT, f"spans_{args.workload}_seed{args.seed}.json")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.FULL))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="op time to measure (untraced runs)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small sizes, for the gate self-test")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt the first op's result before it is checked")
    args = ap.parse_args(argv)
    wl = workloads.workload(args.workload, args.smoke)

    if not os.path.isfile(os.path.join(ROOT, "src", "binomfactor", "__init__.py")):
        print(f"error: no binomfactor sources under {ROOT}/src; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    # compile the sources once, so no timed set-up pays for it
    warm = spawn([sys.executable, "-c", "import sys, numpy, binomfactor.cli; "
                  "print(sys.version.split()[0], numpy.__version__)"],
                 stdout=subprocess.PIPE, text=True)
    versions = warm.stdout.read().split()
    warm.stdout.close()
    if reap(warm)[0] != 0 or len(versions) != 2:
        print("error: binomfactor does not import", file=sys.stderr)
        return 1

    try:
        if args.workload == "decompose_cli":
            res, samples, rss = run_decompose(args, wl)
        else:
            # set-up probes before and after the run, so one slow spell of
            # a shared machine moves at most a minority of the samples
            before = [] if args.trace else setup_samples(args, wl.setup_samples // 2)
            res, setup, rss = run_worker(args, spans_path(args) if args.trace else None)
            after = [] if args.trace else setup_samples(
                args, wl.setup_samples - 1 - len(before))
            samples = before + [setup] + after
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    lat = res["latencies"]
    attempted = res.get("attempted", len(lat))
    failed = min(len(res["failures"]), attempted)
    tail = percentile(lat, wl.tail_pct)
    if args.trace:
        layer = dict.fromkeys(tracer.PER_LAYER, 0)
        layer.update(res["per_layer"])
        layer["bench.trace_overhead_frac"] = (
            sum(res["traced_latencies"]) / sum(lat) - 1.0)
        metrics = {k: {"value": layer[k], "unit": tracer.unit(k)} for k in tracer.PER_LAYER}
    else:
        values = {"setup_s": statistics.median(samples),
                  "ops_per_s": len(lat) / sum(lat),
                  "op_p50_ms": percentile(lat, 50.0) * 1e3,
                  "op_tail_ms": tail * 1e3,
                  "peak_rss_mb": rss}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke,
        "inject_fault": args.inject_fault, "git_commit": git_commit(),
        "source_sha256": source_digest(), "python": versions[0],
        "numpy": versions[1], "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads_per_process": 1, "table_limit": wl.size_max if wl.table else None,
        "ops_attempted": attempted, "ops_timed": len(lat),
        "op_time_s": sum(lat), "tail_percentile": wl.tail_pct,
        "tail_samples_beyond": sum(1 for x in lat if x > tail),
        "setup_samples_s": samples, "output_digest": res["digest"],
        "digest_ops": wl.digest_ops, "failures": res["failures"][:20],
        "missing_spans": res.get("missing_spans", []),
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(OUT, f"result_{args.workload}_seed{args.seed}"
                                f"_trace{args.trace}.json"), "w") as fh:
        json.dump({"provenance": provenance, "result": result}, fh, indent=1)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} ops"
          + ("" if args.trace else f", op_tail_ms = p{wl.tail_pct:g} "
             f"({provenance['tail_samples_beyond']} samples beyond)"))
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':36s} {failed / attempted:.6g} frac")
    for line in res["failures"][:5]:
        print(f"  FAILED {line}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
