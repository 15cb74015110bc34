"""One benchmark process: set-up, then ops, checks, and a result line.

Started by run.py in a fresh interpreter with thread pools pinned to one
thread.  Modes:

  --setup-only   set up, print `READY <monotonic time>` and exit
  (default)      set up, print READY, run ops, print `RESULT <json>`
  --checker      decompose_cli only: build the oracle table, then check
                 CLI outputs named on stdin, one JSON request per line

Every op result is checked outside the timed region.  The checks restate
the library's own contracts (its `assert`s vanish under `python -O`) and
compare against the sieve oracle where the contract is an equality.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
import time

import workloads
from tracer import Tracer

_perf = time.perf_counter


def import_program():
    """Import binomfactor from the checkout's src/, never from elsewhere."""
    import binomfactor
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    where = os.path.realpath(binomfactor.__file__)
    if not where.startswith(src + os.sep):
        raise SystemExit(f"binomfactor imported from {where}, not from {src}")
    return binomfactor


def table_bytes(table) -> int:
    import numpy as np
    names = getattr(type(table), "__slots__", ()) or vars(table)
    return sum(getattr(table, n).nbytes for n in names
               if isinstance(getattr(table, n, None), np.ndarray))


def _array_digest(arr) -> str:
    import numpy as np
    return hashlib.sha256(np.asarray(arr, dtype=np.int64).tobytes()).hexdigest()


# -- workloads run in this process ------------------------------------------


class EquivSweep:
    """equivalence_check plus the carry oracle on one PrimeTable."""

    def __init__(self, wl):
        from binomfactor import decomposition, primes
        self.dec, self.primes = decomposition, primes
        self.table = primes.PrimeTable(wl.size_max)

    def run(self, op):
        _, n, k = op
        bad = self.dec.equivalence_check(n, k, self.table)
        count, hits = self.primes.omega_binom_oracle(self.table, n, k)
        return bad, count, hits

    def check(self, op, res):
        _, n, k = op
        bad, count, hits = res
        if bad is not None:
            return f"equivalence_check reports prime {bad}"
        if count != len(hits):
            return f"oracle count {count} != {len(hits)} primes returned"
        covered = int(self.dec.integer_membership_mask(n, k)[
            self.table.primes_up_to(n)].sum())
        if covered != count:
            return f"mask covers {covered} primes, oracle counts {count}"
        return None

    def corrupt(self, op, res):
        bad, count, hits = res
        return bad, count + 1, hits

    def digest(self, op, res):
        bad, count, hits = res
        return f"{bad}|{count}|{_array_digest(hits)}"


class Series:
    """The identity, growth-constant, bracket and log-k evaluators."""

    def __init__(self, wl):
        from binomfactor import (asymptotics, chebyshev, identities,
                                 logseries, primes)
        self.asy, self.cheb, self.ids, self.logs = (
            asymptotics, chebyshev, identities, logseries)
        self.table = primes.PrimeTable(wl.size_max)
        identities.log_factorial_prefix(wl.size_max)

    def run(self, op):
        kind, *a = op
        t = self.table
        if kind == "omega":
            return self.ids.omega_identity_report(*a, t)
        if kind == "fratio":
            return self.ids.factorial_ratio_report(self.cheb.PSI_RATIO_SPEC, a[0], t)
        if kind == "altpi":
            return self.ids.alternating_pi_sum(a[0], t)
        if kind == "sweep":
            n, m, k = a
            return self.asy.convergence_sweep(n, m, [k], t)
        if kind == "bracket":
            return self.cheb.empirical_bracket_check(self.cheb.PI_BOUNDS_SPEC, [a[0]], t)
        return self.logs.partial_sum(*a)

    def check(self, op, res):
        kind, *a = op
        t = self.table
        if kind == "omega":
            d = res.details
            if d["regroup_correction"] != 0:
                return f"regroup_correction {d['regroup_correction']} != 0"
            if res.residual != res.lhs - res.rhs or \
                    res.residual != d["deep_level_primes"] - d["regroup_correction"]:
                return f"residual {res.residual} not accounted: {d}"
            return None
        if kind == "fratio":
            if not abs(res.normalized_residual) <= 1e-9:
                return f"normalized residual {res.normalized_residual}"
            return None
        if kind == "altpi":
            # an alternating sum of decreasing terms lies between its
            # first one and first two partial sums
            x = a[0]
            s, _ = res
            if not t.pi(x) - t.pi(x // 2) <= s <= t.pi(x):
                return f"S({x}) = {s} outside its bracket"
            return None
        if kind == "sweep":
            (row,) = res
            deep = row.omega - row.series_value
            if not 0 <= deep <= t.pi(math.isqrt(row.n * row.k)):
                return f"omega - series = {deep} exceeds pi(sqrt(nk))"
            if not math.isclose(row.ratio * row.predicted, row.omega, rel_tol=1e-12):
                return f"ratio {row.ratio} inconsistent with omega {row.omega}"
            return None
        if kind == "bracket":
            for r in res:
                if not (r.holds and r.lower <= r.omega_combination - r.correction <= r.upper):
                    return f"bracket fails at k={r.k}: {r}"
            return None
        k, terms = a
        gap = math.log(k) - res.partial_sum
        if res.tail_bound != k / terms or not -1e-12 <= gap <= res.tail_bound:
            return f"log {k} - partial sum = {gap} outside [0, {res.tail_bound}]"
        return None

    def corrupt(self, op, res):
        import dataclasses
        kind = op[0]
        if kind == "omega":
            return dataclasses.replace(res, residual=res.residual + 1)
        if kind == "fratio":
            return dataclasses.replace(res, normalized_residual=1.0)
        if kind == "altpi":
            return res[0] + self.table.pi(op[1]) + 1, res[1]
        if kind in ("sweep", "bracket"):
            field = "omega" if kind == "sweep" else "holds"
            value = -1 if kind == "sweep" else False
            return [dataclasses.replace(r, **{field: value}) for r in res]
        return dataclasses.replace(res, partial_sum=res.partial_sum + 1.0)

    def digest(self, op, res):
        if hasattr(res, "to_row"):
            return json.dumps(res.to_row(), sort_keys=True)
        return repr(res)


class DecomposeChecker:
    """Checks `decompose --format json` outputs against the carry oracle on
    a seeded sample of primes, by exact cross-multiplication."""

    SAMPLE = 64

    def __init__(self, wl, seed):
        from binomfactor import primes
        self.primes = primes
        self.table = primes.PrimeTable(wl.size_max)
        self.seed = seed

    def check(self, req):
        import numpy as np
        n, k = req["n"], req["k"]
        with open(req["path"], "rb") as fh:
            raw = fh.read()
        digest = hashlib.sha256(raw).hexdigest()
        try:
            doc = json.loads(raw)
        except ValueError as exc:
            return f"output is not JSON: {exc}", digest
        if doc.get("n") != n or doc.get("k") != k:
            return f"output names n={doc.get('n')}, k={doc.get('k')}", digest
        if req.get("inject"):
            doc["levels"].append({"i": 1, "intervals": [
                {"lower": {"num": 0, "den": 1}, "upper": {"num": n, "den": 1}}]})
        _, hits = self.primes.omega_binom_oracle(self.table, n, k)
        cand = self.table.primes_up_to(n)
        rng = workloads.seeded_rng("decompose_cli", self.seed, req["index"])
        if len(cand) > self.SAMPLE:
            cand = cand[sorted({int(rng.random() * len(cand)) for _ in range(self.SAMPLE)})]
        claimed = np.zeros(len(cand), dtype=bool)
        p = cand.astype(np.int64)
        for level in doc["levels"]:
            i = level["i"]
            ivs = level["intervals"]
            if not ivs:
                continue
            ln, ld, un, ud = (np.array([[iv[e][f] for iv in ivs]], dtype=np.int64).T
                              for e, f in (("lower", "num"), ("lower", "den"),
                                           ("upper", "num"), ("upper", "den")))
            fits = p <= int(n ** (1.0 / i)) + 1          # every upper is <= n
            q = p[fits] ** i
            inside = (ln < q * ld) & (q * ud <= un)      # lower < p^i <= upper
            claimed[fits] |= inside.any(axis=0)
        truth = np.isin(cand, hits)
        if (claimed != truth).any():
            bad = int(cand[int(np.argmax(claimed != truth))])
            return (f"prime {bad}: intervals say {bool(claimed[cand == bad][0])}, "
                    f"oracle says {bool(truth[cand == bad][0])}"), digest
        return None, digest


WORKLOAD_CLASSES = {"equiv_sweep": EquivSweep, "series_1e7": Series}


# -- op loop -----------------------------------------------------------------


def run_ops(state, ops, seconds, digest_ops, block=1, tracer=None, inject=False):
    """Closed loop: the next op starts when the previous one has returned
    and been checked.  Runs until `seconds` of op time and `digest_ops`
    ops, ending on a whole round of `block` ops, or over exactly `ops` when
    it is a list."""
    lat, failures = [], []
    digest = hashlib.sha256()
    timed = 0.0
    bounded = isinstance(ops, list)
    for i, op in enumerate(ops):
        if not bounded and timed >= seconds and i >= digest_ops and i % block == 0:
            break
        if tracer:
            tracer.op = i
            span = tracer.begin("bench.op")
        t0 = _perf()
        try:
            res, err = state.run(op), None
        except Exception as exc:  # an op that raises counts as failed
            res, err = None, f"{type(exc).__name__}: {exc}"
        dt = _perf() - t0
        if tracer:
            tracer.end(span)
            tracer.paused = True
        lat.append(dt)
        timed += dt
        if err is None:
            if inject and i == 0:
                res = state.corrupt(op, res)
            try:
                err = state.check(op, res)
            except Exception as exc:  # a result the check cannot read
                err = f"check raised {type(exc).__name__}: {exc}"
        if tracer:
            tracer.paused = False
        if err is not None:
            failures.append(f"op {i} {op}: {err}")
        if i < digest_ops:
            digest.update(f"{i}|{op}|".encode())
            digest.update((f"ERR {err}" if err else state.digest(op, res)).encode())
    return {"latencies": lat, "failures": failures, "digest": digest.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.FULL))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--inject-fault", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--checker", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)
    wl = workloads.workload(args.workload, args.smoke)

    import_program()
    if args.workload == "decompose_cli":     # its ops run in run.py
        if not args.checker:
            import binomfactor.cli  # noqa: F401  (ready to serve a command)
            print("READY", time.monotonic(), flush=True)
            return 0
        checker = DecomposeChecker(wl, args.seed)
        print("READY", time.monotonic(), flush=True)
        for line in sys.stdin:
            err, digest = checker.check(json.loads(line))
            print(json.dumps({"error": err, "digest": digest}), flush=True)
        return 0

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    state = WORKLOAD_CLASSES[args.workload](wl)
    if tracer:
        tracer.uninstall()
    print("READY", time.monotonic(), flush=True)
    if args.setup_only:
        return 0

    out = {}
    stream = workloads.op_stream(args.workload, args.seed, args.smoke)
    if not tracer:
        out.update(run_ops(state, stream, args.seconds, wl.digest_ops, wl.block,
                           inject=args.inject_fault))
    else:
        ops = list(itertools.islice(stream, wl.trace_ops))
        plain = run_ops(state, ops, 0, wl.digest_ops, inject=args.inject_fault)
        tracer.install()
        tracer.count_lookups(state.table)
        traced = run_ops(state, ops, 0, wl.digest_ops, tracer=tracer)
        tracer.uninstall()
        if traced["digest"] != plain["digest"]:
            plain["failures"].append("traced results differ from untraced results")
        layer = tracer.layer_metrics()
        layer["primes.table_bytes"] = table_bytes(state.table)
        out.update(plain)
        out["attempted"] = 2 * len(ops)
        out["failures"] += traced["failures"]
        out["traced_latencies"] = traced["latencies"]
        out["per_layer"] = layer
        out["missing_spans"] = sorted(set(tracer.missing))
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "op"],
                           "spans": tracer.spans}, fh)
    print("RESULT", json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
