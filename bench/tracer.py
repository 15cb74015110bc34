"""Spans around the program's layers, installed from outside the program.

`Tracer.install()` replaces module-level names of `binomfactor` (in every
binomfactor module that imported them, since `from .x import f` copies the
binding) with wrappers that record a span: name, start, end, parent span
and op index.  Spans stay in memory; `self_times()` reduces them to each
layer's self time, i.e. span time minus the time of its child spans.

Counts are taken from argument and result sizes after the span has ended,
so they repeat exactly and cost nothing inside the timed region.
A target the program no longer has is skipped and listed in `missing`.
"""

from __future__ import annotations

import functools
import sys
import time

_perf = time.perf_counter


def _one(key):
    return lambda args, result: {key: 1}


def _level_intervals(args, result):
    return {"decomposition.level_intervals": len(result[0])}


def _interval_objects(args, result):
    return {"decomposition.interval_objects":
            sum(len(v) for v in result.levels.values())}


def _block_terms(args, result):
    return {"logseries.block_terms": max(result.k - 1, 0) * result.terms_taken}


#: (module, attribute, span name or None for count-only, counter)
TARGETS = (
    ("primes", "PrimeTable.__init__", "primes.build_table", None),
    ("primes", "omega_binom_oracle", "primes.oracle", None),
    ("primes", "_binom_divisor_flags", "primes.oracle", _one("primes.oracle_calls")),
    ("decomposition", "integer_membership_mask", "decomposition.mask",
     _one("decomposition.mask_calls")),
    ("decomposition", "level_prime_count", "decomposition.mask",
     _one("decomposition.mask_calls")),
    # called only from the mask functions above: count, no span of its own
    ("decomposition", "_level_range_arrays", None, _level_intervals),
    ("decomposition", "decompose", "decomposition.decompose", _interval_objects),
    ("decomposition", "Decomposition.to_json_dict", "decomposition.json", None),
    ("decomposition", "canonical_integer_form", "decomposition.canonical", None),
    ("identities", "omega_identity_report", "identities.omega_report", None),
    ("identities", "omega_pi_series", "identities.pi_series", None),
    ("identities", "omega_pi_series_grouped", "identities.pi_series", None),
    ("identities", "factorial_ratio_report", "identities.factorial_ratio", None),
    ("identities", "alternating_pi_sum", "identities.altpi", None),
    ("identities", "log_factorial_prefix", "identities.log_factorial", None),
    ("asymptotics", "convergence_sweep", "asymptotics.sweep", None),
    ("chebyshev", "empirical_bracket_check", "chebyshev.bracket", None),
    ("logseries", "partial_sum", "logseries.partial_sum", _block_terms),
    ("cli", "_emit", "cli.emit", None),
)

#: per-layer metric -> span name whose self time it sums
SELF_TIME_METRICS = {
    "primes.build_table_s": "primes.build_table",
    "primes.oracle_self_s": "primes.oracle",
    "decomposition.mask_self_s": "decomposition.mask",
    "decomposition.decompose_self_s": "decomposition.decompose",
    "decomposition.json_self_s": "decomposition.json",
    "decomposition.canonical_self_s": "decomposition.canonical",
    "cli.emit_self_s": "cli.emit",
    "identities.omega_report_self_s": "identities.omega_report",
    "identities.pi_series_self_s": "identities.pi_series",
    "identities.factorial_ratio_self_s": "identities.factorial_ratio",
    "identities.altpi_self_s": "identities.altpi",
    "identities.log_factorial_s": "identities.log_factorial",
    "asymptotics.sweep_self_s": "asymptotics.sweep",
    "chebyshev.bracket_self_s": "chebyshev.bracket",
    "logseries.partial_sum_self_s": "logseries.partial_sum",
}

COUNT_METRICS = (
    "primes.table_bytes", "primes.oracle_calls", "decomposition.mask_calls",
    "decomposition.level_intervals", "decomposition.interval_objects",
    "cli.stdout_bytes", "identities.pi_lookups", "logseries.block_terms",
)

#: every per-layer metric, in BENCHMARK.json order
PER_LAYER = (tuple(SELF_TIME_METRICS) + COUNT_METRICS
             + ("cli.import_s", "bench.trace_overhead_frac"))


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "B"
    if metric.endswith("_frac"):
        return "frac"
    return "count"


#: arrays of the sieve table whose element lookups identities.pi_lookups counts
LOOKUP_ARRAYS = ("pi_prefix", "psi_prefix")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, op]
        self.counts: dict[str, int] = {}
        self.op: int | None = None
        self.paused = False
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _perf(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = _perf()
        self._stack.pop()

    def add(self, counts: dict) -> None:
        for key, v in counts.items():
            self.counts[key] = self.counts.get(key, 0) + v

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - c
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer self time and count this tracer saw (0 if none)."""
        self_t = self.self_times()
        out = {m: self_t.get(span, 0.0) for m, span in SELF_TIME_METRICS.items()}
        out.update({m: self.counts.get(m, 0) for m in COUNT_METRICS})
        return out

    # -- installation ------------------------------------------------------

    def _wrap(self, fn, span, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            idx = tracer.begin(span) if span else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    tracer.end(idx)
            if counter:
                tracer.add(counter(args, result))
            return result
        return traced

    def install(self) -> None:
        """Wrap every target of an already imported binomfactor module."""
        mods = {k: m for k, m in sys.modules.items()
                if k == "binomfactor" or k.startswith("binomfactor.")}
        for modname, attr, span, counter in TARGETS:
            mod = mods.get("binomfactor." + modname)
            if mod is None:
                continue
            owner, _, name = attr.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            orig = getattr(holder, name, None) if holder is not None else None
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapped = self._wrap(orig, span, counter)
            if owner:
                self._patch(holder, name, orig, wrapped)
                continue
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, orig, wrapped)

    def count_lookups(self, table) -> None:
        """Count element lookups into the table's prefix arrays while
        tracing; basic slices are views, not lookups, and are not counted."""
        import numpy as np
        tracer = self
        roots = []

        class Counting(np.ndarray):
            def __getitem__(self, idx):
                out = super().__getitem__(idx)
                if (not tracer.paused and not isinstance(idx, slice)
                        and any(self.base is r for r in roots)):
                    tracer.add({"identities.pi_lookups": int(np.size(out))})
                return out

        for name in LOOKUP_ARRAYS:
            arr = getattr(table, name, None)
            if isinstance(arr, np.ndarray):
                roots.append(arr)
                self._patch(table, name, arr, arr.view(Counting))

    def _patch(self, holder, name, orig, new) -> None:
        setattr(holder, name, new)
        self._undo.append((holder, name, orig))

    def uninstall(self) -> None:
        while self._undo:
            holder, name, orig = self._undo.pop()
            setattr(holder, name, orig)
