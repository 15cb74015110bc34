"""Workload definitions and seeded op streams.

Stdlib only.  The orchestrator (run.py) imports this module and spawns the
CLI children of `decompose_cli` itself; a child's peak RSS starts from its
parent's, so the orchestrator must stay small and never import numpy.

Op sizes are log-uniform, so a run sees many small ops and a tail of large
ones.  They come from a Kronecker sequence (golden-ratio steps from a
seeded offset) rather than independent draws: every prefix of it covers
[0, 1) evenly to within O(log N / N), so the size quantiles a run sees, and
with them its median and tail latency, hardly move from seed to seed while
the sizes themselves do.  `decompose_cli`, whose runs hold only a few dozen
ops, draws its sizes by strata instead (see op_stream).  Every other
parameter is drawn from the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    size_max: int           # largest n / x / N an op may draw
    table: bool             # a PrimeTable(size_max) is built during set-up
    block: int              # ops per round of op kinds; runs end on a round
    tail_pct: float         # percentile reported as op_tail_ms
    setup_samples: int      # fresh-interpreter set-ups per run (median)
    digest_ops: int         # leading ops hashed into the output digest
    trace_ops: int          # ops in each pass of a traced run


FULL = {
    "equiv_sweep": Workload("equiv_sweep", 10**6, True, 1, 99.0, 5, 64, 512),
    "series_1e7": Workload("series_1e7", 10**7, True, 6, 95.0, 5, 48, 288),
    "decompose_cli": Workload("decompose_cli", 20_000, False, 10, 75.0, 5, 8, 16),
}

#: Small sizes for the gate self-test; same code paths, seconds not minutes.
SMOKE = {
    "equiv_sweep": Workload("equiv_sweep", 10**4, True, 1, 90.0, 2, 8, 8),
    "series_1e7": Workload("series_1e7", 2 * 10**5, True, 6, 90.0, 2, 6, 6),
    "decompose_cli": Workload("decompose_cli", 2_000, False, 10, 75.0, 2, 2, 2),
}

#: (n, m) pairs for the omega identity and the convergence sweep.
OMEGA_PAIRS = ((2, 1), (3, 1), (4, 1), (5, 2), (6, 1), (10, 3))

#: decompose_cli draws N log-uniform in [DECOMPOSE_MIN, size_max].
DECOMPOSE_MIN = 1_000

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Smallest work scale of a series_1e7 op; below it every kind costs the
#: same fixed per-call overhead.
SERIES_MIN = 1_000

SERIES_KINDS = ("omega", "fratio", "altpi", "sweep", "bracket", "partial")
PARTIAL_K_MAX = 1_000
#: k multiple of PI_BOUNDS_SPEC (lcm of 6, 12, 60).
BRACKET_K_MULTIPLE = 60


def workload(name: str, smoke: bool = False) -> Workload:
    return (SMOKE if smoke else FULL)[name]


def seeded_rng(*parts) -> random.Random:
    """A Random seeded from a stable hash of `parts` (no hash() salting)."""
    h = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return random.Random(int.from_bytes(h[:8], "big"))


def _log_uniform(lo: int, hi: int, u: float) -> int:
    v = int(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))
    return min(max(v, lo), hi)


def _uniform_int(rng: random.Random, lo: int, hi: int) -> int:
    return min(lo + int(rng.random() * (hi - lo + 1)), hi)


def _kronecker(rng: random.Random):
    u = rng.random()
    while True:
        yield u
        u = (u + GOLDEN) % 1.0


def _shuffle(rng: random.Random, items: list) -> None:
    # Fisher-Yates on rng.random() alone, whose sequence is fixed across
    # Python versions (random.shuffle's integer draws are not promised).
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        items[i], items[j] = items[j], items[i]


def _series_op(kind: str, j: int, u: float, limit: int) -> tuple:
    """The j-th op of `kind`, whose work scale (largest pi/psi argument, or
    k*N for the log-k series) is log-uniform in [SERIES_MIN, limit]."""
    size = _log_uniform(SERIES_MIN, limit, u)
    if kind in ("omega", "sweep"):
        # round robin, so every pair spans the whole size range evenly
        n, m = OMEGA_PAIRS[j % len(OMEGA_PAIRS)]
        return (kind, n, m, max(2, size // n))
    if kind == "fratio":                      # PSI_RATIO_SPEC: max multiplier 30
        return (kind, max(1, size // 30))
    if kind == "altpi":
        return (kind, size)
    if kind == "bracket":                     # arguments reach k/2
        return (kind, BRACKET_K_MULTIPLE * max(1, 2 * size // BRACKET_K_MULTIPLE))
    k = _log_uniform(2, PARTIAL_K_MAX, u)
    return (kind, k, max(1, size // k))


def op_stream(name: str, seed: int, smoke: bool = False):
    """Endless deterministic op stream for workload `name` and `seed`."""
    wl = workload(name, smoke)
    rng = seeded_rng(name, seed)
    if name == "series_1e7":
        sizes = {kind: _kronecker(rng) for kind in SERIES_KINDS}
        start = int(rng.random() * len(OMEGA_PAIRS))
        for j in itertools.count(start):  # every kind once per round of wl.block
            kinds = list(SERIES_KINDS)
            _shuffle(rng, kinds)
            for kind in kinds:
                yield _series_op(kind, j, next(sizes[kind]), wl.size_max)
    if name == "decompose_cli":
        # One op per size stratum per round of wl.block, strata in seeded
        # order.  A run of ~45 ops ends on a whole round, so every run holds
        # the same number of ops in each tenth of the size range, and its
        # p75 lands on the same part of the steep cost curve.
        within = [_kronecker(rng) for _ in range(wl.block)]
        while True:
            strata = list(range(wl.block))
            _shuffle(rng, strata)
            for j in strata:
                u = (j + next(within[j])) / wl.block
                n = _log_uniform(DECOMPOSE_MIN, wl.size_max, u)
                yield ("decompose", n, _uniform_int(rng, 1, n - 1))
    for u in _kronecker(rng):
        n = _log_uniform(2, wl.size_max, u)
        yield ("equiv", n, _uniform_int(rng, 1, n - 1))
