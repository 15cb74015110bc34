"""A grouped series converging to log k, for every integer k >= 2.

The n-th block is

    block(k, n) = sum_{i=1}^{k-1} 1/(nk - (k - i))  -  (k-1)/(nk)

and sum_n block(k, n) = log k.  At k = 2 the blocks are exactly the
paired alternating harmonic series 1/(2n-1) - 1/(2n); general k keeps
that shape with k-1 positive terms per block.

Blocks are summed as written, never term by term across blocks: the
ungrouped series is only conditionally convergent and reordering is
unsafe.  Every block is positive and bounded by k/n^2 for n >= 2 (each of
the k-1 brackets is at most (k-1)/(((n-1)k+1) * nk) <= 1/((n-1) n), so
the block is below (k-1)/((n-1)n) <= k/n^2), which gives the recorded
tail envelope k/N after N blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OutOfRangeError
from .primes import _as_int

#: Most blocks `partial_sum` takes.  It holds three float64 arrays over the
#: blocks and the list of Python floats that fsum reads: tracemalloc puts
#: its peak at 56 bytes per block, ~560 MB at this ceiling.
MAX_TERMS = 10_000_000

#: Most work `partial_sum` takes, as (k - 1) * (terms + 400): each of its
#: k - 1 passes costs ~3.5 us (~400 block terms) plus ~8 ns per block term
#: (2 vCPU, numpy 2.4), ~8 s at this ceiling.  MAX_TERMS bounds the memory.
MAX_WORK = 1_000_000_000


def block_term(k: int, n: int) -> float:
    """One block of the series, its inner terms combined exactly (fsum)."""
    k, n = _as_int(k, "k"), _as_int(n, "n")
    if k < 2:
        raise DomainError("blocks need k >= 2 (k=1 is the empty identity log 1 = 0)")
    if n < 1:
        raise DomainError(f"block index must be >= 1, got {n}")
    base = (n - 1) * k
    return math.fsum(1.0 / (base + i) for i in range(1, k)) - (k - 1) / (n * k)


@dataclass(frozen=True)
class SeriesState:
    k: int
    terms_taken: int
    partial_sum: float
    tail_bound: float

    @property
    def error(self) -> float:
        return self.partial_sum - math.log(self.k)


def partial_sum(k: int, terms: int) -> SeriesState:
    """Sum of the first `terms` blocks, with the k/N tail envelope.

    k = 1 is the trivial fast path (log 1 = 0, no blocks); otherwise
    terms is capped at MAX_TERMS and (k - 1) * (terms + 400) at MAX_WORK.
    """
    k, terms = _as_int(k, "k"), _as_int(terms, "terms")
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    if terms < 1:
        raise DomainError(f"need terms >= 1, got {terms}")
    if k == 1:
        return SeriesState(1, 0, 0.0, 0.0)
    if terms > MAX_TERMS:
        raise OutOfRangeError(f"partial_sum needs terms <= {MAX_TERMS}, got {terms}")
    if (k - 1) * (terms + 400) > MAX_WORK:
        raise OutOfRangeError(f"partial_sum needs (k - 1) * (terms + 400) <= {MAX_WORK}")
    n = np.arange(1, terms + 1, dtype=np.float64)
    base = (n - 1.0) * k
    blocks = np.zeros(terms, dtype=np.float64)
    for i in range(1, k):
        blocks += 1.0 / (base + i)
    blocks -= (k - 1.0) / (n * k)
    return SeriesState(k, terms, math.fsum(blocks.tolist()), k / terms)


def log3_closed_form_check(terms: int) -> float:
    """Max |block(3, j) - (9j-4)/((3j-2)(3j-1)(3j))| over j <= terms."""
    terms = _as_int(terms, "terms")
    worst = 0.0
    for j in range(1, terms + 1):
        closed = (9 * j - 4) / ((3 * j - 2) * (3 * j - 1) * (3 * j))
        worst = max(worst, abs(block_term(3, j) - closed))
    return worst


def ratio_series_residual(n: int, truncation: int) -> float:
    """Residual of log(n^n / (n-1)^(n-1)) against the truncated double sum

        sum_{j=0}^{J-1} sum_{i=1}^{n-1} (1/(j + i/n) - 1/(j + i/(n-1)))

    The per-j term is ~ 1/(2 j^2), so the residual decays like 1/(2J).
    """
    n, truncation = _as_int(n, "n"), _as_int(truncation, "truncation")
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if truncation < 1:
        raise DomainError(f"need truncation >= 1, got {truncation}")
    lhs = n * math.log(n) - (n - 1) * math.log(n - 1)
    j = np.arange(0, truncation, dtype=np.float64)
    total = np.longdouble(0.0)
    for i in range(1, n):
        total += np.sum(1.0 / (j + i / n) - 1.0 / (j + i / (n - 1)),
                        dtype=np.longdouble)
    return abs(lhs - float(total))


def telescoping_check(upper: int) -> int | None:
    """Verify that the per-step ratios log(m^m / (m-1)^(m-1)) telescope:
    their sum up to every k <= upper equals k log k within 1e-10.

    The ratios are computed from exact integer powers (correctly rounded
    big-int division), not from the telescoped form itself.  Returns None
    on success, else the first failing k.
    """
    upper = _as_int(upper, "upper")
    if upper < 2:
        raise DomainError(f"need upper >= 2, got {upper}")
    steps: list[float] = []
    for k in range(2, upper + 1):
        steps.append(math.log(k ** k / (k - 1) ** (k - 1)))
        if abs(math.fsum(steps) - k * math.log(k)) > 1e-10:
            return k
    return None
