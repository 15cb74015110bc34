"""A grouped series converging to log k, for every integer k >= 2.

The n-th block is

    block(k, n) = sum_{i=1}^{k-1} 1/(nk - (k - i))  -  (k-1)/(nk)

and sum_n block(k, n) = log k.  At k = 2 the blocks are exactly the
paired alternating harmonic series 1/(2n-1) - 1/(2n); general k keeps
that shape with k-1 positive terms per block.

The ungrouped series is only conditionally convergent, so its terms may
not be reordered; but the first N blocks hold the positive terms 1/j for
j <= Nk that are not multiples of k, less (k-1)/(nk) for n <= N, and
(k-1)/(nk) = 1/n - 1/(nk).  So they sum to exactly

    S_N = H(Nk) - H(N),

which `partial_sum` evaluates in closed form instead of block by block.
Every block is positive and bounded by k/n^2 for n >= 2 (each of the k-1
brackets is at most (k-1)/(((n-1)k+1) * nk) <= 1/((n-1) n), so the block
is below (k-1)/((n-1)n) <= k/n^2), which gives the recorded tail envelope
k/N after N blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError
from .primes import MAX_FLOAT_INT, _as_int

#: The longest `ratio_series_residual` truncation.  tracemalloc puts its
#: peak at 32 bytes per truncation float, ~320 MB at this ceiling.
MAX_TERMS = 10_000_000

#: `partial_sum` adds 1/j directly for j <= this, and takes H(m) from its
#: Euler-Maclaurin series from here on, where the first term left out,
#: below 1/(132 m^10) ~ 6e-24, is far inside an extended-precision ulp.
_EM_FROM = 128

#: Largest k `block_term` takes (k - 1 Python divisions): ~1.0 s at it
#: (2 vCPU, numpy 2.4, as all times below).
MAX_BLOCK_K = 10_000_000

#: Most terms `log3_closed_form_check` takes (a Python loop): ~1.7 s at it.
MAX_CLOSED_FORM_TERMS = 1_000_000

#: Most work `ratio_series_residual` takes, as (n - 1) * (truncation + 500):
#: each of its n - 1 passes costs ~9 us plus ~17 ns per float, ~3.2 s at it.
MAX_RATIO_WORK = 200_000_000

#: `ratio_series_residual` sums each row in blocks of this many terms.
_SUM_BLOCK = 8192

#: Largest upper `telescoping_check` takes (about cubic: big-int k**k and a
#: growing fsum per k): ~0.9 s at it.
MAX_TELESCOPE_UPPER = 4000


def block_term(k: int, n: int) -> float:
    """One block of the series, its inner terms combined exactly (fsum), for
    2 <= k <= `MAX_BLOCK_K` and 1 <= n <= `MAX_FLOAT_INT`."""
    k, n = _as_int(k, "k", lo=2, hi=MAX_BLOCK_K), _as_int(n, "n", lo=1, hi=MAX_FLOAT_INT)
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
    """Sum of the first N = `terms` blocks, with the k/N tail envelope.

    The sum is H(Nk) - H(N) (module docstring), evaluated in extended
    precision and rounded once to float64, in a few microseconds whatever
    N and k are: 1/j summed directly for N < j <= min(Nk, 128), and above
    that log(Nk/m) + e(Nk) - e(m) with m = max(N, 128), where
    e(m) = H(m) - log m - gamma (`_harmonic_excess`).  Where numpy's
    longdouble is the x87 80-bit format, the result is within about half
    an ulp of the exact value (the tests hold it to one ulp); where
    longdouble is float64, the roundings of the steps show in the result.

    Needs k >= 1, N >= 1 and N * k <= `MAX_FLOAT_INT`; k = 1 is the
    trivial fast path (log 1 = 0, no blocks).
    """
    k, terms = _as_int(k, "k", lo=1), _as_int(terms, "terms", lo=1)
    top = _as_int(k * terms, "k * terms", hi=MAX_FLOAT_INT)
    if k == 1:
        return SeriesState(1, 0, 0.0, 0.0)
    total = (1 / np.arange(terms + 1, min(top, _EM_FROM) + 1, dtype=np.longdouble)).sum()
    low = max(terms, _EM_FROM)
    if top > low:
        # top / low is exact: k when low = N, a division by 2^7 otherwise
        total += (np.log(np.longdouble(top) / low)
                  + _harmonic_excess(top) - _harmonic_excess(low))
    return SeriesState(k, terms, float(total), k / terms)


def _harmonic_excess(m: int) -> np.longdouble:
    """e(m) = H(m) - log m - gamma for m >= `_EM_FROM`, in extended
    precision: 1/(2m) - 1/(12m^2) + 1/(120m^4) - 1/(252m^6) + 1/(240m^8)."""
    y = 1 / np.longdouble(m) ** 2
    return 1 / (2 * np.longdouble(m)) - y / 12 + y**2 / 120 - y**3 / 252 + y**4 / 240


def log3_closed_form_check(terms: int) -> float:
    """Max |block(3, j) - (9j-4)/((3j-2)(3j-1)(3j))| over j <= terms."""
    terms = _as_int(terms, "terms", lo=1, hi=MAX_CLOSED_FORM_TERMS)
    worst = 0.0
    for j in range(1, terms + 1):
        closed = (9 * j - 4) / ((3 * j - 2) * (3 * j - 1) * (3 * j))
        worst = max(worst, abs(block_term(3, j) - closed))
    return worst


def ratio_series_residual(n: int, truncation: int) -> float:
    """Residual of log(n^n / (n-1)^(n-1)) against the truncated double sum

        sum_{j=0}^{J-1} sum_{i=1}^{n-1} (1/(j + i/n) - 1/(j + i/(n-1)))

    The per-j term is ~ 1/(2 j^2), so the residual decays like 1/(2J).
    Needs 2 <= n <= `MAX_FLOAT_INT`, 1 <= J <= `MAX_TERMS` and
    (n - 1) * (J + 500) <= `MAX_RATIO_WORK`.
    """
    n = _as_int(n, "n", lo=2, hi=MAX_FLOAT_INT)
    truncation = _as_int(truncation, "truncation", lo=1, hi=MAX_TERMS)
    if (n - 1) * (truncation + 500) > MAX_RATIO_WORK:
        raise OutOfRangeError(
            f"ratio_series_residual needs (n - 1) * (truncation + 500) <= {MAX_RATIO_WORK}")
    lhs = n * math.log(n) - (n - 1) * math.log(n - 1)
    j = np.arange(0, truncation, dtype=np.float64)
    total = np.longdouble(0.0)
    for i in range(1, n):
        total += _blocked_sum(1.0 / (j + i / n) - 1.0 / (j + i / (n - 1)))
    return abs(lhs - float(total))


def _blocked_sum(terms: np.ndarray) -> np.longdouble:
    """The extended-precision sum of a float64 array, in the order of
    np.sum(terms, dtype=np.longdouble) at numpy's default buffer size but
    independent of `np.getbufsize()`: blocks of `_SUM_BLOCK` terms, each
    cast and summed pairwise, the block totals added in order (the order
    `identities._psi_series_one` keeps).  One block is cast at a time."""
    total = np.longdouble(0.0)
    for lo in range(0, terms.size, _SUM_BLOCK):
        total += terms[lo:lo + _SUM_BLOCK].astype(np.longdouble).sum()
    return total


def telescoping_check(upper: int) -> int | None:
    """Verify that the per-step ratios log(m^m / (m-1)^(m-1)) telescope:
    their sum up to every k <= upper equals k log k within 1e-10.

    The ratios are computed from exact integer powers (correctly rounded
    big-int division), not from the telescoped form itself.  Returns None
    on success, else the first failing k.
    """
    upper = _as_int(upper, "upper", lo=2, hi=MAX_TELESCOPE_UPPER)
    steps: list[float] = []
    for k in range(2, upper + 1):
        steps.append(math.log(k ** k / (k - 1) ** (k - 1)))
        if abs(math.fsum(steps) - k * math.log(k)) > 1e-10:
            return k
    return None
