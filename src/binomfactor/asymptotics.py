"""Growth constants for omega(C(nk, mk)) and empirical convergence sweeps.

omega(C(nk, mk)) * log k / k tends to log(n^n / (m^m (n-m)^(n-m))).
The constant is exact closed form; convergence itself is slow (the error
is only o(k / log k)), so sweeps report ratios and trends rather than
asserting fixed tolerances at fixed k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .identities import omega_pi_series
from .primes import (MAX_FLOAT_INT, PrimeTable, _as_int, _binom_divisor_count,
                     _shown)


def _xlogx(v: int) -> float:
    return v * math.log(v) if v > 0 else 0.0


def omega_growth_constant(n: int, m: int) -> float:
    """log(n^n / (m^m (n-m)^(n-m))), the limit of omega(C(nk, mk)) * log k / k,
    in closed form; 0 * log 0 reads as 0, and the value is computed with
    (m, n-m) in sorted order so it is bitwise symmetric under m <-> n-m."""
    n, m = _as_int(n, "n", hi=MAX_FLOAT_INT), _as_int(m, "m")
    if not 1 <= m <= n:
        raise DomainError(f"need 1 <= m <= n, got n={_shown(n)}, m={_shown(m)}")
    lo, hi = sorted((m, n - m))
    return _xlogx(n) - _xlogx(lo) - _xlogx(hi)


def growth_constant_table() -> list[tuple[Fraction, float]]:
    """The reference list of per-ratio limits for omega(C(k, rk)) / (k / log k).

    Each row is (r, constant): for r = 1/d the constant is
    log(d^d / (d-1)^(d-1)) / d, and the 2/5 row uses the (5, 2) constant
    scaled by 5 since C(k, 2k/5) = C(5K, 2K) at K = k/5.
    """
    rows: list[tuple[Fraction, float]] = []
    for d in (2, 3, 4, 5, 10, 100):
        rows.append((Fraction(1, d), omega_growth_constant(d, 1) / d))
    rows.append((Fraction(2, 5), omega_growth_constant(5, 2) / 5))
    return rows


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    m: int
    k: int
    omega: int
    predicted: float
    ratio: float
    series_value: int


def convergence_sweep(n: int, m: int, k_grid, table: PrimeTable) -> list[ConvergenceRow]:
    """omega from the sieve oracle (authoritative) against the predicted
    growth constant * k / log k, with the prime-count series recorded
    alongside for comparison."""
    const = omega_growth_constant(n, m)
    # as Python ints, so that n * k cannot overflow a numpy integer
    n, m = int(n), int(m)
    rows = []
    for k in k_grid:
        k = _as_int(k, "k", lo=2)
        omega, _ = _binom_divisor_count(table, n * k, m * k)
        series = omega_pi_series(n, m, k, table)
        predicted = const * k / math.log(k)
        ratio = omega / predicted if predicted else math.nan
        rows.append(ConvergenceRow(n, m, k, omega, predicted, ratio, series))
    return rows


@dataclass(frozen=True)
class SparseRegimeRow:
    n: int
    k: int
    omega: int
    ratio: float


def sparse_regime_table(pairs, table: PrimeTable) -> list[SparseRegimeRow]:
    """For pairs (n, k) with k = o(n): omega(C(n, k)) * log n / n, which
    must decrease along such a family."""
    rows = []
    for n, k in pairs:
        omega, _ = _binom_divisor_count(table, n, k)
        rows.append(SparseRegimeRow(int(n), int(k), omega, omega * math.log(n) / n))
    return rows
