"""Prime-count and psi-sum identities with exact residual accounting.

Two families of identities are evaluated here, always against the sieve
oracle:

* omega(C(nk, mk)) versus the prime-count series
  sum_j [pi(nk/j) - pi((n-m)k/j) - pi(mk/j)], whose difference is exactly
  the number of primes dividing C(nk, mk) with no level-1 carry (plus a
  regrouping correction that the tests show to be identically zero);

* log of a balanced factorial ratio versus the psi series
  sum_i [psi(n1 k/i) + ... - psi(m1 k/i) - ...], an exact identity whose
  floating residual is pure rounding, and versus the linear-growth form
  k * log(prod n^n / prod m^m) whose residual is O(log k).

Also: the alternating sum sum_i (-1)^(i+1) pi(x/i), whose ratio against
x/log x tends to log 2, and the Bertrand sweep pi(2n) > pi(n).

Every pi series here is a sum of pi at floor(x/j), whose ~2 sqrt(x)
values are `primes._quotients(x)`; `_quotient_sum` evaluates it exactly
over them (Dirichlet hyperbola grouping), never over all x/2 indices j.

The psi series is a float sum, and regrouping its terms would move the
last bits of the result.  `_psi_series_one` therefore still sums all c/2
terms psi(floor(c/i)), in order, with one extended-precision np.sum, but
it looks psi up only once per quotient and expands the runs of equal
quotients with np.repeat: the terms, their order and the reduction are
those of the direct gather, so the sum is bit-identical, and the O(c)
int64 index array and its O(c) divisions are gone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decomposition import level_prime_count
from .errors import DomainError, OutOfRangeError
from .primes import (_CHUNK, MAX_LIMIT, PrimeTable, _binom_divisor_flags,
                     _floor_real, _quotients)

IDENTITY_OMEGA_PI = "omega_pi"
IDENTITY_FACTORIAL_RATIO_PSI = "factorial_ratio_psi"


@dataclass
class IdentityReport:
    """lhs/rhs/residual record for one identity instance.

    ``normalization`` names the scaling applied to ``normalized_residual``
    so the number is never reported bare.
    """
    identity_id: str
    params: dict
    lhs: float
    rhs: float
    residual: float
    normalized_residual: float
    normalization: str
    details: dict

    def to_row(self) -> dict:
        row = {
            "identity_id": self.identity_id,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "normalized_residual": self.normalized_residual,
            "normalization": self.normalization,
        }
        row.update(self.details)
        return row


@dataclass(frozen=True)
class FactorialRatioSpec:
    """Multipliers (n_1..n_j ; m_1..m_l) for the balanced factorial ratio
    (n_1 k)! ... (n_j k)! / ((m_1 k)! ... (m_l k)!).  Balance means the
    two multiplier sums agree, which is validated at construction."""
    numerator_multipliers: tuple[int, ...]
    denominator_multipliers: tuple[int, ...]

    def __post_init__(self):
        ns, ms = self.numerator_multipliers, self.denominator_multipliers
        if not ns or not ms:
            raise DomainError("both multiplier lists must be nonempty")
        if any(v < 1 for v in ns + ms):
            raise DomainError("multipliers must be positive integers")
        if sum(ns) != sum(ms):
            raise DomainError(
                f"unbalanced spec: sum{ns} = {sum(ns)} != sum{ms} = {sum(ms)}")

    @property
    def max_multiplier(self) -> int:
        return max(self.numerator_multipliers + self.denominator_multipliers)

    @property
    def period(self) -> int:
        """lcm of the multipliers, the period of the psi series' coefficients."""
        return math.lcm(*self.numerator_multipliers, *self.denominator_multipliers)

    @property
    def growth_rate(self) -> float:
        """log(prod n^n / prod m^m) = sum n log n - sum m log m."""
        return math.fsum(
            [v * math.log(v) for v in self.numerator_multipliers]
            + [-v * math.log(v) for v in self.denominator_multipliers])

    def log_ratio(self, k: int) -> float:
        """log of the ratio at k >= 0, from the log-factorial table (fsum)."""
        if k < 0:
            raise DomainError(f"need k >= 0, got k={k}")
        lf = log_factorial_prefix(self.max_multiplier * k)
        return math.fsum(
            [float(lf[v * k]) for v in self.numerator_multipliers]
            + [-float(lf[v * k]) for v in self.denominator_multipliers])


def _check_pair(n: int, m: int, k: int, table: PrimeTable) -> None:
    if not (n >= m >= 1):
        raise DomainError(f"need n >= m >= 1, got n={n}, m={m}")
    if k < 1:
        raise DomainError(f"need k >= 1, got k={k}")
    if n * k > table.limit:
        raise OutOfRangeError(f"n*k = {n * k} exceeds table limit {table.limit}")


def _quotient_sum(pp: np.ndarray, x: int, coef=(1,)) -> int:
    """sum over j >= 1 of c_j * pp[floor(x/j)], with the periodic
    coefficients c_j = coef[(j - 1) % len(coef)].

    One pass over the values q of `_quotients(x)`: the j sharing q are
    (lo, hi] with hi = floor(x/q) and lo the previous value's hi (0 for
    the first), so q is weighted by the coefficient mass C(hi) - C(lo) of
    its run, where C(v) = sum of c_j over j <= v.  Integer arithmetic
    throughout, O(sqrt x) work.  With pp = pi_prefix, pp[0] = pp[1] = 0,
    so summing over every j equals stopping once the argument drops
    below 2.
    """
    if x < 2:
        return 0
    c = np.asarray(coef, dtype=np.int64)
    period = len(c)
    cum = np.concatenate(([0], np.cumsum(c)))
    q = _quotients(x)
    hi = x // q
    mass = np.diff(hi // period * cum[-1] + cum[hi % period], prepend=0)
    return int((mass * pp[q]).sum())


def omega_pi_series(n: int, m: int, k: int, table: PrimeTable) -> int:
    """sum_j [pi(nk/j) - pi((n-m)k/j) - pi(mk/j)], summed until every
    argument drops below 2.  All pi arguments are exact rationals, floored
    by integer division; each of the three series is evaluated over the
    O(sqrt(nk)) distinct quotients floor(x/j) by `_quotient_sum`."""
    _check_pair(n, m, k, table)
    pp = table.pi_prefix
    return (_quotient_sum(pp, n * k) - _quotient_sum(pp, (n - m) * k)
            - _quotient_sum(pp, m * k))


def omega_identity_report(n: int, m: int, k: int, table: PrimeTable) -> IdentityReport:
    """Oracle omega(C(nk, mk)) against the prime-count series, with the
    residual broken into exactly computed parts:

    * ``deep_level_primes``: primes dividing C(nk, mk) with no level-1
      carry, i.e. floor(nk/p) - floor(mk/p) - floor((n-m)k/p) = 0 (they
      sit in [1, sqrt(nk)]), counted from the carry oracle's own
      level-1 flags;
    * ``regroup_correction``: series minus its grouped form, the prime
      counts at the endpoints of the level-1 intervals of (nk, mk)
      (identically 0, since dropped terms all have pi-argument < 2).

    residual == deep_level_primes - regroup_correction holds exactly, and
    is checked with a raise: by the interval criterion the level-1 carry
    primes are exactly the primes in the level-1 intervals, so the check
    compares the interval enumeration against the independent oracle.
    """
    _check_pair(n, m, k, table)
    big, small = n * k, m * k
    _, divides, level1 = _binom_divisor_flags(table, big, small)
    lhs = int(divides.sum())
    rhs = omega_pi_series(n, m, k, table)
    # the grouped form evaluates the paper's interval endpoints on purpose
    # (over the O(sqrt(nk)) cells that hold an integer): it is the witness
    # the quotient-grouped series and the carry oracle are checked against
    grouped = level_prime_count(table, big, small)
    deep = lhs - int(level1.sum())
    regroup = rhs - grouped
    residual = lhs - rhs
    if residual != deep - regroup:
        raise RuntimeError(f"omega residual {residual} at (n, m, k) = ({n}, {m}, {k}) "
                           f"is not deep {deep} minus regroup {regroup}")
    return IdentityReport(
        identity_id=IDENTITY_OMEGA_PI,
        params={"n": n, "m": m, "k": k},
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        normalized_residual=residual / math.sqrt(k),
        normalization="residual/sqrt(k)",
        details={
            "grouped_rhs": grouped,
            "deep_level_primes": deep,
            "regroup_correction": regroup,
        },
    )


# -- factorial ratios ---------------------------------------------------

_LOGFACT = np.zeros(1, dtype=np.float64)
_LOGFACT.setflags(write=False)


def log_factorial_prefix(limit: int) -> np.ndarray:
    """log(0!), log(1!), ..., log(limit!) as a read-only float64 array.

    Accumulated from the logs themselves in 80-bit extended precision
    (never Stirling), so residuals of exact identities stay pure rounding.
    The array is cached and grown on demand: a larger table is built
    whole, made read-only, and only then replaces the cache, so no caller
    sees a half-built or writeable cache.  A sequential cumsum makes every
    prefix of a larger table bit-identical to the smaller one.

    The sum runs in chunks, so only one chunk of extended-precision logs
    is alive at a time.  The running extended-precision carry is added to
    each chunk's first log before that chunk's cumsum, which performs the
    very additions of one sequential cumsum over the whole range.

    ``limit`` lies in [0, `MAX_LIMIT`] (1.6 GB of float64 at the top),
    the range of the tables its psi series are checked against.
    """
    global _LOGFACT
    if limit < 0:
        raise DomainError(f"log-factorial table needs limit >= 0, got {limit}")
    if limit > MAX_LIMIT:
        raise OutOfRangeError(
            f"log-factorial table needs limit <= {MAX_LIMIT}, got {limit}")
    cache = _LOGFACT
    if len(cache) <= limit:
        cache = np.empty(limit + 1, dtype=np.float64)
        carry = np.longdouble(0.0)
        for lo in range(0, limit + 1, _CHUNK):
            hi = min(lo + _CHUNK, limit + 1)
            c = np.arange(lo, hi, dtype=np.longdouble)
            if lo == 0:
                c[0] = 1.0  # log(0!) = log(1)
            np.log(c, out=c)
            c[0] += carry
            np.cumsum(c, out=c)
            cache[lo:hi] = c
            carry = c[-1]
        cache.setflags(write=False)
        _LOGFACT = cache
    return cache[:limit + 1]


def _psi_series_one(table: PrimeTable, c: int) -> np.longdouble:
    """sum_i psi(c / i) over i >= 1 until the argument drops below 2.

    The terms psi(floor(c/i)), i = 1..c/2, are laid out in order from one
    gather per value q >= 2 of `_quotients(c)`, each repeated over its
    run of floor(c/q) - floor(c/q') consecutive i (q' the value before
    q).  np.repeat expands those runs into the very float64 terms, in the
    very order, of the direct gather over every i, and one np.sum reduces
    them as it did, so the sum is unchanged to the bit.
    """
    if c < 2:
        return np.longdouble(0.0)
    q = _quotients(c)[:-1]
    runs = np.diff(c // q, prepend=0)
    return np.sum(np.repeat(table.psi_prefix[q], runs), dtype=np.longdouble)


def factorial_ratio_report(spec: FactorialRatioSpec, k: int, table: PrimeTable) -> IdentityReport:
    """Evaluate the balanced factorial ratio identity at k.

    lhs   = sum log(n_i k)! - sum log(m_i k)!   (compensated log sums)
    rhs   = the psi series; agrees with lhs up to float rounding
            (<= 1e-9 relative).
    Also records the linear-growth value k*log(prod n^n / prod m^m) and
    its residual, which grows like log k.
    """
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    if spec.max_multiplier * k > table.limit:
        raise OutOfRangeError(
            f"max argument {spec.max_multiplier * k} exceeds table limit {table.limit}")
    lhs = spec.log_ratio(k)
    acc = np.longdouble(0.0)
    for v in spec.numerator_multipliers:
        acc += _psi_series_one(table, v * k)
    for v in spec.denominator_multipliers:
        acc -= _psi_series_one(table, v * k)
    rhs = float(acc)
    growth = k * spec.growth_rate
    residual = lhs - rhs
    return IdentityReport(
        identity_id=IDENTITY_FACTORIAL_RATIO_PSI,
        params={
            "numerator_multipliers": list(spec.numerator_multipliers),
            "denominator_multipliers": list(spec.denominator_multipliers),
            "k": k,
        },
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        normalized_residual=residual / abs(lhs) if lhs else 0.0,
        normalization="residual/|lhs|",
        details={
            "asymptotic_rhs": growth,
            "asymptotic_residual": lhs - growth,
        },
    )


# -- alternating pi sum and Bertrand sweep -------------------------------


def alternating_pi_sum(x, table: PrimeTable) -> tuple[int, float]:
    """S(x) = sum_i (-1)^(i+1) pi(x/i) and the ratio S(x) / (x / log x).

    The ratio tends to log 2.  For x < 2 the sum is empty and the ratio
    is reported as 0.  The sum runs over the O(sqrt x) distinct quotients
    floor(x/i), each weighted by its count of odd i minus even i
    (`_quotient_sum` with the period-2 coefficients (1, -1))."""
    v = _floor_real(x)
    if v > table.limit:
        raise OutOfRangeError(f"x={x} exceeds table limit {table.limit}")
    if v < 2:
        return 0, 0.0
    # floor(x/i) == floor(floor(x)/i) for integer i, so integer division
    # on the floored argument is exact for any real x
    s = _quotient_sum(table.pi_prefix, v, (1, -1))
    xf = float(x)
    return s, s / (xf / math.log(xf))


def bertrand_check(limit: int, table: PrimeTable) -> int | None:
    """Verify pi(2n) - pi(n) > 0 for all n in [1, limit].  Returns None on
    success, else the first counterexample n."""
    if limit < 1:
        raise DomainError(f"limit must be >= 1, got {limit}")
    if 2 * limit > table.limit:
        raise OutOfRangeError(
            f"2*limit = {2 * limit} exceeds table limit {table.limit}")
    n = np.arange(1, limit + 1, dtype=np.int64)
    good = table.pi_prefix[2 * n] > table.pi_prefix[n]
    if good.all():
        return None
    return int(n[int(np.argmin(good))])
