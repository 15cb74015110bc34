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

Every pi series here is a sum of pi at floor(x/j); `_quotient_sum` sums
it exactly over the ~2 sqrt(x) quotients `PrimeTable.pi_on_quotients`
reads (Dirichlet hyperbola grouping), never over all x/2 indices j.

The psi series of a factorial ratio is a float sum.  `_psi_series` adds
it as one correctly rounded sum of the table's psi values: all arguments'
quotients are merged, each value carries the integer count of its terms
(exact regrouping), and one `math.fsum` adds the exact products.  So the
result is `math.fsum` over the O(x) gather of every term, read in
O(sqrt x) work, and no numpy reduction order or long double enters it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .decomposition import level_prime_count
from .errors import DomainError, OutOfRangeError
from .primes import (MAX_FLOAT_INT, MAX_LIMIT, PrimeTable, _as_int,
                     _binom_divisor_count, _floor_real, _shown)

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
        """The fields as one flat record, with ``details`` merged in."""
        row = {f.name: getattr(self, f.name) for f in fields(self)}
        row.update(row.pop("details"))
        return row


@dataclass(frozen=True)
class FactorialRatioSpec:
    """Multipliers (n_1..n_j ; m_1..m_l) for the balanced factorial ratio
    (n_1 k)! ... (n_j k)! / ((m_1 k)! ... (m_l k)!).  Balance means the
    two multiplier sums agree, which is validated at construction, where
    the multipliers are stored as tuples of Python ints, each at most
    `MAX_FLOAT_INT`, so that `growth_rate` reads each as a float and
    `log_ratio` as an int64 exactly."""
    numerator_multipliers: tuple[int, ...]
    denominator_multipliers: tuple[int, ...]

    def __post_init__(self):
        ns, ms = (tuple(_as_int(v, "multiplier", lo=1, hi=MAX_FLOAT_INT) for v in vs)
                  for vs in (self.numerator_multipliers, self.denominator_multipliers))
        object.__setattr__(self, "numerator_multipliers", ns)
        object.__setattr__(self, "denominator_multipliers", ms)
        if not ns or not ms:
            raise DomainError("both multiplier lists must be nonempty")
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
        """log of the ratio at k >= 0, rounded once from the extended
        precision log(x!) of one `_log_factorial_pass` over every
        multiplier times k; max multiplier * k <= `MAX_LIMIT`.  Each value
        is split into its float64 rounding and the exact float64 rest,
        and one fsum adds the signed parts."""
        k = _as_int(k, "k", lo=0, hi=MAX_LIMIT // self.max_multiplier)
        ns, ms = self.numerator_multipliers, self.denominator_multipliers
        lf = _log_factorial_pass(np.array(ns + ms, dtype=np.int64) * k)
        lf[len(ns):] *= -1
        hi = lf.astype(np.float64)
        return math.fsum(hi.tolist() + (lf - hi).astype(np.float64).tolist())


def _check_pair(n: int, m: int, k: int) -> tuple[int, int, int]:
    """(n, m, k) as Python ints; refuses a non-integer, n >= m >= 1 or k >= 1 failing."""
    n, m, k = _as_int(n, "n"), _as_int(m, "m"), _as_int(k, "k", lo=1)
    if not (n >= m >= 1):
        raise DomainError(f"need n >= m >= 1, got n={_shown(n)}, m={_shown(m)}")
    return n, m, k


def _quotient_sum(table: PrimeTable, x: int, coef=(1,)) -> int:
    """sum over j >= 1 of c_j * pi(floor(x/j)), with the periodic
    coefficients c_j = coef[(j - 1) % len(coef)].

    One pass over the values q of `_quotients(x)`, with pi at each from
    `PrimeTable.pi_on_quotients` (which refuses x past the table): the j
    sharing q are (lo, hi], hi the largest j with floor(x/j) = q and lo
    the previous value's hi (0 for the first), so q is weighted by the
    coefficient mass C(hi) - C(lo) of its run, where C(v) = sum of c_j
    over j <= v.  The run ends need no division: with r = isqrt(x) and s
    tail values, hi is j itself at the head value floor(x/j), j <= r, and
    at the tail value v <= s it is floor(x/v), the head value at j = v.
    So 0 and the ends, in order, are 0..r and then the first s head
    values reversed.  With period 1, C(v) = c_1 v, and the masses are c_1
    times the run lengths.  Integer arithmetic throughout, O(sqrt x)
    work.  pi(0) = pi(1) = 0, so summing over every j equals stopping
    once the argument drops below 2.
    """
    if x < 2:
        return 0
    q, pi = table.pi_on_quotients(x)
    r = math.isqrt(x)
    ends = np.concatenate((np.arange(r + 1, dtype=np.int64), q[len(q) - r - 1::-1]))
    period = len(coef)
    if period == 1:
        return int(coef[0]) * int((np.diff(ends) * pi).sum())
    cum = np.concatenate(([0], np.cumsum(coef, dtype=np.int64)))
    mass = np.diff(ends // period * cum[-1] + cum[ends % period])
    return int((mass * pi).sum())


def omega_pi_series(n: int, m: int, k: int, table: PrimeTable) -> int:
    """sum_j [pi(nk/j) - pi((n-m)k/j) - pi(mk/j)], summed until every
    argument drops below 2.  All pi arguments are exact rationals, floored
    by integer division; each of the three series is evaluated over the
    O(sqrt(nk)) distinct quotients floor(x/j) by `_quotient_sum`."""
    n, m, k = _check_pair(n, m, k)
    return (_quotient_sum(table, n * k) - _quotient_sum(table, (n - m) * k)
            - _quotient_sum(table, m * k))


def omega_identity_report(n: int, m: int, k: int, table: PrimeTable) -> IdentityReport:
    """Oracle omega(C(nk, mk)) against the prime-count series, with the
    residual broken into exactly computed parts:

    * ``deep_level_primes``: primes dividing C(nk, mk) with no level-1
      carry, i.e. floor(nk/p) - floor(mk/p) - floor((n-m)k/p) = 0 (they
      sit in [1, sqrt(nk)]): omega minus the level-1 count, both read
      from the carry oracle's counter `_binom_divisor_count`;
    * ``regroup_correction``: series minus its grouped form, the prime
      counts at the endpoints of the level-1 intervals of (nk, mk)
      (identically 0, since dropped terms all have pi-argument < 2).

    residual == deep_level_primes - regroup_correction holds exactly, and
    is checked with a raise: by the interval criterion the level-1 carry
    primes are exactly the primes in the level-1 intervals, so the check
    compares the interval enumeration against the independent oracle.
    """
    n, m, k = _check_pair(n, m, k)
    big, small = n * k, m * k
    lhs, level1 = _binom_divisor_count(table, big, small)
    rhs = omega_pi_series(n, m, k, table)
    # the grouped form evaluates the paper's interval endpoints on purpose
    # (over the O(sqrt(nk)) cells that hold an integer): it is the witness
    # the quotient-grouped series and the carry oracle are checked against
    grouped = level_prime_count(table, big, small)
    deep = lhs - level1
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

#: log(x!) is read from Stirling's series at x >= _STIRLING_FROM, and
#: below it from `_SMALL_LOGFACT`, the extended-precision running sums of
#: the logs: log(0!) = 0, log(1!), ..., log(31!).
_STIRLING_FROM = 32
_SMALL_LOGFACT = np.concatenate(([np.longdouble(0)], np.cumsum(
    np.log(np.arange(1, _STIRLING_FROM, dtype=np.longdouble)))))
_SMALL_LOGFACT.setflags(write=False)
_HALF_LOG_2PI = np.longdouble("0.91893853320467274178032973640561763986")
#: B_2r / (2r (2r - 1)), r = 1..6, the coefficients of 1/x^(2r - 1)
_STIRLING_TERMS = tuple(np.longdouble(a) / np.longdouble(b) for a, b in (
    (1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188), (-691, 360360)))
#: Most values one pass of `log_factorial` holds in extended precision.
_PASS = 1 << 16


def _log_factorial_pass(x: np.ndarray) -> np.ndarray:
    """log(x!) in extended precision at a flat integer array x."""
    small = x < _STIRLING_FROM
    t = x.astype(np.longdouble)
    t[small] = _STIRLING_FROM  # any x in the series' range; replaced below
    y = 1 / (t * t)
    series = _STIRLING_TERMS[-1]
    for c in _STIRLING_TERMS[-2::-1]:
        series = series * y + c
    out = (t + 0.5) * np.log(t) - t + _HALF_LOG_2PI + series / t
    out[small] = _SMALL_LOGFACT[x[small]]
    return out


def log_factorial(x):
    """log(x!) as float64: a float for an int x, else an array shaped as
    the int array x; every x lies in [0, `MAX_FLOAT_INT`].

    At x >= 32 it sums Stirling's series (DLMF 5.11.1)
    (x + 1/2) log x - x + log(2 pi)/2 + sum_{r=1..6} B_2r / (2r (2r - 1) x^(2r - 1))
    in 80-bit extended precision; below 32 it reads `_SMALL_LOGFACT`.
    Each value is rounded once to float64.  The first omitted term is
    below 2e-22 at x = 32, far under the extended-precision rounding, so
    every value lies within 1 ulp of log(x!) and nearly all are correctly
    rounded.  Nothing is stored between calls; an array is read in
    passes of at most `_PASS` values."""
    scalar = np.ndim(x) == 0
    if scalar:
        x = np.array([_as_int(x, "x", lo=0, hi=MAX_FLOAT_INT)])
    else:
        x = np.asarray(x)
        if x.dtype.kind not in "iu":
            raise DomainError(f"log_factorial needs integers, got dtype {x.dtype}")
        if not x.size:
            return np.zeros(x.shape)
        _as_int(x.min(), "x", lo=0)
        _as_int(x.max(), "x", hi=MAX_FLOAT_INT)
    flat = x.ravel()
    out = np.empty(flat.size, dtype=np.float64)
    for lo in range(0, flat.size, _PASS):
        out[lo:lo + _PASS] = _log_factorial_pass(flat[lo:lo + _PASS])
    return float(out[0]) if scalar else out.reshape(x.shape)


def log_factorial_prefix(limit: int) -> np.ndarray:
    """`log_factorial` at x = 0, 32, 64, ... <= limit, a new float64
    array; ``limit`` lies in [0, `MAX_LIMIT`].

    A short reader kept only because the benchmark worker calls it in the
    `series_1e7` set-up; ROADMAP item 6 deletes it together with that
    call."""
    limit = _as_int(limit, "limit", lo=0, hi=MAX_LIMIT)
    return log_factorial(np.arange(0, limit + 1, 32))


#: Veltkamp's splitter for float64 (Dekker 1971): v * (2^27 + 1) cuts v
#: into hi + lo, each of at most 26 significant bits.
_SPLITTER = float((1 << 27) + 1)


def _weighted_fsum(v: np.ndarray, w: np.ndarray, bound: int) -> float:
    """sum of w * v, correctly rounded, for float64 values v and integral
    float64 weights w with |w| < bound.

    w * v is exact where |w| is a power of two.  Elsewhere v is split into
    hi + lo, so w * hi and w * lo are exact while |w| < 2^27.  One
    `math.fsum` (Shewchuk 1997) rounds the sum of the exact terms once.  A
    weight at or past min(bound, 2^27) raises `RuntimeError`: the caller's
    proof that |w| < bound has failed, or the split would not be exact."""
    m = np.abs(w).astype(np.int64)
    if m.size and m.max() >= min(bound, 1 << 27):
        raise RuntimeError(f"psi weight {m.max()} reaches the bound {bound}")
    one = (m & (m - 1)) == 0
    vs, ws = v[~one], w[~one]
    c = vs * _SPLITTER
    hi = c - (c - vs)
    return math.fsum(np.concatenate((w[one] * v[one], ws * hi, ws * (vs - hi))).tolist())


def _psi_series(table: PrimeTable, num: list[int], den: list[int]) -> float:
    """sum_i psi(y/i) over the arguments y of num, minus the same over den,
    correctly rounded from the table's psi values: num and den hold ints
    in [0, table.limit] with equal sums.

    Regrouped by value x = floor(y/i) >= 2.  With Y the largest argument
    and s = floor(Y/(isqrt(Y) + 1)), every argument's tail values lie in
    2..s, and its head values above s are y // j, j <= y // (s + 1)
    (see `_quotients`); one sort merges them and drops repeats.  For x
    and the next value x', the i with floor(y/i) = x number
    floor(y/x) - floor(y/x'), as no value of any y lies between.  So x
    has the weight w = f(x) - f(x'), f(x) = sum over num of floor(y/x)
    minus that over den, and f = 0 past the last value Y.  The sums agree,
    so f(x) is the den's fractional parts of y/x minus the num's, and
    |w| < the number of arguments.  psi is read once, at the x with w != 0,
    and `_weighted_fsum` adds w * psi(x) exactly.  The floors are taken
    of float64 quotients, which is exact for integers below 2^53."""
    ys = num + den
    top = max(ys)
    if top < 2:
        return 0.0
    s = top // (math.isqrt(top) + 1)
    j = np.arange(1, top // (s + 1) + 1, dtype=np.int64)
    x = np.sort(np.concatenate([np.arange(2, s + 1, dtype=np.int64)]
                               + [y // j[:y // (s + 1)] for y in ys]))
    x = x[np.concatenate(([True], x[1:] != x[:-1]))]
    xf = x.astype(np.float64)
    g = np.zeros(x.size)  # -f, so that w = g(x') - g(x)
    for y in den:
        g += np.floor(y / xf)
    for y in num:
        g -= np.floor(y / xf)
    w = np.diff(g, append=0.0)
    at = np.flatnonzero(w)
    return _weighted_fsum(table.psi_at(x[at]), w[at], len(ys))


def factorial_ratio_report(spec: FactorialRatioSpec, k: int, table: PrimeTable) -> IdentityReport:
    """Evaluate the balanced factorial ratio identity at k.

    lhs   = sum log(n_i k)! - sum log(m_i k)!, rounded once (`log_ratio`)
    rhs   = the psi series, the correctly rounded sum of the table's psi
            values (`_psi_series`); agrees with lhs up to float rounding
            (<= 1e-9 relative).
    Also records the linear-growth value k*log(prod n^n / prod m^m) and
    its residual, which grows like log k.
    """
    k = _as_int(k, "k", lo=1)
    if spec.max_multiplier * k > table.limit:
        raise OutOfRangeError(f"max argument {_shown(spec.max_multiplier * k)} "
                              f"exceeds table limit {table.limit}")
    lhs = spec.log_ratio(k)
    rhs = _psi_series(table, [v * k for v in spec.numerator_multipliers],
                      [v * k for v in spec.denominator_multipliers])
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
    if v < 2:
        return 0, 0.0
    # floor(x/i) == floor(floor(x)/i) for integer i, so integer division
    # on the floored argument is exact for any real x
    s = _quotient_sum(table, v, (1, -1))
    xf = float(x)
    return s, s / (xf / math.log(xf))


def bertrand_check(limit: int, table: PrimeTable) -> int | None:
    """Verify pi(2n) - pi(n) > 0 for all n in [1, limit].  Returns None on
    success, else the first counterexample n.

    Read over consecutive primes p_0 < p_1 < ... <= 2*limit rather than
    over every n: n = 1 needs p_0 = 2.  An n >= 2 has a largest prime
    p_i <= n, and (n, 2n] holds a prime iff p_{i+1} <= 2n; on
    [p_i, p_{i+1}) that fails first at n = p_i, and fails there iff
    p_{i+1} > 2 p_i.  So the first counterexample is the first p_i <= limit
    whose successor exceeds 2 p_i, or has none in the table (the table
    reaches 2*limit >= 2 p_i)."""
    limit = _as_int(limit, "limit", lo=1)
    p = table.primes_up_to(2 * limit)
    if p.size == 0 or p[0] != 2:
        return 1
    head = p[:int(np.searchsorted(p, limit, side="right"))]
    succ = p[1:head.size + 1]
    bad = np.flatnonzero(succ > 2 * head[:succ.size])
    if bad.size:
        return int(head[bad[0]])
    if succ.size < head.size:
        return int(head[-1])
    return None
