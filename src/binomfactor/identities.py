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

The psi series is a float sum, and regrouping its terms would move the
last bits of the result.  `_psi_series_one` keeps the reduction order of
one extended-precision np.sum over its c/2 float64 terms psi(floor(c/i)),
in order: pairwise sums over fixed blocks of `_PSI_BLOCK` = 8192 terms,
added in order.  It looks psi up once per quotient.  Each block's
pairwise sum is a perfect tree over 64 leaves of `_PSI_LEAF` = 128 terms,
and a leaf or block that lies inside one run of equal quotients is copies
of one value, whose pairwise sum is that value times the count to the
bit.  Only the leaves where runs meet and the short last block (73,792
of the 5*10^6 terms at c = 10^7) are expanded with np.repeat and summed;
the tree above the leaves is folded level by level.  So the sum is
bit-identical to the direct gather, with no O(c) index array, divisions
or term array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .decomposition import level_prime_count
from .errors import DomainError, OutOfRangeError
from .primes import (MAX_FLOAT_INT, MAX_LIMIT, PrimeTable, _as_int,
                     _binom_divisor_count, _floor_real, _quotients, _shown)

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
        """log of the ratio at k >= 0, from one `log_factorial` read of
        every multiplier times k (fsum); max multiplier * k <= `MAX_LIMIT`."""
        k = _as_int(k, "k", lo=0, hi=MAX_LIMIT // self.max_multiplier)
        ns, ms = self.numerator_multipliers, self.denominator_multipliers
        lf = log_factorial(np.array(ns + ms, dtype=np.int64) * k).tolist()
        return math.fsum(lf[:len(ns)] + [-v for v in lf[len(ns):]])


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


_PSI_BLOCK = 8192
# numpy's pairwise sum (PW_BLOCKSIZE in its loops) adds at most 128 terms
# with 8 accumulators and splits a longer run at half its length rounded
# down to a multiple of 8, so a whole block is a perfect tree of 64 leaves
_PSI_LEAF = 128


def _run_spans(ends, starts, size):
    """The run holding the first term of each span [s, s + size) of the
    psi terms, and whether the span's last term lies in that run too."""
    first = np.searchsorted(ends, starts, side="right")
    return first, first == np.searchsorted(ends, starts + (size - 1), side="right")


def _psi_series_one(table: PrimeTable, c: int) -> np.longdouble:
    """sum_i psi(c / i) over i >= 1 until the argument drops below 2.

    The terms psi(floor(c/i)), i = 1..c/2, come from one `PrimeTable.psi_at`
    read of the values q >= 2 of `_quotients(c)`, each repeated over its run
    of floor(c/q) - floor(c/q') consecutive i (q' the value before q).

    The reduction order is the one the outputs carry: the terms, cast to
    extended precision, are cut into blocks of B = `_PSI_BLOCK` = 8192; each
    block is summed pairwise (numpy's pairwise sum), and the block totals
    are added in order.  That is what np.sum(terms, dtype=np.longdouble)
    does over a float64 array at numpy's default buffer size of 8192, so
    the sum equals the direct gather over every i to the bit; unlike that
    np.sum, it does not depend on `np.getbufsize()`.

    The pairwise sum of a whole block is a perfect binary tree over 64
    leaves of L = `_PSI_LEAF` = 128 terms.  A leaf inside one run is L
    copies of v = psi(q), and its sum is exactly L*v: each of its 8
    accumulators adds 16 copies one at a time (k*v, k <= 16, needs at most
    4 bits beyond v's 53, within the 64-bit significand), and the 8 are
    joined by doublings.  Every node above equal children doubles them, so
    a whole block inside one run is exactly B*v.  A block is pure when its
    first and last terms share a run; its leaves can all be pure while it
    holds two runs, when a run ends on a leaf edge.  Inside the other
    blocks only the leaves where runs meet (the short runs of the large
    quotients and one leaf at each end of a long run) are expanded by
    np.repeat and summed as rows of L; six levels of adjacent pair sums
    fold each block's 64 leaves into its total, in the tree's order.  The
    short last block is expanded and summed pairwise, and one cumsum adds
    the block totals in order.  With c/2 <= B the single block is one
    pairwise sum.
    """
    if c < 2:
        return np.longdouble(0.0)
    q = _quotients(c)[:-1]
    ends = c // q  # run r covers the terms [ends[r - 1], ends[r])
    runs = np.diff(ends, prepend=0)
    psi = table.psi_at(q).astype(np.longdouble)
    n = c // 2  # terms i = 1..c/2, so n = ends[-1]
    B, L = _PSI_BLOCK, _PSI_LEAF
    if n <= B:
        return np.sum(np.repeat(psi, runs))
    full, rest = divmod(n, B)
    first, pure = _run_spans(ends, np.arange(0, full * B, B), B)
    mixed = np.flatnonzero(~pure)
    leaf_first, leaf_pure = _run_spans(
        ends, (mixed[:, None] * B + np.arange(0, B, L)).ravel(), L)
    owner, leaf_owner = first[pure], leaf_first[leaf_pure]
    # the pure blocks and leaves leave the expansion; the rest keep order
    terms = np.repeat(psi, runs - B * np.bincount(owner, minlength=runs.size)
                      - L * np.bincount(leaf_owner, minlength=runs.size))
    leaves = np.empty(leaf_first.size, dtype=np.longdouble)
    leaves[leaf_pure] = psi[leaf_owner] * L
    cut = (leaves.size - leaf_owner.size) * L
    leaves[~leaf_pure] = terms[:cut].reshape(-1, L).sum(axis=1)
    tree = leaves.reshape(mixed.size, B // L)
    while tree.shape[1] > 1:
        tree = tree[:, 0::2] + tree[:, 1::2]
    totals = np.empty(full + (rest > 0), dtype=np.longdouble)
    totals[:full][pure] = psi[owner] * B
    totals[mixed] = tree[:, 0]
    if rest:
        totals[full] = terms[cut:].sum()
    return np.cumsum(totals)[-1]


def factorial_ratio_report(spec: FactorialRatioSpec, k: int, table: PrimeTable) -> IdentityReport:
    """Evaluate the balanced factorial ratio identity at k.

    lhs   = sum log(n_i k)! - sum log(m_i k)!   (compensated log sums)
    rhs   = the psi series; agrees with lhs up to float rounding
            (<= 1e-9 relative).
    Also records the linear-growth value k*log(prod n^n / prod m^m) and
    its residual, which grows like log k.
    """
    k = _as_int(k, "k", lo=1)
    if spec.max_multiplier * k > table.limit:
        raise OutOfRangeError(f"max argument {_shown(spec.max_multiplier * k)} "
                              f"exceeds table limit {table.limit}")
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
