"""Sieve-backed arithmetic oracles.

A :class:`PrimeTable` answers, for every integer up to a fixed limit:
the prime counting function pi(x) and the Chebyshev summatory function
psi(x) = sum of log p over prime powers p^j <= x from stored prefix
arrays, and primality as a unit step of the pi prefix.  On top of the
table this module provides Legendre's factorial exponents
e_p(n!) = sum_i floor(n/p^i), the derived exponent of a prime in a
binomial coefficient, and the brute-force "count the distinct prime
divisors of C(n, k)" oracle that every identity in the package is
validated against.  That oracle is Kummer's carry test: p divides
C(n, k) iff some power q = p^i <= n has k mod q > n mod q, which equals
the floor-difference carry floor(n/q) - floor(k/q) - floor((n-k)/q) = 1.
It runs as one array test over the primes (level 1) and one over every
higher power p^i <= n at once (`_power_ladder`), with no loop over root
levels.

`_quotients(x)`, the distinct floor(x/j), is the one quotient set that the
pi and psi series and the level-1 cells holding an integer all read.  The
exponent functions test a single p < 2^64 for primality by Miller-Rabin.

The table is immutable after construction and safe to share between
threads; every query is pure.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from .errors import DomainError, OutOfRangeError

#: The CLI's default sieve budget; enough for prime counts at arguments up to 10^7.
DEFAULT_LIMIT = 10_000_000

#: Hard budget.  The table stores 12.5 bytes per integer (int32 pi
#: prefix 4, float64 psi prefix 8, the primes ~0.5), ~2.5 GB at this
#: ceiling.  Building psi also needs a float64 Lambda temporary:
#: tracemalloc puts the build peak at 53 MB for limit 10^6 and 256 MB for
#: 10^7, i.e. 22.6 bytes per integer plus ~30 MB of fixed-size chunk
#: buffers, ~4.5 GB at this ceiling.  pi(x) <= x <= MAX_LIMIT < 2^31
#: keeps the int32 pi prefix exact.
MAX_LIMIT = 200_000_000

_CHUNK = 1 << 20


def _floor_real(x) -> int:
    """Exact floor of an int, Fraction, or float argument.

    Fractions are floored with integer arithmetic so that endpoints such
    as 2000/3 are classified without any float rounding.
    """
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, Fraction):
        return x.numerator // x.denominator
    if isinstance(x, float):
        if not math.isfinite(x):
            raise DomainError(f"argument must be finite, got {x!r}")
        return math.floor(x)
    raise DomainError(f"unsupported argument type {type(x).__name__}")


def integer_root(x: int, i: int) -> int:
    """Largest r >= 0 with r**i <= x, computed exactly for ints of any size."""
    if x < 0:
        raise DomainError("integer_root of a negative number")
    if i == 1:
        return x
    if i == 2:
        return math.isqrt(x)
    if x == 0:
        return 0
    # integer Newton steps from 2^ceil(bits/i), which is above the root,
    # decrease to the floor of the root and then stop; no float is involved
    x = int(x)
    r = 1 << -(-x.bit_length() // i)
    while True:
        s = ((i - 1) * r + x // r ** (i - 1)) // i
        if s >= r:
            break
        r = s
    while r > 0 and r ** i > x:
        r -= 1
    while (r + 1) ** i <= x:
        r += 1
    return r


def _quotients(x: int) -> np.ndarray:
    """The distinct floor(x/j), j >= 1, of an int x >= 1, descending, as
    int64: the one quotient set behind the pi and psi series and the
    level-1 cells that hold an integer (``_quotients(n)[:0:-1]``).

    With r = isqrt(x), the head floor(x/j), j <= r, strictly falls
    (x/j - x/(j+1) = x/(j(j+1)) > 1 for j < r) and stays >= r.  The tail
    is 1..s, s = floor(x/(r+1)) <= r: every j > r gives a value <= s, and
    each v <= s comes from j = floor(x/v) > r, as v(v+1) <= v(r+1) <= x.
    The two never meet: floor(x/r) = s needs s = r, i.e. r(r+1) <= x, and
    then floor(x/r) > r.  So there are at most 2r values, and with no
    value strictly between q and the value q' before it, the j sharing q
    are (floor(x/q'), floor(x/q)] ((0, 1] for q = x): one j per head value.
    """
    r = math.isqrt(x)
    return np.concatenate((x // np.arange(1, r + 1, dtype=np.int64),
                           np.arange(x // (r + 1), 0, -1, dtype=np.int64)))


class PrimeTable:
    """Immutable sieve table over [0, limit].

    It stores only what the prime-count and psi series read; primality
    is read off ``pi_prefix``.  Every array is read-only.

    Attributes
    ----------
    limit : int
        Largest integer the table can answer queries about.
    pi_prefix : numpy int32 array
        ``pi_prefix[n]`` = number of primes <= n.
    primes : numpy int64 array
        Ascending list of all primes <= limit.
    psi_prefix : numpy float64 array
        ``psi_prefix[n]`` = psi(n), accumulated in extended precision.
    """

    __slots__ = ("limit", "pi_prefix", "primes", "psi_prefix")

    def __init__(self, limit: int):
        if limit < 2:
            raise DomainError(f"sieve limit must be >= 2, got {limit}")
        if limit > MAX_LIMIT:
            raise DomainError(
                f"sieve limit {limit} exceeds the memory budget ({MAX_LIMIT})")
        self.limit = int(limit)
        mask = _sieve(self.limit)
        self.pi_prefix = np.cumsum(mask, dtype=np.int32)
        self.primes = np.flatnonzero(mask).astype(np.int64)
        del mask  # freed before the psi build's temporaries
        self.psi_prefix = _psi_prefix(_von_mangoldt(self.limit, self.primes))
        for arr in (self.pi_prefix, self.primes, self.psi_prefix):
            arr.setflags(write=False)

    # -- scalar queries ------------------------------------------------

    def pi(self, x) -> int:
        """Number of primes <= x.

        Accepts ints, floats, and exact Fractions; the floor is taken
        with exact arithmetic, never through a float conversion.
        """
        return int(self._lookup("pi", self.pi_prefix, x))

    def psi(self, x) -> float:
        """Chebyshev psi(x) = sum of Lambda(n) over n <= x, natural logs."""
        return float(self._lookup("psi", self.psi_prefix, x))

    def _lookup(self, name: str, prefix: np.ndarray, x):
        """prefix[floor(x)]; x < 0 reads index 0 (0 in both prefixes)."""
        v = _floor_real(x)
        if v > self.limit:
            raise OutOfRangeError(f"{name}({x}) exceeds table limit {self.limit}")
        return prefix[max(v, 0)]

    def is_prime(self, n: int) -> bool:
        """Primality of an integer n <= limit, read off ``pi_prefix``."""
        if not isinstance(n, (int, np.integer)):
            raise DomainError(f"is_prime needs an integer, got {n!r}")
        return n >= 2 and bool(self._lookup("is_prime", self.pi_prefix, n)
                               > self.pi_prefix[n - 1])

    # -- bulk helpers ----------------------------------------------------

    def primes_up_to(self, n: int) -> np.ndarray:
        """View of all primes <= n (ascending)."""
        if n > self.limit:
            raise OutOfRangeError(f"primes_up_to({n}) exceeds table limit {self.limit}")
        idx = int(np.searchsorted(self.primes, n, side="right"))
        return self.primes[:idx]

    def __repr__(self) -> str:  # pragma: no cover
        return f"PrimeTable(limit={self.limit}, primes={len(self.primes)})"


def _sieve(limit: int) -> np.ndarray:
    """Segmented sieve of Eratosthenes returning the primality mask."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    root = math.isqrt(limit)
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if base[p]:
            base[p * p::p] = False
    base_primes = np.flatnonzero(base).tolist()
    # segment the strike loop so each pass stays cache resident
    for lo in range(0, limit + 1, _CHUNK):
        hi = min(lo + _CHUNK, limit + 1)
        for p in base_primes:
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < hi:
                flags[start:hi:p] = False
    return flags


def _von_mangoldt(limit: int, primes: np.ndarray) -> np.ndarray:
    """Lambda(n) for every 0 <= n <= limit: log p at n = p^e (e >= 1), else
    0.  A prime weighs ``np.log`` of itself and a higher prime power
    ``math.log`` of its base; the two logs differ in the last bit at some
    primes."""
    lam = np.zeros(limit + 1, dtype=np.float64)
    lam[primes] = np.log(primes.astype(np.float64))
    root = math.isqrt(limit)
    for p in primes[primes <= root].tolist():
        lp = math.log(p)
        q = p * p
        while q <= limit:
            lam[q] = lp
            q *= p
    return lam


def _psi_prefix(lam: np.ndarray) -> np.ndarray:
    """Cumulative sums of Lambda, accumulated in 80-bit extended precision.

    The worst-case rounding of the chunked extended-precision cumsum is
    below 1e-13 relative, comfortably inside the 1e-12 contract for psi.
    """
    out = np.empty(lam.shape, dtype=np.float64)
    carry = np.longdouble(0.0)
    for lo in range(0, len(lam), _CHUNK):
        hi = min(lo + _CHUNK, len(lam))
        c = np.cumsum(lam[lo:hi], dtype=np.longdouble)
        c += carry
        out[lo:hi] = c
        carry = c[-1]
    return out


# -- factorial and binomial exponents ----------------------------------


#: The first twelve primes.  No composite below 3.18e23 is a strong
#: probable prime to all of them (Sorenson and Webster, Math. Comp. 86,
#: 2017), so `_is_prime_int` is exact on all of its range p < 2^64.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime_int(p: int) -> bool:
    """Primality of an integer p < 2^64, by a deterministic Miller-Rabin
    test to `_MILLER_RABIN_BASES` (at most 12 modular powers).  Raises `DomainError` for a non-integer and
    `OutOfRangeError` for p >= 2^64."""
    try:
        p = operator.index(p)
    except TypeError:
        raise DomainError(f"primality needs an integer, got {p!r}") from None
    if p >= 1 << 64:
        raise OutOfRangeError(f"primality test needs p < 2^64, got {p}")
    for b in _MILLER_RABIN_BASES:
        if p % b == 0:
            return p == b
    if p < 2:
        return False
    # p - 1 = d * 2^s with d odd
    s = ((p - 1) & (1 - p)).bit_length() - 1
    d = (p - 1) >> s
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def legendre_exponent(p: int, n: int) -> int:
    """Exponent of the prime p in n!, via e_p(n!) = sum_i floor(n / p^i)."""
    if not _is_prime_int(p):
        raise DomainError(f"{p} is not prime")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return _legendre_raw(p, n)


def _legendre_raw(p: int, n: int) -> int:
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def _check_binom_args(n: int, k: int, table: PrimeTable | None = None) -> None:
    """Reject (n, k) naming no C(n, k), or with n past the given table."""
    if not 0 <= k <= n or n < 1:
        raise DomainError(f"need 0 <= k <= n with n >= 1, got n={n}, k={k}")
    if table is not None and n > table.limit:
        raise OutOfRangeError(f"n={n} exceeds table limit {table.limit}")


def binom_exponent(p: int, n: int, k: int) -> int:
    """Exponent of the prime p in C(n, k).

    Computed as e_p(n!) - e_p(k!) - e_p((n-k)!); the result always
    satisfies p**e <= n, which is checked.
    """
    if not _is_prime_int(p):
        raise DomainError(f"{p} is not prime")
    _check_binom_args(n, k)
    e = _legendre_raw(p, n) - _legendre_raw(p, k) - _legendre_raw(p, n - k)
    if p ** e > n:
        raise RuntimeError(f"exponent {e} of {p} in C({n}, {k}) breaks p^e <= n")
    return e


def _power_ladder(bases: np.ndarray,
                  n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every power b^i <= n with i >= 2 of the ascending int64 bases
    2 <= b <= isqrt(n), in one shot: (base, exponent, power, start), the
    first three per power, grouped by base in ascending exponent, and
    ``start[t]`` the offset of the t-th base's first power (b^2 <= n, so
    no group is empty).

    The top exponent e of a base, the largest with b^e <= n, is guessed
    from floating-point logs, raised by one where that is exact and
    checked with a raise, all by exact int64 powers, so no float decides
    which powers are listed (b^e <= n < b^(e+1) iff b^e <= n and
    b^e > floor(n/b)).  Unless n is a power of b, log n / log b lies at
    least log(1 + 1/n) / log b > 5e-10 from every integer for
    n <= MAX_LIMIT, far beyond the logs' rounding, so the guess is exact
    there and falls short by at most one at a power of b.  No power formed
    exceeds b * n < 2^63.
    """
    if n > MAX_LIMIT:
        raise OutOfRangeError(f"power ladder needs n <= {MAX_LIMIT}, got n={n}")
    cut = n // bases
    e = (math.log(n) / np.log(bases)).astype(np.int64)
    e += bases ** e <= cut
    top = bases ** e
    if ((top > n) | (top <= cut) | (e < 2)).any():
        raise RuntimeError(f"power ladder exponents wrong at n={n}; "
                           "this indicates a rounding bug")
    count = e - 1
    start = np.cumsum(count) - count
    base = np.repeat(bases, count)
    exponent = np.arange(2, base.size + 2) - np.repeat(start, count)
    return base, exponent, base ** exponent, start


def _binom_divisor_flags(table: PrimeTable, n: int,
                         k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(primes <= n, "divides C(n, k)" per prime, "carries at p itself"
    per prime), fully vectorised, with no loop over root levels.

    p divides C(n, k) iff some power q = p^i carries, i.e. has
    floor(n/q) - floor(k/q) - floor((n-k)/q) = 1, and by Kummer's theorem
    (J. reine angew. Math. 44, 1852) that carry is the test
    k mod q > n mod q.  Proof, for 0 <= k <= n: write n = aq + r and
    k = bq + s with 0 <= r, s < q.  Then n - k = (a - b)q + (r - s).  If
    s <= r, then 0 <= r - s < q, so floor((n-k)/q) = a - b and the
    difference is 0; if s > r, then n - k = (a - b - 1)q + (q + r - s) with
    0 < q + r - s < q, so floor((n-k)/q) = a - b - 1 and the difference
    is 1.

    Level 1 is one such test over all primes <= n.  The powers p^i <= n
    with i >= 2 belong to the primes <= isqrt(n) only; `_power_ladder`
    lists them all at once and their carries are or-reduced per prime.
    """
    primes = table.primes_up_to(n)
    level1 = k % primes > n % primes
    small = primes[:int(np.searchsorted(primes, math.isqrt(n), side="right"))]
    _, _, q, start = _power_ladder(small, n)
    divides = level1.copy()
    divides[:small.size] |= np.logical_or.reduceat(k % q > n % q, start)
    return primes, divides, level1


def omega_binom_oracle(table: PrimeTable, n: int, k: int) -> tuple[int, np.ndarray]:
    """Ground truth for omega(C(n, k)): the count and the sorted array of
    distinct primes dividing C(n, k).

    Only primes <= n are enumerated; the coefficient itself is never
    factored (C(2000, 1000) has around 600 digits).
    """
    _check_binom_args(n, k, table)
    if k == 0 or k == n:
        return 0, np.empty(0, dtype=np.int64)
    primes, divides, _ = _binom_divisor_flags(table, n, k)
    hits = primes[divides]
    return len(hits), hits
