"""Sieve-backed arithmetic oracles.

A :class:`PrimeTable` answers, for every integer up to a fixed limit:
the prime counting function pi(x) from a two-level table (pi below each
multiple of 256, plus the primes counted from there), primality as a
unit step of pi, and the Chebyshev summatory function
psi(x) = sum of log p over prime powers p^j <= x from its values at the
prime powers alone: the prime powers <= x number pi(x) plus the higher
powers p^e <= x (e >= 2), and that count indexes psi.  On top of the
table this module provides Legendre's factorial exponents
e_p(n!) = sum_i floor(n/p^i), the derived exponent of a prime in a
binomial coefficient, and the brute-force "count the distinct prime
divisors of C(n, k)" oracle that every identity in the package is
validated against.  That oracle is Kummer's carry test: p divides
C(n, k) iff some power q = p^i <= n has k mod q > n mod q, which equals
the floor-difference carry floor(n/q) - floor(k/q) - floor((n-k)/q) = 1.
Level 1 (q = p) runs as one array test over the primes for small n, and
from `_GROUPED_FROM` on as one carry per block of integers on which
floor(n/x), floor(k/x) and floor((n-k)/x) are all constant (O(sqrt n)
blocks).  A count of the divisors sums the primes of the carrying
blocks; only a caller that returns per-prime hits or flags spreads the
blocks over the primes.  One more test covers every higher power q <= n
at once, with no loop over root levels.
Those powers are the table's own (`PrimeTable.prime_powers_up_to`):
`_powers_up_to` forms them at construction from its primes <= sqrt(limit),
each with its base's index among the primes.  They also serve the
membership check in prime-index space and the psi table.  The membership
mask and the pretty form have no table: each forms the powers of the
integers 2..isqrt(n) with `_powers_up_to` per call, for its level-i
witnesses and its i-th roots.  No module-level state is kept.

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

#: Hard budget.  The table stores ~2 bytes per integer: the uint8 pi
#: offsets 1, the int32 pi base 4/256, plus 8 per prime for the primes and
#: 8 per prime power for psi at the prime powers (2.27 B at limit 10^6,
#: 2.08 B or 20.8 MB at 10^7, 1.9 B or 380 MB at this ceiling).  The
#: offsets are counted in place in the sieve mask, so the build holds no
#: limit-sized int32 array: tracemalloc puts its peak at 5.4 MB for limit
#: 10^6, 30 MB for 10^7 and 480 MB at this ceiling (a ~6 s build, 2 vCPU).
#: pi(x) <= x <= MAX_LIMIT < 2^31 keeps the int32 pi base exact.
MAX_LIMIT = 200_000_000

#: 2^53, past which a float64 no longer holds every integer: the cap on an
#: integer argument that is turned into a float (far below float overflow).
MAX_FLOAT_INT = 1 << 53

#: The bound on the bit length of n in the single-prime exponents
#: `legendre_exponent` and `binom_exponent`, i.e. n < 2^4096: their
#: Legendre sums cost about the cube of it (~7 s at 2^20000, <= 0.1 s at
#: this cap).
MAX_EXPONENT_BITS = 4096

#: The bound on the bit length of x in `integer_root`, i.e. x < 2^8192:
#: its Newton steps cost more than linearly in it (<= ~13 ms at this cap,
#: 15-44 s at 1.6M bits).
MAX_ROOT_BITS = 1 << 13

_CHUNK = 1 << 20

#: `PrimeTable` stores pi below each multiple of 2^_PI_SHIFT = 256 and, per
#: integer, the primes counted from that multiple: at most the 128 odd
#: integers of a block, so a uint8 holds the count.
_PI_SHIFT = 8


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


def _as_int(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as a Python int, the one check of every integer argument:
    ints and numpy integers are taken as the ints they equal; a float (even
    10.0), a str, a Fraction or None raises `DomainError` naming the
    argument.  A value below ``lo`` (a domain floor) raises `DomainError`,
    one above ``hi`` (a budget or a table's limit) `OutOfRangeError`.  A
    refused value is named by `_shown`."""
    try:
        v = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if (lo is not None and v < lo) or (hi is not None and v > hi):
        need = (f"{name} <= {hi}" if lo is None else f"{name} >= {lo}" if hi is None
                else f"{lo} <= {name} <= {hi}")
        error = DomainError if lo is not None and v < lo else OutOfRangeError
        raise error(f"need {need}, got {_shown(v)}")
    return v


def _shown(v: int) -> int | str:
    """An int as a refusal names it: itself up to 128 bits, past that its
    bit length (its digits tell no more, and past Python's int-to-str
    limit cannot be made)."""
    return v if v.bit_length() <= 128 else (
        f"a{' negative' if v < 0 else 'n'} integer of {v.bit_length()} bits")


def integer_root(x: int, i: int) -> int:
    """Largest r >= 0 with r**i <= x, computed exactly for 0 <= x <
    2^`MAX_ROOT_BITS`.  Raises `DomainError` for a non-integer x or i,
    x < 0 or i < 1, and `OutOfRangeError` for a longer x."""
    x, i = _as_int(x, "x", lo=0), _as_int(i, "i", lo=1)
    _as_int(x.bit_length(), "bit length of x", hi=MAX_ROOT_BITS)
    if i == 1:
        return x
    if i == 2:
        return math.isqrt(x)
    if i >= x.bit_length():  # x < 2^i: the root is 0 or 1
        return min(x, 1)
    # integer Newton steps from 2^ceil(bits/i), which is above the root,
    # decrease to the floor of the root and then stop; no float is involved
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

    It stores only what the prime-count and psi series read: pi(x) is
    ``pi_base[x >> 8] + pi_offset[x]``, which no code outside the class
    reads; primality is a unit step of pi, and psi is stored once per
    prime power.  Every array is read-only.

    Attributes
    ----------
    limit : int
        Largest integer the table can answer queries about.
    pi_base : numpy int32 array
        ``pi_base[b]`` = number of primes below 256 b, for b <= limit >> 8.
    pi_offset : numpy uint8 array
        ``pi_offset[n]`` = number of primes in [256 floor(n / 256), n],
        at most 128.
    primes : numpy int64 array
        Ascending list of all primes <= limit.
    higher_powers : numpy int64 array
        Ascending list of the prime powers p^e <= limit with e >= 2.
    higher_base_index : numpy int64 array
        The index of p among the primes at each p^e of ``higher_powers``.
    psi_values : numpy float64 array
        0, then psi at each prime power <= limit in ascending order,
        accumulated in extended precision; `psi_at` reads it.
    """

    __slots__ = ("limit", "pi_base", "pi_offset", "primes", "higher_powers",
                 "higher_base_index", "psi_values")

    def __init__(self, limit: int):
        self.limit = limit = _as_int(limit, "sieve limit", lo=2, hi=MAX_LIMIT)
        mask = _sieve(limit)
        self.primes = np.flatnonzero(mask).astype(np.int64, copy=False)
        self.pi_base, self.pi_offset = _pi_levels(mask)
        bases = self.primes[:self._pi(math.isqrt(limit))]
        self.higher_base_index, _, self.higher_powers = _powers_up_to(bases, limit)
        self.psi_values = _psi_at_prime_powers(self)
        # the mask is the buffer pi_offset views, so it is made read-only too
        for arr in (mask, self.pi_base, self.pi_offset, self.primes,
                    self.higher_powers, self.higher_base_index, self.psi_values):
            arr.setflags(write=False)

    # -- scalar queries ------------------------------------------------

    def pi(self, x) -> int:
        """Number of primes <= x.

        Accepts ints, floats, and exact Fractions; the floor is taken
        with exact arithmetic, never through a float conversion.
        """
        return self._pi(self._index("pi", x))

    def psi(self, x) -> float:
        """Chebyshev psi(x) = sum of Lambda(n) over n <= x, natural logs."""
        return float(self.psi_at(self._index("psi", x)))

    def pi_at(self, x) -> np.ndarray:
        """pi at each integer of x, as int32; outside the table, pi is read
        only here and in `pi_on_quotients`.  Raises `DomainError` for a
        non-integer dtype and `OutOfRangeError` for x outside [0, limit]."""
        x = np.asarray(x)
        if x.dtype.kind not in "iu":
            raise DomainError(f"pi_at needs integers, got dtype {x.dtype}")
        if x.size and (x.min() < 0 or x.max() > self.limit):
            raise OutOfRangeError(f"pi_at needs 0 <= x <= {self.limit}, got [{x.min()}, {x.max()}]")
        return self._pi_read(x)

    def pi_on_quotients(self, x: int) -> tuple[np.ndarray, np.ndarray]:
        """(`_quotients(x)`, pi at each) for an int x; x outside [0, limit]
        raises `OutOfRangeError` before the quotients, all in [1, x], are built."""
        x = _as_int(x, "x")
        if not 0 <= x <= self.limit:
            raise OutOfRangeError(f"pi_on_quotients needs 0 <= x <= {self.limit}, got {_shown(x)}")
        q = _quotients(x)
        return q, self._pi_read(q)

    def psi_at(self, x) -> np.ndarray:
        """psi at each integer of x, 0 <= x <= limit, as float64.

        The prime powers <= x number pi(x) plus the higher powers <= x,
        and that count indexes `psi_values`; a ``searchsorted`` over the
        few higher powers (555 at 10^7) stands in for one over all of the
        prime powers.  `pi_at` checks x."""
        count = self.pi_at(x) + np.searchsorted(self.higher_powers, x, side="right")
        return self.psi_values[count]

    def _pi_read(self, x: np.ndarray) -> np.ndarray:
        """pi at each integer of x, 0 <= x <= limit, unchecked, as int32."""
        return self.pi_base[x >> _PI_SHIFT] + self.pi_offset[x]

    def _pi(self, v: int) -> int:
        """pi(v) for an int 0 <= v <= limit, from two int reads."""
        return self.pi_base.item(v >> _PI_SHIFT) + self.pi_offset.item(v)

    def _index(self, name: str, x) -> int:
        """floor(x), clamped below to 0 (pi and psi vanish there); refuses
        floor(x) > limit."""
        v = _floor_real(x)
        if v > self.limit:
            raise OutOfRangeError(f"{name}(x) needs floor(x) <= {self.limit}, got {_shown(v)}")
        return max(v, 0)

    def is_prime(self, n: int) -> bool:
        """Primality of an integer n <= limit: pi steps up at n."""
        n = _as_int(n, "n")
        return n >= 2 and self._pi(self._index("is_prime", n)) > self._pi(n - 1)

    # -- bulk helpers ----------------------------------------------------

    def primes_up_to(self, n: int) -> np.ndarray:
        """View of all primes <= n (ascending), the first pi(n) of them;
        empty for n < 2."""
        n = _as_int(n, "n", hi=self.limit)
        return self.primes[:self._pi(max(n, 0))]

    def prime_powers_up_to(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(index of p among the primes, p^e) for every prime power
        p^e <= n with e >= 2, ascending in p^e: views of the prefixes of
        ``higher_base_index`` and ``higher_powers``; empty for n < 4."""
        n = _as_int(n, "n", hi=self.limit)
        m = int(np.searchsorted(self.higher_powers, n, side="right"))
        return self.higher_base_index[:m], self.higher_powers[:m]

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


def _pi_levels(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(``pi_base``, ``pi_offset``) of `PrimeTable` from the primality mask
    over [0, limit], which becomes ``pi_offset``: each block of 256 is
    cumsummed in place as uint8, 2^20 integers at a time, so no
    limit-sized int32 array is made.  ``pi_base`` sums the block totals,
    the offsets at 256 b + 255, in int32."""
    offset = mask.view(np.uint8)
    block = 1 << _PI_SHIFT
    full = offset.size - offset.size % block
    for lo in range(0, full, _CHUNK):
        rows = offset[lo:min(lo + _CHUNK, full)].reshape(-1, block)
        np.cumsum(rows, axis=1, dtype=np.uint8, out=rows)
    tail = offset[full:]
    np.cumsum(tail, dtype=np.uint8, out=tail)
    blocks = (offset.size - 1) >> _PI_SHIFT  # the blocks below limit's own
    base = np.zeros(blocks + 1, dtype=np.int32)
    np.cumsum(offset[block - 1::block][:blocks], dtype=np.int32, out=base[1:])
    return base, offset


def _psi_at_prime_powers(table: PrimeTable) -> np.ndarray:
    """0 and then psi at each prime power <= limit in ascending order, as
    float64, for a table whose limit, primes, pi and higher powers are set.

    The higher powers are `PrimeTable.prime_powers_up_to(limit)`, and
    pi(h) primes precede a higher power h.  Lambda is log p at p^e:
    ``np.log`` of a prime and ``math.log`` of the base of a higher power
    (the two differ in the last bit at some primes).  psi(x) is the
    sum of Lambda(n) over n <= x, accumulated in 80-bit extended precision
    over 2^20-wide chunks of n, each chunk's total carried into the next.
    Adding a zero is exact, so one cumsum per chunk over its prime powers
    alone, plus the same carry, gives the dense sum's every value to the
    bit; the prime powers <= e number pi(e) plus the higher powers <= e.
    The worst-case rounding is below 1e-13 relative, inside the 1e-12
    contract for psi.
    """
    limit, primes = table.limit, table.primes
    at, higher = table.prime_powers_up_to(limit)
    lam = np.insert(np.log(primes.astype(np.float64)), table.pi_at(higher),
                    [math.log(p) for p in primes[at].tolist()])
    edges = np.minimum(np.arange(_CHUNK - 1, limit + _CHUNK, _CHUNK), limit)
    cuts = table.pi_at(edges) + np.searchsorted(higher, edges, side="right")
    psi = np.zeros(lam.size + 1, dtype=np.float64)
    carry = np.longdouble(0.0)
    lo = 0
    for hi in cuts.tolist():
        if hi > lo:
            c = np.cumsum(lam[lo:hi], dtype=np.longdouble)
            c += carry
            psi[lo + 1:hi + 1] = c
            carry = c[-1]
            lo = hi
    return psi


# -- factorial and binomial exponents ----------------------------------


#: The first twelve primes.  No composite below 3.18e23 is a strong
#: probable prime to all of them (Sorenson and Webster, Math. Comp. 86,
#: 2017), so `_is_prime_int` is exact on all of its range p < 2^64.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime_int(p: int) -> bool:
    """Primality of an integer p < 2^64, by a deterministic Miller-Rabin
    test to `_MILLER_RABIN_BASES` (at most 12 modular powers).  Raises `DomainError` for a non-integer and
    `OutOfRangeError` for p >= 2^64."""
    p = _as_int(p, "p", hi=(1 << 64) - 1)
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
    """Exponent of the prime p in n!, via e_p(n!) = sum_i floor(n / p^i),
    for 1 <= n < 2^`MAX_EXPONENT_BITS`."""
    if not _is_prime_int(p):
        raise DomainError(f"{p} is not prime")
    n = _as_int(n, "n", lo=1)
    _as_int(n.bit_length(), "bit length of n", hi=MAX_EXPONENT_BITS)
    return _legendre_raw(p, n)


def _legendre_raw(p: int, n: int) -> int:
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def _check_binom_args(n: int, k: int,
                      table: PrimeTable | None = None) -> tuple[int, int]:
    """(n, k) as Python ints; rejects a non-integer n or k, a pair naming
    no C(n, k), or n past the given table.  Numpy integers are accepted."""
    n, k = _as_int(n, "n"), _as_int(k, "k")
    if not 0 <= k <= n or n < 1:
        raise DomainError(f"need 0 <= k <= n with n >= 1, got n={_shown(n)}, k={_shown(k)}")
    if table is not None:
        _as_int(n, "n", hi=table.limit)
    return n, k


def binom_exponent(p: int, n: int, k: int) -> int:
    """Exponent of the prime p in C(n, k).

    Computed as e_p(n!) - e_p(k!) - e_p((n-k)!), for n < 2^`MAX_EXPONENT_BITS`;
    the result always satisfies p**e <= n, which is checked.
    """
    if not _is_prime_int(p):
        raise DomainError(f"{p} is not prime")
    n, k = _check_binom_args(n, k)
    _as_int(n.bit_length(), "bit length of n", hi=MAX_EXPONENT_BITS)
    e = _legendre_raw(p, n) - _legendre_raw(p, k) - _legendre_raw(p, n - k)
    if p ** e > n:
        raise RuntimeError(f"exponent {e} of {p} in C({n}, {k}) breaks p^e <= n")
    return e


def _powers_up_to(bases: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(index into ``bases``, exponent, power) for every power b^e <= n
    with e >= 2 of a base b in the ascending int64 array ``bases`` (all
    >= 2), as int64 arrays ascending in power (equal powers by exponent).

    Exponent e takes the m_e bases <= integer_root(n, e), a prefix, so
    the rows are the runs 0..m_e - 1 of indices, one run per e, raised in
    one int64 power: exact for n < 2^63.  Each caller passes its own
    bases and bounds n itself; nothing is kept."""
    m = np.searchsorted(bases, [integer_root(n, e) for e in range(2, n.bit_length())],
                        side="right")
    exponent = np.repeat(np.arange(2, m.size + 2, dtype=np.int64), m)
    index = np.arange(exponent.size, dtype=np.int64) - np.repeat(np.cumsum(m) - m, m)
    power = bases[index] ** exponent
    order = np.argsort(power, kind="stable")
    return index[order], exponent[order], power[order]


#: From this n on, `_binom_divisor_flags` and `_binom_divisor_count` run
#: the level-1 carry once per block of constant floors (`_grouped_level1`)
#: instead of once per prime.
#: Below it the grouped path's dozen numpy calls cost more than the
#: per-prime test.  With the block-end carry as two remainders the two
#: take the same time between n = 3.5 * 10^4 and 4.5 * 10^4 (2 vCPU, numpy
#: 2.4; BENCH_prime_index_check.json holds the crossover tables), so 2^16
#: still sits where the grouped path wins, and 2^15 would sit at the
#: crossover itself.  The per-prime test stays for ~79% of `equiv_sweep`
#: ops (n log-uniform on [2, 10^6]): at n = 100..5000 each of their two
#: oracle calls takes 2.7-11 us per prime, 15-23 us grouped (op p50 ~0.11 ms).
_GROUPED_FROM = 1 << 16


def _grouped_level1(table: PrimeTable, n: int,
                    k: int) -> tuple[np.ndarray, np.ndarray]:
    """The level-1 carry floor(n/p) - floor(k/p) - floor((n-k)/p) = 1 at
    the primes p <= n, for 0 <= k <= n <= limit, evaluated once per block
    of integers on which all three floors are constant: (the carry of each
    block, as bool, and the number of primes in it).  Spread over the
    primes (``np.repeat``) the two give one flag per prime; the count of
    carrying primes is the sum of the counts where the block carries.

    With R = isqrt(n), the sorted values of 0..R and of y // j for y in
    (n, k, n - k) and j <= R, all but one 0 dropped, cut (0, n] into
    blocks (v', v], v' the value before v; the last value is n // 1.
    No floor(y/x) changes inside a block: if floor(y/(x+1)) < q =
    floor(y/x), then qx <= y < q(x+1), so x = y // q is in the quotient
    set of y (`_quotients`), its head y // j with j <= isqrt(y) or its
    tail 1..y // (isqrt(y) + 1).  Both parts are among the values, as
    isqrt(y) <= R, so x is a value itself and x, x + 1 lie in different
    blocks.  y = 0 has floor 0 everywhere.  A repeated value makes an
    empty block, which holds no prime, so a plain sort suffices.  Each
    block's carry is read at its right end v, as k mod v > n mod v (the
    proof in `_binom_divisor_flags` holds for any modulus), and it holds
    pi(v) - pi(v') primes.

    The values are built here, with the one range 0..R standing in for
    the three tails, rather than merged from `_quotients` of n, k and
    n - k: the merge sorts more values and gives the same flags (3,000
    random pairs, n <= 10^7) but was slower, at k = n // 3 (best of 5 x
    400 calls, 2 vCPU): 37 -> 67 us at n = 65,536, 128 -> 148 us at
    999,983 and 320 -> 378 us at 9,999,991.
    """
    j = np.arange(math.isqrt(n) + 1, dtype=np.int64)
    y = np.array([[n], [k], [n - k]], dtype=np.int64)
    v = np.sort(np.concatenate((j, (y // j[1:]).ravel())))
    v = v[np.searchsorted(v, 0, side="right") - 1:]
    pi = table.pi_at(v)
    v = v[1:]
    return k % v > n % v, pi[1:] - pi[:-1]


def _binom_divisor_flags(table: PrimeTable, n: int,
                         k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(primes <= n, "divides C(n, k)" per prime, "carries at p itself"
    per prime), fully vectorised, with no loop over root levels.  Only
    the callers that return per-prime hits or flags build these pi(n)-long
    arrays; a count reads `_binom_divisor_count`.

    p divides C(n, k) iff some power q = p^i carries, i.e. has
    floor(n/q) - floor(k/q) - floor((n-k)/q) = 1, and by Kummer's theorem
    (J. reine angew. Math. 44, 1852) that carry is the test
    k mod q > n mod q.  Proof, for 0 <= k <= n: write n = aq + r and
    k = bq + s with 0 <= r, s < q.  Then n - k = (a - b)q + (r - s).  If
    s <= r, then 0 <= r - s < q, so floor((n-k)/q) = a - b and the
    difference is 0; if s > r, then n - k = (a - b - 1)q + (q + r - s) with
    0 < q + r - s < q, so floor((n-k)/q) = a - b - 1 and the difference
    is 1.

    Level 1 runs that test over all primes <= n below `_GROUPED_FROM`,
    and from there once per block of constant floors (`_grouped_level1`,
    O(sqrt n) blocks), spread over the primes.  The prime powers p^i <= n
    with i >= 2 are the table's prefix `PrimeTable.prime_powers_up_to(n)`,
    which carries each one's prime index: a carry there sets the flag at
    that index.
    """
    primes = table.primes_up_to(n)
    if n < _GROUPED_FROM:
        level1 = k % primes > n % primes
    else:
        level1 = np.repeat(*_grouped_level1(table, n, k))
    at, q = table.prime_powers_up_to(n)
    divides = level1.copy()
    divides[at[k % q > n % q]] = True
    return primes, divides, level1


def _binom_divisor_count(table: PrimeTable, n: int, k: int) -> tuple[int, int]:
    """(omega(C(n, k)), the number of primes p <= n that carry at p
    itself); the pair is checked by `_check_binom_args` on the table.

    Below `_GROUPED_FROM` both are counted from `_binom_divisor_flags`.
    From there no per-prime array is made: the level-1 count sums the
    primes of the blocks of `_grouped_level1` that carry, and the other
    divisors are the deep primes, the distinct bases of the carrying
    powers p^i <= n, i >= 2, whose own level-1 test k mod p > n mod p
    fails."""
    n, k = _check_binom_args(n, k, table)
    if n < _GROUPED_FROM:
        _, divides, level1 = _binom_divisor_flags(table, n, k)
        return int(np.count_nonzero(divides)), int(np.count_nonzero(level1))
    carry, count = _grouped_level1(table, n, k)
    level1 = int(count @ carry)  # int32 is exact: the sum is at most pi(n)
    at, q = table.prime_powers_up_to(n)
    p = table.primes[np.unique(at[k % q > n % q])]
    return level1 + int(np.count_nonzero(k % p <= n % p)), level1


def omega_binom_oracle(table: PrimeTable, n: int, k: int) -> tuple[int, np.ndarray]:
    """Ground truth for omega(C(n, k)): the count and the sorted array of
    distinct primes dividing C(n, k).

    Only primes <= n are enumerated; the coefficient itself is never
    factored (C(2000, 1000) has around 600 digits).
    """
    n, k = _check_binom_args(n, k, table)
    if k == 0 or k == n:
        return 0, np.empty(0, dtype=np.int64)
    primes, divides, _ = _binom_divisor_flags(table, n, k)
    hits = primes[divides]
    return len(hits), hits
