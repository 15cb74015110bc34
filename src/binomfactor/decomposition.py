"""Exact interval decomposition of the prime divisors of C(n, k).

A prime p divides C(n, k) iff, for some i >= 1, x = p^i carries:

    floor(n/x) - floor(k/x) - floor((n-k)/x) = 1.

The x that carry form one half-open interval (lower, upper] per upper
denominator d (membership meaning lower < x <= upper).  Every x in the
cell (n/(d+1), n/d] has floor(n/x) = d.  Put j = floor(kd/n) + 1; since
k < n, 1 <= j <= d.  At x = n/d the sum floor(k/x) + floor((n-k)/x) is
d - 1 iff n does not divide kd (otherwise it is d and the cell holds no
carry), as x falls the sum only rises, and it reaches d where k/x
reaches j or (n-k)/x reaches d - j + 1.  So the cell's carries are

    (max(k/j, (n-k)/(d-j+1)), n/d],

all endpoint arithmetic exact.  The lower endpoint is k/j (branch B)
iff k(d+1) > nj, i.e. iff d = floor(nj/k); otherwise it is
(n-k)/(d-j+1) (branch A, with f = d - j).  The cells are disjoint, so
the intervals are, and ascending d lists them in descending order.

The root index i does not enter the intervals: root level i is the
family cut down to the intervals with upper >= 2^i (no smaller one holds
an i-th power >= 2), i.e. d <= n >> i, a prefix of level 1.

`_level_index` enumerates the (d, j) of level 1, as int64 arrays
(k*d < n^2/2, at most 2*10^16 at the sieve's MAX_LIMIT), and everything
else reads that one enumeration: `decompose` keeps the exact endpoints
as integer numerator/denominator columns in lowest terms, with each
deeper level a prefix view, and the membership mask and prime counts use
their floors.  Floors lose nothing for an integer q: a < q <= b iff
floor(a) < q <= floor(b).  `fractions.Fraction` endpoints are built only
when `Decomposition.levels` is read.

The cells are independent, so the enumeration can also be taken over any
ascending set of upper denominators, and the membership mask and
`level_prime_count` take it over the ~2*sqrt(n) cells that hold an
integer.  An integer x >= 2 lies in exactly one cell, the one with
d = floor(n/x), so those cells are `primes._quotients(n)[:0:-1]`, the
values floor(n/x), 2 <= x <= n, ascending.  Any other cell holds no
integer, and its interval lies inside it, so the floored interval
(lo, hi] is empty (lo = hi), adding nothing to the mask and
pi(hi) - pi(lo) = 0 to the count.

`decompose` still takes every cell, since it lists the intervals that
hold no integer too; `prime_divides`, `canonical_integer_form` and the
pretty form read the floors of its columns (`Decomposition._floors`).

Every text form of a decomposition (`Decomposition.json_chunks`,
`csv_chunks` and `pretty_chunks`) is rendered here, straight from the
columns or their floors.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import DomainError, OutOfRangeError
from .primes import (MAX_LIMIT, PrimeTable, _binom_divisor_flags,
                     _check_binom_args, _is_prime_int, _power_ladder,
                     _quotients)

#: Largest n `decompose` accepts.  The columns hold about n/2 intervals in
#: int64 (the deeper levels are views of them), and the order and
#: degeneracy tests cross-multiply up to n^2.
MAX_DECOMPOSE_N = 1_000_000

BRANCH_A = "A"
BRANCH_B = "B"

#: One interval of ``Decomposition.json_chunks``, from (f, j, lower den,
#: lower num, upper den, upper num), laid out as json.dumps with
#: sort_keys=True and indent=2 lays it out inside a level, with the comma
#: and newline before it.  Branch B has no "f": its template swallows the
#: f column (-1) with "%.0s".
_JSON_RECORD_A = (
    ',\n        {\n          "branch": "A",\n          "f": %d,\n          "j": %d,\n'
    '          "lower": {\n            "den": %d,\n            "num": %d\n          },\n'
    '          "upper": {\n            "den": %d,\n            "num": %d\n          }\n'
    '        }')
_JSON_RECORD_B = _JSON_RECORD_A.replace(
    '"A",\n          "f": %d,', '"B",%.0s')
#: One row of ``Decomposition.csv_chunks``, from the same six columns, in
#: the sorted column order branch, f, j, level, lower_den, lower_num,
#: upper_den, upper_num.  The level is left as "%d" for each level to fill
#: in; branch B's f cell is empty.
_CSV_RECORD_A = "A,%d,%d,%%d,%d,%d,%d,%d\r\n"
_CSV_RECORD_B = _CSV_RECORD_A.replace("A,%d", "B,%.0s")
#: One interval of ``Decomposition.pretty_chunks(exact=True)``, from
#: (lower num, lower den, upper num, upper den), with the " u " before it;
#: indexed by 2 * (lower den != 1) + (upper den != 1), since an endpoint
#: with denominator 1 is shown as its bare numerator.
_EXACT_RECORD = tuple(" u (%s, %s]" % (lower, upper)
                      for lower in ("%d%.0s", "%d/%d") for upper in ("%d%.0s", "%d/%d"))
#: Records per chunk of ``Decomposition.json_chunks``, ``csv_chunks`` and
#: ``pretty_chunks(exact=True)`` (~1 MB of JSON text).
_TEXT_BLOCK = 4096


@dataclass(frozen=True)
class DivisorInterval:
    """One half-open interval (lower, upper] at a given root level.

    A prime p belongs iff lower < p**root_index <= upper.  `f` is None
    for branch-B intervals, whose lower endpoint is k/j.
    """
    lower: Fraction
    upper: Fraction
    root_index: int
    branch: str
    j: int
    f: int | None


@dataclass(frozen=True)
class CanonicalInterval:
    """Floored integer form (lower, upper]; prime-membership equivalent
    to the rational original.  `empty` flags floor(a) == floor(b), i.e.
    no integer at all lies inside."""
    lower: int
    upper: int
    empty: bool


@dataclass(frozen=True, eq=False)
class Decomposition:
    """The full interval family for one pair (n, k), grouped by root level.

    ``columns`` is a read-only mapping; ``columns[i]`` is a read-only
    int64 array of shape (6, m) holding the m intervals at root level i,
    ordered by descending lower endpoint, a prefix of ``columns[1]``.
    Its rows are lower numerator, lower denominator, upper numerator,
    upper denominator (both fractions in lowest terms), j and f, with
    f = -1 on branch B.  Intervals at a fixed level are disjoint; across
    levels the same prime may be witnessed repeatedly, so membership is
    the union over all levels.
    """
    n: int
    k: int
    columns: MappingProxyType[int, np.ndarray]

    @cached_property
    def levels(self) -> MappingProxyType[int, tuple[DivisorInterval, ...]]:
        """``levels[i]``: the level-i intervals as objects, in column
        order, in a read-only mapping."""
        return MappingProxyType({
            i: tuple(DivisorInterval(Fraction(a, b), Fraction(c, d), i,
                                     BRANCH_A if f >= 0 else BRANCH_B, j,
                                     f if f >= 0 else None)
                     for a, b, c, d, j, f in cols.T.tolist())
            for i, cols in self.columns.items()
        })

    @cached_property
    def _floors(self) -> tuple[np.ndarray, np.ndarray]:
        """Floored (lower, upper) of level 1, num // den of the columns, in
        ascending order, read-only."""
        cols = self.columns[1] if self.columns else np.empty((4, 0), dtype=np.int64)
        floors = cols[0:4:2] // cols[1:4:2]
        floors.setflags(write=False)
        return floors[0, ::-1], floors[1, ::-1]

    @cached_property
    def max_root_index(self) -> int:
        """Deepest root level holding an integer >= 2: the level of the
        largest floored upper endpoint above its floored lower."""
        lo, hi = self._floors
        hi = hi[hi > lo]
        return int(hi.max()).bit_length() - 1 if hi.size else 0

    def json_chunks(self) -> Iterator[str]:
        """The wire format as text: {n, k, levels: [{i, intervals: [...]}]}
        with exact numerator/denominator endpoint pairs, level i listing a
        prefix of the level-1 records.  The chunks join to exactly what
        ``json.dumps(..., sort_keys=True, indent=2) + "\\n"`` writes for
        that document (``to_json_dict`` in tests/test_decomposition.py
        builds it as the byte reference), formatted from the columns, one
        chunk per block of `_record_blocks`."""
        yield '{\n  "k": %d,\n  "levels": [' % self.k
        if self.columns:
            blocks = self._record_blocks(_branch_records(_JSON_RECORD_A, _JSON_RECORD_B))
            for i, cols in self.columns.items():
                m = cols.shape[1]
                yield '%s\n    {\n      "i": %d,\n      "intervals": [' % ("," if i > 1 else "", i)
                for s in range(0, m, _TEXT_BLOCK):
                    text = "".join(next(blocks))
                    # every level starts at record 0: no comma before it
                    yield text if s else text[1:]
                yield "\n      ]\n    }" if m else "]\n    }"
            yield "\n  "
        yield '],\n  "n": %d\n}\n' % self.n

    def csv_chunks(self) -> Iterator[str]:
        """The CLI's CSV text, one row per record of every level of the
        wire format: the chunks join to exactly what ``csv.DictWriter``
        writes for those rows under their sorted keys (CRLF line ends, an
        empty f on branch B, and a header that is just CRLF when there is
        no row), as ``_reference_csv`` in tests/test_decomposition.py writes
        them.  Each record of `_record_blocks` leaves its level open, and
        each chunk fills it in over one block."""
        if not (self.columns and self.columns[1].shape[1]):
            yield "\r\n"
            return
        yield "branch,f,j,level,lower_den,lower_num,upper_den,upper_num\r\n"
        blocks = self._record_blocks(_branch_records(_CSV_RECORD_A, _CSV_RECORD_B))
        for i, cols in self.columns.items():
            for _ in range(0, cols.shape[1], _TEXT_BLOCK):
                recs = next(blocks)
                yield "".join(recs) % ((i,) * len(recs))

    def pretty_chunks(self, exact: bool = False) -> Iterator[str]:
        """The CLI's pretty text: a heading, then one line per root level
        that shows an interval, or a note that the coefficient is 1.

        Level i shows the primes p whose i-th power it holds: each floored
        interval (lo, hi] of `_floors` as (iroot(lo, i), iroot(hi, i)],
        skipping the ranges holding no integer >= 2.  The i-th roots are
        counts of the i-th powers <= lo and hi among 1 and `_power_ladder`
        over 2..isqrt(n), which lists every r^i <= n with r >= 2.  With
        ``exact``, level i shows each of its intervals with the exact
        endpoints instead, formatted once by `_record_blocks`."""
        yield "prime divisors of C(%d, %d) lie in:\n" % (self.n, self.k)
        if not any(cols.shape[1] for cols in self.columns.values()):
            yield "  (empty: the coefficient is 1)\n"
            return
        if exact:
            blocks = self._record_blocks(_exact_records)
            for i, cols in self.columns.items():
                for s in range(0, cols.shape[1], _TEXT_BLOCK):
                    text = "".join(next(blocks))
                    # every level starts at record 0: no " u " before it
                    yield text if s else _pretty_label(i) + text[3:]
                if cols.shape[1]:
                    yield "\n"
            return
        lo, hi = (a[::-1] for a in self._floors)  # back in column order
        _, exponent, power, _ = _power_ladder(
            np.arange(2, math.isqrt(self.n) + 1, dtype=np.int64), self.n)
        for i, cols in self.columns.items():
            a, b = lo[:cols.shape[1]], hi[:cols.shape[1]]
            if i > 1:
                powers = np.concatenate(([1], power[exponent == i]))
                a, b = (np.searchsorted(powers, x, side="right") for x in (a, b))
            shown = (b > a) & (b >= 2)
            if shown.any():
                yield (_pretty_label(i) + " u ".join(
                    ["(%d, %d]" % t for t in zip(a[shown].tolist(), b[shown].tolist())])
                    + "\n")

    def _record_blocks(self, records: Callable[[np.ndarray], list[str]]
                       ) -> Iterator[list[str]]:
        """The records of every level, level after level, each level cut
        at the multiples of _TEXT_BLOCK into blocks; ``records`` formats a
        (6, b) block of level-1 columns as its b records.

        Each record is formatted once.  Level 1 is formatted block by
        block as it is read; level i >= 2 lists a prefix of level 1, so
        only the prefix that level 2 lists is kept, and every deeper level
        reads a prefix of that."""
        level1 = self.columns[1]
        keep = self.columns[2].shape[1] if 2 in self.columns else 0
        kept: list[str] = []
        for s in range(0, level1.shape[1], _TEXT_BLOCK):
            recs = records(level1[:, s:s + _TEXT_BLOCK])
            kept += recs[:max(keep - s, 0)]
            yield recs
        for i, cols in self.columns.items():
            if i > 1:
                m = cols.shape[1]
                for s in range(0, m, _TEXT_BLOCK):
                    yield kept[s:min(s + _TEXT_BLOCK, m)]

    def __repr__(self) -> str:  # pragma: no cover
        total = sum(cols.shape[1] for cols in self.columns.values())
        return (f"Decomposition(n={self.n}, k={self.k}, "
                f"levels={len(self.columns)}, intervals={total})")


def _branch_records(branch_a: str,
                    branch_b: str) -> Callable[[np.ndarray], list[str]]:
    """Records for `Decomposition._record_blocks`: each interval with the
    template of its branch, from the rows f, j, lower den, lower num,
    upper den, upper num (the order of the sorted keys)."""
    def records(block: np.ndarray) -> list[str]:
        rows = block[[5, 4, 1, 0, 3, 2]].tolist()
        return [(branch_a if t[0] >= 0 else branch_b) % t for t in zip(*rows)]
    return records


def _exact_records(block: np.ndarray) -> list[str]:
    """Records for `Decomposition._record_blocks`: each interval as
    `_EXACT_RECORD`, from the rows lower num, lower den, upper num, upper
    den."""
    pick = (2 * (block[1] != 1) + (block[3] != 1)).tolist()
    return [_EXACT_RECORD[s] % t for s, t in zip(pick, zip(*block[:4].tolist()))]


def _pretty_label(i: int) -> str:
    return "  level 1: " if i == 1 else f"  level {i} (p^{i} witnesses): p in "


# -- enumeration -------------------------------------------------------


def _level_index(n: int, k: int,
                 d: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(d, j): the upper denominator d and j = floor(kd/n) + 1 of every
    level-1 interval with d in the given ascending int64 array, by default
    all of 1..n // 2 (the uppers n/d that can hold an integer >= 2); the
    cells with n | kd hold no interval and are skipped."""
    if d is None:
        d = np.arange(1, (n >> 1) + 1, dtype=np.int64)
    d = d[(k * d) % n != 0]
    return d, k * d // n + 1


def decompose(n: int, k: int) -> Decomposition:
    """Materialise the interval decomposition of {p : p | C(n, k)}.

    Root levels run from 1 up to floor(log2 n); level i holds the level-1
    intervals whose upper endpoint is at least 2^i (no smaller one holds
    an i-th power >= 2), a prefix of level 1 and stored as a view of it.
    The cases k = 0 and k = n yield an empty decomposition since
    C(n, k) = 1.  n is capped at MAX_DECOMPOSE_N.
    """
    _check_binom_args(n, k)
    if n > MAX_DECOMPOSE_N:
        raise OutOfRangeError(f"decompose needs n <= {MAX_DECOMPOSE_N}, got n={n}")
    if k == 0 or k == n:
        return Decomposition(n, k, MappingProxyType({}))
    d, j = _level_index(n, k)
    b = n * j // k == d  # branch B: the lower endpoint is k/j
    cols = np.stack([np.where(b, k, n - k), np.where(b, j, d - j + 1),
                     np.full_like(d, n), d, j, np.where(b, -1, d - j)])
    for num, den in (cols[0:2], cols[2:4]):
        g = np.gcd(num, den)
        num //= g
        den //= g
    if (cols[0] * cols[3] >= cols[2] * cols[1]).any():
        raise DomainError(f"degenerate interval in C({n}, {k}); "
                          "this indicates an enumeration bug")
    # each interval lies wholly below the one before it (with lower <
    # upper, this makes the uppers strictly descend), so every level is
    # a prefix
    if (cols[2, 1:] * cols[1, :-1] > cols[0, :-1] * cols[3, 1:]).any():
        raise DomainError(f"intervals of C({n}, {k}) out of order; "
                          "this indicates an enumeration bug")
    cols.setflags(write=False)
    # level i keeps the uppers n/d >= 2^i, i.e. d <= n >> i
    sizes = np.searchsorted(d, n >> np.arange(1, n.bit_length()), side="right")
    return Decomposition(n, k, MappingProxyType(
        {i: cols[:, :m] for i, m in enumerate(sizes.tolist(), start=1)}))


def prime_divides(dec: Decomposition, p: int) -> bool:
    """Exact membership of the prime p in the decomposition (union over
    root levels): true iff some interval contains a power p^i, i.e.
    (level i being a prefix of level 1) some level-1 interval does.

    Floored lowers ascend, and the last one below p^i belongs to the only
    interval that can contain it.  Raises `DomainError` if p is not prime.
    """
    if not _is_prime_int(p):
        raise DomainError(f"{p} is not prime")
    lo, hi = dec._floors
    for i in dec.columns:
        q = p ** i
        if q > dec.n:
            break
        t = int(np.searchsorted(lo, q))
        if t and q <= hi[t - 1]:
            return True
    return False


def canonical_integer_form(dec: Decomposition) -> dict[int, list[CanonicalInterval]]:
    """Floored endpoint display form, per root level.

    (a, b] maps to (floor(a), floor(b)]; since primes are integers the two
    forms have identical prime membership.  Degenerate floored intervals
    are kept but flagged."""
    lo, hi = dec._floors
    rows = [CanonicalInterval(a, b, empty=a == b)
            for a, b in zip(lo[::-1].tolist(), hi[::-1].tolist())]
    return {i: rows[:cols.shape[1]] for i, cols in dec.columns.items()}


# -- floored endpoints for the membership mask ---------------------------


def _level_range_arrays(n: int, k: int,
                        d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Floored endpoints (lo, hi] of the level-1 intervals with upper
    denominator in the ascending int64 array d, in ascending d (the floor
    of a max is the max of the floors)."""
    d, j = _level_index(n, k, d)
    return np.maximum(k // j, (n - k) // (d - j + 1)), n // d


def integer_membership_mask(n: int, k: int, level: int | None = None) -> np.ndarray:
    """Boolean mask over [0, n]: which integers are witnessed as i-th
    roots of interval members.  ``level=None`` takes the union over all
    root levels; ``level=i`` restricts to one level.

    Restricted to primes this is exactly the divisor set of C(n, k).
    Only the level-1 cells that hold an integer are enumerated
    (``_quotients(n)[:0:-1]``, ~2*sqrt(n) of them), and their disjoint
    floored intervals are painted as runs; the powers r^i <= n with i >= 2 of
    every r <= isqrt(n) are listed at once by `_power_ladder`.  So the
    work past the n + 1 mask bytes is O(sqrt n).  n is capped at
    `MAX_LIMIT`, the largest table `equivalence_check` can pair the mask
    with."""
    _check_binom_args(n, k)
    if n > MAX_LIMIT:
        raise OutOfRangeError(f"membership mask needs n <= {MAX_LIMIT}, got n={n}")
    if level is not None and level < 1:
        raise DomainError(f"root level must be >= 1, got {level}")
    lo, hi = _level_range_arrays(n, k, _quotients(n)[:0:-1])
    # ascending, the intervals alternate with the gaps between them:
    # [0, lo], (lo, hi], (hi, lo'], ..., (hi'', n]
    edges = np.empty(2 * lo.size + 2, dtype=np.int64)
    edges[0], edges[-1] = -1, n
    edges[1:-1:2] = lo[::-1]
    edges[2:-1:2] = hi[::-1]
    runs = np.diff(edges)
    if (runs < 0).any():
        raise DomainError(f"overlapping intervals in C({n}, {k}); "
                          "this indicates an enumeration bug")
    covered = np.repeat(np.arange(runs.size) % 2 == 1, runs)
    if level == 1:
        return covered
    # r >= 2 is a level-i witness iff r^i is covered: an interval holding
    # r^i >= 2^i has upper >= 2^i, so it is one of level i
    r = math.isqrt(n)
    base, exponent, power, start = _power_ladder(np.arange(2, r + 1, dtype=np.int64), n)
    if level is None:
        member = covered.copy()
        member[2:r + 1] |= np.logical_or.reduceat(covered[power], start)
    else:
        member = np.zeros(n + 1, dtype=bool)
        at = exponent == level
        member[base[at]] = covered[power[at]]
    return member


def equivalence_check(n: int, k: int, table: PrimeTable) -> int | None:
    """Compare decomposition membership against the sieve oracle for every
    prime p <= n.  Returns None on agreement, otherwise the smallest
    disagreeing prime."""
    _check_binom_args(n, k, table)
    member = integer_membership_mask(n, k)
    primes, oracle, _ = _binom_divisor_flags(table, n, k)
    via_intervals = member[primes]
    disagree = via_intervals != oracle
    if disagree.any():
        return int(primes[int(np.argmax(disagree))])
    return None


def level_prime_count(table: PrimeTable, n: int, k: int) -> int:
    """Number of primes in the level-1 intervals, via prime counts at the
    floored endpoints (exact: the intervals are disjoint).

    Only the cells that hold an integer (``_quotients(n)[:0:-1]``,
    ~2*sqrt(n) of them) are enumerated, in one call; every other interval
    holds no integer and adds pi(hi) - pi(lo) = 0."""
    _check_binom_args(n, k, table)
    lo, hi = _level_range_arrays(n, k, _quotients(n)[:0:-1])
    pp = table.pi_prefix
    return int((pp[hi] - pp[lo]).sum())
