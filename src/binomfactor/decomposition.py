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
deeper level a prefix view, and the floored readers below use their
floors.  Floors lose nothing for an integer q: a < q <= b iff
floor(a) < q <= floor(b).  `fractions.Fraction` endpoints are built only
when `Decomposition.levels` is read.

The cells are independent, so the enumeration can also be taken over any
ascending set of upper denominators.  Every floored reader (the
membership mask, `equivalence_check`, `level_prime_count`, `prime_divides`
and the pretty form, `pretty_chunks`) reads one form of it, `_cell_edges`:
the ~2*sqrt(n) cells that hold an integer, as edges checked once for
overlap, with one membership rule, `_covered`.  `equivalence_check` reads
the union over root levels in prime-index space: pi at the edges says
which primes each interval holds, and each prime power p^i <= n (i >= 2)
is looked up among the edges, so no array of it has n entries.
An integer x >= 2 lies in exactly one cell, the one with d = floor(n/x),
so those cells are `primes._quotients(n)[:0:-1]`, the values floor(n/x),
2 <= x <= n, ascending.  Any other cell holds no integer, and its
interval lies inside it, so the floored interval (lo, hi] is empty
(lo = hi): it adds nothing to the mask or the pretty form, and
pi(hi) - pi(lo) = 0 to the count.  Only `decompose` takes every cell,
since it lists the intervals that hold no integer too; its text forms
(`Decomposition.json_chunks`, `csv_chunks` and `exact_chunks`) are
rendered here straight from its columns.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import DomainError
from .primes import (MAX_LIMIT, PrimeTable, _as_int, _binom_divisor_flags,
                     _check_binom_args, _is_prime_int, _powers_up_to,
                     _quotients)

#: Largest n `decompose` accepts.  The columns hold about n/2 intervals in
#: int64 (the deeper levels are views of them), and the order and
#: degeneracy tests cross-multiply up to n^2.
MAX_DECOMPOSE_N = 1_000_000

BRANCH_A = "A"
BRANCH_B = "B"

#: One interval of ``Decomposition.json_chunks``, from (f, j, lower den,
#: lower num, upper den, upper num), laid out as json.dumps with
#: sort_keys=True and indent=2 lays it out inside a level, with the newline
#: before it (the comma goes between records).  Branch B has no "f": its
#: template swallows the f column (-1) with "%.0s".
_JSON_RECORD_A = (
    '\n        {\n          "branch": "A",\n          "f": %d,\n          "j": %d,\n'
    '          "lower": {\n            "den": %d,\n            "num": %d\n          },\n'
    '          "upper": {\n            "den": %d,\n            "num": %d\n          }\n'
    '        }')
_JSON_RECORD_B = _JSON_RECORD_A.replace(
    '"A",\n          "f": %d,', '"B",%.0s')
#: One row of ``Decomposition.csv_chunks``, from the same six columns, in
#: the sorted column order branch, f, j, level, lower_den, lower_num,
#: upper_den, upper_num.  The level is left as "%(i)d" for each level to
#: fill in; branch B's f cell is empty.
_CSV_RECORD_A = "A,%d,%d,%%(i)d,%d,%d,%d,%d\r\n"
_CSV_RECORD_B = _CSV_RECORD_A.replace("A,%d", "B,%.0s")
#: One interval of ``Decomposition.exact_chunks``, from
#: (lower num, lower den, upper num, upper den), indexed by
#: 2 * (lower den != 1) + (upper den != 1), since an endpoint with
#: denominator 1 is shown as its bare numerator.
_EXACT_RECORD = tuple("(%s, %s]" % (lower, upper)
                      for lower in ("%d%.0s", "%d/%d") for upper in ("%d%.0s", "%d/%d"))
#: Records per chunk of ``Decomposition.json_chunks``, ``csv_chunks`` and
#: ``exact_chunks`` (~1 MB of JSON text).
_TEXT_BLOCK = 4096
#: The heading of the pretty and ``--exact`` forms, and their note for C(n, k) = 1.
_PRETTY_HEADING = "prime divisors of C(%d, %d) lie in:\n"
_PRETTY_EMPTY = "  (empty: the coefficient is 1)\n"


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


@dataclass(frozen=True, eq=False)
class Decomposition:
    """The full interval family for one pair (n, k), grouped by root level.

    ``columns`` is a read-only mapping; ``columns[i]`` is a read-only
    int64 array of shape (6, m) holding the m intervals at root level i,
    ordered by descending lower endpoint, a nonempty prefix of
    ``columns[1]``; there are no levels when C(n, k) = 1.
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

    def json_chunks(self) -> Iterator[str]:
        """The wire format as text: {n, k, levels: [{i, intervals: [...]}]}
        with exact numerator/denominator endpoint pairs, level i listing a
        prefix of the level-1 records.  The chunks join to exactly what
        ``json.dumps(..., sort_keys=True, indent=2) + "\\n"`` writes for
        that document (``to_json_dict`` in tests/test_decomposition.py
        builds it as the byte reference), formatted from the columns by
        `_level_text`, with each level's braces around its records."""
        yield '{\n  "k": %d,\n  "levels": [' % self.k
        if self.columns:
            records = _branch_records(_JSON_RECORD_A, _JSON_RECORD_B)
            for i, text in self._level_text(records, ","):
                yield '%s\n    {\n      "i": %d,\n      "intervals": [' % ("," if i > 1 else "", i)
                yield from text
                yield "\n      ]\n    }"
            yield "\n  "
        yield '],\n  "n": %d\n}\n' % self.n

    def csv_chunks(self) -> Iterator[str]:
        """The CLI's CSV text, one row per record of every level of the
        wire format: the chunks join to exactly what ``csv.DictWriter``
        writes for those rows under their sorted keys (CRLF line ends, an
        empty f on branch B, and a header that is just CRLF when there is
        no row), as ``_reference_csv`` in tests/test_decomposition.py writes
        them.  Each record of `_level_text` leaves its level open as
        "%(i)d", and each chunk fills it in."""
        if not self.columns:
            yield "\r\n"
            return
        yield "branch,f,j,level,lower_den,lower_num,upper_den,upper_num\r\n"
        for i, text in self._level_text(_branch_records(_CSV_RECORD_A, _CSV_RECORD_B), ""):
            for chunk in text:
                yield chunk % {"i": i}

    def exact_chunks(self) -> Iterator[str]:
        """The CLI's ``--exact`` text: the heading of `pretty_chunks`, then
        one line per root level, its label and then its intervals with the
        exact endpoints from `_level_text`, or the note that the
        coefficient is 1."""
        yield _PRETTY_HEADING % (self.n, self.k)
        if not self.columns:
            yield _PRETTY_EMPTY
            return
        for i, text in self._level_text(_exact_records, " u "):
            yield _pretty_label(i)
            yield from text
            yield "\n"

    def _level_text(self, records: Callable[[np.ndarray], list[str]], sep: str
                    ) -> Iterator[tuple[int, Iterator[str]]]:
        """(i, text) for every root level i in turn, where text yields the
        level's records in chunks of _TEXT_BLOCK, ``sep`` between two
        records and none before the first; ``records`` formats a (6, b)
        block of level-1 columns as its b records.  Each text is read
        whole before the next level's.

        Each record is formatted once.  Level 1 is formatted block by
        block as it is read; level i >= 2 lists a prefix of level 1, so
        only the prefix that level 2 lists is kept, and every deeper level
        reads a prefix of that."""
        keep = self.columns[2].shape[1] if 2 in self.columns else 0
        kept: list[str] = []

        def text(i: int, cols: np.ndarray) -> Iterator[str]:
            m = cols.shape[1]
            for s in range(0, m, _TEXT_BLOCK):
                if i == 1:
                    recs = records(cols[:, s:s + _TEXT_BLOCK])
                    kept.extend(recs[:max(keep - s, 0)])
                else:
                    recs = kept[s:min(s + _TEXT_BLOCK, m)]
                yield (sep if s else "") + sep.join(recs)

        for i, cols in self.columns.items():
            yield i, text(i, cols)

    def __repr__(self) -> str:  # pragma: no cover
        total = sum(cols.shape[1] for cols in self.columns.values())
        return (f"Decomposition(n={self.n}, k={self.k}, "
                f"levels={len(self.columns)}, intervals={total})")


def _branch_records(branch_a: str,
                    branch_b: str) -> Callable[[np.ndarray], list[str]]:
    """Records for `Decomposition._level_text`: each interval with the
    template of its branch, from the rows f, j, lower den, lower num,
    upper den, upper num (the order of the sorted keys)."""
    def records(block: np.ndarray) -> list[str]:
        rows = block[[5, 4, 1, 0, 3, 2]].tolist()
        return [(branch_a if t[0] >= 0 else branch_b) % t for t in zip(*rows)]
    return records


def _exact_records(block: np.ndarray) -> list[str]:
    """Records for `Decomposition._level_text`: each interval as
    `_EXACT_RECORD`, from the rows lower num, lower den, upper num, upper
    den."""
    pick = (2 * (block[1] != 1) + (block[3] != 1)).tolist()
    return [_EXACT_RECORD[s] % t for s, t in zip(pick, zip(*block[:4].tolist()))]


def _pretty_label(i: int) -> str:
    return "  level 1: " if i == 1 else f"  level {i} (p^{i} witnesses): p in "


# -- enumeration -------------------------------------------------------


def _level_index(n: int, k: int, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, j): the upper denominator d and j = floor(kd/n) + 1 of every
    level-1 interval with d in the given ascending int64 array; the cells
    with n | kd hold no interval and are skipped."""
    d = d[(k * d) % n != 0]
    return d, k * d // n + 1


def decompose(n: int, k: int) -> Decomposition:
    """Materialise the interval decomposition of {p : p | C(n, k)}.

    Root levels run from 1 up to floor(log2 n); level i holds the level-1
    intervals whose upper endpoint is at least 2^i (no smaller one holds
    an i-th power >= 2), a prefix of level 1 and stored as a view of it.
    The cases k = 0 and k = n yield an empty decomposition since
    C(n, k) = 1; otherwise no level is empty, as level i keeps d <= n >> i
    >= 1 and the cell d = 1 holds (max(k, n - k), n].  n is capped at
    MAX_DECOMPOSE_N.
    """
    n, k = _check_binom_args(n, k)
    _as_int(n, "n", hi=MAX_DECOMPOSE_N)
    if k == 0 or k == n:
        return Decomposition(n, k, MappingProxyType({}))
    # d <= n // 2: the uppers n/d that can hold an integer >= 2
    d, j = _level_index(n, k, np.arange(1, (n >> 1) + 1, dtype=np.int64))
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
    (level i being a prefix of level 1) some level-1 interval does, by
    `_covered` on the edges of the integer cells of (dec.n, dec.k).
    Raises `DomainError` if p is not prime.
    """
    if not _is_prime_int(p):
        raise DomainError(f"{p} is not prime")
    edges = _cell_edges(dec.n, dec.k)
    q = p
    while q <= dec.n and not _covered(edges, q):
        q *= p
    return q <= dec.n


# -- floored endpoints over the integer cells ----------------------------


def _level_range_arrays(n: int, k: int,
                        d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Floored endpoints (lo, hi] of the level-1 intervals with upper
    denominator in the ascending int64 array d, in ascending d (the floor
    of a max is the max of the floors)."""
    d, j = _level_index(n, k, d)
    return np.maximum(k // j, (n - k) // (d - j + 1)), n // d


def pretty_chunks(n: int, k: int) -> list[str]:
    """The CLI's pretty text of C(n, k): a heading, then one line per root
    level that shows an interval, or a note that the coefficient is 1.

    Level i shows each interval (lo, hi] of `_cell_edges` with hi >= 2^i
    as (iroot(lo, i), iroot(hi, i)], skipping those holding no integer
    >= 2 (the floored interval of any other cell is empty).  The
    roots count the i-th powers <= lo and hi among 1 and the exponent-i
    rows of `_powers_up_to` over the bases 2..isqrt(n).  n is capped at
    `MAX_LIMIT`, the budget it shares with the membership mask."""
    n, k = _check_binom_args(n, k)
    _as_int(n, "n", hi=MAX_LIMIT)
    chunks = [_PRETTY_HEADING % (n, k)]
    if k == 0 or k == n:
        return chunks + [_PRETTY_EMPTY]
    # the edges read backwards pair up as (hi, lo), in ascending d
    hi, lo = _cell_edges(n, k)[-2:0:-1].reshape(-1, 2).T
    _, exponent, power = _powers_up_to(np.arange(2, math.isqrt(n) + 1, dtype=np.int64), n)
    for i in range(1, n.bit_length()):
        # level i: the uppers >= 2^i, a prefix in ascending d
        a, b = lo[hi >= 1 << i], hi[hi >= 1 << i]
        if i > 1:
            powers = np.concatenate(([1], power[exponent == i]))
            a, b = (np.searchsorted(powers, x, side="right") for x in (a, b))
        shown = (b > a) & (b >= 2)
        if shown.any():
            chunks.append(_pretty_label(i) + " u ".join(
                ["(%d, %d]" % t for t in zip(a[shown].tolist(), b[shown].tolist())])
                + "\n")
    return chunks


def integer_membership_mask(n: int, k: int) -> np.ndarray:
    """Boolean mask over [0, n]: which integers are witnessed as i-th
    roots of interval members, for some root level i.

    Restricted to primes this is exactly the divisor set of C(n, k).
    The runs of `_cell_edges` (~2*sqrt(n) intervals) are painted, and
    the powers r^i <= n with i >= 2 of r = 2..isqrt(n) are formed by
    `_powers_up_to`: r is a witness where some r^i is covered.  So the
    work past the n + 1 mask bytes is O(sqrt n).  n is capped at
    `MAX_LIMIT`, the largest table a caller can gather the mask with."""
    n, k = _check_binom_args(n, k)
    _as_int(n, "n", hi=MAX_LIMIT)
    runs = np.diff(_cell_edges(n, k))
    runs[0] += 1  # the first gap holds 0 as well
    covered = np.repeat(np.arange(runs.size) % 2 == 1, runs)
    # r >= 2 is a level-i witness iff r^i is covered: an interval holding
    # r^i >= 2^i has upper >= 2^i, so it is one of level i
    base = np.arange(2, math.isqrt(n) + 1, dtype=np.int64)
    at, _, power = _powers_up_to(base, n)
    # in place: the index covered[power] is read whole before the store
    covered[base[at[covered[power]]]] = True
    return covered


def _cell_edges(n: int, k: int) -> np.ndarray:
    """The floored level-1 intervals of the integer cells as ascending
    int64 edges 0, lo, hi, lo', hi', ..., n: the runs between them
    alternate gap [0, lo] (with 0), interval (lo, hi], gap (hi, lo'], ...
    The one floored form every floored reader takes, and the one caller
    of `_level_range_arrays` in it.  Raises `DomainError` if two intervals
    overlap."""
    lo, hi = _level_range_arrays(n, k, _quotients(n)[:0:-1])
    edges = np.empty(2 * lo.size + 2, dtype=np.int64)
    edges[0], edges[-1] = 0, n
    edges[1:-1:2] = lo[::-1]
    edges[2:-1:2] = hi[::-1]
    if (edges[1:] < edges[:-1]).any():
        raise DomainError(f"overlapping intervals in C({n}, {k}); "
                          "this indicates an enumeration bug")
    return edges


def _covered(edges: np.ndarray, x: int | np.ndarray) -> np.bool_ | np.ndarray:
    """Whether x in (0, n] (an int or an array) lies in an interval of
    `_cell_edges`: iff the first edge >= x has an even index."""
    return np.searchsorted(edges, x) % 2 == 0


def _prime_membership(table: PrimeTable, n: int, k: int) -> np.ndarray:
    """Membership of each prime p <= n in the union over root levels, one
    bool per prime, for 0 <= k <= n <= table.limit; no array is n-sized.

    The primes in the runs of `_cell_edges` number pi at one edge minus pi
    at the one before, so one repeat over the pi(n) primes paints level
    1.  A prime power p^i <= n (i >= 2, `PrimeTable.prime_powers_up_to`)
    is a witness iff it is `_covered`: an interval holding p^i >= 2^i has
    upper >= 2^i, so it is one of level i."""
    edges = _cell_edges(n, k)
    pi = table.pi_at(edges)
    member = np.repeat(np.arange(edges.size - 1) % 2 == 1, pi[1:] - pi[:-1])
    at, q = table.prime_powers_up_to(n)
    member[at[_covered(edges, q)]] = True
    return member


def equivalence_check(n: int, k: int, table: PrimeTable) -> int | None:
    """Compare decomposition membership against the sieve oracle for every
    prime p <= n, in prime-index space (`_prime_membership`).  Returns
    None on agreement, otherwise the smallest disagreeing prime."""
    n, k = _check_binom_args(n, k, table)
    primes, oracle, _ = _binom_divisor_flags(table, n, k)
    disagree = _prime_membership(table, n, k) != oracle
    if disagree.any():
        return int(primes[int(np.argmax(disagree))])
    return None


def level_prime_count(table: PrimeTable, n: int, k: int) -> int:
    """Number of primes in the level-1 intervals: pi(hi) - pi(lo) over
    the intervals of `_cell_edges`, the odd runs between its edges
    (exact: the intervals are disjoint; every cell that holds no integer
    would add pi(hi) - pi(lo) = 0)."""
    n, k = _check_binom_args(n, k, table)
    return int(np.diff(table.pi_at(_cell_edges(n, k)))[1::2].sum())
