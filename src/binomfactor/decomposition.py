"""Exact interval decomposition of the prime divisors of C(n, k).

The set {p prime : p divides C(n, k)} equals the primes p for which some
power p^i lands in one family of half-open intervals with rational
endpoints.  Writing e_p for the exponent of p, the criterion

    p | C(n, k)  <=>  exists i with
        floor(k/p^i) = j - 1,  floor((n-k)/p^i) = f,  floor(n/p^i) = f + j

pins (j, f) per witness power, and the real x with a carry form two
interval families (all endpoint arithmetic exact):

  * branch A, indexed by (j, f) with
    f in [floor((n/k)(j-1)) - j + 1, floor((n/k)j) - j - 1]:
        interval  ((n-k)/(f+1), n/(f+j)]
  * branch B, indexed by j with n*j not divisible by k, f = floor(nj/k) - j:
        interval  (k/j, n/floor(nj/k)]

membership meaning lower < x <= upper.  The intervals are pairwise
disjoint.  The root index i does not enter them: root level i is the
family cut down to the intervals with upper >= 2^i (no smaller one holds
an i-th power >= 2), and as the intervals descend, that is a prefix of
level 1.

`_level_index` enumerates the (j, f) indices of level 1 once, as int64
arrays, and everything else reads that one enumeration: `decompose`
keeps the exact endpoints as integer numerator/denominator columns in
lowest terms, with each deeper level a prefix view, and the membership
mask and prime counts use their floors.  Floors lose nothing for an
integer q: a < q <= b iff floor(a) < q <= floor(b).  `fractions.Fraction`
endpoints are built only when `Decomposition.levels` is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import DomainError, OutOfRangeError
from .primes import PrimeTable, _binom_divisor_flags, integer_root

#: Largest n `decompose` accepts.  The columns hold about n/2 intervals in
#: int64 (the deeper levels are views of them), and the order and
#: degeneracy tests cross-multiply up to n^2.
MAX_DECOMPOSE_N = 1_000_000

BRANCH_A = "A"
BRANCH_B = "B"


@dataclass(frozen=True)
class DivisorInterval:
    """One half-open interval (lower, upper] at a given root level.

    A prime p belongs iff lower < p**root_index <= upper.  `f` is None
    for branch-B intervals, whose index is j alone.
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
    def levels(self) -> dict[int, tuple[DivisorInterval, ...]]:
        """``levels[i]``: the level-i intervals as objects, in column order."""
        return {
            i: tuple(DivisorInterval(Fraction(a, b), Fraction(c, d), i,
                                     BRANCH_A if f >= 0 else BRANCH_B, j,
                                     f if f >= 0 else None)
                     for a, b, c, d, j, f in cols.T.tolist())
            for i, cols in self.columns.items()
        }

    @cached_property
    def _floors(self) -> tuple[np.ndarray, np.ndarray]:
        """Floored (lower, upper) of level 1, in ascending order."""
        cols = self.columns.get(1, np.zeros((6, 0), dtype=np.int64))[:, ::-1]
        return cols[0] // cols[1], cols[2] // cols[3]

    @cached_property
    def max_root_index(self) -> int:
        """Deepest root level holding an integer >= 2: the level of the
        largest floored upper endpoint above its floored lower."""
        lo, hi = self._floors
        hi = hi[hi > lo]
        return int(hi.max()).bit_length() - 1 if hi.size else 0

    def intervals_at(self, i: int) -> tuple[DivisorInterval, ...]:
        return self.levels.get(i, ())

    def all_intervals(self) -> list[DivisorInterval]:
        return [iv for ivs in self.levels.values() for iv in ivs]

    def prime_divides(self, p: int) -> bool:
        """True iff some interval contains a power p^i, i.e. (level i
        being a prefix of level 1) some level-1 interval does.

        Floored lowers ascend, and the last one below p^i belongs to the
        only interval that can contain it.
        """
        lo, hi = self._floors
        for i in self.columns:
            q = p ** i
            if q > self.n:
                break
            t = int(np.searchsorted(lo, q))
            if t and q <= hi[t - 1]:
                return True
        return False

    def to_json_dict(self) -> dict:
        """Wire format: {n, k, levels: [{i, intervals: [...]}]} with exact
        numerator/denominator endpoint pairs."""
        levels = []
        for i, cols in self.columns.items():
            ivs = []
            for a, b, c, d, j, f in cols.T.tolist():
                rec = {"lower": {"num": a, "den": b}, "upper": {"num": c, "den": d},
                       "branch": BRANCH_A if f >= 0 else BRANCH_B, "j": j}
                if f >= 0:
                    rec["f"] = f
                ivs.append(rec)
            levels.append({"i": i, "intervals": ivs})
        return {"n": self.n, "k": self.k, "levels": levels}

    def __repr__(self) -> str:  # pragma: no cover
        total = sum(cols.shape[1] for cols in self.columns.values())
        return (f"Decomposition(n={self.n}, k={self.k}, "
                f"levels={len(self.columns)}, intervals={total})")


# -- enumeration -------------------------------------------------------


def _level_index(n: int, k: int) -> tuple[np.ndarray, ...]:
    """(j_a, f_a, j_b, t_b): the indices of every level-1 interval, as
    int64 arrays.  Branch A pairs (j, f) come with f strictly ascending,
    branch B pairs (j, t = floor(nj/k)) with j ascending.  Only intervals
    whose upper endpoint can hold an integer >= 2 are kept, i.e. those
    with upper denominator f + j or t at most floor(n / 2)."""
    d_max = n >> 1
    if d_max < 1 or k == 0 or k == n:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, empty
    jmax_a = (k * d_max - 1) // n + 1
    j = np.arange(1, jmax_a + 1, dtype=np.int64)
    f0 = (n * (j - 1)) // k - j + 1
    f1 = np.minimum((n * j) // k - j - 1, d_max - j)
    lengths = np.maximum(f1 - f0 + 1, 0)
    total = int(lengths.sum())
    j_rep = np.repeat(j, lengths)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    f = (np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)) + np.repeat(f0, lengths)

    jmax_b = ((d_max + 1) * k - 1) // n
    jb = np.arange(1, jmax_b + 1, dtype=np.int64)
    nj = n * jb
    t = nj // k
    keep = (nj % k) != 0
    return j_rep, f, jb[keep], t[keep]


def decompose(n: int, k: int) -> Decomposition:
    """Materialise the interval decomposition of {p : p | C(n, k)}.

    Root levels run from 1 up to floor(log2 n); level i holds the level-1
    intervals whose upper endpoint is at least 2^i (no smaller one holds
    an i-th power >= 2), a prefix of level 1 and stored as a view of it.
    The cases k = 0 and k = n yield an empty decomposition since
    C(n, k) = 1.  n is capped at MAX_DECOMPOSE_N.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if k < 0 or k > n:
        raise DomainError(f"k must satisfy 0 <= k <= n, got k={k}, n={n}")
    if n > MAX_DECOMPOSE_N:
        raise OutOfRangeError(f"decompose needs n <= {MAX_DECOMPOSE_N}, got n={n}")
    if k == 0 or k == n:
        return Decomposition(n, k, MappingProxyType({}))
    ja, fa, jb, tb = _level_index(n, k)
    cols_a = np.stack([np.full_like(fa, n - k), fa + 1, np.full_like(fa, n), fa + ja, ja, fa])
    cols_b = np.stack([np.full_like(jb, k), jb, np.full_like(jb, n), tb, jb, np.full_like(jb, -1)])
    # both runs descend by lower endpoint; k/j goes after every
    # (n-k)/(f+1) above it, i.e. after every f <= ceil((n-k)j/k) - 2
    at = np.searchsorted(fa, -((-(n - k) * jb) // k) - 2, side="right")
    cols = np.insert(cols_a, at, cols_b, axis=1)
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
    # level i keeps the floored uppers >= 2^i
    hi_asc = cols[2, ::-1] // cols[3, ::-1]
    sizes = len(hi_asc) - np.searchsorted(hi_asc, 1 << np.arange(1, n.bit_length()))
    return Decomposition(n, k, MappingProxyType(
        {i: cols[:, :m] for i, m in enumerate(sizes.tolist(), start=1)}))


def prime_divides(dec: Decomposition, p: int) -> bool:
    """Exact membership of the prime p in the decomposition (union over
    root levels)."""
    return dec.prime_divides(p)


def canonical_integer_form(dec: Decomposition) -> dict[int, list[CanonicalInterval]]:
    """Floored endpoint display form, per root level.

    (a, b] maps to (floor(a), floor(b)]; since primes are integers the two
    forms have identical prime membership.  Degenerate floored intervals
    are kept but flagged."""
    lo, hi = dec._floors
    rows = [CanonicalInterval(a, b, empty=a == b)
            for a, b in zip(lo[::-1].tolist(), hi[::-1].tolist())]
    return {i: rows[:cols.shape[1]] for i, cols in dec.columns.items()}


def verify_disjoint(dec: Decomposition, i: int) -> tuple[DivisorInterval, DivisorInterval] | None:
    """None if the intervals at root level i are pairwise disjoint,
    otherwise the first overlapping pair in ascending order.  An overlap
    would be an implementation bug, so this never raises."""
    asc = sorted(dec.intervals_at(i), key=lambda iv: iv.lower)
    for a, b in zip(asc, asc[1:]):
        if not a.upper <= b.lower:
            return a, b
    return None


# -- floored endpoints for the membership mask ---------------------------


def _level_range_arrays(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Floored endpoints (lo, hi] of every level-1 interval, as int64
    arrays (branch A first, then branch B)."""
    ja, fa, jb, tb = _level_index(n, k)
    return (np.concatenate([(n - k) // (fa + 1), k // jb]),
            np.concatenate([n // (fa + ja), n // tb]))


def integer_membership_mask(n: int, k: int, level: int | None = None) -> np.ndarray:
    """Boolean mask over [0, n]: which integers are witnessed as i-th
    roots of interval members.  ``level=None`` takes the union over all
    root levels; ``level=i`` restricts to one level.

    Restricted to primes this is exactly the divisor set of C(n, k)."""
    if level is not None and level < 1:
        raise DomainError(f"root level must be >= 1, got {level}")
    lo, hi = _level_range_arrays(n, k)
    # level-1 intervals are disjoint, so the running sum is 0 or 1
    acc = np.bincount(lo + 1, minlength=n + 2)
    acc -= np.bincount(hi + 1, minlength=n + 2)
    covered = np.cumsum(acc, out=acc)[:n + 1] > 0
    if level == 1:
        return covered
    # r >= 2 is a level-i witness iff r^i is covered: an interval holding
    # r^i >= 2^i has upper >= 2^i, so it is one of level i
    member = covered.copy() if level is None else np.zeros(n + 1, dtype=bool)
    for i in range(2, n.bit_length()) if level is None else (level,):
        r = np.arange(2, integer_root(n, i) + 1)
        member[r] |= covered[r ** i]
    return member


def equivalence_check(n: int, k: int, table: PrimeTable) -> int | None:
    """Compare decomposition membership against the sieve oracle for every
    prime p <= n.  Returns None on agreement, otherwise the smallest
    disagreeing prime."""
    if n < 1 or k < 0 or k > n:
        raise DomainError(f"need 0 <= k <= n with n >= 1, got n={n}, k={k}")
    if n > table.limit:
        raise OutOfRangeError(f"n={n} exceeds table limit {table.limit}")
    member = integer_membership_mask(n, k)
    primes, oracle = _binom_divisor_flags(table, n, k)
    via_intervals = member[primes]
    disagree = via_intervals != oracle
    if disagree.any():
        return int(primes[int(np.argmax(disagree))])
    return None


def level_prime_count(table: PrimeTable, n: int, k: int) -> int:
    """Number of primes in the level-1 intervals, via prime counts at the
    floored endpoints (exact: the intervals are disjoint)."""
    lo, hi = _level_range_arrays(n, k)
    return int((table.pi_prefix[np.minimum(hi, table.limit)]
                - table.pi_prefix[np.minimum(lo, table.limit)]).sum())
