"""Exact interval decomposition of the prime divisors of C(n, k).

The set {p prime : p divides C(n, k)} equals the primes p for which some
power p^i lands in one of finitely many half-open intervals with rational
endpoints.  Writing e_p for the exponent of p, the criterion

    p | C(n, k)  <=>  exists i with
        floor(k/p^i) = j - 1,  floor((n-k)/p^i) = f,  floor(n/p^i) = f + j

pins (j, f) per witness power and turns into two interval families per
root level i (all endpoint arithmetic exact):

  * branch A, indexed by (j, f) with
    f in [floor((n/k)(j-1)) - j + 1, floor((n/k)j) - j - 1]:
        interval  ((n-k)/(f+1), n/(f+j)]
  * branch B, indexed by j with n*j not divisible by k, f = floor(nj/k) - j:
        interval  (k/j, n/floor(nj/k)]

membership meaning lower < p^i <= upper.  For each fixed root level the
intervals are pairwise disjoint.

`_level_index` enumerates the (j, f) indices of one root level as int64
arrays, and everything else reads that one enumeration: `decompose` keeps
the exact endpoints of every level as integer numerator/denominator
columns in lowest terms, and the membership mask and prime counts use
their floors.  Floors lose nothing for primes: an integer q satisfies
a < q <= b iff floor(a) < q <= floor(b).  `fractions.Fraction` endpoints
are built only when `Decomposition.levels` is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import DomainError, OutOfRangeError
from .primes import PrimeTable, _binom_divisor_flags, integer_root

#: Largest n `decompose` accepts.  The columns hold about n intervals in
#: int64, and the order and degeneracy tests cross-multiply up to n^2.
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


class Decomposition:
    """The full interval family for one pair (n, k), grouped by root level.

    ``columns[i]`` is a read-only int64 array of shape (6, m) holding the
    m intervals at root level i, ordered by descending lower endpoint.
    Its rows are lower numerator, lower denominator, upper numerator,
    upper denominator (both fractions in lowest terms), j and f, with
    f = -1 on branch B.  Intervals at a fixed level are disjoint; across
    levels the same prime may be witnessed repeatedly, so membership is
    the union over all levels.
    """

    def __init__(self, n: int, k: int, columns: dict[int, np.ndarray]):
        self.n = n
        self.k = k
        self.columns = columns

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
    def _floors(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Floored (lower, upper) per level, in ascending order."""
        return {i: (cols[0, ::-1] // cols[1, ::-1], cols[2, ::-1] // cols[3, ::-1])
                for i, cols in self.columns.items()}

    @cached_property
    def max_root_index(self) -> int:
        """Deepest root level holding an integer >= 2."""
        return max((i for i, (lo, hi) in self._floors.items()
                    if ((hi >= 2) & (hi > lo)).any()), default=0)

    def intervals_at(self, i: int) -> tuple[DivisorInterval, ...]:
        return self.levels.get(i, ())

    def all_intervals(self) -> list[DivisorInterval]:
        return [iv for ivs in self.levels.values() for iv in ivs]

    def prime_divides(self, p: int) -> bool:
        """True iff some interval at some root level contains p^i.

        Floored lowers ascend, and the last one below p^i belongs to the
        only interval at that level that can contain it.
        """
        for i, (lo, hi) in self._floors.items():
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


def _level_index(n: int, k: int, i: int) -> tuple[np.ndarray, ...]:
    """(j_a, f_a, j_b, t_b): the indices of every interval at root level i,
    as int64 arrays.  Branch A pairs (j, f) come with f strictly ascending,
    branch B pairs (j, t = floor(nj/k)) with j ascending.  Only intervals
    whose upper endpoint can hold a power >= 2^i are kept, i.e. those with
    upper denominator f + j or t at most floor(n / 2^i)."""
    d_max = n >> i
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

    Root levels run from 1 up to floor(log2 n); at level i intervals whose
    upper endpoint is below 2^i are omitted (no prime power fits).  The
    cases k = 0 and k = n yield an empty decomposition since C(n, k) = 1.
    n is capped at MAX_DECOMPOSE_N.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if k < 0 or k > n:
        raise DomainError(f"k must satisfy 0 <= k <= n, got k={k}, n={n}")
    if n > MAX_DECOMPOSE_N:
        raise OutOfRangeError(f"decompose needs n <= {MAX_DECOMPOSE_N}, got n={n}")
    if k == 0 or k == n:
        return Decomposition(n, k, {})
    columns: dict[int, np.ndarray] = {}
    for i in range(1, n.bit_length()):
        ja, fa, jb, tb = _level_index(n, k, i)
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
            raise DomainError(f"degenerate interval at level {i} of C({n}, {k}); "
                              "this indicates an enumeration bug")
        cols.setflags(write=False)
        columns[i] = cols
    return Decomposition(n, k, columns)


def prime_divides(dec: Decomposition, p: int) -> bool:
    """Exact membership of the prime p in the decomposition (union over
    root levels)."""
    return dec.prime_divides(p)


def canonical_integer_form(dec: Decomposition) -> dict[int, list[CanonicalInterval]]:
    """Floored endpoint display form, per root level.

    (a, b] maps to (floor(a), floor(b)]; since primes are integers the two
    forms have identical prime membership.  Degenerate floored intervals
    are kept but flagged."""
    return {i: [CanonicalInterval(a, b, empty=a == b)
                for a, b in zip(lo[::-1].tolist(), hi[::-1].tolist())]
            for i, (lo, hi) in dec._floors.items()}


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


def _level_range_arrays(n: int, k: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Floored endpoints (lo, hi] of every interval at root level i,
    as int64 arrays (branch A first, then branch B)."""
    ja, fa, jb, tb = _level_index(n, k, i)
    return (np.concatenate([(n - k) // (fa + 1), k // jb]),
            np.concatenate([n // (fa + ja), n // tb]))


def _integer_root_vec(arr: np.ndarray, i: int) -> np.ndarray:
    """Vectorised exact floor of the i-th root of nonnegative int64s."""
    if i == 1:
        return arr
    # The float estimate is off by a few ulp, far below 1 for roots under
    # 2^32, so its floor is within 1 of the root: one step down and one up
    # make it exact.  Every root is <= rmax, and r <= rmax keeps r ** i
    # inside int64; (rmax + 1) ** i wraps, so the step up skips r == rmax.
    rmax = integer_root(2**63 - 1, i)
    r = np.floor(arr.astype(np.float64) ** (1.0 / i)).astype(np.int64)
    np.minimum(r, rmax, out=r)
    r[r ** i > arr] -= 1
    r[(r < rmax) & ((r + 1) ** i <= arr)] += 1
    return r


def integer_membership_mask(n: int, k: int, level: int | None = None) -> np.ndarray:
    """Boolean mask over [0, n]: which integers are witnessed as i-th
    roots of interval members.  ``level=None`` takes the union over all
    root levels; ``level=i`` restricts to one level.

    Restricted to primes this is exactly the divisor set of C(n, k)."""
    acc = np.zeros(n + 2, dtype=np.int64)
    levels = [level] if level is not None else range(1, max(n.bit_length() - 1, 0) + 1)
    for i in levels:
        if (1 << i) > n:
            continue
        lo, hi = _level_range_arrays(n, k, i)
        if len(lo) == 0:
            continue
        rlo = _integer_root_vec(lo, i)
        rhi = _integer_root_vec(hi, i)
        acc += np.bincount(rlo + 1, minlength=n + 2)[:n + 2]
        acc -= np.bincount(rhi + 1, minlength=n + 2)[:n + 2]
    return np.cumsum(acc)[:n + 1] > 0


def equivalence_check(n: int, k: int, table: PrimeTable) -> int | None:
    """Compare decomposition membership against the sieve oracle for every
    prime p <= n.  Returns None on agreement, otherwise the smallest
    disagreeing prime."""
    if n < 1 or k < 0 or k > n:
        raise DomainError(f"need 0 <= k <= n with n >= 1, got n={n}, k={k}")
    if n > table.limit:
        raise OutOfRangeError(f"n={n} exceeds table limit {table.limit}")
    if k == 0 or k == n:
        member = np.zeros(n + 1, dtype=bool)
    else:
        member = integer_membership_mask(n, k)
    primes, oracle = _binom_divisor_flags(table, n, k)
    via_intervals = member[primes]
    disagree = via_intervals != oracle
    if disagree.any():
        return int(primes[int(np.argmax(disagree))])
    return None


def level_prime_count(table: PrimeTable, n: int, k: int, i: int) -> int:
    """Number of primes witnessed by the level-i intervals, via prime
    counts at the floored endpoints (exact: the level is disjoint)."""
    lo, hi = _level_range_arrays(n, k, i)
    if len(lo) == 0:
        return 0
    rlo = _integer_root_vec(lo, i)
    rhi = _integer_root_vec(hi, i)
    return int((table.pi_prefix[np.minimum(rhi, table.limit)]
                - table.pi_prefix[np.minimum(rlo, table.limit)]).sum())
