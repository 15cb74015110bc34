"""Elementary pi(x) and psi(x) bounds from signed omega combinations.

A combination like

    omega C(k/2, k/6) + omega C(k/3, k/12) - omega C(k/10, k/60)

expands, term by term, into prime counts pi(k/t) with a periodic integer
coefficient sequence a_t.  When that sequence alternates in sign, the
monotonicity of pi brackets the whole sum between its first one and two
terms, and combining with the growth constants of each omega term yields
Chebyshev-type bounds c1 * x/log x < pi(x) < c2 * x/log x.  The upper
constant is then sharpened by feeding the bound back into the anchor
term, a contraction with an explicit fixed point.

The psi(x) analogue replaces each omega expansion with the psi series of
a balanced factorial ratio (classically: multipliers 30, 1 over
15, 10, 6) and needs no error term at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .asymptotics import omega_growth_constant
from .errors import DomainError, NonAlternatingError, OutOfRangeError
from .identities import FactorialRatioSpec, _quotient_sum, omega_pi_series
from .primes import PrimeTable, _as_int, _binom_divisor_count, _shown

#: Longest coefficient-sequence period (lcm of the expansion divisors): one
#: int64 per index, and `verify_alternating` scans two periods in Python,
#: ~1 s in all at this ceiling.  The built-in specs have 60, 420 and 30.
MAX_PERIOD = 1_000_000

#: Most passes of the sharpening map `derive_bounds` records; each one
#: contracts the gap to the fixed point by lead/anchor (1/6 classically).
MAX_ITERATIONS = 1000


@dataclass(frozen=True)
class CombinationTerm:
    """sign * omega(C(k/a, k/b)) with a | b.

    Expands over pi(k/t) as +1 on multiples of a, -1 on multiples of
    a*b/(b-a), and -1 on multiples of b; the middle divisor must be an
    integer or the expansion leaves the pi(k/t) lattice, so a term
    without it is refused when built.  The three are stored as Python
    ints.
    """
    sign: int
    a: int
    b: int

    def __post_init__(self):
        for name in ("sign", "a", "b"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        if self.sign not in (1, -1):
            raise DomainError(f"sign must be +1 or -1, got {_shown(self.sign)}")
        if self.a < 1 or self.b <= self.a:
            raise DomainError(f"need 1 <= a < b, got a={_shown(self.a)}, b={_shown(self.b)}")
        if self.b % self.a:
            raise DomainError(f"a={_shown(self.a)} must divide b={_shown(self.b)}")
        if (self.a * self.b) % (self.b - self.a):
            raise DomainError(
                f"term (a={_shown(self.a)}, b={_shown(self.b)}): scaling a*b/(b-a) is "
                "not an integer, expansion has no pi(k/t) form")

    @property
    def ratio(self) -> int:
        return self.b // self.a

    def expansion_divisors(self) -> tuple[tuple[int, int], ...]:
        """((divisor, coefficient), ...) of the term's pi(k/t) expansion,
        before the overall sign."""
        return ((self.a, 1), (self.a * self.b // (self.b - self.a), -1), (self.b, -1))


@dataclass(frozen=True)
class CombinationSpec:
    """A signed combination of scaled omega terms."""
    terms: tuple[CombinationTerm, ...]

    @property
    def k_multiple(self) -> int:
        """Least L with every argument integral for k in L*N."""
        return math.lcm(*(t.b for t in self.terms))

    @cached_property
    def lead_and_anchor(self) -> tuple[int, int]:
        """`_lead_and_anchor` of the spec's coefficient sequence, derived
        on first read and kept on this spec."""
        return _lead_and_anchor(coefficient_sequence(self))


#: The combination behind the classical 0.92 / 1.11 pi(x) bounds.
PI_BOUNDS_SPEC = CombinationSpec((
    CombinationTerm(+1, 2, 6),
    CombinationTerm(+1, 3, 12),
    CombinationTerm(-1, 10, 60),
))

#: Same spec with the non-alternating fourth term appended.
PI_BOUNDS_SPEC_BROKEN = CombinationSpec(
    PI_BOUNDS_SPEC.terms + (CombinationTerm(+1, 12, 84),))

#: Classical multiplier set for the psi(x) variant.
PSI_RATIO_SPEC = FactorialRatioSpec((30, 1), (15, 10, 6))


@dataclass(frozen=True)
class CoefficientSequence:
    """Periodic integer coefficients a_n of pi(k/n) (or psi(K/n)) in an
    expanded combination.  ``values[r - 1]`` is the coefficient for
    n congruent to r mod period, with r = period standing for 0."""
    values: tuple[int, ...]

    def __post_init__(self):
        # |c| <= 2^32 keeps `reconstruct_series_value` exact in int64: its
        # sums are at most |c| * k or |c| * sum_j pi(k/j) = |c| * sum of
        # omega(v) over v <= k <= MAX_LIMIT = 2*10^8 < 2*3*5*...*23, where
        # omega(v) <= 8, so at most 2^32 * 1.6*10^9 < 2^63
        values = tuple(_as_int(v, "coefficient") for v in self.values)
        _as_int(max(map(abs, values), default=0), "largest |coefficient|", hi=1 << 32)
        object.__setattr__(self, "values", values)
        if not self.values:
            raise DomainError("a coefficient sequence needs at least one value")

    @property
    def period(self) -> int:
        return len(self.values)

    def coefficient(self, n: int) -> int:
        return self.values[(_as_int(n, "index", lo=1) - 1) % self.period]

    def residues_with_sign(self, sign: int) -> frozenset[int]:
        """Residues r in [1, period] (period standing for 0) whose
        coefficient has the given sign."""
        return frozenset(r for r, v in enumerate(self.values, start=1)
                         if v and (v > 0) == (sign > 0))


def _minimal_period(arr: np.ndarray) -> int:
    full = len(arr)
    for p in range(1, full + 1):
        if full % p:
            continue
        if (arr.reshape(full // p, p) == arr[:p]).all():
            return p
    return full


def _sequence_from_divisors(weighted_divisors) -> CoefficientSequence:
    """Build the periodic coefficient sequence from (divisor, weight)
    pairs: weight added at every multiple of divisor.  The period is the
    lcm of the divisors, then minimised (never assumed); the lcm is folded
    term by term and refused at the first partial lcm past `MAX_PERIOD`."""
    pairs = list(weighted_divisors)
    if not pairs:
        return CoefficientSequence((0,))
    length = 1
    for d, _ in pairs:
        length = _as_int(math.lcm(length, d), "period lcm", hi=MAX_PERIOD)
    arr = np.zeros(length + 1, dtype=np.int64)
    for d, w in pairs:
        arr[d::d] += w
    body = arr[1:]
    p = _minimal_period(body)
    return CoefficientSequence(tuple(int(v) for v in body[:p]))


def coefficient_sequence(spec: CombinationSpec) -> CoefficientSequence:
    """Expand every term of the combination over pi(k/t) and sum the
    coefficients."""
    weighted = []
    for term in spec.terms:
        for d, w in term.expansion_divisors():
            weighted.append((d, term.sign * w))
    return _sequence_from_divisors(weighted)


def psi_coefficient_sequence(spec: FactorialRatioSpec) -> CoefficientSequence:
    """Coefficient sequence of psi(Lk/t) in the psi series of a balanced
    factorial ratio, L = ``spec.period``: each multiplier v contributes
    +-1 at every multiple of L/v."""
    L = spec.period
    weighted = ([(L // v, +1) for v in spec.numerator_multipliers]
                + [(L // v, -1) for v in spec.denominator_multipliers])
    return _sequence_from_divisors(weighted)


def verify_alternating(seq: CoefficientSequence) -> int | None:
    """Check that nonzero coefficients, scanned in increasing n, strictly
    alternate in sign starting with +1, with unit magnitude (a stacked
    coefficient of +-2 is two equal signs at one index).  Returns None on
    success, else the first violating index.

    Scanning two full periods also validates the wrap-around from one
    period into the next.
    """
    expected = 1
    for n, v in enumerate(seq.values * 2, start=1):
        if v == 0:
            continue
        if abs(v) > 1 or (v > 0) != (expected > 0):
            return n
        expected = -expected
    return None


def _lead_and_anchor(seq: CoefficientSequence) -> tuple[int, int]:
    """(lead, anchor): the first positive and the first negative
    coefficient index of an alternating sequence, which, as alternation
    starts at +1, are its first two nonzero ones.  Raises
    NonAlternatingError if it does not alternate, DomainError if its
    coefficients are all zero (it bounds nothing)."""
    violation = verify_alternating(seq)
    if violation is not None:
        raise NonAlternatingError(violation)
    nonzero = [n for n, v in enumerate(seq.values, start=1) if v]
    if not nonzero:
        raise DomainError("the combination's coefficients are all zero: it bounds nothing")
    return nonzero[0], nonzero[1]


def combination_constant(spec: CombinationSpec) -> float:
    """Leading coefficient of the combination's k/log k growth:
    sum of sign * log(r^r / (r-1)^(r-1)) / b over terms, r = b/a."""
    return math.fsum(
        term.sign * omega_growth_constant(term.ratio, 1) / term.b
        for term in spec.terms)


@dataclass(frozen=True)
class BoundsLedger:
    """Lower/upper pi(x)/(x/log x) (or psi(x)/x) bounds from one
    alternating combination.

    lead_index is the first positive coefficient (the bracketing head),
    anchor_index the first negative one (where the alternating tail is
    cut).  upper_iterations records each pass of the sharpening map
    U -> lead_index * (C + U / anchor_index), which contracts to
    fixed_point = lead_index * C / (1 - lead_index / anchor_index).
    ``sequence`` is the coefficient sequence the ledger was derived from.
    """
    combination_constant: float
    lower_bound: float
    upper_iterations: tuple[float, ...]
    lead_index: int
    anchor_index: int
    fixed_point: float
    initial_upper: float
    sequence: CoefficientSequence


def _bounds_ledger(sequence: CoefficientSequence, constant: float,
                   anchor_divisor: int | None, initial_upper: float,
                   iterations: int) -> BoundsLedger:
    """The ledger of an alternating coefficient sequence whose
    combination grows with the given constant; both variants build
    theirs here, under the same checks."""
    iterations = _as_int(iterations, "iterations", lo=1, hi=MAX_ITERATIONS)
    if anchor_divisor is not None:
        anchor_divisor = _as_int(anchor_divisor, "anchor divisor")
    if not (math.isfinite(initial_upper) and initial_upper > 0):
        raise DomainError(f"initial upper bound must be finite and > 0, got {initial_upper}")
    lead, anchor = _lead_and_anchor(sequence)
    if anchor_divisor is not None and anchor_divisor != anchor:
        raise DomainError(
            f"anchor divisor {_shown(anchor_divisor)} does not match the first "
            f"negative coefficient index {anchor}")
    uppers = []
    u = initial_upper
    for _ in range(iterations):
        u = lead * (constant + u / anchor)
        uppers.append(u)
    return BoundsLedger(
        combination_constant=constant,
        lower_bound=lead * constant,
        upper_iterations=tuple(uppers),
        lead_index=lead,
        anchor_index=anchor,
        fixed_point=lead * constant / (1.0 - lead / anchor),
        initial_upper=initial_upper,
        sequence=sequence,
    )


def derive_bounds(spec: CombinationSpec, anchor_divisor: int | None = None,
                  initial_upper: float = 2.0, iterations: int = 3) -> BoundsLedger:
    """Bounds ledger for a pi(x) combination.

    Refuses non-alternating specs, as the bracketing step needs monotone
    partial sums, and specs whose coefficients are all zero.
    ``anchor_divisor``, if given, must match the first negative
    coefficient of the computed sequence (12 for the classical spec).
    ``initial_upper`` (finite, > 0) defaults to the well-known
    pi(x) <= 2 x/log x; ``iterations`` runs from 1 to MAX_ITERATIONS.
    """
    return _bounds_ledger(coefficient_sequence(spec), combination_constant(spec),
                          anchor_divisor, initial_upper, iterations)


@dataclass(frozen=True)
class BracketRow:
    k: int
    omega_combination: int
    series_combination: int
    correction: int
    lower: int
    upper: int
    holds: bool


def empirical_bracket_check(spec: CombinationSpec, k_grid,
                            table: PrimeTable) -> list[BracketRow]:
    """Numerically confirm the bracket at concrete k (multiples of the
    spec's k-multiple):

        pi(k/lead) - pi(k/anchor) <= sum sign*omega - D <= pi(k/lead)

    where every omega comes from the sieve oracle and D is the exactly
    accounted sum of sign * (omega - series) corrections per term.
    """
    lead, anchor = spec.lead_and_anchor
    rows = []
    for k in k_grid:
        k = _as_int(k, "k", lo=1)
        if k % spec.k_multiple:
            raise DomainError(
                f"k={k} is not a multiple of the spec's k-multiple {spec.k_multiple}")
        omega_sum = 0
        series_sum = 0
        for term in spec.terms:
            w, _ = _binom_divisor_count(table, k // term.a, k // term.b)
            s = omega_pi_series(term.ratio, 1, k // term.b, table)
            omega_sum += term.sign * w
            series_sum += term.sign * s
        corr = omega_sum - series_sum
        lo = table.pi(k // lead) - table.pi(k // anchor)
        hi = table.pi(k // lead)
        rows.append(BracketRow(k, omega_sum, series_sum, corr, lo, hi,
                               holds=lo <= omega_sum - corr <= hi))
    return rows


def reconstruct_series_value(seq: CoefficientSequence, k: int,
                             table: PrimeTable) -> int:
    """sum over t of a_t * pi(k/t): the combination's series value
    recomputed directly from the coefficient sequence, over the O(sqrt k)
    distinct quotients floor(k/t); k past the table raises `OutOfRangeError`."""
    return _quotient_sum(table, _as_int(k, "k"), seq.values)


@dataclass(frozen=True)
class PsiBracketRow:
    k: int
    ratio_log: float
    lower: float
    upper: float
    holds: bool


#: The fixed ledger of ``PSI_RATIO_SPEC``'s psi series (initial upper
#: 2.0, 3 iterations; lead index 1, so no doubling), built at import: it
#: needs no table, so the CLI can check its flags against it first.
PSI_BOUNDS_LEDGER = _bounds_ledger(psi_coefficient_sequence(PSI_RATIO_SPEC),
                                   PSI_RATIO_SPEC.growth_rate / PSI_RATIO_SPEC.period,
                                   None, 2.0, 3)


def psi_variant_bounds(k_grid, table: PrimeTable) -> tuple[PsiBracketRow, ...]:
    """The bracket rows of the psi(x)/x bounds from the psi series of the
    balanced factorial ratio ``PSI_RATIO_SPEC``, whose ledger is
    `PSI_BOUNDS_LEDGER`: one row per k of the grid, checking the exact
    bracket psi(Lk) - psi(Lk/anchor) <= log ratio <= psi(Lk)."""
    L = PSI_RATIO_SPEC.period
    lead, anchor = PSI_BOUNDS_LEDGER.lead_index, PSI_BOUNDS_LEDGER.anchor_index
    rows = []
    for k in k_grid:
        k = _as_int(k, "k", lo=1)
        if L * k > table.limit:
            raise OutOfRangeError(f"k={_shown(k)} needs psi beyond table limit")
        ratio_log = PSI_RATIO_SPEC.log_ratio(k)
        lo = table.psi(L * k // lead) - table.psi(L * k // anchor)
        hi = table.psi(L * k // lead)
        slack = 1e-9 * max(abs(hi), 1.0)
        rows.append(PsiBracketRow(k, ratio_log, lo, hi,
                                  holds=lo - slack <= ratio_log <= hi + slack))
    return tuple(rows)
