import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomfactor import (MAX_LIMIT, DomainError, OutOfRangeError,
                         PrimeTable, binom_exponent, integer_root,
                         legendre_exponent, omega_binom_oracle)
from binomfactor.primes import (_CHUNK, _binom_divisor_flags, _is_prime_int,
                               _power_ladder, _sieve, _von_mangoldt)
from conftest import reference_sieve


def direct_lambda(table, n):
    """Lambda(n) for n >= 1 by trial division over the table's primes:
    log p if n = p^e with e >= 1, else 0.0.  A prime weighs ``np.log`` of
    itself and a higher prime power ``math.log`` of its base, as
    `_von_mangoldt` assigns them; the two logs differ in the last bit at
    some primes."""
    for p in table.primes_up_to(math.isqrt(n)).tolist():
        if n % p == 0:
            while n % p == 0:
                n //= p
            # p <= sqrt(n), so a power of p here has e >= 2
            return math.log(p) if n == 1 else 0.0
    return float(np.log(np.float64(n))) if n > 1 else 0.0


class TestBuildTable:
    def test_first_primes(self):
        table = PrimeTable(10)
        assert [int(p) for p in table.primes] == [2, 3, 5, 7]

    def test_boundary_limit_two(self):
        table = PrimeTable(2)
        assert table.pi(2) == 1
        assert [int(p) for p in table.primes] == [2]

    def test_rejects_tiny_limit(self):
        with pytest.raises(DomainError):
            PrimeTable(1)

    def test_rejects_over_budget(self):
        with pytest.raises(DomainError):
            PrimeTable(10**12)

    @pytest.mark.parametrize("limit", [2, 3, 100, _CHUNK - 1, _CHUNK, _CHUNK + 1])
    def test_sieve_at_segment_edges(self, limit):
        # one segmented loop serves every limit, including those that fit
        # in a single segment
        assert _CHUNK == 1 << 20
        assert np.array_equal(_sieve(limit), reference_sieve(limit))

    def test_against_independent_sieve(self, table_medium):
        ref = reference_sieve(1_000_000)
        mask = np.diff(table_medium.pi_prefix[:1_000_001], prepend=0) > 0
        assert np.array_equal(mask, ref)
        assert int(table_medium.pi_prefix[1_000_000]) == 78498

    def test_golden_prefix_digests(self, table_medium):
        # the values must not depend on the dtype or layout the table uses
        pi = table_medium.pi_prefix.astype(np.int64).tobytes()
        assert hashlib.sha256(pi).hexdigest() == (
            "265a504b995a522aa073aa9bfaf586ca03b11c5351888f47c71ec4957b5a3de3")
        psi = table_medium.psi_prefix.tobytes()
        assert hashlib.sha256(psi).hexdigest() == (
            "a5d0aa4049bb75900c92f600a675a1556c55109a90357d9edb10ac462d3d669b")

    def test_arrays_read_only(self, table_small):
        for name in ("pi_prefix", "primes", "psi_prefix"):
            arr = getattr(table_small, name)
            before = arr[5]
            with pytest.raises(ValueError):
                arr[5] = 0
            assert arr[5] == before, name
        view = table_small.primes_up_to(100)
        with pytest.raises(ValueError):
            view[0] = 4
        assert table_small.pi(10) == 4

    def test_memory_budget(self, table_medium):
        stored = sum(getattr(table_medium, name).nbytes
                     for name in type(table_medium).__slots__
                     if isinstance(getattr(table_medium, name), np.ndarray))
        assert stored <= 13 * (table_medium.limit + 1)
        assert np.iinfo(table_medium.pi_prefix.dtype).max >= MAX_LIMIT


class TestPi:
    def test_below_two(self, table_small):
        assert table_small.pi(1.5) == 0
        assert table_small.pi(0) == 0
        assert table_small.pi(-3) == 0

    def test_small_values(self, table_small):
        assert table_small.pi(10) == 4
        assert table_small.pi(2000) == 303

    def test_exact_rational_argument(self, table_small):
        # 2000/3 = 666.66..; 666 is not prime, 661 <= 666 is the cutoff zone
        assert table_small.pi(Fraction(2000, 3)) == table_small.pi(666)
        # an integer-valued Fraction must include its own endpoint
        assert table_small.pi(Fraction(4000, 2)) == table_small.pi(2000)

    def test_rational_never_through_float(self, table_small):
        # 10007 is prime; (10007*3 + 1)/3 floors to 10007 while its float
        # neighbourhood would be ambiguous
        f = Fraction(10007 * 3 + 1, 3)
        assert table_small.pi(f) - table_small.pi(10006) == 1

    def test_out_of_range_raises(self, table_small):
        with pytest.raises(OutOfRangeError):
            table_small.pi(20_001)

    def test_monotone_with_unit_steps(self, table_small):
        pp = table_small.pi_prefix
        diffs = np.diff(pp[:5000])
        assert diffs.min() >= 0 and diffs.max() <= 1

    def test_prefix_matches_primality_count(self, table_small):
        assert int(table_small.pi_prefix[-1]) == len(table_small.primes)

    def test_is_prime_matches_reference_sieve(self, table_small):
        ref = reference_sieve(table_small.limit)
        assert [table_small.is_prime(n) for n in range(table_small.limit + 1)] == ref.tolist()
        with pytest.raises(OutOfRangeError):
            table_small.is_prime(table_small.limit + 1)

    @pytest.mark.parametrize("n", [7.0, 7.5, Fraction(7), "7"])
    def test_is_prime_rejects_non_integer(self, table_small, n):
        with pytest.raises(DomainError):
            table_small.is_prime(n)


class TestPsi:
    def test_empty_sum(self, table_small):
        assert table_small.psi(1) == 0.0

    def test_prime_powers_up_to_four(self, table_small):
        assert table_small.psi(4) == pytest.approx(math.log(12), rel=1e-14)

    def test_prime_powers_up_to_ten(self, table_small):
        assert table_small.psi(10) == pytest.approx(math.log(2520), rel=1e-14)

    def test_psi_vs_direct_fsum(self, table_small):
        direct = math.fsum(direct_lambda(table_small, n) for n in range(1, 5001))
        assert table_small.psi(5000) == pytest.approx(direct, rel=1e-13)

    def test_psi_dominates_pi_log2(self, table_small):
        for x in (2, 10, 97, 1000, 19997):
            assert table_small.psi(x) >= table_small.pi(x) * math.log(2)

    def test_prime_jump_is_log_p(self, table_small):
        for p in (2, 3, 101, 9973):
            jump = table_small.psi(p) - table_small.psi(p - 1)
            assert jump == pytest.approx(math.log(p), rel=1e-12)

    def test_nondecreasing(self, table_small):
        assert np.all(np.diff(table_small.psi_prefix[:10000]) >= -1e-12)


class TestVonMangoldtAndMu:
    """`_von_mangoldt`, the Lambda array psi is built from, against
    `direct_lambda`."""

    def test_lambda_values(self, table_small):
        lam = _von_mangoldt(table_small.limit, table_small.primes)
        assert lam[2] == pytest.approx(math.log(2))
        assert lam[8] == pytest.approx(math.log(2))
        assert lam[9] == pytest.approx(math.log(3))
        assert lam[6] == 0.0 and lam[12] == 0.0 and lam[1] == 0.0

    @staticmethod
    def _check_against_sieves(table, ns):
        lam = _von_mangoldt(table.limit, table.primes)
        direct = np.array([direct_lambda(table, n) for n in ns])
        assert direct.tobytes() == lam[ns].tobytes()

    def test_on_demand_match_sieves_small(self, table_small):
        self._check_against_sieves(table_small, list(range(1, table_small.limit + 1)))

    def test_on_demand_match_sieves_medium(self, table_medium):
        rng = random.Random(4242)
        ns = [rng.randint(1, 1_000_000) for _ in range(500)]
        ns += [2**19, 3**12, 999_983, 999_983 - 2, 1_000_000]
        # the primes whose np.log and math.log differ in the last bit
        differ = [p for p in table_medium.primes.tolist()
                  if float(np.log(np.float64(p))) != math.log(p)]
        assert differ
        ns += differ
        self._check_against_sieves(table_medium, ns)


class TestIsPrimeInt:
    """`_is_prime_int`, the Miller-Rabin test behind the exponent
    functions and `prime_divides`, is exact below 2^64 and refuses the
    rest."""

    def test_matches_the_table(self, table_medium):
        assert [_is_prime_int(p) for p in range(-5, table_medium.limit + 1)] == (
            [False] * 5 + [table_medium.is_prime(p) for p in range(table_medium.limit + 1)])

    @pytest.mark.parametrize("p", [
        3215031751,            # strong pseudoprime to the bases 2, 3, 5, 7
        2152302898747,         # ... to the bases 2 through 11
        3825123056546413051,   # ... to the bases 2 through 23
    ])
    def test_rejects_strong_pseudoprimes(self, p):
        assert not _is_prime_int(p)

    @pytest.mark.parametrize("p", [10**14 + 31, 2**61 - 1, 2**64 - 59])
    def test_large_primes(self, p):
        # 2^64 - 59 is the largest prime below 2^64
        assert _is_prime_int(p)
        assert legendre_exponent(p, 3 * p) == 3

    def test_budget(self):
        assert not _is_prime_int(2**64 - 1)
        with pytest.raises(OutOfRangeError):
            _is_prime_int(2**64)
        with pytest.raises(OutOfRangeError):
            legendre_exponent(2**89 - 1, 10)
        for p in (7.0, Fraction(7), "7"):
            with pytest.raises(DomainError):
                _is_prime_int(p)


class TestLegendre:
    def test_four_factorial(self):
        assert legendre_exponent(2, 4) == 3

    def test_prime_above_n(self):
        assert legendre_exponent(5, 4) == 0

    def test_hundred_factorial_base_three(self):
        # floor(100/3) + floor(100/9) + floor(100/27) + floor(100/81)
        assert legendre_exponent(3, 100) == 33 + 11 + 3 + 1 == 48

    def test_rejects_composite(self):
        with pytest.raises(DomainError):
            legendre_exponent(4, 10)

    @given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 400))
    @settings(max_examples=100, deadline=None)
    def test_matches_factorial_valuation(self, p, n):
        fact = math.factorial(n)
        e = 0
        while fact % p == 0:
            fact //= p
            e += 1
        assert legendre_exponent(p, n) == e


class TestBinomExponent:
    def test_c_four_two(self):
        assert binom_exponent(2, 4, 2) == 1

    def test_c_nine_four(self):
        # C(9,4) = 126 = 2 * 3^2 * 7
        assert binom_exponent(3, 9, 4) == 2

    def test_diagonal_is_zero(self):
        for p in (2, 3, 5, 7):
            assert binom_exponent(p, 17, 17) == 0

    def test_kummer_carry_count_agrees(self):
        # independent formulation: carries when adding k and n-k in base p
        for p in (2, 3, 5, 7, 11):
            for n in range(1, 120):
                for k in (0, 1, n // 3, n // 2, n - 1, n):
                    if not 0 <= k <= n:
                        continue
                    carries, carry, a, b = 0, 0, k, n - k
                    while a or b or carry:
                        s = a % p + b % p + carry
                        carry = 1 if s >= p else 0
                        carries += carry
                        a //= p
                        b //= p
                    assert binom_exponent(p, n, k) == carries

    def test_exact_valuation_exhaustive_small(self):
        for n in range(1, 90):
            c_row = [math.comb(n, k) for k in range(n + 1)]
            for p in (2, 3, 5, 7, 11, 13):
                if p > n:
                    continue
                for k in range(n + 1):
                    e = binom_exponent(p, n, k)
                    assert c_row[k] % p**e == 0
                    assert c_row[k] % p**(e + 1) != 0


class TestOmegaOracle:
    def test_c_four_two(self, table_small):
        count, primes = omega_binom_oracle(table_small, 4, 2)
        assert count == 2 and primes.tolist() == [2, 3]

    def test_diagonal(self, table_small):
        count, primes = omega_binom_oracle(table_small, 50, 50)
        assert count == 0 and len(primes) == 0

    def test_showcase_value(self, table_small):
        count, _ = omega_binom_oracle(table_small, 2000, 1000)
        assert count == 208

    def test_against_big_integer_factorisation(self, table_small):
        for n, k in [(30, 15), (64, 20), (100, 37), (255, 128)]:
            value = math.comb(n, k)
            expected = {p for p in range(2, n + 1)
                        if table_small.is_prime(p) and value % p == 0}
            count, primes = omega_binom_oracle(table_small, n, k)
            assert set(primes.tolist()) == expected
            assert count == len(expected)

    def test_out_of_range(self, table_small):
        with pytest.raises(OutOfRangeError):
            omega_binom_oracle(table_small, 20_001, 5)


def _reference_flags(table, n, k):
    """The per-level carry loop the Kummer oracle replaces: for each root
    level i, the primes p <= n^(1/i) and the three-floor carry at p^i."""
    primes = table.primes_up_to(n)
    level1 = np.zeros(len(primes), dtype=bool)
    divides = np.zeros(len(primes), dtype=bool)
    i = 1
    while True:
        bound = integer_root(n, i)
        if bound < 2:
            break
        idx = int(np.searchsorted(primes, bound, side="right"))
        if idx == 0:
            break
        q = primes[:idx] ** i
        carries = (n // q) - (k // q) - ((n - k) // q) > 0
        if i == 1:
            level1 = carries
        divides[:idx] |= carries
        i += 1
    return primes, divides, level1


class TestKummerOracle:
    """`_binom_divisor_flags` tests k mod p^i > n mod p^i over every power
    at once; it must equal the per-level three-floor loop, level-1 flags
    included."""

    @staticmethod
    def _check(table, n, k):
        got = _binom_divisor_flags(table, n, k)
        want = _reference_flags(table, n, k)
        for g, w in zip(got, want):
            assert np.array_equal(g, w), (n, k)

    def test_every_pair_up_to_300(self, table_small):
        for n in range(1, 301):
            for k in range(n + 1):
                self._check(table_small, n, k)

    def test_seeded_pairs_to_a_million(self, table_medium):
        rng = random.Random(1852)
        for _ in range(300):
            n = rng.randint(2, 10**6)
            self._check(table_medium, n, rng.randint(0, n))

    def test_seeded_pairs_near_ten_million(self, table_large):
        rng = random.Random(44)
        for _ in range(6):
            n = rng.randint(10**7 - 1000, 10**7)
            self._check(table_large, n, rng.randint(0, n))

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 31, 997])
    def test_around_prime_powers(self, table_medium, p):
        rng = random.Random(p)
        q = p
        while q + 1 <= 10**6:
            for n in (q - 1, q, q + 1):
                ks = {1, n // 2, n - 1, n - q // p, rng.randint(0, n)}
                for k in sorted(x for x in ks if 0 <= x <= n):
                    self._check(table_medium, n, k)
            q *= p


class TestPowerLadder:
    """`_power_ladder` lists b^2, ..., b^e <= n per base, with exponents
    from float logs fixed up exactly; checked against `integer_root` and
    Python ints, with no table."""

    @staticmethod
    def _check(n, bases):
        base, exponent, power, start = _power_ladder(bases, n)
        assert power.tolist() == [b**i for b, i in zip(base.tolist(), exponent.tolist())]
        tops = np.append(start, base.size)[1:] - 1
        assert np.array_equal(base[start], bases)
        for b, e in zip(bases.tolist(), exponent[tops].tolist()):
            assert b**e <= n < b ** (e + 1), (n, b, e)
        assert exponent.tolist() == [i for e in exponent[tops].tolist()
                                     for i in range(2, e + 1)]
        # the bases with an i-th power <= n are 2..integer_root(n, i)
        for i in range(2, n.bit_length()):
            at = base[exponent == i]
            want = bases[bases <= integer_root(n, i)]
            assert np.array_equal(at, want), (n, i)

    def test_every_n_up_to_300(self):
        for n in range(1, 301):
            self._check(n, np.arange(2, math.isqrt(n) + 1, dtype=np.int64))

    @pytest.mark.parametrize("n", [2**27 - 1, 2**27, 3**17 - 1, 3**17,
                                   14142**2 - 1, 14142**2, MAX_LIMIT])
    def test_exact_power_edges(self, n):
        bases = np.arange(2, math.isqrt(n) + 1, dtype=np.int64)
        self._check(n, bases)
        self._check(n, bases[reference_sieve(math.isqrt(n))[2:]])

    def test_refuses_past_the_budget(self):
        with pytest.raises(OutOfRangeError):
            _power_ladder(np.arange(2, 4, dtype=np.int64), MAX_LIMIT + 1)


class TestIntegerRoot:
    @given(st.integers(0, 10**12), st.integers(1, 6))
    @settings(max_examples=300, deadline=None)
    def test_floor_property(self, x, i):
        r = integer_root(x, i)
        assert r**i <= x < (r + 1) ** i

    def test_beyond_float_range(self):
        assert integer_root((10**100 + 7) ** 3, 3) == 10**100 + 7
        assert integer_root(2**2000, 5) == 2**400

    @pytest.mark.parametrize("r", [2, 3, 12_345, 2**26 - 1, 2**26, 2**26 + 1,
                                   10**17 + 3, 2**400, 10**100 + 7])
    @pytest.mark.parametrize("i", [3, 4, 5, 7, 11])
    def test_power_boundaries(self, r, i):
        p = r**i
        assert integer_root(p - 1, i) == r - 1
        assert integer_root(p, i) == r
        assert integer_root(p + 1, i) == r
