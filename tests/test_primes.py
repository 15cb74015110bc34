import hashlib
import math
import os
import random
import subprocess
import sys
import textwrap
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import binomfactor
from binomfactor import (MAX_LIMIT, DomainError, OutOfRangeError,
                         PrimeTable, binom_exponent, integer_root,
                         legendre_exponent, omega_binom_oracle)
from binomfactor.primes import (_CHUNK, _GROUPED_FROM, _PI_SHIFT, MAX_EXPONENT_BITS,
                               MAX_ROOT_BITS,
                               _binom_divisor_flags, _grouped_level1,
                               _is_prime_int, _powers_up_to,
                               _quotients, _sieve)
from conftest import _von_mangoldt, dense_psi, reference_sieve


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
        with pytest.raises(OutOfRangeError):
            PrimeTable(10**12)

    @pytest.mark.parametrize("limit", [100.5, 100.0, np.float64(100), "100",
                                       Fraction(100), None])
    def test_rejects_non_integer_limit(self, limit):
        with pytest.raises(DomainError):
            PrimeTable(limit)

    def test_accepts_numpy_integer_limit(self):
        table = PrimeTable(np.int64(100))
        assert type(table.limit) is int and table.limit == 100
        assert table.pi(100) == 25

    @pytest.mark.parametrize("limit", [2, 3, 100, _CHUNK - 1, _CHUNK, _CHUNK + 1])
    def test_sieve_at_segment_edges(self, limit):
        # one segmented loop serves every limit, including those that fit
        # in a single segment
        assert _CHUNK == 1 << 20
        assert np.array_equal(_sieve(limit), reference_sieve(limit))

    def test_against_independent_sieve(self, table_medium):
        ref = reference_sieve(1_000_000)
        mask = np.diff(table_medium.pi_at(np.arange(1_000_001)), prepend=0) > 0
        assert np.array_equal(mask, ref)
        assert table_medium.pi(1_000_000) == 78498

    def test_golden_prefix_digests(self, table_medium):
        # the values must not depend on the dtype or layout the table uses
        pi = table_medium.pi_at(np.arange(table_medium.limit + 1)).astype(np.int64).tobytes()
        assert hashlib.sha256(pi).hexdigest() == (
            "265a504b995a522aa073aa9bfaf586ca03b11c5351888f47c71ec4957b5a3de3")
        psi = table_medium.psi_at(np.arange(table_medium.limit + 1)).tobytes()
        assert hashlib.sha256(psi).hexdigest() == (
            "a5d0aa4049bb75900c92f600a675a1556c55109a90357d9edb10ac462d3d669b")

    def test_arrays_read_only(self, table_small):
        for name in ("pi_base", "pi_offset", "primes", "higher_powers",
                     "higher_base_index", "psi_values"):
            arr = getattr(table_small, name)
            before = arr[5]
            with pytest.raises(ValueError):
                arr[5] = 0
            assert arr[5] == before, name
        with pytest.raises(ValueError):
            table_small.pi_offset.setflags(write=True)  # nor is its buffer writeable
        view = table_small.primes_up_to(100)
        with pytest.raises(ValueError):
            view[0] = 4
        assert table_small.pi(10) == 4

    def test_memory_budget(self, table_medium):
        stored = sum(getattr(table_medium, name).nbytes
                     for name in type(table_medium).__slots__
                     if isinstance(getattr(table_medium, name), np.ndarray))
        # 2.28 B here: the uint8 pi offsets 1, the primes and psi 1.26;
        # the dense int32 pi prefix made it 5.26
        assert stored <= 2.5 * (table_medium.limit + 1)
        assert np.iinfo(table_medium.pi_base.dtype).max >= MAX_LIMIT
        assert table_medium.pi_offset.dtype == np.uint8

    def test_build_peak(self):
        # ~5.4 MB here; the int32 pi prefix's cumsum peaked at ~9.0 MB, and
        # the dense psi build at ~53 MB
        limit = 10**6
        PrimeTable(1000)  # warm-up: first-use costs are not measured
        tracemalloc.start()
        try:
            PrimeTable(limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * (limit + 1)

    def test_setup_rss_growth(self):
        # a fresh interpreter's peak RSS, from after the import through a
        # 10^7 table and a read of log(x!) at every 32nd x <= 10^7: ~31 MB
        # here, ~88 MB with the dense int32 pi prefix and 2^20-wide log chunks
        code = textwrap.dedent("""
            import resource
            import binomfactor
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            table = binomfactor.PrimeTable(10**7)
            binomfactor.log_factorial_prefix(10**7)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(binomfactor.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert int(out) <= 60 * 1024  # ru_maxrss is in KiB on Linux


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
        diffs = np.diff(table_small.pi_at(np.arange(5000)))
        assert diffs.min() >= 0 and diffs.max() <= 1

    def test_prefix_matches_primality_count(self, table_small):
        assert table_small.pi(table_small.limit) == len(table_small.primes)

    def test_is_prime_matches_reference_sieve(self, table_small):
        ref = reference_sieve(table_small.limit)
        assert [table_small.is_prime(n) for n in range(table_small.limit + 1)] == ref.tolist()
        with pytest.raises(OutOfRangeError):
            table_small.is_prime(table_small.limit + 1)

    @pytest.mark.parametrize("n", [7.0, 7.5, Fraction(7), "7"])
    def test_is_prime_rejects_non_integer(self, table_small, n):
        with pytest.raises(DomainError):
            table_small.is_prime(n)

    def test_pi_at_matches_prefix(self, table_small):
        x = np.arange(table_small.limit + 1)
        got = table_small.pi_at(x)
        assert got.dtype == np.int32
        assert np.array_equal(got, np.cumsum(reference_sieve(table_small.limit)))
        assert table_small.pi_at(np.empty(0, dtype=np.int64)).size == 0

    def test_pi_on_quotients(self, table_small):
        for x in (0, 1, 2, 97, 10_000, table_small.limit):
            q, pi = table_small.pi_on_quotients(x)
            assert q.tobytes() == _quotients(x).tobytes()
            assert pi.tobytes() == table_small.pi_at(q).tobytes()

    def test_pi_on_quotients_refuses_before_building(self, table_small):
        # the quotient set of 10^30 has ~2 * 10^15 values: building it
        # first would fail to allocate, not refuse
        start = time.perf_counter()
        for x in (-1, table_small.limit + 1, 10**30):
            with pytest.raises(OutOfRangeError):
                table_small.pi_on_quotients(x)
        assert time.perf_counter() - start < 0.01
        with pytest.raises(DomainError):
            table_small.pi_on_quotients(10.0)


class TestPiLevels:
    """pi(x) is ``pi_base[x >> 8] + pi_offset[x]``: the primes below the
    multiple of 256 at or below x, plus those counted from it."""

    @pytest.mark.parametrize("limit", [2, 3, 255, 256, 257, 511, 512, _CHUNK - 1,
                                       _CHUNK, _CHUNK + 1, 10**6])
    def test_matches_reference_cumsum(self, limit):
        table = PrimeTable(limit)
        want = np.cumsum(reference_sieve(limit))
        assert np.array_equal(table.pi_at(np.arange(limit + 1)), want)
        assert [table.pi(x) for x in range(min(limit, 1000) + 1)] == want[:1001].tolist()
        assert table.pi_base.size == (limit >> _PI_SHIFT) + 1
        assert table.pi_offset.max() <= 128

    def test_block_edges(self, table_medium):
        # 257 = 256 + 1, 65537 = 2^16 + 1 and 786433 = 3 * 2^18 + 1 are
        # prime, each the first integer past a block edge
        ref = reference_sieve(table_medium.limit)
        for edge in (256, 512, 65536, 786432, 999936):
            for n in range(edge - 3, edge + 4):
                assert table_medium.is_prime(n) == ref[n], n
                want = np.flatnonzero(ref[:n + 1])
                assert np.array_equal(table_medium.primes_up_to(n), want), n
        assert table_medium.is_prime(257) and table_medium.is_prime(65537)
        assert table_medium.is_prime(786433)


def test_primes_up_to_is_the_searchsorted_prefix(table_small):
    # primes[:pi(n)], with no wrap-around for a negative n
    primes = table_small.primes
    for n in [*range(-5, 1001), table_small.limit]:
        want = primes[:int(np.searchsorted(primes, n, side="right"))]
        assert np.array_equal(table_small.primes_up_to(n), want), n


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
        assert np.all(np.diff(table_small.psi_at(np.arange(10000))) >= -1e-12)


class TestPsiAt:
    """`psi_at` reads psi from its values at the prime powers; it must
    equal the dense oracle `dense_psi` to the bit at every x.  It takes
    its prime-power count from `pi_at`, and the two refuse alike."""

    @staticmethod
    def _check(table):
        want = dense_psi(table.limit)
        for lo in range(0, table.limit + 1, _CHUNK):
            got = table.psi_at(np.arange(lo, min(lo + _CHUNK, table.limit + 1)))
            assert got.dtype == np.float64
            assert got.tobytes() == want[lo:lo + _CHUNK].tobytes(), lo

    # 3 * 2^20: the last chunk, {3 * 2^20}, holds no prime power
    @pytest.mark.parametrize("limit", [2, 3, 4, 100, _CHUNK - 1, _CHUNK,
                                       _CHUNK + 1, 2 * _CHUNK, 3 * _CHUNK,
                                       3 * _CHUNK + 1])
    def test_matches_dense_oracle_at_chunk_edges(self, limit):
        self._check(PrimeTable(limit))

    def test_matches_dense_oracle_to_ten_million(self, table_large):
        self._check(table_large)

    def test_higher_powers(self, table_small):
        want = sorted(p ** e for p in table_small.primes_up_to(141).tolist()
                      for e in range(2, 15) if p ** e <= table_small.limit)
        assert table_small.higher_powers.tolist() == want
        assert table_small.psi_values.size == (
            1 + table_small.primes.size + table_small.higher_powers.size)

    def test_scalar_and_psi(self, table_small):
        assert table_small.psi_at(9) == table_small.psi(9.5) == table_small.psi(Fraction(19, 2))
        assert table_small.psi(-3) == table_small.psi_at(0) == 0.0

    @pytest.mark.parametrize("x", [-1, 20_001, [5, -1], [20_001, 3]])
    def test_refuses_out_of_range(self, table_small, x):
        for read in (table_small.pi_at, table_small.psi_at):
            with pytest.raises(OutOfRangeError):
                read(np.asarray(x))

    def test_refuses_non_integer(self, table_small):
        for read in (table_small.pi_at, table_small.psi_at):
            with pytest.raises(DomainError):
                read(np.array([2.0, 3.0]))

    def test_reads_pi_prefix_when_called(self, table_small):
        # element reads of the two pi levels stand for psi lookups, so
        # counting views put in their place must each see one read per
        # argument
        reads = []

        class Counting(np.ndarray):
            def __getitem__(self, idx):
                out = super().__getitem__(idx)
                reads.append(np.size(out))
                return out

        table = PrimeTable(table_small.limit)
        table.pi_base = table.pi_base.view(Counting)
        table.pi_offset = table.pi_offset.view(Counting)
        assert table.psi_at(np.arange(50)).tobytes() == (
            table_small.psi_at(np.arange(50)).tobytes())
        assert reads == [50, 50]


class TestVonMangoldtAndMu:
    """`_von_mangoldt`, the dense Lambda array behind the tests' psi
    oracle `dense_psi`, against `direct_lambda`."""

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

    @pytest.mark.parametrize("n", [10.5, 10.0, np.float64(10), Fraction(10), "10"])
    def test_rejects_non_integer_n(self, n):
        with pytest.raises(DomainError):
            legendre_exponent(2, n)

    def test_accepts_numpy_integer_n(self):
        e = legendre_exponent(2, np.int64(10))
        assert type(e) is int and e == 8

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


class TestExponentBudget:
    """n < 2^`MAX_EXPONENT_BITS` in the single-prime exponents, whose
    Legendre sums grow about with the cube of n's bit length."""

    def test_refused_fast(self):
        n = 2**20000  # ~7 s of Legendre sums when it was accepted
        for call in (lambda: binom_exponent(2, n, n // 2 + 12345),
                     lambda: legendre_exponent(2, n),
                     lambda: binom_exponent(3, 1 << MAX_EXPONENT_BITS, 5),
                     lambda: legendre_exponent(3, 1 << MAX_EXPONENT_BITS)):
            start = time.perf_counter()
            with pytest.raises(OutOfRangeError, match="bit length of n"):
                call()
            assert time.perf_counter() - start < 0.05

    def test_largest_n_accepted(self):
        n = (1 << MAX_EXPONENT_BITS) - 1
        # n = 2^4096 - 1 is all ones in base 2, so no carry adds k and n - k
        assert binom_exponent(2, n, n // 3) == 0
        assert legendre_exponent(2, n) == n - MAX_EXPONENT_BITS
        # C(n, 1) = n = 4^2048 - 1, which 3 divides exactly once
        assert n % 3 == 0 and n % 9 != 0
        assert binom_exponent(3, n, 1) == 1


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


class TestGroupedLevel1:
    """`_grouped_level1` runs the level-1 carry once per block of constant
    floors; at every n it can be called on, including n below
    `_GROUPED_FROM` where the oracle itself runs the per-prime test, it
    must equal the reference loop's level-1 flags."""

    @staticmethod
    def _check(table, n, k):
        got = _grouped_level1(table, n, k)
        want = _reference_flags(table, n, k)[2]
        assert got.dtype == bool and np.array_equal(got, want), (n, k)

    @staticmethod
    def _edge_ks(n, rng):
        return sorted(k for k in {0, 1, n - 1, n, n // 2, rng.randint(0, n)} if k >= 0)

    def test_every_pair_up_to_300(self, table_small):
        for n in range(1, 301):
            for k in range(n + 1):
                self._check(table_small, n, k)

    def test_seeded_pairs_to_ten_million(self, table_large):
        rng = random.Random(1852)
        for _ in range(200):
            n = int(10 ** rng.uniform(2, 7))
            self._check(table_large, n, rng.randint(0, n))

    def test_around_the_crossover(self, table_medium):
        rng = random.Random(_GROUPED_FROM)
        for n in (_GROUPED_FROM - 1, _GROUPED_FROM, _GROUPED_FROM + 1):
            for k in self._edge_ks(n, rng):
                self._check(table_medium, n, k)
                got = _binom_divisor_flags(table_medium, n, k)
                for g, w in zip(got, _reference_flags(table_medium, n, k)):
                    assert np.array_equal(g, w), (n, k)

    @pytest.mark.parametrize("s", [2, 3, 17, 256, 1000, 3161])
    def test_quotient_head_tail_boundary(self, table_large, s):
        # isqrt(n) changes at s^2; floor(n/(r+1)) reaches r at s(s+1)
        rng = random.Random(s)
        for n in (s * s - 1, s * s, s * s + 1, s * (s + 1) - 1, s * (s + 1),
                  s * (s + 1) + 1):
            for k in self._edge_ks(n, rng):
                self._check(table_large, n, k)

    def test_at_the_table_limit(self, table_small, table_medium, table_large):
        rng = random.Random(3)
        for table in (table_small, table_medium, table_large):
            n = table.limit
            for k in self._edge_ks(n, rng):
                self._check(table, n, k)


class TestPowerLadder:
    """`_powers_up_to(bases, n)` gives (index into ``bases``, exponent,
    power) for every b^e <= n with e >= 2, ascending in power and equal
    powers by exponent (16 = 4^2 before 2^4); checked against powers
    formed from Python ints, over the integers 2..isqrt(n) and over the
    primes among them."""

    @staticmethod
    def _check(n):
        ints = list(range(2, math.isqrt(n) + 1))
        for bases in (ints, [b for b in ints if _is_prime_int(b)]):
            want = []
            for at, b in enumerate(bases):
                e, q = 2, b * b
                while q <= n:
                    want.append([at, e, q])
                    e, q = e + 1, q * b
            want.sort(key=lambda t: (t[2], t[1]))
            got = _powers_up_to(np.array(bases, dtype=np.int64), n)
            assert all(a.dtype == np.int64 for a in got)
            assert np.stack(got).T.tolist() == want, n

    def test_every_n_up_to_300(self):
        for n in range(1, 301):
            self._check(n)

    @pytest.mark.parametrize("n", [2**27 - 1, 2**27, 2**27 + 1,
                                   3**17 - 1, 3**17, 3**17 + 1,
                                   14142**2 - 1, 14142**2, 14142**2 + 1,
                                   MAX_LIMIT])
    def test_exact_power_edges(self, n):
        self._check(n)


class TestPrimePowerTable:
    """A table forms the powers of its primes <= sqrt(limit) up to its
    limit, each base given by its index among the primes;
    `PrimeTable.prime_powers_up_to(n)` is their prefix holding every
    p^i <= n."""

    def test_higher_powers_by_brute_force(self, table_small, table_medium,
                                          table_large):
        for table in (PrimeTable(2), PrimeTable(3), PrimeTable(4), table_small,
                      table_medium, table_large):
            limit = table.limit
            primes = np.flatnonzero(reference_sieve(math.isqrt(limit))).tolist()
            want = sorted((p ** e, at) for at, p in enumerate(primes)
                          for e in range(2, limit.bit_length()) if p ** e <= limit)
            assert table.higher_powers.dtype == table.higher_base_index.dtype == np.int64
            assert [*zip(table.higher_powers.tolist(),
                         table.higher_base_index.tolist())] == want, limit
        assert table_large.higher_base_index.size == 555

    @staticmethod
    def _check(table, n):
        primes = np.flatnonzero(reference_sieve(max(n, 1))).tolist()
        want = sorted((p ** e, i) for i, p in enumerate(primes)
                      for e in range(2, n.bit_length()) if p ** e <= n)
        at, q = table.prime_powers_up_to(n)
        assert [*zip(q.tolist(), at.tolist())] == want, n

    def test_every_n_up_to_300(self, table_small):
        for n in range(0, 301):
            self._check(table_small, n)

    @pytest.mark.parametrize("n", [2**13 - 1, 2**13, 3**8 - 1, 3**8,
                                   97**2 - 1, 97**2, 97**2 + 1, 20_000])
    def test_exact_power_edges(self, table_small, n):
        assert table_small.limit == 20_000
        self._check(table_small, n)

    def test_read_only(self, table_small):
        for arr in (table_small.higher_base_index, table_small.higher_powers,
                    *table_small.prime_powers_up_to(1000)):
            with pytest.raises(ValueError):
                arr[0] = 5

    def test_refuses_past_the_budget(self, table_small):
        # the table's limit is the reach of its prime powers
        with pytest.raises(OutOfRangeError):
            table_small.prime_powers_up_to(table_small.limit + 1)


class TestIntegerRoot:
    @given(st.integers(0, 10**12), st.integers(1, 6))
    @settings(max_examples=300, deadline=None)
    def test_floor_property(self, x, i):
        r = integer_root(x, i)
        assert r**i <= x < (r + 1) ** i

    def test_beyond_float_range(self):
        assert integer_root((10**100 + 7) ** 3, 3) == 10**100 + 7
        assert integer_root(2**2000, 5) == 2**400

    @pytest.mark.parametrize("x", [0, 1, 2, 3, 5, 7, 8, 255, 256, 10**12, 2**64 - 1, 2**64,
                                   3**200])
    def test_exponent_at_and_past_the_bit_length(self, x):
        # from i = x.bit_length() on, 2^i > x and the root is min(x, 1),
        # found without the Newton start 2^(i-1), which at i = 10^18 would
        # be an int of 10^18 bits
        b = x.bit_length()
        for i in (b - 1, b, b + 1):
            if i >= 1:
                r = integer_root(x, i)
                assert r**i <= x < (r + 1) ** i, (x, i)
        assert integer_root(x, 10**18) == min(x, 1)

    @pytest.mark.parametrize("x, i", [(10.5, 3), (10.5, 2), (10.0, 1), (10, 2.0),
                                      ("10", 2), (10, 0), (10, -1), (-1, 2)])
    def test_refuses_bad_input(self, x, i):
        with pytest.raises(DomainError):
            integer_root(x, i)

    def test_bit_length_budget(self):
        # x < 2^MAX_ROOT_BITS: the Newton steps cost more than linearly in
        # x's bit length (15-44 s at 1.6M bits when it was accepted)
        x = (1 << MAX_ROOT_BITS) - 1
        assert integer_root(x, 2) == (1 << MAX_ROOT_BITS // 2) - 1
        assert integer_root(x, MAX_ROOT_BITS) == 1
        for i in (1, 2, 3, 1000):
            start = time.perf_counter()
            with pytest.raises(OutOfRangeError, match=(
                    f"need bit length of x <= {MAX_ROOT_BITS}, got {MAX_ROOT_BITS + 1}$")):
                integer_root(x + 1, i)
            assert time.perf_counter() - start < 0.05

    def test_accepts_numpy_integers(self):
        for i in (1, 2, 3):
            r = integer_root(np.int64(1000), np.int64(i))
            assert type(r) is int and r == [1000, 31, 10][i - 1]

    @pytest.mark.parametrize("r", [2, 3, 12_345, 2**26 - 1, 2**26, 2**26 + 1,
                                   10**17 + 3, 2**400, 10**100 + 7])
    @pytest.mark.parametrize("i", [3, 4, 5, 7, 11])
    def test_power_boundaries(self, r, i):
        p = r**i
        assert integer_root(p - 1, i) == r - 1
        assert integer_root(p, i) == r
        assert integer_root(p + 1, i) == r
