import hashlib
import math
import random
import tracemalloc
from itertools import combinations_with_replacement

import numpy as np
import pytest

from binomfactor import (MAX_LIMIT, PI_BOUNDS_SPEC, DomainError,
                         FactorialRatioSpec, OutOfRangeError,
                         alternating_pi_sum, bertrand_check,
                         coefficient_sequence, factorial_ratio_report,
                         log_factorial_prefix, omega_binom_oracle,
                         omega_identity_report, omega_pi_series,
                         reconstruct_series_value)
from binomfactor.chebyshev import PSI_RATIO_SPEC
from binomfactor.decomposition import level_prime_count
from binomfactor.identities import _psi_series_one, _quotient_sum


def gather(pp, x):
    """pp[x // j] for every j <= x/2; later terms have argument < 2."""
    return pp[x // np.arange(1, x // 2 + 1, dtype=np.int64)]


def weighted_sum(vals, coef):
    """sum of coef[(j - 1) % P] * vals[j - 1], one residue class at a time."""
    return sum(c * int(vals[r::len(coef)].sum()) for r, c in enumerate(coef))


def gather_sum(pp, x, coef=(1,)):
    """The O(x) reference for `_quotient_sum`."""
    return weighted_sum(gather(pp, x), coef)


COEFFICIENT_SETS = ((1,), (1, -1), coefficient_sequence(PI_BOUNDS_SPEC).values)


class TestQuotientSum:
    def test_every_small_x(self, table_small):
        pp = table_small.pi_prefix
        for coef in COEFFICIENT_SETS:
            for x in range(0, 5001):
                assert _quotient_sum(pp, x, coef) == gather_sum(pp, x, coef), (x, coef)

    def test_seeded_x_to_ten_million(self, table_large):
        pp = table_large.pi_prefix
        rng = random.Random(20071009)
        for x in (rng.randint(2, 10_000_000) for _ in range(200)):
            vals = gather(pp, x)
            for coef in COEFFICIENT_SETS:
                assert _quotient_sum(pp, x, coef) == weighted_sum(vals, coef), (x, coef)

    def test_callers_match_gather(self, table_medium):
        pp = table_medium.pi_prefix
        seq = coefficient_sequence(PI_BOUNDS_SPEC)
        for x in (2, 3, 97, 1000, 65_536, 999_983):
            assert alternating_pi_sum(x, table_medium)[0] == gather_sum(pp, x, (1, -1))
            assert reconstruct_series_value(seq, x, table_medium) == gather_sum(
                pp, x, seq.values)
        for n, m, k in [(2, 1, 1), (3, 1, 17), (5, 2, 1000), (10, 3, 99_991)]:
            assert omega_pi_series(n, m, k, table_medium) == (
                gather_sum(pp, n * k) - gather_sum(pp, (n - m) * k)
                - gather_sum(pp, m * k))


class TestOmegaPiSeries:
    def test_equal_pair_is_zero(self, table_small):
        for k in (1, 7, 50, 500):
            assert omega_pi_series(1, 1, k, table_small) == 0

    def test_matches_alternating_form_for_central(self, table_medium):
        # sum_j [pi(2k/j) - 2 pi(k/j)] regroups to sum_i (-1)^(i+1) pi(2k/i)
        for k in (10, 100, 1000, 10_000):
            direct = omega_pi_series(2, 1, k, table_medium)
            alt, _ = alternating_pi_sum(2 * k, table_medium)
            assert direct == alt

    def test_tracks_oracle_up_to_residual(self, table_medium):
        w, _ = omega_binom_oracle(table_medium, 1800, 600)
        rhs = omega_pi_series(3, 1, 600, table_medium)
        assert 0 <= w - rhs <= 5 * math.isqrt(600)

    def test_out_of_range(self, table_small):
        with pytest.raises(OutOfRangeError):
            omega_pi_series(3, 1, 10_000, table_small)

    def test_bad_pair(self, table_small):
        with pytest.raises(DomainError):
            omega_pi_series(1, 2, 10, table_small)


class TestGroupedForm:
    def test_counts_level_one_primes(self, table_small):
        # the grouped series counts exactly the primes inside the level-1
        # intervals, here recomputed by scanning primality directly
        from binomfactor.decomposition import integer_membership_mask
        for n, m, k in [(2, 1, 8), (3, 1, 20), (5, 2, 30), (6, 1, 11)]:
            grouped = level_prime_count(table_small, n * k, m * k)
            mask = integer_membership_mask(n * k, m * k, level=1)
            direct = int(mask[table_small.primes_up_to(n * k)].sum())
            assert grouped == direct

    def test_equals_ungrouped_series(self, table_medium):
        # the regrouping drops only terms whose pi argument is < 2, so the
        # two forms agree exactly, for every pair on a k-grid
        for n, m in [(2, 1), (3, 1), (4, 1), (6, 1), (5, 2), (7, 3)]:
            for k in (1, 2, 10, 100, 1000):
                assert (omega_pi_series(n, m, k, table_medium)
                        == level_prime_count(table_medium, n * k, m * k)), (n, m, k)

    def test_equal_pair_zero(self, table_small):
        assert level_prime_count(table_small, 50, 50) == 0


#: omega_identity_report rows, recorded before the pi series were grouped
#: by quotient: (n, m, k, lhs, rhs, residual, normalized_residual,
#: grouped_rhs, deep_level_primes, regroup_correction)
GOLDEN_OMEGA_ROWS = (
    (2, 1, 1, 1, 1, 0, 0.0, 1, 0, 0),
    (2, 1, 7, 4, 3, 1, 0.3779644730092272, 3, 1, 0),
    (2, 1, 1000, 208, 202, 6, 0.18973665961010278, 202, 6, 0),
    (2, 1, 99991, 12224, 12193, 31, 0.098035019140346, 12193, 31, 0),
    (3, 1, 1, 1, 1, 0, 0.0, 1, 0, 0),
    (3, 1, 7, 5, 4, 1, 0.3779644730092272, 4, 1, 0),
    (3, 1, 1000, 270, 266, 4, 0.12649110640673517, 266, 4, 0),
    (3, 1, 99991, 16339, 16313, 26, 0.08222291927899987, 16313, 26, 0),
    (5, 2, 1, 2, 1, 1, 1.0, 1, 1, 0),
    (5, 2, 7, 8, 6, 2, 0.7559289460184544, 6, 2, 0),
    (5, 2, 1000, 442, 438, 4, 0.12649110640673517, 438, 4, 0),
    (5, 2, 99991, 27474, 27432, 42, 0.13282163883530748, 27432, 42, 0),
    (10, 3, 1, 3, 2, 1, 1.0, 2, 1, 0),
    (10, 3, 7, 13, 12, 1, 0.3779644730092272, 12, 1, 0),
    (10, 3, 1000, 742, 737, 5, 0.15811388300841897, 737, 5, 0),
    (10, 3, 99991, 47438, 47386, 52, 0.16444583855799974, 47386, 52, 0),
)


class TestOmegaIdentityReport:
    def test_golden_rows(self, table_medium):
        for n, m, k, lhs, rhs, res, nres, grouped, deep, regroup in GOLDEN_OMEGA_ROWS:
            assert omega_identity_report(n, m, k, table_medium).to_row() == {
                "identity_id": "omega_pi",
                "params": {"n": n, "m": m, "k": k},
                "lhs": lhs,
                "rhs": rhs,
                "residual": res,
                "normalized_residual": nres,
                "normalization": "residual/sqrt(k)",
                "grouped_rhs": grouped,
                "deep_level_primes": deep,
                "regroup_correction": regroup,
            }

    def test_worked_value(self, table_small):
        # omega(C(16, 8)) = omega(12870 = 2 * 3^2 * 5 * 11 * 13) = 5
        rep = omega_identity_report(2, 1, 8, table_small)
        assert rep.lhs == 5
        assert math.comb(16, 8) == 12870

    def test_zero_residual_for_equal_pair(self, table_small):
        rep = omega_identity_report(1, 1, 50, table_small)
        assert rep.lhs == rep.rhs == 0 and rep.residual == 0

    def test_residual_accounting_exact(self, table_medium):
        for n, m in [(2, 1), (3, 1), (4, 1), (6, 1), (5, 2)]:
            for k in (100, 1000, 10_000):
                rep = omega_identity_report(n, m, k, table_medium)
                assert rep.residual == (rep.details["deep_level_primes"]
                                        - rep.details["regroup_correction"])
                assert rep.details["regroup_correction"] == 0

    def test_residual_is_deep_prime_count(self, table_small):
        # every deep-level prime is at most sqrt(nk)
        rep = omega_identity_report(2, 1, 100, table_small)
        deep = rep.details["deep_level_primes"]
        assert rep.residual == deep
        assert deep <= table_small.pi(math.isqrt(200))

    def test_normalization_label(self, table_small):
        rep = omega_identity_report(2, 1, 64, table_small)
        assert rep.normalization == "residual/sqrt(k)"
        assert rep.normalized_residual == rep.residual / 8.0

    def test_broken_accounting_raises(self, table_small, monkeypatch):
        # the residual check is an explicit raise, so it also runs under -O
        import binomfactor.identities as identities
        real = identities.level_prime_count
        monkeypatch.setattr(identities, "level_prime_count",
                            lambda *args: real(*args) + 1)
        with pytest.raises(RuntimeError, match="residual"):
            omega_identity_report(2, 1, 100, table_small)


def _partitions(total, max_part):
    """All nonincreasing tuples of positive ints with the given sum."""
    out = []

    def rec(rest, cap, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for v in range(min(cap, rest), 0, -1):
            rec(rest - v, v, acc + [v])

    rec(total, max_part, [])
    return out


class TestFactorialRatio:
    def test_balance_validated(self):
        with pytest.raises(DomainError):
            FactorialRatioSpec((2,), (1, 2))

    def test_trivial_spec_all_zero(self, table_small):
        rep = factorial_ratio_report(FactorialRatioSpec((1,), (1,)), 10, table_small)
        assert rep.lhs == 0.0 and rep.rhs == 0.0
        assert rep.details["asymptotic_rhs"] == 0.0

    def test_central_binomial_value(self, table_small):
        rep = factorial_ratio_report(FactorialRatioSpec((2,), (1, 1)), 10, table_small)
        assert rep.lhs == pytest.approx(math.log(math.comb(20, 10)), rel=1e-12)
        assert rep.lhs == pytest.approx(math.log(184756), rel=1e-12)
        assert abs(rep.residual) <= 1e-9 * abs(rep.lhs)

    def test_exactness_across_partition_pairs(self, table_medium):
        # every balanced spec with multipliers summing to <= 6
        for total in range(2, 7):
            parts = _partitions(total, 6)
            for nparts, mparts in combinations_with_replacement(parts, 2):
                spec = FactorialRatioSpec(nparts, mparts)
                for k in (1, 10, 1000, 10_000):
                    rep = factorial_ratio_report(spec, k, table_medium)
                    assert abs(rep.residual) <= 1e-9 * max(abs(rep.lhs), 1.0), (spec, k)

    def test_classical_psi_spec(self, table_medium):
        spec = FactorialRatioSpec((30, 1), (15, 10, 6))
        for k in (1, 7, 100, 10_000):
            rep = factorial_ratio_report(spec, k, table_medium)
            assert abs(rep.residual) <= 1e-9 * max(abs(rep.lhs), 1.0)

    def test_growth_residual_logarithmic(self, table_medium):
        spec = FactorialRatioSpec((2,), (1, 1))
        resid = {}
        for k in (10, 100, 1000, 10_000):
            rep = factorial_ratio_report(spec, k, table_medium)
            assert rep.details["asymptotic_rhs"] == pytest.approx(
                k * 2 * math.log(2), rel=1e-15)
            resid[k] = abs(rep.details["asymptotic_residual"])
            assert resid[k] <= 20 * math.log(k)
        # the residual grows like (1/2) log k, far below the 20 log k cap
        assert resid[10_000] <= 6

    def test_log_factorial_prefix_exact(self):
        lf = log_factorial_prefix(30)
        assert lf[0] == 0.0 and lf[1] == 0.0
        assert lf[5] == pytest.approx(math.log(120), rel=1e-15)
        assert lf[30] == pytest.approx(math.log(math.factorial(30)), rel=1e-14)

    @pytest.mark.parametrize("chunk", [None, 4099])
    def test_log_factorial_prefix_golden(self, chunk, monkeypatch):
        # the digest of one unchunked cumsum over all entries; a small
        # chunk puts hundreds of chunk boundaries below 10^6
        import binomfactor.identities as identities
        if chunk is not None:
            monkeypatch.setattr(identities, "_CHUNK", chunk)
            monkeypatch.setattr(identities, "_LOGFACT", np.zeros(0))
        lf = log_factorial_prefix(10**6)
        assert hashlib.sha256(lf.tobytes()).hexdigest() == (
            "a75b3643cd90be8f672209dcbbb881e7d1ae52f39a41f491bc6c8f83ee3dc480")

    def test_log_factorial_prefix_read_only(self):
        lf = log_factorial_prefix(40)
        with pytest.raises(ValueError):
            lf[3] = 0.0
        assert lf[3] == pytest.approx(math.log(6), rel=1e-15)

    def test_log_factorial_prefix_budget(self):
        # refused before anything limit-sized is allocated
        with pytest.raises(DomainError):
            log_factorial_prefix(-1)
        tracemalloc.start()
        try:
            with pytest.raises(OutOfRangeError):
                log_factorial_prefix(MAX_LIMIT + 1)
            with pytest.raises(OutOfRangeError):
                PSI_RATIO_SPEC.log_ratio(10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        with pytest.raises(DomainError):
            PSI_RATIO_SPEC.log_ratio(-1)
        assert PSI_RATIO_SPEC.log_ratio(0) == 0.0

    def test_log_factorial_prefix_growth_keeps_prefix(self, monkeypatch):
        # start from an empty cache so both calls build, the second larger
        import binomfactor.identities as identities
        monkeypatch.setattr(identities, "_LOGFACT", np.zeros(0))
        small = log_factorial_prefix(1000)
        grown = log_factorial_prefix(6000)
        assert len(identities._LOGFACT) == 6001
        assert not grown.flags.writeable
        assert grown[:1001].tobytes() == small.tobytes()


def psi_gather_sum(table, c):
    """The O(c) reference for `_psi_series_one`: one gather per i."""
    i = np.arange(1, c // 2 + 1, dtype=np.int64)
    return np.sum(table.psi_prefix[c // i], dtype=np.longdouble)


class TestPsiSeriesRuns:
    """`_psi_series_one` gathers psi once per distinct quotient and expands
    the runs; its extended-precision sum must equal the gather over every
    i to the bit."""

    def test_every_small_c(self, table_small):
        for c in range(3000):
            assert _psi_series_one(table_small, c).tobytes() == (
                psi_gather_sum(table_small, c).tobytes()), c

    def test_square_and_pronic_edges(self, table_medium):
        # r^2 and r(r+1) are where isqrt and the first tail quotient step
        for r in list(range(2, 200)) + [316, 500, 707, 999]:
            for c in (r * r, r * (r + 1)):
                for e in (-1, 0, 1):
                    assert _psi_series_one(table_medium, c + e).tobytes() == (
                        psi_gather_sum(table_medium, c + e).tobytes()), c + e

    def test_seeded_c_to_ten_million(self, table_large):
        rng = random.Random(3300)
        for c in [rng.randint(2, 10**7) for _ in range(300)] + [10**7]:
            assert _psi_series_one(table_large, c).tobytes() == (
                psi_gather_sum(table_large, c).tobytes()), c

    def test_transient_memory_bounded(self, table_large):
        # the gather over every i peaked at ~114 MiB here; the first call
        # grows the log-factorial cache, which is held, not transient
        factorial_ratio_report(PSI_RATIO_SPEC, 333333, table_large)
        tracemalloc.start()
        try:
            factorial_ratio_report(PSI_RATIO_SPEC, 333333, table_large)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20


class TestAlternatingPiSum:
    def test_small_value(self, table_small):
        s, _ = alternating_pi_sum(10, table_small)
        # pi(10) - pi(5) + pi(10/3) - pi(10/4) + pi(2) = 4 - 3 + 2 - 1 + 1
        assert s == 3

    def test_below_two_empty(self, table_small):
        assert alternating_pi_sum(1, table_small) == (0, 0.0)
        assert alternating_pi_sum(1.9, table_small) == (0, 0.0)

    def test_non_integral_argument(self, table_small):
        s_int, _ = alternating_pi_sum(10, table_small)
        s_frac, _ = alternating_pi_sum(10.5, table_small)
        # pi(10.5/i) floors identically to pi(10/i) for every i
        assert s_frac == s_int

    def test_partial_sums_bracket(self, table_medium):
        # pi is monotone, so even/odd truncations bracket the full sum
        x = 100_000
        full, _ = alternating_pi_sum(x, table_medium)
        partial_odd = sum((-1) ** (i + 1) * table_medium.pi(x // i) for i in range(1, 8))
        partial_even = sum((-1) ** (i + 1) * table_medium.pi(x // i) for i in range(1, 9))
        assert partial_even <= full <= partial_odd

    def test_ratio_approaches_log2(self, table_medium):
        _, ratio = alternating_pi_sum(1_000_000, table_medium)
        assert abs(ratio - math.log(2)) < 0.05


class TestBertrand:
    def test_tiny_cases(self, table_small):
        assert bertrand_check(1, table_small) is None
        assert bertrand_check(4, table_small) is None

    def test_moderate_sweep(self, table_medium):
        assert bertrand_check(500_000, table_medium) is None

    def test_out_of_range(self, table_small):
        with pytest.raises(OutOfRangeError):
            bertrand_check(100_000, table_small)
