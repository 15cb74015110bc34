import hashlib
import math
import random
import sys
import threading
import tracemalloc
from itertools import combinations_with_replacement

import numpy as np
import pytest

from binomfactor import (MAX_LIMIT, PI_BOUNDS_SPEC, DomainError,
                         FactorialRatioSpec, OutOfRangeError, PrimeTable,
                         alternating_pi_sum, bertrand_check,
                         coefficient_sequence, factorial_ratio_report,
                         log_factorial, log_factorial_prefix,
                         omega_binom_oracle,
                         omega_identity_report, omega_pi_series,
                         reconstruct_series_value)
from binomfactor import identities
from binomfactor.chebyshev import PSI_RATIO_SPEC
from binomfactor.decomposition import level_prime_count
from binomfactor.identities import (_PSI_BLOCK, _PSI_LEAF, _psi_series_one,
                                   _quotient_sum)
from binomfactor.primes import _GROUPED_FROM, _pi_levels, _quotients
from conftest import dense_log_factorial, dense_psi, reference_sieve


def gather(pp, x):
    """pp[x // j] for every j <= x/2; later terms have argument < 2."""
    return pp[x // np.arange(1, x // 2 + 1, dtype=np.int64)]


def dense_pi(table):
    """pi at every integer of the table, read by `pi_at` into one array."""
    return table.pi_at(np.arange(table.limit + 1, dtype=np.int32))


def weighted_sum(vals, coef):
    """sum of coef[(j - 1) % P] * vals[j - 1], one residue class at a time."""
    return sum(c * int(vals[r::len(coef)].sum()) for r, c in enumerate(coef))


def gather_sum(pp, x, coef=(1,)):
    """The O(x) reference for `_quotient_sum`."""
    return weighted_sum(gather(pp, x), coef)


COEFFICIENT_SETS = ((1,), (1, -1), coefficient_sequence(PI_BOUNDS_SPEC).values)


class TestQuotientSum:
    def test_every_small_x(self, table_small):
        pp = dense_pi(table_small)
        for coef in COEFFICIENT_SETS:
            for x in range(0, 5001):
                assert _quotient_sum(table_small, x, coef) == gather_sum(pp, x, coef), (
                    x, coef)

    def test_seeded_x_to_ten_million(self, table_large):
        pp = dense_pi(table_large)
        rng = random.Random(20071009)
        for x in (rng.randint(2, 10_000_000) for _ in range(200)):
            vals = gather(pp, x)
            for coef in COEFFICIENT_SETS:
                assert _quotient_sum(table_large, x, coef) == weighted_sum(vals, coef), (
                    x, coef)

    def test_callers_match_gather(self, table_medium):
        pp = dense_pi(table_medium)
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
        with pytest.raises(OutOfRangeError):
            omega_pi_series(2, 1, 10**20, table_small)

    def test_bad_pair(self, table_small):
        with pytest.raises(DomainError):
            omega_pi_series(1, 2, 10, table_small)


class TestGroupedForm:
    def test_counts_level_one_primes(self, table_small):
        # the grouped series counts exactly the primes inside the level-1
        # intervals, here found one by one among the cell edges
        from binomfactor.decomposition import _cell_edges, _covered
        for n, m, k in [(2, 1, 8), (3, 1, 20), (5, 2, 30), (6, 1, 11)]:
            grouped = level_prime_count(table_small, n * k, m * k)
            primes = table_small.primes_up_to(n * k)
            direct = int(_covered(_cell_edges(n * k, m * k), primes).sum())
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

    def test_equal_pair_past_the_grouped_crossover(self, table_medium):
        # n - k = 0 there, so the grouped oracle must drop the 0 quotients
        # before it divides by them
        for n, k in ((1, _GROUPED_FROM + 1), (3, 100_003)):
            assert n * k > _GROUPED_FROM
            rep = omega_identity_report(n, n, k, table_medium)
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


def fresh_checkpoints(monkeypatch):
    """Reset the checkpoint cache to its import state, log(0!) alone, so
    the next call builds."""
    start = np.zeros(1, dtype=np.longdouble)
    start.setflags(write=False)
    monkeypatch.setattr(identities, "_LOGFACT", start)


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

    def test_log_ratio_matches_dense_oracle(self):
        # the five reads of one call, fsummed as from the dense prefix
        spec = PSI_RATIO_SPEC
        lf = dense_log_factorial(10**7)
        for k in (1, 2, 31, 32, 33, 12345, 10**7 // 30):
            want = math.fsum([float(lf[v * k]) for v in spec.numerator_multipliers]
                             + [-float(lf[v * k]) for v in spec.denominator_multipliers])
            assert spec.log_ratio(k) == want, k

    # `log_factorial` reads log(x!) from the checkpoints log((jB)!) of
    # `log_factorial_prefix`, bit for bit the dense prefix of the oracle

    def test_log_factorial_prefix_exact(self):
        assert log_factorial(0) == 0.0 and log_factorial(1) == 0.0
        assert type(log_factorial(5)) is float
        assert log_factorial(5) == pytest.approx(math.log(120), rel=1e-15)
        assert log_factorial(30) == pytest.approx(math.log(math.factorial(30)), rel=1e-14)
        assert float(log_factorial_prefix(100)[2]) == log_factorial(2 * identities._STEP)

    @pytest.mark.parametrize("chunk", [None, 4099])
    def test_log_factorial_prefix_golden(self, chunk, monkeypatch):
        # the digest of one unchunked cumsum over all entries; a small
        # chunk puts hundreds of chunk boundaries below 10^6
        if chunk is not None:
            monkeypatch.setattr(identities, "_LOG_CHUNK", chunk)
            fresh_checkpoints(monkeypatch)
        lf = log_factorial(np.arange(10**6 + 1))
        assert hashlib.sha256(lf.tobytes()).hexdigest() == (
            "a75b3643cd90be8f672209dcbbb881e7d1ae52f39a41f491bc6c8f83ee3dc480")

    def test_log_factorial_matches_dense_oracle(self):
        """Seeded x <= 10^7, both sides of every checkpoint jB and of the
        build's chunk edges, and x = 0 and 1, as one array and one by one."""
        limit, step = 10**7, identities._STEP
        rng = np.random.default_rng(20231)
        marks = np.arange(0, limit + 1, step)
        edges = np.arange(1, limit + 1, identities._LOG_CHUNK)
        x = np.concatenate([[0, 1, limit], rng.integers(0, limit + 1, 20_000),
                            marks - 1, marks, marks + 1, edges - 1, edges, edges + 1])
        x = x[(x >= 0) & (x <= limit)]
        want = dense_log_factorial(limit)[x]
        assert log_factorial(x).tobytes() == want.tobytes()
        assert log_factorial(x[:4000].reshape(20, 200)).tobytes() == want[:4000].tobytes()
        some = rng.choice(x, 300).tolist()
        assert [log_factorial(v) for v in some] == dense_log_factorial(limit)[some].tolist()

    def test_log_factorial_dtypes_and_shapes(self):
        want = [log_factorial(v) for v in range(8)]
        for dtype in (np.int8, np.int32, np.uint16, np.uint64):
            assert log_factorial(np.arange(8, dtype=dtype)).tolist() == want
        assert log_factorial([3, 4]).tolist() == want[3:5]
        assert log_factorial(np.int64(7)) == want[7]
        assert log_factorial(np.array(7)) == want[7]
        assert log_factorial(np.zeros((0, 3), dtype=np.int64)).shape == (0, 3)

    def test_log_factorial_prefix_read_only(self):
        marks = log_factorial_prefix(40 * identities._STEP)
        assert marks.dtype == np.longdouble and len(marks) == 41
        with pytest.raises(ValueError):
            marks[3] = 0.0
        with pytest.raises(ValueError):
            identities._LOGFACT[0] = 1.0
        assert log_factorial(3) == pytest.approx(math.log(6), rel=1e-15)

    def test_log_factorial_prefix_budget(self):
        # refused before anything limit-sized is allocated
        with pytest.raises(DomainError):
            log_factorial_prefix(-1)
        for bad in (-1, np.array([3, -1]), np.array([0.5]), np.array(["3"]), 3.0, "3", None):
            with pytest.raises(DomainError):
                log_factorial(bad)
        tracemalloc.start()
        try:
            with pytest.raises(OutOfRangeError):
                log_factorial_prefix(MAX_LIMIT + 1)
            with pytest.raises(OutOfRangeError):
                log_factorial(MAX_LIMIT + 1)
            with pytest.raises(OutOfRangeError):
                log_factorial(np.array([0, MAX_LIMIT + 1]))
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
        # start from the import state so both calls build, the second
        # larger, continuing the running sum from the last checkpoint
        step = identities._STEP
        fresh_checkpoints(monkeypatch)
        small = log_factorial_prefix(1000)
        grown = log_factorial_prefix(6000)
        assert len(identities._LOGFACT) == 6000 // step + 1 == len(grown)
        assert not grown.flags.writeable
        assert np.array_equal(grown[:len(small)], small)
        fresh_checkpoints(monkeypatch)
        assert np.array_equal(log_factorial_prefix(6000), grown)
        assert float(log_factorial_prefix(6000)[-1]) == dense_log_factorial(6000)[6000 // step * step]

    @pytest.mark.parametrize("outer,inner", [(1000, 6000), (6000, 1000)])
    def test_log_factorial_prefix_build_inside_a_build(self, monkeypatch, outer, inner):
        # a second build starts inside the first one's first cumsum, as a
        # second thread could, from the same snapshot of the cache: the
        # cache keeps the longer build whichever installs last, and each
        # call returns its own full length
        step = identities._STEP
        fresh_checkpoints(monkeypatch)
        nested = []

        class Numpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def cumsum(self, *args, **kwargs):
                if not nested:
                    nested.append(None)  # before the call, which re-enters here
                    nested[0] = log_factorial_prefix(inner)
                return np.cumsum(*args, **kwargs)

        monkeypatch.setattr(identities, "np", Numpy())
        marks = log_factorial_prefix(outer)
        assert len(marks) == outer // step + 1
        assert len(nested[0]) == inner // step + 1
        longer, shorter = sorted((marks, nested[0]), key=len, reverse=True)
        assert np.array_equal(identities._LOGFACT, longer)
        assert np.array_equal(longer[:len(shorter)], shorter)
        assert float(longer[-1]) == dense_log_factorial(6000)[6000 // step * step]

    def test_log_factorial_prefix_threads(self, monkeypatch):
        # four threads on two cores race their builds with a short switch
        # interval: every call returns its full length, and the cache ends
        # as long as the longest
        step = identities._STEP
        fresh_checkpoints(monkeypatch)
        limits = [10**5 * (1 + i % 7) for i in range(28)]
        got, errors = [], []

        def work(chunk):
            try:
                got.extend((limit, len(log_factorial_prefix(limit))) for limit in chunk)
            except Exception as exc:  # reported below, as a thread would hide it
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(limits[i::4],)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        assert sorted(got) == sorted((limit, limit // step + 1) for limit in limits)
        assert len(identities._LOGFACT) == 7 * 10**5 // step + 1

    def test_log_factorial_prefix_memory(self, monkeypatch):
        """The warm-up at 10^7 holds 16 bytes per checkpoint, one per B
        integers (a dense float64 prefix held 80 MB), and its build peak
        stays within the checkpoints and two `_LOG_CHUNK`-wide chunks of
        extended-precision logs (2^20-wide chunks peaked at 21.8 MB)."""
        fresh_checkpoints(monkeypatch)
        limit, chunk = 10**7, identities._LOG_CHUNK
        held = 16 * (limit // identities._STEP + 1)
        tracemalloc.start()
        try:
            log_factorial_prefix(limit)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert identities._LOGFACT.nbytes <= held
        assert current <= held + 2**16
        assert peak <= held + 2 * 16 * chunk


def same_value(a, b):
    """Two extended-precision numbers are equal, the sign of a zero too.
    Their padding bytes (6 of the 16 an x87 value takes) hold no part of
    the value, so `.tobytes()` would compare more than it."""
    return bool(a == b) and bool(np.signbit(a) == np.signbit(b))


def psi_gather_sum(table, c):
    """The O(c) reference for `_psi_series_one`: one gather per i from the
    dense psi oracle."""
    i = np.arange(1, c // 2 + 1, dtype=np.int64)
    return np.sum(dense_psi(table.limit)[c // i], dtype=np.longdouble)


class TestPsiSeriesRuns:
    """`_psi_series_one` gathers psi once per distinct quotient, writes a
    block of `_PSI_BLOCK` terms inside one run in closed form and expands
    the rest; its extended-precision sum must equal the gather over every
    i to the bit."""

    def test_every_small_c(self, table_small):
        for c in range(3000):
            assert same_value(_psi_series_one(table_small, c),
                psi_gather_sum(table_small, c)), c

    def test_square_and_pronic_edges(self, table_medium):
        # r^2 and r(r+1) are where isqrt and the first tail quotient step
        for r in list(range(2, 200)) + [316, 500, 707, 999]:
            for c in (r * r, r * (r + 1)):
                for e in (-1, 0, 1):
                    assert same_value(_psi_series_one(table_medium, c + e),
                        psi_gather_sum(table_medium, c + e)), c + e

    def test_seeded_c_to_ten_million(self, table_large):
        rng = random.Random(3300)
        for c in [rng.randint(2, 10**7) for _ in range(300)] + [10**7]:
            assert same_value(_psi_series_one(table_large, c),
                psi_gather_sum(table_large, c)), c

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

    def test_block_edges(self, table_large):
        # c // 2 terms on either side of j whole blocks, c even and odd
        B = _PSI_BLOCK
        for j in range(1, 65):
            for n in (j * B - 1, j * B, j * B + 1):
                for c in (2 * n, 2 * n + 1):
                    assert same_value(_psi_series_one(table_large, c),
                        psi_gather_sum(table_large, c)), c

    def test_run_ending_on_a_block_edge(self, table_large):
        # the i sharing quotient q end at floor(c/q); put that on j*B
        B = _PSI_BLOCK
        for q in (2, 3, 5, 7, 11, 36, 97, 400):
            for j in (1, 2, 3, 7):
                for c in (q * j * B, q * j * B + q - 1):
                    if c > table_large.limit:
                        continue
                    assert q in _quotients(c) and c // q == j * B
                    assert same_value(_psi_series_one(table_large, c),
                        psi_gather_sum(table_large, c)), (q, j, c)

    def test_whole_block_closed_form(self, table_medium):
        # B copies of a float64 v sum pairwise to exactly v * B
        B = _PSI_BLOCK
        rng = np.random.default_rng(2400)
        seeded = np.concatenate((rng.random(200) * 10.0 ** rng.integers(-3, 8, 200),
                                 [np.nextafter(1.0, 2.0), 2.0**53 - 1]))
        for v in seeded:
            assert np.sum(np.full(B, v, dtype=np.longdouble)) == np.longdouble(v) * B, v
        vals = table_medium.psi_values.astype(np.longdouble)
        for lo in range(0, vals.size, 64):
            v = vals[lo:lo + 64]
            rows = np.repeat(v, B).reshape(-1, B).sum(axis=1)
            assert np.array_equal(rows, v * B), lo

    def test_block_is_a_tree_of_leaves(self):
        # the leaf rule assumes numpy sums B terms as a perfect pairwise
        # tree over B/L leaves of L terms, each leaf one pairwise np.sum
        B, L = _PSI_BLOCK, _PSI_LEAF
        rng = np.random.default_rng(2700)
        for _ in range(50):
            block = (rng.random(B) * 10.0 ** rng.integers(-3, 8, B)).astype(np.longdouble)
            block += np.ldexp(rng.random(B).astype(np.longdouble), -60) * block
            tree = block.reshape(-1, L).sum(axis=1)
            while tree.size > 1:
                tree = tree[0::2] + tree[1::2]
            assert same_value(np.sum(block), tree[0]), (
                f"numpy's pairwise sum no longer makes {B} terms a perfect "
                f"tree of {B // L} leaves of {L} terms")

    def test_whole_leaf_closed_form(self, table_medium):
        # L copies of a float64 v sum pairwise to exactly v * L
        L = _PSI_LEAF
        why = f"numpy no longer sums {L} copies of a float64 v to exactly {L}*v"
        rng = np.random.default_rng(2701)
        seeded = np.concatenate((rng.random(200) * 10.0 ** rng.integers(-3, 8, 200),
                                 [np.nextafter(1.0, 2.0), 2.0**53 - 1]))
        for v in seeded:
            assert np.sum(np.full(L, v, dtype=np.longdouble)) == np.longdouble(v) * L, (v, why)
        vals = table_medium.psi_values.astype(np.longdouble)
        rows = np.repeat(vals, L).reshape(-1, L).sum(axis=1)
        assert np.array_equal(rows, vals * L), why

    def test_leaf_edges(self, table_large):
        # c // 2 terms on either side of j leaves, c even and odd, j not a
        # whole number of blocks: the short last block ends at a leaf edge
        L = _PSI_LEAF
        for j in list(range(65, 300, 3)) + [1001, 7777, 31249, 39061]:
            if j % (_PSI_BLOCK // L) == 0:
                continue
            for n in (j * L - 1, j * L, j * L + 1):
                for c in (2 * n, 2 * n + 1):
                    assert same_value(_psi_series_one(table_large, c),
                        psi_gather_sum(table_large, c)), c

    def test_run_ending_on_a_leaf_edge(self, table_large):
        # the i sharing quotient q end at floor(c/q); put that on a leaf
        # edge j*L inside a whole block, which then holds two runs
        B, L = _PSI_BLOCK, _PSI_LEAF
        for q in (3, 5, 7, 11, 36, 97, 400, 2000):
            for j in (65, 100, 130, 333, 1000, 3001):
                for c in (q * j * L, q * j * L + q - 1):
                    if c > table_large.limit or j * L >= c // 2 // B * B:
                        continue
                    assert q in _quotients(c) and c // q == j * L and j * L % B
                    assert same_value(_psi_series_one(table_large, c),
                        psi_gather_sum(table_large, c)), (q, j, c)

    def test_pure_leaves_two_runs(self, table_large):
        # a run ending on a leaf edge splits a block whose leaves each lie
        # inside one run: the block holds two runs, so it is not pure
        B, L = _PSI_BLOCK, _PSI_LEAF
        for q, j in ((3, 1000), (3, 1001), (4, 999), (5, 3001), (6, 4001), (8, 9001)):
            c = q * j * L
            q_all = _quotients(c)[:-1]
            ends = c // q_all
            lo = j * L // B * B
            assert lo + B <= c // 2
            runs = np.searchsorted(ends, np.arange(lo, lo + B), side="right")
            leaves = runs.reshape(-1, L)
            assert (leaves == leaves[:, :1]).all() and runs[0] != runs[-1], (q, j)
            assert same_value(_psi_series_one(table_large, c),
                psi_gather_sum(table_large, c)), (q, j, c)

    def test_independent_of_numpy_buffer_size(self, table_large):
        # np.sum over a cast float64 array reduces in chunks of
        # np.getbufsize(); the psi series must not read that setting
        cs = [100, 5000, 16384, 16385, 16386, 20000, 100003, 999999, 10**7]
        ks = [1000, 33333, 333333]
        before = [_psi_series_one(table_large, c) for c in cs]
        rhs = [factorial_ratio_report(PSI_RATIO_SPEC, k, table_large).rhs for k in ks]
        default = np.getbufsize()
        for size in (1024, 4096, 65536):
            np.setbufsize(size)
            try:
                assert all(same_value(_psi_series_one(table_large, c), v)
                           for c, v in zip(cs, before)), size
                assert [factorial_ratio_report(PSI_RATIO_SPEC, k, table_large).rhs.hex()
                        for k in ks] == [r.hex() for r in rhs], size
            finally:
                np.setbufsize(default)

    def test_block_sum_memory(self, table_large):
        # only the blocks where runs meet are expanded: ~9 MiB of
        # extended-precision terms at c = 10^7, against ~38 MiB for the
        # float64 expansion of every term and its cast
        factorial_ratio_report(PSI_RATIO_SPEC, 333333, table_large)
        tracemalloc.start()
        try:
            factorial_ratio_report(PSI_RATIO_SPEC, 333333, table_large)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_leaf_sum_memory(self, table_large):
        # only the leaves where runs meet are expanded, 16 bytes a term:
        # ~1.6 MiB at k = 333333, against ~8.7 MiB when each block where
        # runs meet was expanded whole
        factorial_ratio_report(PSI_RATIO_SPEC, 333333, table_large)
        tracemalloc.start()
        try:
            factorial_ratio_report(PSI_RATIO_SPEC, 333333, table_large)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


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

    @pytest.mark.parametrize("x", [20_001, 20_001.5, 1e300])
    def test_out_of_range(self, table_small, x):
        with pytest.raises(OutOfRangeError):
            alternating_pi_sum(x, table_small)


def dense_bertrand(limit, table):
    """The O(limit) reference for `bertrand_check`: pi(2n) > pi(n) read
    off the pi prefix at every n <= limit."""
    n = np.arange(1, limit + 1, dtype=np.int64)
    good = table.pi_at(2 * n) > table.pi_at(n)
    return None if good.all() else int(n[int(np.argmin(good))])


def stand_in_table(limit, dropped):
    """A `PrimeTable` over [0, limit] whose primes omit `dropped`, so that
    Bertrand's postulate can fail on it."""
    mask = reference_sieve(limit)
    mask[list(dropped)] = False
    table = object.__new__(PrimeTable)
    table.limit = limit
    table.primes = np.flatnonzero(mask).astype(np.int64)
    table.pi_base, table.pi_offset = _pi_levels(mask)
    return table


class TestBertrand:
    def test_tiny_cases(self, table_small):
        assert bertrand_check(1, table_small) is None
        assert bertrand_check(4, table_small) is None

    def test_matches_dense_form_at_every_small_limit(self, table_small):
        for limit in range(1, 5001):
            assert bertrand_check(limit, table_small) == dense_bertrand(limit, table_small)

    @pytest.mark.parametrize("dropped, limit, first", [
        ((2,), 10, 1),                                  # n = 1 needs p_0 = 2
        ((3,), 10, 2),                                  # 2 -> 5 > 4
        ((23, 29, 31, 37, 41, 43, 47), 100, 19),        # 19 -> 53 > 38
        (tuple(range(101, 201)), 100, 97),              # 97 has no successor
        ((), 100, None),
    ])
    def test_stand_in_table_with_a_gap(self, dropped, limit, first):
        table = stand_in_table(200, dropped)
        assert bertrand_check(limit, table) == dense_bertrand(limit, table) == first

    def test_seeded_gaps_match_dense_form(self):
        # a run of dropped primes after `start`, reaching past 2 * start
        # about half the time, plus a few dropped at random
        rng = random.Random(1845)
        primes = reference_sieve(4000).nonzero()[0].tolist()
        for _ in range(200):
            dropped = rng.sample(primes, rng.randint(0, 6))
            start = rng.choice(primes[:303])                # primes <= 2000
            end = start * rng.uniform(1.5, 2.5)
            dropped += [p for p in primes if start < p < end]
            table = stand_in_table(4000, dropped)
            for limit in (1, 2, start - 1, start, rng.randint(1, 2000), 2000):
                assert bertrand_check(limit, table) == dense_bertrand(limit, table), (
                    sorted(dropped), limit)

    def test_moderate_sweep(self, table_medium):
        assert bertrand_check(500_000, table_medium) is None

    def test_out_of_range(self, table_small):
        with pytest.raises(OutOfRangeError):
            bertrand_check(100_000, table_small)
        with pytest.raises(OutOfRangeError):
            bertrand_check(table_small.limit // 2 + 1, table_small)
        assert bertrand_check(table_small.limit // 2, table_small) is None
