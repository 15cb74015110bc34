import hashlib
import math
import random
import tracemalloc
from fractions import Fraction
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
from binomfactor.primes import MAX_FLOAT_INT, _GROUPED_FROM, _pi_levels, _quotients
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


#: log(x!) to 45 significant digits, from mpmath's loggamma(x + 1) at 60
#: digits (mpmath is not needed to run the tests): every x <= 40, x = 457
#: (the first x at which the running sum misses the correctly rounded
#: value, 3.4e-4 ulp from a tie), 10^3, 6000, 10^5, 10^7, twelve x drawn
#: by random.Random(35) from (10^7, 2*10^8], and 2^53.
LOG_FACTORIAL_GOLDEN = [
    (0, "0.0"),
    (1, "0.0"),
    (2, "0.693147180559945309417232121458176568075500134"),
    (3, "1.79175946922805500081247735838070227272299069"),
    (4, "3.17805383034794561964694160129705540887399096"),
    (5, "4.78749174278204599424770093452324304839959232"),
    (6, "6.57925121201010099506017829290394532112258301"),
    (7, "8.52516136106541430016553103634712505075966774"),
    (8, "10.6046029027452502284172274007216547549861681"),
    (9, "12.8018274800814696112077178745667061642811493"),
    (10, "15.1044125730755152952257093292510703718822507"),
    (11, "17.5023078458738858392876529072161996717039576"),
    (12, "19.9872144956618861495173623870550785125024484"),
    (13, "22.5521638531234228855708498286203971173077164"),
    (14, "25.1912211827386815000934346935217534150203012"),
    (15, "27.8992713838408915660894392636704667591933931"),
    (16, "30.6718601060806728037583677495031730314953937"),
    (17, "33.5050734501368888840079023673762995670835967"),
    (18, "36.3954452080330535762156249626795275444540779"),
    (19, "39.3398841871994940362246523945673810816914572"),
    (20, "42.3356164607534850296598759707099218573680588"),
    (21, "45.3801388984769080261604739510756272916526341"),
    (22, "48.4711813518352238796396496504989331595498411"),
    (23, "51.6066755677643735704464024823091292779922214"),
    (24, "54.7847293981123191900933440836061846868662124"),
    (25, "58.0036052229805199392948627500585599659174151"),
    (26, "61.2617017610020019847655823130820551387981832"),
    (27, "64.5575386270063310589513180238496322527406548"),
    (28, "67.8897431371815349828911350102091651185287398"),
    (29, "71.2570389671680090100744070425710767240232528"),
    (30, "74.6582363488301643854876437341779666362718448"),
    (31, "78.0922235533153106314168080587203238467217837"),
    (32, "81.5579594561150371785029686660112066870992844"),
    (33, "85.0544670175815174139601574808988616915684818"),
    (34, "88.580827542197678803626924220230164795232185"),
    (35, "92.136175603687092483333036296899532164394871"),
    (36, "95.7196945421432024849579910136609367098408524"),
    (37, "99.33061245478742692932608668469238387374093"),
    (38, "102.968198614513812698752346238038413979053809"),
    (39, "106.631760260643459126201078916526258288506568"),
    (40, "110.32063971475739542905353461412697563225867"),
    (457, "2345.96177221592483890135921420203175402852901"),
    (1000, "5912.12817848816334887813088672549388247174571"),
    (6000, "46202.3571990573509619957305766266749536264096"),
    (100000, "1051299.22189912186512927810820611085524934452"),
    (10000000, "151180965.487569564898425371004535877888525026"),
    (26592335, "428033785.68038201037914935163263609112280322"),
    (45359783, "754339389.614409479484189481457454524883144745"),
    (51352137, "860364862.147844456732889710369671767409438991"),
    (77685613, "1333720646.90783351303058834116274258898941281"),
    (83581440, "1441055369.7817092939510092359949361053969662"),
    (86747521, "1498868127.32717431758818334813058022989026634"),
    (100025145, "1742531275.70303802871417827705185765502710668"),
    (101393644, "1767749622.14263976495746168464811893085539812"),
    (125890420, "2222082045.06920482203710405398016156853562058"),
    (151130918, "2695216967.93732146899908141338607613457133802"),
    (157289087, "2811321604.81502354749178593057678989600094058"),
    (162133119, "2902819744.43372221277583544968320419927382608"),
    (9007199254740992, "321888483458023065.35804068673773025972545299"),
]


def within_one_ulp(got: float, want: str) -> bool:
    """|got - want| < 1 ulp of the float nearest the decimal ``want``."""
    exact = Fraction(want)
    return abs(Fraction(got) - exact) < Fraction(math.ulp(float(exact)))


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
        # each of the five reads is within 1 ulp of the dense prefix's, so
        # the fsum is within the sum of their ulps
        spec = PSI_RATIO_SPEC
        lf = dense_log_factorial(10**7)
        for k in (1, 2, 31, 32, 33, 12345, 10**7 // 30):
            args = [v * k for v in spec.numerator_multipliers + spec.denominator_multipliers]
            n = len(spec.numerator_multipliers)
            want = math.fsum([float(lf[v]) for v in args[:n]] + [-float(lf[v]) for v in args[n:]])
            slack = math.fsum(math.ulp(float(lf[v])) for v in args)
            assert abs(spec.log_ratio(k) - want) <= slack, k

    def test_log_factorial_prefix_exact(self):
        assert log_factorial(0) == 0.0 and log_factorial(1) == 0.0
        assert type(log_factorial(5)) is float
        assert log_factorial(5) == pytest.approx(math.log(120), rel=1e-15)
        assert log_factorial(30) == pytest.approx(math.log(math.factorial(30)), rel=1e-14)
        assert log_factorial_prefix(100).tolist() == [log_factorial(v) for v in (0, 32, 64, 96)]

    def test_log_factorial_golden_values(self):
        """Every golden value within 1 ulp, as one array and one by one,
        and correctly rounded at least as often as the running sum of the
        dense oracle on the same x <= 10^7.  On x87 extended precision 58
        of the 59 values are correctly rounded, 45 of the 46 at x <= 10^7
        against the running sum's 44: both miss at 457, whose log(x!) lies
        3.4e-4 ulp from a tie, and the running sum also at 6000."""
        x = np.array([v for v, _ in LOG_FACTORIAL_GOLDEN], dtype=np.int64)
        got = log_factorial(x).tolist()
        assert got == [log_factorial(v) for v in x.tolist()]
        assert all(within_one_ulp(g, w) for g, (_, w) in zip(got, LOG_FACTORIAL_GOLDEN))
        rounded = [g == float(w) for g, (_, w) in zip(got, LOG_FACTORIAL_GOLDEN)]
        dense = dense_log_factorial(10**7)
        small = [(i, float(w)) for i, (v, w) in enumerate(LOG_FACTORIAL_GOLDEN) if v <= 10**7]
        dense_rounded = sum(float(dense[LOG_FACTORIAL_GOLDEN[i][0]]) == w for i, w in small)
        assert sum(rounded[i] for i, _ in small) >= dense_rounded

    def test_log_factorial_golden(self):
        # the bytes of every value to 10^6, which the x87 extended
        # precision fixes; a change of the series or its rounding moves it
        lf = log_factorial(np.arange(10**6 + 1))
        assert hashlib.sha256(lf.tobytes()).hexdigest() == (
            "28df027ead676f51eafe45f33c74fa34bae06ca3f34def5a5f5d0942da49b0ee")

    def test_log_factorial_matches_dense_oracle(self):
        """Within 1 ulp of the dense running sum at every x <= 10^6, and at
        seeded x <= 10^7 and both sides of the series' start at 32, as
        one array and one by one; equal at x = 0 and 1."""
        def ulps(got, want):
            return np.abs(got.view(np.int64) - want.view(np.int64))

        dense = dense_log_factorial(10**7)
        every = np.arange(10**6 + 1)
        assert ulps(log_factorial(every), dense[:10**6 + 1]).max() <= 1
        rng = np.random.default_rng(20231)
        x = np.concatenate([[0, 1, 31, 32, 33, 10**7], rng.integers(0, 10**7 + 1, 20_000)])
        got = log_factorial(x)
        assert ulps(got, dense[x]).max() <= 1
        assert got[0] == got[1] == 0.0
        assert log_factorial(x[:4000].reshape(20, 200)).tobytes() == got[:4000].tobytes()
        some = rng.choice(x, 300).tolist()
        assert [log_factorial(v) for v in some] == log_factorial(np.array(some)).tolist()

    def test_log_factorial_dtypes_and_shapes(self):
        want = [log_factorial(v) for v in range(8)]
        for dtype in (np.int8, np.int32, np.uint16, np.uint64):
            assert log_factorial(np.arange(8, dtype=dtype)).tolist() == want
        assert log_factorial([3, 4]).tolist() == want[3:5]
        assert log_factorial(np.int64(7)) == want[7]
        assert log_factorial(np.array(7)) == want[7]
        assert log_factorial(np.zeros((0, 3), dtype=np.int64)).shape == (0, 3)
        top = np.array([MAX_FLOAT_INT], dtype=np.uint64)
        assert log_factorial(top).tolist() == [log_factorial(MAX_FLOAT_INT)]

    def test_log_factorial_prefix_read_only(self):
        # the reader keeps nothing: each call returns a new array, and
        # writing into one changes no later read
        marks = log_factorial_prefix(40 * 32)
        assert marks.dtype == np.float64 and len(marks) == 41
        marks[3] = 0.0
        assert log_factorial_prefix(40 * 32)[3] == log_factorial(96) != 0.0
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
                log_factorial(MAX_FLOAT_INT + 1)
            with pytest.raises(OutOfRangeError):
                log_factorial(np.array([0, MAX_FLOAT_INT + 1]))
            with pytest.raises(OutOfRangeError):
                log_factorial(np.array([2**64 - 1], dtype=np.uint64))
            with pytest.raises(OutOfRangeError):
                PSI_RATIO_SPEC.log_ratio(10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        with pytest.raises(DomainError):
            PSI_RATIO_SPEC.log_ratio(-1)
        assert PSI_RATIO_SPEC.log_ratio(0) == 0.0
        # past MAX_LIMIT, which caps log_ratio by the psi tables, log(x!)
        # still reads
        assert log_factorial(MAX_LIMIT + 1) > log_factorial(MAX_LIMIT)

    def test_log_factorial_prefix_growth_keeps_prefix(self):
        # a shorter read is a prefix of a longer one, every 32nd value
        small = log_factorial_prefix(1000)
        grown = log_factorial_prefix(6000)
        assert len(grown) == 6000 // 32 + 1
        assert np.array_equal(grown[:len(small)], small)
        assert np.array_equal(grown, log_factorial(np.arange(0, 6001, 32)))

    def test_log_factorial_prefix_memory(self):
        """A read of 10^6 values holds its float64 output and a few
        extended-precision temporaries of one pass of `_PASS` values; the
        prefix reader at 10^7 holds its 2.5 MB of float64 values."""
        every = np.arange(10**6)
        for call, held in ((lambda: log_factorial(every), every.nbytes),
                           (lambda: log_factorial_prefix(10**7), 8 * (10**7 // 32 + 1))):
            tracemalloc.start()
            try:
                out = call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.nbytes == held
            assert peak <= 2 * held + 8 * 16 * identities._PASS


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
