import math
from fractions import Fraction

import numpy as np
import pytest

from binomfactor import (DomainError, OutOfRangeError, convergence_sweep,
                         growth_constant_table, omega_growth_constant,
                         sparse_regime_table)


def truncate2(v: float) -> float:
    return math.floor(v * 100) / 100


class TestGrowthConstant:
    def test_returns_float(self):
        assert type(omega_growth_constant(2, 1)) is float

    def test_central(self):
        assert omega_growth_constant(2, 1) == pytest.approx(2 * math.log(2), rel=1e-15)

    def test_diagonal_zero(self):
        assert omega_growth_constant(7, 7) == 0.0

    def test_five_two(self):
        expected = math.log(3125 / 108)
        assert omega_growth_constant(5, 2) == pytest.approx(expected, rel=1e-14)

    def test_symmetry_bitwise(self):
        for n in range(2, 40):
            for m in range(1, n):
                assert (omega_growth_constant(n, m)
                        == omega_growth_constant(n, n - m))

    def test_nonnegative_and_bounded(self):
        for n in range(1, 30):
            for m in range(1, n + 1):
                v = omega_growth_constant(n, m)
                assert v >= 0.0
                assert v <= n * math.log(n) + 1e-12

    def test_rejects_bad_pair(self):
        with pytest.raises(DomainError):
            omega_growth_constant(3, 4)

    def test_rejects_n_past_float_range(self):
        with pytest.raises(OutOfRangeError):
            omega_growth_constant(10**400, 1)

    def test_matches_log_binomial_at_moderate_k(self):
        # value is the k -> infinity limit of log C(nk, mk) / k
        for n in range(2, 7):
            for m in range(1, n):
                v = omega_growth_constant(n, m)
                approx = math.log(math.comb(n * 100, m * 100)) / 100
                assert abs(approx - v) <= 0.1


class TestReferenceTable:
    def test_seven_rows_truncations(self):
        rows = growth_constant_table()
        assert [r for r, _ in rows] == [
            Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5),
            Fraction(1, 10), Fraction(1, 100), Fraction(2, 5)]
        assert [truncate2(c) for _, c in rows] == [
            0.69, 0.63, 0.56, 0.50, 0.32, 0.05, 0.67]

    def test_half_row_is_log2(self):
        rows = dict(growth_constant_table())
        assert rows[Fraction(1, 2)] == pytest.approx(math.log(2), rel=1e-15)

    def test_third_row(self):
        rows = dict(growth_constant_table())
        assert rows[Fraction(1, 3)] == pytest.approx(math.log(27 / 4) / 3, rel=1e-14)

    def test_hundredth_row(self):
        rows = dict(growth_constant_table())
        expected = (100 * math.log(100) - 99 * math.log(99)) / 100
        assert rows[Fraction(1, 100)] == pytest.approx(expected, rel=1e-13)


class TestConvergenceSweep:
    def test_rows_carry_oracle_and_series(self, table_medium):
        rows = convergence_sweep(2, 1, [100, 1000], table_medium)
        for row in rows:
            assert row.omega >= row.series_value       # deep-level primes
            assert row.ratio == pytest.approx(
                row.omega / (2 * math.log(2) * row.k / math.log(row.k)))

    def test_diagonal_omega_zero(self, table_small):
        rows = convergence_sweep(3, 3, [10, 100], table_small)
        assert all(r.omega == 0 for r in rows)
        assert all(math.isnan(r.ratio) for r in rows)

    def test_ratio_trend_toward_one(self, table_medium):
        rows = convergence_sweep(2, 1, [1000, 10_000, 100_000], table_medium)
        errs = [abs(r.ratio - 1) for r in rows]
        assert errs == sorted(errs, reverse=True)

    def test_rejects_k_below_two(self, table_small):
        with pytest.raises(DomainError):
            convergence_sweep(2, 1, [1], table_small)


class TestSparseRegime:
    def test_single_column_ratio_vanishes(self, table_medium):
        # k = 1: omega(C(n, 1)) = omega(n) <= log2(n)
        rows = sparse_regime_table([(10**d, 1) for d in range(2, 7)], table_medium)
        ratios = [r.ratio for r in rows]
        assert ratios == sorted(ratios, reverse=True)
        assert ratios[-1] < ratios[0] / 100

    def test_sqrt_family_decreasing_trend(self, table_medium):
        pairs = [(n, math.isqrt(n)) for n in (10**3, 10**4, 10**5, 10**6)]
        rows = sparse_regime_table(pairs, table_medium)
        ratios = [r.ratio for r in rows]
        assert ratios == sorted(ratios, reverse=True)

    def test_diagonal_zero(self, table_small):
        rows = sparse_regime_table([(100, 100)], table_small)
        assert rows[0].omega == 0 and rows[0].ratio == 0.0


class TestLeastSquaresTrend:
    def test_error_shrinks_linearly_in_inverse_log(self, table_medium):
        # |ratio - 1| regressed on 1/log k has positive slope
        rows = convergence_sweep(2, 1, [1000, 10_000, 100_000, 500_000], table_medium)
        x = np.array([1 / math.log(r.k) for r in rows])
        y = np.array([abs(r.ratio - 1) for r in rows])
        slope = np.polyfit(x, y, 1)[0]
        assert slope > 0
