import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomfactor import (DomainError, OutOfRangeError, block_term,
                         log3_closed_form_check, partial_sum,
                         ratio_series_residual, telescoping_check)
from binomfactor.logseries import (MAX_BLOCK_K, MAX_CLOSED_FORM_TERMS,
                                   MAX_RATIO_WORK, MAX_TELESCOPE_UPPER,
                                   MAX_TERMS, _blocked_sum)
from binomfactor.primes import MAX_FLOAT_INT


class TestBlockTerm:
    def test_first_block_k2(self):
        assert block_term(2, 1) == 1.0 - 0.5

    def test_first_block_k3(self):
        assert block_term(3, 1) == pytest.approx(5 / 6, rel=1e-15)

    def test_k2_blocks_are_paired_alternating_harmonic(self):
        for n in range(1, 2000):
            assert block_term(2, n) == 1 / (2 * n - 1) - 1 / (2 * n)

    def test_rejects_k_below_two(self):
        with pytest.raises(DomainError):
            block_term(1, 5)

    @given(st.integers(2, 40), st.integers(2, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_envelope(self, k, n):
        assert 0 < block_term(k, n) <= k / n**2

    @given(st.integers(2, 25), st.integers(1, 500))
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_rational_block(self, k, n):
        from fractions import Fraction
        exact = sum((Fraction(1, (n - 1) * k + i) for i in range(1, k)),
                    start=Fraction(0)) - Fraction(k - 1, n * k)
        assert block_term(k, n) == pytest.approx(float(exact), rel=1e-13)


class TestPartialSum:
    def test_log1_fast_path(self):
        state = partial_sum(1, 100)
        assert state.partial_sum == 0.0 and state.tail_bound == 0.0

    def test_log2(self):
        state = partial_sum(2, 1_000_000)
        assert abs(state.partial_sum - math.log(2)) < 1e-6

    def test_log3(self):
        state = partial_sum(3, 1_000_000)
        assert abs(state.partial_sum - math.log(3)) < 1e-5

    def test_log10(self):
        state = partial_sum(10, 1_000_000)
        assert abs(state.partial_sum - math.log(10)) < 1e-4

    def test_tail_bound_honest(self):
        # the k/N envelope really bounds the truncation error
        for k in (2, 5, 9):
            coarse = partial_sum(k, 2000)
            assert abs(coarse.partial_sum - math.log(k)) <= coarse.tail_bound

    def test_vector_blocks_match_scalar(self):
        state = partial_sum(7, 500)
        scalar = math.fsum(block_term(7, n) for n in range(1, 501))
        assert state.partial_sum == pytest.approx(scalar, rel=1e-12)


class TestLog3ClosedForm:
    def test_first_two_blocks(self):
        assert block_term(3, 1) == pytest.approx(5 / 6, rel=1e-15)
        assert block_term(3, 2) == pytest.approx(7 / 60, rel=1e-14)
        assert (9 * 2 - 4) / ((3 * 2 - 2) * (3 * 2 - 1) * 6) == pytest.approx(7 / 60)

    def test_discrepancy_tiny(self):
        assert log3_closed_form_check(10_000) <= 1e-13


class TestRatioSeries:
    def test_n2_converges_to_log4(self):
        assert ratio_series_residual(2, 100_000) < 1e-4
        # lhs is 2 log 2 = log 4
        assert 2 * math.log(2) == pytest.approx(math.log(4))

    def test_residual_shrinks_fiftyfold(self):
        assert ratio_series_residual(2, 1) / ratio_series_residual(2, 100) >= 50

    def test_halves_when_truncation_doubles(self):
        for n in (2, 3, 6):
            ratio = ratio_series_residual(n, 200) / ratio_series_residual(n, 400)
            assert 1.6 <= ratio <= 2.4

    def test_decay_constant_near_half(self):
        # the residual behaves like 1/(2J); record the constant
        for n in (2, 6):
            assert ratio_series_residual(n, 5000) * 5000 == pytest.approx(0.5, abs=0.05)

    # the residuals of a per-row np.sum(row, dtype=np.longdouble), kept
    # bit for bit at numpy's default buffer size and at any other
    GOLDEN = [(2, 1, "0x1.8b90bfbe8e7bcp-2"), (3, 8192, "0x1.fffce38e30000p-15"),
              (2, 8193, "0x1.ffec00bff8000p-15"), (7, 100_000, "0x1.4f8b330680000p-18"),
              (20, 250_001, "0x1.0c6f27f100000p-19")]

    def test_golden_and_independent_of_numpy_buffer_size(self):
        default = np.getbufsize()
        for size in (default, 1024):
            np.setbufsize(size)
            try:
                got = [ratio_series_residual(n, j).hex() for n, j, _ in self.GOLDEN]
            finally:
                np.setbufsize(default)
            assert got == [h for _, _, h in self.GOLDEN], size

    def test_row_sum_in_fixed_blocks(self):
        # the row (n, i) = (7, 1) at J = 10^5: np.sum's own partial sum
        # moves under np.setbufsize(1024), the blocked sum does not
        j = np.arange(100_000, dtype=np.float64)
        row = 1.0 / (j + 1 / 7) - 1.0 / (j + 1 / 6)
        want = np.sum(row, dtype=np.longdouble)
        assert _blocked_sum(row) == want and not np.signbit(_blocked_sum(row))
        default = np.getbufsize()
        np.setbufsize(1024)
        try:
            assert _blocked_sum(row) == want
        finally:
            np.setbufsize(default)


class TestTelescoping:
    def test_base_case(self):
        assert telescoping_check(2) is None
        assert math.log(2**2 / 1**1) == pytest.approx(2 * math.log(2))

    def test_log27_structure(self):
        # log(27/4) + log 4 = 3 log 3
        assert math.log(27 / 4) + math.log(4) == pytest.approx(3 * math.log(3), rel=1e-15)
        assert telescoping_check(3) is None

    def test_first_hundred(self):
        assert telescoping_check(100) is None


@pytest.mark.parametrize("call", [
    lambda: block_term(MAX_BLOCK_K + 1, 1),
    lambda: block_term(2, MAX_FLOAT_INT + 1),
    lambda: block_term(2, 10**400),
    lambda: log3_closed_form_check(MAX_CLOSED_FORM_TERMS + 1),
    lambda: ratio_series_residual(2, MAX_TERMS + 1),
    lambda: ratio_series_residual(MAX_RATIO_WORK // 1500 + 2, 1000),
    lambda: ratio_series_residual(10**400, 2),
    lambda: telescoping_check(MAX_TELESCOPE_UPPER + 1),
], ids=["block-k", "block-n", "block-n-huge", "log3-terms", "ratio-truncation",
        "ratio-work", "ratio-n-huge", "telescoping-upper"])
def test_one_past_each_budget_refused_before_work(call):
    """One past each cap raises `OutOfRangeError` at once (never a bare
    OverflowError from an int too large for a float)."""
    start = time.perf_counter()
    with pytest.raises(OutOfRangeError):
        call()
    assert time.perf_counter() - start < 0.1
