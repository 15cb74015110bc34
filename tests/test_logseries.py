import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
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

    def test_within_one_ulp_of_exact_harmonic_gap(self):
        # every (k, N) with N k <= 2000: 13,518 pairs, of which 13,516 come
        # out correctly rounded on x87 longdouble (worst 0.5005 ulp)
        harmonic = [Fraction(0)]
        for j in range(1, 2001):
            harmonic.append(harmonic[-1] + Fraction(1, j))
        pairs = exact = 0
        for k in range(2, 2001):
            for terms in range(1, 2000 // k + 1):
                want = harmonic[terms * k] - harmonic[terms]
                got = partial_sum(k, terms).partial_sum
                assert abs(Fraction(got) - want) <= Fraction(math.ulp(got)), (k, terms)
                pairs += 1
                exact += got == float(want)
        assert pairs == 13_518
        assert exact >= pairs - pairs // 1000, f"{exact} of {pairs} correctly rounded"

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_block_loop_within_its_rounding(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            k = int(math.exp(rng.uniform(math.log(2), math.log(2000))))
            terms = int(math.exp(rng.uniform(0, math.log(_LOOP_WORK / (k - 1) - 400))))
            got, want = partial_sum(k, terms).partial_sum, _block_loop(k, terms)
            assert abs(got - want) <= _block_loop_rounding(k, terms) + math.ulp(got), \
                (k, terms)

    @given(st.integers(2, 10**4), st.integers(1, 10**6))
    @example(2, 2**52)
    @example(10**6, 10**6)
    @example(MAX_FLOAT_INT, 1)
    @settings(max_examples=300, deadline=None)
    def test_tail_between_euler_maclaurin_bounds(self, k, terms):
        # log k - S_N = e(N) - e(Nk), with e(m) = H(m) - log m - gamma in
        # (1/(2m) - 1/(12m^2), 1/(2m)); the slack covers S_N's rounding to
        # float64 (S_N < log k)
        state = partial_sum(k, terms)
        tail = np.log(np.longdouble(k)) - np.longdouble(state.partial_sum)
        n, nk = np.longdouble(terms), np.longdouble(terms) * k
        lower = 1 / (2 * n) - 1 / (12 * n * n) - 1 / (2 * nk)
        upper = 1 / (2 * n) - 1 / (2 * nk) + 1 / (12 * nk * nk)
        slack = 2 * math.ulp(math.log(k))
        assert lower - slack < tail < upper + slack
        assert tail < state.tail_bound

    def test_microseconds_and_no_array_scaling_with_n_or_k(self):
        for k, terms in ((10**6, 10**6), (2, 2**52), (3, 100), (10**4, 10**9)):
            best = min(_timed(partial_sum, k, terms) for _ in range(10))
            assert best < 1e-3, (k, terms, best)
            tracemalloc.start()
            try:
                partial_sum(k, terms)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16_384, (k, terms, peak)


#: The work cap, (k - 1) * (N + 400) block terms, of the seeded pairs on which
#: `_block_loop` is compared (the loop's own cap was 10^9, ~8 s).
_LOOP_WORK = 10**7


def _block_loop(k: int, terms: int) -> float:
    """The first N blocks summed as written: k - 1 float64 passes over the
    N blocks, then the blocks added exactly (fsum) and rounded once."""
    n = np.arange(1, terms + 1, dtype=np.float64)
    base = (n - 1.0) * k
    blocks = np.zeros(terms, dtype=np.float64)
    for i in range(1, k):
        blocks += 1.0 / (base + i)
    blocks -= (k - 1.0) / (n * k)
    return math.fsum(blocks.tolist())


def _block_loop_rounding(k: int, terms: int) -> float:
    """A bound on `_block_loop`'s rounding error.  In block n, the k - 1
    reciprocals, their k - 2 additions, the division (k-1)/(nk) and the
    final subtraction each err by at most u = 2^-53 relative to the block's
    positive part P_n; (k + 2) u P_n covers them with their second-order
    terms, and the P_n of all N blocks add up to less than H(Nk) <=
    1 + log(Nk).  fsum then adds half an ulp of the total."""
    return (k + 2) * 2.0**-53 * (1 + math.log(k * terms)) + math.ulp(math.log(k)) / 2


def _timed(f, *args) -> float:
    start = time.perf_counter()
    f(*args)
    return time.perf_counter() - start


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
    lambda: partial_sum(3, (MAX_FLOAT_INT + 1) // 3),
    lambda: partial_sum(10**400, 1),
], ids=["block-k", "block-n", "block-n-huge", "log3-terms", "ratio-truncation",
        "ratio-work", "ratio-n-huge", "telescoping-upper", "partial-nk", "partial-k-huge"])
def test_one_past_each_budget_refused_before_work(call):
    """One past each cap raises `OutOfRangeError` at once (never a bare
    OverflowError from an int too large for a float)."""
    start = time.perf_counter()
    with pytest.raises(OutOfRangeError):
        call()
    assert time.perf_counter() - start < 0.1
