"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import contextlib
import math
import random
import time
from itertools import combinations_with_replacement

import numpy as np
import pytest

from binomfactor import (PI_BOUNDS_SPEC, PI_BOUNDS_SPEC_BROKEN,
                         FactorialRatioSpec, NonAlternatingError,
                         alternating_pi_sum, bertrand_check, binom_exponent,
                         coefficient_sequence, combination_constant,
                         convergence_sweep, decompose,
                         derive_bounds, equivalence_check,
                         factorial_ratio_report, growth_constant_table,
                         log3_closed_form_check, omega_growth_constant,
                         omega_identity_report, partial_sum,
                         ratio_series_residual, verify_alternating)
from conftest import floored_pairs


@contextlib.contextmanager
def criterion(num: int, description: str, details: list | None = None):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num:>2} [FAIL] {description}")
        raise
    extra = f" ({'; '.join(details)})" if details else ""
    print(f"\nACCEPTANCE {num:>2} [PASS] {description}{extra}")


def test_criterion_01_interval_equivalence(table_medium):
    """Interval membership equals the sieve oracle: exhaustively for
    n <= 300, and for 500 random pairs with n <= 10^6.  Zero tolerance."""
    details = []
    with criterion(1, "interval decomposition == oracle, exhaustive + randomized",
                   details):
        start = time.monotonic()
        for n in range(1, 301):
            for k in range(n + 1):
                assert equivalence_check(n, k, table_medium) is None, (n, k)
        rng = random.Random(20260808)
        for _ in range(500):
            n = rng.randint(2, 1_000_000)
            k = rng.randint(1, n)
            assert equivalence_check(n, k, table_medium) is None, (n, k)
        elapsed = time.monotonic() - start
        assert elapsed < 300.0
        details.append(f"45451 exhaustive + 500 random pairs in {elapsed:.1f}s")


def test_criterion_02_showcase_decompositions():
    """The two worked decompositions open with the exact floored interval
    lists."""
    with criterion(2, "showcase decompositions match the known interval lists"):
        first = floored_pairs(decompose(2000, 1000).columns[1])
        assert first[:4] == [
            (1000, 2000), (500, 666), (333, 400), (250, 285)]
        second = floored_pairs(decompose(2000, 800).columns[1])
        assert second[:6] == [
            (1200, 2000), (800, 1000), (600, 666), (400, 500),
            (300, 333), (266, 285)]


def test_criterion_03_omega_series_residual(table_medium):
    """The omega/pi-series residual is reproduced exactly by the
    deep-level/regrouping accounting, and |residual|/sqrt(k) <= 5."""
    details = []
    with criterion(3, "series residual accounted exactly, |residual|/sqrt(k) <= 5",
                   details):
        worst = 0.0
        for n, m in [(2, 1), (3, 1), (4, 1), (6, 1), (5, 2)]:
            for k in (100, 1000, 10_000, 100_000):
                rep = omega_identity_report(n, m, k, table_medium)
                assert rep.residual == (rep.details["deep_level_primes"]
                                        - rep.details["regroup_correction"]), (n, m, k)
                normalized = abs(rep.residual) / math.sqrt(k)
                worst = max(worst, normalized)
                assert normalized <= 5.0, (n, m, k)
        details.append(f"empirical max |residual|/sqrt(k) = {worst:.3f}")


def _partitions(total, max_part):
    out = []

    def rec(rest, cap, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for v in range(min(cap, rest), 0, -1):
            rec(rest - v, v, acc + [v])

    rec(total, max_part, [])
    return out


def test_criterion_04_factorial_ratio_identities(table_medium):
    """The psi series equals the log factorial ratio to 1e-9 relative on
    every balanced spec with parts <= 6 (k <= 10^4) and on the classical
    30,1/15,10,6 spec; the linear-growth residual stays under 20 log k."""
    details = []
    with criterion(4, "factorial-ratio psi identity exact to 1e-9; growth "
                      "residual <= 20 log k", details):
        specs = [FactorialRatioSpec((30, 1), (15, 10, 6))]
        for total in range(2, 7):
            parts = _partitions(total, 6)
            specs.extend(FactorialRatioSpec(a, b)
                         for a, b in combinations_with_replacement(parts, 2))
        worst_rel = 0.0
        for spec in specs:
            for k in (1, 10, 100, 1000, 10_000):
                rep = factorial_ratio_report(spec, k, table_medium)
                rel = abs(rep.residual) / max(abs(rep.lhs), 1.0)
                worst_rel = max(worst_rel, rel)
                assert rel <= 1e-9, (spec, k)
                if k >= 2:
                    assert abs(rep.details["asymptotic_residual"]) <= 20 * math.log(k)
        details.append(f"{len(specs)} specs; worst relative residual {worst_rel:.2e}")


def test_criterion_05_pi_bounds_pipeline():
    """Combination constant 0.460 +- 0.001 from intermediates
    0.6365/0.5623/0.4505 (+- 1e-4); the exact residue sets mod 60; ledger
    0.92 +- 0.005 with upper iterations 1.26/1.135/1.11 (+- 0.01); the
    augmented spec is rejected for non-alternation."""
    with criterion(5, "pi-bounds pipeline reproduces all published constants"):
        assert abs(omega_growth_constant(3, 1) / 3 - 0.6365) <= 1e-4
        assert abs(omega_growth_constant(4, 1) / 4 - 0.5623) <= 1e-4
        assert abs(omega_growth_constant(6, 1) / 6 - 0.4505) <= 1e-4
        assert abs(combination_constant(PI_BOUNDS_SPEC) - 0.460) <= 1e-3

        seq = coefficient_sequence(PI_BOUNDS_SPEC)
        assert seq.period == 60
        assert seq.residues_with_sign(+1) == frozenset({2, 14, 22, 26, 34, 38, 46, 58})
        assert seq.residues_with_sign(-1) == frozenset({12, 20, 24, 30, 36, 40, 48, 60})

        ledger = derive_bounds(PI_BOUNDS_SPEC, anchor_divisor=12)
        assert abs(ledger.lower_bound - 0.92) <= 5e-3
        for got, published in zip(ledger.upper_iterations, (1.26, 1.135, 1.11)):
            assert abs(got - published) <= 0.01

        assert verify_alternating(coefficient_sequence(PI_BOUNDS_SPEC_BROKEN)) == 26
        with pytest.raises(NonAlternatingError):
            derive_bounds(PI_BOUNDS_SPEC_BROKEN)


def test_criterion_06_alternating_pi_ratio(table_large):
    """sum (-1)^(i+1) pi(x/i) over x/log x lands within 0.05 of log 2 at
    x = 10^7, with |error| monotone decreasing over 10^5, 10^6, 10^7."""
    details = []
    with criterion(6, "alternating pi sum ratio -> log 2", details):
        errors = []
        for x in (10**5, 10**6, 10**7):
            _, ratio = alternating_pi_sum(x, table_large)
            errors.append(abs(ratio - math.log(2)))
        assert errors[-1] <= 0.05
        assert errors[0] > errors[1] > errors[2]
        details.append("errors " + " > ".join(f"{e:.4f}" for e in errors))


def test_criterion_07_bertrand_sweep(table_large):
    """pi(2n) > pi(n) for every n <= 10^6.  Exact."""
    with criterion(7, "pi(2n) > pi(n) for all n <= 10^6"):
        assert bertrand_check(1_000_000, table_large) is None


def test_criterion_08_log_series():
    """Partial sums reach log k to 1e-4 by 10^6 blocks for k in [2, 10];
    the k=3 blocks match their closed form to 1e-13; the ratio-series
    residual halves when the truncation doubles (2x +- 20%)."""
    with criterion(8, "log-k series: partial sums, closed form, halving"):
        for k in range(2, 11):
            state = partial_sum(k, 1_000_000)
            assert abs(state.partial_sum - math.log(k)) <= 1e-4, k
        assert log3_closed_form_check(10_000) <= 1e-13
        for n in (2, 3, 6):
            ratio = ratio_series_residual(n, 150) / ratio_series_residual(n, 300)
            assert 1.6 <= ratio <= 2.4, n


def test_criterion_09_growth_constants(table_large):
    """All seven reference constants match their printed two decimals
    (truncation); the central ratio at k = 10^6 sits in [0.85, 1.15] and
    |ratio - 1| shrinks across k = 10^3..10^6."""
    details = []
    with criterion(9, "growth constants and slow convergence trend", details):
        printed = [0.69, 0.63, 0.56, 0.50, 0.32, 0.05, 0.67]
        for (_, const), want in zip(growth_constant_table(), printed):
            assert math.floor(const * 100) / 100 == pytest.approx(want), (const, want)
        rows = convergence_sweep(2, 1, [10**3, 10**4, 10**5, 10**6], table_large)
        errs = [abs(r.ratio - 1) for r in rows]
        assert 0.85 <= rows[-1].ratio <= 1.15
        assert errs == sorted(errs, reverse=True)
        details.append(f"ratio at k=10^6: {rows[-1].ratio:.4f}")


def test_criterion_10_exponent_bound(table_small):
    """p^(e_p(C(n, k))) <= n, exhaustively for n <= 200 and on 10^5
    sampled triples with n <= 2000.  Exact."""
    with criterion(10, "prime power in C(n, k) never exceeds n"):
        for n in range(1, 201):
            plist = table_small.primes_up_to(n).tolist()
            for k in range(n + 1):
                for p in plist:
                    assert p ** binom_exponent(p, n, k) <= n
        rng = random.Random(31337)
        all_primes = table_small.primes_up_to(2000).tolist()
        for _ in range(100_000):
            n = rng.randint(2, 2000)
            k = rng.randint(0, n)
            p = all_primes[rng.randrange(table_small.pi(n))]
            assert p ** binom_exponent(p, n, k) <= n
