#!/usr/bin/env python3
"""omega(C(nk, mk)) as a sum of prime counts, with the error pinned down.

The interval decomposition turns the number of distinct prime divisors
into sum_j [pi(nk/j) - pi((n-m)k/j) - pi(mk/j)].  The difference from the
true omega is not just O(sqrt k): it is exactly the number of primes
whose witness is a square or higher power, and this script shows that
integer identity holding on a grid.

The n=2, m=1 case regroups into the alternating sum
sum_i (-1)^(i+1) pi(x/i), whose ratio to x/log x drifts toward log 2,
and which also verifies Bertrand's postulate numerically.
"""

import math

from binomfactor import (PrimeTable, alternating_pi_sum, bertrand_check,
                         factorial_ratio_report, FactorialRatioSpec,
                         omega_identity_report)

table = PrimeTable(2_000_000)

print("omega(C(nk, mk)) vs the prime-count series")
print(f"{'n':>3} {'m':>3} {'k':>7} {'omega':>7} {'series':>7} {'resid':>6} "
      f"{'deep':>5} {'resid/sqrt(k)':>14}")
for n, m in [(2, 1), (3, 1), (5, 2)]:
    for k in (1000, 10_000, 100_000):
        r = omega_identity_report(n, m, k, table)
        assert r.residual == r.details["deep_level_primes"]  # exact accounting
        print(f"{n:>3} {m:>3} {k:>7} {r.lhs:>7} {r.rhs:>7} {r.residual:>6} "
              f"{r.details['deep_level_primes']:>5} {r.normalized_residual:>14.3f}")

print("\nthe psi-function analogue is an exact identity (residual = rounding):")
spec = FactorialRatioSpec((30, 1), (15, 10, 6))
for k in (100, 10_000):
    r = factorial_ratio_report(spec, k, table)
    print(f"  k={k:>6}: log ratio = {r.lhs:16.6f}   psi series residual = {r.residual:.2e}")

print("\nalternating sum S(x) = pi(x) - pi(x/2) + pi(x/3) - ...:")
for x in (10**4, 10**5, 10**6):
    s, ratio = alternating_pi_sum(x, table)
    print(f"  x = {x:>8}: S = {s:>6}  S/(x/log x) = {ratio:.4f}  "
          f"(log 2 = {math.log(2):.4f})")

limit = 1_000_000
assert bertrand_check(limit, table) is None
print(f"\npi(2n) > pi(n) verified for every n <= {limit}")
