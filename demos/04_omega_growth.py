#!/usr/bin/env python3
"""How many distinct primes divide C(nk, mk)?

Asymptotically omega(C(nk, mk)) ~ log(n^n / (m^m (n-m)^(n-m))) * k/log k:
a fixed positive proportion of all primes up to nk.  The constant is
exact; the convergence is logarithmically slow, so the sweep reports the
trend of the ratio rather than a tight tolerance.  In the opposite regime
k = o(n) the proportion vanishes.
"""

import math

from binomfactor import (PrimeTable, convergence_sweep,
                         growth_constant_table, sparse_regime_table)

print("limiting constants for omega C(k, rk) / (k / log k):")
for r, c in growth_constant_table():
    print(f"  r = {str(r):>5}: {c:.4f}  (prints as 0.{int(c * 100):02d}...)")

table = PrimeTable(2_000_000)

print("\ncentral case n=2, m=1: ratio of true omega to the prediction")
print(f"{'k':>9} {'omega':>8} {'predicted':>11} {'ratio':>7}")
for row in convergence_sweep(2, 1, [10**3, 10**4, 10**5, 10**6], table):
    print(f"{row.k:>9} {row.omega:>8} {row.predicted:>11.1f} {row.ratio:>7.4f}")
print("  (the ratio creeps toward 1 like 1/log k)")

print("\nsparse regime k = floor(sqrt(n)): omega(C(n, k)) * log n / n sinks to 0")
pairs = [(10**d, math.isqrt(10**d)) for d in (3, 4, 5, 6)]
for row in sparse_regime_table(pairs, table):
    print(f"  n = {row.n:>8}, k = {row.k:>4}: omega = {row.omega:>5}, "
          f"ratio = {row.ratio:.4f}")
