#!/usr/bin/env python3
"""Which primes divide a binomial coefficient?

C(2000, 1000) has about 600 digits, yet its set of prime divisors can be
written down exactly without factoring anything: it is the primes lying
in a short list of intervals (plus shrinking interval families for
squares, cubes, ... of primes).  This script materialises that
decomposition for two showcase coefficients and cross-checks every prime
against the brute-force sieve oracle.
"""

from binomfactor import (PrimeTable, decompose, equivalence_check,
                         omega_binom_oracle, prime_divides)

table = PrimeTable(10_000)

for n, k in [(2000, 1000), (2000, 800)]:
    dec = decompose(n, k)
    # the level-1 endpoints as exact numerator/denominator columns, floored
    cols = dec.columns[1][:, :6]
    rows = zip((cols[0] // cols[1]).tolist(), (cols[2] // cols[3]).tolist())
    shown = " u ".join(f"({lo}, {hi}]" for lo, hi in rows if lo < hi)
    print(f"primes dividing C({n}, {k}):")
    print(f"  level 1: {shown} u ...")

    # higher root levels catch small primes whose square/cube/... is the
    # witness: those with no level-1 carry floor(n/p) - floor(k/p) - floor((n-k)/p)
    count, primes = omega_binom_oracle(table, n, k)
    deep = [p for p in primes.tolist() if n // p - k // p - (n - k) // p == 0]
    print(f"  omega = {count} distinct prime divisors; "
          f"{len(deep)} of them witnessed only at root level >= 2: {deep}")

    # exact agreement with the oracle, prime by prime
    assert equivalence_check(n, k, table) is None
    print(f"  verified against the sieve oracle for every prime <= {n}\n")

# single primes: prime_divides reads the floored integer cells, which is
# exact for an integer p^i, as a < p^i <= b iff floor(a) < p^i <= floor(b)
dec = decompose(2000, 1000)
for p in (997, 1009, 1999):
    print(f"  p = {p}: divides C(2000, 1000)? {prime_divides(dec, p)}")
