#!/usr/bin/env python3
"""Which primes divide a binomial coefficient?

C(2000, 1000) has about 600 digits, yet its set of prime divisors can be
written down exactly without factoring anything: it is the primes lying
in a short list of intervals (plus shrinking interval families for
squares, cubes, ... of primes).  This script materialises that
decomposition for two showcase coefficients and cross-checks every prime
against the brute-force sieve oracle.
"""

from binomfactor import (PrimeTable, canonical_integer_form, decompose,
                         equivalence_check, omega_binom_oracle, prime_divides)

table = PrimeTable(10_000)

for n, k in [(2000, 1000), (2000, 800)]:
    dec = decompose(n, k)
    rows = canonical_integer_form(dec)[1]
    shown = " u ".join(f"({c.lower}, {c.upper}]" for c in rows[:6] if not c.empty)
    print(f"primes dividing C({n}, {k}):")
    print(f"  level 1: {shown} u ...")

    # higher root levels catch small primes whose square/cube/... is the witness
    count, primes = omega_binom_oracle(table, n, k)
    deep = [p for p in primes.tolist() if not any(
        iv.lower < p <= iv.upper for iv in dec.levels[1])]
    print(f"  omega = {count} distinct prime divisors; "
          f"{len(deep)} of them witnessed only at root level >= 2: {deep}")

    # exact agreement with the oracle, prime by prime
    assert equivalence_check(n, k, table) is None
    print(f"  verified against the sieve oracle for every prime <= {n}\n")

# the membership test itself is exact rational arithmetic
dec = decompose(2000, 1000)
for p in (997, 1009, 1999):
    print(f"  p = {p}: divides C(2000, 1000)? {prime_divides(dec, p)}")
