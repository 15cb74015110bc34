#!/usr/bin/env python3
"""Elementary pi(x) bounds from three binomial coefficients.

omega C(k/2, k/6) + omega C(k/3, k/12) - omega C(k/10, k/60) expands into
a period-60 alternating combination of prime counts pi(k/t).  Because the
signs alternate, the whole sum is squeezed between pi(k/2) - pi(k/12) and
pi(k/2); because each omega grows at a known rate, that squeeze becomes
0.92 x/log x < pi(x) < 1.11 x/log x after iterating the upper bound.

The script also shows why the obvious "add a fourth term" refinement
fails: the enlarged combination stops alternating.
"""

from binomfactor import (PI_BOUNDS_SPEC, PI_BOUNDS_SPEC_BROKEN, PSI_BOUNDS_LEDGER,
                         NonAlternatingError, PrimeTable,
                         coefficient_sequence, derive_bounds,
                         empirical_bracket_check, psi_variant_bounds,
                         verify_alternating)

ledger = derive_bounds(PI_BOUNDS_SPEC, anchor_divisor=12, iterations=6)
seq = ledger.sequence
print(f"coefficient sequence: period {seq.period}")
print(f"  +1 at n = {sorted(seq.residues_with_sign(+1))} (mod 60)")
print(f"  -1 at n = {sorted(seq.residues_with_sign(-1))} (mod 60)")
print(f"  alternating: {verify_alternating(seq) is None}")

print(f"\ncombination constant: {ledger.combination_constant:.6f}  "
      "(0.6365/2 + 0.5623/3 - 0.4505/10)")
print(f"lower bound: pi(x) > {ledger.lower_bound:.4f} x/log x")
print("upper bound refinement, starting from the crude pi(x) <= 2 x/log x:")
for t, u in enumerate(ledger.upper_iterations, 1):
    print(f"  pass {t}: pi(x) < {u:.4f} x/log x")
print(f"fixed point of the refinement: {ledger.fixed_point:.4f}")

print("\nnumeric bracket check (everything from the sieve oracle):")
table = PrimeTable(50_000)
for row in empirical_bracket_check(PI_BOUNDS_SPEC, [600, 6000, 60_000], table):
    print(f"  k={row.k:>6}: pi(k/2)-pi(k/12)={row.lower:>5} <= "
          f"combination-correction={row.omega_combination - row.correction:>5} "
          f"<= pi(k/2)={row.upper:>5}  holds={row.holds}")

print("\nadding omega C(k/12, k/84):")
try:
    derive_bounds(PI_BOUNDS_SPEC_BROKEN)
except NonAlternatingError as exc:
    print(f"  rejected: {exc}")
    broken = coefficient_sequence(PI_BOUNDS_SPEC_BROKEN)
    print(f"  (coefficients at 20, 22, 24, 26: "
          f"{[broken.coefficient(t) for t in (20, 22, 24, 26)]} "
          "-- two +1 entries in a row)")

print("\nthe psi(x)/x analogue from multipliers 30,1 / 15,10,6:")
L = PSI_BOUNDS_LEDGER
print(f"  constant {L.combination_constant:.6f}, "
      f"lower {L.lower_bound:.4f}, upper iterations "
      + " -> ".join(f"{u:.4f}" for u in L.upper_iterations))
for row in psi_variant_bounds([1000], table):
    print(f"  k={row.k}: psi-bracket {row.lower:.1f} <= log ratio {row.ratio_log:.1f} "
          f"<= {row.upper:.1f}  holds={row.holds}")
