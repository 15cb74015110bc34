"""binomfactor: the prime factorization structure of binomial coefficients.

Exact interval decompositions of {p : p | C(n, k)}, prime-count and psi
identities for omega(C(nk, mk)) with exactly accounted residuals, growth
constants, elementary Chebyshev-type bounds for pi(x) and psi(x), and a
grouped series converging to log k.  Everything is cross-checked against
brute-force sieve oracles.
"""

__version__ = "0.1.0"

from .asymptotics import (ConvergenceRow, convergence_sweep,
                          growth_constant_table, omega_growth_constant,
                          sparse_regime_table)
from .chebyshev import (PI_BOUNDS_SPEC, PI_BOUNDS_SPEC_BROKEN, PSI_BOUNDS_LEDGER,
                        PSI_RATIO_SPEC, BoundsLedger, CoefficientSequence,
                        CombinationSpec, CombinationTerm, coefficient_sequence,
                        combination_constant, derive_bounds,
                        empirical_bracket_check, psi_coefficient_sequence,
                        psi_variant_bounds, reconstruct_series_value,
                        verify_alternating)
from .decomposition import (MAX_DECOMPOSE_N, Decomposition, DivisorInterval,
                            decompose, equivalence_check, prime_divides)
from .errors import (BinomfactorError, DomainError, NonAlternatingError,
                     OutOfRangeError)
from .identities import (FactorialRatioSpec, IdentityReport,
                         alternating_pi_sum, bertrand_check,
                         factorial_ratio_report, log_factorial,
                         log_factorial_prefix, omega_identity_report,
                         omega_pi_series)
from .logseries import (SeriesState, block_term, log3_closed_form_check,
                        partial_sum, ratio_series_residual, telescoping_check)
from .primes import (DEFAULT_LIMIT, MAX_LIMIT, PrimeTable, binom_exponent,
                     integer_root, legendre_exponent, omega_binom_oracle)

__all__ = [name for name in dir() if not name.startswith("_")]
