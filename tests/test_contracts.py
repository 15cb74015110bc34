"""Contract checks in the package must hold under `python -O`, which
strips `assert` statements, so the package may contain none.  Every
integer argument is checked, and a float is refused with `DomainError`.
The pi prefix's format is known to `PrimeTable` alone."""

import ast
from pathlib import Path

import numpy as np
import pytest

import binomfactor
from binomfactor import (PI_BOUNDS_SPEC, CoefficientSequence, CombinationTerm,
                         DomainError, FactorialRatioSpec, bertrand_check, block_term,
                         coefficient_sequence, derive_bounds,
                         factorial_ratio_report, log3_closed_form_check,
                         log_factorial_prefix, omega_growth_constant,
                         omega_identity_report, omega_pi_series, partial_sum,
                         psi_variant_bounds, ratio_series_residual,
                         reconstruct_series_value, telescoping_check)


def test_package_has_no_assert():
    paths = sorted(Path(binomfactor.__file__).parent.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {found}"


def test_pi_prefix_read_only_inside_prime_table():
    """Outside the `PrimeTable` class body no code names ``.pi_prefix``:
    every reader goes through `pi_at` or `pi_on_quotients`, so a change
    of the prefix's storage stays inside the class."""
    found = []
    for path in sorted(Path(binomfactor.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == "PrimeTable"
                  for node in ast.walk(cls)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "pi_prefix"
                  and id(node) not in inside]
    assert not found, f"pi_prefix read outside PrimeTable: {found}"


#: Entry points that take an integer argument, each as f(table, x) with x
#: in one integer slot, and the int that slot is tested with.
INTEGER_ENTRY_POINTS = {
    "bertrand_check": (lambda t, x: bertrand_check(x, t), 10),
    "FactorialRatioSpec": (lambda t, x: FactorialRatioSpec((x,), (x,)), 2),
    "omega_growth_constant": (lambda t, x: omega_growth_constant(x, 1), 3),
    "CombinationTerm.expansion_divisors":
        (lambda t, x: CombinationTerm(1, x, 6).expansion_divisors(), 2),
    "omega_identity_report": (lambda t, x: omega_identity_report(2, 1, x, t), 100),
    "omega_pi_series": (lambda t, x: omega_pi_series(2, 1, x, t), 100),
    "factorial_ratio_report":
        (lambda t, x: factorial_ratio_report(FactorialRatioSpec((2,), (1, 1)), x, t), 10),
    "log_ratio": (lambda t, x: FactorialRatioSpec((2,), (1, 1)).log_ratio(x), 10),
    "log_factorial_prefix": (lambda t, x: log_factorial_prefix(x).tolist(), 10),
    "psi_variant_bounds": (lambda t, x: psi_variant_bounds([x], t), 10),
    "reconstruct_series_value":
        (lambda t, x: reconstruct_series_value(coefficient_sequence(PI_BOUNDS_SPEC), x, t),
         1000),
    "derive_bounds": (lambda t, x: derive_bounds(PI_BOUNDS_SPEC, iterations=x), 3),
    "CoefficientSequence": (lambda t, x: CoefficientSequence((x, -1)), 1),
    "PrimeTable.primes_up_to": (lambda t, x: t.primes_up_to(x).tolist(), 10),
    "CoefficientSequence.coefficient":
        (lambda t, x: coefficient_sequence(PI_BOUNDS_SPEC).coefficient(x), 12),
    "partial_sum": (lambda t, x: partial_sum(x, 10), 3),
    "block_term": (lambda t, x: block_term(3, x), 2),
    "telescoping_check": (lambda t, x: telescoping_check(x), 10),
    "ratio_series_residual": (lambda t, x: ratio_series_residual(x, 10), 3),
    "log3_closed_form_check": (lambda t, x: log3_closed_form_check(x), 10),
}


@pytest.mark.parametrize("entry", sorted(INTEGER_ENTRY_POINTS))
def test_float_argument_refused(table_small, entry):
    """A float, even an integral one, is refused with `DomainError`, and a
    numpy integer gives what the int it equals gives."""
    f, x = INTEGER_ENTRY_POINTS[entry]
    with pytest.raises(DomainError):
        f(table_small, float(x))
    with pytest.raises(DomainError):
        f(table_small, x + 0.5)
    assert f(table_small, np.int64(x)) == f(table_small, x)
