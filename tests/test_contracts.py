"""Contract checks in the package must hold under `python -O`, which
strips `assert` statements, so the package may contain none.  Every
integer argument is checked, and a float is refused with `DomainError`;
its single bounds are checked by the same helper.  The pi table's format
is known to `PrimeTable` alone."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import binomfactor
from binomfactor import (PI_BOUNDS_SPEC, CoefficientSequence, CombinationTerm,
                         DomainError, FactorialRatioSpec, OutOfRangeError,
                         bertrand_check, binom_exponent, block_term,
                         coefficient_sequence, convergence_sweep, decompose,
                         derive_bounds, empirical_bracket_check,
                         equivalence_check, factorial_ratio_report,
                         integer_root, log3_closed_form_check, log_factorial,
                         log_factorial_prefix,
                         omega_binom_oracle, omega_growth_constant,
                         omega_identity_report, omega_pi_series, partial_sum,
                         psi_variant_bounds, ratio_series_residual,
                         reconstruct_series_value, sparse_regime_table,
                         telescoping_check)
from binomfactor.decomposition import (integer_membership_mask,
                                       level_prime_count, pretty_chunks)
from binomfactor.primes import MAX_FLOAT_INT, _as_int


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
    """Outside the `PrimeTable` class body no code names ``.pi_base`` or
    ``.pi_offset``: every reader goes through `pi`, `pi_at` or
    `pi_on_quotients`, so a change of pi's storage stays inside the
    class."""
    found = []
    for path in sorted(Path(binomfactor.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == "PrimeTable"
                  for node in ast.walk(cls)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("pi_base", "pi_offset")
                  and id(node) not in inside]
    assert not found, f"pi levels read outside PrimeTable: {found}"


#: The one module cache left: `identities._LOGFACT`, the log(x!)
#: checkpoints, filled behind its lock until log(x!) needs no build.
_MODULE_STATE_ALLOWED = {"identities.log_factorial_prefix"}


def _scoped(node, scope):
    """(qualified name of the innermost enclosing def or class, node) for
    every node below ``node``, a def or class itself named within it."""
    for child in ast.iter_child_nodes(node):
        inner = (f"{scope}.{child.name}" if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else scope)
        yield inner, child
        yield from _scoped(child, inner)


def test_no_module_state():
    """No code in the package keeps state between calls: no `global` or
    `nonlocal` statement and no `functools.cache` or `lru_cache`
    decorator, outside `_MODULE_STATE_ALLOWED`.  State that belongs to
    one object goes on it (`functools.cached_property`)."""
    found = []
    for path in sorted(Path(binomfactor.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope, node in _scoped(tree, path.stem):
            decorators = [d.func if isinstance(d, ast.Call) else d
                          for d in getattr(node, "decorator_list", ())]
            cached = any(getattr(d, "attr", getattr(d, "id", None)) in ("cache", "lru_cache")
                         for d in decorators)
            if (cached or isinstance(node, (ast.Global, ast.Nonlocal))) \
                    and scope not in _MODULE_STATE_ALLOWED:
                found.append(f"{scope} ({path.name}:{node.lineno})")
    assert not found, f"module state outside the allow-list: {found}"


def test_longdouble_is_x87_extended():
    assert np.finfo(np.longdouble).nmant == 63, (
        "np.longdouble is not the x87 80-bit format: the golden digests and "
        "the longdouble leaf-tree tests assume it, as psi and log(x!) "
        "accumulate in it")


def test_single_bounds_checked_only_in_as_int():
    """Outside `primes._as_int` no ``if`` refuses a single bound, i.e.
    compares a name by one <, <=, > or >= with an int literal or a
    ``MAX_*`` name and raises `DomainError` or `OutOfRangeError`: every
    such check is ``_as_int(value, name, lo, hi)``, so a value below a
    domain floor raises `DomainError` and one past a budget or a table's
    limit `OutOfRangeError`, wherever the check is."""
    def bound(node):
        return (isinstance(node, ast.Constant) and type(node.value) is int
                or isinstance(node, ast.Name) and node.id.startswith("MAX_"))

    def single_bound(test):
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], (ast.Lt, ast.LtE, ast.Gt, ast.GtE))):
            return False
        sides = (test.left, test.comparators[0])
        return any(isinstance(a, ast.Name) and bound(b) for a, b in (sides, sides[::-1]))

    def refuses(body):
        return any(isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                   and getattr(node.exc.func, "id", None) in ("DomainError", "OutOfRangeError")
                   for stmt in body for node in ast.walk(stmt))

    found = []
    for path in sorted(Path(binomfactor.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == "_as_int"
                  for node in ast.walk(fn)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.If) and id(node) not in inside
                  and single_bound(node.test) and refuses(node.body)]
    assert not found, f"single bound refused by hand, not by _as_int: {found}"


@pytest.mark.parametrize("value,lo,hi,error", [
    (10**5000, None, 5, OutOfRangeError),
    (-10**5000, 0, None, DomainError),
], ids=["hi", "lo"])
def test_huge_int_refused_by_bit_length(value, lo, hi, error):
    """An int past Python's int-to-str limit (4300 digits by default) is
    refused on either side with the bound's error, named by its bit
    length, not with the ValueError its digits would raise."""
    with pytest.raises(error, match=r"got an? (negative )?integer of 16610 bits$"):
        _as_int(value, "n", lo=lo, hi=hi)
    # a value of a printable size keeps its digits
    with pytest.raises(error, match=r"got -?6$"):
        _as_int(6 if hi else -6, "n", lo=lo, hi=hi)


def test_huge_multiplier_refused():
    """A `FactorialRatioSpec` multiplier past `MAX_FLOAT_INT` is refused
    at construction with `OutOfRangeError`, not with the OverflowError
    that `log_ratio` (int64) or `growth_rate` (float) would raise; one at
    the cap still builds and reads."""
    for value in (MAX_FLOAT_INT + 1, 2**70, 2**2000):
        with pytest.raises(OutOfRangeError, match="multiplier"):
            FactorialRatioSpec((value, 1), (value, 1))
    spec = FactorialRatioSpec((MAX_FLOAT_INT, 1), (MAX_FLOAT_INT, 1))
    assert spec.log_ratio(0) == 0.0 and spec.growth_rate == 0.0


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
    "log_factorial_prefix": (lambda t, x: log_factorial_prefix(x).tolist(), 100),
    "log_factorial": (lambda t, x: log_factorial(x), 10),
    "psi_variant_bounds": (lambda t, x: psi_variant_bounds([x], t), 10),
    "reconstruct_series_value":
        (lambda t, x: reconstruct_series_value(coefficient_sequence(PI_BOUNDS_SPEC), x, t),
         1000),
    "derive_bounds": (lambda t, x: derive_bounds(PI_BOUNDS_SPEC, iterations=x), 3),
    "CoefficientSequence": (lambda t, x: CoefficientSequence((x, -1)), 1),
    "PrimeTable.primes_up_to": (lambda t, x: t.primes_up_to(x).tolist(), 10),
    "PrimeTable.prime_powers_up_to":
        (lambda t, x: [a.tolist() for a in t.prime_powers_up_to(x)], 100),
    "CoefficientSequence.coefficient":
        (lambda t, x: coefficient_sequence(PI_BOUNDS_SPEC).coefficient(x), 12),
    "partial_sum": (lambda t, x: partial_sum(x, 10), 3),
    "derive_bounds.anchor_divisor":
        (lambda t, x: derive_bounds(PI_BOUNDS_SPEC, anchor_divisor=x), 12),
    "block_term": (lambda t, x: block_term(3, x), 2),
    "telescoping_check": (lambda t, x: telescoping_check(x), 10),
    "ratio_series_residual": (lambda t, x: ratio_series_residual(x, 10), 3),
    "log3_closed_form_check": (lambda t, x: log3_closed_form_check(x), 10),
    "empirical_bracket_check":
        (lambda t, x: empirical_bracket_check(PI_BOUNDS_SPEC, [x], t), 60),
    "convergence_sweep": (lambda t, x: convergence_sweep(2, 1, [x], t), 10),
    "integer_root": (lambda t, x: integer_root(x, 3), 1000),
}


@pytest.mark.parametrize("entry", sorted(INTEGER_ENTRY_POINTS))
def test_float_argument_refused(table_small, entry):
    """A float, even an integral one, or a str is refused with
    `DomainError`, and a numpy integer gives what the int it equals gives."""
    f, x = INTEGER_ENTRY_POINTS[entry]
    for bad in (float(x), x + 0.5, str(x)):
        with pytest.raises(DomainError):
            f(table_small, bad)
    assert f(table_small, np.int64(x)) == f(table_small, x)


@pytest.mark.parametrize("call,got", [
    (lambda t: decompose(10**5000, 10**5001),
     "n=an integer of 16610 bits, k=an integer of 16613 bits"),
    (lambda t: omega_pi_series(10**5000, 10**5001, 1, t),
     "n=an integer of 16610 bits, m=an integer of 16613 bits"),
    (lambda t: omega_growth_constant(5, 10**5000), "n=5, m=an integer of 16610 bits"),
], ids=["decompose", "omega_pi_series", "omega_growth_constant"])
def test_relational_refusal_names_huge_values_by_bit_length(table_small, call, got):
    """A refusal that relates two values names each as `_as_int` does: a
    value past Python's int-to-str limit by its bit length, not with the
    ValueError its digits would raise."""
    with pytest.raises(DomainError, match=f"got {got}$"):
        call(table_small)


#: Every public entry point that takes a pair (n, k) or a triple (n, m, k),
#: as f(table, n, m, k); a pair ignores m.
RELATIONAL_ENTRY_POINTS = {
    "decompose": lambda t, n, m, k: decompose(n, k),
    "pretty_chunks": lambda t, n, m, k: pretty_chunks(n, k),
    "integer_membership_mask": lambda t, n, m, k: integer_membership_mask(n, k),
    "level_prime_count": lambda t, n, m, k: level_prime_count(t, n, k),
    "omega_binom_oracle": lambda t, n, m, k: omega_binom_oracle(t, n, k),
    "equivalence_check": lambda t, n, m, k: equivalence_check(n, k, t),
    "binom_exponent": lambda t, n, m, k: binom_exponent(3, n, k),
    "sparse_regime_table": lambda t, n, m, k: sparse_regime_table([(n, k)], t),
    "omega_growth_constant": lambda t, n, m, k: omega_growth_constant(n, m),
    "omega_pi_series": lambda t, n, m, k: omega_pi_series(n, m, k, t),
    "omega_identity_report": lambda t, n, m, k: omega_identity_report(n, m, k, t),
    "convergence_sweep": lambda t, n, m, k: convergence_sweep(n, m, [k], t),
}

#: Ints from below every domain floor to past the table (limit 20,000) and
#: every budget, then huge ones (up to 2^15000, past Python's 4,300-digit
#: int-to-str limit) of either sign.  Between 10^5 and 2^31 a valid call
#: may paint a mask of n bytes, so that band is left to the sized tests.
_INTS = st.one_of(
    st.integers(-3, 10**5),
    st.builds(lambda bits, sign, d: sign * ((1 << bits) + d),
              st.integers(31, 15_000), st.sampled_from((1, -1)), st.integers(-3, 3)))

_ARGUMENTS = st.one_of(_INTS, st.integers(-3, 10**5).map(np.int64), st.floats(),
                       st.text(max_size=4), st.none())


@pytest.mark.parametrize("entry", sorted(RELATIONAL_ENTRY_POINTS))
@given(n=_ARGUMENTS, m=_ARGUMENTS, k=_ARGUMENTS)
@example(n=10**5000, m=10**5001, k=10**5001)
@example(n=5, m=10**5000, k=1)
@example(n=np.int64(2), m=np.int64(2), k=1 << 62)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_relational_entry_points_return_or_refuse(table_small, entry, n, m, k):
    """Given any arguments, each entry point returns a value or refuses
    with `DomainError` or `OutOfRangeError`; nothing else escapes."""
    try:
        RELATIONAL_ENTRY_POINTS[entry](table_small, n, m, k)
    except (DomainError, OutOfRangeError):
        pass
