import math

import pytest

from binomfactor import (PI_BOUNDS_SPEC, PI_BOUNDS_SPEC_BROKEN, PSI_BOUNDS_LEDGER,
                         PSI_RATIO_SPEC, CoefficientSequence, CombinationSpec, CombinationTerm,
                         DomainError, NonAlternatingError, OutOfRangeError,
                         coefficient_sequence, combination_constant, derive_bounds,
                         empirical_bracket_check, omega_pi_series,
                         psi_coefficient_sequence, psi_variant_bounds,
                         reconstruct_series_value, verify_alternating)

PLUS_RESIDUES = frozenset({2, 14, 22, 26, 34, 38, 46, 58})
MINUS_RESIDUES = frozenset({12, 20, 24, 30, 36, 40, 48, 60})


class TestTermValidation:
    def test_sign_checked(self):
        with pytest.raises(DomainError):
            CombinationTerm(2, 2, 6)

    def test_divisibility_checked(self):
        with pytest.raises(DomainError):
            CombinationTerm(1, 4, 6)

    def test_expansion_divisors(self):
        assert CombinationTerm(1, 2, 6).expansion_divisors() == ((2, 1), (3, -1), (6, -1))
        assert CombinationTerm(1, 3, 12).expansion_divisors() == ((3, 1), (4, -1), (12, -1))
        assert CombinationTerm(1, 10, 60).expansion_divisors() == ((10, 1), (12, -1), (60, -1))

    def test_non_integral_scaling_rejected(self):
        # a*b/(b-a) = 3*15/12 is not an integer: the term is refused when built
        with pytest.raises(DomainError, match=r"a\*b/\(b-a\) is not an integer"):
            CombinationTerm(1, 3, 15)

    def test_k_multiple(self):
        assert PI_BOUNDS_SPEC.k_multiple == 60
        assert PI_BOUNDS_SPEC_BROKEN.k_multiple == 420


class TestCoefficientSequence:
    def test_classical_residue_sets(self):
        seq = coefficient_sequence(PI_BOUNDS_SPEC)
        assert seq.period == 60
        assert seq.residues_with_sign(+1) == PLUS_RESIDUES
        assert seq.residues_with_sign(-1) == MINUS_RESIDUES

    def test_single_central_term_alternates_everywhere(self):
        seq = coefficient_sequence(CombinationSpec((CombinationTerm(1, 1, 2),)))
        assert seq.period == 2
        assert seq.coefficient(1) == 1 and seq.coefficient(2) == -1
        assert verify_alternating(seq) is None

    def test_empty_spec_zero_sequence(self):
        seq = coefficient_sequence(CombinationSpec(()))
        assert not any(seq.values)
        assert verify_alternating(seq) is None
        with pytest.raises(DomainError):
            CoefficientSequence(())

    def test_period_is_minimised(self):
        # double up a term: coefficients double but the period stays minimal
        seq = coefficient_sequence(CombinationSpec(
            (CombinationTerm(1, 1, 2), CombinationTerm(1, 2, 4))))
        assert seq.period in (2, 4)
        direct = coefficient_sequence(CombinationSpec((CombinationTerm(1, 1, 2),)))
        assert direct.period == 2

    def test_period_refused_at_first_partial_lcm(self):
        # terms (1, a, 2a) for a <= 30000: the lcm of all their divisors has
        # 43,227 bits; it is refused at the first partial lcm past the cap,
        # 2 * lcm(1..16) at a = 16, before the whole lcm is built
        spec = CombinationSpec(tuple(CombinationTerm(1, a, 2 * a) for a in range(1, 30001)))
        with pytest.raises(OutOfRangeError, match="need period lcm <= 1000000, got 1441440$"):
            derive_bounds(spec)

    def test_coefficient_bound(self, table_medium):
        # |c| <= 2^32 keeps the int64 quotient sum exact up to MAX_LIMIT;
        # past it a coefficient is refused: at k = 10^6, 2^62 summed to 0
        # and 10^30 raised a bare OverflowError
        k = 10**6
        one = reconstruct_series_value(CoefficientSequence((1,)), k, table_medium)
        for c in (1 << 32, -(1 << 32)):
            assert reconstruct_series_value(CoefficientSequence((c, c)), k,
                                            table_medium) == c * one
        for c in (1 << 62, 10**30, (1 << 32) + 1, -(1 << 62)):
            with pytest.raises(OutOfRangeError, match="largest [|]coefficient[|]"):
                CoefficientSequence((1, c))

    def test_reconstruction_matches_series_sum(self, table_medium):
        # expanding the sequence against pi at a concrete k reproduces the
        # signed sum of the per-term series exactly
        for k in (60, 600, 6000):
            via_seq = reconstruct_series_value(
                coefficient_sequence(PI_BOUNDS_SPEC), k, table_medium)
            via_terms = sum(
                t.sign * omega_pi_series(t.ratio, 1, k // t.b, table_medium)
                for t in PI_BOUNDS_SPEC.terms)
            assert via_seq == via_terms

    def test_series_value_out_of_range(self, table_small):
        for k in (table_small.limit + 1, 10**30):
            with pytest.raises(OutOfRangeError):
                reconstruct_series_value(coefficient_sequence(PI_BOUNDS_SPEC),
                                         k, table_small)


class TestAlternation:
    def test_classical_spec_alternates(self):
        assert verify_alternating(coefficient_sequence(PI_BOUNDS_SPEC)) is None

    def test_broken_spec_fails_at_26(self):
        # appending the fourth term leaves +1 at both 22 and 26
        seq = coefficient_sequence(PI_BOUNDS_SPEC_BROKEN)
        assert verify_alternating(seq) == 26
        assert seq.coefficient(22) == 1 and seq.coefficient(26) == 1
        assert seq.coefficient(24) == 0

    def test_must_start_positive(self):
        seq = coefficient_sequence(CombinationSpec((CombinationTerm(-1, 1, 2),)))
        assert verify_alternating(seq) == 1


class TestCombinationConstant:
    def test_intermediate_constants(self):
        from binomfactor import omega_growth_constant
        assert omega_growth_constant(3, 1) / 3 == pytest.approx(0.6365, abs=1e-4)
        assert omega_growth_constant(4, 1) / 4 == pytest.approx(0.5623, abs=1e-4)
        assert omega_growth_constant(6, 1) / 6 == pytest.approx(0.4505, abs=1e-4)

    def test_classical_value(self):
        assert combination_constant(PI_BOUNDS_SPEC) == pytest.approx(0.460, abs=1e-3)
        expected = (math.log(27 / 4) / 6 + math.log(256 / 27) / 12
                    - math.log(46656 / 3125) / 60)
        assert combination_constant(PI_BOUNDS_SPEC) == pytest.approx(expected, rel=1e-14)

    def test_single_central_term(self):
        spec = CombinationSpec((CombinationTerm(1, 1, 2),))
        assert combination_constant(spec) == pytest.approx(math.log(2), rel=1e-15)


class TestDeriveBounds:
    def test_classical_ledger(self):
        ledger = derive_bounds(PI_BOUNDS_SPEC, anchor_divisor=12)
        assert ledger.lower_bound == pytest.approx(0.92, abs=5e-3)
        assert ledger.lead_index == 2 and ledger.anchor_index == 12
        u1, u2, u3 = ledger.upper_iterations
        assert u1 == pytest.approx(1.26, abs=0.01)
        assert u2 == pytest.approx(1.135, abs=0.01)
        assert u3 == pytest.approx(1.11, abs=0.01)
        assert ledger.fixed_point == pytest.approx(
            2 * ledger.combination_constant / (1 - 2 / 12), rel=1e-15)
        assert ledger.fixed_point == pytest.approx(1.1055, abs=1e-3)

    def test_iterations_decrease_toward_fixed_point(self):
        ledger = derive_bounds(PI_BOUNDS_SPEC, iterations=8)
        us = ledger.upper_iterations
        assert all(a > b for a, b in zip(us, us[1:]))
        assert all(u > ledger.fixed_point for u in us)
        assert us[-1] == pytest.approx(ledger.fixed_point, abs=1e-4)

    def test_non_alternating_refused(self):
        with pytest.raises(NonAlternatingError) as err:
            derive_bounds(PI_BOUNDS_SPEC_BROKEN)
        assert err.value.index == 26

    def test_anchor_mismatch_rejected(self):
        with pytest.raises(DomainError):
            derive_bounds(PI_BOUNDS_SPEC, anchor_divisor=10)

    def test_anchor_past_int_str_named_by_bit_length(self):
        # its digits would raise a bare ValueError past Python's int-to-str limit
        with pytest.raises(DomainError, match="anchor divisor an integer of 16610 bits"):
            derive_bounds(PI_BOUNDS_SPEC, anchor_divisor=10**5000)

    def test_ledger_holds_its_sequence(self):
        assert derive_bounds(PI_BOUNDS_SPEC).sequence == coefficient_sequence(PI_BOUNDS_SPEC)

    def test_empty_spec_all_zero(self):
        # the zero ledger would claim pi(x) < 0 * x/log x
        with pytest.raises(DomainError, match="all zero"):
            derive_bounds(CombinationSpec(()))


class TestEmpiricalBracket:
    def test_holds_on_grid(self, table_medium):
        rows = empirical_bracket_check(PI_BOUNDS_SPEC, [60, 600, 60_000], table_medium)
        assert all(r.holds for r in rows)

    def test_correction_is_small(self, table_medium):
        rows = empirical_bracket_check(PI_BOUNDS_SPEC, [6000], table_medium)
        assert abs(rows[0].correction) <= 5 * math.isqrt(6000 // 60)

    def test_rejects_bad_multiple(self, table_small):
        with pytest.raises(DomainError):
            empirical_bracket_check(PI_BOUNDS_SPEC, [90], table_small)

    def test_rejects_non_alternating(self, table_small):
        with pytest.raises(NonAlternatingError):
            empirical_bracket_check(PI_BOUNDS_SPEC_BROKEN, [420], table_small)

    @pytest.mark.parametrize("spec", [
        CombinationSpec(()),
        CombinationSpec((CombinationTerm(+1, 2, 6), CombinationTerm(-1, 2, 6))),
    ], ids=["empty", "cancelling"])
    def test_rejects_zero_combination(self, table_small, spec):
        # there is no lead or anchor term to bound with or read pi at
        with pytest.raises(DomainError, match="all zero"):
            derive_bounds(spec)
        with pytest.raises(DomainError, match="all zero"):
            empirical_bracket_check(spec, [60], table_small)

    @pytest.mark.parametrize("k", [40_020, 60 * 10**20])
    def test_out_of_range(self, table_small, k):
        # 40_020 / 2 = 20_010 passes the 20_000 table
        with pytest.raises(OutOfRangeError):
            empirical_bracket_check(PI_BOUNDS_SPEC, [k], table_small)

    def test_sequence_expanded_once_per_spec(self, table_small, monkeypatch):
        # the (lead, anchor) pair is derived on a spec's first bracket
        # check and kept on that spec, so a second call with it expands no
        # coefficient sequence; an equal spec derives its own, as no
        # module cache is shared between specs
        import binomfactor.chebyshev as chebyshev
        calls = []
        expand = chebyshev._sequence_from_divisors

        def counted(weighted):
            calls.append(1)
            return expand(weighted)
        monkeypatch.setattr(chebyshev, "_sequence_from_divisors", counted)
        spec = CombinationSpec((CombinationTerm(+1, 3, 12), CombinationTerm(-1, 10, 60),
                                CombinationTerm(+1, 2, 6)))
        first = empirical_bracket_check(spec, [600], table_small)
        again = empirical_bracket_check(spec, [6000], table_small)
        assert len(calls) == 1
        assert empirical_bracket_check(CombinationSpec(spec.terms), [600], table_small) == first
        assert len(calls) == 2
        assert first == empirical_bracket_check(PI_BOUNDS_SPEC, [600], table_small)
        assert again == empirical_bracket_check(PI_BOUNDS_SPEC, [6000], table_small)


class TestPsiVariant:
    def test_spec_period_is_multiplier_lcm(self):
        assert PSI_RATIO_SPEC.period == 30

    def test_sequence_shape(self):
        seq = psi_coefficient_sequence(PSI_RATIO_SPEC)
        assert seq.period == 30
        assert seq.coefficient(1) == 1
        assert verify_alternating(seq) is None
        assert seq.values[:6] == (1, 0, 0, 0, 0, -1)   # the anchor is 6

    def test_combination_constant(self):
        expected = math.log(30**30 / (15**15 * 10**10 * 6**6)) / 30
        assert PSI_BOUNDS_LEDGER.combination_constant == pytest.approx(expected, rel=1e-12)
        assert PSI_BOUNDS_LEDGER.combination_constant == pytest.approx(0.9212, abs=1e-4)

    def test_ledger_indices(self):
        assert PSI_BOUNDS_LEDGER.lead_index == 1
        assert PSI_BOUNDS_LEDGER.anchor_index == 6
        assert PSI_BOUNDS_LEDGER.fixed_point == pytest.approx(
            PSI_BOUNDS_LEDGER.combination_constant / (1 - 1 / 6), rel=1e-15)

    def test_ledger_holds_its_sequence(self):
        ledger = PSI_BOUNDS_LEDGER
        assert ledger.sequence == psi_coefficient_sequence(PSI_RATIO_SPEC)
        assert ledger.initial_upper == 2.0 and len(ledger.upper_iterations) == 3

    def test_bracket_rows_hold(self, table_medium):
        rows = psi_variant_bounds([7, 1000, 30_000], table_medium)
        assert [r.k for r in rows] == [7, 1000, 30_000]
        assert all(r.holds for r in rows)
