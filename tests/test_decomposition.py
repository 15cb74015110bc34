import csv
import dataclasses
import hashlib
import io
import json
import math
import random
import tracemalloc
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import binomfactor.decomposition as decomposition
from binomfactor import (MAX_DECOMPOSE_N, MAX_LIMIT, DomainError,
                         OutOfRangeError, binom_exponent,
                         canonical_integer_form, decompose, equivalence_check,
                         integer_root, prime_divides)
from binomfactor.decomposition import (_level_range_arrays,
                                       integer_membership_mask,
                                       level_prime_count)
from binomfactor.primes import _quotients


def canonical_level1_pairs(n, k, count=None):
    dec = decompose(n, k)
    rows = canonical_integer_form(dec)[1]
    pairs = [(c.lower, c.upper) for c in rows]
    return pairs[:count] if count else pairs


def to_json_dict(dec):
    """The decompose wire format as a dict: {n, k, levels: [{i, intervals:
    [...]}]} with exact numerator/denominator endpoint pairs, level i
    listing a prefix of the level-1 records.  The byte reference of
    `Decomposition.json_chunks` and `csv_chunks`."""
    ivs = []
    for a, b, c, d, j, f in (dec.columns[1].T.tolist() if dec.columns else []):
        rec = {"lower": {"num": a, "den": b}, "upper": {"num": c, "den": d},
               "branch": "A" if f >= 0 else "B", "j": j}
        if f >= 0:
            rec["f"] = f
        ivs.append(rec)
    return {"n": dec.n, "k": dec.k,
            "levels": [{"i": i, "intervals": ivs[:cols.shape[1]]}
                       for i, cols in dec.columns.items()]}


def assert_disjoint(dec):
    """Sorted by lower endpoint, each interval of a level ends at or below
    the next one's start (exact `Fraction`s built from the columns)."""
    for i, cols in dec.columns.items():
        asc = sorted((Fraction(a, b), Fraction(c, d))
                     for a, b, c, d in cols[:4].T.tolist())
        for (_, upper), (lower, _) in zip(asc, asc[1:]):
            assert upper <= lower, (dec.n, dec.k, i)


class TestShowcaseDecompositions:
    def test_2000_1000_prefix(self):
        assert canonical_level1_pairs(2000, 1000, 4) == [
            (1000, 2000), (500, 666), (333, 400), (250, 285)]

    def test_2000_800_prefix(self):
        assert canonical_level1_pairs(2000, 800, 6) == [
            (1200, 2000), (800, 1000), (600, 666), (400, 500), (300, 333), (266, 285)]

    def test_2000_800_exact_endpoints(self):
        dec = decompose(2000, 800)
        top = dec.levels[1][:3]
        assert (top[0].lower, top[0].upper) == (Fraction(1200), Fraction(2000))
        assert (top[1].lower, top[1].upper) == (Fraction(800), Fraction(1000))
        assert (top[2].lower, top[2].upper) == (Fraction(600), Fraction(2000, 3))

    def test_membership_1999(self, table_small):
        dec = decompose(2000, 1000)
        assert prime_divides(dec, 1999)
        assert binom_exponent(1999, 2000, 1000) > 0

    def test_membership_997_excluded(self, table_small):
        dec = decompose(2000, 1000)
        assert not prime_divides(dec, 997)
        assert binom_exponent(997, 2000, 1000) == 0

    def test_small_membership_at_higher_level(self):
        dec = decompose(4, 2)
        # 2 | C(4,2) = 6, witnessed by 2^1 in some interval
        assert prime_divides(dec, 2)
        assert prime_divides(dec, 3)
        assert not prime_divides(dec, 5)


class TestDegenerateInputs:
    def test_diagonal_empty(self):
        dec = decompose(5, 5)
        assert not dec.columns
        assert dec.max_root_index == 0

    def test_k_zero_empty(self):
        assert not decompose(7, 0).columns

    def test_k_above_n_rejected(self):
        with pytest.raises(DomainError):
            decompose(5, 6)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            decompose(5, -1)

    def test_size_cap(self):
        with pytest.raises(OutOfRangeError):
            decompose(MAX_DECOMPOSE_N + 1, 1)
        with pytest.raises(OutOfRangeError):
            decompose(100_000_000, 50_000_000)

    @pytest.mark.parametrize("p", [-2, 0, 1, 4])
    def test_prime_divides_refuses_non_primes(self, p):
        with pytest.raises(DomainError):
            prime_divides(decompose(2000, 1000), p)

    def test_cap_itself_accepted(self):
        n, k = MAX_DECOMPOSE_N, MAX_DECOMPOSE_N // 3
        dec = decompose(n, k)
        for p in (2, 3, 999_983, 666_667):
            assert prime_divides(dec, p) == (binom_exponent(p, n, k) > 0)

    def test_degenerate_interval_raises(self, monkeypatch):
        # (d, j) = (3, 3) at (10, 3) would give the interval (7, 10/3]
        def broken(n, k):
            return np.array([3]), np.array([3])
        monkeypatch.setattr(decomposition, "_level_index", broken)
        with pytest.raises(DomainError, match="degenerate"):
            decompose(10, 3)

    def test_out_of_order_enumeration_raises(self, monkeypatch):
        # valid intervals in the wrong order would make the level
        # prefixes wrong; decompose must refuse them
        real = decomposition._level_index

        def reversed_d(n, k):
            d, j = real(n, k)
            return d[::-1], j[::-1]
        assert len(real(100, 37)[0]) > 1
        monkeypatch.setattr(decomposition, "_level_index", reversed_d)
        with pytest.raises(DomainError, match="out of order"):
            decompose(100, 37)

    def test_columns_read_only(self):
        dec = decompose(100, 37)
        with pytest.raises(ValueError):
            dec.columns[1][0, 0] = 1

    def test_decomposition_immutable(self):
        dec = decompose(100, 37)
        assert dec.max_root_index == 6 and dec.levels[1]  # cached readers work
        with pytest.raises(dataclasses.FrozenInstanceError):
            dec.n = 99
        with pytest.raises(TypeError):
            dec.columns[1] = None
        with pytest.raises(TypeError):
            del dec.columns[2]
        prefix = dec.columns[3]
        assert not prefix.flags.writeable
        assert np.shares_memory(prefix, dec.columns[1])
        with pytest.raises(ValueError):
            prefix[0, 0] = 1
        # neither the floors behind prime_divides and max_root_index nor
        # the levels mapping can be changed from outside
        dec = decompose(2000, 1000)
        assert prime_divides(dec, 1999) and dec.max_root_index == 10
        for arr in dec._floors:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[:] = 0
        assert prime_divides(dec, 1999) and dec.max_root_index == 10
        assert isinstance(dec.levels, MappingProxyType)
        first = dec.levels[1]
        with pytest.raises(TypeError):
            dec.levels[1] = ()
        assert dec.levels[1] is first and len(first) == dec.columns[1].shape[1]


class TestCanonicalForm:
    def test_floored_endpoint(self):
        dec = decompose(2000, 1000)
        # the 2000/3 endpoint displays as 666
        second = canonical_integer_form(dec)[1][1]
        assert second.upper == 666
        assert dec.levels[1][1].upper == Fraction(2000, 3)

    def test_integer_endpoints_unchanged(self):
        first = canonical_integer_form(decompose(2000, 1000))[1][0]
        assert (first.lower, first.upper) == (1000, 2000)

    def test_degenerate_flagged(self):
        # hunt a degenerate floored interval in a few decompositions
        found = False
        for n, k in [(50, 21), (101, 43), (211, 90), (499, 201)]:
            for rows in canonical_integer_form(decompose(n, k)).values():
                for c in rows:
                    if c.empty:
                        assert c.lower == c.upper
                        found = True
        assert found

    def test_membership_equivalent(self, table_small):
        # floored intervals hold exactly the same primes as the rationals
        dec = decompose(997, 401)
        rows = canonical_integer_form(dec)[1]
        ivs = dec.levels[1]
        for p in table_small.primes_up_to(997).tolist():
            exact = any(iv.lower < p <= iv.upper for iv in ivs)
            floored = any(c.lower < p <= c.upper for c in rows)
            assert exact == floored


class TestDisjointness:
    @pytest.mark.parametrize("n,k", [(2000, 1000), (2000, 800), (977, 333), (144, 89)])
    def test_levels_disjoint(self, n, k):
        assert_disjoint(decompose(n, k))

    def test_single_interval_trivially_disjoint(self):
        assert_disjoint(decompose(3, 2))


class TestBranchOrderings:
    """The endpoint chains that decide which branch an index pair takes."""

    @pytest.mark.parametrize("n,k", [(2000, 800), (100, 37), (541, 108), (60, 25)])
    def test_branch_a_chain(self, n, k):
        dec = decompose(n, k)
        for iv in dec.levels[1]:
            if iv.branch != "A":
                continue
            j, f = iv.j, iv.f
            a1 = Fraction(k, j)
            b1 = Fraction(n, f + j + 1)
            c1 = Fraction(n - k, f + 1)
            assert a1 <= b1 <= c1
            assert iv.lower == c1

    @pytest.mark.parametrize("n,k", [(2000, 800), (100, 37), (541, 108), (60, 25)])
    def test_branch_b_chain(self, n, k):
        dec = decompose(n, k)
        for iv in dec.levels[1]:
            if iv.branch != "B":
                continue
            j = iv.j
            t = (n * j) // k
            a1 = Fraction(k, j)
            b1 = Fraction(n, t + 1)
            c1 = Fraction(n - k, t - j + 1)
            assert c1 < b1 < a1
            assert iv.lower == a1
            assert (n * j) % k != 0


class TestCentralSpecialisation:
    def test_central_coefficients(self):
        # n = 2k: level 1 is exactly {(k/j, 2k/(2j-1)]} and branch B is empty
        for k in list(range(1, 200)) + [512, 777, 1000]:
            dec = decompose(2 * k, k)
            ivs = dec.levels.get(1, ())
            assert all(iv.branch == "A" for iv in ivs)
            expected = []
            j = 1
            while 2 * k >= 2 * (2 * j - 1):
                expected.append((Fraction(k, j), Fraction(2 * k, 2 * j - 1)))
                j += 1
            assert [(iv.lower, iv.upper) for iv in ivs] == expected


class TestTruncationSoundness:
    @pytest.mark.parametrize("n,k", [(2, 1), (100, 37), (2000, 800), (4096, 1)])
    def test_no_power_beyond_max_level(self, n, k):
        dec = decompose(n, k)
        assert 2 ** (dec.max_root_index + 1) > n

    def test_max_level_has_integer_content(self):
        dec = decompose(2000, 1000)
        top = dec.levels[dec.max_root_index]
        assert any(
            iv.upper.numerator // iv.upper.denominator >= 2
            and iv.upper.numerator // iv.upper.denominator
            > iv.lower.numerator // iv.lower.denominator
            for iv in top)


class TestFastPathAgreesWithIntervals:
    @pytest.mark.parametrize("n,k", [(60, 25), (100, 37), (541, 108), (2000, 800)])
    def test_level_arrays_match_materialised(self, n, k):
        dec = decompose(n, k)
        lo, hi = _level_range_arrays(n, k, np.arange(1, n // 2 + 1))
        # the floors behind prime_divides and the pretty form, read from
        # the columns, are the full enumeration's in ascending order
        assert np.array_equal(dec._floors[0], lo[::-1])
        assert np.array_equal(dec._floors[1], hi[::-1])
        for i, ivs in dec.levels.items():
            keep = hi >= 1 << i
            got = sorted(zip(lo[keep].tolist(), hi[keep].tolist()))
            want = sorted(
                (iv.lower.numerator // iv.lower.denominator,
                 iv.upper.numerator // iv.upper.denominator)
                for iv in ivs)
            assert got == want

    @pytest.mark.parametrize("n,k", [(100, 37), (400, 123)])
    def test_mask_matches_prime_divides(self, n, k, table_small):
        mask = integer_membership_mask(n, k)
        dec = decompose(n, k)
        for p in table_small.primes_up_to(n).tolist():
            assert mask[p] == prime_divides(dec, p)

    def test_level_one_mask_is_level_one_carry(self, table_medium):
        # level 1 of the mask holds exactly the primes p with a carry at
        # p itself: floor(n/p) - floor(k/p) - floor((n-k)/p) = 1
        rng = random.Random(1709)
        pairs = [(n, k) for n in range(2, 301) for k in range(1, n)]
        pairs += [(n, rng.randint(1, n - 1))
                  for n in (rng.randint(2, 10**6) for _ in range(200))]
        for n, k in pairs:
            primes = table_medium.primes_up_to(n)
            carry = (n // primes - k // primes - (n - k) // primes) > 0
            mask = integer_membership_mask(n, k, level=1)[primes]
            assert np.array_equal(mask, carry), (n, k)


class TestEquivalence:
    def test_showcase_pairs(self, table_small):
        assert equivalence_check(2000, 1000, table_small) is None
        assert equivalence_check(2000, 800, table_small) is None

    def test_small_exhaustive(self, table_small):
        for n in range(1, 120):
            for k in range(n + 1):
                assert equivalence_check(n, k, table_small) is None, (n, k)

    @given(st.integers(1, 2500).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n))))
    @settings(max_examples=60, deadline=None)
    def test_prime_divides_matches_binom_exponent(self, table_small, nk):
        n, k = nk
        dec = decompose(n, k)
        for p in table_small.primes_up_to(n).tolist():
            assert prime_divides(dec, p) == (binom_exponent(p, n, k) > 0), p
        for level in to_json_dict(dec)["levels"]:
            for iv in level["intervals"]:
                lo, hi = iv["lower"], iv["upper"]
                assert math.gcd(lo["num"], lo["den"]) == 1
                assert math.gcd(hi["num"], hi["den"]) == 1
                assert lo["num"] * hi["den"] < hi["num"] * lo["den"]
        assert_disjoint(dec)

    def test_random_midsize(self, table_medium):
        rng = random.Random(4242)
        for _ in range(60):
            n = rng.randint(2, 100_000)
            k = rng.randint(1, n)
            assert equivalence_check(n, k, table_medium) is None, (n, k)

    def test_out_of_range(self, table_small):
        with pytest.raises(OutOfRangeError):
            equivalence_check(30_000, 10, table_small)

    def test_oracle_count_matches_decomposition_count(self, table_small):
        from binomfactor import omega_binom_oracle
        count, primes = omega_binom_oracle(table_small, 2000, 1000)
        mask = integer_membership_mask(2000, 1000)
        assert count == 208
        assert int(mask[table_small.primes_up_to(2000)].sum()) == count


class TestJsonShape:
    def test_schema(self):
        doc = json.loads("".join(decompose(12, 5).json_chunks()))
        assert set(doc) == {"n", "k", "levels"}
        assert doc["n"] == 12 and doc["k"] == 5
        for level in doc["levels"]:
            assert set(level) == {"i", "intervals"}
            for iv in level["intervals"]:
                assert {"lower", "upper", "branch", "j"} <= set(iv)
                assert set(iv["lower"]) == {"num", "den"}
                if iv["branch"] == "A":
                    assert "f" in iv
                else:
                    assert "f" not in iv

    def test_endpoints_in_lowest_terms(self):
        doc = json.loads("".join(decompose(2000, 800).json_chunks()))
        for level in doc["levels"]:
            for iv in level["intervals"]:
                assert math.gcd(iv["lower"]["num"], iv["lower"]["den"]) == 1
                assert math.gcd(iv["upper"]["num"], iv["upper"]["den"]) == 1


def _reference_json(dec):
    return json.dumps(to_json_dict(dec), sort_keys=True, indent=2) + "\n"


class TestJsonChunks:
    """`json_chunks` must write the bytes of the pure-Python indenting
    encoder over `to_json_dict`, which it replaces on the CLI."""

    def test_every_pair_up_to_120(self):
        # covers k = 0 and k = n, whose decompositions are empty; the
        # reference encoder takes ~2 ms a pair here, so bytes are compared
        # up to n = 50 and parsed values over the whole range
        for n in range(1, 121):
            for k in range(n + 1):
                dec = decompose(n, k)
                text = "".join(dec.json_chunks())
                if n <= 50:
                    assert text == _reference_json(dec), (n, k)
                else:
                    assert json.loads(text) == to_json_dict(dec), (n, k)

    def test_seeded_and_extreme_pairs(self):
        rng = random.Random(8)
        pairs = [(n, rng.randint(1, n - 1))
                 for n in (rng.randint(121, 5000) for _ in range(40))]
        for n, k in pairs + [(20000, 1), (20000, 19999)]:
            dec = decompose(n, k)
            chunks = list(dec.json_chunks())
            assert "".join(chunks) == _reference_json(dec), (n, k)
            assert max(map(len, chunks)) < 300 * decomposition._TEXT_BLOCK

    def test_empty_level(self):
        # decompose never yields one (d = 1 is in every level); the layout
        # still follows the encoder's
        dec = decomposition.Decomposition(1, 0, MappingProxyType(
            {1: np.empty((6, 0), dtype=np.int64)}))
        assert "".join(dec.json_chunks()) == _reference_json(dec)
        assert '"intervals": []' in _reference_json(dec)


def _reference_csv(dec):
    """The CSV the CLI wrote through csv.DictWriter: one row dict per
    record per level of `to_json_dict`, under the sorted keys."""
    rows = [{"level": lv["i"], "branch": iv["branch"], "j": iv["j"],
             "f": iv.get("f", ""),
             "lower_num": iv["lower"]["num"], "lower_den": iv["lower"]["den"],
             "upper_num": iv["upper"]["num"], "upper_den": iv["upper"]["den"]}
            for lv in to_json_dict(dec)["levels"] for iv in lv["intervals"]]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=sorted({key for row in rows for key in row}))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


class TestCsvChunks:
    """`csv_chunks` must write the bytes of csv.DictWriter over the rows
    of `to_json_dict`, which it replaces on the CLI."""

    def test_every_pair_up_to_60(self):
        # covers k = 0 and k = n, whose header is just the line end
        for n in range(1, 61):
            for k in range(n + 1):
                dec = decompose(n, k)
                assert "".join(dec.csv_chunks()) == _reference_csv(dec), (n, k)
        assert "".join(decompose(9, 0).csv_chunks()) == "\r\n"

    def test_seeded_and_extreme_pairs(self, monkeypatch):
        # a small block puts many chunk edges inside every level
        rng = random.Random(9)
        pairs = [(n, rng.randint(1, n - 1))
                 for n in (rng.randint(61, 5000) for _ in range(20))]
        for block in (decomposition._TEXT_BLOCK, 7):
            monkeypatch.setattr(decomposition, "_TEXT_BLOCK", block)
            for n, k in pairs + [(20000, 1), (20000, 19999)]:
                dec = decompose(n, k)
                chunks = list(dec.csv_chunks())
                assert "".join(chunks) == _reference_csv(dec), (n, k, block)
                assert max(map(len, chunks)) < 100 * block

    def test_empty_level(self):
        dec = decomposition.Decomposition(1, 0, MappingProxyType(
            {1: np.empty((6, 0), dtype=np.int64)}))
        assert "".join(dec.csv_chunks()) == _reference_csv(dec) == "\r\n"


def _reference_pretty(dec, exact):
    """The pretty text the CLI wrote through the `canonical_integer_form`
    rows and the `to_json_dict` records, with one `integer_root` per
    interval per level."""
    def ratio(end):
        return str(end["num"]) if end["den"] == 1 else f"{end['num']}/{end['den']}"
    lines = [f"prime divisors of C({dec.n}, {dec.k}) lie in:"]
    canonical = canonical_integer_form(dec)
    if exact:
        shown = {lv["i"]: [f"({ratio(iv['lower'])}, {ratio(iv['upper'])}]"
                           for iv in lv["intervals"]]
                 for lv in to_json_dict(dec)["levels"]}
    else:
        shown = {}
        for i, rows in canonical.items():
            roots = [(integer_root(c.lower, i), integer_root(c.upper, i)) for c in rows]
            shown[i] = [f"({lo}, {hi}]" for lo, hi in roots if hi > lo and hi >= 2]
    for i, parts in shown.items():
        if parts:
            label = f"  level {i}: " if i == 1 else f"  level {i} (p^{i} witnesses): p in "
            lines.append(label + " u ".join(parts))
    if not any(canonical.values()):
        lines.append("  (empty: the coefficient is 1)")
    return "\n".join(lines) + "\n"


class TestPrettyChunks:
    """`pretty_chunks`, with and without ``exact``, must write the text of
    `_reference_pretty`, which it replaces on the CLI."""

    def test_every_pair_up_to_120(self):
        # covers k = 0 and k = n, whose decompositions are empty
        for n in range(1, 121):
            for k in range(n + 1):
                dec = decompose(n, k)
                for exact in (False, True):
                    assert "".join(dec.pretty_chunks(exact)) == \
                        _reference_pretty(dec, exact), (n, k, exact)

    @pytest.mark.parametrize("n,k", [(2**17, 2**16), (3**10, 3**9)])
    def test_perfect_powers(self, n, k):
        # the floored endpoints hit exact powers, where an i-th root
        # read one power off would show
        dec = decompose(n, k)
        for exact in (False, True):
            assert "".join(dec.pretty_chunks(exact)) == _reference_pretty(dec, exact)

    def test_seeded_pairs(self, monkeypatch):
        # n log-uniform up to 2*10^5, the reference's cost growing with n;
        # a small block puts many chunk edges inside every exact level
        rng = random.Random(13)
        pairs = [(n, rng.randint(1, n - 1))
                 for n in (int(10 ** rng.uniform(2.1, math.log10(2e5))) for _ in range(20))]
        for n, k in pairs:
            dec = decompose(n, k)
            assert "".join(dec.pretty_chunks()) == _reference_pretty(dec, False), (n, k)
            want = _reference_pretty(dec, True)
            for block in (decomposition._TEXT_BLOCK, 7):
                monkeypatch.setattr(decomposition, "_TEXT_BLOCK", block)
                assert "".join(dec.pretty_chunks(exact=True)) == want, (n, k, block)
            monkeypatch.undo()

    def test_empty_level(self):
        dec = decomposition.Decomposition(1, 0, MappingProxyType(
            {1: np.empty((6, 0), dtype=np.int64)}))
        for exact in (False, True):
            text = "".join(dec.pretty_chunks(exact))
            assert text == _reference_pretty(dec, exact)
            assert text.endswith("(empty: the coefficient is 1)\n")


def _reference_level_index(n, k, i):
    """The two-branch per-level enumeration: branch A indexed by (j, f),
    branch B by j, holding the intervals at root level i with upper
    denominator at most floor(n / 2^i), enumerated afresh."""
    d_max = n >> i
    if d_max < 1 or k == 0 or k == n:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, empty
    jmax_a = (k * d_max - 1) // n + 1
    j = np.arange(1, jmax_a + 1, dtype=np.int64)
    f0 = (n * (j - 1)) // k - j + 1
    f1 = np.minimum((n * j) // k - j - 1, d_max - j)
    lengths = np.maximum(f1 - f0 + 1, 0)
    total = int(lengths.sum())
    j_rep = np.repeat(j, lengths)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    f = (np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)) + np.repeat(f0, lengths)
    jmax_b = ((d_max + 1) * k - 1) // n
    jb = np.arange(1, jmax_b + 1, dtype=np.int64)
    nj = n * jb
    t = nj // k
    keep = (nj % k) != 0
    return j_rep, f, jb[keep], t[keep]


def _reference_columns(n, k, i):
    """Merged, reduced (6, m) columns of root level i from its own
    enumeration."""
    ja, fa, jb, tb = _reference_level_index(n, k, i)
    cols_a = np.stack([np.full_like(fa, n - k), fa + 1, np.full_like(fa, n), fa + ja, ja, fa])
    cols_b = np.stack([np.full_like(jb, k), jb, np.full_like(jb, n), tb, jb, np.full_like(jb, -1)])
    at = np.searchsorted(fa, -((-(n - k) * jb) // k) - 2, side="right")
    cols = np.insert(cols_a, at, cols_b, axis=1)
    for num, den in (cols[0:2], cols[2:4]):
        g = np.gcd(num, den)
        num //= g
        den //= g
    return cols


def _sha(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


class TestPrefixLevels:
    """Every root level is read off the one level-1 enumeration by upper
    denominator; it must equal the level enumerated on its own by the two
    (j, f) branches, and the outputs must keep the bytes recorded when
    each level was still enumerated separately."""

    @staticmethod
    def _check(n, k):
        dec = decompose(n, k)
        want = range(1, n.bit_length()) if 0 < k < n else ()
        assert list(dec.columns) == list(want), (n, k)
        for i in want:
            ref = _reference_columns(n, k, i)
            assert dec.columns[i].shape == ref.shape, (n, k, i)
            assert np.array_equal(dec.columns[i], ref), (n, k, i)

    def test_levels_match_per_level_enumeration_small(self):
        for n in range(1, 201):
            for k in range(n + 1):
                self._check(n, k)

    def test_levels_match_per_level_enumeration_seeded(self):
        rng = random.Random(5151)
        for _ in range(100):
            n = rng.randint(2, 10**5)
            self._check(n, rng.randint(0, n))
        # the edges of k, and n divisible by 12 with k = n/4 and n/6,
        # where every 4th or 6th cell d holds no interval
        for _ in range(20):
            n = rng.randint(2, 10**4)
            for k in (1, 2, n - 1, n // 2):
                self._check(n, k)
            n = 12 * rng.randint(1, 10**4 // 12)
            self._check(n, n // 4)
            self._check(n, n // 6)

    @pytest.mark.parametrize("n", [MAX_DECOMPOSE_N - 1, MAX_DECOMPOSE_N - 12,
                                   999_983, MAX_DECOMPOSE_N])
    def test_level_one_matches_near_cap(self, n):
        for k in (1, n // 3, n // 2, n - 1):
            ref = _reference_columns(n, k, 1)
            assert np.array_equal(decompose(n, k).columns[1], ref), (n, k)

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (4, 1), (5, 2), (6, 1), (10, 3)])
    def test_level_prime_count_is_level_one_carry(self, table_large, n, m):
        # the benchmark's series ratios, at N = nk close to 10^7
        k = 10**7 // n
        big, small = n * k, m * k
        p = table_large.primes_up_to(big)
        carry = int((big // p - small // p - (big - small) // p > 0).sum())
        assert level_prime_count(table_large, big, small) == carry

    def test_level_prime_count_past_table_raises(self, table_small):
        # counts clamped at the table limit would be wrong, not merely short
        with pytest.raises(OutOfRangeError):
            level_prime_count(table_small, table_small.limit + 2, 1)

    MASK_GOLDENS = {
        (10**6, 333333, None): "85f04afdc309144cd6488419a7189059b85231345e2054ba3c42a3e8578c54ff",
        (10**6, 333333, 1): "cf0e6ff65f4008e4d36bf6126f73d59f41ee83b88e7948c26c501d9f20225660",
        (10**6, 333333, 2): "186fe277af117d5977d58ef08f5f1dde354320581b766c7ac8dc2261aff2af93",
        (10**5, 40000, None): "20ec346cf03f2df6988195d5fd07f8d89d71aa5190961fe60e955f794890fd25",
        (10**5, 40000, 1): "7cd00ef43a587b9ce226b591064d0c40d689ceee32dde1747384e051b2e6f280",
        (10**5, 40000, 2): "e176b2c4a13762f8b1854a3644f098d73184d4796d6ba6dfd9a31a70023b0bd7",
        (999, 500, None): "f9dc1b2b3bdb6e6cab89d9b623b87e4fab4b0c6e0c7e751c5e9322b845521f56",
        (999, 500, 1): "2f4ae3ff61b2b37181e8c40f14e85aad707cec9068510b3d02d933baad6ed814",
        (999, 500, 2): "99aa381fa0440ef7e53a2e87b0f6d1bb5bb0e5728f9938825ad68b19795ef4a3",
    }

    @pytest.mark.parametrize("n,k,level", list(MASK_GOLDENS))
    def test_mask_golden(self, n, k, level):
        mask = integer_membership_mask(n, k, level=level)
        assert mask.dtype == bool and mask.shape == (n + 1,)
        assert _sha(mask) == self.MASK_GOLDENS[n, k, level]

    def test_columns_golden(self):
        dec = decompose(10**5, 40000)
        assert [c.shape[1] for c in dec.columns.values()] == [
            40000, 20000, 10000, 5000, 2500, 1250, 625, 312, 156, 78, 39, 20, 10, 5, 3, 1]
        cat = np.concatenate(list(dec.columns.values()), axis=1)
        assert cat.dtype == np.int64
        assert _sha(cat) == "8c798fdc5f2bd35cb8140f7b90626df94e9cc0894dd3743d133abaff401dc985"

    def test_mask_rejects_level_zero(self):
        with pytest.raises(DomainError):
            integer_membership_mask(100, 37, level=0)

    @pytest.mark.parametrize("n,k", [(10, -3), (10, 11), (0, 0)])
    def test_mask_rejects_bad_pair(self, n, k):
        with pytest.raises(DomainError):
            integer_membership_mask(n, k)


class TestLevelBlocks:
    """`level_prime_count` reads only the cells that hold an integer; it
    must equal the count over the full enumeration, and read its cells in
    one call through `_level_range_arrays`."""

    @staticmethod
    def _one_shot(table, n, k):
        lo, hi = _level_range_arrays(n, k, np.arange(1, n // 2 + 1))
        return int((table.pi_prefix[hi] - table.pi_prefix[lo]).sum())

    def test_every_pair_up_to_300(self, table_small):
        for n in range(1, 301):
            for k in range(n + 1):
                assert level_prime_count(table_small, n, k) == (
                    self._one_shot(table_small, n, k)), (n, k)

    def test_seeded_pairs_to_ten_million(self, table_large):
        rng = random.Random(777)
        for _ in range(30):
            n = rng.randint(2, 10**7)
            k = rng.randint(0, n)
            assert level_prime_count(table_large, n, k) == (
                self._one_shot(table_large, n, k)), (n, k)

    def test_witness_reads_cells_in_one_call(self, table_large, monkeypatch):
        # bench/tracer.py counts the cells by wrapping this module global
        seen = []
        real = decomposition._level_range_arrays

        def counted(*args):
            out = real(*args)
            seen.append(len(out[0]))
            return out
        monkeypatch.setattr(decomposition, "_level_range_arrays", counted)
        n, k = 10**7, 5 * 10**6
        level_prime_count(table_large, n, k)
        assert seen == [len(real(n, k, _quotients(n)[:0:-1])[0])]
        assert 0 < seen[0] <= 2 * math.isqrt(n)

    def test_transient_memory_bounded(self, table_large):
        # one full enumeration at this pair peaks at ~114 MiB
        tracemalloc.start()
        try:
            level_prime_count(table_large, 10**7, 5 * 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def _sqrt_edges(r):
    return (r * r - 1, r * r, r * r + r - 1, r * r + r, r * r + r + 1)


class TestQuotients:
    """`_quotients(x)` is the set {floor(x/j) : j >= 1}, strictly
    descending, in at most 2*isqrt(x) int64 values."""

    @staticmethod
    def _check(x):
        q = _quotients(x)
        assert q.dtype == np.int64
        assert np.array_equal(q, np.unique(x // np.arange(1, x + 1))[::-1]), x
        assert (np.diff(q) < 0).all(), x
        assert q.size <= 2 * math.isqrt(x), x

    def test_every_x_up_to_3000(self):
        for x in range(1, 3001):
            self._check(x)

    def test_sqrt_edges(self):
        for r in [*range(2, 101), 316, 317, 999, 1000, 3162, 3163]:
            for x in _sqrt_edges(r):
                self._check(x)

    @pytest.mark.parametrize("x", [10**7 - 1, 10**7])
    def test_ten_million(self, x):
        self._check(x)


class TestIntegerCells:
    """The level-1 cells that hold an integer are `_quotients(n)[:0:-1]`;
    every other cell holds none."""

    def test_other_cells_hold_no_integer(self):
        for n in range(1, 2001):
            d = np.arange(1, (n >> 1) + 1)
            other = d[~np.isin(d, _quotients(n)[:0:-1])]
            assert np.array_equal(n // other, n // (other + 1)), n


def _reference_masks(n, k, levels):
    """The membership masks at the given root levels over the full
    enumeration, every cell painted with bincount and cumsum."""
    lo, hi = _level_range_arrays(n, k, np.arange(1, n // 2 + 1))
    acc = np.bincount(lo + 1, minlength=n + 2)
    acc -= np.bincount(hi + 1, minlength=n + 2)
    covered = np.cumsum(acc, out=acc)[:n + 1] > 0
    roots = {i: np.arange(2, integer_root(n, i) + 1)
             for i in range(2, max(n.bit_length(), 4))}
    masks = {1: covered}
    for i, r in roots.items():
        masks[i] = np.zeros(n + 1, dtype=bool)
        masks[i][r] = covered[r ** i]
    masks[None] = np.logical_or.reduce([masks[i] for i in range(1, n.bit_length())]
                                       + [covered])
    return [masks[level] for level in levels]


class TestMaskOverIntegerCells:
    """`integer_membership_mask` reads only the cells that hold an integer;
    it must equal the full enumeration wherever both can run."""

    @staticmethod
    def _check(n, k, levels=(None, 1, 2, 3)):
        for level, want in zip(levels, _reference_masks(n, k, levels)):
            assert np.array_equal(integer_membership_mask(n, k, level),
                                  want), (n, k, level)

    def test_every_pair_up_to_300(self):
        for n in range(1, 301):
            for k in range(n + 1):
                self._check(n, k)

    def test_seeded_pairs_to_a_million(self):
        rng = random.Random(2718)
        for _ in range(200):
            n = rng.randint(2, 10**6)
            self._check(n, rng.randint(0, n), levels=(None,))

    def test_sqrt_edges(self):
        rng = random.Random(3141)
        for r in (2, 3, 7, 31, 100, 316, 1000):
            for n in _sqrt_edges(r):
                for k in {1, 2, n // 3, n // 2, n - 1, rng.randint(0, n)}:
                    self._check(n, k)

    def test_overlapping_runs_raise(self, monkeypatch):
        # valid intervals read twice overlap; the mask must refuse them
        real = decomposition._level_range_arrays

        def doubled(n, k, d):
            lo, hi = real(n, k, d)
            return np.repeat(lo, 2), np.repeat(hi, 2)
        monkeypatch.setattr(decomposition, "_level_range_arrays", doubled)
        with pytest.raises(DomainError, match="overlapping"):
            integer_membership_mask(100, 37)

    def test_budget(self, monkeypatch):
        # the limit reaches the painting; one past it is refused before
        # anything n-sized is allocated
        class Painted(Exception):
            pass

        def repeat(*args, **kwargs):
            raise Painted
        monkeypatch.setattr(np, "repeat", repeat)
        with pytest.raises(Painted):
            integer_membership_mask(MAX_LIMIT, MAX_LIMIT // 3)
        for n in (MAX_LIMIT + 1, 10**12):
            with pytest.raises(OutOfRangeError):
                integer_membership_mask(n, 5)

    def test_transient_memory_bounded(self):
        # the full enumeration painted with bincount peaked at ~210 MiB
        tracemalloc.start()
        try:
            integer_membership_mask(10**7, 5 * 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20
