from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, permutations

import pytest

from cyclolab.arith import inverse_phi, profile
from cyclolab.ordering import (
    GREATER,
    LESS,
    certify_consecutive,
    check_3mod4_criterion,
    compare_large,
    compare_small,
    gap,
    ordered_prefix,
    phi_class_sorted,
)
from cyclolab.polycore import cyclotomic, eval_rational


class TestCompareLarge:
    def test_examples(self):
        assert compare_large(1, 2) == LESS
        assert compare_large(18, 9) == LESS
        assert compare_large(15, 30) == LESS

    def test_rejects_equal(self):
        with pytest.raises(ValueError):
            compare_large(4, 4)

    def test_agrees_with_evaluation_smoke(self):
        for m, n in combinations(range(1, 40), 2):
            sign3 = eval_rational(cyclotomic(m), 3) - eval_rational(cyclotomic(n), 3)
            assert compare_large(m, n) == (LESS if sign3 < 0 else GREATER)


class TestCompareSmall:
    def test_examples(self):
        assert compare_small(1, 5) == LESS
        assert compare_small(9, 3) == LESS
        assert compare_small(2, 3) == LESS
        # Phi_2's (1, 1) is a prefix of Phi_30's (1, 1, 0, -1, ...), and zero padding decides
        assert compare_small(30, 2) == LESS

    def test_agrees_with_evaluation_to_200(self):
        pts = (Fraction(1, 2), Fraction(1, 4))
        values = {x: {n: eval_rational(cyclotomic(n), x) for n in range(1, 201)} for x in pts}
        for m, n in combinations(range(1, 201), 2):
            got = compare_small(m, n)
            for x in pts:
                diff = values[x][m] - values[x][n]
                assert diff != 0
                assert got == (LESS if diff < 0 else GREATER), (m, n, x)

    def test_prime_power_descent(self):
        for p in (2, 3, 5, 7, 11, 13):
            for i in range(1, 6):
                assert compare_small(p ** (i + 1), p ** i) == LESS

    def test_prime_ascent(self):
        primes = [p for p in range(2, 101) if all(p % d for d in range(2, p))]
        for a, b in zip(primes, primes[1:]):
            assert compare_small(a, b) == LESS


class TestPhiClasses:
    def test_class_two(self):
        assert phi_class_sorted(2) == [6, 4, 3]

    def test_class_six(self):
        assert phi_class_sorted(6) == [14, 18, 9, 7]

    def test_nontotient(self):
        assert phi_class_sorted(3) == []

    def test_prefix(self):
        assert ordered_prefix(1) == [1, 2]
        assert ordered_prefix(2) == [1, 2, 6, 4, 3]
        assert ordered_prefix(8)[-5:] == [15, 20, 24, 16, 30]

    def test_class_order_matches_evaluation_oracle(self):
        for k in (2, 4, 6, 8, 10, 12, 16):
            members = phi_class_sorted(k)
            vals = [eval_rational(cyclotomic(n), 3) for n in members]
            assert vals == sorted(vals)

    def test_sorted_by_key_matches_comparator_sort(self):
        for k in range(1, 97):
            assert phi_class_sorted(k) == sorted(inverse_phi(k), key=cmp_to_key(compare_large)), k

    def test_total_order_on_classes(self):
        # antisymmetry and transitivity within every class of totient <= 48
        for k in range(1, 49):
            members = inverse_phi(k)
            for m, n in combinations(members, 2):
                assert compare_large(m, n) == -compare_large(n, m)
            order = phi_class_sorted(k)
            for i, j in combinations(range(len(order)), 2):
                assert compare_large(order[i], order[j]) == LESS


class TestGap:
    @pytest.mark.parametrize("n,g", [(2, 1), (12, 2), (9, 3), (1, 1)])
    def test_values(self, n, g):
        assert gap(n) == g

    def test_matches_coefficients(self):
        # the series expansion against the gap read off the coefficients
        for n in range(1, 2001):
            cs = cyclotomic(n).coeffs
            top = len(cs) - 1
            below = max(i for i, c in enumerate(cs[:-1]) if c)
            assert gap(n) == top - below, n

    def test_equals_qpart_smoke(self):
        for n in range(2, 800):
            assert gap(n) == profile(n).qpart


class TestConsecutive:
    def test_pairs(self):
        assert certify_consecutive(18, 9).consecutive
        assert certify_consecutive(22, 11).consecutive

    def test_not_consecutive(self):
        cert = certify_consecutive(14, 7)
        assert not cert.consecutive
        assert set(cert.between) == {18, 9}

    def test_certificate_lists_classes(self):
        cert = certify_consecutive(18, 9)
        assert dict(cert.classes)[6] == (14, 18, 9, 7)

    def test_across_totients(self):
        assert certify_consecutive(2, 6).consecutive  # last of phi=1 meets first of phi=2

    def test_between_matches_pairwise_comparisons(self):
        # the slice of the sorted classes against a comparison of every member
        by_comparator = cmp_to_key(compare_large)
        indices = [n for k in range(1, 13) for n in inverse_phi(k)]
        for m, n in permutations(indices, 2):
            lo, hi = (m, n) if compare_large(m, n) == LESS else (n, m)
            ks = range(profile(lo).phi, profile(hi).phi + 1)
            classes = tuple((k, tuple(sorted(inverse_phi(k), key=by_comparator))) for k in ks if inverse_phi(k))
            members = [t for _, ts in classes for t in ts if t not in (m, n)]
            want = [t for t in members if compare_large(lo, t) == LESS and compare_large(t, hi) == LESS]
            cert = certify_consecutive(m, n)
            assert (cert.classes, list(cert.between), cert.consecutive) == (classes, want, not want), (m, n)


class TestCriterion3Mod4:
    @pytest.mark.parametrize(
        "p,expect",
        [(11, True), (7, False), (3, False), (19, False), (23, True), (31, True)],
    )
    def test_values(self, p, expect):
        assert check_3mod4_criterion(p) is expect

    def test_rejects_wrong_residue(self):
        with pytest.raises(ValueError):
            check_3mod4_criterion(13)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            check_3mod4_criterion(15)
