from fractions import Fraction
from math import gcd

import pytest

from cyclolab import rationalcheck
from cyclolab.polycore import cyclotomic, eval_homogeneous_cyclotomic, eval_rational
from cyclolab.rationalcheck import (
    EXCEPTION_BANG_2_6,
    EXCEPTION_MERSENNE_N2,
    primitive_prime_divisor,
    verify_integer_coincidences,
    verify_rational_coincidences,
)


class TestPrimitivePrimeDivisor:
    def test_bang_exception(self):
        res = primitive_prime_divisor(2, 1, 6)
        assert res.prime is None and res.exception == EXCEPTION_BANG_2_6

    def test_mersenne_exception(self):
        res = primitive_prime_divisor(3, 1, 2)
        assert res.exception == EXCEPTION_MERSENNE_N2
        res = primitive_prime_divisor(7, 1, 2)
        assert res.exception == EXCEPTION_MERSENNE_N2

    def test_two_to_fourth(self):
        # 2^4 - 1 = 15; the earlier values 1, 3, 7 rule out 3 and 7
        res = primitive_prime_divisor(2, 1, 4)
        assert res.prime == 5
        assert (2 ** 2 - 1) % 5 != 0 and (2 ** 3 - 1) % 5 != 0

    def test_rational_base(self):
        res = primitive_prime_divisor(3, 2, 4)
        assert res.prime is not None
        assert (3 ** 4 - 2 ** 4) % res.prime == 0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            primitive_prime_divisor(4, 2, 3)
        with pytest.raises(ValueError):
            primitive_prime_divisor(2, 3, 5)
        with pytest.raises(ValueError):
            primitive_prime_divisor(2, 1, 1)

    def test_primitivity_over_grid(self):
        for a in range(2, 13):
            for n in range(2, 41):
                res = primitive_prime_divisor(a, 1, n)
                if res.prime is None:
                    assert (n == 6 and a == 2) or (n == 2 and (a + 1) & a == 0)
                    continue
                p = res.prime
                assert eval_homogeneous_cyclotomic(n, a, 1) % p == 0
                for k in range(1, n):
                    assert (a ** k - 1) % p != 0, (a, n, k)


class TestIntegerCoincidences:
    def test_smallest_box(self):
        rep = verify_integer_coincidences(2, 6)
        assert rep.coincidences == ((2, 2, 6),)
        assert rep.holds

    def test_medium_box(self):
        rep = verify_integer_coincidences(4, 20)
        assert rep.coincidences == ((2, 2, 6),)

    def test_values_cross_check(self):
        assert eval_rational(cyclotomic(2), 2) == eval_rational(cyclotomic(6), 2) == 3

    def test_negative_reduction_matches_direct_evaluation(self):
        # the index transformation must agree with direct evaluation at -a
        for a in (2, 3, 5):
            for m in range(1, 30):
                direct = eval_rational(cyclotomic(m), -a)
                if m == 1:
                    assert direct == -(a + 1)
                elif m == 2:
                    assert direct == 1 - a
                elif m % 2 == 1:
                    assert direct == eval_rational(cyclotomic(2 * m), a)
                elif m % 4 == 2:
                    assert direct == eval_rational(cyclotomic(m // 2), a)
                else:
                    assert direct == eval_rational(cyclotomic(m), a)

    def test_domain(self):
        with pytest.raises(ValueError):
            verify_integer_coincidences(1, 10)


class TestRationalCoincidences:
    def test_height_five(self):
        rep = verify_rational_coincidences(5, 30)
        assert rep.coincidences == ()
        assert rep.holds
        assert rep.points_checked == 5  # 3/2, 4/3, 5/2, 5/3, 5/4

    def test_homogeneous_contrast_with_integer_case(self):
        # at 3/2 the indices 2 and 6 no longer collide: 5 * 2^2 != 7 * 2^1
        v2 = eval_homogeneous_cyclotomic(2, 3, 2)
        v6 = eval_homogeneous_cyclotomic(6, 3, 2)
        assert (v2, v6) == (5, 7)
        assert v2 * 2 ** 2 != v6 * 2 ** 1

    def test_constant_pair_never_collides(self):
        # indices 1 and 2 differ by the constant 2 at every point
        for a in range(3, 8):
            for b in range(2, a):
                if gcd(a, b) == 1:
                    x = Fraction(a, b)
                    assert eval_rational(cyclotomic(1), x) != eval_rational(cyclotomic(2), x)


class TestPointKernel:
    def test_indices_evaluated_only_when_compared(self, monkeypatch):
        # per point the m <= M, and 2m only for the odd m in (M/2, M]
        # that the negative point reads: 50 + 12 indices at M = 50
        calls = []
        evaluate = rationalcheck.eval_homogeneous_cyclotomic
        monkeypatch.setattr(
            rationalcheck, "eval_homogeneous_cyclotomic", lambda m, a, b: calls.append(m) or evaluate(m, a, b)
        )
        rep = verify_rational_coincidences(5, 50)
        assert (rep.points_checked, rep.coincidences) == (5, ())
        assert len(calls) == 5 * 62
        assert sorted(set(calls)) == list(range(1, 51)) + list(range(54, 101, 4))
        calls.clear()
        rep = verify_integer_coincidences(10, 50)
        assert (rep.pairs_checked, rep.coincidences) == (22050, ((2, 2, 6),))
        assert len(calls) == 9 * 62
