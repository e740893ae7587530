from fractions import Fraction

import pytest

from cyclolab import bounds as bounds_mod
from cyclolab import polycore as polycore_mod
from cyclolab.bounds import (
    check_complex_bounds,
    check_real_bounds,
    f_ratio,
    g_value,
    lemma_tail_gap,
)
from cyclolab.arith import profile
from cyclolab.certified import sqrt_interval
from cyclolab.polycore import cyclotomic, eval_gaussian, eval_rational

HALF = Fraction(1, 2)


class TestTailGap:
    def test_base_point(self):
        left, right, holds = lemma_tail_gap(Fraction(2), 1)
        assert holds
        # partial sums to the fixed tail depth, plus a rigorous tail
        assert abs(left.value - Fraction(693147, 10 ** 6)) < Fraction(1, 10 ** 5)
        assert abs(right.value - Fraction(548915, 10 ** 6)) < Fraction(1, 10 ** 3)

    def test_deeper_k(self):
        assert lemma_tail_gap(Fraction(2), 5)[2]

    def test_wider_margin_at_four(self):
        l2, r2, _ = lemma_tail_gap(Fraction(2), 1)
        l4, r4, h4 = lemma_tail_gap(Fraction(4), 1)
        assert h4
        assert l4.value - r4.value > l2.value - r2.value

    def test_rejects_small_x(self):
        with pytest.raises(ValueError):
            lemma_tail_gap(Fraction(3, 2), 1)

    def test_rejects_k_at_the_tail_depth(self):
        assert bounds_mod.TAIL_DEPTH == 64
        lemma_tail_gap(Fraction(2), 63)
        with pytest.raises(ValueError, match="tail depth 64"):
            lemma_tail_gap(Fraction(2), 64)

    def test_holds_on_grid(self):
        for x in (Fraction(2), Fraction(5, 2), Fraction(3), Fraction(10)):
            for k in (1, 2, 3, 8):
                assert lemma_tail_gap(x, k)[2]


class TestFRatio:
    def test_examples(self):
        assert f_ratio(1, Fraction(2)).value == HALF
        assert f_ratio(2, Fraction(2)).value == Fraction(3, 2)
        assert f_ratio(6, Fraction(3)).value == Fraction(7, 9)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            f_ratio(5, Fraction(0))

    def test_mirror_identity_full_range(self):
        # Phi_n(x)/x^phi equals Phi_n(1/x) exactly for every 2 <= n <= 500
        for n in range(2, 501):
            for x in (Fraction(2), Fraction(3)):
                assert f_ratio(n, x).value == eval_rational(cyclotomic(n), 1 / x)

    def test_matches_horner_at_negative_and_fractional_points(self):
        # the coefficient Horner value as oracle; the reciprocal cross-check
        # must hold at negative x too (x = -1 included, where Phi_2 vanishes)
        for n in range(1, 201):
            for x in (Fraction(-2), Fraction(-3, 2), Fraction(5, 3), Fraction(-1, 2), Fraction(1), Fraction(-1)):
                assert f_ratio(n, x).value == eval_rational(cyclotomic(n), x) / x ** cyclotomic(n).degree


class TestRealBounds:
    def test_equality_case(self):
        rep = check_real_bounds(1, Fraction(2))
        assert rep.holds and rep.equality

    def test_mu_minus_simple(self):
        rep = check_real_bounds(2, Fraction(2))
        # mu(rad(2)) = -1: the value lies above x^phi
        assert rep.holds and not rep.equality and profile(2).mu_rad == -1 and rep.ratio.value > 1
        assert 2 < eval_rational(cyclotomic(2), 2) < 4

    def test_mu_plus_simple(self):
        rep = check_real_bounds(6, Fraction(3))
        # mu(rad(6)) = 1: the value lies below x^phi
        assert rep.holds and profile(6).mu_rad == 1 and rep.ratio.value < 1
        assert Fraction(2, 3) * 9 <= 7 < 9

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            check_real_bounds(5, Fraction(3, 2))

    def test_grid_smoke(self):
        xs = [Fraction(2), Fraction(5, 2), Fraction(3)]
        for n in range(1, 200):
            for x in xs:
                rep = check_real_bounds(n, x)
                assert rep.holds, (n, x)
                assert rep.equality == (n == 1 and x == 2)


def real_bounds_fraction_form(n, x):
    # the envelope check on Fractions and Horner values, as it was first written
    prof = profile(n)
    value = eval_rational(cyclotomic(n), x)
    power = x ** prof.phi
    xq = x ** prof.qpart
    equality = False
    if prof.mu_rad == 1:
        lower = (xq - 1) / xq * power
        envelope = lower <= value < power and (value > lower or n == 1)
        equality = value == power / 2
        factor_two = power / 2 <= value and (not equality or (n == 1 and x == 2))
        holds = envelope and factor_two
    else:
        upper = xq / (xq - 1) * power
        holds = power < value < upper and value < 2 * power
    return holds, equality, value / power


class TestRealBoundsIntegerForm:
    def test_matches_fraction_form_on_grid(self):
        # (n, x) = (1, 2) is the equality case
        xs = (Fraction(2), Fraction(5, 2), Fraction(7, 3), Fraction(3), Fraction(4), Fraction(10))
        for n in range(1, 301):
            for x in xs:
                rep = check_real_bounds(n, x)
                got = (rep.holds, rep.equality, rep.ratio.value)
                assert got == real_bounds_fraction_form(n, x), (n, x)


class TestComplexBounds:
    def test_equality_minus_two(self):
        rep = check_complex_bounds(2, (Fraction(-2), Fraction(0)))
        assert rep.holds and rep.equality

    def test_equality_plus_two(self):
        rep = check_complex_bounds(1, (Fraction(2), Fraction(0)))
        assert rep.holds and rep.equality

    def test_two_i(self):
        rep = check_complex_bounds(12, (Fraction(0), Fraction(2)))
        assert rep.holds and not rep.equality

    def test_rejects_inside_disk(self):
        with pytest.raises(ValueError):
            check_complex_bounds(3, (Fraction(1), Fraction(1)))

    def test_small_sample(self):
        import random

        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 60)
            re = Fraction(rng.randint(-400, 400), 100)
            im = Fraction(rng.randint(-400, 400), 100)
            if re * re + im * im < 4:
                continue
            rep = check_complex_bounds(n, (re, im))
            assert rep.holds, (n, re, im)


def complex_bounds_fraction_form(n, re, im):
    # the envelope check on normalised Fraction squares, as it was first written
    vr, vi = eval_gaussian(cyclotomic(n), re, im)
    val2 = vr * vr + vi * vi
    pow2 = (re * re + im * im) ** profile(n).phi
    equality = val2 * 4 == pow2
    holds = val2 * 4 >= pow2 and val2 < 4 * pow2
    if equality and (n, re, im) not in ((1, 2, 0), (2, -2, 0)):
        holds = False
    return holds, equality, sqrt_interval(val2 / pow2, 64)


class TestComplexBoundsIntegerForm:
    def test_matches_fraction_form_on_grid(self):
        import math
        import random

        rng = random.Random(11)
        points = [(1, Fraction(2), Fraction(0)), (2, Fraction(-2), Fraction(0)), (7, Fraction(6, 5), Fraction(8, 5)),
                  (30, Fraction(-7, 3), Fraction(5, 7)), (1, Fraction(0), Fraction(-2))]
        while len(points) < 80:
            n = rng.randint(1, 300)
            radius = rng.randint(200, 400) / 100
            angle = 2 * math.pi * rng.random()
            re = Fraction(int(radius * 10 ** 6 * math.cos(angle)), 10 ** 6)
            im = Fraction(int(radius * 10 ** 6 * math.sin(angle)), 10 ** 6)
            if re * re + im * im >= 4:
                points.append((n, re, im))
        for n, re, im in points:
            rep = check_complex_bounds(n, (re, im))
            holds, equality, (rlo, rhi) = complex_bounds_fraction_form(n, re, im)
            assert (rep.holds, rep.equality) == (holds, equality), (n, re, im)
            assert (rep.ratio.lo, rep.ratio.hi) == (rlo, rhi), (n, re, im)

    @pytest.mark.parametrize(
        "n, re, im",
        [(1, Fraction(2), Fraction(0)), (2, Fraction(-2), Fraction(0))]  # the two equality points
        + [
            (n, re, im)
            for n in (1, 210, 243, 256)  # 210 has four primes; 243 and 256 are prime powers
            for re, im in ((Fraction(2), Fraction(0)), (Fraction(-2), Fraction(0)), (Fraction(0), Fraction(-2)),
                           (Fraction(-7, 3), Fraction(5, 7)), (Fraction(1381, 1000), Fraction(-1447, 1000)))
        ],
    )
    def test_matches_fraction_form_at_chosen_points(self, n, re, im):
        rep = check_complex_bounds(n, (re, im))
        holds, equality, (rlo, rhi) = complex_bounds_fraction_form(n, re, im)
        assert (rep.holds, rep.equality) == (holds, equality)
        assert (rep.ratio.lo, rep.ratio.hi) == (rlo, rhi)
        assert rep.equality == ((n, re, im) in ((1, 2, 0), (2, -2, 0)))

    def test_builds_no_coefficients(self, monkeypatch):
        # the Moebius norm product needs no cyclotomic coefficients at all
        def refuse(*args):
            raise AssertionError("cyclotomic coefficients were built")

        monkeypatch.setattr(bounds_mod, "cyclotomic", refuse, raising=False)
        monkeypatch.setattr(polycore_mod, "cyclotomic", refuse)
        monkeypatch.setattr(polycore_mod, "_cyclotomic_squarefree", refuse)
        monkeypatch.setattr(polycore_mod, "_eval_gaussian_scaled", refuse)
        for n in (1, 2, 30, 210, 243, 256, 997):
            assert check_complex_bounds(n, (Fraction(-7, 3), Fraction(5, 7))).holds

    @pytest.mark.parametrize("z", [(Fraction(3, 2), Fraction(1, 2)), (Fraction(199, 100), Fraction(0))])
    def test_rejects_inside_disk_with_denominators(self, z):
        with pytest.raises(ValueError):
            check_complex_bounds(3, z)


class TestGValue:
    def test_sign_examples(self):
        assert g_value(2, 3, HALF).hi < 0
        assert g_value(4, 6, HALF).lo > 0

    def test_third_point_sign(self):
        x = Fraction(1, 3)
        g = g_value(15, 16, x)
        direct = eval_rational(cyclotomic(15), x) - eval_rational(cyclotomic(16), x)
        assert (g.lo > 0) == (direct > 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            g_value(2, 3, Fraction(3, 4))
        with pytest.raises(ValueError):
            g_value(1, 3, HALF)
        with pytest.raises(ValueError):
            g_value(3, 3, HALF)

    def test_certified_nonzero_all_pairs_to_60(self):
        xs = (HALF, Fraction(1, 3), Fraction(1, 4), Fraction(1, 10))
        for m in range(2, 61):
            for n in range(m + 1, 61):
                for x in xs:
                    g = g_value(m, n, x)
                    assert g.lo > 0 or g.hi < 0, (m, n, x)
