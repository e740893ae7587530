from fractions import Fraction

import pytest

from cyclolab import roots as roots_mod
from cyclolab.arith import primes_up_to
from cyclolab.nearmiss import (
    TABLE_ROWS,
    _family_bracket,
    _largest_real_root,
    _root_in_bracket,
    _top_bracket,
    alpha_root,
    delta_decompose,
    find_triples,
    limit_constants,
    limit_family_root,
    near_miss_root,
    psi,
    reference_alpha,
    table1,
)
from cyclolab.polycore import IntPoly, _eval_int_scaled, cyclotomic, difference
from test_acceptance import NEAR_MISS_LIST


class TestPsi:
    def test_small(self):
        assert psi(1).coeffs == (-1, 1)
        assert psi(2).coeffs == (-1, -1, 1)

    def test_value_one_at_two(self):
        for k in range(1, 65):
            assert psi(k)(2) == 1

    def test_derivative_at_two(self):
        for k in range(1, 65):
            assert psi(k).derivative()(2) == 2 ** k - 1


class TestAlphaRoot:
    def test_golden_ratio(self):
        assert alpha_root(2, 10).decimal(10) == "1.6180339887"

    def test_step_four(self):
        assert alpha_root(4, 14).decimal(14) == "1.92756197548293"

    def test_step_six(self):
        assert alpha_root(6, 14).decimal(14) == "1.98358284342433"

    def test_step_eight(self):
        assert alpha_root(8, 14).decimal(14) == "1.99603117973541"

    def test_reference_uses_p_plus_one(self):
        for p in (3, 5, 7):
            assert reference_alpha(p, 12).value == alpha_root(p + 1, 12).value

    def test_near_two_asymptotics(self):
        # the largest root sits just below 2 - 1/(2^k - 1) scale
        for k in (4, 8, 12):
            a = alpha_root(k, 16).value
            assert 2 - Fraction(2, 2 ** k - 1) < a < 2


class TestTriples:
    def test_p3(self):
        assert find_triples(3, 13) == [(5, 7), (7, 11), (11, 19), (13, 23)]

    def test_p5(self):
        assert find_triples(5, 19) == [(7, 23), (13, 47), (19, 71)]

    def test_p11(self):
        assert find_triples(11, 19) == [(19, 179)]

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            find_triples(4, 10)


class TestDeltaDecomposition:
    def test_3_5_exact(self):
        dd = delta_decompose(3, 5)
        assert dd.delta.coeffs == (0, -2, -1, 0, -2)
        assert (dd.main + dd.delta).coeffs == difference(15, 7).coeffs

    def test_3_7_bounds(self):
        dd = delta_decompose(3, 7)
        assert dd.delta.degree <= 12 - 3
        assert all(-2 <= c <= 1 for c in dd.delta.coeffs)

    def test_5_7_degree_bound(self):
        dd = delta_decompose(5, 7)
        assert dd.delta.degree <= 24 - 5

    def test_all_small_triples(self):
        for p in (3, 5, 7):
            for q, r in find_triples(p, 23):
                dd = delta_decompose(p, q)
                d = difference(p * q, r)
                assert (dd.main + dd.delta).coeffs == d.coeffs
                assert dd.delta.degree <= d.degree - p  # phi(pq) - p
                assert all(-2 <= c <= 1 for c in dd.delta.coeffs)

    def test_invalid_triple(self):
        with pytest.raises(ValueError):
            delta_decompose(5, 11)  # 5*11 - 16 = 39 is composite


class TestNearMissRoot:
    @pytest.mark.parametrize(
        "p,q,digits,expect",
        [
            (3, 5, 14, "1.90040519768798"),
            (5, 7, 14, "1.97926028654319"),
            (7, 19, 14, "1.99603017934944"),
        ],
    )
    def test_values(self, p, q, digits, expect):
        assert near_miss_root(p, q, digits).decimal(digits) == expect


class TestTable:
    def test_row_3_5(self):
        rec = table1(rows=[(3, 5)])[0]
        assert rec.r == 7
        assert rec.beta.significant(15) == "1.90040519768798"
        assert rec.alpha.significant(15) == "1.92756197548293"
        assert rec.inv_gap.significant(12) == "36.8232198809"
        assert rec.scaled_gap.significant(12) == "1.15072562128"

    def test_beta_monotone_in_q(self):
        rows = table1()
        by_p: dict[int, list] = {}
        for rec in rows:
            by_p.setdefault(rec.p, []).append(rec)
        for recs in by_p.values():
            betas = [r.beta.value for r in sorted(recs, key=lambda r: r.q)]
            assert betas == sorted(betas)

    def test_gap_shrinks_like_2_to_q(self):
        for rec in table1():
            assert Fraction(1, 2) < rec.scaled_gap.value < 2

    def test_long_rows_render_at_printed_precision(self):
        # alpha - beta ~ 2^-q cancels about 0.30 q digits, which the working
        # precision must cover for every column to round at 15 digits
        rows = table1([(3, 41), (7, 59), (13, 43), (3, 97)], 15)
        assert [(rec.p, rec.q) for rec in rows] == [(3, 41), (7, 59), (13, 43), (3, 97)]
        for rec in rows:
            for col in (rec.beta, rec.alpha, rec.inv_gap, rec.scaled_gap):
                col.significant(15)  # raises when the interval is too wide to round


class TestLimitFamilies:
    def test_constants(self):
        rho, sigma = limit_constants(13)
        assert rho.decimal(12) == "-0.569840290998"
        assert sigma.decimal(13) == "0.5284555592772"

    def test_quartic_factors_through_cubic(self):
        # x^4 + x^3 + 2x^2 + x = x * (x^3 + x^2 + 2x + 1) exactly
        assert IntPoly([1, 2, 1, 1]).shift(1).coeffs == (0, 1, 2, 1, 1)

    def test_primorial_five(self):
        v = limit_family_root("primorial", 5, 14)
        assert v.decimal(14) == "0.51976982658213"

    def test_primorial_three_is_sigma(self):
        _, sigma = limit_constants(13)
        v = limit_family_root("primorial", 3, 13)
        assert v.decimal(13) == sigma.decimal(13)

    def test_three_p_converges_to_rho(self):
        rho, _ = limit_constants(14)
        r101 = limit_family_root("three_p", 101, 12)
        assert abs(r101.value - rho.value) < Fraction(1, 1000)
        # convergence is measurable at small p (by p = 101 the distance is
        # far below refinement width, so only containment is asserted there)
        d5 = abs(limit_family_root("three_p", 5, 14).value - rho.value)
        d11 = abs(limit_family_root("three_p", 11, 14).value - rho.value)
        d41 = abs(limit_family_root("three_p", 41, 14).value - rho.value)
        assert d41 < d11 < d5
        r199 = limit_family_root("three_p", 199, 12)
        assert abs(r199.value - rho.value) <= abs(r101.value - rho.value) + Fraction(1, 10 ** 11)

    def test_six_p_converges_to_minus_rho(self):
        rho, _ = limit_constants(14)
        for p in (41, 101, 199):
            v = limit_family_root("six_p", p, 10)
            assert abs(v.value + rho.value) < Fraction(1, 500)

    def test_thirty_p_near_sigma(self):
        _, sigma = limit_constants(14)
        for p in (7, 11):
            v = limit_family_root("thirty_p", p, 10)
            assert abs(v.value - sigma.value) < Fraction(1, 100)

    def test_family_errors(self):
        with pytest.raises(ValueError):
            limit_family_root("nope", 5, 10)
        with pytest.raises(ValueError):
            limit_family_root("three_p", 4, 10)
        with pytest.raises(ValueError):
            limit_family_root("primorial", 2, 10)
        with pytest.raises(ValueError):
            limit_family_root("three_p", 2, 10)  # no root near the limit yet

    def test_bracket_refusals(self, monkeypatch):
        # an end that is a root is refused before any count; 0 roots are
        # counted by Descartes alone, 2 on one Sturm chain
        calls = []
        prs = roots_mod._prs
        monkeypatch.setattr(roots_mod, "_prs", lambda a, b: calls.append(1) or prs(a, b))
        with pytest.raises(ValueError, match="must not be roots"):
            _root_in_bracket(IntPoly([-1, 2]) * IntPoly([-3, 0, 1]), Fraction(1, 2), Fraction(1), 10)
        with pytest.raises(ValueError, match="must not be roots"):
            _root_in_bracket(IntPoly([-1, 2]) * IntPoly([-3, 0, 1]), Fraction(0), Fraction(1, 2), 10)
        assert calls == []
        with pytest.raises(ValueError, match="holds 0 roots"):
            _root_in_bracket(*_family_bracket("three_p", 3), 10)
        assert calls == []
        with pytest.raises(ValueError, match="holds 2 roots"):
            _root_in_bracket(IntPoly([-1, 3]) * IntPoly([-2, 3]), Fraction(0), Fraction(1), 10)
        assert len(calls) == 1

    def test_termwise_series_limit(self):
        # low-order coefficients approach the 1/(1+x+x^2) expansion:
        # +1 at exponents 0 mod 3, -1 at 1 mod 3, 0 at 2 mod 3.
        # Agreement holds exactly up to exponent p-1, where the 1/(1-x^p)
        # factor first contributes.
        for p in (41, 101):
            cs = cyclotomic(3 * p).coeffs
            for i in range(min(p, 61)):
                expect = (1, -1, 0)[i % 3]
                assert cs[i] == expect
            if p < 61:
                assert cs[p] != (1, -1, 0)[p % 3]  # deviation starts exactly at p


# the limit-family members of the benchmark's real-roots workload, plus
# primorial 5
BENCH_FAMILIES = [
    *(("three_p", p) for p in primes_up_to(60)[2:]),
    *(("six_p", p) for p in primes_up_to(60)[2:]),
    *(("thirty_p", p) for p in (7, 11, 13)),
    *(("primorial", k) for k in (3, 4, 5)),
]


def assert_bracket(cs, bracket):
    # a bracket (lo, hi, vlo, vhi): p's scaled values at its ends, each over
    # its own end's denominator, of opposite signs
    lo, hi, vlo, vhi = bracket
    assert lo < hi
    assert (vlo, vhi) == tuple(_eval_int_scaled(cs, x.numerator, x.denominator) for x in (lo, hi))
    assert (vlo > 0) != (vhi > 0) and vlo and vhi


# the ten near-miss differences of degree 129-200 and the bracket (lo, hi,
# vlo) the Descartes search proved each with; vhi is p(2)
NEAR_MISS_BRACKETS = {
    (2, 139): (1, 2, -136), (2, 151): (1, 2, -148), (2, 181): (1, 2, -178), (2, 193): (1, 2, -190),
    (2, 199): (1, 2, -196), (3, 67): (1, 2, -130), (3, 71): (1, 2, -138), (3, 83): (1, 2, -162),
    (3, 97): (1, 2, -190), (3, 101): (1, 2, -198),
}


class TestTopBracket:
    def test_near_miss_differences(self):
        got = {}
        for p in (2, 3):
            for q, r in find_triples(p, 200):
                if 128 < (p - 1) * (q - 1) <= 200:
                    cs = list(difference(p * q, r).coeffs)
                    bracket = _top_bracket(cs)
                    assert_bracket(cs, bracket)
                    assert bracket[3] == _eval_int_scaled(cs, 2, 1)
                    got[p, q] = bracket[:3]
        assert got == NEAR_MISS_BRACKETS

    def test_table_rows_and_psi(self):
        polys = [difference(p * q, p * q - p - q) for p, q in TABLE_ROWS] + [psi(k) for k in range(2, 13)]
        for poly in polys:
            cs = list(poly.coeffs)
            assert_bracket(cs, _top_bracket(cs))

    @pytest.mark.parametrize(
        "poly",
        [
            IntPoly([-3, 2]) * IntPoly([-1, 0, 2]) * IntPoly([1297, -1440, 400]),  # 3/2, a bisection point
            IntPoly([-3, 1]) * IntPoly([-2, 0, 1]),  # a root above 2
            IntPoly([-2, 1]) * IntPoly([-1, 0, 2]) * IntPoly([-1, 0, 8]),  # a root at 2
            IntPoly([-3, 0, 1]) * IntPoly([-3, 0, 1]),  # a double root
            IntPoly([10, -6, 1]) * IntPoly([-3, 0, 1]),  # the pair 3 +- i beside sqrt(3)
        ],
    )
    def test_fallback_polynomials(self, poly):
        assert _top_bracket(list(poly.coeffs)) is None


class TestDescartesRoute:
    # the second value each helper returns says whether it fell back from
    # Descartes brackets to isolation and Sturm counts; digits=1 keeps the
    # refinement short

    def test_table_rows_and_references(self):
        for p, q in TABLE_ROWS:
            assert _largest_real_root(difference(p * q, p * q - p - q), 1)[1] is False, (p, q)
            assert _largest_real_root(psi(p + 1), 1)[1] is False, p

    def test_near_miss_list(self):
        for p, q, _ in NEAR_MISS_LIST:
            assert _largest_real_root(difference(p * q, p * q - p - q), 1)[1] is False, (p, q)

    def test_psi(self):
        for k in range(2, 13):
            assert _largest_real_root(psi(k), 1)[1] is False, k

    def test_limit_families(self):
        for family, param in BENCH_FAMILIES:
            assert _root_in_bracket(*_family_bracket(family, param), 1)[1] is False, (family, param)
        assert _root_in_bracket(IntPoly([1, 2, 1, 1]), Fraction(-1), Fraction(0), 1)[1] is False
        assert _root_in_bracket(difference(30, 4), Fraction(1, 4), Fraction(3, 4), 1)[1] is False

    def test_bracket_fallback(self):
        # the real root sqrt(3/10) next to the complex pair 11/20 +- i/20:
        # (2/5, 3/5) shows 3 variations, and the Sturm count decides
        p = IntPoly([-3, 0, 10]) * IntPoly([122, -440, 400])
        v, fell_back = _root_in_bracket(p, Fraction(2, 5), Fraction(3, 5), 14)
        assert fell_back and v.decimal(14) == "0.54772255750517"

    def test_largest_of_several(self):
        # roots 1/2 and +-sqrt(3): the rightmost-first bisection ends on sqrt(3)
        v, fell_back = _largest_real_root(IntPoly([-1, 2]) * IntPoly([-3, 0, 1]), 14)
        assert not fell_back and v.decimal(14) == "1.73205080756888"

    @pytest.mark.parametrize(
        "poly,expect",
        [
            # the top root 3/2 is a bisection point: (3/2, 7/4) shows no
            # variation, but its left end is a root; also +-1/sqrt(2) and
            # the pair 9/5 +- i/20, which makes (1, 2) show 3 variations
            (IntPoly([-3, 2]) * IntPoly([-1, 0, 2]) * IntPoly([1297, -1440, 400]), "1.50000000000000"),
            (IntPoly([-3, 1]) * IntPoly([-2, 0, 1]), "3.00000000000000"),  # a root above 2
            # a root at 2, and +-1/sqrt(2), +-1/sqrt(8): (1, 2) shows no
            # variation and (1/2, 1) one
            (IntPoly([-2, 1]) * IntPoly([-1, 0, 2]) * IntPoly([-1, 0, 8]), "2.00000000000000"),
            (IntPoly([-3, 0, 1]) * IntPoly([-3, 0, 1]), "1.73205080756888"),  # a double top root
        ],
    )
    def test_largest_root_fallback(self, poly, expect):
        v, fell_back = _largest_real_root(poly, 14)
        assert fell_back and v.decimal(14) == expect
