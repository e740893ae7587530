import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from cyclolab import complexroots as complex_mod, nearmiss, polycore as polycore_mod, roots as roots_mod, window as window_mod
from cyclolab.certified import BigFloat, ZERO, decimal_in_interval, from_interval, sqrt_interval
from cyclolab.cli import _record_line, _root_record_obj, dispatch
from cyclolab.complexroots import (
    _attains_sqrt2,
    _disks_disjoint,
    _sqrt2_quadratic_roots,
    complex_roots,
    quarter_lift_check,
    scan_complex,
)
from cyclolab.polycore import (
    IntPoly,
    _digit_bias,
    _eval_int_scaled,
    _gaussian_scale,
    _packed,
    _packed_shift,
    _trim,
    _unpack,
    _variations,
    cyclotomic,
    difference,
    eval_rational,
)
from cyclolab.roots import (
    RootRecord,
    _cauchy_bound,
    _gcd_list,
    _primitive,
    _pseudo_rem_even,
    _descartes_in,
    isolate_real_roots,
    real_coincidence_roots,
    refine_root,
    squarefree_part,
    sturm_count,
    yun_decomposition,
)
from cyclolab.window import (
    WindowReport,
    _index_norms,
    _index_packed,
    _index_padded,
    _power_of_three,
    _pair_window,
    _region_maps,
    _window_clear,
    _window_counts,
    verify_root_window,
    window_counts,
)

HALF = Fraction(1, 2)
TWO = Fraction(2)


def window_oracle(p):
    # distinct roots on (-inf,-2], [-1/2,0), (0,1/2], [2,inf) from public
    # Sturm counts on (lo, hi] plus exact checks at the endpoints
    def root_at(x):
        return int(eval_rational(p, x) == 0)

    counts = (
        sturm_count(p, None, -TWO),
        sturm_count(p, -HALF, Fraction(0)) - root_at(0) + root_at(-HALF),
        sturm_count(p, Fraction(0), HALF),
        sturm_count(p, TWO, None) + root_at(TWO),
    )
    return counts, bool(root_at(TWO))


def unpack_signed_digits(v, nb, k):
    # the k signed base-2^(8 nb) digits of v, lowest first, by divmod
    base = 1 << (8 * nb)
    out = []
    for _ in range(k):
        d = v % base
        if d >= base // 2:
            d -= base
        out.append(d)
        v = (v - d) // base
    assert v == 0
    return out


def times_linear(cs, c, j):
    # coefficients of (t + c)^j p(t), lowest first, by plain convolution
    for _ in range(j):
        cs = [c * a + b for a, b in zip(cs + [0], [0] + cs)]
    return cs


def from_roots(*factors):
    # product of (b x - a) over (a, b) in factors
    p = IntPoly([1])
    for a, b in factors:
        p = p * IntPoly([-a, b])
    return p


def sign_sample_count(p, lo, hi, step=Fraction(1, 64)):
    # independent oracle: count sign changes on a fine grid
    prev = None
    count = 0
    x = lo
    while x <= hi:
        v = eval_rational(p, x)
        s = (v > 0) - (v < 0)
        if s != 0:
            if prev is not None and s != prev:
                count += 1
            prev = s
        x += step
    return count


@st.composite
def known_roots_cases(draw):
    # (x^2 - 6x + 10)^j (no real root) times rational linear factors, some
    # repeated, with their distinct roots and two ends for a count
    roots = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 4)), min_size=1, max_size=4))
    p = IntPoly([1])
    for _ in range(draw(st.integers(0, 2))):
        p = p * IntPoly([10, -6, 1])
    for a, b in roots:
        for _ in range(draw(st.integers(1, 3))):
            p = p * IntPoly([-a, b])
    values = sorted({Fraction(a, b) for a, b in roots})
    end = st.one_of(
        st.sampled_from(("none", "above", "far_above", "below", "far_below")),
        st.sampled_from(values),
        st.fractions(min_value=-7, max_value=7, max_denominator=6),
    )
    return p, values, (draw(end), draw(end))


class TestSturmCount:
    def test_quadratic(self):
        assert sturm_count(difference(2, 6), HALF, Fraction(5, 2)) == 1

    def test_constant_difference(self):
        assert sturm_count(difference(1, 2), Fraction(-10), Fraction(10)) == 0

    def test_fifteen_seven(self):
        d = difference(15, 7)
        expected = sign_sample_count(d, Fraction(1), Fraction(2))
        assert expected == 1
        assert sturm_count(d, Fraction(1), Fraction(2)) == 1

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            sturm_count(IntPoly([]), Fraction(0), Fraction(1))

    def test_endpoint_roots(self):
        p = IntPoly([0, -2, 1]) * IntPoly([-1, 1])  # roots 0, 1, 2
        assert sturm_count(p, Fraction(0), Fraction(2)) == 2  # (0, 2] holds 1 and 2
        assert sturm_count(p, Fraction(-1), Fraction(2)) == 3

    def test_multiple_roots_counted_once(self):
        p = IntPoly([-1, 1]) * IntPoly([-1, 1]) * IntPoly([0, 1])
        assert sturm_count(p, Fraction(-1), Fraction(2)) == 2

    def test_unbounded(self):
        assert sturm_count(difference(2, 6), None, None) == 2
        assert sturm_count(difference(2, 6), Fraction(2), None) == 0
        assert sturm_count(difference(2, 6), None, Fraction(0)) == 1

    @given(st.lists(st.integers(min_value=-4, max_value=4), min_size=2, max_size=9))
    def test_against_sampling_oracle(self, coeffs):
        p = IntPoly(coeffs)
        if p.is_zero() or p.degree < 1:
            return
        # grid sampling lower-bounds the true count; Sturm must dominate it
        lo, hi = Fraction(-3), Fraction(3)
        assert sturm_count(p, lo, hi) >= sign_sample_count(squarefree_part(p), lo, hi)


    REPEATED = from_roots((1, 1), (1, 1), (1, 1), (-2, 1), (-2, 1), (3, 1)) * IntPoly([10, -6, 1])

    @pytest.mark.parametrize(
        "lo,hi,want",
        [
            (None, None, 3),
            (None, Fraction(1), 2),  # repeated root on the closed end
            (Fraction(1), None, 1),  # repeated root on the open end
            (Fraction(-2), Fraction(1), 1),
            (Fraction(1), Fraction(3), 1),
            (Fraction(-2), Fraction(3), 2),
            (Fraction(10 ** 6), None, 0),  # lo > B
            (None, Fraction(-10 ** 6), 0),  # hi < -B
        ],
    )
    def test_repeated_roots_and_far_ends(self, lo, hi, want):
        assert sturm_count(self.REPEATED, lo, hi) == want

    @given(known_roots_cases())
    def test_against_known_roots(self, case):
        p, roots, ends = case
        B = _cauchy_bound(list(p.coeffs))
        # ends past the Cauchy bound, on it, at roots, or anywhere
        pick = {"none": None, "above": Fraction(B), "far_above": B + Fraction(1, 3),
                "below": Fraction(-B), "far_below": -B - Fraction(1, 3)}
        lo, hi = (pick[e] if isinstance(e, str) else e for e in ends)
        if lo is not None and hi is not None and not lo < hi:
            return
        want = sum(1 for r in roots if (lo is None or lo < r) and (hi is None or r <= hi))
        assert sturm_count(p, lo, hi) == want


@st.composite
def repeated_factor_cases(draw):
    # a random cofactor times linear factors, at least one of them repeated,
    # rooted at dyadic points that bisection of [-B, B] lands on
    n = draw(st.integers(0, 6))
    p = IntPoly(draw(st.lists(st.integers(-5, 5), min_size=n + 1, max_size=n + 1)))
    if p.is_zero():
        p = IntPoly([1])
    point = st.sampled_from([(0, 1), (1, 1), (-1, 1), (2, 1), (-2, 1), (1, 2), (-1, 2), (3, 4), (-3, 2), (3, 1)])
    factors = draw(st.lists(st.tuples(point, st.integers(1, 3)), min_size=1, max_size=4))
    factors[0] = (factors[0][0], max(2, factors[0][1]))
    for (a, b), k in factors:
        for _ in range(k):
            p = p * IntPoly([-a, b])
    return p


class TestIsolation:
    def test_quadratic_roots(self):
        (lo0, hi0), (lo1, hi1) = isolate_real_roots(difference(2, 6))
        assert lo0 < 0 < hi0 and lo1 < 2 < hi1

    def test_cubic_single_root(self):
        ((lo, hi),) = isolate_real_roots(IntPoly([1, 2, 1, 1]))
        assert lo < Fraction(-56, 100) < hi

    def test_golden_pair(self):
        ivs = isolate_real_roots(IntPoly([-1, -1, 1]))
        vals = [refine_root(IntPoly([-1, -1, 1]), iv, 6).decimal(6) for iv in ivs]
        assert vals == ["-0.618034", "1.618034"]

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            isolate_real_roots(IntPoly([]))

    def test_signs_recorded(self):
        # the squarefree part changes sign on each interval; the intervals
        # are pairs of Fractions, ascending and disjoint
        for p in (difference(15, 7), difference(4, 8), IntPoly([4, 0, -4, 0, 1])):
            ivs = isolate_real_roots(p)
            sf = squarefree_part(p)
            for lo, hi in ivs:
                assert type(lo) is type(hi) is Fraction and lo < hi
                assert eval_rational(sf, lo) * eval_rational(sf, hi) < 0
            assert all(a[1] <= b[0] for a, b in zip(ivs, ivs[1:]))

    @given(st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=10))
    def test_isolation_complete(self, coeffs):
        p = IntPoly(coeffs)
        if p.is_zero() or p.degree < 1:
            return
        ivs = isolate_real_roots(p)
        assert len(ivs) == sturm_count(p, None, None)
        for lo, hi in ivs:
            assert sturm_count(p, lo, hi) == 1

    def test_high_degree_bisection(self):
        # degree 180: isolation is the same exact bisection as at low degree
        d = difference(209, 179)
        ivs = isolate_real_roots(d)
        assert len(ivs) == 4 == sturm_count(d, None, None)
        for lo, hi in ivs:
            assert sturm_count(d, lo, hi) == 1
        sq = squarefree_part(d)
        assert [refine_root(sq, iv, 15).decimal(15) for iv in ivs] == [
            "-1.000000000000000",
            "-0.999282196073370",
            "0.000000000000000",
            "1.999754543982544",
        ]


    @given(repeated_factor_cases())
    def test_repeated_factors_isolate_as_squarefree_part(self, p):
        assert isolate_real_roots(p) == isolate_real_roots(squarefree_part(p))

    @pytest.mark.parametrize(
        "p",
        [
            # repeated rational roots; all but the third case put one exactly
            # on a midpoint of the bisection of [-B, B]
            from_roots((0, 1), (0, 1), (1, 1), (1, 1), (1, 1), (-1, 1), (-1, 1)),
            from_roots((2, 1), (2, 1), (-2, 1), (-2, 1), (1, 2), (1, 2), (0, 1)),
            from_roots((1, 2), (1, 2), (-3, 4), (-3, 4), (-3, 4)) * IntPoly([-2, 0, 1]) * IntPoly([-2, 0, 1]),
            difference(3, 17),
            difference(8, 16),
        ],
    )
    def test_repeated_factors_at_midpoints(self, p):
        assert squarefree_part(p).degree < p.degree
        assert isolate_real_roots(p) == isolate_real_roots(squarefree_part(p))


def bisection_oracle(p, iv, digits):
    # refinement by plain bisection of iv = (lo, hi), where p changes sign,
    # one exact evaluation per level: the brackets refine_root must reproduce
    cs = list(p.coeffs)
    lo, hi, den = _gaussian_scale(*map(Fraction, iv))
    up = _eval_int_scaled(cs, lo, den) > 0  # p's sign at lo
    lead = abs(cs[-1])
    tested = False
    while True:
        if not tested and (hi - lo) * lead < den:
            tested = True
            c = -(-lo * lead // den)
            if lo * lead < c * den < hi * lead and _eval_int_scaled(cs, c, lead) == 0:
                return BigFloat(Fraction(c, lead))
        if tested and (hi - lo) * 10 ** digits < den:
            a, b = Fraction(lo, den), Fraction(hi, den)
            if decimal_in_interval(a, b, digits) is not None:
                return from_interval(a, b)
        mid = lo + hi
        lo, hi, den = 2 * lo, 2 * hi, 2 * den
        sm = _eval_int_scaled(cs, mid, den)
        if sm == 0:
            return BigFloat(Fraction(mid, den))
        if (sm > 0) == up:
            lo = mid
        else:
            hi = mid


def _small_difference_brackets():
    # every isolating interval of every squarefree factor of Phi_m - Phi_n, n <= 24
    out = []
    for n in range(2, 25):
        for m in range(1, n):
            d = difference(m, n)
            if d.degree >= 1:
                out += [(f, iv) for f, _ in yun_decomposition(d) for iv in isolate_real_roots(f)]
    return out


class TestBracketInvariant:
    # every bracket _isolate_chain returns holds the squarefree part's scaled
    # values at its ends, each over its own end's denominator, of opposite
    # signs, and the brackets are ascending and disjoint
    def check(self, p):
        cs = _primitive(list(p.coeffs))
        sf, brackets = roots_mod._isolate_chain(roots_mod._sturm_chain(cs))
        assert sf == list(squarefree_part(p).coeffs)
        for lo, hi, vlo, vhi in brackets:
            assert lo < hi
            assert (vlo, vhi) == tuple(_eval_int_scaled(sf, x.numerator, x.denominator) for x in (lo, hi))
            assert vlo and vhi and (vlo > 0) != (vhi > 0)
        assert all(a[1] <= b[0] for a, b in zip(brackets, brackets[1:]))
        return len(brackets)

    def test_small_differences(self):
        polys = [difference(m, n) for n in range(2, 25) for m in range(1, n)]
        polys = [p for p in polys if p.degree >= 1] + [IntPoly([4, 0, -4, 0, 1]), difference(9, 24)]
        assert sum(map(self.check, polys)) > 500


def _near_miss_brackets():
    # the ten near-miss differences Phi_pq - Phi_r of degree 129-200, with
    # the Descartes bracket near_miss_root refines
    out = []
    for p in (2, 3):
        for q, r in nearmiss.find_triples(p, 200):
            if 128 < (p - 1) * (q - 1) <= 200:
                cs = list(difference(p * q, r).coeffs)
                out.append((IntPoly(cs), nearmiss._top_bracket(cs)[:2]))
    return out


def bracket_of(p, iv):
    # p's coefficients and the bracket (lo, hi, vlo, vhi) _refine takes for
    # iv = (lo, hi)
    cs = list(p.coeffs)
    return cs, (*iv, *(_eval_int_scaled(cs, x.numerator, x.denominator) for x in iv))


def _refined(v):
    return v.value, v.error_bound


class TestRefineMatchesBisection:
    @pytest.mark.parametrize("digits", [1, 15, 40])
    def test_small_differences(self, digits):
        cases = _small_difference_brackets()
        assert len(cases) > 500
        for p, iv in cases:
            assert _refined(refine_root(p, iv, digits)) == _refined(bisection_oracle(p, iv, digits)), (p, iv)

    @pytest.mark.parametrize("digits", [1, 15, 40])
    def test_near_miss_differences(self, digits):
        cases = _near_miss_brackets()
        assert sorted(p.degree for p, _ in cases) == [132, 138, 140, 150, 164, 180, 192, 192, 198, 200]
        for p, iv in cases:
            assert _refined(refine_root(p, iv, digits)) == _refined(bisection_oracle(p, iv, digits)), p.degree

    @pytest.mark.parametrize("digits", [1, 15, 40])
    @pytest.mark.parametrize(
        "poly,lo,hi,root",
        [
            # dyadic: bisection's first midpoint
            (IntPoly([-1, 2]) * IntPoly([-3, 0, 1]), 0, 1, Fraction(1, 2)),
            # rational, never a grid point: found by the candidate test
            (IntPoly([-1, 3]) * IntPoly([-2, 0, 1]), 0, 1, Fraction(1, 3)),
            # dyadic, three levels down
            (IntPoly([-5, 8]) * IntPoly([-3, 0, 1]), 0, 1, Fraction(5, 8)),
            # dyadic roots met at the secant's neighbour and at the midpoint
            # of a bisection step after a failed secant step
            (IntPoly([-13, 16]) * IntPoly([36, -24]), 0, 1, Fraction(13, 16)),
            (IntPoly([-3, 8]) * IntPoly([8, 4, 2, -2, 4]), -3, 3, Fraction(3, 8)),
        ],
    )
    def test_rational_roots(self, poly, lo, hi, root, digits):
        assert eval_rational(poly, lo) * eval_rational(poly, hi) < 0
        iv = (lo, hi)  # int ends
        v = refine_root(poly, iv, digits)
        assert _refined(v) == _refined(bisection_oracle(poly, iv, digits))
        assert v.error_bound == 0 and v.value == root


class TestRefine:
    def test_known_near_miss(self):
        d = difference(209, 179)
        top = isolate_real_roots(d)[-1]
        assert refine_root(squarefree_part(d), top, 14).decimal(14) == "1.99975454398254"

    def test_527_479(self):
        d = difference(527, 479)
        top = isolate_real_roots(d)[-1]
        assert refine_root(squarefree_part(d), top, 14).decimal(14) == "1.99999618493891"

    def test_cubic_constant(self):
        p = IntPoly([1, 2, 1, 1])
        iv = isolate_real_roots(p)[0]
        assert refine_root(p, iv, 12).decimal(12) == "-0.569840290998"

    def test_exact_rational_root_detected(self):
        p = IntPoly([-2, 0, 1]) * IntPoly([-3, 2])  # roots +-sqrt(2), 3/2
        for lo, hi in isolate_real_roots(p):
            v = refine_root(p, (lo, hi), 12)
            if lo < Fraction(3, 2) < hi:
                assert v.error_bound == 0 and v.value == Fraction(3, 2)


    def test_rejects_signs_of_another_polynomial(self):
        # the interval carries no signs: (x^2 - 2)^2 does not change sign at
        # its roots, and refinement runs on the squarefree part x^2 - 2 that
        # the counting chain gives; the simple root -3 of (x - 1)^2 (x + 3)
        # is refined on p itself
        p = IntPoly([4, 0, -4, 0, 1])
        ivs = isolate_real_roots(p)
        assert len(ivs) == 2
        got = [refine_root(p, iv, 10).decimal(10) for iv in ivs]
        assert got == ["-1.4142135624", "1.4142135624"]
        assert got == [refine_root(squarefree_part(p), iv, 10).decimal(10) for iv in ivs]
        p = IntPoly([-1, 1]) * IntPoly([-1, 1]) * IntPoly([3, 1])
        got = [refine_root(p, iv, 10) for iv in isolate_real_roots(p)]
        assert got == [BigFloat(Fraction(-3)), BigFloat(Fraction(1))]

    @pytest.mark.parametrize(
        "poly,iv,message",
        [
            (IntPoly([1, 2, 1, 1]), (Fraction(0), Fraction(-1)), r"interval \(0, -1\) must have lo < hi"),
            (IntPoly([1, 2, 1, 1]), (-1, -1), r"interval \(-1, -1\) must have lo < hi"),
            (IntPoly([-1, 2]) * IntPoly([-2, 0, 1]), (Fraction(1, 2), 1),
             r"ends of interval \(1/2, 1\) must not be roots"),
            (IntPoly([-2, 0, 1]), (0, 1), r"interval \(0, 1\) holds 0 roots of p, need exactly 1"),
            (IntPoly([-2, 0, 1]), (-2, 2), r"interval \(-2, 2\) holds 2 roots of p, need exactly 1"),
        ],
        ids=["reversed", "empty", "end-root", "no-root", "two-roots"],
    )
    def test_refuses_bad_intervals(self, poly, iv, message):
        with pytest.raises(ValueError, match=message) as err:
            refine_root(poly, iv, 10)
        assert "\n" not in str(err.value)

    def test_int_and_fraction_ends(self):
        want = refine_root(IntPoly([-2, 0, 1]), (Fraction(1), Fraction(2)), 12)
        assert refine_root(IntPoly([-2, 0, 1]), (1, 2), 12) == want
        assert refine_root(IntPoly([-2, 0, 1]), (1, Fraction(2)), 12) == want

    def test_every_difference_to_24(self):
        # every interval isolate_real_roots gives for Phi_m - Phi_n, m < n <=
        # 24, is refined on the difference itself, squarefree or not, to the
        # values real_coincidence_roots renders
        total = 0
        for n in range(2, 25):
            for m in range(1, n):
                d = difference(m, n)
                ivs = isolate_real_roots(d)
                total += len(ivs)
                want = [r.value.decimal(15) for r in real_coincidence_roots(m, n, 15).roots]
                assert [refine_root(d, iv, 15).decimal(15) for iv in ivs] == want, (m, n)
        assert total == 595

    @pytest.mark.parametrize(
        "poly,root",
        [
            (IntPoly([-1, 3]), Fraction(1, 3)),
            (IntPoly([2, 5]) * IntPoly([1, 1, 1]), Fraction(-2, 5)),
            (IntPoly([-3, 1]) * IntPoly([-2, 0, 1]), Fraction(3)),
            (IntPoly([-1, 10 ** 20]), Fraction(1, 10 ** 20)),  # L = 10^20 > 10^digits
        ],
    )
    def test_rational_roots_exact(self, poly, root):
        (iv,) = [(lo, hi) for lo, hi in isolate_real_roots(poly) if lo < root < hi]
        v = refine_root(poly, iv, 10)
        assert v.error_bound == 0 and v.value == root

    def test_rational_root_from_wide_bracket(self):
        # (0, 1) for 3x - 1: the candidate 1/3 is tested once the bracket
        # (1/4, 1/2) is narrower than 1/3
        v = refine_root(IntPoly([-1, 3]), (0, 1), 12)
        assert v.error_bound == 0 and v.value == Fraction(1, 3)

    def test_rejects_nonpositive_digits(self):
        # refused before the interval is read: a reversed one included
        p = IntPoly([4, 0, -4, 0, 1])
        for iv in isolate_real_roots(p):
            with pytest.raises(ValueError, match="digits must be positive"):
                refine_root(p, iv, 0)
        with pytest.raises(ValueError, match="digits must be positive"):
            refine_root(IntPoly([-2, 0, 1]), (1, 2), 0)
        with pytest.raises(ValueError, match="digits must be positive"):
            refine_root(IntPoly([-2, 0, 1]), (2, 1), -1)

    def test_candidate_on_lo(self):
        # (1, 2) for x^2 - 2 halves to (1, 3/2), narrower than 1/L = 1: the
        # candidate ceil(lo * L) / L is lo itself, no root, and bisection
        # goes on to the irrational root
        v = refine_root(IntPoly([-2, 0, 1]), (Fraction(1), Fraction(2)), 12)
        assert v.error_bound > 0 and v.decimal(12) == "1.414213562373"


class TestRefineGivenEnds:
    # _refine from a bracket (lo, hi, vlo, vhi), its end values each over its
    # own end's denominator, gives what refine_root gives from the interval
    # (lo, hi) and what plain bisection gives, and its residual is |p|
    # at the final cell's ends: non-dyadic ends are rescaled to the grid's
    @pytest.mark.parametrize("digits", [1, 15, 40])
    @pytest.mark.parametrize(
        "poly,lo,hi",
        [
            (IntPoly([1, 2, 1, 1]), Fraction(-13, 20), Fraction(-1, 2)),  # rho
            # rounds at 1 digit as given: the residual is |p| at the ends
            (IntPoly([1, 2, 1, 1]), Fraction(-13, 20), Fraction(-14, 25)),
            (difference(3 * 7, 4), Fraction(-13, 20), Fraction(-1, 2)),
            (difference(6 * 11, 4), Fraction(1, 2), Fraction(13, 20)),
            (difference(30, 4), Fraction(2, 5), Fraction(3, 5)),  # sigma
            (difference(30, 4), Fraction(1, 4), Fraction(3, 4)),
            (difference(30 * 7, 4 * 7), Fraction(2, 5), Fraction(3, 5)),
            (IntPoly([-1, 3]), Fraction(1, 7), Fraction(2, 5)),  # a rational root
            # dyadic
            (IntPoly([-2, 0, 1]), Fraction(5, 4), Fraction(3, 2)),
            (IntPoly([-2, 0, 1]), Fraction(1), Fraction(2)),
            (IntPoly([-1, 2]) * IntPoly([-3, 0, 1]), Fraction(0), Fraction(1)),
            (difference(3 * 5, 7), Fraction(1), Fraction(2)),
        ],
    )
    def test_same_as_evaluated_ends(self, poly, lo, hi, digits):
        cs = list(poly.coeffs)
        va, vb = (_eval_int_scaled(cs, x.numerator, x.denominator) for x in (lo, hi))
        iv = (lo, hi)
        got, residual = roots_mod._refine(cs, (lo, hi, va, vb), digits)
        assert got == refine_root(poly, iv, digits)
        assert _refined(got) == _refined(bisection_oracle(poly, iv, digits))
        assert residual == real_record_oracle(poly, iv, digits)[1].value


def descartes_oracle(p, lo, hi):
    # roots in the open interval (lo, hi) counted with multiplicity, from
    # public Sturm counts on (lo, hi] of each squarefree factor
    return sum(
        mult * (sturm_count(f, lo, hi) - (eval_rational(f, hi) == 0))
        for f, mult in yun_decomposition(p)
    )


@st.composite
def bracket_cases(draw):
    # a random cofactor times rational linear factors, some repeated, and a
    # bracket with non-dyadic endpoints; degree up to 58
    n = draw(st.integers(0, 40))
    p = IntPoly(draw(st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1)))
    if p.is_zero():
        p = IntPoly([1])
    for a, b, k in draw(st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 7), st.integers(1, 3)), max_size=6)):
        for _ in range(k):
            p = p * IntPoly([-a, b])
    lo = Fraction(draw(st.integers(-27, 27)), draw(st.integers(1, 9)))
    hi = lo + Fraction(draw(st.integers(1, 27)), draw(st.integers(1, 9)))
    return p, lo, hi


class TestDescartesIn:
    @given(bracket_cases())
    def test_against_sturm_oracle(self, case):
        p, lo, hi = case
        if p.degree < 1:
            return
        dc = _descartes_in(list(p.coeffs), lo, hi)
        want = descartes_oracle(p, lo, hi)
        assert dc >= want and (dc - want) % 2 == 0
        if dc <= 1:
            assert dc == want

    def test_degree_sixty(self):
        # Phi_61 - Phi_122 = 2 * (x + x^3 + ... + x^59) has no root but 0 in
        # (-1, 1); Descartes sees the complex pairs near the unit circle
        p = difference(61, 122)
        assert p.degree == 59
        for lo, hi in ((Fraction(-1, 3), Fraction(2, 7)), (Fraction(1, 10), Fraction(9, 10))):
            dc = _descartes_in(list(p.coeffs), lo, hi)
            want = descartes_oracle(p, lo, hi)
            assert dc >= want and (dc - want) % 2 == 0
        assert _descartes_in(list(p.coeffs), Fraction(1, 10), Fraction(9, 10)) == 0

    def test_endpoint_roots_excluded(self):
        p = from_roots((1, 3), (2, 3), (1, 1))  # roots 1/3, 2/3, 1
        cs = list(p.coeffs)
        assert _descartes_in(cs, Fraction(1, 3), Fraction(2, 3)) == 0
        assert _descartes_in(cs, Fraction(1, 3), Fraction(1)) == 1
        assert _descartes_in(cs, Fraction(0), Fraction(1)) == 2

    def test_double_root_counts_two(self):
        p = from_roots((1, 2), (1, 2))
        assert _descartes_in(list(p.coeffs), Fraction(0), Fraction(1)) == 2
        assert sturm_count(p, Fraction(0), Fraction(1)) == 1


class TestCoincidenceRecords:
    def test_known_exception_pair(self):
        rec = real_coincidence_roots(2, 6, 12)
        vals = [(r.value.value, r.value.error_bound) for r in rec.roots]
        assert vals == [(0, 0), (2, 0)]

    def test_30_4_contains_sigma(self):
        rec = real_coincidence_roots(30, 4, 13)
        assert "0.5284555592772" in [r.value.decimal(13) for r in rec.roots]

    def test_3_9_contains_one(self):
        rec = real_coincidence_roots(3, 9, 10)
        exact = [r.value.value for r in rec.roots if r.value.error_bound == 0]
        assert 1 in exact

    def test_rejects_equal(self):
        with pytest.raises(ValueError):
            real_coincidence_roots(4, 4, 10)


def real_record_oracle(p, iv, digits):
    # the modulus and residual as the Fraction form built them: |value| from
    # the bracket's ends, |p| evaluated at each end
    val = refine_root(p, iv, digits)
    lo, hi = val.lo, val.hi
    alo, ahi = (lo, hi) if lo >= 0 else (-hi, -lo) if hi <= 0 else (ZERO, max(-lo, hi))
    ends = [val.value] if val.error_bound == 0 else [lo, hi]
    res = max(abs(eval_rational(p, x)) for x in ends)
    return from_interval(alo, ahi), BigFloat(res)


# x^3 + 10^8 x - 1 has one real root, near 1e-8; refined from (-1, 2) at one
# digit its bracket is (-1/64, 1/32), which straddles 0
STRADDLE = (IntPoly([-1, 10 ** 8, 0, 1]), (Fraction(-1), Fraction(2)))


class TestRealRecordIntegers:
    @pytest.mark.parametrize("digits", [1, 15])
    def test_matches_fraction_form(self, digits):
        cases = _small_difference_brackets() + [STRADDLE]
        signs = set()
        for p, iv in cases:
            rec = roots_mod._real_root_record(*bracket_of(p, iv), digits, 1)
            assert (rec.modulus, rec.residual) == real_record_oracle(p, iv, digits), (p, iv)
            signs.add((rec.value.lo > 0) - (rec.value.hi < 0))
        assert signs == {-1, 0, 1}  # negative, straddling (or exact 0) and positive values

    def test_straddling_bracket(self):
        rec = roots_mod._real_root_record(*bracket_of(*STRADDLE), 1, 1)
        assert (rec.value.lo, rec.value.hi) == (Fraction(-1, 64), Fraction(1, 32))
        assert (rec.modulus.lo, rec.modulus.hi) == (0, Fraction(1, 32))


class TestWindow:
    def test_exception_pair_counts(self):
        counts, at_two = window_counts(2, 6)
        assert counts == (0, 0, 0, 1) and at_two

    def test_multiple_root_pairs(self):
        assert window_counts(3, 17)[0] == (0, 0, 0, 0)
        assert window_counts(8, 16)[0] == (0, 0, 0, 0)

    def test_window_to_40(self):
        report = verify_root_window(40, jobs=2)
        assert report == verify_root_window(40, jobs=1)
        assert report.holds and report.exception_found
        assert report.pairs_checked == 40 * 39 // 2

    def test_matches_sturm_oracle_to_40(self):
        for n in range(2, 41):
            for m in range(1, n):
                assert window_counts(m, n) == window_oracle(difference(m, n)), (m, n)

    def test_descartes_certifies_every_pair_to_72(self):
        report = verify_root_window(72)
        assert report.holds and report.exception_found
        assert report.sturm_fallbacks == 0

    WINDOW_CACHES = (_index_norms, _index_packed, _index_padded, _power_of_three, _digit_bias)

    def test_cached_integers_match_formulas(self):
        for nb in (1, 2, 8, 16, 24):
            y = (1 << 8 * nb) + 2
            for n in range(1, 61):
                phi = cyclotomic(n).degree
                maps = _region_maps(list(cyclotomic(n).coeffs))
                for D in (phi, phi + 1, phi + 8, 2 * phi + 3):
                    # the inner two maps of Phi_n times (2+t)^(D - phi), at t = y - 2
                    want = tuple(_packed(ts, y) * (y ** (D - phi) if i in (1, 2) else 1) for i, ts in enumerate(maps))
                    assert _index_padded(n, nb, D) == want, (n, nb, D)
            for n in range(1, 60):
                want = sum(1 << (8 * nb * i + 8 * nb - 1) for i in range(n))
                assert _digit_bias(nb, n) == want, (nb, n)
        for D in range(400):
            assert _power_of_three(D) == 3**D, D

    def test_report_same_with_cold_and_warm_caches(self):
        for cache in self.WINDOW_CACHES:
            cache.cache_clear()
        cold = verify_root_window(72, jobs=1)
        assert cold == verify_root_window(72, jobs=1)
        assert cold == WindowReport(72, 72 * 71 // 2, (), True, 0)

    def test_shuffled_pair_order_same_verdicts(self):
        # the caches fill in whatever order pairs arrive, as the benchmark's
        # seeds order them; the verdicts must not depend on that order
        pairs = [(m, n) for n in range(2, 73) for m in range(1, n)]
        want = {p: _pair_window(*p) for p in pairs}
        for seed in (1, 2, 3):
            for cache in self.WINDOW_CACHES:
                cache.cache_clear()
            order = random.Random(seed).sample(pairs, len(pairs))
            assert {p: _pair_window(*p) for p in order} == want, seed

    def test_fallbacks_summed_over_pairs(self, monkeypatch):
        monkeypatch.setattr(window_mod, "_pair_window", lambda m, n: ((0, 0, 0, 0), False, 2))
        assert verify_root_window(5, jobs=1).sturm_fallbacks == 2 * 10

    def test_report_rule(self):
        # a nonzero count is a violation, except one root of {2, 6} at exactly 2
        clear = (0, 0, 0, 0)
        rows = [(1, 2, clear, False), (2, 6, (0, 0, 0, 1), True)]
        assert window_mod.window_report(6, rows) == WindowReport(6, 2, (), True)
        for bad, region in (((0, 0, 0, 2), "[2,inf)"), ((0, 0, 0, 1), "[2,inf)"), ((1, 0, 0, 0), "(-inf,-2]")):
            for m, n, at_two in ((2, 6, False), (3, 5, True)):
                report = window_mod.window_report(6, [(m, n, bad, at_two)], sturm_fallbacks=3)
                assert report.violations == ((m, n, region, max(bad)),) and not report.holds
                assert not report.exception_found and report.sturm_fallbacks == 3
        report = window_mod.window_report(6, [(2, 6, (0, 1, 0, 1), True)])
        assert report.violations == ((2, 6, "[-1/2,0)", 1),) and report.exception_found

    def test_per_index_path_matches_exact_path_to_72(self):
        # every pair but {2, 6} is cleared by the cached per-index values,
        # and the counts agree with the exact path's on every pair
        for n in range(2, 73):
            for m in range(1, n):
                assert _window_clear(m, n) == ((m, n) != (2, 6)), (m, n)
                assert _pair_window(m, n)[:2] == _window_counts(difference(m, n))[:2], (m, n)

    def test_inner_maps_repeat_outer_ones(self):
        # Phi_n is palindromic of even degree for n >= 3, so
        # y^phi Phi_n(+-1/y) = Phi_n(+-y): the cache computes and holds two
        # values per index there, and four only for n = 1, 2
        for n in range(3, 201):
            neg, neg_inv, pos_inv, pos = _region_maps(list(cyclotomic(n).coeffs))
            assert neg_inv == neg and pos_inv == pos, n
        y = (1 << 128) + 2
        for n in range(1, 41):
            vals = _index_packed(n, 16)
            assert vals == tuple(_packed(ts, y) for ts in _region_maps(list(cyclotomic(n).coeffs))), n
            assert (vals[0] is vals[1] and vals[2] is vals[3]) == (n >= 3), n

    # the padded degrees up to 224, the top one of the pairs up to 200:
    # steps of 8 below 64, of 16 below 128 and of 32 below 256
    LADDER = (*range(8, 65, 8), 80, 96, 112, 128, 160, 192, 224)

    def test_region_values_are_shifted_differences(self, monkeypatch):
        # each packed region value, unpacked digit by digit, is the Taylor
        # shift by 2 of the region map of Phi_m - Phi_n padded to degree D,
        # times (2+t)^(Db - D) for the inner two, Db being D up the ladder;
        # the outer two are zero-extended to Db + 1 digits
        seen = []
        monkeypatch.setattr(window_mod, "_packed_root_free", lambda v, nb, k: seen.append((v, nb, k)) or True)
        for n in range(2, 41):
            for m in range(1, n):
                seen.clear()
                assert _window_clear(m, n)
                D = max(cyclotomic(m).degree, cyclotomic(n).degree)
                Db = min(r for r in self.LADDER if r >= D)
                cs = list(difference(m, n).coeffs)
                cs += [0] * (D + 1 - len(cs))
                want = [_unpack(*_packed_shift(ts, 2), len(ts)) for ts in _region_maps(cs)]
                want = [w + [0] * (Db - D) if i in (0, 3) else times_linear(w, 2, Db - D) for i, w in enumerate(want)]
                assert all(k == Db + 1 for _, _, k in seen), (m, n)
                assert [unpack_signed_digits(*args) for args in seen] == want, (m, n)

    def test_every_pair_to_200_cleared_from_few_padded_degrees(self, monkeypatch):
        # every pair but {2, 6} is cleared, each pair pads to the lowest rung
        # of the ladder at or above its degree, and so each index needs one
        # width and one padded value per rung at or above its own degree,
        # whatever its partners
        calls, keys = [], {}
        padded = window_mod._index_padded
        monkeypatch.setattr(window_mod, "_index_padded", lambda n, nb, D: calls.append((n, nb, D)) or padded(n, nb, D))
        for n in range(2, 201):
            for m in range(1, n):
                calls.clear()
                assert _window_clear(m, n) == ((m, n) != (2, 6)), (m, n)
                D = max(cyclotomic(m).degree, cyclotomic(n).degree)
                assert [c[0] for c in calls] == [m, n] and calls[0][1:] == calls[1][1:], (m, n)
                assert calls[0][2] == min(r for r in self.LADDER if r >= D), (m, n)
                for k, nb, Db in calls:
                    keys.setdefault(k, {}).setdefault(Db, set()).add(nb)
        for k, rungs in keys.items():
            assert all(len(widths) == 1 for widths in rungs.values()), k
            assert set(rungs) <= {r for r in self.LADDER if r >= cyclotomic(k).degree}, k
        assert max(map(len, keys.values())) == len(self.LADDER)

    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=12).filter(lambda cs: cs[0]),
        st.sampled_from([1, 2, 3]),
        st.integers(0, 20),
    )
    def test_positive_linear_factor_adds_no_variation(self, cs, c, j):
        # the lemma the ladder's speed rests on (Polya and Szego, Part V):
        # multiplying by t + c with c > 0 never adds a sign variation
        assert _variations(times_linear(cs, c, j)) <= _variations(cs)

    def test_exception_pair_takes_exact_path(self, monkeypatch):
        calls = []
        exact = window_mod._window_counts
        monkeypatch.setattr(window_mod, "_window_counts", lambda p: calls.append(p) or exact(p))
        assert _pair_window(2, 6) == ((0, 0, 0, 1), True, 0)
        assert calls == [difference(2, 6)]
        calls.clear()
        assert _pair_window(6, 10) == ((0, 0, 0, 0), False, 0)
        assert calls == []

    X2_6X_10 = IntPoly([10, -6, 1])  # roots 3 +- i: variations past 2, no real root
    R = IntPoly([1, -6, 10])  # 10x^2 - 6x + 1, roots (3 +- i)/10: variations on (0, 1/2)
    R_NEG = IntPoly([1, 6, 10])  # R(-x), roots (-3 +- i)/10: variations on (-1/2, 0)

    @pytest.mark.parametrize(
        "p,counts,fallbacks",
        [
            (X2_6X_10, (0, 0, 0, 0), 1),
            # one variation per region: Descartes counts the root
            (from_roots((3, 1)), (0, 0, 0, 1), 0),
            (from_roots((-3, 1)), (1, 0, 0, 0), 0),
            (from_roots((1, 3)), (0, 0, 1, 0), 0),
            (from_roots((-1, 3)), (0, 1, 0, 0), 0),
            (from_roots((3, 1), (-3, 1), (1, 3), (-1, 3)), (1, 1, 1, 1), 0),
            # squared and cubed factors: counts are of distinct roots
            (from_roots((3, 1), (3, 1), (-3, 1), (-3, 1), (-3, 1)) * X2_6X_10, (1, 0, 0, 1), 2),
            (from_roots((1, 3), (1, 3), (5, 2)) * X2_6X_10 * X2_6X_10, (0, 0, 1, 1), 2),
            # exact endpoint roots are divided out and need no fallback
            (from_roots((2, 1), (2, 1), (-1, 2), (0, 1), (0, 1)), (0, 1, 0, 1), 0),
            (from_roots((2, 1), (3, 1), (1, 2), (1, 5), (-2, 1)), (1, 0, 2, 2), 0),
            # the root at 0 is divided out before the count on (-1/2, 0]
            (from_roots((0, 1), (0, 1), (-1, 3)), (0, 1, 0, 0), 0),
            (IntPoly([-7]), (0, 0, 0, 0), 0),
            # complex pairs send the inner regions to the chain
            (R, (0, 0, 0, 0), 1),
            (R_NEG, (0, 0, 0, 0), 1),
            (from_roots((1, 3)) * R, (0, 0, 1, 0), 1),
            (from_roots((-1, 3), (-1, 3)) * R_NEG, (0, 1, 0, 0), 1),
            (R * R_NEG, (0, 0, 0, 0), 2),
        ],
    )
    def test_sturm_fallback(self, p, counts, fallbacks):
        assert _window_counts(p) == (counts, eval_rational(p, TWO) == 0, fallbacks)
        assert window_oracle(p) == (counts, eval_rational(p, TWO) == 0)

    def test_one_prs_for_every_fallback(self, monkeypatch):
        # four regions of two or more variations are counted on one Sturm chain
        calls = []
        prs = roots_mod._prs
        monkeypatch.setattr(roots_mod, "_prs", lambda a, b: calls.append(1) or prs(a, b))
        q_neg = IntPoly([10, 6, 1])  # X2_6X_10 at -x: variations past -2
        p = from_roots((3, 1), (-3, 1), (1, 3), (-1, 3)) * self.X2_6X_10 * q_neg * self.R * self.R_NEG
        assert _window_counts(p) == ((1, 1, 1, 1), False, 4)
        assert len(calls) == 1


def window_stripped(p):
    # p with its roots at 0 and at the window's endpoints divided out, as the
    # window's exact path leaves it
    cs = list(p.coeffs)
    cs = cs[next(i for i, c in enumerate(cs) if c):]
    for a, b in window_mod._WINDOW_POINTS:
        cs, _ = roots_mod._strip_root_at(cs, a, b)
    return cs


class TestRootsIn:
    # the one count rule: 0 or 1 Descartes variation settles the count with
    # no chain, and any other count is read off the Sturm chain, the one
    # given or one built and handed back
    def check(self, cs, lo, hi):
        count, chain = roots_mod._roots_in(cs, lo, hi)
        assert count == sturm_count(IntPoly(cs), lo, hi), (cs, lo, hi)
        assert (chain is None) == (_descartes_in(cs, lo, hi) <= 1), (cs, lo, hi)
        if chain is not None:
            assert roots_mod._roots_in(cs, lo, hi, chain) == (count, chain)
        return chain is not None

    def test_window_regions_to_36(self):
        polys = [window_stripped(difference(m, n)) for n in range(2, 37) for m in range(1, n)]
        polys = [cs for cs in polys if len(cs) > 1]
        assert len(polys) > 600
        for cs in polys:
            for lo, hi in window_mod._WINDOW_OPEN:
                self.check(cs, lo, hi)

    @pytest.mark.parametrize(
        "p",
        [
            TestWindow.R * TestWindow.R_NEG * from_roots((-3, 1), (3, 1), (1, 3)),
            from_roots((1, 3), (1, 3), (5, 2)) * TestWindow.X2_6X_10 * TestWindow.X2_6X_10,
            from_roots((3, 1), (3, 1), (-3, 1), (-3, 1), (-3, 1)) * TestWindow.X2_6X_10,
            from_roots((1, 5), (1, 4), (2, 5)),  # three roots in (0, 1/2)
        ],
    )
    def test_planted_chain_counts(self, p):
        cs = window_stripped(p)
        fallbacks = [self.check(cs, lo, hi) for lo, hi in window_mod._WINDOW_OPEN]
        assert any(fallbacks)

    @given(bracket_cases())
    def test_brackets_against_sturm_count(self, case):
        p, lo, hi = case
        if p.degree >= 1 and eval_rational(p, lo) and eval_rational(p, hi):
            self.check(list(p.coeffs), lo, hi)

    def test_given_chain_is_reused(self, monkeypatch):
        calls = []
        prs = roots_mod._prs
        monkeypatch.setattr(roots_mod, "_prs", lambda a, b: calls.append(1) or prs(a, b))
        cs = list((TestWindow.R * TestWindow.R_NEG).coeffs)
        count, chain = roots_mod._roots_in(cs, 0, HALF)
        assert count == 0 and chain is not None and len(calls) == 1
        assert roots_mod._roots_in(cs, -HALF, 0, chain) == (0, chain) and len(calls) == 1
        assert roots_mod._roots_in(cs, 2, None, chain) == (0, None) and len(calls) == 1


class TestComplexRoots:
    def test_pure_imaginary_pair(self):
        rs = complex_roots(difference(1, 3), 256)
        assert [r.kind for r in rs] == ["complex", "complex"]
        for r in rs:
            assert r.modulus.lo ** 2 <= 2 <= r.modulus.hi ** 2

    def test_quadratic_modulus_sqrt2(self):
        rs = complex_roots(difference(1, 4), 256)
        for r in rs:
            assert r.modulus.lo ** 2 <= 2 <= r.modulus.hi ** 2
        res = [float(r.value[0].value) for r in rs]
        assert res == [0.5, 0.5]

    def test_cyclotomic_four(self):
        rs = complex_roots(cyclotomic(4), 256)
        ims = sorted(float(r.value[1].value) for r in rs)
        assert ims == [-1.0, 1.0]
        assert all(r.residual.value == 0 for r in rs)  # exact dyadic roots

    def test_degree_conservation(self):
        for m, n in ((5, 6), (7, 9), (12, 15), (3, 20)):
            d = difference(m, n)
            rs = complex_roots(d, 128)
            assert sum(r.multiplicity for r in rs) == d.degree

    def test_residual_bound(self):
        bits = 192
        for m, n in ((5, 9), (8, 11)):
            d = difference(m, n)
            for r in complex_roots(d, bits):
                bound = (
                    Fraction(1, 2 ** (bits // 2))
                    * (1 + r.modulus.hi) ** d.degree
                    * max(map(abs, d.coeffs))
                )
                assert r.residual.hi < bound

    def test_multiplicity_resolution(self):
        p = IntPoly([2, 0, 1]) * IntPoly([2, 0, 1]) * IntPoly([-1, 1])
        rs = complex_roots(p, 128)
        mults = sorted((r.kind, r.multiplicity) for r in rs)
        assert mults == [("complex", 2), ("complex", 2), ("real", 1)]

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            complex_roots(IntPoly([3]), 128)

    @pytest.mark.parametrize("m, n", [(1, 3), (3, 7), (5, 12), (2, 9), (7, 10), (11, 13)])
    def test_modulus_matches_sqrt_interval(self, m, n):
        # the modulus from one integer square root is the enclosure
        # sqrt_interval gives for |centre|, widened by the radius
        for r in complex_roots(difference(m, n), 256):
            parts = [r.value] if r.kind == "real" else list(r.value)
            rad = parts[0].error_bound
            mlo, mhi = sqrt_interval(sum(c.value * c.value for c in parts), 256)
            assert r.modulus == from_interval(max(ZERO, mlo - rad), mhi + rad)


GOLDEN = json.loads((Path(__file__).with_name("complex_roots_golden.json")).read_text())


def _complex_exact(r) -> tuple:
    # every stored rational of a complex-roots record, in field order
    parts = (r.value,) if r.kind == "real" else r.value
    pairs = tuple((v.value, v.error_bound) for v in parts)
    modulus, residual = (r.modulus.value, r.modulus.error_bound), (r.residual.value, r.residual.error_bound)
    return r.kind, pairs, modulus, residual, r.multiplicity


class TestComplexGolden:
    # rendered records (as the CLI prints them at 15 digits) and a digest of
    # the exact centres, radii, moduli and residuals.  The first four
    # were captured before the integer certification kernel replaced the
    # Fraction one; (3, 7) (a linear factor and the +-i/0 tie) and (25, 49)
    # (a squarefree factor of degree 37) before the sweeps left mpc objects
    @pytest.mark.parametrize("case", GOLDEN, ids=lambda c: "%d-%d-%d" % (c["m"], c["n"], c["bits"]))
    def test_records_unchanged(self, case):
        rs = complex_roots(difference(case["m"], case["n"]), case["bits"])
        assert [json.dumps(_root_record_obj(r, 15)) for r in rs] == case["records"]
        exact = repr([_complex_exact(r) for r in rs])
        assert hashlib.sha256(exact.encode()).hexdigest() == case["exact_sha256"]


REAL_GOLDEN = json.loads((Path(__file__).with_name("real_roots_golden.json")).read_text())


def _real_exact(rec) -> str:
    # every stored rational of a real coincidence record, in order
    fields = [f for r in rec.roots for f in (r.value, r.modulus, r.residual)]
    if rec.max_abs_real is not None:
        fields.append(rec.max_abs_real)
    return repr([(f.value, f.error_bound) for f in fields])


class TestRealGolden:
    # rendered lines (as `cyclolab roots` prints them at 15 digits) and a
    # digest of the exact value and error bound of every value, modulus,
    # residual and max_abs_real, captured before the records were built
    # from integers.  (9, 24) is not squarefree (a triple root at 0)
    @pytest.mark.parametrize("case", REAL_GOLDEN, ids=lambda c: "%d-%d" % (c["m"], c["n"]))
    def test_records_unchanged(self, case):
        rec = real_coincidence_roots(case["m"], case["n"], 15)
        assert _record_line(rec, 15) == case["line"]
        assert hashlib.sha256(_real_exact(rec).encode()).hexdigest() == case["exact_sha256"]


class TestAberthRestart:
    # _certified_disks certifies at 2x precision, restarts at 4x when its
    # disks overlap, and raises when both passes fail
    def _reject(self, monkeypatch, passes):
        # the first `passes` disjointness checks fail; with passes=None, all do
        checks, precisions = [], []
        disjoint, sweeps = complex_mod._disks_disjoint, complex_mod._aberth_sweeps

        def gate(disks):
            checks.append(disks)
            return passes is not None and len(checks) > passes and disjoint(disks)

        monkeypatch.setattr(complex_mod, "_disks_disjoint", gate)
        monkeypatch.setattr(
            complex_mod, "_aberth_sweeps", lambda cs, prec, budget: precisions.append(prec) or sweeps(cs, prec, budget)
        )
        return checks, precisions

    def test_restart_at_four_times_precision(self, monkeypatch):
        d = difference(1, 3)
        expected = [json.dumps(_root_record_obj(r, 15)) for r in complex_roots(d, 256)]
        checks, precisions = self._reject(monkeypatch, 1)
        rs = complex_roots(d, 256)
        assert precisions == [512, 1024] and len(checks) == 2
        assert [json.dumps(_root_record_obj(r, 15)) for r in rs] == expected
        # the 4x pass gives every root a smaller radius
        assert all(r4 < r2 for (_, _, r2, _), (_, _, r4, _) in zip(*checks))

    def test_both_passes_rejected(self, monkeypatch, capsys):
        checks, precisions = self._reject(monkeypatch, None)
        with pytest.raises(roots_mod.RootConvergenceError):
            complex_roots(difference(1, 3), 256)
        assert precisions == [512, 1024] and len(checks) == 2
        out = io.StringIO()
        assert dispatch(["roots", "1", "3", "--complex"], out) == 1
        assert out.getvalue() == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "RootConvergenceError" in err[0]


DYADIC = st.builds(
    lambda n, e: Fraction(n, 1 << e), st.integers(min_value=-(1 << 20), max_value=1 << 20), st.integers(0, 24)
)
RADIUS = st.builds(Fraction, st.integers(min_value=0, max_value=1000), st.integers(min_value=1, max_value=10 ** 6))


class TestDisksDisjoint:
    @given(st.lists(st.tuples(DYADIC, DYADIC, RADIUS), min_size=1, max_size=6))
    def test_matches_fraction_check(self, disks):
        expected = all(
            (xi - xj) ** 2 + (yi - yj) ** 2 > (ri + rj) ** 2
            for i, (xi, yi, ri) in enumerate(disks)
            for xj, yj, rj in disks[i + 1:]
        )
        assert _disks_disjoint([(x, y, r, None) for x, y, r in disks]) == expected

    def test_touching_disks_are_not_disjoint(self):
        # |3/4 - 0| = 1/3 + 5/12 exactly; a nudge of 2^-40 separates them
        a = (Fraction(0), Fraction(0), Fraction(1, 3), None)
        assert not _disks_disjoint([a, (Fraction(3, 4), Fraction(0), Fraction(5, 12), None)])
        assert _disks_disjoint([a, (Fraction(3, 4) + Fraction(1, 1 << 40), Fraction(0), Fraction(5, 12), None)])


class TestSqrt2Proof:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_pairs_with_one_attain(self, n):
        d = difference(1, n)
        quads = _sqrt2_quadratic_roots(d)
        hits = [r for r in complex_roots(d, 256) if r.kind == "complex" and _attains_sqrt2(r, quads)]
        assert len(hits) == 2  # a conjugate pair

    def test_exact_quadratics(self):
        # Phi_1 - Phi_6 = -(x^2 - 2x + 2): roots 1 +- i
        assert _sqrt2_quadratic_roots(difference(1, 6)) == [(-2, Fraction(1), 1)]
        assert _sqrt2_quadratic_roots(difference(2, 3)) == []

    def test_moved_disk_refused(self):
        d = difference(1, 4)  # roots (1 +- i sqrt 7)/2: nondyadic, radius > 0
        quads = _sqrt2_quadratic_roots(d)
        for r in complex_roots(d, 256):
            re, im = r.value
            assert re.error_bound > 0 and _attains_sqrt2(r, quads)
            shift = 3 * re.error_bound
            moved_re = BigFloat(re.value + shift, re.error_bound)
            moved = RootRecord(r.kind, (moved_re, im), r.modulus, r.residual, r.multiplicity)
            assert not _attains_sqrt2(moved, quads)

    def test_multiplicity_mismatch_refused(self):
        d = difference(1, 3)
        quads = _sqrt2_quadratic_roots(d)
        for r in complex_roots(d, 256):
            assert _attains_sqrt2(r, quads)
            doubled = RootRecord(r.kind, r.value, r.modulus, r.residual, multiplicity=2)
            assert not _attains_sqrt2(doubled, quads)

    def test_repeated_factor(self):
        p = IntPoly([2, 0, 1]) * IntPoly([2, 0, 1]) * IntPoly([2, 1, 1])
        quads = _sqrt2_quadratic_roots(p)
        assert quads == [(0, Fraction(2), 2), (1, Fraction(7, 4), 1)]
        rs = complex_roots(p, 128)
        assert all(_attains_sqrt2(r, quads) for r in rs)


class TestYun:
    def test_square_factor(self):
        p = IntPoly([-2, 0, 1]) * IntPoly([-2, 0, 1]) * IntPoly([-1, 1])
        decomp = {mult: f.coeffs for f, mult in yun_decomposition(p)}
        assert decomp[1] == (-1, 1)
        assert decomp[2] == (-2, 0, 1)

    def test_squarefree_passthrough(self):
        p = difference(15, 7)
        assert yun_decomposition(p) == [(squarefree_part(p), 1)]


def unsplit_factors(cs):
    # Yun's factors from the Sturm chain of cs itself, with no x^k split
    return [(IntPoly(f), mult) for f, mult in roots_mod._yun(roots_mod._sturm_chain(cs))]


def unsplit_real_roots(m, n):
    # the records of real_coincidence_roots(m, n), each unsplit Yun factor
    # isolated on its own Sturm chain
    d = difference(m, n)
    if d.degree < 1:
        return ()
    records = []
    for f, mult in unsplit_factors(_primitive(list(d.coeffs))):
        factor, brackets = roots_mod._isolate_chain(roots_mod._sturm_chain(list(f.coeffs)))
        records += [roots_mod._real_root_record(factor, br, 15, mult) for br in brackets]
    return tuple(sorted(records, key=lambda r: r.value.value))


class TestSquarefreeSplit:
    # x^k with k >= 2 is split off before Yun; the factors, their order and
    # their signs, and every real record must be those of the unsplit route
    def test_pairs_match_unsplit_route(self):
        split_pairs, repeated_q = 0, []
        for m in range(1, 61):
            for n in range(m + 1, 61):
                d = difference(m, n)
                if d.degree < 1:
                    continue
                cs = _primitive(list(d.coeffs))
                assert yun_decomposition(d) == unsplit_factors(cs), (m, n)
                assert real_coincidence_roots(m, n, 15).roots == unsplit_real_roots(m, n), (m, n)
                k = next(i for i, c in enumerate(cs) if c)  # x^k divides d
                if k >= 2:
                    split_pairs += 1
                    if any(mult > 1 for _, mult in yun_decomposition(IntPoly(cs[k:]))):
                        repeated_q.append((m, n))
        assert split_pairs > 500
        # pairs whose x-free part has a repeated root, with x joined to a
        # factor, x last, and negative leading coefficients among them
        assert {(20, 24), (21, 26), (13, 42), (35, 39), (40, 48)} <= set(repeated_q)

    @pytest.mark.parametrize(
        "p, expected",
        [
            # x joins the multiplicity-3 factor: x^3 (x - 1)^3 (x + 2), and
            # its negation, whose last factor takes the negative sign
            ([[0, 1]] * 3 + [[-1, 1]] * 3 + [[2, 1]], [([2, 1], 1), ([0, -1, 1], 3)]),
            ([[-1]] + [[0, 1]] * 3 + [[-1, 1]] * 3 + [[2, 1]], [([2, 1], 1), ([0, 1, -1], 3)]),
            # x enters before a higher multiplicity: x^2 (x - 1)^3 (x + 2)
            ([[0, 1]] * 2 + [[-1, 1]] * 3 + [[2, 1]], [([2, 1], 1), ([0, 1], 2), ([-1, 1], 3)]),
            ([[-1]] + [[0, 1]] * 2 + [[-1, 1]] * 3 + [[2, 1]], [([2, 1], 1), ([0, 1], 2), ([1, -1], 3)]),
            # x comes last: x^3 (x^2 - 2) and -x^4 (x + 1)^2
            ([[0, 1]] * 3 + [[-2, 0, 1]], [([-2, 0, 1], 1), ([0, 1], 3)]),
            ([[-1]] + [[0, 1]] * 4 + [[1, 1]] * 2, [([1, 1], 2), ([0, -1], 4)]),
            # a monomial
            ([[0, -3]] * 5, [([0, -1], 5)]),
        ],
    )
    def test_planted_factors(self, p, expected):
        poly = IntPoly([1])
        for f in p:
            poly = poly * IntPoly(f)
        cs = _primitive(list(poly.coeffs))
        assert yun_decomposition(poly) == unsplit_factors(cs) == [(IntPoly(f), k) for f, k in expected]


def two_loop_gcd(a, b):
    # the standalone gcd loop roots.py ran beside the Sturm chain before
    # both came from one PRS: unnegated primitive remainders
    a = _trim(_primitive(list(a)))
    b = _trim(_primitive(list(b)))
    if len(a) < len(b):
        a, b = b, a
    while b and len(b) > 1:
        r = _pseudo_rem_even(a, b)
        a, b = b, (_primitive(r) if r else [])
    if b:
        return [1]
    return a if a[-1] > 0 else [-c for c in a]


SMALL_POLY = st.lists(st.integers(-4, 4), min_size=1, max_size=6).map(IntPoly).filter(lambda p: not p.is_zero())


class TestPRS:
    @given(SMALL_POLY, SMALL_POLY, SMALL_POLY, st.integers(1, 3))
    def test_gcd_matches_two_loop_oracle(self, g, u, v, k):
        # products with a shared factor g^k
        shared = IntPoly([1])
        for _ in range(k):
            shared = shared * g
        a, b = list((shared * u).coeffs), list((shared * v).coeffs)
        got = _gcd_list(a, b)
        assert got == two_loop_gcd(a, b) == _gcd_list(b, a)
        for f in (a, b):
            IntPoly(f).div_exact(IntPoly(got))

    def test_one_prs_per_call(self, monkeypatch):
        # the gcd, the squarefree part and the counts all come from one chain
        calls = []
        prs = roots_mod._prs
        monkeypatch.setattr(roots_mod, "_prs", lambda a, b: calls.append(1) or prs(a, b))
        d = difference(7, 15)

        def count(fn, *args):
            calls.clear()
            fn(*args)
            return len(calls)

        assert count(isolate_real_roots, d) == 1
        assert count(sturm_count, d, None, None) == 1
        assert count(sturm_count, d, Fraction(1), Fraction(2)) == 1
        # a squarefree difference is isolated on the chain Yun starts from
        assert count(real_coincidence_roots, 15, 7) == 1
        # the double root sqrt(3) of (x^2 - 3)^2 defeats Descartes in the
        # near-miss search and in refine_root's count; each runs one chain
        sq = IntPoly([-3, 0, 1]) * IntPoly([-3, 0, 1])
        assert nearmiss._largest_real_root(sq, 1)[1] is True
        assert count(nearmiss._largest_real_root, sq, 1) == 1
        assert count(refine_root, sq, (1, 2), 1) == 1
        # the pair 3 +- i shows two variations on (2, inf), which sends the
        # call to the fallback and its one chain
        pair = IntPoly([10, -6, 1]) * IntPoly([-3, 0, 1])
        v, fell_back = nearmiss._largest_real_root(pair, 14)
        assert fell_back and v.decimal(14) == "1.73205080756888"
        assert count(nearmiss._largest_real_root, pair, 1) == 1


class TestIsolationEvaluations:
    def test_squarefree_part_evaluated_once_per_point(self, monkeypatch):
        # one chain evaluation per bisection point: the squarefree part's
        # sign there is read from chain[0], and the brackets' end values
        # are those same values.  A chain with no real root
        # needs no evaluation (its signs at +-infinity are those of its
        # leading terms), so the guard against a vacuous pass is the number
        # of points over all chains
        evaluated = []
        kernel = roots_mod._eval_int_scaled
        isolate = roots_mod._isolate_chain

        def counted(cs, a, b):
            evaluated.append((tuple(cs), a, b))
            return kernel(cs, a, b)

        def checked(chain):
            evaluated.clear()
            cs, brackets = isolate(chain)
            points = [(a, b) for f, a, b in evaluated if f == tuple(cs)]
            assert len(points) == len(set(points)), cs
            npoints.append(len(points))
            calls.append(len(brackets))
            return cs, brackets

        calls, npoints = [], []
        monkeypatch.setattr(roots_mod, "_eval_int_scaled", counted)
        monkeypatch.setattr(roots_mod, "_isolate_chain", checked)
        for m in range(1, 25):
            for n in range(m + 1, 25):
                real_coincidence_roots(m, n, 15)
        assert len(calls) > 200 and sum(calls) > 200
        assert sum(npoints) > 1000  # 1209 points


class TestRealEvaluationCount:
    def test_pairs_up_to_24(self, monkeypatch):
        # exact evaluations of real_coincidence_roots over the pairs
        # m < n <= 24, counted at every binding of the kernel: 8939, against
        # 16982 when refinement restarted QIR at one bit per step, the
        # chains were evaluated at -B, 0 and B, and refinement and the
        # records evaluated the bracket ends again
        calls = []
        kernel = polycore_mod._eval_int_scaled

        def counted(cs, a, b):
            calls.append(1)
            return kernel(cs, a, b)

        for mod in (polycore_mod, roots_mod):
            monkeypatch.setattr(mod, "_eval_int_scaled", counted)
        for m in range(1, 25):
            for n in range(m + 1, 25):
                real_coincidence_roots(m, n, 15)
        assert len(calls) <= 8939

    def test_near_miss_and_limit_items(self, monkeypatch):
        # the near-miss, table1, limit-family and limit-constant items of the
        # benchmark's real-roots workload: 1075 exact evaluations, against
        # 1209 when the near-miss search and refinement both evaluated the
        # bracket ends
        calls = []
        kernel = polycore_mod._eval_int_scaled

        def counted(cs, a, b):
            calls.append(1)
            return kernel(cs, a, b)

        for mod in (polycore_mod, roots_mod, nearmiss):
            monkeypatch.setattr(mod, "_eval_int_scaled", counted)
        primes = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
        params = {"three_p": primes, "six_p": primes, "thirty_p": [7, 11, 13], "primorial": [3, 4]}
        for p in (2, 3):
            for q, _ in nearmiss.find_triples(p, 200):
                if 128 < (p - 1) * (q - 1) <= 200:
                    nearmiss.near_miss_root(p, q, 15)
        for row in nearmiss.TABLE_ROWS:
            nearmiss.table1([row], 15)
        for family, ks in params.items():
            for k in ks:
                nearmiss.limit_family_root(family, k, 14)
        nearmiss.limit_constants(13)
        assert len(calls) <= 1075


def _predictor_cases():
    # every root of the pairs up to 24, the ten near-miss roots, the limit
    # families and the table1 rows (refined at 27 digits)
    out = [(real_coincidence_roots, m, n, 15) for n in range(2, 25) for m in range(1, n)]
    out += [(nearmiss.near_miss_root, p, q, 15) for p in (2, 3)
            for q, _ in nearmiss.find_triples(p, 200) if 128 < (p - 1) * (q - 1) <= 200]
    primes = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    params = {"three_p": primes, "six_p": primes, "thirty_p": [7, 11, 13], "primorial": [3, 4]}
    out += [(nearmiss.limit_family_root, f, k, 14) for f, ks in params.items() for k in ks]
    out.append((nearmiss.table1, nearmiss.TABLE_ROWS, 15))
    return out


@pytest.fixture(scope="module")
def unpatched_results():
    return [fn(*args) for fn, *args in _predictor_cases()]


class TestFloatPredictor:
    # the float estimate only chooses which grid point QIR evaluates next:
    # no estimate, a wrong one, or a rough one gives the same values, error
    # bounds and residuals
    @pytest.mark.parametrize("predictor", ["none", "lower-end", "off-by-1e-3", "real"])
    def test_cannot_change_a_result(self, monkeypatch, unpatched_results, predictor):
        estimate = roots_mod._float_root
        calls = []

        def patched(cs, lo, hi, d, flo, fhi):
            calls.append(1)
            x = estimate(cs, lo, hi, d, flo, fhi)
            return {"none": None, "lower-end": lo / d, "off-by-1e-3": x and x + 1e-3, "real": x}[predictor]

        monkeypatch.setattr(roots_mod, "_float_root", patched)
        cases = _predictor_cases()
        assert len(cases) == 276 + 10 + 35 + 1
        for (fn, *args), want in zip(cases, unpatched_results):
            assert fn(*args) == want, (fn.__name__, args[:2])
        assert len(calls) > 250  # 259 estimates


class TestInfiniteEnds:
    # isolation and sturm_count take a chain's signs at -infinity and
    # infinity from its leading terms, where the chain used to be evaluated
    # at -B and B, B the Cauchy bound of its squarefree part.  A later
    # element may change sign beyond B, so the variations there can
    # differ, but each count is a difference against a point between -B
    # and B, beyond which p has no root
    PLANTED = [-3, 3, 0, 0, 1, 3]  # 3x^5 + x^4 + 3x - 3, B = 2

    @staticmethod
    def variations_at_bound(chain, x, side, variations_at=roots_mod._variations_at):
        # an infinite end evaluated at side * B
        if x is not None:
            return variations_at(chain, x, side)
        B = _cauchy_bound(roots_mod._squarefree_of(chain))
        signs = [v > 0 for v in (_eval_int_scaled(cs, side * B, 1) for cs in chain) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    @staticmethod
    def changes_beyond_bound(chain):
        # the (index, side) of each chain element whose sign at side * B
        # is not its sign at side * infinity
        B = _cauchy_bound(roots_mod._squarefree_of(chain))
        return [(i, side) for i, cs in enumerate(chain) for side in (-1, 1)
                if (_eval_int_scaled(cs, side * B, 1) > 0) != ((cs[-1] if side > 0 or len(cs) % 2 else -cs[-1]) > 0)]

    def chains(self):
        out = [_primitive(list(difference(m, n).coeffs)) for n in range(2, 37) for m in range(1, n)]
        return [roots_mod._sturm_chain(cs) for cs in out + [self.PLANTED] if len(cs) > 1]

    def test_witnesses_change_sign_beyond_bound(self):
        planted = roots_mod._sturm_chain(self.PLANTED)
        assert planted[2] == [57, -45, 0, 1]
        assert self.changes_beyond_bound(planted) == [(2, -1), (2, 1)]
        for n, side in ((13, -1), (15, 1), (17, -1)):
            chain = roots_mod._sturm_chain(_primitive(list(difference(1, n).coeffs)))
            assert self.changes_beyond_bound(chain) == [(4, side)]
        assert sum(bool(self.changes_beyond_bound(chain)) for chain in self.chains()) > 100

    def test_isolation_and_count_match_evaluation_at_bound(self, monkeypatch):
        chains = self.chains()
        assert len(chains) == 629 + 1
        got = [(roots_mod._isolate_chain(chain), sturm_count(IntPoly(chain[0]), None, None)) for chain in chains]
        monkeypatch.setattr(roots_mod, "_variations_at", self.variations_at_bound)
        for chain, (isolated, count) in zip(chains, got):
            assert isolated == roots_mod._isolate_chain(chain), chain[0]
            assert count == sturm_count(IntPoly(chain[0]), None, None) == len(isolated[1]), chain[0]


class TestComplexScan:
    def test_tiny_scan_boundary(self):
        rep = scan_complex(5)
        assert rep.boundary_upper == ((1, 3), (1, 4), (1, 5))
        assert rep.outside == ()

    def test_no_nonreal_for_two(self):
        rep = scan_complex(2)
        assert all(not rec.roots for rec in rep.records)

    def test_lifted_pair_has_imaginary_root(self):
        # the positive real root 1 of the (3, 9) difference lifts to i
        # being a root of the (12, 36) difference
        rs = complex_roots(difference(12, 36), 192)
        hits = [
            r
            for r in rs
            if r.kind == "complex"
            and r.value[0].lo <= 0 <= r.value[0].hi
            and r.value[1].lo <= 1 <= r.value[1].hi
        ]
        assert len(hits) == 1
        assert hits[0].residual.value == 0  # i is an exact root


class TestQuarterLift:
    def test_fifteen_seven(self):
        assert quarter_lift_check(15, 7, 12)

    def test_three_nine(self):
        assert quarter_lift_check(3, 9, 12)

    def test_vacuous(self):
        assert quarter_lift_check(1, 3, 12)

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            quarter_lift_check(4, 7, 10)

    def test_lift_is_the_composition_with_minus_x_squared(self):
        # i*sqrt(a) is a root of the lifted difference at every positive
        # root a: checked on the values of Phi_4k(x) = Phi_k(-x^2), k odd > 1
        for m, n in ((15, 7), (3, 9), (35, 11), (9, 27)):
            assert quarter_lift_check(m, n)
            for x in (Fraction(1, 2), Fraction(-3), Fraction(5, 7)):
                assert eval_rational(difference(4 * m, 4 * n), x) == eval_rational(difference(m, n), -x * x)

    def test_rejects_a_lift_that_is_not_the_composition(self, monkeypatch):
        exact = complex_mod.difference
        off = IntPoly([0, 1])
        monkeypatch.setattr(complex_mod, "difference", lambda m, n: exact(m, n) + off if m % 4 == 0 else exact(m, n))
        assert not quarter_lift_check(15, 7)

    def test_index_one_needs_no_positive_root(self, monkeypatch):
        # Phi_4(x) = -Phi_1(-x^2): at a positive root a the lifted value is
        # -2 Phi_1(a), so a positive root (here x = 3) fails the lift
        monkeypatch.setattr(complex_mod, "difference", lambda m, n: IntPoly([-3, 1]) * IntPoly([1, 0, 1]))
        assert not quarter_lift_check(1, 7)
        monkeypatch.setattr(complex_mod, "difference", lambda m, n: IntPoly([3, 1]) * IntPoly([0, 1]))
        assert quarter_lift_check(1, 7)  # roots -3 and 0 only
