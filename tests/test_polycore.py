import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, strategies as st

from cyclolab.arith import divisors, factorize, moebius, profile
from cyclolab.polycore import (
    PACKED_BLOCK,
    ExactDivisionError,
    IntPoly,
    _descartes_in,
    _digit_bytes,
    _eval_gaussian,
    _eval_gaussian_scaled,
    _eval_int_scaled,
    _gaussian_scale,
    _moebius_exponents,
    _norm_homogeneous_cyclotomic,
    _packed,
    _packed_root_free,
    _packed_shift,
    _unpack,
    _variations,
    cyclotomic,
    difference,
    eval_homogeneous_cyclotomic,
    eval_rational,
    poly_to_json,
)

X_MINUS_1 = IntPoly([-1, 1])


@lru_cache(maxsize=None)
def cyclotomic_by_division(n):
    # independent construction: divide x^n - 1 by every lower-index factor
    poly = IntPoly([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            poly = poly.div_exact(cyclotomic_by_division(d))
    return poly


def cyclotomic_by_prime_division(rad):
    # second independent construction for squarefree rad, fast enough at
    # degree 5760: Phi_(mp)(x) = Phi_m(x^p) / Phi_m(x) for each new prime p
    poly = X_MINUS_1
    for p, _ in factorize(rad).factors:
        poly = poly.compose_power(p).div_exact(poly)
    return poly


class TestCyclotomic:
    def test_first_few(self):
        assert cyclotomic(1).coeffs == (-1, 1)
        assert cyclotomic(6).coeffs == (1, -1, 1)

    def test_105_coefficient(self):
        by_division = cyclotomic_by_division(105)
        assert by_division[7] == -2
        assert cyclotomic(105).coeffs == by_division.coeffs

    def test_matches_division_oracle_sample(self):
        for n in (1, 2, 8, 12, 30, 36, 60, 100):
            assert cyclotomic(n).coeffs == cyclotomic_by_division(n).coeffs

    def test_divisor_product_is_x_n_minus_1(self):
        for n in range(1, 401):
            prod = IntPoly([1])
            for d in divisors(n):
                prod = prod * cyclotomic(d)
            assert prod.coeffs == (-1,) + (0,) * (n - 1) + (1,), n

    def test_large_radicals_match_division_oracles(self):
        # the lower-index division oracle is too slow at 30030 (about a
        # minute); the prime-by-prime one is checked against it at 2310
        assert cyclotomic(2310).coeffs == cyclotomic_by_division(2310).coeffs
        assert cyclotomic_by_prime_division(2310) == cyclotomic_by_division(2310)
        assert cyclotomic(30030).coeffs == cyclotomic_by_prime_division(30030).coeffs

    def test_degree_is_totient(self):
        for n in range(1, 300):
            assert cyclotomic(n).degree == profile(n).phi

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cyclotomic(0)


class TestEvaluation:
    def test_values_at_two(self):
        assert eval_rational(cyclotomic(6), 2) == 3
        assert eval_rational(cyclotomic(5), 2) == 31

    def test_fraction_point(self):
        assert eval_rational(cyclotomic(4), Fraction(1, 2)) == Fraction(5, 4)

    @pytest.mark.parametrize("n,a,b,val", [(2, 3, 2, 5), (6, 3, 2, 7), (4, 3, 2, 13)])
    def test_homogeneous(self, n, a, b, val):
        assert eval_homogeneous_cyclotomic(n, a, b) == val

    def test_homogeneous_at_unit_points_matches_horner(self):
        # x = 1 and x = -1 make factors of the Moebius product vanish
        for n in range(1, 301):
            cs = cyclotomic(n).coeffs
            for a in (-1, 0, 1):
                assert eval_homogeneous_cyclotomic(n, a, 1) == _eval_int_scaled(cs, a, 1), (n, a)

    @pytest.mark.parametrize("n", [2310, 30030])
    def test_homogeneous_large_index_matches_horner(self, n):
        cs = cyclotomic(n).coeffs
        for a, b in ((-1, 1), (0, 1), (1, 1), (2, 1), (-3, 1), (3, 2), (-5, 3), (1, 7)):
            assert eval_homogeneous_cyclotomic(n, a, b) == _eval_int_scaled(cs, a, b), (a, b)

    def test_homogeneous_rejects_common_factor(self):
        with pytest.raises(ValueError):
            eval_homogeneous_cyclotomic(6, 4, 2)

    @given(
        st.integers(min_value=1, max_value=120),
        st.integers(min_value=-30, max_value=30),
        st.integers(min_value=1, max_value=12),
    )
    def test_homogeneous_matches_rational(self, n, a, b):
        from math import gcd

        if gcd(a, b) != 1:
            b = 1
        lhs = Fraction(eval_homogeneous_cyclotomic(n, a, b), b ** profile(n).phi)
        assert lhs == eval_rational(cyclotomic(n), Fraction(a, b))

    def test_moebius_exponents_sum_to_phi(self):
        # b^phi = prod (b^k)^mu: the exponents with mu = +1 outweigh the rest by phi
        for n in range(1, 400):
            plus, minus = _moebius_exponents(n)
            assert sum(plus) - sum(minus) == profile(n).phi
            assert len(plus) + len(minus) == 2 ** len(factorize(n).factors)


def fraction_horner(cs, a, b):
    # independent oracle: Horner in Fractions at a/b, times b^deg
    x, v = Fraction(a, b), Fraction(0)
    for c in reversed(cs):
        v = v * x + c
    return v * b ** max(len(cs) - 1, 0)


class TestScaledHorner:
    # _eval_int_scaled(cs, a, b) = b^deg p(a/b): integer points take the
    # loop without powers of b
    @given(
        st.lists(st.one_of(st.integers(-99, 99), st.just(0), st.integers(-(1 << 90), 1 << 90)), max_size=30),
        st.integers(-(1 << 40), 1 << 40),
        st.one_of(st.just(1), st.integers(0, 60).map(lambda s: 1 << s), st.integers(0, 1 << 40).map(lambda k: 2 * k + 1)),
    )
    @example([], 5, 1)
    @example([], -3, 4)
    @example([7], -2, 3)
    @example([0, 0, 0, 1], -3, 1)
    @example([5, 0, 0, -2, 0], -7, 1 << 20)
    @example([0, 1, 0, -1], -5, 9)
    def test_matches_fraction_oracle(self, cs, a, b):
        assert _eval_int_scaled(cs, a, b) == fraction_horner(cs, a, b)
        assert _eval_int_scaled(tuple(cs), a, b) == fraction_horner(cs, a, b)

    @pytest.mark.parametrize("s", range(201))
    def test_dyadic_points(self, s):
        # b = 2^s takes the shifts c << s k in place of powers of b
        b = 1 << s
        polys = [[], [7], [0, 0, 0, 1], [5, 0, 0, -2, 0], [-1, 1] * 9 + [3], [1 << 90, 0, -(1 << 70), 3]]
        for cs in polys:
            for a in (0, 1, -1, -3, b + 1, -b - 1, -(1 << 61) + 1, 12345 * b - 1):
                assert _eval_int_scaled(cs, a, b) == fraction_horner(cs, a, b), (cs, a, s)


def gaussian_horner_oracle(cs, re, im):
    # plain Fraction Horner on (vr + vi i) * (re + im i) + c
    vr, vi = Fraction(0), Fraction(0)
    for c in reversed(cs):
        vr, vi = vr * re - vi * im + c, vr * im + vi * re
    return vr, vi


# numerators of either sign (zero included) over denominators that share no
# factor, share some, or are not powers of two
GAUSSIAN_PARTS = st.builds(
    Fraction,
    st.integers(min_value=-10 ** 6, max_value=10 ** 6),
    st.sampled_from([1, 2, 3, 7, 8, 12, 35, 1024, 3 ** 9, 2 ** 70]),
)


class TestGaussianKernel:
    @given(
        st.lists(st.integers(min_value=-50, max_value=50), max_size=14),
        GAUSSIAN_PARTS,
        GAUSSIAN_PARTS,
    )
    def test_matches_fraction_horner(self, cs, re, im):
        assert _eval_gaussian(cs, re, im) == gaussian_horner_oracle(cs, re, im)

    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=-10 ** 4, max_value=10 ** 4),
        st.integers(min_value=-10 ** 4, max_value=10 ** 4),
        st.integers(min_value=1, max_value=5000),
    )
    def test_norm_product_matches_horner(self, n, a, b, d):
        # |d^phi Phi_n((a + bi)/d)|^2 from the Moebius norms, outside |z| <= 1
        if a * a + b * b <= d * d:
            a += 2 * d
        vr, vi = _eval_gaussian_scaled(cyclotomic(n).coeffs, a, b, d)
        assert _norm_homogeneous_cyclotomic(n, a, b, d) == vr * vr + vi * vi

    @pytest.mark.parametrize(
        "cs,re,im",
        [
            ([], Fraction(3, 7), Fraction(-5, 3)),
            ([-4], Fraction(3, 7), Fraction(-5, 3)),
            ([1, 0, 1], Fraction(0), Fraction(0)),
            ([2, -1, 1], Fraction(-1, 2), Fraction(0)),
            ([2, 3, -1, 5], Fraction(0), Fraction(-9, 4)),
            ([1, 1, 1, 1, 1], Fraction(-2, 3), Fraction(5, 7)),
        ],
    )
    def test_edge_cases(self, cs, re, im):
        vr, vi = _eval_gaussian(cs, re, im)
        assert (vr, vi) == gaussian_horner_oracle(cs, re, im)
        assert type(vr) is Fraction and type(vi) is Fraction


def taylor_shift_oracle(cs, s):
    # repeated synthetic division by (x - s): the k-th remainder is the k-th
    # coefficient of p(x + s)
    out = []
    q = list(cs)
    while q:
        rem = 0
        quot = []
        for c in reversed(q):
            rem = rem * s + c
            quot.append(rem)
        out.append(quot.pop())
        q = quot[::-1]
    return out


def packed_taylor_shift(cs, s):
    # the coefficients of p(x + s): one packed value, its digits unpacked
    return _unpack(*_packed_shift(cs, s), len(cs))


WIDE_COEFFS = st.integers(min_value=-(1 << 200), max_value=1 << 200)
DEGREE_100 = [(-1) ** (i * i // 3) * (i + 1) for i in range(101)]


class TestTaylorShift:
    @given(st.lists(st.integers(min_value=-99, max_value=99), max_size=101), st.integers(-4, 4))
    def test_matches_synthetic_division(self, cs, s):
        assert packed_taylor_shift(cs, s) == taylor_shift_oracle(cs, s)

    @given(st.lists(WIDE_COEFFS, max_size=30), st.sampled_from([2, -2, 1, 7]))
    def test_wide_coefficients(self, cs, s):
        # digits of many bytes, and negative digits that exercise the bias
        assert packed_taylor_shift(cs, s) == taylor_shift_oracle(cs, s)

    @pytest.mark.parametrize(
        "cs,s,expected",
        [
            ([], 2, []),
            ([-7], 2, [-7]),
            ([3, -1], 2, [1, -1]),
            ([0, 0, 1], 2, [4, 4, 1]),
            ([10, -6, 1], 2, [2, -2, 1]),  # x^2 - 6x + 10 at x + 2
            ([-1] * 101, 2, taylor_shift_oracle([-1] * 101, 2)),
            (DEGREE_100, 2, taylor_shift_oracle(DEGREE_100, 2)),
            ([-(1 << 64), 0, 1 << 64], -2, [3 << 64, -(4 << 64), 1 << 64]),
            # s = 0 attains the coefficient bound: 128 needs a second byte
            ([0, 128], 0, [0, 128]),
            ([-1, 0, 255], 0, [-1, 0, 255]),
        ],
    )
    def test_edge_cases(self, cs, s, expected):
        assert packed_taylor_shift(cs, s) == expected


def horner(cs, y):
    v = 0
    for c in reversed(cs):
        v = v * y + c
    return v


class TestPacked:
    @given(st.integers(0, 600), st.integers(1, 24), st.sampled_from([1, 2, 5]), st.integers(0, 2 ** 32))
    @example(0, 8, 2, 0)
    @example(PACKED_BLOCK, 8, 2, 0)
    @example(PACKED_BLOCK + 1, 8, 2, 1)
    @example(3 * PACKED_BLOCK + 1, 16, 1, 2)
    @example(4 * PACKED_BLOCK, 16, 5, 3)
    @example(600, 40, 2, 4)
    def test_halves_match_horner(self, n, nb, s, seed):
        # the empty list, one block and one more, odd block counts
        # and coefficients as wide as a digit or wider
        rng = random.Random(seed)
        bits = rng.choice([2, 8 * nb - 1, 8 * nb + 40])
        cs = [rng.randint(-(1 << bits), 1 << bits) for _ in range(n)]
        y = (1 << 8 * nb) + s
        assert _packed(cs, y) == horner(cs, y)

    @given(
        st.sampled_from([PACKED_BLOCK - 1, PACKED_BLOCK, PACKED_BLOCK + 1, 2 * PACKED_BLOCK + 1]),
        st.integers(-(1 << 80), 1 << 80),
        st.integers(1, 1 << 80),
        st.integers(0, 2 ** 32),
    )
    @example(PACKED_BLOCK + 1, 3, 1, 0)
    @example(2 * PACKED_BLOCK + 1, 0, 7, 1)
    @example(2 * PACKED_BLOCK + 1, -5, 2, 2)
    def test_homogeneous_halves_match_scaled_horner(self, n, a, b, seed):
        # b^(n-1) p(a/b) by halves: a top block shorter than the others
        # needs b^len(top), and three blocks send an odd one up unjoined
        rng = random.Random(seed)
        cs = [rng.randint(-(1 << 70), 1 << 70) for _ in range(n)]
        assert _packed(cs, a, b) == _eval_int_scaled(cs, a, b)


# coefficients that put zeros, sign changes and digit-width boundaries into
# the shifted polynomial: 2^(8k - 1) - 1 is the largest coefficient k bytes
# of signed digit hold
EDGE_COEFFS = st.sampled_from([0, 0, 1, -1, 127, -127, 128, -128, 255, (1 << 63) - 1, -(1 << 63), 1 << 64])
KERNEL_COEFFS = st.one_of(st.integers(-99, 99), EDGE_COEFFS, WIDE_COEFFS)
KERNEL_LISTS = st.one_of(
    st.lists(KERNEL_COEFFS, min_size=1, max_size=40),
    st.lists(KERNEL_COEFFS, max_size=40).map(lambda cs: [0] + cs),  # zero constant term
    st.lists(st.integers(-(1 << 70), -1), min_size=1, max_size=40),  # all negative
    st.lists(st.integers(0, 5), min_size=1, max_size=40),  # no variation, often zeros
)


@st.composite
def packed_digits(draw):
    # signed base-2^(8 nb) digits up to the largest that fits, packed
    nb = draw(st.integers(1, 3))
    top = (1 << (8 * nb - 1)) - 1
    digit = st.one_of(st.sampled_from([0, 1, -1, top, -top]), st.integers(-top, top))
    ds = draw(st.one_of(
        st.lists(digit, min_size=1, max_size=12),
        st.lists(st.sampled_from([0, top]), min_size=1, max_size=12),
        st.lists(st.sampled_from([0, -top]), min_size=1, max_size=12),
    ))
    return nb, ds, sum(d << (8 * nb * i) for i, d in enumerate(ds))


def flipped(cs):
    # p(-x)
    return [-c if i % 2 else c for i, c in enumerate(cs)]


class TestPackedRootFree:
    @given(KERNEL_LISTS)
    def test_matches_unpacked_shift(self, cs):
        # an infinite end: the variations of the Taylor shift, of p(-x) for
        # (-inf, -2)
        assert _descartes_in(cs, 2, None) == _variations(packed_taylor_shift(cs, 2))
        assert _descartes_in(cs, None, -2) == _variations(packed_taylor_shift(flipped(cs), 2))

    @given(packed_digits())
    def test_digits_at_the_bound(self, case):
        nb, ds, v = case
        assert _packed_root_free(v, nb, len(ds)) == (ds[0] != 0 and _variations(ds) == 0)

    @pytest.mark.parametrize(
        "cs,expected",
        [
            ([], False),
            ([-7], True),
            ([0], False),
            ([-2, 1], False),  # root at 2
            ([-3, 1], False),  # root at 3
            ([10, -6, 1], False),  # roots 3 +- i: (2+t)^2 - 6(2+t) + 10 = t^2 - 2t + 2
            ([0, -2, 1], False),  # root at 2, a zero constant term
            ([1, 0, 0, 1], True),
            ([-1, -1, -1], True),
            ([-30, 0, 0, 1, 1], False),  # x^4 + x^3 - 30: a root past 2
        ],
    )
    def test_edge_cases(self, cs, expected):
        # no root in [2, inf) by Descartes: p(2) != 0 and 0 variations on
        # (2, inf); the mirror (-inf, -2) of p(-x) counts the same
        count = _descartes_in(cs, 2, None)
        assert count == _variations(packed_taylor_shift(cs, 2))
        assert count == _descartes_in(flipped(cs), None, -2)
        assert (_eval_int_scaled(cs, 2, 1) != 0 and count == 0) is expected


def five_step_bracket(cs, lo, hi):
    # the bracket map of Descartes' count as five steps, with lo = a/q and
    # hi = b/q: q^d p(y/q), shifted by a, stretched by b - a, reversed,
    # shifted by 1
    a, b, q = _gaussian_scale(lo, hi)
    d = len(cs) - 1
    scaled = [c * q ** (d - i) for i, c in enumerate(cs)]
    stretched = [c * (b - a) ** i for i, c in enumerate(taylor_shift_oracle(scaled, a))]
    return taylor_shift_oracle(stretched[::-1], 1)


@st.composite
def brackets(draw):
    # negative, straddling and positive intervals with non-dyadic ends
    lo = Fraction(draw(st.integers(-60, 20)), draw(st.integers(1, 12)))
    return lo, lo + Fraction(draw(st.integers(1, 40)), draw(st.integers(1, 12)))


class TestDescartesBracket:
    @given(st.lists(KERNEL_COEFFS, min_size=1, max_size=40).filter(lambda cs: cs[-1]), brackets())
    @example([-(1 << 200), 0, 1 << 200], (Fraction(-7, 3), Fraction(-1, 5)))
    @example([1 << 64, -(1 << 64), -1], (Fraction(-60), Fraction(-20)))
    def test_one_packed_value_is_the_five_step_map(self, cs, bracket):
        lo, hi = bracket
        a, b, q = _gaussian_scale(lo, hi)
        want = five_step_bracket(cs, lo, hi)
        # the proven bound on the transformed coefficients sizes the digits
        assert max(map(abs, want)) <= sum(map(abs, cs)) * max(abs(a) + abs(b), 2 * q) ** (len(cs) - 1)
        nb = _digit_bytes(max(map(abs, want)))
        y = 1 << 8 * nb
        assert _unpack(_packed(cs, b + a * y, q + q * y), nb, len(cs)) == want
        assert _descartes_in(cs, lo, hi) == _variations(want)


class TestDifference:
    def test_simple(self):
        assert difference(2, 6).coeffs == (0, 2, -1)

    def test_constant(self):
        assert difference(1, 2).coeffs == (-2,)

    def test_15_7_by_subtraction(self):
        lhs = cyclotomic(15) - cyclotomic(7)
        assert difference(15, 7).coeffs == lhs.coeffs == (0, -2, -1, 0, -2, 0, -1, -1, 1)

    def test_rejects_equal(self):
        with pytest.raises(ValueError):
            difference(5, 5)


def schoolbook_product(a, b):
    # coefficients of the product, trimmed, by the double loop
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class TestArithmetic:
    def test_div_exact(self):
        q = IntPoly([-1, 0, 1]).div_exact(IntPoly([-1, 1]))
        assert q.coeffs == (1, 1)

    def test_div_exact_signals(self):
        with pytest.raises(ExactDivisionError):
            IntPoly([1, 0, 1]).div_exact(IntPoly([-1, 1]))

    def test_compose_power(self):
        assert cyclotomic(3).compose_power(3).coeffs == cyclotomic(9).coeffs == (1, 0, 0, 1, 0, 0, 1)

    def test_derivative_at_two(self):
        psi2 = IntPoly([-1, -1, 1])
        assert psi2.derivative()(2) == 3

    @given(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=140),
        st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=140),
    )
    def test_kronecker_matches_schoolbook(self, a, b):
        assert (IntPoly(a) * IntPoly(b)).coeffs == schoolbook_product(a, b)

    @given(
        st.lists(st.one_of(EDGE_COEFFS, WIDE_COEFFS), max_size=40),
        st.lists(st.one_of(EDGE_COEFFS, st.integers(-(1 << 64), -(1 << 64) + 5), WIDE_COEFFS), max_size=40),
    )
    @example([1 << 64, -(1 << 64)], [-(1 << 64), 0, 1 << 64])
    @example([-(1 << 200)] * 33, [(1 << 200) - 1] * 17)
    def test_kronecker_wide_coefficients(self, a, b):
        # digits of many bytes, of both signs, and products that fill them
        assert (IntPoly(a) * IntPoly(b)).coeffs == schoolbook_product(a, b)

    @given(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=30),
        st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=30),
    )
    def test_product_division_roundtrip(self, a, b):
        pa, pb = IntPoly(a), IntPoly(b)
        if pa.is_zero() or pb.is_zero():
            return
        assert (pa * pb).div_exact(pb).coeffs == pa.coeffs


class TestStructuralIdentities:
    def test_product_identity_smoke(self):
        for n in (1, 2, 12, 36, 60):
            prod = IntPoly([1])
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic(d)
            assert prod.coeffs == IntPoly([-1] + [0] * (n - 1) + [1]).coeffs

    def test_palindrome_smoke(self):
        for n in range(2, 120):
            cs = cyclotomic(n).coeffs
            assert cs == cs[::-1]

    def test_negation_smoke(self):
        for n in range(3, 60, 2):
            neg = IntPoly([c if i % 2 == 0 else -c for i, c in enumerate(cyclotomic(n).coeffs)])
            assert neg.coeffs == cyclotomic(2 * n).coeffs

    def test_second_coefficient_smoke(self):
        for n in range(2, 200):
            pr = profile(n)
            cs = cyclotomic(n).coeffs
            assert cs[pr.phi - pr.qpart] == -moebius(pr.rad)


class TestSerialization:
    def test_roundtrip(self):
        p = cyclotomic(105)
        obj = json.loads(poly_to_json(p, 105))
        assert [int(c) for c in obj["coeffs"]] == list(p.coeffs) and obj["n"] == 105

    def test_coeffs_are_strings(self):
        obj = json.loads(poly_to_json(IntPoly([1, -2]), 3))
        assert obj == {"n": 3, "coeffs": ["1", "-2"]}
        assert list(obj) == ["n", "coeffs"]
