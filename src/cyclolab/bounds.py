"""Verification of the value-envelope inequalities.

For x >= 2 the normalized value Phi_n(x)/x^phi(n) is pinned between
(x^q - 1)/x^q and x^q/(x^q - 1) (q = q(n)), on the side mu(rad(n))
selects (a BoundReport keeps the ratio and verdict, not the side), and
always between 1/2 and 2; the same factor-two envelope holds for complex
|z| >= 2.  On (0, 1/2] the log-ratio of two cyclotomic values is certified
nonzero.  All comparisons are exact, made on integers after clearing the
denominators of the point; logs use certified enclosures.

No check builds cyclotomic coefficients.  Real values come from the
Moebius product on integers, and the complex modulus from the product of
the Gaussian norms N((a + bi)^k - d^k).  A sum of logs of 1 - x^-k or
1 - x^k takes each bound as an integer numerator over 2^prec, so the sum
is exact, and a Fraction is built only for the returned BigFloat.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .arith import profile
from .certified import BigFloat, _from_bracket, _log_bounds, from_interval
from .polycore import (
    _gaussian_scale,
    _moebius_exponents,
    _norm_homogeneous_cyclotomic,
    eval_homogeneous_cyclotomic,
)
from .record import Record


class BoundReport(Record):
    """Outcome of one envelope check at one evaluation point."""

    __slots__ = ("n", "point",  # Fraction for real checks, (Fraction, Fraction) for complex
                 "ratio", "holds", "equality")


TAIL_DEPTH = 64  # lemma_tail_gap sums the terms j <= TAIL_DEPTH one by one


def lemma_tail_gap(x: Fraction, k: int) -> tuple[BigFloat, BigFloat, bool]:
    """Compare |log(1 - x^-k)| against the whole tail sum over j > k.

    Returns (left, right_tail, holds) where right_tail includes a rigorous
    geometric bound on the remainder beyond TAIL_DEPTH.
    """
    x = Fraction(x)
    if x < 2:
        raise ValueError("tail gap comparison requires x >= 2")
    if k < 1:
        raise ValueError("k must be a positive integer")
    if k >= TAIL_DEPTH:
        raise ValueError(f"k must be below the tail depth {TAIL_DEPTH}")
    prec = 96
    a, b = x.numerator, x.denominator
    # 1 - x^-j = (a^j - b^j)/a^j; the log bounds are numerators over 2^prec
    ak, bk = a ** k, b ** k
    llo, lhi = _log_bounds(ak - bk, ak, prec)
    left = _from_bracket(-lhi, -llo, 1 << prec)

    slo = shi = 0
    for _ in range(k + 1, TAIL_DEPTH + 1):
        ak *= a
        bk *= b
        jlo, jhi = _log_bounds(ak - bk, ak, prec)
        slo -= jhi
        shi -= jlo
    # |log(1-t)| <= t/(1-t); geometric sum of x^-j for j > TAIL_DEPTH, which
    # is t_head / ((1 - 1/x)(1 - t_head)) with t_head = x^-(TAIL_DEPTH+1)
    ak *= a
    bk *= b
    tail = Fraction(bk * a, (a - b) * (ak - bk))
    s = 1 << prec
    right = from_interval(Fraction(slo, s), Fraction(shi, s) + tail)
    return left, right, left.lo > right.hi


def f_ratio(n: int, x: Fraction) -> BigFloat:
    """Phi_n(x) / x^phi(n), exactly.

    With x = a/b this is b^phi Phi_n(a/b) / a^phi, taken from the
    homogeneous value without coefficients.  For n > 1 it equals
    Phi_n(1/x) by the reciprocal property; that identity is asserted as a
    cross-check.
    """
    x = Fraction(x)
    if x == 0:
        raise ValueError("f_ratio requires x != 0")
    phi = profile(n).phi
    ratio = Fraction(eval_homogeneous_cyclotomic(n, x.numerator, x.denominator), x.numerator ** phi)
    if n > 1:
        y = 1 / x
        mirrored = Fraction(eval_homogeneous_cyclotomic(n, y.numerator, y.denominator), y.denominator ** phi)
        if mirrored != ratio:
            raise AssertionError("reciprocal identity failed; corrupted cyclotomic values")
    return BigFloat(ratio)


def check_real_bounds(n: int, x: Fraction) -> BoundReport:
    """Verify the envelope pair for real x >= 2, plus the factor-two bounds.

    Comparisons are made on integers: with x = a/b, the value
    V = b^phi Phi_n(x) and the power A = a^phi = b^phi x^phi share the
    factor b^-phi.  Equality can only occur at (n, x) = (1, 2) and is
    detected exactly.
    """
    x = Fraction(x)
    if x < 2:
        raise ValueError("real bounds require x >= 2")
    prof = profile(n)
    a, b = x.numerator, x.denominator
    value = eval_homogeneous_cyclotomic(n, a, b)
    power = a ** prof.phi
    q = prof.qpart
    aq, bq = a ** q, b ** q  # x^q = aq / bq
    equality = False
    if prof.mu_rad == 1:
        # the lower bound (x^q - 1)/x^q * x^phi, scaled by b^phi
        lower = (aq - bq) * a ** (prof.phi - q)
        # the sharp lower bound is attained exactly when n = 1 (any x);
        # the factor-two bound is attained only at (n, x) = (1, 2)
        envelope = lower <= value < power and (value > lower or n == 1)
        equality = 2 * value == power
        factor_two = power <= 2 * value and (not equality or (n == 1 and x == 2))
        holds = envelope and factor_two
    else:
        # the upper bound x^q/(x^q - 1) * x^phi, cross-multiplied
        holds = power < value < 2 * power and value * (aq - bq) < aq * power
    return BoundReport(
        n=n,
        point=x,
        ratio=BigFloat(Fraction(value, power)),
        holds=holds,
        equality=equality,
    )


def check_complex_bounds(n: int, z: tuple[Fraction, Fraction]) -> BoundReport:
    """Verify (1/2)|z|^phi <= |Phi_n(z)| < 2|z|^phi for exact complex z, |z| >= 2.

    Comparisons are made on squared moduli scaled to integers: with
    z = (a + bi)/d, |Phi_n(z)|^2 and |z|^(2 phi) share the factor d^(-2 phi).
    The scaled |d^phi Phi_n(z)|^2 is prod_e N((a + bi)^(eq) - d^(eq))^mu(r/e)
    over the divisors e of r = rad(n), q = n/r, with no factor zero since
    |z| > 1.  The only equality cases are (n, z) = (1, 2) and (2, -2).
    """
    re, im = Fraction(z[0]), Fraction(z[1])
    a, b, d = _gaussian_scale(re, im)
    mod2 = a * a + b * b
    if mod2 < 4 * d * d:
        raise ValueError("complex bounds require |z| >= 2")
    val2 = _norm_homogeneous_cyclotomic(n, a, b, d)
    pow2 = mod2 ** profile(n).phi
    equality = val2 * 4 == pow2
    holds = val2 * 4 >= pow2 and val2 < 4 * pow2
    if equality and (n, re, im) not in ((1, Fraction(2), Fraction(0)), (2, Fraction(-2), Fraction(0))):
        holds = False
    # report |Phi_n(z)| / |z|^phi: r = floor(2^64 sqrt(val2/pow2)) from one
    # integer square root, without normalising the fraction
    r = isqrt((val2 << 128) // pow2)
    return BoundReport(
        n=n,
        point=(re, im),
        ratio=_from_bracket(r, r + 1, 1 << 64),
        holds=holds,
        equality=equality,
    )


def g_value(m: int, n: int, x: Fraction) -> BigFloat:
    """Certified log(Phi_m(x) / Phi_n(x)) for 0 < x <= 1/2, sign nonzero.

    Computed from the divisor expansion over the radicals:
        sum_{d | rad(m)} mu(rad(m)/d) log(1 - x^(d q(m)))
      - sum_{e | rad(n)} mu(rad(n)/e) log(1 - x^(e q(n)))
    From 64 bits the precision doubles, to 1024 at most, until the enclosure
    excludes zero; its sign is cross-checked against the exact sign.
    """
    x = Fraction(x)
    if not (0 < x <= Fraction(1, 2)):
        raise ValueError("g_value requires 0 < x <= 1/2")
    if m <= 1 or n <= 1:
        raise ValueError("g_value requires m, n > 1 (index 1 differs by sign alone)")
    if m == n:
        raise ValueError("g_value requires m != n")

    # 1 - x^k = (b^k - a^k)/b^k, with the sign its log carries in g
    a, b = x.numerator, x.denominator
    (m_plus, m_minus), (n_plus, n_minus) = _moebius_exponents(m), _moebius_exponents(n)
    signed = ((1, m_plus), (-1, m_minus), (-1, n_plus), (1, n_minus))
    terms = [(sgn, b ** k - a ** k, b ** k) for sgn, ks in signed for k in ks]

    exact_sign = _exact_ratio_sign(m, n, x)
    prec = 64
    while True:
        # numerators over 2^prec: each log bound is one, so the sums are exact
        lo = hi = 0
        for sgn, p, q in terms:
            llo, lhi = _log_bounds(p, q, prec)
            if sgn > 0:
                lo += llo
                hi += lhi
            else:
                lo -= lhi
                hi -= llo
        if lo > 0 or hi < 0:
            break
        prec *= 2
        if prec > 1024:
            raise AssertionError("g enclosure failed to separate from zero")
    if (1 if lo > 0 else -1) != exact_sign:
        raise AssertionError("certified log sign disagrees with exact evaluation")
    return _from_bracket(lo, hi, 1 << prec)


def _exact_ratio_sign(m: int, n: int, x: Fraction) -> int:
    # Phi_k(a/b) = V_k / b^phi(k), so Phi_m(x) - Phi_n(x) has the sign of
    # V_m b^phi(n) - V_n b^phi(m)
    a, b = x.numerator, x.denominator
    vm = eval_homogeneous_cyclotomic(m, a, b)
    vn = eval_homogeneous_cyclotomic(n, a, b)
    if vm <= 0 or vn <= 0:
        raise AssertionError("cyclotomic values on (0, 1/2] must be positive for n > 1")
    lhs, rhs = vm * b ** profile(n).phi, vn * b ** profile(m).phi
    if lhs == rhs:
        raise AssertionError("unexpected exact coincidence on (0, 1/2]")
    return 1 if lhs > rhs else -1


def real_bounds_grid(n_max: int, xs: list[Fraction]):
    """Yield BoundReports over the (n, x) grid, n ascending then x; x < 2 is refused before any."""
    xs = [Fraction(x) for x in xs]
    if any(x < 2 for x in xs):
        raise ValueError("real bounds require x >= 2")
    for n in range(1, n_max + 1):
        for x in xs:
            yield check_real_bounds(n, x)
