"""Certified arbitrary-precision values and interval transcendentals.

Everything here is built on exact rational arithmetic.  A BigFloat is
value +- error_bound, a midpoint plus a proven error radius and nothing
more: the precision that produced it stays with the computation.  Log
and sqrt enclosures are computed with rational series partial sums and
explicit tail bounds, so no verdict anywhere in the package ever rests
on unproven floating-point rounding.

Rendering runs on integers.  ``BigFloat.decimal`` rounds value +- error
over one common denominator, two half-even roundings of integers, and
never forms the bracket's ends; ``_from_bracket`` builds a BigFloat from
the integer ends of a bracket over a known denominator, so a Fraction is
formed only for a field a BigFloat stores.

Logs run on integers.  ``_log_bounds(p, q, prec)`` encloses ln(p/q) by two
numerators over 2^prec: the atanh partial sums are one integer numerator
and denominator, never normalised, the stopping rule is an integer
comparison, and the bounds are floored and ceiled once.  Sums of log
bounds are sums of those numerators; ``log_interval`` wraps the core for
Fraction arguments.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .record import Record

ZERO = Fraction(0)


class BigFloat(Record):
    """A real value known to lie within [value - error_bound, value + error_bound].

    ``error_bound`` is a rigorous bound, not an estimate.  Exact values
    carry error_bound 0.
    """

    __slots__ = ("value", "error_bound")

    def __init__(self, value: Fraction, error_bound: Fraction = ZERO):
        if error_bound < 0:
            raise ValueError("error_bound must be nonnegative")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "error_bound", error_bound)

    @property
    def lo(self) -> Fraction:
        return self.value - self.error_bound

    @property
    def hi(self) -> Fraction:
        return self.value + self.error_bound

    def decimal(self, digits: int) -> str:
        """Decimal string with ``digits`` fractional digits, correctly rounded.

        Raises ValueError if the error bound is too large for the rounding
        to be stable (exactly when ``decimal_in_interval(lo, hi, digits)``
        is None); callers refine and retry.
        """
        v, e, scale = self.value, self.error_bound, 10 ** digits
        if not e:
            return _fixed_point(_round_half_even(v.numerator * scale, v.denominator), digits)
        # lo and hi are (mid -+ rad) / den
        den = v.denominator * e.denominator
        mid, rad = v.numerator * e.denominator * scale, e.numerator * v.denominator * scale
        n = _round_half_even(mid - rad, den)
        if n != _round_half_even(mid + rad, den):
            raise ValueError("interval too wide to round at %d digits" % digits)
        return _fixed_point(n, digits)

    def significant(self, sig: int) -> str:
        """Decimal string with ``sig`` significant digits (trailing zeros kept off)."""
        s = significant_in_interval(self.lo, self.hi, sig)
        if s is None:
            raise ValueError("interval too wide for %d significant digits" % sig)
        return s


def from_interval(lo: Fraction, hi: Fraction) -> BigFloat:
    if hi < lo:
        raise ValueError("empty interval")
    return BigFloat((lo + hi) / 2, (hi - lo) / 2)


def _from_bracket(lo: int, hi: int, den: int) -> BigFloat:
    # [lo/den, hi/den] (den > 0) as from_interval gives it, from the integers
    return BigFloat(Fraction(lo + hi, 2 * den), Fraction(hi - lo, 2 * den))


# ---------------------------------------------------------------------------
# decimal rendering


def _round_half_even(num: int, den: int) -> int:
    # round num/den (den > 0) to nearest integer, ties to even
    q, r = divmod(num, den)
    twice = 2 * r
    if twice > den or (twice == den and q % 2 == 1):
        q += 1
    return q


def _fixed_point(n: int, digits: int) -> str:
    # n / 10^digits written with exactly ``digits`` fractional digits
    sign, n = ("-", -n) if n < 0 else ("", n)
    if digits == 0:
        return sign + str(n)
    whole, frac = divmod(n, 10 ** digits)
    return "%s%d.%0*d" % (sign, whole, digits, frac)


def round_fraction_decimal(x: Fraction, digits: int) -> str:
    """Fixed-point decimal string of x with ``digits`` fractional digits."""
    return _fixed_point(_round_half_even(x.numerator * 10 ** digits, x.denominator), digits)


def decimal_in_interval(lo: Fraction, hi: Fraction, digits: int) -> str | None:
    """The common rounded decimal of every point in [lo, hi], or None."""
    a = round_fraction_decimal(lo, digits)
    b = round_fraction_decimal(hi, digits)
    return a if a == b else None


def _decimal_exponent(x: Fraction) -> int:
    # e with 10^e <= |x| < 10^(e+1); x must be nonzero.  Estimated from bit
    # lengths (1233/4096 ~ log10 2), then settled by exact comparisons
    n, d = abs(x.numerator), x.denominator

    def below(k: int) -> bool:  # |x| < 10^k
        return n * 10 ** -k < d if k < 0 else n < d * 10 ** k

    e = (n.bit_length() - d.bit_length()) * 1233 >> 12
    while below(e):
        e -= 1
    while not below(e + 1):
        e += 1
    return e


def format_significant(x: Fraction, sig: int) -> str:
    """x to ``sig`` significant digits, plain notation, trailing zeros stripped."""
    if sig < 1:
        raise ValueError("significant digits must be >= 1")
    if x == 0:
        return "0"
    e = _decimal_exponent(x)
    digits = sig - 1 - e
    if digits < 0:
        scale = 10 ** (-digits)
        n = _round_half_even(x.numerator, x.denominator * scale) * scale
        return str(n)
    s = round_fraction_decimal(x, digits)
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    return s


def significant_in_interval(lo: Fraction, hi: Fraction, sig: int) -> str | None:
    a = format_significant(lo, sig)
    b = format_significant(hi, sig)
    return a if a == b else None


# ---------------------------------------------------------------------------
# interval transcendentals (rigorous enclosures on integers)


def _atanh_bounds(n: int, d: int, prec: int) -> tuple[int, int, int]:
    # atanh(n/d) for 0 <= n/d < 1/2 by series with geometric tail bound, as
    # (lo, hi, den) with lo/den <= atanh(n/d) <= hi/den.  After the terms
    # j < k the sum is a/(d^(2k-1) * 1*3*...*(2k-1)), held unnormalised, and
    # the tail past them is below n^(2k+1) / (d^(2k-1) (2k+1) (d^2 - n^2)),
    # which stops the series once it is under 2^-(prec+4)
    if not n:
        return 0, 0, 1
    n2, d2 = n * n, d * d
    gap = d2 - n2
    a, dp, odd, num, j = n, d, 1, n * n2, 3  # j = 2k + 1, num = n^j, dp = d^(j-2)
    while num << (prec + 4) >= dp * j * gap:
        a = a * d2 * j + num * odd
        odd *= j
        dp *= d2
        num *= n2
        j += 2
    w = j * gap
    return a * w, a * w + num * odd, dp * odd * w


def _outward(lo: int, hi: int, den: int, shift: int) -> tuple[int, int]:
    # the numerators of an enclosure [lo/den, hi/den] rounded outward to 2^-shift
    return (lo << shift) // den, -((-hi << shift) // den)


@lru_cache(maxsize=None)  # keyed by precision alone
def _ln2_bounds(prec: int) -> tuple[int, int]:
    # ln 2 = 2 atanh(1/3), enclosed by numerators over 2^(prec+2)
    lo, hi, den = _atanh_bounds(1, 3, prec + 2)
    return _outward(2 * lo, 2 * hi, den, prec + 2)


@lru_cache(maxsize=1024)
def _log_bounds(p: int, q: int, prec: int) -> tuple[int, int]:
    # ln(p/q) for p, q > 0 enclosed by numerators over 2^prec, width < 2^-prec:
    # p/q = u 2^k with 2/3 <= u = P/Q < 4/3, ln u = 2 atanh(t) with
    # t = (P - Q)/(P + Q), |t| <= 1/5, and k ln 2 from _ln2_bounds
    k = p.bit_length() - q.bit_length()
    P, Q = (p, q << k) if k >= 0 else (p << -k, q)
    while 3 * P >= 4 * Q:
        Q <<= 1
        k += 1
    while 3 * P < 2 * Q:
        P <<= 1
        k -= 1
    n, d = P - Q, P + Q
    g = gcd(n, d)
    lo, hi, den = _atanh_bounds(abs(n) // g, d // g, prec + 4)
    lo, hi = (2 * lo, 2 * hi) if n >= 0 else (-2 * hi, -2 * lo)
    if k:
        # ln 2 at prec + 4 has numerators over 2^(prec+6)
        l2lo, l2hi = _ln2_bounds(prec + 4)
        lo = (lo << (prec + 6)) + k * (l2lo if k > 0 else l2hi) * den
        hi = (hi << (prec + 6)) + k * (l2hi if k > 0 else l2lo) * den
        den <<= prec + 6
    return _outward(lo, hi, den, prec)


def log_interval(y: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Rigorous enclosure of ln(y) for rational y > 0, width < 2^-prec."""
    if y <= 0:
        raise ValueError("log_interval requires y > 0")
    lo, hi = _log_bounds(y.numerator, y.denominator, prec)
    s = 1 << prec
    return Fraction(lo, s), Fraction(hi, s)


def sqrt_interval(y: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Rigorous enclosure of sqrt(y) for rational y >= 0, width <= 2^-prec."""
    if y < 0:
        raise ValueError("sqrt_interval requires y >= 0")
    if y == 0:
        return ZERO, ZERO
    s = 1 << prec
    # lo = floor(sqrt(y * 4^prec)) / 2^prec
    n = y.numerator * s * s // y.denominator
    r = isqrt(n)
    lo = Fraction(r, s)
    hi = Fraction(r + 1, s)
    return lo, hi
