"""Certified arbitrary-precision values and interval transcendentals.

Everything here is built on exact rational arithmetic.  A BigFloat is a
midpoint plus a proven error radius; log and sqrt enclosures are computed
with rational series partial sums and explicit tail bounds, so no verdict
anywhere in the package ever rests on unproven floating-point rounding.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import isqrt

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class BigFloat:
    """A real value known to lie within [value - error_bound, value + error_bound].

    ``precision_bits`` records the working precision the value was produced
    at; ``error_bound`` is a rigorous bound, not an estimate.  Exact values
    carry error_bound 0.
    """

    value: Fraction
    precision_bits: int
    error_bound: Fraction = field(default=ZERO)

    def __post_init__(self):
        if self.precision_bits < 1:
            raise ValueError("precision_bits must be positive")
        if self.error_bound < 0:
            raise ValueError("error_bound must be nonnegative")

    @property
    def lo(self) -> Fraction:
        return self.value - self.error_bound

    @property
    def hi(self) -> Fraction:
        return self.value + self.error_bound

    def __float__(self) -> float:
        return float(self.value)

    def decimal(self, digits: int) -> str:
        """Decimal string with ``digits`` fractional digits, correctly rounded.

        Raises ValueError if the error bound is too large for the rounding
        to be stable; callers refine and retry.
        """
        s = decimal_in_interval(self.lo, self.hi, digits)
        if s is None:
            raise ValueError("interval too wide to round at %d digits" % digits)
        return s

    def significant(self, sig: int) -> str:
        """Decimal string with ``sig`` significant digits (trailing zeros kept off)."""
        s = significant_in_interval(self.lo, self.hi, sig)
        if s is None:
            raise ValueError("interval too wide for %d significant digits" % sig)
        return s


def exact(x: Fraction | int, precision_bits: int = 64) -> BigFloat:
    return BigFloat(Fraction(x), precision_bits, ZERO)


def from_interval(lo: Fraction, hi: Fraction, precision_bits: int) -> BigFloat:
    if hi < lo:
        raise ValueError("empty interval")
    mid = (lo + hi) / 2
    return BigFloat(mid, precision_bits, (hi - lo) / 2)


# ---------------------------------------------------------------------------
# decimal rendering


def _round_half_even(num: int, den: int) -> int:
    # round num/den (den > 0) to nearest integer, ties to even
    q, r = divmod(num, den)
    twice = 2 * r
    if twice > den or (twice == den and q % 2 == 1):
        q += 1
    return q


def round_fraction_decimal(x: Fraction, digits: int) -> str:
    """Fixed-point decimal string of x with ``digits`` fractional digits."""
    scale = 10 ** digits
    n = _round_half_even(x.numerator * scale, x.denominator)
    sign = "-" if n < 0 else ""
    n = abs(n)
    if digits == 0:
        return sign + str(n)
    whole, frac = divmod(n, scale)
    return "%s%d.%0*d" % (sign, whole, digits, frac)


def decimal_in_interval(lo: Fraction, hi: Fraction, digits: int) -> str | None:
    """The common rounded decimal of every point in [lo, hi], or None."""
    a = round_fraction_decimal(lo, digits)
    b = round_fraction_decimal(hi, digits)
    return a if a == b else None


def _decimal_exponent(x: Fraction) -> int:
    # e with 10^e <= |x| < 10^(e+1); x must be nonzero
    x = abs(x)
    e = 0
    while x >= 10:
        x /= 10
        e += 1
    while x < 1:
        x *= 10
        e -= 1
    return e


def format_significant(x: Fraction, sig: int) -> str:
    """x to ``sig`` significant digits, plain notation, trailing zeros stripped."""
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
# interval transcendentals (rigorous enclosures over Fractions)


def _outward(lo: Fraction, hi: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    # round an enclosure outward to dyadics so denominators stay bounded
    s = 1 << prec
    lon = lo.numerator * s // lo.denominator
    hin = -((-hi.numerator * s) // hi.denominator)
    return Fraction(lon, s), Fraction(hin, s)


def _atanh_enclosure(t: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    # atanh(t) for 0 <= t < 1/2 by series with geometric tail bound
    if t == 0:
        return ZERO, ZERO
    tol = Fraction(1, 1 << (prec + 4))
    t2 = t * t
    term = t
    total = ZERO
    k = 0
    while True:
        total += term / (2 * k + 1)
        term *= t2
        k += 1
        tail = term / ((2 * k + 1) * (1 - t2))
        if tail < tol:
            return total, total + tail


@lru_cache(maxsize=None)  # keyed by precision alone
def ln2_interval(prec: int) -> tuple[Fraction, Fraction]:
    lo, hi = _atanh_enclosure(Fraction(1, 3), prec + 2)
    return _outward(2 * lo, 2 * hi, prec + 2)


@lru_cache(maxsize=1024)
def log_interval(y: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Rigorous enclosure of ln(y) for rational y > 0, width < 2^-prec."""
    if y <= 0:
        raise ValueError("log_interval requires y > 0")

    # reduce to u = y / 2^k with 2/3 <= u < 4/3
    k = y.numerator.bit_length() - y.denominator.bit_length()
    u = y / (Fraction(1 << k) if k >= 0 else Fraction(1, 1 << -k))
    while u >= Fraction(4, 3):
        u /= 2
        k += 1
    while u < Fraction(2, 3):
        u *= 2
        k -= 1

    t = (u - 1) / (u + 1)  # |t| <= 1/5
    if t >= 0:
        alo, ahi = _atanh_enclosure(t, prec + 4)
        ulo, uhi = 2 * alo, 2 * ahi
    else:
        alo, ahi = _atanh_enclosure(-t, prec + 4)
        ulo, uhi = -2 * ahi, -2 * alo

    if k == 0:
        lo, hi = ulo, uhi
    else:
        l2lo, l2hi = ln2_interval(prec + 4)
        if k > 0:
            lo, hi = ulo + k * l2lo, uhi + k * l2hi
        else:
            lo, hi = ulo + k * l2hi, uhi + k * l2lo

    return _outward(lo, hi, prec)


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
