"""Binary floating point on plain ints, bit for bit mpmath.libmp's.

A value is a pair ``(m, e)`` meaning m * 2^e, where m is a signed odd
integer, or ``(0, 0)`` for zero.  That is libmp's normalised
``(sign, man, exp, bc)`` with the sign folded into m and the bit count
left to ``int.bit_length``.  Each operation rounds as the libmp function
of the same name does, so a computation written on pairs takes the same
bits as the same computation on libmp tuples:

- ``prec`` is the precision in bits, 0 meaning exact;
- ``near=True`` rounds half to even, ``near=False`` toward zero (libmp's
  default ``round_fast``);
- ``add`` keeps libmp's shortcut for far-apart operands.  When the
  exponents differ by more than 100 and the magnitudes by more than
  prec + 4 bits, the larger mantissa moves by one unit prec + 4 bits
  below its last bit, toward the smaller operand's sign, instead of
  taking the exact sum.  With wide mantissas that is not the correctly
  rounded sum, and the test of the shortcut reads normalised exponents;
- ``div`` and ``sqrt`` round a truncated quotient or root carried with a
  sticky bit, as libmp does.

The complex helpers round each part to nearest, as mpmath's ``mpc``
arithmetic does at working precision ``prec``; ``cdiv`` forms its
numerators and the squared modulus at prec + 10 toward zero, and
``cabs`` sums the squares at prec + 4 toward zero before the square root.
Only finite values occur: no infinities, no NaN.
"""
from __future__ import annotations

from math import frexp, isqrt

ZERO = (0, 0)
ONE = (1, 0)


def rnd(m: int, e: int, prec: int = 0, near: bool = False) -> tuple[int, int]:
    """m * 2^e for any integer m, rounded to prec bits, as a pair."""
    if not m:
        return ZERO
    n = m.bit_length() - prec
    if prec and n > 0:
        if near:
            # m >> (n - 1) floors, and half-even rounding is symmetric, so
            # the round bit, the sticky bits and the parity read off the
            # signed value
            t = m >> (n - 1)
            m = (t >> 1) + 1 if t & 1 and (t & 2 or m & ((1 << (n - 1)) - 1)) else t >> 1
        elif m > 0:
            m >>= n
        else:
            m = -(-m >> n)
        e += n
    if not m & 1:
        t = (m & -m).bit_length() - 1
        m >>= t
        e += t
    return m, e


def from_float(x: float, prec: int = 0, near: bool = False) -> tuple[int, int]:
    m, e = frexp(x)
    return rnd(int(m * (1 << 53)), e - 53, prec, near)


def add(x, y, prec: int = 0, near: bool = False) -> tuple[int, int]:
    xm, xe = x
    ym, ye = y
    if not xm:
        return rnd(ym, ye, prec, near)
    if not ym:
        return rnd(xm, xe, prec, near)
    off = xe - ye
    if prec:
        if off > 100 and xm.bit_length() - ym.bit_length() + off > prec + 4:
            return rnd((xm << prec + 4) + (1 if ym > 0 else -1), xe - prec - 4, prec, near)
        if off < -100 and ym.bit_length() - xm.bit_length() - off > prec + 4:
            return rnd((ym << prec + 4) + (1 if xm > 0 else -1), ye - prec - 4, prec, near)
    if off >= 0:
        return rnd((xm << off) + ym, ye, prec, near)
    return rnd(xm + (ym << -off), xe, prec, near)


def sub(x, y, prec: int = 0, near: bool = False) -> tuple[int, int]:
    return add(x, (-y[0], y[1]), prec, near)


def mul(x, y, prec: int = 0, near: bool = False) -> tuple[int, int]:
    m = x[0] * y[0]
    if not m:
        return ZERO
    if not prec:
        return m, x[1] + y[1]  # a product of odd mantissas is odd
    return rnd(m, x[1] + y[1], prec, near)


def div(x, y, prec: int, near: bool = False) -> tuple[int, int]:
    xm, xe = x
    ym, ye = y
    if not ym:
        raise ZeroDivisionError("binfloat division by zero")
    if not xm:
        return ZERO
    if ym == 1 or ym == -1:
        return rnd(xm * ym, xe - ye, prec, near)
    extra = max(5, prec - xm.bit_length() + ym.bit_length() + 5)
    q, r = divmod(abs(xm) << extra, abs(ym))
    if r:
        q = (q << 1) + 1
        extra += 1
    return rnd(-q if (xm < 0) != (ym < 0) else q, xe - ye - extra, prec, near)


def sqrt(x, prec: int, near: bool = False) -> tuple[int, int]:
    m, e = x
    if m < 0:
        raise ValueError("binfloat square root of a negative value")
    if not m:
        return ZERO
    if e & 1:
        m, e = m << 1, e - 1
    elif m == 1:
        return 1, e >> 1
    shift = max(4, 2 * prec - m.bit_length() + 4)
    shift += shift & 1
    big = m << shift
    m = isqrt(big)
    if near and m * m != big:
        m = (m << 1) + 1
        shift += 2
    return rnd(m, (e - shift) >> 1, prec, near)


def hypot(x, y, prec: int, near: bool = False) -> tuple[int, int]:
    if not y[0]:
        return rnd(abs(x[0]), x[1], prec, near)
    if not x[0]:
        return rnd(abs(y[0]), y[1], prec, near)
    return sqrt(add(mul(x, x), mul(y, y), prec + 4), prec, near)


def lt(x, y) -> bool:
    """x < y, exactly."""
    return sub(x, y)[0] < 0


# ---------------------------------------------------------------------------
# complex values (re, im), each part rounded to nearest at prec


def csub(z, w, prec: int):
    return sub(z[0], w[0], prec, True), sub(z[1], w[1], prec, True)


def cmul(z, w, prec: int):
    # exact products, each zero product left as (0, e); add reads it as 0
    ((a, ae), (b, be)), ((c, ce), (d, de)) = z, w
    return add((a * c, ae + ce), (-b * d, be + de), prec, True), add((a * d, ae + de), (b * c, be + ce), prec, True)


def cdiv(z, w, prec: int):
    (a, b), (c, d) = z, w
    wp = prec + 10
    mag = add(mul(c, c), mul(d, d), wp)
    t = add(mul(a, c), mul(b, d), wp)
    u = sub(mul(b, c), mul(a, d), wp)
    return div(t, mag, prec, True), div(u, mag, prec, True)


def cabs(z, prec: int):
    return hypot(z[0], z[1], prec, True)


def horner(lead, rest, z, prec: int):
    """p(z) for real p given as its leading coefficient and the ones below
    it, highest first, None for a zero: z * lead, then one complex
    multiplication by z and one real addition per coefficient."""
    v = (mul(z[0], lead, prec, True), mul(z[1], lead, prec, True))
    for k, c in enumerate(rest):
        if k:
            v = cmul(v, z, prec)
        if c is not None:
            v = (add(v[0], c, prec, True), v[1])
    return v


def recip_sum(z, zs, i: int, prec: int):
    """The sum over j != i, j ascending, of 1/(z - zs[j]): each difference
    rounded at prec, its reciprocal taken as (a/m, -b/m) with
    m = a^2 + b^2 at prec + 10, and the terms added at prec."""
    sr = si = ZERO
    for j, w in enumerate(zs):
        if j != i:
            a, b = csub(z, w, prec)
            m = add(mul(a, a), mul(b, b), prec + 10)
            sr = add(sr, div(a, m, prec, True), prec, True)
            si = add(si, div((-b[0], b[1]), m, prec, True), prec, True)
    return sr, si
