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
    m = a^2 + b^2 at prec + 10, and the terms added at prec.

    Most of an Aberth sweep is spent here, so the loop inlines ``sub``,
    ``add`` and ``div`` where exponents differ by at most 100 (exact sums,
    whatever the operands, and a zero may keep any exponent) and calls
    them otherwise."""
    wp = prec + 10
    (xm, xe), (ym, ye) = z
    srm = sre = sim = sie = 0
    for j, ((um, ue), (vm, ve)) in enumerate(zs):
        if j == i:
            continue
        # a = x - u, b = y - v, rounded to nearest
        off = xe - ue
        if -100 <= off <= 100:
            am, ae = ((xm << off) - um, ue) if off >= 0 else (xm - (um << -off), xe)
            n = am.bit_length() - prec
            if n > 0:
                t = am >> (n - 1)
                am = (t >> 1) + 1 if t & 1 and (t & 2 or am & ((1 << (n - 1)) - 1)) else t >> 1
                ae += n
            if am and not am & 1:
                t = (am & -am).bit_length() - 1
                am >>= t
                ae += t
        else:
            am, ae = add((xm, xe), (-um, ue), prec, True)
        off = ye - ve
        if -100 <= off <= 100:
            bm, be = ((ym << off) - vm, ve) if off >= 0 else (ym - (vm << -off), ye)
            n = bm.bit_length() - prec
            if n > 0:
                t = bm >> (n - 1)
                bm = (t >> 1) + 1 if t & 1 and (t & 2 or bm & ((1 << (n - 1)) - 1)) else t >> 1
                be += n
            if bm and not bm & 1:
                t = (bm & -bm).bit_length() - 1
                bm >>= t
                be += t
        else:
            bm, be = add((ym, ye), (-vm, ve), prec, True)
        # m = a^2 + b^2 toward zero at wp
        off = 2 * (ae - be)
        if -100 <= off <= 100:
            mm, me = ((am * am << off) + bm * bm, 2 * be) if off >= 0 else (am * am + (bm * bm << -off), 2 * ae)
            n = mm.bit_length() - wp
            if n > 0:
                mm >>= n
                me += n
            if mm and not mm & 1:
                t = (mm & -mm).bit_length() - 1
                mm >>= t
                me += t
        else:
            mm, me = add(mul((am, ae), (am, ae)), mul((bm, be), (bm, be)), wp)
        if not mm:
            raise ZeroDivisionError("binfloat division by zero")
        # sr += a/m: quotient and sum each rounded to nearest
        if am:
            extra = prec - am.bit_length() + mm.bit_length() + 5
            if extra < 5:
                extra = 5
            q, r = divmod((am if am > 0 else -am) << extra, mm)
            if r:
                q = (q << 1) + 1
                extra += 1
            if am < 0:
                q = -q
            qe = ae - me - extra
            n = q.bit_length() - prec
            if n > 0:
                t = q >> (n - 1)
                q = (t >> 1) + 1 if t & 1 and (t & 2 or q & ((1 << (n - 1)) - 1)) else t >> 1
                qe += n
            if not q & 1:
                t = (q & -q).bit_length() - 1
                q >>= t
                qe += t
            off = sre - qe
            if -100 <= off <= 100:
                srm, sre = ((srm << off) + q, qe) if off >= 0 else (srm + (q << -off), sre)
                n = srm.bit_length() - prec
                if n > 0:
                    t = srm >> (n - 1)
                    srm = (t >> 1) + 1 if t & 1 and (t & 2 or srm & ((1 << (n - 1)) - 1)) else t >> 1
                    sre += n
                if srm and not srm & 1:
                    t = (srm & -srm).bit_length() - 1
                    srm >>= t
                    sre += t
            else:
                srm, sre = add((srm, sre), (q, qe), prec, True)
        # si += -b/m: quotient and sum each rounded to nearest
        if bm:
            extra = prec - bm.bit_length() + mm.bit_length() + 5
            if extra < 5:
                extra = 5
            q, r = divmod((bm if bm > 0 else -bm) << extra, mm)
            if r:
                q = (q << 1) + 1
                extra += 1
            if bm > 0:
                q = -q
            qe = be - me - extra
            n = q.bit_length() - prec
            if n > 0:
                t = q >> (n - 1)
                q = (t >> 1) + 1 if t & 1 and (t & 2 or q & ((1 << (n - 1)) - 1)) else t >> 1
                qe += n
            if not q & 1:
                t = (q & -q).bit_length() - 1
                q >>= t
                qe += t
            off = sie - qe
            if -100 <= off <= 100:
                sim, sie = ((sim << off) + q, qe) if off >= 0 else (sim + (q << -off), sie)
                n = sim.bit_length() - prec
                if n > 0:
                    t = sim >> (n - 1)
                    sim = (t >> 1) + 1 if t & 1 and (t & 2 or sim & ((1 << (n - 1)) - 1)) else t >> 1
                    sie += n
                if sim and not sim & 1:
                    t = (sim & -sim).bit_length() - 1
                    sim >>= t
                    sie += t
            else:
                sim, sie = add((sim, sie), (q, qe), prec, True)
    # a zero sum may carry any exponent until here
    return (srm, sre if srm else 0), (sim, sie if sim else 0)
