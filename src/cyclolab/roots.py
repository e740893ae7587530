"""Certified real roots of difference polynomials.

Real roots are isolated at every degree by one exact route: bisection of
the Cauchy bound, each piece counted by a Sturm chain, each bracket an
exact rational sign change.  One primitive pseudo-remainder sequence
(PRS) does all the gcd work: the Sturm chain of p is the PRS of (p, p'),
its last element is gcd(p, p'), and the squarefree part is p divided by
that element once.  The chain of a p that is not squarefree still
counts its distinct roots between non-roots (Sturm's theorem for the
signed remainder sequence), so no count needs a squarefree part first.
A factor x^k with k >= 2, which the coefficient list shows, is split off
before any PRS: Yun's factors come from the chain of q = p/x^k, with x
joined to the factor of multiplicity k, and a squarefree q is isolated on
that same chain.  Bisection evaluates the chain once at each point: its
first value tells whether the point is a root and gives the isolating
intervals' end signs.
No real verdict, and no real bracket, depends on floating point.
Descartes' rule of signs certifies a single bracket (``_descartes_in``):
0 sign variations prove it empty, 1 proves it holds exactly one simple
root.  Its transformed polynomial is one packed homogeneous value
(``polycore._packed``) whose digits ``polycore._unpack`` reads, the
kernel that also packs the window's values.
Refinement walks the bisection grid on integers by quadratic interval
refinement, returns the bracket bisection would, and recovers rational
roots exactly.  Records are built from the integers in hand, and a
Fraction is formed only for a field a BigFloat stores: a real record's
residual and modulus come from the refined bracket's integer ends over
one denominator.
This module also holds what the window and the complex path share: the
window's regions and its known exception, the root records and the
worker pool.  The root-window certificate lives in ``window``, and complex
roots, the complex scan and quarter lifts in ``complexroots``; their
public functions are re-exported here.
"""
from __future__ import annotations

import os
import signal
from fractions import Fraction

from .certified import BigFloat, ZERO, _from_bracket, _round_half_even
from .polycore import (
    IntPoly,
    _content,
    _digit_bytes,
    _divmod_exact,
    _eval_int_scaled,
    _gaussian_scale,
    _packed,
    _sub,
    _trim,
    _unpack,
    cyclotomic,
    difference,
)
from .record import Record

KNOWN_WINDOW_EXCEPTION = ((2, 6), Fraction(2))  # the single sanctioned root at 2

WINDOW_REGIONS = ("(-inf,-2]", "[-1/2,0)", "(0,1/2]", "[2,inf)")


class RootConvergenceError(RuntimeError):
    """Simultaneous iteration failed to certify within its budget."""


# ---------------------------------------------------------------------------
# pseudo-remainder sequences, gcd, squarefree structure (list-level)


def _derivative_list(cs):
    return [i * c for i, c in enumerate(cs)][1:]


def _primitive(cs):
    g = _content(cs)
    out = [c // g for c in cs] if g > 1 else list(cs)
    return out


def _pseudo_rem_even(a, b):
    # remainder of a by b premultiplied by an even power >= deg a - deg b + 1
    # of lc(b): every inner division is then exact and the result is a
    # positive multiple of the true remainder
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    k = len(a) - db
    if k % 2 == 1:
        k += 1
    m = lb ** k
    a = [c * m for c in a]
    for i in range(len(a) - 1 - db, -1, -1):
        c = a[i + db]
        if c:
            q = c // lb
            for j in range(db):
                if b[j]:
                    a[i + j] -= q * b[j]
            a[i + db] = 0
    return _trim(a)


def _prs(a, b):
    # primitive pseudo-remainder sequence of (a, b), deg a >= deg b, each
    # remainder negated.  For b = a' every element is a positive multiple of
    # the textbook Sturm element, so variation counts are exactly correct;
    # for any pair the last element is gcd(a, b) up to sign
    chain = [_primitive(a)]
    b = _trim(_primitive(b))
    if b:
        chain.append(b)
    while len(chain[-1]) > 1:
        r = _pseudo_rem_even(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in _primitive(r)])
    return chain


def _sturm_chain(cs):
    # the Sturm chain of p: the PRS of (p, p'), which starts with the
    # primitive part of p
    return _prs(cs, _derivative_list(cs))


def _chain_gcd(chain):
    # the gcd a PRS ends on, leading coefficient positive; [1] if coprime
    g = chain[-1]
    if len(g) == 1:
        return [1]
    return g if g[-1] > 0 else [-c for c in g]


def _gcd_list(a, b):
    if len(a) < len(b):
        a, b = b, a
    return _chain_gcd(_prs(a, b))


def _squarefree_of(chain):
    # p / gcd(p, p'), read off the Sturm chain of a primitive p
    g = _chain_gcd(chain)
    if len(g) == 1:
        return chain[0]
    q, r = _divmod_exact(chain[0], g)
    if r:
        raise AssertionError("squarefree reduction must divide exactly")
    return q


def squarefree_part(p: IntPoly) -> IntPoly:
    """Primitive polynomial with the same distinct roots as p."""
    cs = _primitive(list(p.coeffs))
    if len(cs) <= 1:
        return IntPoly(cs)
    return IntPoly(_squarefree_of(_sturm_chain(cs)))


def yun_decomposition(p: IntPoly) -> list[tuple[IntPoly, int]]:
    """Squarefree factors of p paired with their multiplicities."""
    cs = _primitive(list(p.coeffs))
    if len(cs) <= 1:
        return []
    return [(IntPoly(f), mult) for f, mult, _ in _squarefree_factors(cs)]


def _squarefree_factors(cs) -> list[tuple[list[int], int, list | None]]:
    """Yun's factors of a primitive nonconstant cs, each with its multiplicity
    and its Sturm chain when that chain is already built (else None).

    The factors equal ``_yun(_sturm_chain(cs))``: each is primitive with a
    positive leading coefficient except the last, which has the sign of
    lc(cs).  When x^k divides cs with k >= 2, the coefficient list shows
    it, and the PRS work runs on q = cs/x^k alone: Yun on q's chain, x
    joined to q's factor of multiplicity k (or added as (x, k)), and for
    a squarefree q its one chain also isolates.  For k <= 1 the one chain
    of cs is Yun's start and, when cs is squarefree, the isolating chain.
    """
    k = next(i for i, c in enumerate(cs) if c)
    if k <= 1:
        chain = _sturm_chain(cs)
        if len(chain[-1]) == 1:
            return [(cs, 1, chain)]
        return [(f, mult, None) for f, mult in _yun(chain)]
    sign = 1 if cs[-1] > 0 else -1
    q = [sign * c for c in cs[k:]]  # lc(q) > 0, so each of q's Yun factors has lc > 0
    factors = []
    if len(q) > 1:
        chain = _sturm_chain(q)
        if len(chain[-1]) == 1:
            factors = [(q, 1, chain)]
        else:
            factors = [(f, mult, None) for f, mult in _yun(chain)]
    i = next((i for i, (_, mult, _) in enumerate(factors) if mult >= k), len(factors))
    if i < len(factors) and factors[i][1] == k:
        factors[i] = ([0] + factors[i][0], k, None)
    else:
        factors.insert(i, ([0, 1], k, None))
    if sign < 0:
        f, mult, _ = factors[-1]
        factors[-1] = ([-c for c in f], mult, None)
    return factors


def _yun(chain) -> list[tuple[list[int], int]]:
    # Yun's squarefree factors of the primitive p a Sturm chain starts
    # with; the chain ends on gcd(p, p'), where Yun starts
    cs = chain[0]
    g = _chain_gcd(chain)
    if len(g) <= 1:
        return [(cs, 1)]
    w, r = _divmod_exact(cs, g)
    if r:
        raise AssertionError("gcd must divide")
    y, r = _divmod_exact(_derivative_list(cs), g)
    if r:
        raise AssertionError("gcd must divide the derivative")
    out = []
    i = 1
    z = _sub(y, _derivative_list(w))
    while len(w) > 1:
        gi = _gcd_list(w, z) if z else _primitive(w)
        if len(gi) > 1:
            out.append((gi, i))
            w, r1 = _divmod_exact(w, gi)
            y, r2 = _divmod_exact(z, gi)
            if r1 or r2:
                raise AssertionError("multiplicity factor must divide exactly")
        else:
            y = z
        z = _sub(y, _derivative_list(w))
        i += 1
    return out


# ---------------------------------------------------------------------------
# variation counts


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _variations(cs) -> int:
    # sign changes along a coefficient list, zeros skipped
    signs = [c > 0 for c in cs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _descartes_in(cs, lo: Fraction, hi: Fraction) -> int:
    """Sign variations of (1+t)^d * p((lo + hi*t)/(1+t)), d = deg p.

    By Descartes' rule of signs this bounds the number of roots of p in
    the open interval (lo, hi) from above and matches it in parity: 0
    proves the interval holds no root, 1 that it holds exactly one root,
    and that this root is simple.  Built on integers, with lo = a/q and
    hi = b/q: the count is that of the reversal times q^d,
    Q(t) = (q + q t)^d * p((b + a t)/(q + q t)), whose coefficients are at
    most ||p||_1 * max(|a| + |b|, 2q)^d in absolute value.  With nb bytes
    above that bound and Y = 2^(8 nb), Q(Y) is one packed evaluation
    (``polycore._packed``) whose signed base-Y digits are those
    coefficients (``polycore._unpack``).
    """
    a, b, q = _gaussian_scale(lo, hi)  # lo = a/q, hi = b/q
    d = len(cs) - 1
    nb = _digit_bytes(sum(map(abs, cs)) * max(abs(a) + abs(b), 2 * q) ** d)
    y = 1 << 8 * nb
    return _variations(_unpack(_packed(cs, b + a * y, q + q * y), nb, d + 1))


def _chain_at(chain, a: int, b: int) -> tuple[int, int]:
    # the sign of chain[0] at the rational point a/b (b >= 1) and, when it
    # is not 0, the chain's sign variations there
    first = _sign(_eval_int_scaled(chain[0], a, b))
    if not first:
        return 0, 0
    last = first
    var = 0
    for cs in chain[1:]:
        s = _sign(_eval_int_scaled(cs, a, b))
        if s:
            if s != last:
                var += 1
            last = s
    return first, var


def _cauchy_bound(cs) -> int:
    # every complex root lies strictly inside |x| < B
    lead = abs(cs[-1])
    mx = max(abs(c) for c in cs)
    return 1 + (mx + lead - 1) // lead


def _strip_root_at(cs, a: int, b: int):
    # divide out (b x - a) while it is an exact factor
    hit = False
    while len(cs) > 1 and _eval_int_scaled(cs, a, b) == 0:
        cs, r = _divmod_exact(cs, [-a, b])
        if r:
            raise AssertionError("claimed root must divide exactly")
        hit = True
    return _primitive(cs), hit


def _count_on_chain(chain, lo: Fraction | None, hi: Fraction | None) -> int:
    # distinct roots in (lo, hi) of the p a Sturm chain starts with, lo and
    # hi not roots of p; an infinite end (None) is -B or B, B the Cauchy
    # bound of p, which every root lies strictly inside
    B = _cauchy_bound(chain[0])
    lo = Fraction(-B) if lo is None else lo
    hi = Fraction(B) if hi is None else hi
    return _chain_at(chain, lo.numerator, lo.denominator)[1] - _chain_at(chain, hi.numerator, hi.denominator)[1]


def sturm_count(p: IntPoly, lo: Fraction | None, hi: Fraction | None) -> int:
    """Exact number of distinct real roots of p in (lo, hi].

    ``None`` endpoints mean -infinity / +infinity.  Endpoints that happen
    to be roots are divided out of p exactly and re-accounted; the count
    is then read off the Sturm chain of what is left, which counts
    distinct roots whether or not it is squarefree.  An infinite end is
    replaced by -B or B, B the Cauchy bound, past which there is no root.
    """
    if p.is_zero():
        raise ValueError("sturm_count is undefined for the zero polynomial")
    if lo is not None and hi is not None and not lo < hi:
        raise ValueError("sturm_count requires lo < hi")
    cs = _primitive(list(p.coeffs))
    if len(cs) <= 1:
        return 0
    hi_root = False
    if lo is not None:
        lo = Fraction(lo)
        cs, _ = _strip_root_at(cs, lo.numerator, lo.denominator)
    if hi is not None and len(cs) > 1:
        hi = Fraction(hi)
        cs, hi_root = _strip_root_at(cs, hi.numerator, hi.denominator)
    if len(cs) <= 1:
        return int(hi_root)
    return _count_on_chain(_sturm_chain(cs), lo, hi) + hi_root


# ---------------------------------------------------------------------------
# isolation


class IsolatingInterval(Record):
    """Open interval certified to contain exactly one root, with endpoint signs."""

    __slots__ = ("lo", "hi", "sign_lo", "sign_hi")

    def __init__(self, lo: Fraction, hi: Fraction, sign_lo: int, sign_hi: int):
        if not lo < hi:
            raise ValueError("isolating interval must have lo < hi")
        if sign_lo == 0 or sign_hi == 0:
            raise ValueError("endpoint signs must be nonzero")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "sign_lo", sign_lo)
        object.__setattr__(self, "sign_hi", sign_hi)


def _sign_at(cs, x: Fraction) -> int:
    return _sign(_eval_int_scaled(cs, x.numerator, x.denominator))


def _isolate_bisection(cs, chain) -> list[tuple[tuple, tuple]]:
    # one (lo, hi) bracket per distinct real root of the p the chain starts
    # with, each end a point (x, sign of chain[0] at x, variations at x).
    # The chain is evaluated once at each point, and its first value also
    # tells whether x is a root: p and its squarefree part cs share roots
    def at(x: Fraction) -> tuple:
        return (x, *_chain_at(chain, x.numerator, x.denominator))

    out: list[tuple[tuple, tuple]] = []

    def recurse(lo: tuple, hi: tuple) -> None:
        count = lo[2] - hi[2]
        if count == 0:
            return
        if count == 1:
            out.append((lo, hi))
            return
        a, b = lo[0], hi[0]
        mid = at((a + b) / 2)
        if mid[1] == 0:
            # exact root at the midpoint; fence it off with a clean gap
            delta = (b - a) / 4
            while True:
                l = at(mid[0] - delta)
                if l[1]:
                    r = at(mid[0] + delta)
                    if r[1] and l[2] - r[2] == 1:
                        break
                delta /= 2
            out.append((l, r))
            recurse(lo, l)
            recurse(r, hi)
            return
        recurse(lo, mid)
        recurse(mid, hi)

    B = _cauchy_bound(cs)
    recurse(at(Fraction(-B)), at(Fraction(B)))
    return sorted(out)


def isolate_real_roots(p: IntPoly) -> list[IsolatingInterval]:
    """Disjoint sign-change intervals, one per distinct real root of p.

    One Sturm chain of p serves twice: its last element is gcd(p, p'),
    so one exact division gives the squarefree part, and its variation
    counts at non-roots are distinct-root counts whether or not p is
    squarefree.  The endpoint signs recorded are those of the squarefree
    part: they are p's own only when p is squarefree (up to a positive
    constant).  Every degree takes the same exact route: bisection of the
    Cauchy bound [-B, B] of that part, each piece counted by the chain.
    """
    if p.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    cs = _primitive(list(p.coeffs))
    if len(cs) <= 1:
        return []
    return _isolate_chain(_sturm_chain(cs))[1]


def _isolate_chain(chain) -> tuple[list[int], list[IsolatingInterval]]:
    # the squarefree part of the primitive p a Sturm chain starts with, and
    # isolate_real_roots(p), both read off that one chain
    cs = _squarefree_of(chain)
    out = []
    for (a, sa, _), (b, sb, _) in _isolate_bisection(cs, chain):
        if cs is not chain[0]:  # p is not squarefree: the signs are cs's own
            sa, sb = _sign_at(cs, a), _sign_at(cs, b)
        if sa == 0 or sb == 0 or sa == sb:
            raise AssertionError("isolating interval lost its sign change")
        out.append(IsolatingInterval(a, b, sa, sb))
    return cs, out


def _first_level(a: int, den: int) -> int:
    # the least k >= 0 with a < den * 2^k
    if a < den:
        return 0
    k = a.bit_length() - den.bit_length()
    return k + (a >= den << k)


def _qir_cell(cs, lo: int, w: int, den: int, cell: tuple, K: int) -> tuple | Fraction:
    """Quadratic interval refinement on the bisection grid of (lo, lo + w)/den.

    Cell j of level k is ((lo 2^k + j w), (lo 2^k + (j + 1) w)) / (den 2^k).
    ``cell`` is (k, j, flo, fhi, g): flo and fhi are p's scaled values
    (den 2^k)^deg p(x) at its ends, of opposite signs, and g is the step
    exponent.  The secant through them proposes a point of the 2^g
    sub-cells of level k + g, and it and its neighbour toward the root are
    evaluated exactly.  If their signs differ, the sub-cell between them is
    the new cell and g doubles (Abbott, "Quadratic interval refinement for
    real roots", 2006).  Otherwise g halves, and the root lies past both
    points: the cell from one of them to the far end is taken when it is
    a cell of the grid, and one bisection step is taken when neither is,
    so no grid point is evaluated twice.  With g = 1 a step is one
    bisection step.  Returns the cell of level K, or the root itself
    when an evaluated grid point is one.
    """
    deg = len(cs) - 1
    k, j, flo, fhi, g = cell
    slo = _sign(flo)
    while k < K:
        g = min(g, K - k)
        n = 1 << g
        base, d = (lo << k + g) + (j << g) * w, den << k + g
        a, b = abs(flo), abs(fhi)
        m = min(max((2 * a * n + a + b) // (2 * (a + b)), 1), n - 1)  # nearest grid point to the secant root
        fm = _eval_int_scaled(cs, base + m * w, d)
        if not fm:
            return Fraction(base + m * w, d)
        step = 1 if _sign(fm) == slo else -1  # toward the root
        if m + step == n:
            fn = fhi << g * deg
        elif m + step == 0:
            fn = flo << g * deg
        else:
            fn = _eval_int_scaled(cs, base + (m + step) * w, d)
            if not fn:
                return Fraction(base + (m + step) * w, d)
        if _sign(fn) != _sign(fm):
            j = (j << g) + min(m, m + step)
            flo, fhi = (fm, fn) if step == 1 else (fn, fm)
            k += g
            g *= 2
            continue
        # the root lies past both points: if 2^s sub-cells join one of them
        # to the cell's far end, that is a cell of level k + g - s with both
        # end values known (at g = 2 always, and whenever one is the midpoint)
        for q, fq in ((m + step, fn), (m, fm)):
            t = n - q if step == 1 else q
            if t & (t - 1) == 0:
                s = t.bit_length() - 1
                e = g - s
                if step == 1:
                    j, flo, fhi = (j << e) + (q >> s), fq >> s * deg, fhi << e * deg
                else:
                    j, flo, fhi = j << e, flo << e * deg, fq >> s * deg
                k += e
                break
        else:
            mid, d = (lo << k + 1) + (2 * j + 1) * w, den << k + 1
            fm = _eval_int_scaled(cs, mid, d)
            if not fm:
                return Fraction(mid, d)
            if _sign(fm) == slo:
                j, flo, fhi = 2 * j + 1, fm, fhi << deg
            else:
                j, flo, fhi = 2 * j, flo << deg, fm
            k += 1
        g = max(1, g // 2)
    return k, j, flo, fhi, g


def refine_root(p: IntPoly, iv: IsolatingInterval, digits: int) -> BigFloat:
    """Narrow a certified interval below 10^-digits on the bisection grid.

    ``iv`` must carry p's own signs at its endpoints (ValueError
    otherwise).  The result is the one plain bisection of ``iv`` returns,
    reached in far fewer exact evaluations, and it rounds stably at
    ``digits`` fractional digits.  A rational root is recovered exactly
    (error bound zero): every rational root of p is a multiple of 1/L,
    L = |lc(p)|, so once bisection's bracket is narrower than 1/L its one
    candidate multiple is tested exactly, and no interval is returned
    before that test.

    The cells of bisection from ``iv`` form a dyadic grid, and the levels
    where bisection tests the candidate (kt, narrower than 1/L) and first
    checks the rounding (K, narrower than 10^-digits too) are known up
    front.  Quadratic interval refinement (``_qir_cell``) walks the grid
    to kt and then to K, each cell it accepts proved by exact integer
    signs at its ends.  The root is unique in ``iv`` and lies strictly
    inside the cell reached at a level, which is therefore bisection's
    cell there, and no grid point of that level or above, so no earlier
    midpoint, is a root.  Past K, as bisection does, the walk goes down
    one level at a time until the bracket rounds.  An evaluated grid
    point that is a root is returned exactly, as bisection returns it: it
    meets that point as a midpoint, unless the candidate test finds the
    same root first.
    """
    if digits < 1:
        raise ValueError("digits must be positive")
    cs = list(p.coeffs)
    lo, hi, den = _gaussian_scale(iv.lo, iv.hi)  # the bracket is (lo/den, hi/den)
    flo, fhi = _eval_int_scaled(cs, lo, den), _eval_int_scaled(cs, hi, den)
    if _sign(flo) != iv.sign_lo or _sign(fhi) != iv.sign_hi:
        raise ValueError("interval endpoint signs are not those of p")
    lead, scale = abs(cs[-1]), 10 ** digits
    prec = max(24, int(digits * 3.33) + 16)
    w = hi - lo
    kt = _first_level(w * lead, den)
    cell = _qir_cell(cs, lo, w, den, (0, 0, flo, fhi, 1), kt)
    if isinstance(cell, Fraction):
        return BigFloat(cell, prec, ZERO)
    a, dt = (lo << kt) + cell[1] * w, den << kt
    c = -(-a * lead // dt)  # c/L, c = ceil(L * a/dt): the one multiple of 1/L left
    if a * lead < c * dt < (a + w) * lead and _eval_int_scaled(cs, c, lead) == 0:
        return BigFloat(Fraction(c, lead), prec, ZERO)
    level = max(kt, _first_level(w * scale, den))
    while True:
        cell = _qir_cell(cs, lo, w, den, cell, level)
        if isinstance(cell, Fraction):
            return BigFloat(cell, prec, ZERO)
        a, d = (lo << level) + cell[1] * w, den << level
        if _round_half_even(a * scale, d) == _round_half_even((a + w) * scale, d):
            return _from_bracket(a, a + w, d, prec)
        level += 1


# ---------------------------------------------------------------------------
# root records and coincidence scans


class RootRecord(Record):
    """One certified root of a named polynomial."""

    __slots__ = ("poly_id",
                 "kind",  # "real" | "complex"
                 "value",  # BigFloat, or (BigFloat, BigFloat) for complex
                 "modulus", "digits", "residual", "multiplicity")
    _defaults = {"multiplicity": 1}


class CoincidenceRecord(Record):
    """All certified roots of Phi_m - Phi_n requested by a scan."""

    __slots__ = ("m", "n", "roots", "max_abs_real",
                 "window_violations")  # indexes into roots
    _defaults = {"max_abs_real": None, "window_violations": ()}


def _real_root_record(poly_id, p: IntPoly, iv: IsolatingInterval, digits: int, mult: int) -> RootRecord:
    # residuals are taken against the squarefree factor that carries the
    # root.  The bracket is (c -+ r)/den, so |p| at its ends is two scaled
    # integer values, and the modulus is the value itself, its negation, or
    # [0, max(|ends|)] when the bracket straddles 0
    val = refine_root(p, iv, digits)
    c, r, den = _gaussian_scale(val.value, val.error_bound)
    res = max(abs(_eval_int_scaled(p.coeffs, x, den)) for x in {c - r, c + r})
    if c >= r:
        modulus = val
    elif c <= -r:
        modulus = BigFloat(-val.value, val.precision_bits, val.error_bound)
    else:
        modulus = _from_bracket(0, r + abs(c), den, val.precision_bits)
    return RootRecord(
        poly_id=poly_id,
        kind="real",
        value=val,
        modulus=modulus,
        digits=digits,
        residual=BigFloat(Fraction(res, den ** p.degree), val.precision_bits, ZERO),
        multiplicity=mult,
    )


def real_coincidence_roots(m: int, n: int, digits: int = 15) -> CoincidenceRecord:
    """All real roots of Phi_m - Phi_n, refined and window-checked.

    Any nonzero root with |x| <= 1/2 or |x| >= 2 is a window violation
    unless it is the known exception (pair {2,6}, root exactly 2).
    """
    if m == n:
        raise ValueError("real_coincidence_roots requires m != n")
    a, b = min(m, n), max(m, n)
    d = difference(a, b)
    records: list[RootRecord] = []
    if d.degree >= 1:
        for f, mult, chain in _squarefree_factors(_primitive(list(d.coeffs))):
            factor, ivs = _isolate_chain(chain or _sturm_chain(f))
            for iv in ivs:
                records.append(_real_root_record((a, b), IntPoly(factor), iv, digits, mult))
    records.sort(key=lambda r: r.value.value)
    max_abs = None
    violations = []
    for idx, rec in enumerate(records):
        if rec.value.value == 0:
            continue
        if _is_window_exception(a, b, rec):
            continue
        lo, hi = rec.modulus.lo, rec.modulus.hi
        if not (Fraction(1, 2) < lo and hi < 2):
            violations.append(idx)
        if max_abs is None or hi > max_abs.hi:
            max_abs = rec.modulus
    return CoincidenceRecord(
        m=a,
        n=b,
        roots=tuple(records),
        max_abs_real=max_abs,
        window_violations=tuple(violations),
    )


def _is_window_exception(m: int, n: int, rec: RootRecord) -> bool:
    return (
        (m, n) == KNOWN_WINDOW_EXCEPTION[0]
        and rec.value.error_bound == 0
        and rec.value.value == KNOWN_WINDOW_EXCEPTION[1]
    )


# ---------------------------------------------------------------------------
# the worker pool of the real, window and complex scans


def effective_jobs(jobs: int | None) -> int:
    # jobs below 1 is refused; CYCLOLAB_JOBS, when set, overrides jobs, and
    # a value of it that is not an integer >= 1 is refused too
    if jobs is not None and jobs < 1:
        raise ValueError("jobs must be >= 1")
    env = os.environ.get("CYCLOLAB_JOBS")
    if env:
        try:
            j = int(env)
        except ValueError:
            j = 0
        if j < 1:
            raise ValueError(f"CYCLOLAB_JOBS must be an integer >= 1, got {env!r}")
        return j
    return jobs or os.cpu_count() or 1


def _usable_cpus() -> int:
    # the CPUs this process may run on, where the platform says so
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _parallel_map(fn, items, jobs: int | None):
    # yields fn(item) in input order as results arrive, so callers can
    # stream; the pool never outnumbers the items or the usable CPUs
    items = list(items)
    j = min(effective_jobs(jobs), len(items), _usable_cpus())
    if j <= 1 or len(items) < 8:
        yield from map(fn, items)
        return
    import multiprocessing  # here, so a run at jobs = 1 never loads it
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        yield from map(fn, items)
        return
    # workers die of SIGTERM at once, whatever handler the parent installed
    with ctx.Pool(j, initializer=signal.signal, initargs=(signal.SIGTERM, signal.SIG_DFL)) as pool:
        chunk = max(1, len(items) // (j * 8))
        yield from pool.imap(fn, items, chunksize=chunk)


def _warm_cyclotomic_cache(M: int) -> None:
    for i in range(1, M + 1):
        cyclotomic(i)


# ``window`` and ``complexroots`` import this module's names, so they are
# imported last, after every name they use is bound
from .window import verify_root_window, window_counts  # noqa: E402, F401
from .complexroots import complex_roots, quarter_lift_check, scan_complex  # noqa: E402, F401
