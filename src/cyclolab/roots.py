"""Certified root location for difference polynomials.

Real roots are isolated at every degree by one exact route: bisection of
the Cauchy bound, each piece counted by a Sturm chain, each bracket an
exact rational sign change.  One primitive pseudo-remainder sequence
(PRS) does all the gcd work: the Sturm chain of p is the PRS of (p, p'),
its last element is gcd(p, p'), and the squarefree part is p divided by
that element once.  The chain of a p that is not squarefree still
counts its distinct roots between non-roots (Sturm's theorem for the
signed remainder sequence), so no count needs a squarefree part first.
No real verdict, and no real bracket, depends on floating point; numpy
only seeds the complex iteration.  The root window is
certified region by region with Descartes' rule of signs on
Taylor-shifted polynomials.  Shifts are linear, so for a pair (m, n) each
region's shifted polynomial, packed into one integer, is a difference of
values cached once per index, and one sign-byte scan of it
(``polycore._packed_root_free``) decides the region.  The integers that
depend only on the digit width and the degree (the padding powers, 3^D
and the digit bias) are cached once per process too.  A pair those values
do not clear takes the exact path: endpoint roots divided out, each
region tested again, and a region whose test is inconclusive counted by a
Sturm chain instead.
The same rule certifies a single bracket (``_descartes_in``): 0 sign
variations prove it empty, 1 proves it holds exactly one simple root.  Its
transformed polynomial is one packed homogeneous value
(``polycore._packed``) whose digits ``polycore._unpack`` reads, the
kernel that also packs the window's values.
Refinement walks the bisection grid on integers by quadratic interval
refinement, returns the bracket bisection would, and recovers rational
roots exactly.
Complex roots come from a simultaneous Aberth-Ehrlich iteration at
extended precision on ``binfloat``'s (mantissa, exponent) integer pairs,
bit for bit mpmath's libmp arithmetic, then every floating artifact is
re-certified exactly: Weierstrass inclusion disks, residuals and moduli
are all evaluated in rational arithmetic.  numpy (the seeds) and
``binfloat`` serve only this complex path and are imported on its first
call, so a process that never asks for complex roots does not load them.
"""
from __future__ import annotations

import itertools
import os
import signal
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .certified import (
    BigFloat,
    ZERO,
    decimal_in_interval,
    from_interval,
    sqrt_interval,
)
from .polycore import (
    ExactDivisionError,
    IntPoly,
    _content,
    _digit_bytes,
    _divmod_exact,
    _eval_gaussian_scaled,
    _eval_int_scaled,
    _gaussian_scale,
    _packed,
    _packed_root_free,
    _root_free_from,
    _sub,
    _trim,
    _unpack,
    cyclotomic,
    difference,
    eval_rational,
)

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
    return _yun(_sturm_chain(cs))


def _yun(chain) -> list[tuple[IntPoly, int]]:
    # Yun's squarefree factors of the primitive p a Sturm chain starts
    # with; the chain ends on gcd(p, p'), where Yun starts
    cs = chain[0]
    g = _chain_gcd(chain)
    if len(g) <= 1:
        return [(IntPoly(cs), 1)]
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
            out.append((IntPoly(gi), i))
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


def _variations_at(chain, a: int, b: int) -> int:
    # sign variations of the chain at the rational point a/b (b >= 1)
    last = 0
    var = 0
    for cs in chain:
        s = _sign(_eval_int_scaled(cs, a, b))
        if s:
            if last and s != last:
                var += 1
            last = s
    return var


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
    return (
        _variations_at(chain, lo.numerator, lo.denominator)
        - _variations_at(chain, hi.numerator, hi.denominator)
    )


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


@dataclass(frozen=True)
class IsolatingInterval:
    """Open interval certified to contain exactly one root, with endpoint signs."""

    lo: Fraction
    hi: Fraction
    sign_lo: int
    sign_hi: int

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("isolating interval must have lo < hi")
        if self.sign_lo == 0 or self.sign_hi == 0:
            raise ValueError("endpoint signs must be nonzero")


def _sign_at(cs, x: Fraction) -> int:
    return _sign(_eval_int_scaled(cs, x.numerator, x.denominator))


def _isolate_bisection(cs, chain) -> list[tuple[Fraction, Fraction]]:
    B = _cauchy_bound(cs)
    lo, hi = Fraction(-B), Fraction(B)
    out: list[tuple[Fraction, Fraction]] = []

    def recurse(a: Fraction, b: Fraction, va: int, vb: int) -> None:
        count = va - vb
        if count == 0:
            return
        if count == 1:
            out.append((a, b))
            return
        mid = (a + b) / 2
        if _sign_at(cs, mid) == 0:
            # exact root at the midpoint; fence it off with a clean gap
            delta = (b - a) / 4
            while True:
                l, r = mid - delta, mid + delta
                if _sign_at(cs, l) != 0 and _sign_at(cs, r) != 0:
                    vl = _variations_at(chain, l.numerator, l.denominator)
                    vr = _variations_at(chain, r.numerator, r.denominator)
                    if vl - vr == 1:
                        break
                delta /= 2
            out.append((l, r))
            recurse(a, l, va, vl)
            recurse(r, b, vr, vb)
            return
        vm = _variations_at(chain, mid.numerator, mid.denominator)
        recurse(a, mid, va, vm)
        recurse(mid, b, vm, vb)

    va = _variations_at(chain, lo.numerator, lo.denominator)
    vb = _variations_at(chain, hi.numerator, hi.denominator)
    recurse(lo, hi, va, vb)
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
    for a, b in _isolate_bisection(cs, chain):
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
    lead = abs(cs[-1])
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
    level = max(kt, _first_level(w * 10 ** digits, den))
    while True:
        cell = _qir_cell(cs, lo, w, den, cell, level)
        if isinstance(cell, Fraction):
            return BigFloat(cell, prec, ZERO)
        a, d = (lo << level) + cell[1] * w, den << level
        x, y = Fraction(a, d), Fraction(a + w, d)
        if decimal_in_interval(x, y, digits) is not None:
            return from_interval(x, y, prec)
        level += 1


# ---------------------------------------------------------------------------
# root records and coincidence scans


@dataclass(frozen=True)
class RootRecord:
    """One certified root of a named polynomial."""

    poly_id: object
    kind: str  # "real" | "complex"
    value: object  # BigFloat, or (BigFloat, BigFloat) for complex
    modulus: BigFloat
    digits: int
    residual: BigFloat
    multiplicity: int = 1


@dataclass(frozen=True)
class CoincidenceRecord:
    """All certified roots of Phi_m - Phi_n requested by a scan."""

    m: int
    n: int
    roots: tuple[RootRecord, ...]
    max_abs_real: BigFloat | None = None
    window_violations: tuple[int, ...] = ()  # indexes into roots


def _abs_interval(v: BigFloat) -> tuple[Fraction, Fraction]:
    lo, hi = v.lo, v.hi
    if lo >= 0:
        return lo, hi
    if hi <= 0:
        return -hi, -lo
    return ZERO, max(-lo, hi)


def _real_root_record(poly_id, p: IntPoly, iv: IsolatingInterval, digits: int, mult: int) -> RootRecord:
    # residuals are taken against the squarefree factor that carries the root
    val = refine_root(p, iv, digits)
    alo, ahi = _abs_interval(val)
    if val.error_bound == 0:
        res = abs(eval_rational(p, val.value))
    else:
        res = max(abs(eval_rational(p, val.lo)), abs(eval_rational(p, val.hi)))
    return RootRecord(
        poly_id=poly_id,
        kind="real",
        value=val,
        modulus=from_interval(alo, ahi, val.precision_bits),
        digits=digits,
        residual=BigFloat(Fraction(res), val.precision_bits, ZERO),
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
        chain = _sturm_chain(_primitive(list(d.coeffs)))
        if len(chain[-1]) == 1:  # squarefree: its Sturm chain also isolates
            chains = [(chain, 1)]
        else:
            chains = [(_sturm_chain(list(f.coeffs)), mult) for f, mult in _yun(chain)]
        for chain, mult in chains:
            factor, ivs = _isolate_chain(chain)
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
        lo, hi = _abs_interval(rec.value)
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


def _real_scan_worker(args):
    # one pair of the real scan
    m, n, digits = args
    return real_coincidence_roots(m, n, digits)


# window counting (cheap: no isolation, Descartes certificates first)

# the nonzero window endpoints -2, -1/2, 1/2, 2 as (numerator, denominator),
# each closing one of the regions (-inf,-2], [-1/2,0), (0,1/2], [2,inf)
_WINDOW_POINTS = ((-2, 1), (-1, 2), (1, 2), (2, 1))
_WINDOW_OPEN = (
    (None, Fraction(-2)),
    (Fraction(-1, 2), Fraction(0)),
    (Fraction(0), Fraction(1, 2)),
    (Fraction(2), None),
)
_DIGIT_BUCKET = 8  # packed digit widths round up to a multiple of this many bytes


def _region_maps(cs):
    # the regions, in WINDOW_REGIONS order, are t >= 0 under x = -(2+t),
    # -1/(2+t), 1/(2+t), 2+t; x -> -x flips odd coefficients, and reversed
    # coefficients are those of x^deg p(1/x), so each map is one of these
    # lists at x = 2+t
    flipped = [-c if i % 2 else c for i, c in enumerate(cs)]  # p(-x)
    return flipped, flipped[::-1], cs[::-1], cs


def _window_counts(p: IntPoly) -> tuple[tuple[int, int, int, int], bool, int]:
    # window_counts for any nonzero p, plus the number of regions that
    # needed a Sturm count
    cs = list(p.coeffs)
    cs = cs[next(i for i, c in enumerate(cs) if c):]  # divide out x^k
    hits = []
    for a, b in _WINDOW_POINTS:
        cs, hit = _strip_root_at(cs, a, b)
        hits.append(hit)
    # cs is now q, with no root at 0 or at an endpoint
    counts = []
    fallbacks = 0
    for ts, (lo, hi), hit in zip(_region_maps(cs), _WINDOW_OPEN, hits):
        inside = 0
        if not _root_free_from(ts, 2):
            # q has no root at lo or hi, so its count on (lo, hi] is the open region's
            inside = sturm_count(IntPoly(cs), lo, hi)
            fallbacks += 1
        counts.append(inside + hit)
    return tuple(counts), hits[-1], fallbacks


@lru_cache(maxsize=None)
def _index_norms(n: int) -> tuple[int, int]:
    # (phi(n), ||Phi_n||_1)
    cs = cyclotomic(n).coeffs
    return len(cs) - 1, sum(map(abs, cs))


@lru_cache(maxsize=None)
def _index_packed(n: int, nb: int) -> tuple[int, ...]:
    # Phi_n(-y), y^phi Phi_n(-1/y), y^phi Phi_n(1/y) and Phi_n(y) at
    # y = 2^(8 nb) + 2: the region maps of Phi_n, packed.  For n >= 3,
    # Phi_n is palindromic of even degree, so y^phi Phi_n(+-1/y) =
    # Phi_n(+-y): two values are computed, and each is held twice
    y = (1 << 8 * nb) + 2
    maps = _region_maps(list(cyclotomic(n).coeffs))
    if n <= 2:
        return tuple(_packed(ts, y) for ts in maps)
    neg, pos = _packed(maps[0], y), _packed(maps[3], y)
    return neg, neg, pos, pos


@lru_cache(maxsize=None)
def _power_of_three(D: int) -> int:
    return 3 ** D


@lru_cache(maxsize=None)
def _padding_power(nb: int, e: int) -> int:
    # y^e at y = 2^(8 nb) + 2: the packed value of (2+t)^e
    return ((1 << 8 * nb) + 2) ** e


def _window_clear(m: int, n: int) -> bool:
    """Whether cached per-index values prove Phi_m - Phi_n root-free on
    every window region, endpoints included.

    Taylor shifts are linear, so with d = Phi_m - Phi_n and D = max phi the
    shifted region polynomials d(-(2+t)), d(2+t) and (2+t)^D d(+-1/(2+t))
    are differences of per-index ones, the inner ones padded to degree D
    by a factor (2+t)^(D - phi), which is positive at every t >= 0 and so
    changes no root there.  Their coefficients are at most
    (||Phi_m||_1 + ||Phi_n||_1) * 3^D in absolute value, so at
    y = 2^(8 nb) + 2, with nb bytes above that bound, each region's packed
    value is one subtraction of cached ones, and ``_packed_root_free``
    reads its verdict off that value.  Every integer that depends only on
    nb and the degrees is cached once per process: 3^D, the padding
    powers y^(D - phi) and the digit bias of ``_packed_root_free``.
    """
    (fm, lm), (fn, ln) = _index_norms(m), _index_norms(n)
    D = max(fm, fn)
    nb = _digit_bytes((lm + ln) * _power_of_three(D))
    nb += -nb % _DIGIT_BUCKET  # shares the cached values among pairs
    pm, pn = _padding_power(nb, D - fm), _padding_power(nb, D - fn)
    for a, b, wm, wn in zip(_index_packed(m, nb), _index_packed(n, nb), (1, pm, pm, 1), (1, pn, pn, 1)):
        if not _packed_root_free(a * wm - b * wn, nb, D + 1):
            return False
    return True


def _pair_window(m: int, n: int) -> tuple[tuple[int, int, int, int], bool, int]:
    # window_counts(m, n) plus its Sturm fallbacks; a pair the cached values
    # do not clear takes the exact path
    if _window_clear(m, n):
        return (0, 0, 0, 0), False, 0
    return _window_counts(difference(m, n))


def window_counts(m: int, n: int) -> tuple[tuple[int, int, int, int], bool]:
    """Exact root counts on (-inf,-2], [-1/2,0), (0,1/2], [2,inf) for Phi_m - Phi_n.

    Also reports whether a root sits exactly at 2 (the sanctioned
    exception for the pair {2,6}).  Counts are of distinct roots.  Each
    region is mapped to t >= 0 by x = -(2+t), -1/(2+t), 1/(2+t) or 2+t,
    and a Taylor-shifted polynomial with a nonzero constant term and no
    sign variation proves the region empty (Descartes' rule of signs).
    The four are first read off cached per-index values
    (``_window_clear``).  A pair they do not clear takes the exact path:
    roots at -2, -1/2, 0, 1/2 and 2 are divided out, each region is tested
    again, and a region that shows a variation is counted exactly by
    ``sturm_count``.
    """
    counts, at_two, _ = _pair_window(m, n)
    return counts, at_two


@dataclass(frozen=True)
class WindowReport:
    """Outcome of the outer-window certification over all pairs up to M."""

    max_index: int
    pairs_checked: int
    violations: tuple[tuple[int, int, str, int], ...]
    exception_found: bool
    sturm_fallbacks: int = 0  # regions whose Descartes test was inconclusive

    @property
    def holds(self) -> bool:
        return not self.violations


def _window_worker(pair):
    m, n = pair
    return (m, n, *_pair_window(m, n))


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


def _parallel_map(fn, items, jobs: int | None):
    # yields fn(item) in input order as results arrive, so callers can stream
    items = list(items)
    j = effective_jobs(jobs)
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


def verify_root_window(M: int, jobs: int | None = None) -> WindowReport:
    """Certify, pair by pair up to M, that no nonzero real coincidence
    escapes 1/2 < |x| < 2 except the known root of the pair {2,6} at 2."""
    if M < 2:
        raise ValueError("verify_root_window requires M >= 2")
    _warm_cyclotomic_cache(M)
    pairs = [(m, n) for m in range(1, M + 1) for n in range(m + 1, M + 1)]
    results = _parallel_map(_window_worker, pairs, jobs)
    violations = []
    exception_found = False
    fallbacks = 0
    for m, n, counts, at_two, pair_fallbacks in results:
        fallbacks += pair_fallbacks
        for region, c in zip(WINDOW_REGIONS, counts):
            if c == 0:
                continue
            if region == "[2,inf)" and (m, n) == KNOWN_WINDOW_EXCEPTION[0] and at_two and c == 1:
                exception_found = True
                continue
            violations.append((m, n, region, c))
    return WindowReport(
        max_index=M,
        pairs_checked=len(pairs),
        violations=tuple(violations),
        exception_found=exception_found,
        sturm_fallbacks=fallbacks,
    )


# ---------------------------------------------------------------------------
# complex roots: Aberth-Ehrlich iteration plus exact certification


def _aberth_sweeps(cs, prec_bits: int, budget: int):
    # Aberth-Ehrlich sweeps on binfloat (m, e) pairs, bit for bit the
    # iterates of mpmath's mpc arithmetic at prec_bits: the same
    # operations, precisions, roundings and order.  Two operations are
    # skipped where libmp makes them exact: adding a zero coefficient,
    # and the multiplications by one in 1/w = (a/m, -b/m), m = a^2 + b^2.
    from . import binfloat as bf
    import numpy as np

    deg = len(cs) - 1
    mx = max(abs(c) for c in cs)
    arr = np.array([c / mx for c in reversed(cs)], dtype=float)
    try:
        seeds = [complex(z) for z in np.roots(arr)]
    except Exception:
        seeds = []
    if len(seeds) != deg:
        # fall back to a circle of radius near the root bound
        R = 1.0 + max(abs(c) / abs(cs[-1]) for c in cs)
        seeds = [complex(R * np.exp(2j * np.pi * (i + 0.25) / deg)) for i in range(deg)]
    spread = []
    for z in seeds:
        while any(abs(z - w) < 1e-9 for w in spread):
            z += 1e-6 + 1e-6j
        spread.append(z)

    P = prec_bits
    zero = (bf.ZERO, bf.ZERO)
    zs = [(bf.from_float(z.real, P, True), bf.from_float(z.imag, P, True)) for z in spread]
    # p and p' as a leading coefficient and the ones below it, highest
    # first, with None for a zero
    dps = [i * c for i, c in enumerate(cs)][1:]
    pl, pcs = bf.rnd(cs[-1], 0, P, True), [bf.rnd(c, 0, P, True) if c else None for c in reversed(cs[:-1])]
    dl, dcs = bf.rnd(dps[-1], 0, P, True), [bf.rnd(c, 0, P, True) if c else None for c in reversed(dps[:-1])]
    tol = (1, -(prec_bits * 3) // 4)
    for _ in range(budget):
        moved = bf.ZERO
        for i in range(deg):
            z = zs[i]
            pv = bf.horner(pl, pcs, z, P)
            if pv == zero:
                continue
            if deg == 1:
                newt = (bf.div(pv[0], dl, P, True), bf.div(pv[1], dl, P, True))
            else:
                dv = bf.horner(dl, dcs, z, P)
                if dv == zero:
                    zs[i] = (bf.add(z[0], tol, P, True), z[1])
                    continue
                newt = bf.cdiv(pv, dv, P)
            den = bf.csub((bf.ONE, bf.ZERO), bf.cmul(newt, bf.recip_sum(z, zs, i, P), P), P)
            if den == zero:
                continue
            corr = bf.cdiv(newt, den, P)
            zs[i] = bf.csub(z, corr, P)
            az = bf.cabs(z, P)
            rel = bf.div(bf.cabs(corr, P), az if bf.lt(bf.ONE, az) else bf.ONE, P, True)
            if bf.lt(moved, rel):
                moved = rel
        if bf.lt(moved, tol):
            break
    return zs


def _certified_disks(cs, precision_bits: int, budget: int = 200):
    """Aberth centers with rigorous per-root inclusion radii.

    radius_i = deg * |p(z_i)| / (|lc| * prod |z_i - z_j|): the numerator is
    evaluated exactly at the dyadic center, the denominator in floating
    point with a proven relative-error margin, so every radius is a true
    upper bound and the union-of-disks theorem applies.  With pairwise
    disjoint disks each one holds exactly one root.

    Returns (re, im, rad, res) per root: the dyadic center, the radius and
    an enclosure (lo, hi) of the residual |p(re + im*i)| of width
    2^-precision_bits.
    """
    from . import binfloat as bf

    deg = len(cs) - 1
    lead = abs(cs[-1])
    # each center component is rounded to precision_bits + 48 significant
    # bits (a dyadic rational; exponents differ from root to root); all
    # certification below happens at the rounded points
    keep = precision_bits + 48
    for mult in (2, 4):
        P = precision_bits * mult
        pts = [(bf.rnd(*re, keep, True), bf.rnd(*im, keep, True)) for re, im in _aberth_sweeps(cs, P, budget)]
        # prod_i = prod_{j != i} |z_i - z_j|, j ascending.  Rounded
        # subtraction is symmetric, so |z_i - z_j| = |z_j - z_i| bit for
        # bit and each distance is taken once
        prods = [bf.ONE] * deg
        for i in range(deg):
            for j in range(i + 1, deg):
                dist = bf.cabs(bf.csub(pts[i], pts[j], P), P)
                prods[i] = bf.mul(prods[i], dist, P, True)
                prods[j] = bf.mul(prods[j], dist, P, True)
        if bf.ZERO in prods:
            continue  # coincident centers
        # the denominator's lower bound takes the factor 1 - 2^-k
        k = max(32, P - 8 * deg.bit_length() - 16)
        out = []
        for ((rman, rexp), (iman, iexp)), (pman, pexp) in zip(pts, prods):
            # center (a + b*i)/2^s; the exact |p|^2 is N/2^e
            s = max(0, -rexp, -iexp)
            a, b = rman << (rexp + s), iman << (iexp + s)
            vr, vi = _eval_gaussian_scaled(cs, a, b, 1 << s)
            N, e = vr * vr + vi * vi, 2 * deg * s
            if N == 0:
                rad, res = Fraction(0), (ZERO, ZERO)  # exact dyadic root
            else:
                # r = floor(2^P |p|), so |p| < (r + 1)/2^P, and the residual
                # enclosure at precision_bits is floor(2^p |p|) = r >> (P - p)
                r = isqrt((N << 2 * P) >> e)
                num, den, sh = deg * (r + 1), pman * ((1 << k) - 1) * lead, k - P - pexp
                rad = Fraction(num << sh, den) if sh >= 0 else Fraction(num, den << -sh)
                rp = r >> (P - precision_bits)
                res = (Fraction(rp, 1 << precision_bits), Fraction(rp + 1, 1 << precision_bits))
            out.append((Fraction(a, 1 << s), Fraction(b, 1 << s), rad, res))
        if _disks_disjoint(out):
            return out
    raise RootConvergenceError("simultaneous iteration failed to separate all roots")


def _disks_disjoint(disks) -> bool:
    # |c_i - c_j|^2 > (r_i + r_j)^2 for every pair, on integers: centers
    # scaled to one power of two 2^K, radius r = n/d, both sides times
    # (d_i d_j)^2 * 4^K.  A sweep on x tests only the pairs whose x-extents
    # overlap, each widened by ceil(r * 2^K); the others are disjoint
    K = max(c.denominator.bit_length() for re, im, _, _ in disks for c in (re, im)) - 1
    box = []
    for re, im, rad, _ in disks:
        x, y = (c.numerator << (K + 1 - c.denominator.bit_length()) for c in (re, im))
        w = -((-rad.numerator << K) // rad.denominator)
        box.append((x - w, x + w, x, y, rad.numerator, rad.denominator))
    box.sort()
    for i, (_, right, xi, yi, ni, di) in enumerate(box):
        for left, _, xj, yj, nj, dj in itertools.islice(box, i + 1, None):
            if left > right:
                break
            dx, dy, dd, rr = xi - xj, yi - yj, di * dj, ni * dj + nj * di
            if (dx * dx + dy * dy) * dd * dd <= (rr * rr) << (2 * K):
                return False
    return True


def complex_roots(p: IntPoly, precision_bits: int = 256) -> list[RootRecord]:
    """All complex roots by Aberth-Ehrlich simultaneous iteration.

    Each root carries a Weierstrass inclusion radius (every disk holds
    exactly one root), an exactly-evaluated residual, and a certified
    modulus.  Root count equals the degree, with multiplicity; multiple
    roots are resolved through the squarefree decomposition.
    """
    if p.is_zero() or p.degree < 1:
        raise ValueError("complex_roots requires a nonconstant polynomial")
    records: list[RootRecord] = []
    for factor, mult in yun_decomposition(p):
        if factor.degree < 1:
            continue
        cs = list(factor.coeffs)
        for re, im, rad, res in _certified_disks(cs, precision_bits):
            # classify realness rigorously: a disk clear of the axis is
            # certifiably nonreal; otherwise look for a sign change (or an
            # exact hit) on the real slice through the disk
            kind = "complex"
            value: object
            if abs(im) <= rad:
                if _eval_int_scaled(cs, re.numerator, re.denominator) == 0:
                    kind = "real"
                    rad = ZERO  # the disk's unique root is exactly re
                else:
                    bracket_lo, bracket_hi = re - rad, re + rad
                    slo = _sign(_eval_int_scaled(cs, bracket_lo.numerator, bracket_lo.denominator))
                    shi = _sign(_eval_int_scaled(cs, bracket_hi.numerator, bracket_hi.denominator))
                    if slo != 0 and shi != 0 and slo != shi:
                        kind = "real"
            prec = precision_bits
            if kind == "real":
                value = from_interval(re - rad, re + rad, prec)
                m2 = re * re
            else:
                value = (
                    BigFloat(re, prec, rad),
                    BigFloat(im, prec, rad),
                )
                m2 = re * re + im * im
            mlo, mhi = sqrt_interval(m2, prec)
            modulus = from_interval(max(ZERO, mlo - rad), mhi + rad, prec)
            records.append(
                RootRecord(
                    poly_id=None,
                    kind=kind,
                    value=value,
                    modulus=modulus,
                    digits=_digits(rad, precision_bits),
                    residual=from_interval(*res, prec),
                    multiplicity=mult,
                )
            )
    records.sort(key=_root_sort_key)
    return records


def _digits(rad: Fraction, precision_bits: int) -> int:
    # the largest dg <= precision_bits with 2*rad < 10^-dg, else 0:
    # estimated from bit lengths (1233/4096 ~ log10 2), then settled by
    # exact comparisons
    w, den, dg = 2 * rad.numerator, rad.denominator, precision_bits
    if w:
        dg = min(dg, max(0, (den.bit_length() - w.bit_length()) * 1233 >> 12))
        while dg and w * 10 ** dg >= den:
            dg -= 1
        while dg < precision_bits and w * 10 ** (dg + 1) < den:
            dg += 1
    return dg


def _root_sort_key(rec: RootRecord):
    if rec.kind == "real":
        return (rec.value.value, ZERO)
    return (rec.value[0].value, rec.value[1].value)


# ---------------------------------------------------------------------------
# complex scans


SQRT2_SQ = Fraction(2)
INV_SQRT2_SQ = Fraction(1, 2)


@dataclass(frozen=True)
class ComplexScanReport:
    """Nonreal coincidence roots for all pairs up to M, with modulus data."""

    max_index: int
    coprime_only: bool
    records: tuple[CoincidenceRecord, ...]
    boundary_upper: tuple[tuple[int, int], ...]  # pairs attaining modulus sqrt(2) exactly
    outside: tuple[tuple[int, int, str], ...]  # certified violations of the modulus range


def _sqrt2_quadratic_roots(d: IntPoly) -> list[tuple[int, Fraction, int]]:
    # exact roots of modulus sqrt(2): factors x^2 + a x + 2 with a^2 < 8,
    # irreducible, with roots -a/2 +- i sqrt(s), s = 2 - a^2/4.  Returns
    # (a, s, multiplicity of the factor in d) for each one dividing d.
    out = []
    for a in (-2, -1, 0, 1, 2):
        quad = IntPoly([2, a, 1])
        mult, rest = 0, d
        while True:
            try:
                rest = rest.div_exact(quad)
            except ExactDivisionError:
                break
            mult += 1
        if mult:
            out.append((a, 2 - Fraction(a * a, 4), mult))
    return out


def _attains_sqrt2(r: RootRecord, quad_roots) -> bool:
    """Exact proof that the root certified by ``r`` has modulus sqrt(2).

    It holds when the inclusion disk of ``r`` contains a root q of a factor
    x^2 + a x + 2 whose multiplicity in the difference equals r's: that
    irreducible factor then divides the squarefree (Yun) factor of that
    multiplicity, which owns the disk and has exactly one root in it, so
    the root is q.  With centre c, radius rad, q = (-a/2, sign(c_i) sqrt(s))
    and R = (q_r - c_r)^2 + s + c_i^2 - rad^2, q lies in the disk iff
    R <= 2 |c_i| sqrt(s), that is R <= 0 or R^2 <= 4 c_i^2 s.
    """
    re, im = r.value
    cr, ci, rad = re.value, im.value, re.error_bound
    for a, s, mult in quad_roots:
        if mult != r.multiplicity:
            continue
        R = (Fraction(-a, 2) - cr) ** 2 + s + ci * ci - rad * rad
        if R <= 0 or 4 * ci * ci * s >= R * R:
            return True
    return False


def _complex_scan_worker(args):
    m, n, precision_bits = args
    d = difference(m, n)
    if d.degree < 1:
        return CoincidenceRecord(m=m, n=n, roots=()), [], []
    roots = complex_roots(d, precision_bits)
    nonreal = tuple(r for r in roots if r.kind == "complex")
    boundary = []
    outside = []
    quad_roots = None
    for r in nonreal:
        m2lo = r.modulus.lo ** 2
        m2hi = r.modulus.hi ** 2
        if m2lo > INV_SQRT2_SQ and m2hi < SQRT2_SQ:
            continue
        if m2lo <= SQRT2_SQ <= m2hi:
            if quad_roots is None:
                quad_roots = _sqrt2_quadratic_roots(d)
            if _attains_sqrt2(r, quad_roots):
                boundary.append((m, n))
                continue
        if m2hi <= INV_SQRT2_SQ:
            outside.append((m, n, "at-or-below 1/sqrt(2)"))
        elif m2lo > SQRT2_SQ:
            outside.append((m, n, "above sqrt(2)"))
        else:
            outside.append((m, n, "unresolved boundary"))
    rec = CoincidenceRecord(m=m, n=n, roots=nonreal)
    return rec, boundary, outside


def scan_complex(
    M: int,
    coprime_only: bool = False,
    precision_bits: int = 256,
    jobs: int | None = None,
) -> ComplexScanReport:
    """Nonreal roots of every difference up to M with certified moduli.

    Roots whose modulus interval touches sqrt(2) are confirmed (or not)
    by exact quadratic division; anything certifiably outside
    (1/sqrt2, sqrt2] is reported as a candidate counterexample.
    """
    if M < 2:
        raise ValueError("scan_complex requires M >= 2")
    _warm_cyclotomic_cache(M)
    pairs = [
        (m, n, precision_bits)
        for m in range(1, M + 1)
        for n in range(m + 1, M + 1)
        if not coprime_only or gcd(m, n) == 1
    ]
    results = _parallel_map(_complex_scan_worker, pairs, jobs)
    records = []
    boundary: list[tuple[int, int]] = []
    outside: list[tuple[int, int, str]] = []
    for rec, b, o in results:
        records.append(rec)
        boundary.extend(b)
        outside.extend(o)
    return ComplexScanReport(
        max_index=M,
        coprime_only=coprime_only,
        records=tuple(records),
        boundary_upper=tuple(sorted(set(boundary))),
        outside=tuple(sorted(set(outside))),
    )


def quarter_lift_check(m: int, n: int, digits: int = 12) -> bool:
    """For odd m, n: every positive real root a of Phi_m - Phi_n lifts to
    i*sqrt(a) being a root of Phi_4m - Phi_4n, proved exactly.

    For odd k > 1, Phi_4k(x) = Phi_k(-x^2), so for m, n > 1 the check is
    that Phi_4m - Phi_4n is Phi_m - Phi_n composed with -x^2, coefficient
    for coefficient.  Phi_4(x) = -Phi_1(-x^2), so at a root a of
    Phi_1 - Phi_n the lifted difference takes -2 Phi_1(a) at i*sqrt(a),
    which vanishes only at a = 1, not a root for n > 1: the lift holds
    exactly when the difference has no positive root, counted by Sturm.
    ``digits`` is kept for callers and no longer used: nothing is rounded.
    """
    if m % 2 == 0 or n % 2 == 0:
        raise ValueError("quarter_lift_check requires odd indices")
    if m == n:
        raise ValueError("quarter_lift_check requires m != n")
    d = difference(m, n)
    if m == 1 or n == 1:
        return sturm_count(d, ZERO, None) == 0
    # x -> -x^2 sends c x^i to (-1)^i c x^(2i)
    lift = [c if j % 4 == 0 else -c for j, c in enumerate(d.compose_power(2).coeffs)]
    return difference(4 * m, 4 * n).coeffs == tuple(lift)
