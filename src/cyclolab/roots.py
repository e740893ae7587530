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
first value tells whether the point is a root and gives the brackets'
end values.  At -B and B it takes the chain's signs at
-+infinity from the leading terms, and at 0 the constant terms.
No real verdict, and no real bracket, depends on floating point.
One rule counts the roots in an interval (``_roots_in``) for the
window's exact path and ``refine_root(p, (lo, hi), digits)``, the one
door to a certified real root in a given interval: 0 or 1 Descartes sign
variation (``polycore._descartes_in``) settles the count, and any other
is read off a Sturm chain built at most once per polynomial.
A real bracket is one tuple (lo, hi, vlo, vhi) from where it is proved
(isolation, the near-miss search, ``refine_root``) to refinement, which
starts from p's scaled values vlo and vhi at its ends.  Refinement walks
the bisection grid on integers by quadratic interval refinement, returns
the bracket bisection would, and recovers rational roots exactly; past
the rational-root test a float Newton estimate only chooses the grid
point of its next step.  A real record's residual is |p| at the final
cell's ends, which refinement holds, and a Fraction is formed only for a
field a BigFloat stores.
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
from math import frexp

from .certified import BigFloat, ZERO, _from_bracket, _round_half_even
from .polycore import (
    IntPoly,
    _content,
    _descartes_in,
    _divmod_exact,
    _eval_int_scaled,
    _float_root,
    _gaussian_scale,
    _sub,
    _trim,
    _variations,
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
    sign = 1 if cs[-1] > 0 else -1
    # for k >= 2, lc(q) > 0, so each of q's Yun factors has lc > 0
    q = cs if k <= 1 else [sign * c for c in cs[k:]]
    factors = []
    if len(q) > 1:
        chain = _sturm_chain(q)
        if len(chain[-1]) == 1:
            factors = [(q, 1, chain)]
        else:
            factors = [(f, mult, None) for f, mult in _yun(chain)]
    if k <= 1:
        return factors
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


def _chain_at(chain, a: int, b: int) -> tuple[int, int]:
    # chain[0]'s scaled value b^deg p(a/b) at a point a/b in lowest terms
    # (b >= 1) and, when it is not 0, the chain's sign variations there;
    # at 0 each value is the constant term
    if not a:
        values = (cs[0] for cs in chain)
    else:
        values = (_eval_int_scaled(cs, a, b) for cs in chain)
    first = next(values)
    return (first, _variations([first, *values])) if first else (0, 0)


def _variations_at(chain, x: Fraction | None, side: int) -> int:
    # the chain's sign variations at x, not a root of chain[0], or at side *
    # infinity (side = +-1) when x is None: there each element has the sign
    # of its leading coefficient, times (-1)^deg at -infinity
    if x is None:
        return _variations([cs[-1] if side > 0 or len(cs) % 2 else -cs[-1] for cs in chain])
    return _chain_at(chain, x.numerator, x.denominator)[1]


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
    # hi not roots of p; an infinite end is None
    return _variations_at(chain, lo, -1) - _variations_at(chain, hi, 1)


def _roots_in(cs, lo, hi, chain=None) -> tuple[int, list | None]:
    # (distinct roots of p in (lo, hi), the chain that counted them), lo
    # and hi not roots of p, an infinite end None as _descartes_in takes
    # it: 0 or 1 variation settles the count with no chain (None), and
    # otherwise p's Sturm chain counts, the one given or one built here
    count = _descartes_in(cs, lo, hi)
    if count <= 1:
        return count, None
    chain = chain or _sturm_chain(cs)
    return _count_on_chain(chain, lo, hi), chain


def sturm_count(p: IntPoly, lo: Fraction | None, hi: Fraction | None) -> int:
    """Exact number of distinct real roots of p in (lo, hi].

    ``None`` endpoints mean -infinity / +infinity.  Endpoints that happen
    to be roots are divided out of p exactly and re-accounted; the count
    is then read off the Sturm chain of what is left, which counts
    distinct roots whether or not it is squarefree.  At an infinite end
    each chain element has the sign of its leading term.
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


def isolate_real_roots(p: IntPoly) -> list[tuple[Fraction, Fraction]]:
    """Ascending disjoint intervals (lo, hi), one per distinct real root of p.

    Each open interval holds exactly one root of p and has no root at
    either end, so ``refine_root`` takes it as it is.  One Sturm chain of
    p serves twice: its last element is gcd(p, p'), so one exact division
    gives the squarefree part, which changes sign on each interval, and
    its variation counts at non-roots are distinct-root counts whether or
    not p is squarefree.  Every degree takes the same exact route:
    bisection of the Cauchy bound [-B, B] of that part, each piece counted
    by the chain.
    """
    if p.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    cs = _primitive(list(p.coeffs))
    if len(cs) <= 1:
        return []
    return [(lo, hi) for lo, hi, _, _ in _isolate_chain(_sturm_chain(cs))[1]]


def _isolate_chain(chain) -> tuple[list[int], list[tuple]]:
    # the squarefree part cs of the primitive p a Sturm chain starts with,
    # and one bracket (lo, hi, vlo, vhi) per distinct real root of p, in
    # ascending order: cs's scaled values at lo and hi, each over its own
    # end's denominator, of opposite signs.  Bisection evaluates the chain
    # once at each point (x, chain[0]'s value, its variations): p and cs
    # share roots.  The Cauchy bounds -B and B take the variations at
    # -+infinity, with no value, as no root lies beyond them
    cs = _squarefree_of(chain)
    out: list[tuple] = []

    def at(x: Fraction) -> tuple:
        return (x, *_chain_at(chain, x.numerator, x.denominator))

    def bracket(lo: tuple, hi: tuple) -> None:
        # cs's own values where p is not squarefree, and at -B and B
        vlo, vhi = (_eval_int_scaled(cs, x.numerator, x.denominator) if v is None or cs is not chain[0] else v
                    for x, v, _ in (lo, hi))
        if _sign(vlo) * _sign(vhi) != -1:
            raise AssertionError("isolating interval lost its sign change")
        out.append((lo[0], hi[0], vlo, vhi))

    def recurse(lo: tuple, hi: tuple) -> None:
        count = lo[2] - hi[2]
        if count == 1:
            bracket(lo, hi)
        if count <= 1:
            return
        a, b = lo[0], hi[0]
        l = r = at((a + b) / 2)
        if l[1] == 0:
            # exact root at the midpoint; fence it off with a clean gap
            mid, delta = l[0], (b - a) / 4
            while True:
                l = at(mid - delta)
                if l[1]:
                    r = at(mid + delta)
                    if r[1] and l[2] - r[2] == 1:
                        break
                delta /= 2
            bracket(l, r)
        recurse(lo, l)
        recurse(r, hi)

    B = _cauchy_bound(cs)
    recurse((Fraction(-B), None, _variations_at(chain, None, -1)), (Fraction(B), None, _variations_at(chain, None, 1)))
    return cs, sorted(out)


def _first_level(a: int, den: int) -> int:
    # the least k >= 0 with a < den * 2^k
    if a < den:
        return 0
    k = a.bit_length() - den.bit_length()
    return k + (a >= den << k)


def _qir_cell(cs, lo: int, w: int, den: int, cell: tuple, K: int, guess: tuple | None = None) -> tuple | Fraction:
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
    bisection step.  A ``guess`` (u, v) is the first step's predictor in
    place of the secant: the grid point nearest u/v.
    Returns the cell of level K, or the root itself when an evaluated
    grid point is one.
    """
    deg = len(cs) - 1
    k, j, flo, fhi, g = cell
    slo = _sign(flo)
    while k < K:
        g = min(g, K - k)
        n = 1 << g
        base, d = (lo << k + g) + (j << g) * w, den << k + g
        if guess:  # the grid point nearest u/v
            (u, v), guess = guess, None
            m = (2 * (u * d - base * v) + w * v) // (2 * w * v)
        else:  # the grid point nearest the secant root
            a, b = abs(flo), abs(fhi)
            m = (2 * a * n + a + b) // (2 * (a + b))
        m = min(max(m, 1), n - 1)
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


def refine_root(p: IntPoly, interval: tuple, digits: int) -> BigFloat:
    """The one root of p in the open interval (lo, hi), below 10^-digits.

    ``interval`` is a pair (lo, hi) of ints or Fractions.  ValueError
    refuses ``digits < 1``, ``lo >= hi``, an end that is a root of p, and
    any count of distinct roots in (lo, hi) but 1 (``_roots_in``'s; a
    Sturm chain it builds gives the squarefree part refined instead of p).
    The result is the one plain bisection of (lo, hi) returns, reached in
    far fewer exact evaluations, and it rounds stably at ``digits``
    fractional digits.  A rational root is recovered exactly (error bound
    0): each rational root of p is a multiple of 1/L, L = |lc(p)|, so once
    bisection's bracket is narrower than 1/L its one candidate multiple is
    tested exactly, and no interval is returned before that test.

    The cells of bisection from (lo, hi) form a dyadic grid, and the levels
    where bisection tests the candidate (kt, narrower than 1/L) and first
    checks the rounding (K, narrower than 10^-digits too) are known up
    front.  Quadratic interval refinement (``_qir_cell``) walks the grid
    to kt and then to K, each cell it accepts proved by exact integer
    signs at its ends.  The root is unique in (lo, hi) and lies strictly
    inside the cell reached at a level, which is therefore bisection's
    cell there, and no grid point of that level or above, so no earlier
    midpoint, is a root.  Past K, as bisection does, the walk goes down
    one level at a time until the bracket rounds.  An evaluated grid
    point that is a root is returned exactly, as bisection returns it: it
    meets that point as a midpoint, unless the candidate test finds the
    same root first.

    Once the candidate test has failed, the root is irrational, no grid
    point is a root, and the result is the one cell of the first level
    from K on that rounds, whatever path leads there.  A float Newton
    estimate (``polycore._float_root``) then places QIR's next step: its
    nearest grid point predicts the cell at K at once, or at the level
    about 2^-50 |x| wide when K is finer.  Exact signs accept or reject
    that cell as they do any other, and a rejected guess only halves the
    step.
    """
    if digits < 1:
        raise ValueError("digits must be positive")
    lo, hi = map(Fraction, interval)
    if not lo < hi:
        raise ValueError(f"interval ({lo}, {hi}) must have lo < hi")
    cs = list(p.coeffs)
    ends = [_eval_int_scaled(cs, x.numerator, x.denominator) for x in (lo, hi)]
    if not all(ends):
        raise ValueError(f"the ends of interval ({lo}, {hi}) must not be roots of p")
    count, chain = _roots_in(cs, lo, hi)
    if count != 1:
        raise ValueError(f"interval ({lo}, {hi}) holds {count} roots of p, need exactly 1")
    sf = _squarefree_of(chain) if chain else cs
    if sf != cs:
        cs, ends = sf, [_eval_int_scaled(sf, x.numerator, x.denominator) for x in (lo, hi)]
    return _refine(cs, (lo, hi, *ends), digits)[0]


def _refine(cs, bracket: tuple, digits: int) -> tuple[BigFloat, Fraction]:
    # refine_root from a bracket (lo, hi, vlo, vhi) of p = cs, each value
    # over its own end's denominator, and max |p| at the final cell's ends
    # (0 at an exact root): the residual
    if digits < 1:
        raise ValueError("digits must be positive")
    x, y, vx, vy = bracket
    lo, hi, den = _gaussian_scale(x, y)  # the bracket is (lo/den, hi/den)
    deg = len(cs) - 1
    flo, fhi = vx * (den // x.denominator) ** deg, vy * (den // y.denominator) ** deg
    lead, scale = abs(cs[-1]), 10 ** digits
    w = hi - lo
    kt = _first_level(w * lead, den)
    cell = _qir_cell(cs, lo, w, den, (0, 0, flo, fhi, 1), kt)
    if isinstance(cell, Fraction):
        return BigFloat(cell), ZERO
    a, dt = (lo << kt) + cell[1] * w, den << kt
    c = -(-a * lead // dt)  # c/L, c = ceil(L * a/dt): the one multiple of 1/L left
    if a * lead < c * dt < (a + w) * lead and _eval_int_scaled(cs, c, lead) == 0:
        return BigFloat(Fraction(c, lead)), ZERO
    level = max(kt, _first_level(w * scale, den))
    x = _float_root(cs, a, a + w, dt, cell[2], cell[3])
    g = min(level, w.bit_length() - den.bit_length() + 50 - frexp(x)[1]) - kt if x else 0
    guess = None
    if g > 0:  # one step to K, or to the level about 2^-50 |x| wide, that x predicts
        cell, guess = cell[:4] + (g,), x.as_integer_ratio()
    while True:
        cell = _qir_cell(cs, lo, w, den, cell, level, guess)
        if isinstance(cell, Fraction):
            return BigFloat(cell), ZERO
        guess = None
        a, d = (lo << level) + cell[1] * w, den << level
        if _round_half_even(a * scale, d) == _round_half_even((a + w) * scale, d):
            return _from_bracket(a, a + w, d), Fraction(max(abs(cell[2]), abs(cell[3])), d ** deg)
        level += 1


# ---------------------------------------------------------------------------
# root records and coincidence scans


class RootRecord(Record):
    """One certified root of a polynomial."""

    __slots__ = ("kind",  # "real" | "complex"
                 "value",  # BigFloat, or (BigFloat, BigFloat) for complex
                 "modulus", "residual", "multiplicity")


class CoincidenceRecord(Record):
    """All certified roots of Phi_m - Phi_n requested by a scan."""

    __slots__ = ("m", "n", "roots", "max_abs_real",
                 "window_violations")  # indexes into roots
    _defaults = {"max_abs_real": None, "window_violations": ()}


def _real_root_record(cs, bracket: tuple, digits: int, mult: int) -> RootRecord:
    # residuals are |p| at the refined bracket's ends, p = cs the squarefree
    # factor that carries the root, as refinement leaves them.  The refined
    # bracket is (c -+ r)/den, and the modulus is the value itself, its
    # negation, or [0, max(|ends|)] when it straddles 0
    val, res = _refine(cs, bracket, digits)
    c, r, den = _gaussian_scale(val.value, val.error_bound)
    if c >= r:
        modulus = val
    elif c <= -r:
        modulus = BigFloat(-val.value, val.error_bound)
    else:
        modulus = _from_bracket(0, r + abs(c), den)
    return RootRecord(kind="real", value=val, modulus=modulus, residual=BigFloat(res), multiplicity=mult)


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
            factor, brackets = _isolate_chain(chain or _sturm_chain(f))
            records += [_real_root_record(factor, br, digits, mult) for br in brackets]
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
