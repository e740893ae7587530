"""Near-miss machinery: coincidence roots approaching 2 from prime triples,
and root families converging just above 1/2 in absolute value.

For primes p < q with r = pq - p - q also prime, Phi_pq - Phi_r has its
largest real root just below 2.  As q grows (p fixed) that root converges
to the largest root of x^(p+2) - 2x^(p+1) + 1, i.e. of psi_{p+1} where
psi_k(x) = x^k - x^(k-1) - ... - x - 1; the gap closes like 2^-q.

Note: the k-index matters.  The reference root used throughout the table
is the psi_{p+1} root; psi_{p-1} (whose root is far lower) is also
computable here so the two can be compared directly.
"""
from __future__ import annotations

from fractions import Fraction

from .arith import is_prime, primes_up_to, primorial, profile
from .certified import BigFloat, from_interval
from .polycore import IntPoly, _descartes_in, _eval_int_scaled, difference
from .record import Record
from .roots import _count_on_chain, _isolate_chain, _refine, _roots_in, _squarefree_of, _sturm_chain


def psi(k: int) -> IntPoly:
    """x^k - x^(k-1) - ... - x - 1."""
    if k < 1:
        raise ValueError("psi requires k >= 1")
    return IntPoly([-1] * k + [1])


def alpha_root(k: int, digits: int = 15) -> BigFloat:
    """The largest real root of psi_k, certified.

    psi_k(2) = 1 and psi_k'(2) = 2^k - 1, so the root sits near
    2 - 1/(2^k - 1).  Descartes' rule of signs proves (2, inf) empty and
    brackets the root alone in (0, 2); see ``_largest_real_root``.
    """
    if k < 2:
        raise ValueError("alpha_root requires k >= 2")
    return _largest_real_root(psi(k), digits)[0]


def reference_alpha(p: int, digits: int = 15) -> BigFloat:
    """The limit root for fixed p: largest root of psi_{p+1}."""
    return alpha_root(p + 1, digits)


def _top_bracket(cs) -> tuple | None:
    # a bracket (lo, hi, vlo, vhi) for the largest real root of p = cs, or
    # None.  Rightmost first, (2, inf) and then the bisection of (0, 2): each
    # piece passed over is proven empty (0 variations) and its left end, the
    # next piece's right end, no root, until a piece of (0, 2) shows 1
    # variation and its left end is no root: its one simple root changes
    # p's sign.  A root at or above 2, or complex roots there, give None
    stack = [(Fraction(0), Fraction(2)), (2, None)]  # (2, inf) with the integer end _descartes_in takes
    while stack:
        lo, hi = stack.pop()
        count = _descartes_in(cs, lo, hi)
        if count <= 1:
            vlo = _eval_int_scaled(cs, lo.numerator, lo.denominator)
            if count == 0:
                if not vlo:
                    return None
                vhi = vlo
                continue
            if vlo and hi is not None:
                return lo, hi, vlo, vhi
        if hi is None or hi - lo < Fraction(1, 1 << 64):
            return None  # a root above 2, or close or multiple roots: leave them to the fallback
        mid = (lo + hi) / 2
        stack += [(lo, mid), (mid, hi)]
    return None


def _largest_real_root(poly: IntPoly, digits: int) -> tuple[BigFloat, bool]:
    """The largest real root of poly, refined, and whether it fell back.

    Descartes route: a rightmost-first Descartes search from (2, inf)
    through the bisection of (0, 2) ends on a bracket with one variation
    (``_top_bracket``); the root is then refined on poly itself, from the
    values its bracket was proved with.  Otherwise the fallback builds the
    one Sturm chain of poly, isolates every real root on it, and refines
    the top bracket on the squarefree part read off that chain, after a
    count on it confirms no root above that bracket.
    """
    cs = list(poly.coeffs)
    top = _top_bracket(cs)
    if top is not None:
        return _refine(cs, top, digits)[0], False
    chain = _sturm_chain(cs)
    sf, brackets = _isolate_chain(chain)
    if not brackets:
        raise ValueError("polynomial has no real roots")
    if _count_on_chain(chain, brackets[-1][1], None):
        raise AssertionError("isolation missed a root above the top bracket")
    return _refine(sf, brackets[-1], digits)[0], True


def find_triples(p: int, q_max: int) -> list[tuple[int, int]]:
    """All (q, r) with q prime in (p, q_max], r = pq - p - q prime."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    out = []
    for q in primes_up_to(q_max):
        if q <= p:
            continue
        r = p * q - p - q
        if is_prime(r):
            out.append((q, r))
    return out


class DeltaDecomposition(Record):
    """Phi_pq - Phi_r split into a dominant block and a small perturbation.

    main is psi_{p-1}(x) * x^(phi(pq) - phi(p)); delta is the exact rest,
    with deg(delta) <= phi(pq) - p and coefficients in {-2, -1, 0, 1}.
    """

    __slots__ = ("p", "q", "main", "delta")


def delta_decompose(p: int, q: int) -> DeltaDecomposition:
    r = _triple_r(p, q)
    d = difference(p * q, r)
    phi_pq = profile(p * q).phi
    phi_p = p - 1
    main = psi(p - 1).shift(phi_pq - phi_p)
    delta = d - main
    if delta.degree > phi_pq - p:
        raise AssertionError("perturbation degree bound failed")
    if any(c < -2 or c > 1 for c in delta.coeffs):
        raise AssertionError("perturbation coefficient bound failed")
    return DeltaDecomposition(p=p, q=q, main=main, delta=delta)


def _triple_r(p: int, q: int) -> int:
    if not is_prime(p) or not is_prime(q) or not p < q:
        raise ValueError("need primes p < q")
    r = p * q - p - q
    if not is_prime(r):
        raise ValueError(f"pq - p - q = {r} is not prime; not a valid triple")
    return r


def near_miss_root(p: int, q: int, digits: int = 15) -> BigFloat:
    """The largest real root of Phi_pq - Phi_r, certified and refined."""
    r = _triple_r(p, q)
    return _largest_real_root(difference(p * q, r), digits)[0]


class TripleRecord(Record):
    """One row of the near-miss table."""

    __slots__ = ("p", "q", "r", "beta", "alpha", "inv_gap", "scaled_gap")


TABLE_ROWS = [(3, 5), (3, 7), (3, 11), (3, 13), (5, 7), (5, 13), (5, 19), (7, 11), (7, 13), (7, 19)]


def table1(rows: list[tuple[int, int]] | None = None, digits: int = 15) -> list[TripleRecord]:
    """Near-miss table: for each triple, the root beta, the reference
    alpha, and the inverse gaps (alpha - beta)^-1 and 1/(2^q (alpha - beta)).

    Internal precision is pushed well past ``digits``, and past the about
    0.30 q digits that alpha - beta ~ 2^-q cancels, so the derived columns
    are certified at their printed precision, long rows included.
    """
    if rows is None:
        rows = list(TABLE_ROWS)
    out = []
    for p, q in rows:
        r = _triple_r(p, q)
        work = max(digits + 12, 26, digits + (31 * q) // 100 + 6)
        beta = near_miss_root(p, q, work)
        alpha = reference_alpha(p, work)
        gap_lo = alpha.lo - beta.hi
        gap_hi = alpha.hi - beta.lo
        if gap_lo <= 0:
            raise AssertionError("reference root must exceed the near-miss root")
        inv = from_interval(1 / gap_hi, 1 / gap_lo)
        scaled = from_interval(inv.lo / 2 ** q, inv.hi / 2 ** q)
        out.append(
            TripleRecord(p=p, q=q, r=r, beta=beta, alpha=alpha, inv_gap=inv, scaled_gap=scaled)
        )
    return out


# ---------------------------------------------------------------------------
# families converging near +-1/2 limit points


def limit_constants(digits: int = 13) -> tuple[BigFloat, BigFloat]:
    """(rho, sigma): the negative root of x^3 + x^2 + 2x + 1 and the (0,1)
    root of Phi_30 - Phi_4."""
    rho, _ = _root_in_bracket(IntPoly([1, 2, 1, 1]), Fraction(-1), Fraction(0), digits)
    sigma, _ = _root_in_bracket(difference(30, 4), Fraction(1, 4), Fraction(3, 4), digits)
    return rho, sigma


def _root_in_bracket(poly: IntPoly, lo: Fraction, hi: Fraction, digits: int) -> tuple[BigFloat, bool]:
    # the one root of poly in (lo, hi), refined, and whether it fell back:
    # one Descartes variation certifies the bracket for poly itself, and
    # otherwise the Sturm chain that counts the root gives the squarefree
    # part it is refined on
    cs = list(poly.coeffs)
    ends = [_eval_int_scaled(cs, x.numerator, x.denominator) for x in (lo, hi)]
    if not all(ends):
        raise ValueError("bracket endpoints must not be roots")
    count, chain = _roots_in(cs, lo, hi)
    if count != 1:
        raise ValueError(f"bracket ({float(lo)}, {float(hi)}) holds {count} roots, need exactly 1")
    sf = _squarefree_of(chain) if chain else cs
    if sf != cs:
        cs, ends = sf, [_eval_int_scaled(sf, x.numerator, x.denominator) for x in (lo, hi)]
    return _refine(cs, (lo, hi, *ends), digits)[0], chain is not None


LIMIT_FAMILIES = ("three_p", "six_p", "thirty_p", "primorial")

_RHO_BRACKET = (Fraction(-13, 20), Fraction(-1, 2))
_SIGMA_BRACKET = (Fraction(2, 5), Fraction(3, 5))


def limit_family_root(family: str, param: int, digits: int = 14) -> BigFloat:
    """The family member's root near its limit constant.

    three_p(p): root of Phi_3p - Phi_4 near rho (negative).
    six_p(p): root of Phi_6p - Phi_4 near -rho.
    thirty_p(p): root of Phi_30p - Phi_4p near sigma.
    primorial(k): root of Phi_m - Phi_n, m the product of the first k >= 3
    primes, n = 2m/15, near 0.52.

    Raises if the parameter is invalid or the family root has not yet
    entered the standard bracket around the limit.
    """
    return _root_in_bracket(*_family_bracket(family, param), digits)[0]


def _family_bracket(family: str, param: int) -> tuple[IntPoly, Fraction, Fraction]:
    # the family member's polynomial and the standard bracket around its limit
    if family not in LIMIT_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family == "primorial":
        if param < 3:
            raise ValueError("primorial family requires k >= 3")
        m = primorial(param)
        return difference(m, 2 * m // 15), *_SIGMA_BRACKET
    if not is_prime(param):
        raise ValueError("family parameter must be prime")
    if family == "three_p":
        return difference(3 * param, 4), *_RHO_BRACKET
    if family == "six_p":
        return difference(6 * param, 4), -_RHO_BRACKET[1], -_RHO_BRACKET[0]
    return difference(30 * param, 4 * param), *_SIGMA_BRACKET
