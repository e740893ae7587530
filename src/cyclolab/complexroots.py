"""Certified complex roots, the complex modulus scan and quarter lifts.

Complex roots come from a simultaneous Aberth-Ehrlich iteration at
extended precision on ``binfloat``'s (mantissa, exponent) integer pairs,
bit for bit mpmath's libmp arithmetic, then every floating artifact is
re-certified exactly: Weierstrass inclusion disks, residuals and moduli
are all evaluated in rational arithmetic, and a root's modulus comes from
one integer square root of its dyadic centre's norm.  numpy (the seeds)
and ``binfloat`` serve only this path and are imported on its first call,
so a process that never asks for complex roots does not load them.
``quarter_lift_check`` proves the lift of positive real roots to the
imaginary axis as an exact polynomial identity.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, isqrt

from .certified import BigFloat, ZERO, _decimal_exponent, _from_bracket
from .polycore import ExactDivisionError, IntPoly, _eval_gaussian_scaled, _eval_int_scaled, _gaussian_scale, difference
from .record import Record
from .roots import (
    CoincidenceRecord,
    RootConvergenceError,
    RootRecord,
    _parallel_map,
    _sign,
    _warm_cyclotomic_cache,
    sturm_count,
    yun_decomposition,
)


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
    the residual |p(re + im*i)| as a BigFloat of width 2^-precision_bits.
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
                rad, res = Fraction(0), BigFloat(ZERO, precision_bits)  # exact dyadic root
            else:
                # r = floor(2^P |p|), so |p| < (r + 1)/2^P, and the residual
                # enclosure at precision_bits is floor(2^p |p|) = r >> (P - p)
                r = isqrt((N << 2 * P) >> e)
                num, den, sh = deg * (r + 1), pman * ((1 << k) - 1) * lead, k - P - pexp
                rad = Fraction(num << sh, den) if sh >= 0 else Fraction(num, den << -sh)
                rp = r >> (P - precision_bits)
                res = _from_bracket(rp, rp + 1, 1 << precision_bits, precision_bits)
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
                    c, r, den = _gaussian_scale(re, rad)  # the slice is [c - r, c + r]/den
                    slo, shi = (_sign(_eval_int_scaled(cs, x, den)) for x in (c - r, c + r))
                    if slo != 0 and shi != 0 and slo != shi:
                        kind = "real"
            prec = precision_bits
            if kind == "real":
                value, im = BigFloat(re, prec, rad), ZERO  # its centre is re alone
            else:
                value = (BigFloat(re, prec, rad), BigFloat(im, prec, rad))
            # |centre| lies in [q, q + 1]/2^prec (the point 0 at 0), q from one
            # integer square root of the centre's norm; the modulus widens
            # that by rad on each side, clamped at 0
            a, b, d = _gaussian_scale(re, im)
            q = isqrt(((a * a + b * b) << 2 * prec) // (d * d))
            rn, rd = rad.numerator << prec, rad.denominator
            modulus = _from_bracket(max(0, q * rd - rn), (q + (1 if a or b else 0)) * rd + rn, rd << prec, prec)
            records.append(
                RootRecord(
                    poly_id=None,
                    kind=kind,
                    value=value,
                    modulus=modulus,
                    digits=_digits(rad, precision_bits),
                    residual=res,
                    multiplicity=mult,
                )
            )
    records.sort(key=_root_sort_key)
    return records


def _digits(rad: Fraction, precision_bits: int) -> int:
    # the largest dg <= precision_bits with 2*rad < 10^-dg, else 0
    if not rad:
        return precision_bits
    return min(precision_bits, max(0, -1 - _decimal_exponent(2 * rad)))


def _root_sort_key(rec: RootRecord):
    if rec.kind == "real":
        return (rec.value.value, ZERO)
    return (rec.value[0].value, rec.value[1].value)


# ---------------------------------------------------------------------------
# complex scans


SQRT2_SQ = Fraction(2)
INV_SQRT2_SQ = Fraction(1, 2)


class ComplexScanReport(Record):
    """Nonreal coincidence roots for all pairs up to M, with modulus data."""

    __slots__ = ("max_index", "coprime_only", "records",
                 "boundary_upper",  # pairs attaining modulus sqrt(2) exactly
                 "outside")  # certified violations of the modulus range


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
    # one pair's nonreal roots, whether one has modulus sqrt(2), and why any lies outside
    m, n, precision_bits = args
    d = difference(m, n)
    if d.degree < 1:
        return CoincidenceRecord(m=m, n=n, roots=()), False, []
    roots = complex_roots(d, precision_bits)
    nonreal = tuple(r for r in roots if r.kind == "complex")
    attained = False
    outside = set()  # a nonreal root outside the range brings its conjugate along
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
                attained = True
                continue
        if m2hi <= INV_SQRT2_SQ:
            outside.add("at-or-below 1/sqrt(2)")
        elif m2lo > SQRT2_SQ:
            outside.add("above sqrt(2)")
        else:
            outside.add("unresolved boundary")
    return CoincidenceRecord(m=m, n=n, roots=nonreal), attained, sorted(outside)


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
    results = list(_parallel_map(_complex_scan_worker, pairs, jobs))
    # pairs come in (m, n) order, so both folds come out sorted
    return ComplexScanReport(
        max_index=M,
        coprime_only=coprime_only,
        records=tuple(rec for rec, _, _ in results),
        boundary_upper=tuple((rec.m, rec.n) for rec, attained, _ in results if attained),
        outside=tuple((rec.m, rec.n, why) for rec, _, reasons in results for why in reasons),
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
