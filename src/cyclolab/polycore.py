"""Dense exact polynomials over arbitrary-precision integers.

Coefficients are stored lowest power first; the zero polynomial is the
empty tuple.  Both the coefficients and the exact values of the n-th
cyclotomic polynomial come from the Moebius product over the divisors of
the squarefree radical r = rad(n), with q = n/r:

    Phi_n(x) = prod_{e | r} (x^(eq) - 1)^mu(r/e).

Coefficients: Phi_r is that product expanded as a power series to degree
phi(r), one linear pass per divisor (Arnold & Monagan, "Calculating
cyclotomic polynomials", Math. Comp. 80, 2011), and the substitution
x -> x^q lifts it to Phi_n.  Homogeneous values b^phi(n) * Phi_n(a/b)
need no coefficients: the product is taken on the integers a^(eq) - b^(eq)
and divided out exactly once, and |d^phi(n) * Phi_n((a+bi)/d)|^2 likewise
on the Gaussian norms of (a+bi)^(eq) - d^(eq).  The exponents eq and their
signs are cached per index.

Evaluation of a polynomial is exact, one integer Horner kernel per kind
of point: real (b^deg * p(a/b), behind integer and rational values) and
Gaussian (d^deg * p((a+bi)/d)), each divided out once at the end.

Every coefficient transform is one packed evaluation and one digit
decoding.  ``_packed(cs, a, b)`` is the homogeneous value b^deg * p(a/b),
taken by halves, lo * b^len(hi) + hi * a^len(lo) with the powers shared
(von zur Gathen & Gerhard, "Fast algorithms for Taylor shifts and certain
difference equations", ISSAC 1997): ``_eval_int_scaled`` on blocks of
PACKED_BLOCK coefficients, then neighbouring blocks joined pairwise, so
the large products are balanced and CPython's Karatsuba multiplication
does the work.  When a and b are linear in Y = 2^(8 nb), the value is a
polynomial in Y, and ``_unpack`` reads its coefficients back as signed
base-Y digits once nb bytes hold each of them:

- Taylor shifts, p(x + s) at a = Y + s, b = 1 (``_packed_shift``);
- Descartes brackets: for the interval (u/q, w/q), the polynomial
  (q + q t)^d * p((w + u t)/(q + q t)) at t = Y, that is a = w + u Y and
  b = q + q Y;
- products, by Kronecker substitution: the product of two values at Y
  (``IntPoly.__mul__``).

``_descartes_in`` is the one count of Descartes' sign variations on an
interval, bounded (a bracket) or with one infinite end (a Taylor shift).
``_packed_root_free`` decides from a packed Taylor shift itself, with no
unpacking, whether the constant term is nonzero and the signs never
change, which proves no root x >= s: the root-window certificate applies
it to differences of cached per-index values.
"""
from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, isfinite, lcm, prod
from operator import add, sub

from .arith import factorize, profile
from .record import Record

PACKED_BLOCK = 16  # _packed evaluates blocks of this many coefficients by Horner


class ExactDivisionError(ArithmeticError):
    """Raised when div_exact is asked for a quotient that does not exist."""


# ---------------------------------------------------------------------------
# list-level kernels (private; IntPoly wraps these)


def _trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _sub(a, b):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _trim(out)


def _divmod_exact(num, den):
    # exact long division in Z[x]; raises if any step fails
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if not num:
        return [], []
    dn = len(den) - 1
    if len(num) - 1 < dn:
        raise ExactDivisionError("degree of divisor exceeds dividend")
    lead = den[-1]
    r = list(num)
    q = [0] * (len(num) - dn)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + dn]
        if c:
            cc, rem = divmod(c, lead)
            if rem:
                raise ExactDivisionError("leading coefficient does not divide")
            q[i] = cc
            for j in range(dn):
                dj = den[j]
                if dj:
                    r[i + j] -= cc * dj
            r[i + dn] = 0
    return q, _trim(r)


def _digit_bytes(bound: int) -> int:
    # bytes per base-2^(8 nb) digit that hold any signed digit of absolute
    # value at most bound: 2^(8 nb - 1) exceeds it, sign bit included
    return (bound.bit_length() + 8) // 8


def _packed(cs, a: int, b: int = 1) -> int:
    # b^(n-1) p(a/b) for n = len(cs).  By halves: blocks of PACKED_BLOCK by
    # _eval_int_scaled, then neighbours joined as lo b^len(hi) + hi a^len(lo),
    # every block but the top one k long, k doubling each round (an odd
    # block out moves up as it is)
    k = PACKED_BLOCK
    vals = [_eval_int_scaled(cs[i:i + k], a, b) for i in range(0, len(cs), k)] or [0]
    btop = b ** (len(cs) - k * (len(vals) - 1))  # b^len(top block)
    ak = bk = 0
    while len(vals) > 1:
        ak = ak * ak if ak else a ** k
        if len(vals) > 2:  # a pair below the top one needs b^k
            bk = bk * bk if bk else b ** k
        if len(vals) & 1:
            last = vals.pop()
        else:
            hi = vals.pop()
            last = vals.pop() * btop + hi * ak
            if vals:  # another round follows
                btop *= bk
        vals = [lo * bk + hi * ak for lo, hi in zip(vals[::2], vals[1::2])] + [last]
        k *= 2
    return vals[0]


def _unpack(v: int, nb: int, n: int) -> list[int]:
    # the n signed base-2^(8 nb) digits of v, lowest first, each below
    # 2^(8 nb - 1) in absolute value: unbiased after one to_bytes
    raw = (v + _digit_bias(nb, n)).to_bytes(nb * n, "little")
    half = 1 << (8 * nb - 1)
    return [int.from_bytes(raw[i:i + nb], "little") - half for i in range(0, nb * n, nb)]


@lru_cache(maxsize=None)
def _digit_bias(nb: int, n: int) -> int:
    # 2^(8 nb - 1) in each of n digits: added to n signed digits it makes
    # them unsigned, with no carry, and a digit is >= 0 exactly when its
    # top byte keeps its high bit.  Cached: few widths and lengths recur
    return int.from_bytes((bytes(nb - 1) + b"\x80") * n, "little")


def _packed_shift(cs, s: int) -> tuple[int, int]:
    # (p(2^(8 nb) + s), nb): each coefficient of p(x + s) is at most
    # ||p||_1 * (1 + |s|)^deg in absolute value, so nb bytes above that
    # bound hold them all as signed digits, which _unpack reads back
    nb = _digit_bytes(sum(map(abs, cs)) * (1 + abs(s)) ** max(0, len(cs) - 1))
    return _packed(cs, (1 << 8 * nb) + s), nb


def _packed_root_free(v: int, nb: int, n: int) -> bool:
    """Whether the polynomial packed in v has no root t >= 0 by Descartes.

    v holds n signed base-2^(8 nb) digits, each below 2^(8 nb - 1) in
    absolute value: the coefficients of a polynomial in t, read at
    t = 2^(8 nb).  True exactly when the constant term is nonzero and the
    nonzero coefficients never change sign, decided without unpacking:
    v mod 2^(8 nb) is the constant term; v is negated if negative, so that
    its top digit is positive; then every biased digit must keep the high
    bit of its top byte.
    """
    if not v & ((1 << 8 * nb) - 1):
        return False
    raw = (abs(v) + _digit_bias(nb, n)).to_bytes(nb * n, "little")
    return min(raw[nb - 1::nb]) >= 0x80


def _variations(cs) -> int:
    # sign changes along a coefficient list, zeros skipped
    signs = [c > 0 for c in cs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _descartes_in(cs, lo, hi) -> int:
    """Descartes' sign variations of p on the open interval (lo, hi).

    By Descartes' rule of signs the count bounds the number of roots of p
    in (lo, hi) from above and matches it in parity: 0 proves the interval
    holds no root, 1 that it holds exactly one root, and that this root is
    simple.  A bounded interval is mapped to t > 0 by x = (lo + hi t)/(1 + t);
    with lo = a/q and hi = b/q the count is that of the reversal times q^d,
    Q(t) = (q + q t)^d * p((b + a t)/(q + q t)), whose coefficients are at
    most ||p||_1 * max(|a| + |b|, 2q)^d in absolute value.  With nb bytes
    above that bound and Y = 2^(8 nb), Q(Y) is one packed evaluation whose
    signed base-Y digits are those coefficients.  An infinite end is None,
    the other end then an integer: (s, inf) counts the Taylor shift
    p(s + t) (``_packed_shift``), and (-inf, s) that of p(-x) at -s.
    """
    if lo is None:  # x < hi exactly when -x > -hi
        return _descartes_in([-c if i % 2 else c for i, c in enumerate(cs)], -hi, None)
    if hi is None:
        return _variations(_unpack(*_packed_shift(cs, lo), len(cs)))
    a, b, q = _gaussian_scale(lo, hi)  # lo = a/q, hi = b/q
    d = len(cs) - 1
    nb = _digit_bytes(sum(map(abs, cs)) * max(abs(a) + abs(b), 2 * q) ** d)
    y = 1 << 8 * nb
    return _variations(_unpack(_packed(cs, b + a * y, q + q * y), nb, d + 1))


def _content(cs) -> int:
    g = 0
    for c in cs:
        if c:
            g = gcd(g, c)
            if g == 1:
                return 1
    return g or 1


def _eval_gaussian_scaled(cs, a: int, b: int, d: int) -> tuple[int, int]:
    # d^deg * p((a + b*i)/d) as an exact Gaussian integer (d >= 1)
    if not cs:
        return 0, 0
    vr, vi = cs[-1], 0
    dd = 1
    for i in range(len(cs) - 2, -1, -1):
        dd *= d
        vr, vi = vr * a - vi * b + cs[i] * dd, vr * b + vi * a
    return vr, vi


def _gaussian_scale(re: Fraction, im: Fraction) -> tuple[int, int, int]:
    # (a, b, d) with re + im*i = (a + b*i)/d and d the lcm of the denominators
    d = lcm(re.denominator, im.denominator)
    return re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d


def _eval_gaussian(cs, re: Fraction, im: Fraction) -> tuple[Fraction, Fraction]:
    # exact p(re + im*i) as (real part, imaginary part)
    a, b, d = _gaussian_scale(re, im)
    vr, vi = _eval_gaussian_scaled(cs, a, b, d)
    dd = d ** max(0, len(cs) - 1)
    return Fraction(vr, dd), Fraction(vi, dd)


def _eval_int_scaled(cs, a: int, b: int) -> int:
    # b^deg * p(a/b) as an exact integer (b >= 1)
    if not cs:
        return 0
    v = cs[-1]
    if b == 1:  # an integer point needs no powers of b
        for c in cs[-2::-1]:
            v = v * a + c
        return v
    if not b & (b - 1):  # b = 2^s: each power of b is a shift
        s = b.bit_length() - 1
        sh = 0
        for c in cs[-2::-1]:
            sh += s
            v = v * a + (c << sh)
        return v
    bb = 1
    for c in cs[-2::-1]:
        bb *= b
        v = v * a + c * bb
    return v


def _float_root(cs, lo: int, hi: int, d: int, flo: int, fhi: int) -> float | None:
    """A float estimate of the one root of p in (lo/d, hi/d), or None.

    flo and fhi are p's scaled values at the ends, of opposite signs.
    Newton's method on float coefficients starts at the secant through
    them and stays inside the float bracket, which each iterate's float
    sign narrows; a step that would leave the bracket, or that is not
    half the one before, bisects it instead.  The estimate only predicts
    where the root is and proves nothing.  Overflow, or no Newton step
    below 2^-50 |x| within 100 iterations, gives None.
    """
    try:
        fcs = [float(c) for c in reversed(cs)]
        a, b = lo / d, hi / d
        x = a + (b - a) * (flo / (flo - fhi))
    except OverflowError:
        return None
    up = flo < 0  # p rises through the root
    step = b - a
    for _ in range(100):
        v = dv = 0.0
        for c in fcs:
            dv = dv * x + v
            v = v * x + c
        if not (isfinite(v) and isfinite(dv)):
            return None
        if (v < 0) == up:
            a = x
        else:
            b = x
        dx = v / dv if dv else b - a
        if abs(dx) <= abs(x) * 2 ** -50:
            return x - dx
        nx = x - dx
        if not (a < nx < b and 2 * abs(dx) <= step):
            nx = (a + b) / 2
        step = abs(nx - x)
        x = nx
    return None


def _eval_fraction(cs, x: Fraction) -> Fraction:
    # the scaled integer Horner value b^d * p(a/b), divided by b^d once
    return Fraction(_eval_int_scaled(cs, x.numerator, x.denominator), x.denominator ** max(0, len(cs) - 1))


class IntPoly(Record):
    """Immutable dense integer polynomial, lowest power first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other: "IntPoly") -> "IntPoly":
        return IntPoly(_add(list(self.coeffs), list(other.coeffs)))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return IntPoly(_sub(list(self.coeffs), list(other.coeffs)))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        # Kronecker substitution: every product coefficient is at most
        # ||a||_1 * ||b||_1 in absolute value, so the product of the values
        # at Y = 2^(8 nb) holds them as signed digits
        nb = _digit_bytes(sum(map(abs, a)) * sum(map(abs, b)))
        y = 1 << 8 * nb
        return IntPoly(_unpack(_packed(a, y) * _packed(b, y), nb, len(a) + len(b) - 1))

    def div_exact(self, other: "IntPoly") -> "IntPoly":
        """Exact quotient self / other in Z[x]; ExactDivisionError otherwise."""
        q, r = _divmod_exact(list(self.coeffs), list(other.coeffs))
        if r:
            raise ExactDivisionError("division leaves a remainder")
        return IntPoly(q)

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def compose_power(self, k: int) -> "IntPoly":
        """Substitute x -> x^k."""
        if k < 1:
            raise ValueError("compose_power requires k >= 1")
        if k == 1 or not self.coeffs:
            return self
        out = [0] * ((len(self.coeffs) - 1) * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return IntPoly(out)

    def shift(self, k: int) -> "IntPoly":
        """Multiply by x^k."""
        if not self.coeffs:
            return self
        return IntPoly([0] * k + list(self.coeffs))

    def __call__(self, x):
        if isinstance(x, int):
            return _eval_int_scaled(self.coeffs, x, 1)
        return _eval_fraction(self.coeffs, Fraction(x))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                body = xs if mag == 1 else f"{mag}{xs}"
            parts.append(f"{sign}{body}" if not parts else f" {sign} {body}")
        return "".join(parts)


# ---------------------------------------------------------------------------
# cyclotomic construction


def _moebius_divisors(primes) -> list[tuple[int, int]]:
    # (e, mu(r/e)) for every divisor e of the squarefree r = prod(primes)
    out = [(1, 1)]
    for p in primes:
        out = [(e, -mu) for e, mu in out] + [(e * p, mu) for e, mu in out]
    return out


def _product_series(primes, top: int) -> list[int]:
    # prod_{d | r} (1 - x^d)^mu(r/d), r = prod(primes), as a power series to
    # degree top; a factor with d > top is 1 there.  Each multiplication by
    # 1 - x^d is one pass subtracting the series shifted by d, each division
    # one running sum with stride d.  The multiplications go first: the
    # intermediate series is then the product times the factors still to
    # divide out, with small coefficients.
    cs = [1] + [0] * top
    factors = [(d, mu) for d, mu in _moebius_divisors(primes) if d <= top]
    for d, mu in factors:
        if mu > 0:
            cs[d:] = map(sub, cs[d:], cs)
    for d, mu in factors:
        if mu < 0 and d * d <= top:  # few long residue classes
            for r in range(d):
                cs[r::d] = accumulate(cs[r::d])
        elif mu < 0:  # few long blocks, each adding the block before it
            for i in range(d, top + 1, d):
                cs[i:i + d] = map(add, cs[i:i + d], cs[i - d:i])
    return cs


@lru_cache(maxsize=None)
def _cyclotomic_squarefree(rad: int) -> tuple[int, ...]:
    # rad is squarefree.  For rad > 1 the mu(rad/d) sum to 0, so the signs of
    # the factors x^d - 1 cancel and Phi_rad is the product series
    # prod_{d | rad} (1 - x^d)^mu(rad/d) to degree phi(rad)
    if rad == 1:
        return (-1, 1)
    primes = [p for p, _ in factorize(rad).factors]
    return tuple(_product_series(primes, prod(p - 1 for p in primes)))


def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, exact coefficients."""
    if n < 1:
        raise ValueError("cyclotomic requires n >= 1")
    prof = profile(n)
    base = IntPoly(_cyclotomic_squarefree(prof.rad))
    return base.compose_power(prof.qpart) if prof.qpart > 1 else base


def difference(m: int, n: int) -> IntPoly:
    """Phi_m - Phi_n."""
    if m == n:
        raise ValueError("difference requires m != n")
    return cyclotomic(m) - cyclotomic(n)


# ---------------------------------------------------------------------------
# evaluation


def eval_rational(p: IntPoly, r: Fraction | int) -> Fraction:
    """Exact value p(r)."""
    return _eval_fraction(p.coeffs, Fraction(r))


@lru_cache(maxsize=None)
def _moebius_exponents(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # the exponents k = e*q of the factors x^k - 1 of Phi_n, e | r = rad(n),
    # q = n/r: those with mu(r/e) = +1, then those with mu(r/e) = -1
    primes = [p for p, _ in factorize(n).factors]
    q = n // prod(primes)
    pairs = _moebius_divisors(primes)
    return tuple(e * q for e, mu in pairs if mu > 0), tuple(e * q for e, mu in pairs if mu < 0)


def eval_homogeneous_cyclotomic(n: int, a: int, b: int) -> int:
    """b^phi(n) * Phi_n(a/b) as an exact integer; requires gcd(a,b)=1, b>=1.

    No coefficients are built.  With r = rad(n) and q = n/r,

        b^phi(n) * Phi_n(a/b) = prod_{e | r} (a^(eq) - b^(eq))^mu(r/e),

    since the exponents e*q*mu(r/e) of b sum to phi(n): one integer product
    over the e with mu = +1, divided exactly by the one over mu = -1.  A
    factor vanishes only at a/b = 1 or -1, where x^k - 1 has the simple root
    x = a with derivative k*a; that factor is replaced by k*a and counted,
    and the value is 0 exactly when the numerator holds more of them.
    """
    if b < 1:
        raise ValueError("homogeneous evaluation requires b >= 1")
    if gcd(a, b) != 1:
        raise ValueError("homogeneous evaluation requires gcd(a, b) = 1")
    if n < 1:
        raise ValueError("cyclotomic requires n >= 1")
    zeros = 0
    parts = []
    for sign, ks in zip((1, -1), _moebius_exponents(n)):
        part = 1
        for k in ks:
            f = a ** k - b ** k
            if not f:
                f = k * a
                zeros += sign
            part *= f
        parts.append(part)
    if zeros > 0:
        return 0
    value, rem = divmod(*parts)
    if rem:
        raise AssertionError("cyclotomic value quotient must be exact")
    return value


def _norm_homogeneous_cyclotomic(n: int, a: int, b: int, d: int) -> int:
    # |d^phi(n) * Phi_n((a + b*i)/d)|^2 for d >= 1 and |a + b*i| > d, as the
    # Moebius product of the Gaussian norms N((a + b*i)^k - d^k), each
    # nonzero since |a + b*i|^k > d^k; one exact division at the end
    parts = []
    for ks in _moebius_exponents(n):
        part = 1
        for k in ks:
            re, im = _gaussian_pow(a, b, k)
            re -= d ** k
            part *= re * re + im * im
        parts.append(part)
    value, rem = divmod(*parts)
    if rem:
        raise AssertionError("cyclotomic norm quotient must be exact")
    return value


def _gaussian_pow(a: int, b: int, k: int) -> tuple[int, int]:
    # (a + b*i)^k by binary powering, k >= 0
    re, im = 1, 0
    while k:
        if k & 1:
            re, im = re * a - im * b, re * b + im * a
        k >>= 1
        if k:
            a, b = a * a - b * b, 2 * a * b
    return re, im


def eval_gaussian(p: IntPoly, re: Fraction, im: Fraction) -> tuple[Fraction, Fraction]:
    """Exact p(re + im*i) as a pair of rationals."""
    return _eval_gaussian(p.coeffs, re, im)


# ---------------------------------------------------------------------------
# serialization


def poly_to_json(p: IntPoly, n: int) -> str:
    return json.dumps({"n": n, "coeffs": [str(c) for c in p.coeffs]})
