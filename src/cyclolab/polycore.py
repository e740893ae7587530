"""Dense exact polynomials over arbitrary-precision integers.

Coefficients are stored lowest power first; the zero polynomial is the
empty tuple.  Construction of the n-th cyclotomic polynomial goes through
its squarefree radical: Phi_{mp}(x) = Phi_m(x^p) / Phi_m(x) for a new
prime p, then a power substitution x -> x^q lifts the radical to n.  Both
steps are exact integer computations.

Evaluation is exact, one evaluator per number type: rational, homogeneous
integer, and Gaussian (one integer Horner kernel on d^deg * p((a+bi)/d),
divided out once at the end).  The Taylor shift p(x + s) behind the
Descartes tests in ``roots`` is one packed-integer Horner evaluation.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .arith import factorize, profile

KARATSUBA_CUTOFF = 64  # schoolbook below this many coefficients


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


def _neg(a):
    return [-c for c in a]


def _sub(a, b):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _trim(out)


def _mul_school(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                if d:
                    out[i + j] += c * d
    return out


def _mul(a, b):
    if not a or not b:
        return []
    if min(len(a), len(b)) < KARATSUBA_CUTOFF:
        return _trim(_mul_school(a, b))
    m = min(len(a), len(b)) // 2
    a0, a1 = a[:m], a[m:]
    b0, b1 = b[:m], b[m:]
    z0 = _mul(a0, b0)
    z2 = _mul(a1, b1)
    z1 = _sub(_sub(_mul(_add(a0, a1), _add(b0, b1)), z0), z2)
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(z0):
        out[i] += c
    for i, c in enumerate(z1):
        out[i + m] += c
    for i, c in enumerate(z2):
        out[i + 2 * m] += c
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


def _taylor_shift(cs, s: int) -> list[int]:
    # coefficients of p(x + s), read off one packed integer: each is at most
    # ||p||_1 * (1 + |s|)^deg in absolute value, so with 2^(B-1) above that
    # bound they are the signed base-2^B digits of p(2^B + s); adding
    # 2^(B-1) to every digit makes them unsigned bytes for one to_bytes
    n = len(cs)
    if n <= 1:
        return list(cs)
    bound = sum(map(abs, cs)) * (1 + abs(s)) ** (n - 1)
    nb = (bound.bit_length() + 8) // 8  # bytes per digit, sign bit included
    y = (1 << (8 * nb)) + s
    v = 0
    for c in reversed(cs):
        v = v * y + c
    bias = int.from_bytes((bytes(nb - 1) + b"\x80") * n, "little")
    raw = (v + bias).to_bytes(nb * n, "little")
    half = 1 << (8 * nb - 1)
    return [int.from_bytes(raw[i:i + nb], "little") - half for i in range(0, nb * n, nb)]


def _content(cs) -> int:
    g = 0
    for c in cs:
        if c:
            g = gcd(g, c)
            if g == 1:
                return 1
    return g or 1


def _eval_fraction(cs, x: Fraction) -> Fraction:
    # scaled integer Horner: sum c_i a^i b^(d-i), then divide by b^d
    if not cs:
        return Fraction(0)
    a, b = x.numerator, x.denominator
    v = cs[-1]
    bb = 1
    for i in range(len(cs) - 2, -1, -1):
        bb *= b
        v = v * a + cs[i] * bb
    return Fraction(v, bb)


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
    bb = 1
    for i in range(len(cs) - 2, -1, -1):
        bb *= b
        v = v * a + cs[i] * bb
    return v


@dataclass(frozen=True)
class IntPoly:
    """Immutable dense integer polynomial, lowest power first."""

    coeffs: tuple[int, ...]

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

    def __neg__(self) -> "IntPoly":
        return IntPoly(_neg(self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        return IntPoly(_mul(list(self.coeffs), list(other.coeffs)))

    __rmul__ = __mul__

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

    def content(self) -> int:
        return _content(self.coeffs)

    def __call__(self, x):
        if isinstance(x, int):
            v = 0
            for c in reversed(self.coeffs):
                v = v * x + c
            return v
        return _eval_fraction(list(self.coeffs), Fraction(x))

    def max_abs_coeff(self) -> int:
        return max((abs(c) for c in self.coeffs), default=0)

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


@lru_cache(maxsize=None)
def _cyclotomic_squarefree(rad: int) -> tuple[int, ...]:
    # rad is squarefree; iterate Phi_{mp}(x) = Phi_m(x^p) / Phi_m(x),
    # ascending primes so the most expensive division comes last
    if rad == 1:
        return (-1, 1)
    primes = [p for p, _ in factorize(rad).factors]
    cur = [1] * primes[0]  # Phi_p = 1 + x + ... + x^(p-1)
    for p in primes[1:]:
        comp = [0] * ((len(cur) - 1) * p + 1)
        for i, c in enumerate(cur):
            comp[i * p] = c
        cur, r = _divmod_exact(comp, cur)
        if r:
            raise AssertionError("cyclotomic division must be exact")
    return tuple(cur)


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
    return _eval_fraction(list(p.coeffs), Fraction(r))


def eval_homogeneous_cyclotomic(n: int, a: int, b: int) -> int:
    """b^phi(n) * Phi_n(a/b) as an exact integer; requires gcd(a,b)=1, b>=1."""
    if b < 1:
        raise ValueError("homogeneous evaluation requires b >= 1")
    if gcd(a, b) != 1:
        raise ValueError("homogeneous evaluation requires gcd(a, b) = 1")
    p = cyclotomic(n)
    return _eval_int_scaled(list(p.coeffs), a, b)


def eval_gaussian(p: IntPoly, re: Fraction, im: Fraction) -> tuple[Fraction, Fraction]:
    """Exact p(re + im*i) as a pair of rationals."""
    return _eval_gaussian(p.coeffs, re, im)


# ---------------------------------------------------------------------------
# serialization


def poly_to_json(p: IntPoly, n: int | None = None) -> str:
    obj = {"coeffs": [str(c) for c in p.coeffs]}
    if n is not None:
        obj = {"n": n, **obj}
    return json.dumps(obj)


def poly_from_json(s: str) -> tuple[IntPoly, int | None]:
    obj = json.loads(s)
    return IntPoly([int(c) for c in obj["coeffs"]]), obj.get("n")
