"""Primitive prime divisors of a^n - b^n and exhaustive coincidence checks
at rational points.

A prime divisor of a^n - b^n is primitive when it divides no earlier
a^k - b^k.  One always exists except in two classical situations: n = 2
with a + b a power of two, and (a, b, n) = (2, 1, 6).  Primitive primes
are found by factoring the much smaller homogeneous cyclotomic value at
(a, b) and testing multiplicative orders.
"""
from __future__ import annotations

from math import gcd

from .arith import divisors, factorize, profile
from .polycore import eval_homogeneous_cyclotomic
from .record import Record

EXCEPTION_BANG_2_6 = "bang_2_6"
EXCEPTION_MERSENNE_N2 = "mersenne_n2"


class PpdResult(Record):
    """Primitive-prime-divisor outcome for (a, b, n)."""

    __slots__ = ("a", "b", "n", "prime", "exception")

    def __init__(self, a: int, b: int, n: int, prime: int | None, exception: str | None):
        if (prime is None) == (exception is None):
            raise ValueError("exactly one of prime/exception must be set")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "exception", exception)


def primitive_prime_divisor(a: int, b: int, n: int) -> PpdResult:
    """A prime dividing a^n - b^n but no earlier a^k - b^k, or the tagged
    exceptional case.  Requires a > b >= 1, gcd(a, b) = 1, n >= 2."""
    if not a > b >= 1:
        raise ValueError("requires a > b >= 1")
    if gcd(a, b) != 1:
        raise ValueError("requires gcd(a, b) = 1")
    if n < 2:
        raise ValueError("requires n >= 2")
    value = abs(eval_homogeneous_cyclotomic(n, a, b))
    for p, _ in factorize(value).factors if value > 1 else ():
        if b % p == 0:
            continue
        # order of a * b^-1 mod p divides n since p | a^n - b^n
        binv = pow(b, -1, p)
        g = a * binv % p
        order = n
        for d in divisors(n):
            if pow(g, d, p) == 1:
                order = d
                break
        if order == n:
            return PpdResult(a=a, b=b, n=n, prime=p, exception=None)
    if n == 6 and (a, b) == (2, 1):
        return PpdResult(a=a, b=b, n=n, prime=None, exception=EXCEPTION_BANG_2_6)
    if n == 2 and (a + b) & (a + b - 1) == 0:
        return PpdResult(a=a, b=b, n=n, prime=None, exception=EXCEPTION_MERSENNE_N2)
    raise AssertionError(f"no primitive prime and no known exception for ({a},{b},{n})")


# ---------------------------------------------------------------------------
# exhaustive coincidence verification


class IntegerCoincidenceReport(Record):
    """Result of checking Phi_m(a) = Phi_n(a) over a full integer box."""

    __slots__ = ("a_max", "max_index", "pairs_checked",
                 "coincidences")  # (a, m, n) with m < n

    @property
    def holds(self) -> bool:
        # Phi_2(2) = Phi_6(2) is the one coincidence, found once 6 is in the box
        return self.coincidences == (((2, 2, 6),) if self.max_index >= 6 else ())


def _collisions(values: dict[int, object]) -> list[tuple[int, int]]:
    seen: dict[object, int] = {}
    out = []
    for m in sorted(values):
        v = values[m]
        if v in seen:
            out.append((seen[v], m))
        else:
            seen[v] = m
    return out


def _negative_index_value(m: int, a: int, b: int = 1):
    # value of Phi_m at -a/b expressed through positive-argument data:
    # odd m >= 3 maps to index 2m, m = 2 mod 4 (m >= 6) to m/2, 4 | m to m.
    # m = 1 and m = 2 pick up a sign and stay separate.
    if m == 1:
        return ("neg", a + b)  # -(a+b)/b
    if m == 2:
        return ("neg2", a - b)  # (b-a)/b = -(a-b)/b
    if m % 2 == 1:
        return ("pos", 2 * m)
    if m % 4 == 2:
        return ("pos", m // 2)
    return ("pos", m)


def _point_coincidences(a: int, b: int, M: int) -> list[tuple[int, int, int]]:
    """Pairs m < n <= M whose values agree at a/b, then at -a/b, as (sign, m, n).

    Each value is b^(2M - phi(m)) b^phi(m) Phi_m(a/b), an integer since
    phi(m) < 2M for every index compared, so equality is exact; at b = 1
    every weight is 1.  An index is evaluated only when it is compared.
    """
    weighted: dict[int, int] = {}

    def value(m: int) -> int:
        if m not in weighted:
            weighted[m] = eval_homogeneous_cyclotomic(m, a, b) * b ** (2 * M - profile(m).phi)
        return weighted[m]

    found = [(1, m, n) for m, n in _collisions({m: value(m) for m in range(1, M + 1)})]
    neg: dict[int, object] = {}
    for m in range(1, M + 1):
        tag, idx = _negative_index_value(m, a, b)
        neg[m] = ("v", value(idx)) if tag == "pos" else (tag, idx)
    return found + [(-1, m, n) for m, n in _collisions(neg)]


def verify_integer_coincidences(a_max: int, M: int) -> IntegerCoincidenceReport:
    """Exhaustively compare Phi_m(a) for 2 <= a <= a_max and m < n <= M,
    covering negative arguments through the index transformations."""
    if a_max < 2 or M < 2:
        raise ValueError("requires a_max >= 2 and M >= 2")
    found = [(s * a, m, n) for a in range(2, a_max + 1) for s, m, n in _point_coincidences(a, 1, M)]
    return IntegerCoincidenceReport(
        a_max=a_max, max_index=M, pairs_checked=(a_max - 1) * M * (M - 1), coincidences=tuple(sorted(found))
    )


class RationalCoincidenceReport(Record):
    """Result over all reduced non-integer rationals of bounded height."""

    __slots__ = ("height", "max_index", "points_checked",
                 "coincidences")  # (point, m, n)

    @property
    def holds(self) -> bool:
        return not self.coincidences


def verify_rational_coincidences(H: int, M: int) -> RationalCoincidenceReport:
    """For every reduced a/b with 0 < b < a <= H, b >= 2, and m < n <= M,
    confirm the homogeneous values cannot agree (both signs of a/b).

    Comparison clears denominators to a common weight so it is exact
    integer equality: Phi_m(a,b) * b^(2M - phi(m)) against the same for n.
    """
    if H < 2 or M < 2:
        raise ValueError("requires H >= 2 and M >= 2")
    found: list[tuple[str, int, int]] = []
    points = 0
    for a in range(3, H + 1):
        for b in range(2, a):
            if gcd(a, b) != 1:
                continue
            points += 1
            found += [(f"{s * a}/{b}", m, n) for s, m, n in _point_coincidences(a, b, M)]
    return RationalCoincidenceReport(
        height=H, max_index=M, points_checked=points, coincidences=tuple(sorted(found))
    )
