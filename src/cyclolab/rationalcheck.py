"""Primitive prime divisors of a^n - b^n and exhaustive coincidence checks
at rational points.

A prime divisor of a^n - b^n is primitive when it divides no earlier
a^k - b^k.  One always exists except in two classical situations: n = 2
with a + b a power of two, and (a, b, n) = (2, 1, 6).  Primitive primes
are found by factoring the much smaller homogeneous cyclotomic value at
(a, b) and testing multiplicative orders.

The coincidence checks evaluate every Phi_n at each point a/b and at -a/b
directly, weighted to a common power of b, and compare exact integers.
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
    exceptional case.  Requires a > b >= 1, gcd(a, b) = 1, n >= 2.

    The primes come from ``factorize``, whose primality test is a
    Baillie-PSW probable-prime test above about 3.3e24: a prime above that
    bound, and a ``bang`` result that names one, is a probable prime."""
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


def _point_coincidences(a: int, b: int, M: int) -> list[tuple[int, int, int]]:
    """Pairs m < n <= M whose values agree at a/b, then at -a/b, as (sign, m, n).

    Each value is b^M Phi_n(s a/b) = Phi_n(s a, b) b^(M - phi(n)), an integer
    since phi(n) <= M, so equality is exact; at b = 1 every weight is 1.
    Each pair is reported with the least index of its value.
    """
    found = []
    for s in (1, -1):
        least: dict[int, int] = {}
        for n in range(1, M + 1):
            m = least.setdefault(eval_homogeneous_cyclotomic(n, s * a, b) * b ** (M - profile(n).phi), n)
            if m != n:
                found.append((s, m, n))
    return found


def verify_integer_coincidences(a_max: int, M: int) -> IntegerCoincidenceReport:
    """Exhaustively compare Phi_m(a) for 2 <= |a| <= a_max and m < n <= M."""
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
    integer equality: Phi_m(a,b) * b^(M - phi(m)) against the same for n.
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
