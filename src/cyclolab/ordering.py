"""Two total orderings of the positive integers by cyclotomic values.

The order by values at any fixed x > 2 is one sort key (``_large_key``):
the totient, then the coefficients from the top.  compare_small orders by
values on (0, 1/2]: lexicographically from the lowest differing
coefficient, the shorter one padded with zeros, so it stays a comparator.
Neither ever reports a tie for distinct indices.
"""
from __future__ import annotations

from math import prod

from .arith import factorize, inverse_phi, is_prime, phi_prime_power_primes, profile
from .polycore import _product_series, cyclotomic
from .record import Record

LESS = -1
GREATER = 1


def _large_key(n: int) -> tuple[int, tuple[int, ...]]:
    # the large-argument order's key: totient, then coefficients from the top
    return profile(n).phi, cyclotomic(n).coeffs[::-1]


def compare_large(m: int, n: int) -> int:
    """-1 if Phi_m < Phi_n at every x > 2, +1 for the reverse."""
    if m == n:
        raise ValueError("compare_large requires m != n")
    a, b = _large_key(m), _large_key(n)
    if a == b:
        raise AssertionError("distinct indices produced identical polynomials")
    return LESS if a < b else GREATER


def compare_small(m: int, n: int) -> int:
    """-1 if Phi_m < Phi_n on (0, 1/2], +1 for the reverse."""
    if m == n:
        raise ValueError("compare_small requires m != n")
    a = cyclotomic(m).coeffs
    b = cyclotomic(n).coeffs
    for i in range(max(len(a), len(b))):
        ai = a[i] if i < len(a) else 0
        bi = b[i] if i < len(b) else 0
        if ai != bi:
            return LESS if ai < bi else GREATER
    raise AssertionError("distinct indices produced identical polynomials")


def phi_class_sorted(k: int) -> list[int]:
    """All n with phi(n) = k, ascending in the large-argument order."""
    if k < 1:
        raise ValueError("phi_class_sorted requires k >= 1")
    keyed = sorted((_large_key(n), n) for n in inverse_phi(k))
    if any(a == b for (a, _), (b, _) in zip(keyed, keyed[1:])):
        raise AssertionError("distinct indices produced identical polynomials")
    return [n for _, n in keyed]


def ordered_prefix(K: int) -> list[int]:
    """All n with phi(n) <= K, ascending in the large-argument order.

    Classes of equal totient are contiguous; within a class the
    coefficients from the top decide.
    """
    if K < 1:
        raise ValueError("ordered_prefix requires K >= 1")
    out: list[int] = []
    for k in range(1, K + 1):
        out.extend(phi_class_sorted(k))
    return out


def gap(n: int) -> int:
    """Distance from the top degree to the next nonzero coefficient.

    With r = rad(n) and q = n/r the reversed polynomial is a product,

        x^phi Phi_n(1/x) = prod_{e | r} (1 - x^(eq))^mu(r/e) = S(x^q),

    so the top coefficients of Phi_n are the low ones of the power series
    S.  S is expanded only as far as its first nonzero term after the
    constant, doubling the length until one appears (one does by degree
    phi(r), where S ends in Phi_n(0) = +-1).
    """
    if n < 1:
        raise ValueError("gap requires n >= 1")
    primes = [p for p, _ in factorize(n).factors]
    q = n // prod(primes)
    length = 1
    while True:
        s = _product_series(primes, length)
        for i in range(1, length + 1):
            if s[i]:
                return q * i
        length *= 2


class ConsecutiveCertificate(Record):
    """Adjacency verdict plus the totient classes that witnessed it."""

    __slots__ = ("m", "n", "consecutive", "between", "classes")


def certify_consecutive(m: int, n: int) -> ConsecutiveCertificate:
    """Decide whether nothing sits strictly between m and n in the order.

    Only integers with totient between phi(m) and phi(n) can intervene, so
    the decision reduces to finitely many totient classes, all listed in
    the certificate.  Concatenated, the sorted classes are a stretch of
    the order; ``between`` is the part strictly between m and n.
    """
    if m == n:
        raise ValueError("certify_consecutive requires m != n")
    lo, hi = (m, n) if compare_large(m, n) == LESS else (n, m)
    classes = [(k, tuple(phi_class_sorted(k))) for k in range(profile(lo).phi, profile(hi).phi + 1)]
    classes = [c for c in classes if c[1]]
    run = [t for _, members in classes for t in members]
    between = run[run.index(lo) + 1 : run.index(hi)]
    return ConsecutiveCertificate(
        m=m, n=n, consecutive=not between, between=tuple(between), classes=tuple(classes)
    )


def check_3mod4_criterion(p: int) -> bool:
    """For prime p = 3 mod 4: are 2p and p adjacent in the order?

    Decided by the prime-power totient criterion (adjacent unless some
    phi(q^j) = p - 1 with j >= 2) and cross-checked against the direct
    class computation.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    if p % 4 != 3:
        raise ValueError("criterion applies to p = 3 mod 4 only")
    witnesses = dict(phi_prime_power_primes(p))
    predicted = p not in witnesses
    direct = certify_consecutive(2 * p, p).consecutive
    if predicted != direct:
        raise AssertionError("prime-power criterion disagrees with class computation")
    return predicted
