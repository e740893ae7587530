"""Multiplicative arithmetic functions: factorization, totients, Mobius,
inverse totients and the prime-power totient criterion.

All functions are pure; the only shared state is a prime table built on
first use and read-only afterwards, and the memos of ``factorize`` and
``profile``.
Factorization divides by the primes below 2^16 (6542 of them); a cofactor
left above that is proved prime by ``is_prime`` or split by Pollard-Brent,
which beats trial division there.
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

from .record import Record

_TRIAL_LIMIT = 1 << 16
_PRIMES: list[int] | None = None

# Deterministic Miller-Rabin witness set, valid for all n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_VALID_BELOW = 3_317_044_064_679_887_385_961_981


def primes_up_to(limit: int) -> list[int]:
    """Primes <= limit by sieve (fresh list; the internal table is separate)."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray((limit - i * i) // i + 1)
    return [i for i in range(2, limit + 1) if sieve[i]]


def _prime_table() -> list[int]:
    global _PRIMES
    if _PRIMES is None:
        _PRIMES = primes_up_to(_TRIAL_LIMIT)
    return _PRIMES


def is_prime(n: int) -> bool:
    """Primality test: deterministic for all n below ~3.3e24 (a superset of
    the 2^64 range this artifact's indices live in); beyond that, strong
    Baillie-PSW, which has no known counterexample."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    witnesses = _MR_WITNESSES if n < _MR_VALID_BELOW else (2,)
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_VALID_BELOW:
        return _strong_lucas_prp(n)
    return True


def _jacobi(a: int, n: int) -> int:
    # Jacobi symbol (a/n) for odd n > 0
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    # strong Lucas probable-prime test with Selfridge parameters
    from math import isqrt as _isqrt

    s = _isqrt(n)
    if s * s == n:
        return False
    D = 5
    while _jacobi(D, n) != -1:
        D = -(D + 2) if D > 0 else -(D - 2)
    Q = (1 - D) // 4
    d = n + 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # Lucas ladder for U_d, V_d mod n
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = (U + V) * ((n + 1) // 2) % n, (D * U + V) * ((n + 1) // 2) % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(r - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def _pollard_brent(n: int) -> int:
    # one nontrivial factor of composite odd n (Brent's cycle variant)
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        seed += 1
        y, c, m = seed % n, seed % n + 1, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


class Factorization(Record):
    """n as an ordered product of prime powers."""

    __slots__ = ("n", "factors")

    def __init__(self, n: int, factors: tuple[tuple[int, int], ...]):
        prod = 1
        last = 1
        for p, e in factors:
            if p <= last or e < 1:
                raise ValueError("factors must be ascending primes with exponents >= 1")
            last = p
            prod *= p ** e
        if prod != n:
            raise ValueError("factor list does not multiply to n")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "factors", factors)


class ArithProfile(Record):
    """Totient, radical and squarefull-part data for one index.

    Invariants: rad * qpart == n, rad squarefree, mu_rad == (-1)^omega,
    phi == qpart * phi(rad).
    """

    __slots__ = ("n", "phi", "mu_rad", "omega", "rad", "qpart")


@lru_cache(maxsize=4096)
def factorize(n: int) -> Factorization:
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    m = n
    out: list[tuple[int, int]] = []
    for p in _prime_table():
        if p * p > m:
            break  # no prime up to sqrt(m) divides m: it is 1 or a prime
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    else:
        if m > 1 and not is_prime(m):
            # composite cofactor beyond the trial range: split recursively
            stack = [m]
            found: dict[int, int] = {}
            while stack:
                v = stack.pop()
                if is_prime(v):
                    found[v] = found.get(v, 0) + 1
                    continue
                d = _pollard_brent(v)
                stack.append(d)
                stack.append(v // d)
            out.extend(sorted(found.items()))
            m = 1
    if m > 1:
        out.append((m, 1))
    return Factorization(n, tuple(out))


@lru_cache(maxsize=4096)
def profile(n: int) -> ArithProfile:
    if n < 1:
        raise ValueError("profile requires n >= 1")
    f = factorize(n)
    phi = 1
    rad = 1
    for p, e in f.factors:
        phi *= (p - 1) * p ** (e - 1)
        rad *= p
    omega = len(f.factors)
    return ArithProfile(
        n=n,
        phi=phi,
        mu_rad=-1 if omega % 2 else 1,
        omega=omega,
        rad=rad,
        qpart=n // rad,
    )


def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("moebius requires n >= 1")
    f = factorize(n)
    for _, e in f.factors:
        if e > 1:
            return 0
    return -1 if len(f.factors) % 2 else 1


def divisors(n: int) -> list[int]:
    """All divisors of n, ascending."""
    if n < 1:
        raise ValueError("divisors requires n >= 1")
    out = [1]
    for p, e in factorize(n).factors:
        out = [d * p ** k for d in out for k in range(e + 1)]
    out.sort()
    return out


def inverse_phi(k: int) -> list[int]:
    """All n with phi(n) = k, ascending; empty when k is a nontotient.

    Recursive construction over admissible prime powers: a prime p can
    contribute the factor phi(p^j) = (p-1)p^(j-1), which must divide k.
    """
    if k < 1:
        raise ValueError("inverse_phi requires k >= 1")
    cand = sorted(d + 1 for d in divisors(k) if is_prime(d + 1))
    results: list[int] = []

    def extend(rem: int, idx: int, acc: int) -> None:
        if rem == 1:
            results.append(acc)
        for i in range(idx, len(cand)):
            p = cand[i]
            contrib = p - 1
            power = p
            while rem % contrib == 0:
                extend(rem // contrib, i + 1, acc * power)
                contrib *= p
                power *= p

    extend(k, 0, 1)
    return sorted(results)


def phi_prime_power_primes(limit: int) -> list[tuple[int, tuple[int, int]]]:
    """Primes p <= limit with p-1 = phi(q^j) for a prime q and j >= 2.

    Each prime is paired with one witnessing (q, j).
    """
    if limit < 2:
        raise ValueError("phi_prime_power_primes requires limit >= 2")
    hits: dict[int, tuple[int, int]] = {}
    q = 2
    while (q - 1) * q <= limit - 1:
        if is_prime(q):
            j = 2
            val = (q - 1) * q  # phi(q^2)
            while val <= limit - 1:
                p = val + 1
                if p <= limit and is_prime(p) and p not in hits:
                    hits[p] = (q, j)
                val *= q
                j += 1
        q += 1
    return sorted(hits.items())


def primorial(k: int) -> int:
    """Product of the first k primes."""
    if k < 0:
        raise ValueError("primorial requires k >= 0")
    out = 1
    p = 2
    for _ in range(k):
        while not is_prime(p):
            p += 1
        out *= p
        p += 1
    return out
