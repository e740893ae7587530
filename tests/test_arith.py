from math import isqrt

import pytest
from hypothesis import given, strategies as st

from cyclolab.arith import (
    divisors,
    factorize,
    inverse_phi,
    is_prime,
    moebius,
    phi_prime_power_primes,
    primorial,
    profile,
)


def trial_division(n):
    # independent oracle: naive factorization
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def phi_table(limit):
    # independent oracle: totient sieve
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
    return phi


class TestFactorize:
    def test_twelve(self):
        assert factorize(12).factors == ((2, 2), (3, 1))

    def test_one(self):
        assert factorize(1).factors == ()

    def test_527(self):
        assert factorize(527).factors == tuple(trial_division(527)) == ((17, 1), (31, 1))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factorize(0)

    @given(st.integers(min_value=1, max_value=10 ** 6))
    def test_matches_trial_division(self, n):
        assert factorize(n).factors == tuple(trial_division(n))

    def test_large_semiprime_cofactor(self):
        # both primes sit beyond the trial-division table
        p, q = 1_000_003, 1_000_033
        assert factorize(p * q).factors == ((p, 1), (q, 1))

    # primes and prime squares on each side of the trial-division bound
    # (2^16) and of the former one (10^6), products that straddle a bound,
    # a cube of the first prime past 2^16, and cofactors above 10^12
    @pytest.mark.parametrize(
        "n",
        [
            65521, 65537, 999983, 1_000_003,
            65521 ** 2, 65537 ** 2, 999983 ** 2, 1_000_003 ** 2,
            65521 * 65537, 65519 * 65543, 999983 * 1_000_003, 65537 * 999983,
            2 ** 16, 2 ** 16 + 2, 10 ** 6,
            3 * 65537 ** 3,
            1_000_000_000_039, 12 * 1_000_000_000_039, 1_000_003 * 1_000_033 * 65537,
        ],
    )
    def test_at_trial_bounds(self, n):
        assert factorize(n).factors == tuple(trial_division(n))

    @given(st.integers(min_value=1, max_value=10 ** 7))
    def test_matches_trial_division_to_ten_million(self, n):
        assert factorize(n).factors == tuple(trial_division(n))


class TestProfile:
    def test_twelve(self):
        pr = profile(12)
        assert (pr.phi, pr.rad, pr.qpart, pr.omega, pr.mu_rad) == (4, 6, 2, 2, 1)

    def test_nine(self):
        pr = profile(9)
        assert (pr.phi, pr.rad, pr.qpart, pr.omega, pr.mu_rad) == (6, 3, 3, 1, -1)

    def test_2310(self):
        # phi by multiplicativity: 1*2*4*6*10
        pr = profile(2310)
        assert (pr.phi, pr.rad, pr.qpart, pr.omega, pr.mu_rad) == (480, 2310, 1, 5, -1)

    def test_one_conventions(self):
        pr = profile(1)
        assert (pr.phi, pr.rad, pr.qpart, pr.omega, pr.mu_rad) == (1, 1, 1, 0, 1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            profile(0)

    @given(st.integers(min_value=1, max_value=20000))
    def test_structure(self, n):
        pr = profile(n)
        assert pr.rad * pr.qpart == n
        assert pr.mu_rad == (-1) ** pr.omega
        assert all(e == 1 for _, e in factorize(pr.rad).factors)
        assert pr.phi == pr.qpart * profile(pr.rad).phi


class TestMoebiusDivisors:
    @pytest.mark.parametrize("n,mu", [(1, 1), (30, -1), (12, 0)])
    def test_moebius_values(self, n, mu):
        assert moebius(n) == mu

    @pytest.mark.parametrize(
        "n,divs", [(1, [1]), (12, [1, 2, 3, 4, 6, 12]), (15, [1, 3, 5, 15])]
    )
    def test_divisors(self, n, divs):
        assert divisors(n) == divs

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            moebius(0)
        with pytest.raises(ValueError):
            divisors(0)

    def test_totient_divisor_sum(self):
        phis = phi_table(10 ** 4)
        for n in range(1, 10 ** 4 + 1):
            assert sum(phis[d] for d in divisors(n)) == n

    def test_moebius_divisor_sum(self):
        for n in range(1, 10 ** 4 + 1):
            assert sum(moebius(d) for d in divisors(n)) == (1 if n == 1 else 0)

    def test_totient_splits_at_radical(self):
        for n in range(1, 10 ** 4 + 1):
            pr = profile(n)
            assert pr.phi == pr.qpart * profile(pr.rad).phi


class TestIsPrime:
    @pytest.mark.parametrize("n,expect", [(179, True), (1, False), (341, False), (2, True)])
    def test_values(self, n, expect):
        assert is_prime(n) is expect

    def test_341_composite_by_trial_division(self):
        assert trial_division(341) == [(11, 1), (31, 1)]

    def test_agrees_with_sieve_to_million(self):
        limit = 10 ** 6
        sieve = bytearray([1]) * (limit + 1)
        sieve[0] = sieve[1] = 0
        for i in range(2, isqrt(limit) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray((limit - i * i) // i + 1)
        mismatches = [n for n in range(limit + 1) if is_prime(n) != bool(sieve[n])]
        assert mismatches == []


class TestInversePhi:
    def test_examples(self):
        assert inverse_phi(4) == [5, 8, 10, 12]
        assert inverse_phi(14) == []
        assert inverse_phi(1) == [1, 2]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            inverse_phi(0)

    def test_against_brute_force_to_200(self):
        bound = 2 * 200 ** 2
        phis = phi_table(bound)
        buckets: dict[int, list[int]] = {}
        for n in range(1, bound + 1):
            buckets.setdefault(phis[n], []).append(n)
        for k in range(1, 201):
            assert inverse_phi(k) == buckets.get(k, [])


class TestPhiPrimePowerPrimes:
    def test_small_limit(self):
        hits = dict(phi_prime_power_primes(10))
        assert hits[3] == (2, 2)  # phi(4) = 2
        assert hits[7] == (3, 2)  # phi(9) = 6
        assert 5 in hits  # phi(8) = 4

    def test_limit_two_empty(self):
        assert phi_prime_power_primes(2) == []

    def test_witnesses_check_out(self):
        for p, (q, j) in phi_prime_power_primes(500):
            assert is_prime(p) and is_prime(q) and j >= 2
            assert profile(q ** j).phi == p - 1

    def test_completeness_to_200(self):
        # brute force over prime powers
        expect = set()
        for q in range(2, 300):
            if not is_prime(q):
                continue
            j = 2
            while q ** j < 10 ** 6:
                val = profile(q ** j).phi
                if val + 1 <= 200 and is_prime(val + 1):
                    expect.add(val + 1)
                if val > 400:
                    break
                j += 1
        assert {p for p, _ in phi_prime_power_primes(200)} == expect


def test_primorial():
    assert primorial(0) == 1
    assert primorial(3) == 30
    assert primorial(5) == 2310
