"""binfloat against mpmath.libmp, bit for bit.

libmp is the oracle here and only here: each kernel operation must return
the pair of the normalised tuple the libmp function of the same name
returns, and the Aberth sweeps must reproduce the libmp sweeps they
replaced, iterate for iterate.
"""
import pytest
from hypothesis import given, settings, strategies as st

mp = pytest.importorskip("mpmath.libmp")

from cyclolab import binfloat as bf
from cyclolab import complexroots as complex_mod
from cyclolab.polycore import difference
from cyclolab.roots import yun_decomposition

RND = {True: mp.round_nearest, False: mp.round_down}


def lib(x):
    return mp.from_man_exp(*x)


def pair(t):
    sign, man, exp, _ = t
    return (-man if sign else man), exp


def canonical(x):
    # an odd mantissa, or the one zero (0, 0)
    return x[0] % 2 == 1 or x == bf.ZERO


# mantissas up to 3x the widest precision below, so that rounding drops
# bits and exact products stay exact; exponents far enough apart for
# add's shortcut at any of these precisions
MANT = st.one_of(st.integers(-(1 << 70), 1 << 70), st.integers(-(1 << 1600), 1 << 1600))
VALUE = st.builds(lambda m, e: bf.rnd(m, e), MANT, st.integers(-2000, 2000))
NONZERO = VALUE.filter(lambda x: x[0] != 0)
PREC = st.one_of(st.integers(1, 80), st.sampled_from([256, 522, 532]))
NEAR = st.booleans()


class TestRound:
    @settings(max_examples=400)
    @given(MANT, st.integers(-50, 50), st.one_of(st.just(0), PREC), NEAR)
    def test_matches_from_man_exp(self, m, e, prec, near):
        got = bf.rnd(m, e, prec, near)
        assert canonical(got)
        assert got == pair(mp.from_man_exp(m, e, prec, RND[near]) if prec else mp.from_man_exp(m, e))

    @given(st.floats(allow_nan=False, allow_infinity=False), PREC, NEAR)
    def test_from_float(self, x, prec, near):
        assert bf.from_float(x, prec, near) == pair(mp.mpf_pos(mp.from_float(x), prec, RND[near]))


class TestAddSub:
    @settings(max_examples=500)
    @given(VALUE, VALUE, st.one_of(st.just(0), PREC), NEAR)
    def test_add_and_sub(self, x, y, prec, near):
        for got, want in (
            (bf.add(x, y, prec, near), mp.mpf_add(lib(x), lib(y), prec, RND[near])),
            (bf.sub(x, y, prec, near), mp.mpf_sub(lib(x), lib(y), prec, RND[near])),
        ):
            assert canonical(got) and got == pair(want)

    @settings(max_examples=500)
    @given(
        st.integers(1, 80),
        st.integers(-(1 << 400), 1 << 400),
        st.integers(-(1 << 200), 1 << 200),
        st.integers(101, 400),
        st.booleans(),
        NEAR,
    )
    def test_far_apart_wide_mantissas(self, prec, xm, ym, gap, swap, near):
        # exponents more than 100 apart and mantissas wider than prec:
        # libmp's shortcut, which the kernel must take too
        x, y = bf.rnd(xm, gap), bf.rnd(ym, 0)
        if swap:
            x, y = y, x
        for sign in (1, -1):
            y = (sign * y[0], y[1])
            assert bf.add(x, y, prec, near) == pair(mp.mpf_add(lib(x), lib(y), prec, RND[near]))

    @pytest.mark.parametrize(
        "near, ym, want",
        [
            # x's bits below the round position read 0111...1; the exact
            # sum carries into the round bit, the shortcut does not
            (True, (1 << 149) + 1, (1, 419)),
            # the exact difference falls below 2^419, the shortcut not
            (False, -(1 << 149) - 1, (1, 419)),
        ],
    )
    def test_shortcut_is_not_correct_rounding(self, near, ym, want):
        P = 10
        x = ((1 << 299) | ((1 << 289) - 1), 120) if near else ((1 << 299) + 1, 120)
        y = (ym, 0)
        got = bf.add(x, y, P, near)
        assert got == want == pair(mp.mpf_add(lib(x), lib(y), P, RND[near]))
        assert got != bf.rnd(*bf.add(x, y), P, near)  # the correctly rounded sum


class TestMulDivSqrt:
    @settings(max_examples=300)
    @given(VALUE, VALUE, st.one_of(st.just(0), PREC), NEAR)
    def test_mul(self, x, y, prec, near):
        got = bf.mul(x, y, prec, near)
        assert canonical(got) and got == pair(mp.mpf_mul(lib(x), lib(y), prec, RND[near]))

    @settings(max_examples=300)
    @given(VALUE, NONZERO, PREC, NEAR)
    def test_div(self, x, y, prec, near):
        got = bf.div(x, y, prec, near)
        assert canonical(got) and got == pair(mp.mpf_div(lib(x), lib(y), prec, RND[near]))

    @given(st.sampled_from([-1, 1, 2, 3]), st.integers(-300, 300), VALUE, PREC, NEAR)
    def test_div_by_power_of_two(self, m, e, x, prec, near):
        y = bf.rnd(m, e)
        assert bf.div(x, y, prec, near) == pair(mp.mpf_div(lib(x), lib(y), prec, RND[near]))

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            bf.div(bf.ONE, bf.ZERO, 53)

    @settings(max_examples=300)
    @given(VALUE, PREC, NEAR)
    def test_sqrt(self, x, prec, near):
        x = (abs(x[0]), x[1])
        got = bf.sqrt(x, prec, near)
        assert canonical(got) and got == pair(mp.mpf_sqrt(lib(x), prec, RND[near]))

    @settings(max_examples=300)
    @given(VALUE, VALUE, PREC, NEAR)
    def test_hypot(self, x, y, prec, near):
        assert bf.hypot(x, y, prec, near) == pair(mp.mpf_hypot(lib(x), lib(y), prec, RND[near]))

    @given(VALUE, VALUE)
    def test_lt(self, x, y):
        assert bf.lt(x, y) == mp.mpf_lt(lib(x), lib(y))


# complex operands with parts near 1 or spanning 2^-1000 .. 2^1000, so the
# inlined loops meet exponent gaps on both sides of 100
PART = st.builds(
    lambda m, e: bf.rnd(m, e),
    st.integers(-(1 << 600), 1 << 600),
    st.one_of(st.integers(-600, -500), st.integers(-1000, 1000)),
)
CPLX = st.tuples(PART, PART)


def cpair(z):
    return pair(z[0]), pair(z[1])


def lib_c(z):
    return lib(z[0]), lib(z[1])


class TestComplex:
    @given(CPLX, CPLX, st.sampled_from([53, 256, 512]))
    def test_mul_div_abs(self, z, w, prec):
        n = mp.round_nearest
        assert bf.cmul(z, w, prec) == cpair(mp.mpc_mul(lib_c(z), lib_c(w), prec, n))
        assert bf.csub(z, w, prec) == cpair(mp.mpc_sub(lib_c(z), lib_c(w), prec, n))
        assert bf.cabs(z, prec) == pair(mp.mpc_abs(lib_c(z), prec, n))
        if w != (bf.ZERO, bf.ZERO):
            assert bf.cdiv(z, w, prec) == cpair(mp.mpc_div(lib_c(z), lib_c(w), prec, n))

    @settings(max_examples=150)
    @given(st.data(), st.sampled_from([53, 512]))
    def test_recip_sum(self, data, prec):
        # besides PART, prec-bit odd mantissas at exponents a few apart:
        # differences that drop one bit and so tie, and ones that cancel
        close = st.builds(
            lambda m, s, e: (s * (m | 1), e - prec),
            st.integers(1 << (prec - 1), (1 << prec) - 1),
            st.sampled_from([1, -1]),
            st.integers(-3, 3),
        )
        part = st.one_of(PART, close)
        zs = data.draw(st.lists(st.tuples(part, part), min_size=2, max_size=8, unique=True))
        n = mp.round_nearest
        i = data.draw(st.integers(0, len(zs) - 1))
        want = (mp.fzero, mp.fzero)
        for j, w in enumerate(zs):
            if j != i:
                a, b = mp.mpc_sub(lib_c(zs[i]), lib_c(w), prec, n)
                m = mp.mpf_add(mp.mpf_mul(a, a), mp.mpf_mul(b, b), prec + 10)
                want = mp.mpc_add(want, (mp.mpf_div(a, m, prec, n), mp.mpf_div(mp.mpf_neg(b), m, prec, n)), prec, n)
        assert bf.recip_sum(zs[i], zs, i, prec) == cpair(want)

    @given(st.lists(st.one_of(st.none(), PART), min_size=1, max_size=8), PART, CPLX, st.sampled_from([53, 512]))
    def test_horner(self, rest, lead, z, prec):
        n = mp.round_nearest
        want = mp.mpc_mul_mpf(lib_c(z), lib(lead), prec, n)
        for k, c in enumerate(rest):
            if k:
                want = mp.mpc_mul(want, lib_c(z), prec, n)
            if c is not None:
                want = mp.mpc_add_mpf(want, lib(c), prec, n)
        assert bf.horner(lead, rest, z, prec) == cpair(want)


def libmp_sweeps(cs, prec_bits, budget):
    # the sweeps as they ran on libmp tuples before binfloat, kept as the
    # oracle: the same seeds, calls, precisions, roundings and order
    from mpmath.libmp import (
        fone, from_float, from_int, fzero, mpc_abs, mpc_add, mpc_add_mpf, mpc_div, mpc_div_mpf,
        mpc_mul, mpc_mul_mpf, mpc_sub, mpf_add, mpf_div, mpf_gt, mpf_lt, mpf_mul, mpf_neg,
        mpf_pos, mpf_shift, round_nearest as rnd,
    )
    import numpy as np

    deg = len(cs) - 1
    mx = max(abs(c) for c in cs)
    arr = np.array([c / mx for c in reversed(cs)], dtype=float)
    try:
        seeds = [complex(z) for z in np.roots(arr)]
    except Exception:
        seeds = []
    if len(seeds) != deg:
        R = 1.0 + max(abs(c) / abs(cs[-1]) for c in cs)
        seeds = [complex(R * np.exp(2j * np.pi * (i + 0.25) / deg)) for i in range(deg)]
    spread = []
    for z in seeds:
        while any(abs(z - w) < 1e-9 for w in spread):
            z += 1e-6 + 1e-6j
        spread.append(z)

    P, wp = prec_bits, prec_bits + 10
    zero = (fzero, fzero)
    zs = [(mpf_pos(from_float(z.real), P, rnd), mpf_pos(from_float(z.imag), P, rnd)) for z in spread]
    dps = [i * c for i, c in enumerate(cs)][1:]
    pl, pcs = from_int(cs[-1], P, rnd), [from_int(c, P, rnd) if c else None for c in reversed(cs[:-1])]
    dl, dcs = from_int(dps[-1], P, rnd), [from_int(c, P, rnd) if c else None for c in reversed(dps[:-1])]

    def horner(lead, rest, z):
        v = mpc_mul_mpf(z, lead, P, rnd)
        for k, c in enumerate(rest):
            if k:
                v = mpc_mul(v, z, P, rnd)
            if c is not None:
                v = mpc_add_mpf(v, c, P, rnd)
        return v

    tol = mpf_shift(fone, -(prec_bits * 3) // 4)
    for _ in range(budget):
        moved = fzero
        for i in range(deg):
            z = zs[i]
            pv = horner(pl, pcs, z)
            if pv == zero:
                continue
            if deg == 1:
                newt = mpc_div_mpf(pv, dl, P, rnd)
            else:
                dv = horner(dl, dcs, z)
                if dv == zero:
                    zs[i] = mpc_add_mpf(z, tol, P, rnd)
                    continue
                newt = mpc_div(pv, dv, P, rnd)
            ssum = zero
            for j in range(deg):
                if j != i:
                    a, b = mpc_sub(z, zs[j], P, rnd)
                    m = mpf_add(mpf_mul(a, a), mpf_mul(b, b), wp)
                    ssum = mpc_add(ssum, (mpf_div(a, m, P, rnd), mpf_div(mpf_neg(b), m, P, rnd)), P, rnd)
            den = mpc_sub((fone, fzero), mpc_mul(newt, ssum, P, rnd), P, rnd)
            if den == zero:
                continue
            corr = mpc_div(newt, den, P, rnd)
            zs[i] = mpc_sub(z, corr, P, rnd)
            az = mpc_abs(z, P, rnd)
            rel = mpf_div(mpc_abs(corr, P, rnd), az if mpf_gt(az, fone) else fone, P, rnd)
            if mpf_gt(rel, moved):
                moved = rel
        if mpf_lt(moved, tol):
            break
    return zs


class TestSweepsMatchLibmp:
    @pytest.mark.parametrize(
        "m, n, bits",
        [
            (9, 17, 512),  # an imaginary part near 3e-288 needs add's shortcut
            (3, 7, 512),  # the linear factor x, p/p' by one real division
            (10, 13, 1024),  # the 4x restart precision
        ],
    )
    def test_iterates_identical(self, m, n, bits):
        for factor, _ in yun_decomposition(difference(m, n)):
            cs = list(factor.coeffs)
            if len(cs) > 1:
                want = [(pair(a), pair(b)) for a, b in libmp_sweeps(cs, bits, 200)]
                assert complex_mod._aberth_sweeps(cs, bits, 200) == want
