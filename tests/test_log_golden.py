"""Exact values of the log enclosures and the sums built on them.

``log_golden.json`` holds ``log_interval``, ``lemma_tail_gap`` and
``g_value`` results as exact rational strings, captured from the Fraction
series implementation before the log sums moved to integers.  Any change
to these functions must reproduce every bit: the stopping rule, the ln 2
bounds and the outward rounding all show up in the numerators.  Below the
golden values, that Fraction series is kept as the oracle of a property
test on the integer core.
"""
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclolab.bounds import g_value, lemma_tail_gap
from cyclolab.certified import _ln2_bounds, _log_bounds, log_interval

GOLDEN = json.loads(Path(__file__).with_name("log_golden.json").read_text())


def _bigfloat(b):
    return [str(b.value), str(b.error_bound)]


def _golden(b):
    # a stored BigFloat is [value, error_bound, precision]; the precision
    # belongs to the computation, not the value, so only the first two count
    return b[:2]


@pytest.mark.parametrize("row", GOLDEN["log_interval"], ids=lambda r: "%s-%d" % (r[0], r[1]))
def test_log_interval(row):
    y, prec, lo, hi = row
    assert [str(v) for v in log_interval(Fraction(y), prec)] == [lo, hi]


@pytest.mark.parametrize("row", GOLDEN["lemma_tail_gap"], ids=lambda r: "%s-%d" % (r[0], r[1]))
def test_lemma_tail_gap(row):
    x, k, left, right, holds = row
    got_left, got_right, got_holds = lemma_tail_gap(Fraction(x), k)
    assert (_bigfloat(got_left), _bigfloat(got_right), got_holds) == (_golden(left), _golden(right), holds)


def test_g_value():
    for m, n, x, want in GOLDEN["g_value"]:
        assert _bigfloat(g_value(m, n, Fraction(x))) == _golden(want), (m, n, x)


def test_golden_covers_the_doubling_path():
    # (41, 43) at 1/3 does not separate from zero at 64 bits.  An enclosure
    # over 2^64 has error (hi - lo)/2^65 >= 2^-65, so a smaller stored error
    # shows the golden row comes from a doubled precision
    assert GOLDEN["g_value"][-1][:3] == [41, 43, "1/3"]
    assert Fraction(GOLDEN["g_value"][-1][3][1]) < Fraction(1, 2 ** 65)


# the Fraction series that log_interval ran on before its integer core, kept
# as the oracle: every partial sum normalised, every bound a Fraction


def _fraction_outward(lo, hi, prec):
    s = 1 << prec
    return Fraction(lo.numerator * s // lo.denominator, s), Fraction(-((-hi.numerator * s) // hi.denominator), s)


def _fraction_atanh(t, prec):
    if t == 0:
        return Fraction(0), Fraction(0)
    tol = Fraction(1, 1 << (prec + 4))
    t2 = t * t
    term = t
    total = Fraction(0)
    k = 0
    while True:
        total += term / (2 * k + 1)
        term *= t2
        k += 1
        tail = term / ((2 * k + 1) * (1 - t2))
        if tail < tol:
            return total, total + tail


def _fraction_ln2(prec):
    lo, hi = _fraction_atanh(Fraction(1, 3), prec + 2)
    return _fraction_outward(2 * lo, 2 * hi, prec + 2)


def _fraction_log(y, prec):
    k = y.numerator.bit_length() - y.denominator.bit_length()
    u = y / (Fraction(1 << k) if k >= 0 else Fraction(1, 1 << -k))
    while u >= Fraction(4, 3):
        u /= 2
        k += 1
    while u < Fraction(2, 3):
        u *= 2
        k -= 1
    t = (u - 1) / (u + 1)
    if t >= 0:
        alo, ahi = _fraction_atanh(t, prec + 4)
        ulo, uhi = 2 * alo, 2 * ahi
    else:
        alo, ahi = _fraction_atanh(-t, prec + 4)
        ulo, uhi = -2 * ahi, -2 * alo
    if k == 0:
        lo, hi = ulo, uhi
    else:
        l2lo, l2hi = _fraction_ln2(prec + 4)
        if k > 0:
            lo, hi = ulo + k * l2lo, uhi + k * l2hi
        else:
            lo, hi = ulo + k * l2hi, uhi + k * l2lo
    return _fraction_outward(lo, hi, prec)


POSITIVE = st.one_of(st.integers(1, 50), st.integers(1, 10 ** 40))
PREC = st.integers(1, 300)


@settings(max_examples=300, deadline=None)
@given(POSITIVE, POSITIVE, PREC)
def test_log_bounds_match_fraction_series(p, q, prec):
    s = 1 << prec
    lo, hi = _fraction_log(Fraction(p, q), prec)
    # the core need not see p/q in lowest terms
    assert _log_bounds(p, q, prec) == (lo * s, hi * s)
    assert _log_bounds(3 * p, 3 * q, prec) == (lo * s, hi * s)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10 ** 30), st.integers(-(10 ** 6), 10 ** 6), PREC)
def test_log_bounds_near_one(q, offset, prec):
    # arguments 1 - x^-k and 1 - x^k of the tail gap and g lie close to 1
    if q + offset <= 0:
        return
    s = 1 << prec
    lo, hi = _fraction_log(Fraction(q + offset, q), prec)
    assert _log_bounds(q + offset, q, prec) == (lo * s, hi * s)


@pytest.mark.parametrize("prec", [1, 2, 30, 64, 100, 260])
def test_ln2_bounds_match_fraction_series(prec):
    s = 1 << (prec + 2)
    lo, hi = _fraction_ln2(prec)
    assert _ln2_bounds(prec) == (lo * s, hi * s)


def test_log_interval_rejects_nonpositive():
    for y in (Fraction(0), Fraction(-1, 2)):
        with pytest.raises(ValueError):
            log_interval(y, 64)
