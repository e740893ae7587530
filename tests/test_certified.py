from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cyclolab.certified import (
    BigFloat,
    ZERO,
    _decimal_exponent,
    _from_bracket,
    decimal_in_interval,
    format_significant,
    from_interval,
)

DIGITS = st.integers(0, 40)
VALUES = st.fractions(max_denominator=10 ** 60) | st.builds(
    Fraction, st.integers(-(10 ** 80), 10 ** 80), st.integers(1, 1 << 300)
)
# errors at and beside 10^-k; 10^0 - 1 = 0 is no denominator, so it becomes 1
ERRORS = st.just(ZERO) | st.fractions(min_value=0, max_denominator=10 ** 50) | st.builds(
    lambda k, d: Fraction(1, max(1, 10 ** k + d)), st.integers(0, 45), st.integers(-1, 1)
)


@st.composite
def rounding_edges(draw):
    # an interval with one end at, just below or just above a half-even tie
    # (k + 1/2)/10^d and the other end 0 to 1 units of 10^-d away: a zero
    # width is an exact tie, and a positive one tests each end's rounding
    d = draw(DIGITS)
    tie = Fraction(2 * draw(st.integers(-(10 ** 20), 10 ** 20)) + 1, 2 * 10 ** d)
    edge = tie + draw(st.sampled_from([0, 1, -1])) * Fraction(1, 10 ** (d + 30))
    width = Fraction(draw(st.integers(0, 10 ** 6)), 10 ** (d + 6))
    lo, hi = (edge, edge + width) if draw(st.booleans()) else (edge - width, edge)
    return BigFloat((lo + hi) / 2, (hi - lo) / 2), d


def _decimal_or_none(v: BigFloat, digits: int):
    try:
        return v.decimal(digits)
    except ValueError:
        return None


class TestDecimal:
    # decimal() rounds value -+ error on integers; decimal_in_interval on the
    # bracket's ends is the oracle, None exactly where decimal() raises
    @given(VALUES, ERRORS, DIGITS)
    def test_matches_interval_rounding(self, value, error, digits):
        v = BigFloat(value, error)
        assert _decimal_or_none(v, digits) == decimal_in_interval(v.lo, v.hi, digits)

    @given(rounding_edges())
    def test_rounding_edges(self, case):
        v, digits = case
        assert _decimal_or_none(v, digits) == decimal_in_interval(v.lo, v.hi, digits)

    @pytest.mark.parametrize(
        "value, error, digits, expected",
        [
            (Fraction(1, 8), ZERO, 2, "0.12"),  # a tie rounds to even
            (Fraction(3, 8), ZERO, 2, "0.38"),
            (Fraction(-1, 8), ZERO, 2, "-0.12"),
            (Fraction(-1, 200), ZERO, 2, "0.00"),  # no "-0.00"
            (Fraction(5, 2), ZERO, 0, "2"),
            (Fraction(-7, 2), ZERO, 0, "-4"),
            (Fraction(1, 3), Fraction(1, 10 ** 6), 4, "0.3333"),
            (Fraction(0), Fraction(1, 10 ** 41), 40, "0.0000000000000000000000000000000000000000"),
        ],
    )
    def test_chosen(self, value, error, digits, expected):
        assert BigFloat(value, error).decimal(digits) == expected

    @pytest.mark.parametrize("value, error", [(Fraction(1, 8), Fraction(1, 1000)), (Fraction(0), Fraction(1, 10))])
    def test_too_wide_raises(self, value, error):
        with pytest.raises(ValueError):
            BigFloat(value, error).decimal(2)


class TestFromBracket:
    @given(st.integers(-(1 << 200), 1 << 200), st.integers(0, 1 << 200), st.integers(1, 1 << 200))
    def test_matches_from_interval(self, lo, width, den):
        got = _from_bracket(lo, lo + width, den)
        assert got == from_interval(Fraction(lo, den), Fraction(lo + width, den))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            _from_bracket(1, 0, 1)


def decimal_exponent_loop(x: Fraction) -> int:
    # the Fraction loop _decimal_exponent replaced, one division per decade
    x = abs(x)
    e = 0
    while x >= 10:
        x /= 10
        e += 1
    while x < 1:
        x *= 10
        e -= 1
    return e


POWERS = [Fraction(10) ** k for k in (-300, -299, -17, -1, 0, 1, 2, 17, 299, 300)]
NUDGE = Fraction(1, 1 << 200)


class TestDecimalExponent:
    @pytest.mark.parametrize("x", POWERS + [p + NUDGE for p in POWERS] + [p - NUDGE for p in POWERS if p > NUDGE])
    def test_matches_loop_at_powers(self, x):
        assert _decimal_exponent(x) == decimal_exponent_loop(x)
        assert _decimal_exponent(-x) == decimal_exponent_loop(x)

    @given(st.builds(Fraction, st.integers(1, 10 ** 120), st.integers(1, 10 ** 120)))
    def test_matches_loop(self, x):
        assert _decimal_exponent(x) == decimal_exponent_loop(x)

    def test_exponents(self):
        assert _decimal_exponent(Fraction(10) ** -300) == -300
        assert _decimal_exponent(Fraction(10) ** 300 - NUDGE) == 299
        assert _decimal_exponent(Fraction(10) ** 300 + NUDGE) == 300

    @pytest.mark.parametrize(
        "x, sig, expected",
        [
            (Fraction(10) ** -300, 3, "0." + "0" * 299 + "1"),
            (Fraction(123456, 1000), 3, "123"),
            (Fraction(987654321), 3, "988000000"),
            (Fraction(-1, 3), 5, "-0.33333"),
        ],
    )
    def test_format_significant(self, x, sig, expected):
        assert format_significant(x, sig) == expected

    @pytest.mark.parametrize("x", [Fraction(0), Fraction(123456, 1000)])
    @pytest.mark.parametrize("sig", [0, -2])
    def test_format_significant_refuses_no_digits(self, x, sig):
        with pytest.raises(ValueError, match="significant digits must be >= 1"):
            format_significant(x, sig)
