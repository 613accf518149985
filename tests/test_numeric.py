"""Exact conversions between mpf values, mantissa pairs and Fractions."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from hypgold.numeric import mantissa_pair, to_fraction, to_mpf


def test_zero_round_trips():
    assert mantissa_pair(mpf(0)) == (0, 0)
    assert to_fraction(mpf(0)) == 0


@given(st.integers(min_value=-2**100, max_value=2**100),
       st.integers(min_value=-400, max_value=400),
       st.sampled_from([128, 256]))
@settings(max_examples=200, deadline=None)
def test_binary_rationals_round_trip(man, exp, precision):
    # |man| < 2**101 fits every precision sampled, so the mpf is exact.
    value = Fraction(man) * Fraction(2) ** exp
    x = to_mpf(value, precision)
    m, e = mantissa_pair(x)
    assert isinstance(m, int) and isinstance(e, int)
    assert Fraction(m) * Fraction(2) ** e == value
    assert to_fraction(x) == value
    assert (m < 0) == (value < 0)
