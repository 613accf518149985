"""Exact conversions between mpf values, mantissa pairs and Fractions."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from hypgold.numeric import mantissa_pair, rel_diff, to_fraction, to_mpf


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


@given(st.integers(min_value=-2**300, max_value=2**300),
       st.integers(min_value=-3000, max_value=3000))
@settings(max_examples=300, deadline=None)
def test_to_fraction_matches_the_power_product(man, exp):
    # One shift builds what Fraction(man) * Fraction(2) ** exp builds.
    with mp.workprec(max(53, abs(man).bit_length())):
        x = mpf((man, exp))
    m, e = mantissa_pair(x)
    assert to_fraction(x) == Fraction(m) * Fraction(2) ** e == Fraction(man) * Fraction(2) ** exp


def test_rel_diff_sees_the_operands_last_bit():
    # Two 256-bit values one unit in the last place apart: the gap is about
    # 2^-255, far below what a 128-bit difference can represent.
    a = to_mpf(1, 256)
    b = to_mpf(1 + Fraction(1, 2 ** 255), 256)
    assert rel_diff(a, b) == float(Fraction(1, 2 ** 255) / (1 + Fraction(1, 2 ** 255)))
    assert rel_diff(a, a) == 0.0 and rel_diff(0, 0.0) == 0.0
