"""Exact conversions between mpf values, mantissa pairs and Fractions, and one rounding rule."""

import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, from_rational, round_nearest

import hypgold.construction as construction
from hypgold.construction import GoldbachSpec, build_goldbach, junction_gaps
from hypgold.errors import DomainError
from hypgold.numeric import (
    format_exact,
    mantissa_pair,
    parse_exact,
    rel_diff,
    round_ratio,
    to_fraction,
    to_mpf,
)


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


def _nearest_even(f: Fraction, precision: int) -> Fraction:
    """f rounded to precision significant bits, ties to even, in Fraction arithmetic."""
    if f == 0:
        return f
    a = abs(f)
    e = a.numerator.bit_length() - a.denominator.bit_length() - precision
    while a / Fraction(2) ** e >= 2 ** precision:
        e += 1
    while a / Fraction(2) ** e < 2 ** (precision - 1):
        e -= 1
    scaled = a / Fraction(2) ** e
    q = math.floor(scaled)
    rest = scaled - q
    if rest > Fraction(1, 2) or (rest == Fraction(1, 2) and q % 2):
        q += 1
    return (q if f > 0 else -q) * Fraction(2) ** e


@st.composite
def wide_fractions(draw):
    """Fractions whose parts are wider than the precision, decimals, and exact ties."""
    kind = draw(st.sampled_from(["wide", "decimal", "tie"]))
    sign = draw(st.sampled_from([1, -1]))
    if kind == "wide":
        p = draw(st.integers(min_value=2 ** 100, max_value=2 ** 300))
        q = draw(st.integers(min_value=2 ** 100, max_value=2 ** 300))
        return sign * Fraction(p, q)
    if kind == "decimal":
        digits = draw(st.integers(min_value=17, max_value=60))
        p = draw(st.integers(min_value=10 ** (digits - 1), max_value=10 ** digits - 1))
        return sign * Fraction(p, 10 ** draw(st.integers(min_value=0, max_value=digits)))
    # Halfway between two neighbours at 53, 128 or 256 bits.
    bits = draw(st.sampled_from([53, 128, 256]))
    q = draw(st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1))
    return sign * Fraction(2 * q + 1, 2 ** draw(st.integers(min_value=0, max_value=400)))


@given(wide_fractions(), st.sampled_from([53, 128, 256]))
@settings(max_examples=500, deadline=None)
def test_to_mpf_rounds_a_fraction_once(f, precision):
    x = to_mpf(f, precision)
    assert to_fraction(x) == _nearest_even(f, precision)
    assert abs(mantissa_pair(x)[0]).bit_length() <= precision


def test_rel_diff_sees_the_operands_last_bit():
    # Two 256-bit values one unit in the last place apart: the gap is about
    # 2^-255, far below what a 128-bit difference can represent.
    a = to_mpf(1, 256)
    b = to_mpf(1 + Fraction(1, 2 ** 255), 256)
    assert rel_diff(a, b) == float(Fraction(1, 2 ** 255) / (1 + Fraction(1, 2 ** 255)))
    assert rel_diff(a, a) == 0.0 and rel_diff(0, 0.0) == 0.0


def _fraction_rel_diff(a, b) -> float:
    """The Fraction form of rel_diff, kept as its oracle."""
    fa, fb = to_fraction(a), to_fraction(b)
    if fa == fb:
        return 0.0
    return float(abs(fa - fb) / max(abs(fa), abs(fb)))


@st.composite
def rel_diff_operands(draw):
    """Two numbers of any supported type: equal, opposite, one zero, a
    relative gap down to 2**-1200, or unrelated."""
    sign = draw(st.sampled_from([1, -1]))
    p = draw(st.integers(min_value=1, max_value=2 ** 200))
    a = sign * Fraction(p, draw(st.sampled_from([1, 3, 2 ** 60, 10 ** 30])))
    relation = draw(st.sampled_from(["equal", "opposite", "zero", "near", "other"]))
    if relation == "equal":
        b = a
    elif relation == "opposite":
        b = -a
    elif relation == "zero":
        b = Fraction(0)
    elif relation == "near":
        b = a * (1 + draw(st.sampled_from([1, -1])) / Fraction(2) ** draw(
            st.integers(min_value=1, max_value=1200)))
    else:
        b = Fraction(draw(st.integers(min_value=-2 ** 200, max_value=2 ** 200)),
                     draw(st.integers(min_value=1, max_value=2 ** 100)))
    if draw(st.booleans()):
        a, b = b, a

    def as_type(f):
        kind = draw(st.sampled_from(["mpf", "float", "fraction", "int"]))
        if kind == "mpf":
            return to_mpf(f, draw(st.integers(min_value=53, max_value=1100)))
        if kind == "float":
            return float(f)
        return f if kind == "fraction" else int(f)

    return as_type(a), as_type(b)


@given(rel_diff_operands())
@settings(max_examples=1000, deadline=None)
def test_rel_diff_matches_the_fraction_formula(operands):
    a, b = operands
    got = rel_diff(a, b)
    assert type(got) is float
    assert got.hex() == _fraction_rel_diff(a, b).hex(), (a, b)


def test_rel_diff_of_gaps_below_the_least_float():
    # Relative gaps of 2**-1060 and 2**-1090 between 1100-bit values: the
    # first is subnormal, the second rounds to 0.0, in both formulas.
    one = to_mpf(1, 1100)
    for shift, expected in ((1060, 2.0 ** -1060), (1090, 0.0)):
        near = to_mpf(1 + Fraction(1, 2 ** shift), 1100)
        for a, b in ((one, near), (near, one), (Fraction(1), 1 + Fraction(1, 2 ** shift))):
            assert rel_diff(a, b) == _fraction_rel_diff(a, b), shift
        assert rel_diff(one, near) == expected
    assert rel_diff(0, mpf(0)) == rel_diff(Fraction(0), 0.0) == 0.0
    assert rel_diff(mpf(-3), 3) == 2.0 and rel_diff(2.5, 0) == 1.0


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                   mpf("nan"), mpf("inf"), mpf("-inf")])
def test_rel_diff_refuses_non_finite_values(value):
    message = f"^cannot convert non-finite value {re.escape(str(value))} to a rational$"
    for a, b in ((value, 1), (Fraction(1, 3), value), (value, value)):
        with pytest.raises(DomainError, match=message):
            rel_diff(a, b)


def test_junction_gaps_equal_the_fraction_formulas(monkeypatch):
    cc = build_goldbach(GoldbachSpec(alpha=480, seed=5))
    gaps = junction_gaps(cc).gaps
    monkeypatch.setattr(construction, "rel_diff", _fraction_rel_diff)
    oracle = junction_gaps(cc).gaps
    assert list(gaps) == list(oracle) == list(range(5, 240))
    assert [g.hex() for g in gaps.values()] == [g.hex() for g in oracle.values()]


def test_values_beyond_the_digit_limit_are_domain_errors(low_digit_limit):
    # The limit stays in force: an exact value it refuses is a DomainError
    # that names the limit, and the refused input is not echoed.
    wide = "7" * (low_digit_limit + 1)
    for value in (Fraction(10 ** low_digit_limit), Fraction(1, 3 ** 1400)):
        with pytest.raises(DomainError, match="640-digit limit") as info:
            format_exact(value)
        assert len(str(info.value)) < 100
    for text in (wide, f"1/{wide}", f"0.{wide}", f"1e{wide}"):
        with pytest.raises(DomainError, match="640-digit limit") as info:
            parse_exact(text)
        assert len(str(info.value)) < 100
    assert parse_exact("7" * low_digit_limit) == (10 ** low_digit_limit - 1) // 9 * 7
    with pytest.raises(DomainError, match="cannot parse number 'x7'"):
        parse_exact("x7")


@st.composite
def ratios_to_round(draw):
    """(p, q, precision): wide ratios of either sign, unreduced, and exact ties."""
    precision = draw(st.integers(min_value=53, max_value=300))
    sign = draw(st.sampled_from([1, -1]))
    kind = draw(st.sampled_from(["wide", "tie", "near-tie", "integer"]))
    if kind == "wide":
        p = draw(st.integers(min_value=1, max_value=2 ** 600))
        q = draw(st.integers(min_value=1, max_value=2 ** 600))
    elif kind == "integer":
        p, q = draw(st.integers(min_value=1, max_value=2 ** 400)), 1
    else:
        # (2m + 1) / 2**e with m of precision bits lies halfway between two
        # neighbours; near-tie moves it by one unit of a wider denominator.
        m = draw(st.integers(min_value=1 << (precision - 1), max_value=(1 << precision) - 1))
        e = draw(st.integers(min_value=-300, max_value=300))
        p, q = (2 * m + 1) << max(e, 0), 1 << max(-e, 0)
        if kind == "near-tie":
            p, q = 4 * p + draw(st.sampled_from([-1, 1])), 4 * q
    odd = draw(st.integers(min_value=0, max_value=50)) * 2 + 1  # an unreduced ratio
    return sign * p * odd, q * odd, precision


@given(ratios_to_round())
@settings(max_examples=1000, deadline=None)
def test_round_ratio_matches_mpmaths_from_rational(case):
    p, q, precision = case
    man, exp = round_ratio(p, q, precision)
    assert abs(man) <= 2 ** precision
    assert from_man_exp(man, exp) == from_rational(p, q, precision, round_nearest)


def test_round_ratio_of_zero():
    assert round_ratio(0, 7, 53) == (0, 0)
    assert to_mpf(Fraction(0), 53) == 0


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                   mpf("nan"), mpf("inf"), mpf("-inf")])
def test_non_finite_values_have_no_fraction(value):
    with pytest.raises(DomainError, match=r"^cannot convert non-finite value .* to a rational$"):
        to_fraction(value)


def test_a_decimal_exponent_past_the_digit_limit_is_refused():
    # Fraction would first compute 10**(10**7), which takes seconds.
    limit = sys.get_int_max_str_digits()
    for text in ("1e10000000", "1e-10000000", f"1e{limit + 1}", f"2.5E-{limit + 1}"):
        with pytest.raises(DomainError, match=f"^cannot parse a decimal exponent beyond the "
                                              f"{limit}-digit limit"):
            parse_exact(text)
    assert parse_exact("1e-6") == Fraction(1, 10 ** 6)
    assert parse_exact(f"1e{limit}") == 10 ** limit
    assert parse_exact(" 25e-1 ") == Fraction(5, 2)
