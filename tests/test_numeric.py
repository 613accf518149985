"""Exact conversions between binary floats, mantissa pairs and Fractions, one
rounding rule for every float operation, and format_real's digits."""

import copy
import json
import math
import os
import pickle
import random
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import (
    from_int,
    from_man_exp,
    from_rational,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_mul_int,
    mpf_rdiv_int,
    mpf_sqrt,
    mpf_sub,
    round_nearest,
)

import hypgold
import hypgold.cli as cli_mod
from hypgold.construction import GoldbachSpec, build_goldbach, junction_gaps
from hypgold.errors import DomainError
from hypgold.numeric import (
    FORMAT_PRECISION,
    BinaryFloat,
    _add,
    _div,
    _mul,
    _round,
    _sqrt,
    _sub,
    format_exact,
    format_real,
    mantissa_pair,
    parse_exact,
    round_ratio,
    to_fraction,
    to_mpf,
)
from hypgold.reference import rel_diff


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


def _mpf_junction_gaps(cc) -> dict:
    """junction_gaps' oracle: each side in mpmath.libmp at the run's
    precision, the gap between the two sides over Fractions."""
    alpha, prec = cc.alpha, cc.precision

    def raw(v):
        return from_man_exp(v.man, v.exp)

    def side(k0, k, m):
        lower = mpf_div(raw(cc.x[k]), mpf_mul(from_int(k0), raw(cc.xi_sq[k]), prec, round_nearest),
                        prec, round_nearest)
        upper = mpf_div(raw(cc.x[alpha - k - 1]),
                        mpf_mul(from_int(alpha - k0), raw(cc.xi_sq[m]), prec, round_nearest),
                        prec, round_nearest)
        return mp.make_mpf(mpf_sub(lower, upper, prec, round_nearest))

    return {k0: _fraction_rel_diff(side(k0, k0 - 1, alpha - k0), side(k0, k0, alpha - k0 - 1))
            for k0 in range(5, alpha // 2)}


def test_junction_gaps_equal_the_fraction_formulas():
    # junction_gaps divides the two sides' aligned mantissas; the oracle
    # shares neither its rounding nor its division.
    for alpha, seed, precision in ((480, 5, 128), (210, 1, 53), (132, 2, 256)):
        cc = build_goldbach(GoldbachSpec(alpha=alpha, seed=seed), precision)
        gaps, oracle = junction_gaps(cc).gaps, _mpf_junction_gaps(cc)
        assert list(gaps) == list(oracle) == list(range(5, alpha // 2))
        assert [g.hex() for g in gaps.values()] == [g.hex() for g in oracle.values()]
        assert any(g > 0 for g in gaps.values())


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


# --- BinaryFloat: the value numeric's rounded arithmetic returns ---------------


def test_binary_float_compares_and_hashes_by_value():
    a, b = BinaryFloat(6, -2), BinaryFloat(3, -1)
    assert (a.man, a.exp) == (3, -1)  # held with an odd mantissa
    assert a == b and not a != b and hash(a) == hash(b)
    assert hash(a) == hash(1.5) == hash(Fraction(3, 2)) == hash(mpf(1.5))
    assert BinaryFloat(8, 0) == 8 == BinaryFloat(1, 3) and hash(BinaryFloat(1, 3)) == hash(8)
    assert BinaryFloat(0, 7) == 0 and BinaryFloat(0, 7).exp == 0 and not BinaryFloat(0, 7)
    tiny = BinaryFloat(-5, -3000)
    assert hash(tiny) == hash(Fraction(-5, 2 ** 3000)) == hash(mp.make_mpf(tiny._mpf_))
    assert BinaryFloat(-1, 10 ** 6) < tiny < 0 < BinaryFloat(1, -10 ** 6) < b <= a < 2
    assert -a == BinaryFloat(-3, -1) and abs(-a) == a and float(a) == 1.5
    # Fractions and floats compare by value too, so equal values are one dict key.
    assert a == Fraction(3, 2) == a and a == 1.5 == a and not a != Fraction(3, 2)
    assert {Fraction(3, 2): "f"}.get(a) == "f" and {a: "b"}.get(1.5) == "b"
    assert a < Fraction(2) and Fraction(1) < a <= 1.5 and a > 1.25 and 2.0 > a
    assert tiny < Fraction(-1, 2 ** 3001) and tiny != -0.0 and -0.0 > tiny
    assert BinaryFloat(1, 2000) > sys.float_info.max and BinaryFloat(1, 2000) != math.inf
    # nan is unequal and unordered; the infinities order as floats do.
    nan = math.nan
    assert a != nan and not (a == nan or a < nan or a <= nan or a > nan or a >= nan)
    assert -math.inf < tiny < math.inf and BinaryFloat(1, 2000) < math.inf
    assert a <= math.inf and a >= -math.inf and not a > math.inf and math.inf > a


def test_binary_float_leaves_other_types_to_them():
    a = BinaryFloat(3, -1)
    for other in (complex(1.5), Decimal("1.5"), "1.5", None):
        assert a.__eq__(other) is NotImplemented and a.__lt__(other) is NotImplemented
    with pytest.raises(TypeError):
        a < "2"
    # mpmath reads _mpf_, so mpf operands and comparisons work at its precision.
    assert mpf(a) == 1.5 and a == mpf(1.5) and a < mpf(2) and mpf(1) < a
    assert a * mpf(2) == 3 and 1 / mpf(a) == mpf(2) / 3
    assert mantissa_pair(a) == (3, -1) and to_mpf(a, 53) == 1.5


def test_binary_float_is_an_immutable_scalar():
    a = BinaryFloat(3, -1)
    assert not isinstance(a, tuple)  # the CLI writes tuples as JSON arrays
    with pytest.raises(AttributeError):
        a.man = 5
    assert pickle.loads(pickle.dumps(a)) == a and copy.deepcopy(a) == a
    text = cli_mod.canonical_json({"t": (a, Fraction(1, 3)), "v": a})
    assert json.loads(text) == {"t": ["1.5", "1/3"], "v": "1.5"}


@given(st.integers(min_value=-2 ** 70, max_value=2 ** 70), st.integers(min_value=-80, max_value=80),
       st.integers(min_value=-2 ** 70, max_value=2 ** 70), st.integers(min_value=-80, max_value=80))
@settings(max_examples=300, deadline=None)
def test_binary_float_order_is_the_rational_order(am, ae, bm, be):
    a, b = BinaryFloat(am, ae), BinaryFloat(bm, be)
    fa, fb = to_fraction(a), to_fraction(b)
    assert fa == Fraction(am) * Fraction(2) ** ae
    assert (a < b, a == b, a > b, a <= b) == (fa < fb, fa == fb, fa > fb, fa <= fb)
    assert (a == b) <= (hash(a) == hash(b))


_CARRIERS_WITHOUT_MPMATH = """
import sys
from hypgold.numeric import (BinaryFloat, _integer_ratio, format_exact, format_real,
                             mantissa_pair, to_fraction)
from hypgold.errors import DomainError
from hypgold.reference import rel_diff

class Carrier:
    def __init__(self, raw):
        self._mpf_ = raw

x = Carrier((1, 3, -1, 2))  # -1.5 in mpmath's raw form
print(to_fraction(x), _integer_ratio(x), mantissa_pair(x), format_exact(x), format_real(x),
      rel_diff(x, BinaryFloat(3, -1)), format_real(BinaryFloat(1, -1)))
for raw in ((0, 0, -123, -1), (0, 0, -456, -2), (1, 0, -789, -3)):
    try:
        to_fraction(Carrier(raw))
    except DomainError:
        print(format_real(Carrier(raw)))
print("mpmath" in sys.modules)
"""


def test_carriers_are_read_without_importing_mpmath(tmp_path):
    # A raw form with a zero mantissa and a non-zero exponent is nan or an infinity.
    src = os.path.dirname(os.path.dirname(hypgold.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _CARRIERS_WITHOUT_MPMATH], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=60, check=True).stdout
    assert out.splitlines() == ["-3/2 (-3, 2) (-3, -1) -3/2 -1.5 2.0 0.5",
                                "nan", "+inf", "-inf", "False"]


# --- The rounded arithmetic against mpmath.libmp --------------------------------

WIDE_PRECS = st.integers(min_value=53, max_value=1100)


@st.composite
def pair_operands(draw, prec):
    """(mantissa, exponent) of at most prec bits: random, small odd factors
    that make products tie, all ones, or zero."""
    kind = draw(st.sampled_from(["random", "small", "ones", "zero"]))
    if kind == "zero":
        m = 0
    elif kind == "small":
        m = draw(st.sampled_from([1, 3, 5, 7, 9, 2 ** 20 + 1]))
    elif kind == "ones":
        m = (1 << draw(st.integers(min_value=1, max_value=prec))) - 1
    else:
        bits = draw(st.integers(min_value=1, max_value=prec))
        m = draw(st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1))
    return draw(st.sampled_from([1, -1])) * m, draw(st.integers(min_value=-3000, max_value=3000))


def _raw(pair):
    return from_man_exp(*pair)


@st.composite
def near_ties(draw, prec):
    """A mantissa whose bits below its top prec are a tie, a near-tie or random."""
    n = draw(st.integers(min_value=0, max_value=2 * prec))
    q = draw(st.integers(min_value=1 << (prec - 1), max_value=(1 << prec) - 1))
    below = draw(st.sampled_from(["tie", "above", "under", "random"])) if n else "random"
    if below == "random":
        low = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    else:
        low = (1 << (n - 1)) + {"tie": 0, "above": 1, "under": -1}[below]
    return draw(st.sampled_from([1, -1])) * ((q << n) + low)


@given(data=st.data(), prec=WIDE_PRECS, e=st.integers(min_value=-10 ** 5, max_value=10 ** 5))
@settings(max_examples=400, deadline=None)
def test_round_matches_mpmath(data, prec, e):
    m = data.draw(near_ties(prec))
    assert _raw(_round(m, e, prec)) == from_man_exp(m, e, prec, "n")


@given(data=st.data(), prec=WIDE_PRECS)
@settings(max_examples=300, deadline=None)
def test_mul_and_int_products_match_mpmath(data, prec):
    a, b = data.draw(pair_operands(prec)), data.draw(pair_operands(prec))
    assert _raw(_mul(a, b, prec)) == mpf_mul(_raw(a), _raw(b), prec, "n")
    n = data.draw(st.integers(min_value=-2 ** 64, max_value=2 ** 64))
    assert _raw(_mul((n, 0), b, prec)) == mpf_mul_int(_raw(b), n, prec, "n")


@given(data=st.data(), prec=WIDE_PRECS,
       gap=st.one_of(st.integers(min_value=0, max_value=700),
                     st.integers(min_value=-3, max_value=3).map(lambda d: ("edge", d)),
                     st.integers(min_value=0, max_value=10 ** 5)),
       tie=st.booleans())
@settings(max_examples=500, deadline=None)
def test_add_and_sub_match_mpmath(data, prec, gap, tie):
    # Exponent gaps up to and past 2*prec + 8, where _add stops aligning.
    if isinstance(gap, tuple):
        gap = 2 * prec + 8 + gap[1]
    a = data.draw(pair_operands(prec))
    if tie:
        # A single 1 just under a's last bit: an exact tie when a has prec bits.
        b = (data.draw(st.sampled_from([1, -1])), a[1] - 1 - gap)
    else:
        m, e = data.draw(pair_operands(prec))
        b = (m, e - gap)
    for x, y in ((a, b), (b, a)):
        assert _raw(_add(x, y, prec)) == mpf_add(_raw(x), _raw(y), prec, "n")
        assert _raw(_sub(x, y, prec)) == mpf_sub(_raw(x), _raw(y), prec, "n")
    n = data.draw(st.integers(min_value=-2 ** 52, max_value=2 ** 52))
    assert _raw(_sub(a, (n, 0), prec)) == mpf_sub(_raw(a), from_int(n), prec, "n")


@given(data=st.data(), prec=WIDE_PRECS, kind=st.sampled_from(["random", "exact", "tie"]))
@settings(max_examples=400, deadline=None)
def test_div_and_int_quotients_match_mpmath(data, prec, kind):
    b = data.draw(pair_operands(prec))
    if not b[0]:
        b = (1, b[1])
    if kind == "random":
        a = data.draw(pair_operands(prec))
    else:
        # An exact quotient of at most prec bits, or one of prec + 1 bits
        # that ends in 1: halfway between two neighbours at prec bits.
        bits = prec if kind == "exact" else prec + 1
        q = data.draw(st.integers(min_value=1, max_value=(1 << bits) - 1)) | (kind == "tie")
        if kind == "tie":
            q |= 1 << prec
        a = (q * b[0], b[1] + data.draw(st.integers(min_value=-50, max_value=50)))
    assert _raw(_div(a, b, prec)) == mpf_div(_raw(a), _raw(b), prec, "n")
    n = data.draw(st.integers(min_value=-2 ** 64, max_value=2 ** 64))
    assert _raw(_div((n, 0), b, prec)) == mpf_rdiv_int(n, _raw(b), prec, "n")
    with pytest.raises(ZeroDivisionError):
        _div(a, (0, 0), prec)


@given(data=st.data(), prec=WIDE_PRECS, kind=st.sampled_from(["random", "square", "tie"]))
@settings(max_examples=400, deadline=None)
def test_sqrt_matches_mpmath(data, prec, kind):
    if kind == "random":
        m, e = data.draw(pair_operands(prec))
        a = (abs(m), e)
    else:
        # r**2 with r of at most prec bits is exact; r of prec + 1 bits ending
        # in 1 is a root halfway between two neighbours.
        bits = prec if kind == "square" else prec + 1
        r = data.draw(st.integers(min_value=1, max_value=(1 << bits) - 1))
        if kind == "tie":
            r |= 1 | 1 << prec
        a = (r * r, 2 * data.draw(st.integers(min_value=-1000, max_value=1000)))
    assert _raw(_sqrt(a, prec)) == mpf_sqrt(_raw(a), prec, "n")


def test_sqrt_of_a_negative_value_is_a_domain_error():
    with pytest.raises(DomainError, match="square root of a negative number"):
        _sqrt((-4, 0), 53)


# --- format_real against mpmath.nstr at 53 bits ---------------------------------


def _nstr53(x) -> str:
    """What format_real printed in a 53-bit process: a Fraction went to
    to_mpf's 128 bits first, then everything through mpf() at 53."""
    with mp.workprec(FORMAT_PRECISION):
        if isinstance(x, Fraction):
            x = to_mpf(x)
        return mpmath.nstr(mpf(x), 17, strip_zeros=True)


def _near_powers_of_ten():
    """Values whose leading decimal digit sits at or next to the fixed/exponent boundary."""
    k = st.integers(min_value=-8, max_value=20)
    nudge = st.integers(min_value=-3, max_value=3)
    return st.one_of(
        st.builds(lambda k, d: Fraction(10) ** k + d * Fraction(10) ** (k - 17), k, nudge),
        st.builds(lambda k, d: float(Fraction(10) ** k) * (1 + d * 2.0 ** -52), k, nudge),
        st.builds(lambda k, s: Fraction(10) ** k - Fraction(1, 2 ** s), k,
                  st.integers(min_value=1, max_value=80)),
    )


_REALS = st.one_of(
    _near_powers_of_ten(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-2 ** 200, max_value=2 ** 200),
    st.fractions(),
    st.builds(lambda p, q: Fraction(p, q), st.integers(min_value=-2 ** 300, max_value=2 ** 300),
              st.integers(min_value=1, max_value=2 ** 300)),
    st.builds(lambda m, e: mp.make_mpf(from_man_exp(m, e)),
              st.integers(min_value=-2 ** 300, max_value=2 ** 300),
              st.integers(min_value=-400, max_value=200)),
    st.builds(BinaryFloat, st.integers(min_value=-2 ** 130, max_value=2 ** 130),
              st.integers(min_value=-200, max_value=100)),
    # Leading bits beyond 2**3500 or below 2**-3500, where mpmath scales by 10**b first.
    st.builds(lambda m, e: mp.make_mpf(from_man_exp(m, e)),
              st.integers(min_value=-2 ** 80, max_value=2 ** 80),
              st.one_of(st.integers(min_value=3400, max_value=6000),
                        st.integers(min_value=-6000, max_value=-3400))),
)


@given(_REALS)
@settings(max_examples=1500, deadline=None)
def test_format_real_prints_what_mpmath_printed_at_53_bits(x):
    assert format_real(x) == _nstr53(x)


@pytest.mark.parametrize("x", [
    0, 0.0, -0.0, Fraction(0), mpf(0), BinaryFloat(0), 1, -1, 10 ** 17, 10 ** 17 - 1, 99999.5,
    1e-5, 9.9999999999999995e-6, 1e-4, 0.1, 1e16, 1e17, 9.99999999999999999e16, -123.456,
    Fraction(-2, 3), Fraction(1, 10 ** 6), mpf("nan"), mpf("inf"), mpf("-inf"),
    float("nan"), float("inf"), float("-inf"), 2.0 ** 1023, 5e-324,
])
def test_format_real_edges(x):
    assert format_real(x) == _nstr53(x)


def test_format_real_prints_binary_floats_as_mpmath_did():
    # BinaryFloats take format_real's first branch; exponents up to +-4000
    # put leading bits beyond 2**3500 or below 2**-3500 in the mpmath branch.
    rng = random.Random(5)
    tops = 0
    for _ in range(3000):
        man = rng.getrandbits(rng.randrange(1, 300)) * rng.choice((1, -1))
        x = BinaryFloat(man, rng.randrange(-4000, 4001))
        tops += abs(x.exp + abs(x.man).bit_length()) > 3500
        assert format_real(x) == _nstr53(x), x
    assert tops > 100


def test_format_real_of_a_wide_value_stays_under_the_digit_limit(low_digit_limit):
    # 2**3400 has 1024 decimal digits; format_real converts only its leading ones.
    x = BinaryFloat(-3, 3400)
    sys.set_int_max_str_digits(0)
    expected = _nstr53(x)
    sys.set_int_max_str_digits(low_digit_limit)
    assert format_real(x) == expected == "-9.5302986930575041e+1023"


def test_format_real_ignores_mpmaths_working_precision():
    # The CLI printed at mpmath's default 53 bits, the test suite at 128:
    # the rounding is now FORMAT_PRECISION, wherever format_real runs.
    x = to_mpf(Fraction(1, 3), 128)
    printed = set()
    for prec in (53, 128, 300):
        with mp.workprec(prec):
            printed.add(format_real(x))
    assert printed == {"0.33333333333333331"}
    with mp.workprec(128):
        assert mpmath.nstr(mpf(x), 17, strip_zeros=True) == "0.33333333333333333"
