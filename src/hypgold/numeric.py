"""Numbers: exact rationals, and one binary-float arithmetic for square roots.

Exact rationals (``fractions.Fraction``) are the default wherever every
quantity stays rational.  A float coding's values, and every value once
square roots enter, are binary floats man * 2**exp (``BinaryFloat``):
each is rounded once, to nearest with ties to even, at a precision the
caller names (128-bit mantissas by default).  That is the rounding
mpmath's mpf operations apply, so the bits are the ones mpf arithmetic
gives at the same precision, but no mpf is made: nothing here imports
mpmath.  An mpf, or any value carrying mpmath's raw ``_mpf_`` form, is
still read as an operand, and a ``BinaryFloat`` carries that form too,
so the tests' mpmath oracles and these values exchange bits directly.
Numbers serialize as exact ``"p/q"`` strings in both modes, so round
trips are lossless.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Union

from .errors import DomainError

MODE_RATIONAL = "rational"
MODE_FLOAT = "float"
MODES = (MODE_RATIONAL, MODE_FLOAT)

DEFAULT_PRECISION = 128  # mantissa bits for float mode
MIN_PRECISION = 53  # a double's mantissa: the least a run or a coding may ask for
# The most a run or a coding file may ask for.  From 16384 bits up, build-g
# builds a whole construction (19 s at 262144 bits) whose coding file then
# passes Python's int/str digit limit; 8192 bits is twice the 4096 that a
# construction near alpha 10002 needs.
MAX_PRECISION = 8192
FORMAT_PRECISION = 53  # bits format_real rounds a value to before printing it
DEFAULT_REL_TOL = 1e-9

Number = Union[int, Fraction, float, "BinaryFloat", "mpf"]

_HASH_MODULUS = sys.hash_info.modulus


class BinaryFloat:
    """The exact binary float man * 2**exp, held with man odd or zero.

    It has no precision of its own: ``_mul``, ``_div``, ``_add``, ``_sub``
    and ``_sqrt`` round (man, exp) pairs at the precision each call names,
    and a value wraps their result.  Negation, abs and comparisons are
    exact; comparisons and hashing go by value, so ``BinaryFloat(3, -1) ==
    Fraction(3, 2) == 1.5`` and equal values hash as equal ints, floats,
    Fractions and mpfs do.  A float nan is unequal and unordered, and the
    infinities order as floats do.  Other operand types get
    ``NotImplemented``.  ``_mpf_`` makes a value an mpmath operand:
    ``mpf(v)``, ``v * mpf(...)`` and comparisons with an mpf work, at
    mpmath's working precision.  It is not a tuple, so the CLI's encoder
    prints it as a number.
    """

    __slots__ = ("man", "exp")

    def __init__(self, man: int, exp: int = 0):
        if man:
            zeros = (man & -man).bit_length() - 1
            man >>= zeros
            exp += zeros
        else:
            exp = 0
        object.__setattr__(self, "man", man)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable BinaryFloat")

    __delattr__ = __setattr__

    def __reduce__(self):
        return BinaryFloat, (self.man, self.exp)

    def __repr__(self):
        return f"BinaryFloat({self.man}, {self.exp})"

    @property
    def _mpf_(self) -> tuple:
        """mpmath's raw form (sign, odd mantissa, exponent, bit count)."""
        m = self.man
        return (1, -m, self.exp, (-m).bit_length()) if m < 0 else (0, m, self.exp, m.bit_length())

    def _order(self, other):
        """-1, 0 or 1 as self is below, equal to or above other.

        A nan gives nan, which every comparison with 0 rejects; other
        types get NotImplemented.
        """
        if other.__class__ is BinaryFloat:
            return _cmp((self.man, self.exp), (other.man, other.exp))
        if isinstance(other, int):
            return _cmp((self.man, self.exp), (other, 0))
        if isinstance(other, Fraction):
            p, q = _integer_ratio(self)
            a, b = p * other.denominator, other.numerator * q
            return (a > b) - (a < b)
        if isinstance(other, float):
            if math.isfinite(other):
                return _cmp((self.man, self.exp), _pair(other))
            return other if other != other else (-1 if other > 0 else 1)
        return NotImplemented

    def __eq__(self, other):
        order = self._order(other)
        return order if order is NotImplemented else order == 0

    def __lt__(self, other):
        order = self._order(other)
        return order if order is NotImplemented else order < 0

    def __le__(self, other):
        order = self._order(other)
        return order if order is NotImplemented else order <= 0

    def __gt__(self, other):
        order = self._order(other)
        return order if order is NotImplemented else order > 0

    def __ge__(self, other):
        order = self._order(other)
        return order if order is NotImplemented else order >= 0

    def __hash__(self):
        # Python's hash of the rational man * 2**exp (see the numeric types'
        # hashing rules); pow(2, exp, P) is a modular inverse when exp < 0.
        h = abs(self.man) % _HASH_MODULUS * pow(2, self.exp, _HASH_MODULUS) % _HASH_MODULUS
        h = -h if self.man < 0 else h
        return -2 if h == -1 else h

    def __neg__(self):
        return BinaryFloat(-self.man, self.exp)

    def __abs__(self):
        return BinaryFloat(abs(self.man), self.exp)

    def __bool__(self):
        return self.man != 0

    def __float__(self):
        man, exp = self.man, self.exp
        return float(man << exp) if exp >= 0 else man / (1 << -exp)


def to_fraction(x: Number) -> Fraction:
    """Exact conversion to Fraction; floats and mpf are binary rationals."""
    if isinstance(x, Fraction):
        return x
    return Fraction(*_integer_ratio(x))


def _integer_ratio(x: Number) -> tuple:
    """x as (numerator, denominator), denominator > 0, exact and not reduced: no gcd runs."""
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, int):
        return x, 1
    man, exp = _pair(x)
    return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)


def _pair(x) -> tuple:
    """A finite binary value as (signed int mantissa, exponent): x = man * 2**exp.

    Reads a BinaryFloat, an int, a float or any object carrying mpmath's
    raw ``_mpf_`` form, without importing mpmath.  A raw form with a zero
    mantissa and a non-zero exponent is mpmath's nan or an infinity.
    """
    if x.__class__ is BinaryFloat:
        return x.man, x.exp
    if isinstance(x, int):
        return x, 0
    if isinstance(x, float):
        if not math.isfinite(x):
            raise DomainError(f"cannot convert non-finite value {x} to a rational")
        p, q = x.as_integer_ratio()
        return p, 1 - q.bit_length()
    if not hasattr(x, "_mpf_"):
        raise TypeError(f"unsupported numeric type {type(x).__name__}")
    man, exp = mantissa_pair(x)
    if not man and exp:
        raise DomainError(f"cannot convert non-finite value {x} to a rational")
    return man, exp


def mantissa_pair(x) -> tuple:
    """An mpf, or any ``_mpf_`` carrier, as (signed int mantissa, exponent): x = man * 2**exp.

    int() strips the gmpy2 mpz the backend may hand out.
    """
    sign, man, exp, _ = x._mpf_
    return (-int(man) if sign else int(man)), int(exp)


def round_ratio(p: int, q: int, precision: int) -> tuple:
    """p/q, for q > 0, rounded once to precision significant bits, to nearest with ties to even.

    Returns (man, exp), the value man * 2**exp, with |man| < 2**precision
    unless the rounding carried to |man| = 2**precision.  man is not
    reduced to odd, so exp depends only on the binade of p/q, and it grows
    with |p/q|.
    """
    if not p:
        return 0, 0
    a = -p if p < 0 else p
    # 2**(d-1) < a/q < 2**(d+1) for d = bits(a) - bits(q): a * 2**shift / q
    # lies in [2**(precision-1), 2**precision) after at most one correction.
    shift = precision - a.bit_length() + q.bit_length()
    num, den = (a << shift, q) if shift >= 0 else (a, q << -shift)
    if num >= den << precision:
        shift -= 1
        den <<= 1
    man, rest = divmod(num, den)
    rest <<= 1
    if rest > den or (rest == den and man & 1):
        man += 1
    return (man if p > 0 else -man), -shift


def _round_number(x: Number, prec: int) -> tuple:
    """x rounded once to prec bits, to nearest with ties to even, as a pair."""
    if isinstance(x, Fraction):
        return round_ratio(x.numerator, x.denominator, prec)
    return _round(*_pair(x), prec)


def _round(m: int, e: int, prec: int) -> tuple:
    """m*2**e rounded to prec bits, to nearest with ties to even."""
    n = m.bit_length() - prec
    if n <= 0:
        return m, e
    half = 1 << (n - 1)
    t = m + half
    q = t >> n
    if q & 1 and not t & ((half << 1) - 1):
        q -= 1  # a tie went up to odd; the even neighbour is below
    return q, e + n


def _add(a: tuple, b: tuple, prec: int) -> tuple:
    """a+b rounded to prec bits, for operands of at most prec significant bits.

    The exact sum of the aligned mantissas is rounded, unless the exponent
    gap passes 2*prec + 8: the operand with the smaller exponent then lies
    far below half the other's last place, so the sum rounds to the larger
    operand, as mpf_add's sticky rule rounds it, and no int grows past
    O(prec) bits.
    """
    (am, ae), (bm, be) = a, b
    d = ae - be
    if d < 0:
        am, ae, bm, be, d = bm, be, am, ae, -d
    if d > 2 * prec + 8 and am:
        return am, ae
    return _round((am << d) + bm, be, prec)


def _sub(a: tuple, b: tuple, prec: int) -> tuple:
    """a-b rounded to prec bits, for operands of at most prec significant bits."""
    return _add(a, (-b[0], b[1]), prec)


def _mul(a: tuple, b: tuple, prec: int) -> tuple:
    """a*b rounded to prec bits: one exact int product, rounded."""
    return _round(a[0] * b[0], a[1] + b[1], prec)


def _div(a: tuple, b: tuple, prec: int) -> tuple:
    """a/b rounded to prec bits; ZeroDivisionError when b is 0."""
    (am, ae), (bm, be) = a, b
    if not bm:
        raise ZeroDivisionError("division by zero")
    if bm < 0:
        am, bm = -am, -bm
    man, exp = round_ratio(am, bm, prec)
    return man, exp + ae - be


def _sqrt(a: tuple, prec: int) -> tuple:
    """The square root of a >= 0 rounded to prec bits.

    The int root carries at least prec + 2 bits, and an inexact root gets
    one more, odd bit, so no tie is seen that the exact root does not make.
    """
    m, e = a
    if m < 0:
        raise DomainError("square root of a negative number")
    if not m:
        return 0, 0
    if e & 1:
        m, e = m << 1, e - 1
    shift = max(4, 2 * prec - m.bit_length() + 4)
    shift += shift & 1
    m <<= shift
    root = math.isqrt(m)
    if root * root != m:
        root, shift = 2 * root + 1, shift + 2
    return _round(root, (e - shift) // 2, prec)


def _cmp(a: tuple, b: tuple) -> int:
    """-1, 0 or 1 as the pair a is below, equal to or above the pair b."""
    (am, ae), (bm, be) = a, b
    sa, sb = (am > 0) - (am < 0), (bm > 0) - (bm < 0)
    if sa != sb or not sa:
        return (sa > sb) - (sa < sb)
    ta, tb = abs(am).bit_length() + ae, abs(bm).bit_length() + be
    if ta != tb:
        return sa if ta > tb else -sa
    # Same leading bit: the alignment shift is below either mantissa's width.
    d = ae - be
    am, bm = (am << d, bm) if d >= 0 else (am, bm << -d)
    return (am > bm) - (am < bm)


def _digit_limit() -> str:
    # Values beyond it are refused, the limit never lifted: it keeps typed
    # input from costing quadratic time.
    return f"the {sys.get_int_max_str_digits()}-digit limit of Python's int/str conversion"


# The exponent of a decimal in Fraction's syntax, e.g. the "-6" of "1e-6".
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def parse_exact(text: str) -> Fraction:
    """Parse a ``"p/q"`` or decimal string exactly.

    A decimal exponent past the digit limit is refused before Fraction
    computes its power of ten: ``1e10000000`` would take seconds.
    """
    limit = sys.get_int_max_str_digits()
    exponent = _EXPONENT.search(text)
    if limit and exponent:
        digits = exponent.group(1)
        if len(digits) > limit or abs(int(digits)) > limit:
            raise DomainError(f"cannot parse a decimal exponent beyond {_digit_limit()}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        if 0 < limit < len(text):
            raise DomainError(
                f"cannot parse a number of {len(text)} characters: beyond {_digit_limit()}"
            ) from exc
        raise DomainError(f"cannot parse number {text!r}") from exc


def format_exact(x: Number) -> str:
    """Serialize as an exact ``"p/q"`` (or plain integer) string."""
    f = to_fraction(x)
    try:
        if f.denominator == 1:
            return str(f.numerator)
        return f"{f.numerator}/{f.denominator}"
    except ValueError as exc:
        raise DomainError(f"cannot print an exact value beyond {_digit_limit()}") from exc


def bounded_str(x: Number) -> str:
    """str(x) for a message, or a note of the digit limit where str refuses x."""
    try:
        return str(x)
    except ValueError:
        return f"<a number beyond {_digit_limit()}>"


# format_real's layout, as mpmath.nstr(x, 17, strip_zeros=True) sets it: 17
# digits, fixed notation for decimal exponents -5 < e < 17, and digits
# first cut from a 20-digit (76-bit) fixed-point image of x.
_DIGITS = 17
_CUT_DIGITS = _DIGITS + 3
_LOG2_10 = math.log(10, 2)
_CUT_BITS = int(_CUT_DIGITS * _LOG2_10) + 10
_NON_FINITE = {(0, 0, -123, -1): "nan", (0, 0, -456, -2): "+inf", (1, 0, -789, -3): "-inf"}


def format_real(x: Number) -> str:
    """Lossy but deterministic 17-digit decimal rendering for float-valued reports.

    x is first rounded to FORMAT_PRECISION bits (a Fraction to
    DEFAULT_PRECISION bits before that), then printed in integer steps as
    ``mpmath.nstr(mpf(x), 17, strip_zeros=True)`` prints it at that
    precision: the 76-bit fixed-point image and its 20 decimal digits are
    floors, the 18th digit rounds the 17th half up, and trailing zeros go.
    mpmath scales a value beyond 2**3500 or below 2**-3500 by a power of
    ten first; the digits it then prints are these.
    """
    if x.__class__ is BinaryFloat:  # the common case: no _mpf_ tuple is built
        man, exp = _round(x.man, x.exp, FORMAT_PRECISION)
    elif isinstance(x, Fraction):
        man, exp = _round(*round_ratio(x.numerator, x.denominator, DEFAULT_PRECISION),
                          FORMAT_PRECISION)
    elif isinstance(x, float) and not math.isfinite(x):
        return "nan" if x != x else ("+inf" if x > 0 else "-inf")
    else:
        special = _NON_FINITE.get(getattr(x, "_mpf_", None))
        if special:
            return special
        man, exp = _round(*_pair(x), FORMAT_PRECISION)
    if not man:
        return "0.0"
    sign, man = ("-", -man) if man < 0 else ("", man)
    top = exp + man.bit_length()
    fixed_bits = max(_CUT_BITS - top, 0)
    fixed_digits = int(fixed_bits / _LOG2_10 + 0.5)
    shift = exp + fixed_bits
    fixed = man << shift if shift >= 0 else man >> -shift
    scaled = fixed * 10 ** fixed_digits >> fixed_bits
    # Only the leading 18 digits and the digit count matter: a large value's
    # low digits are floored away before str(), which keeps its output under
    # Python's int/str digit limit (bits * 3 // 10 undercounts the digits).
    dropped = max(scaled.bit_length() * 3 // 10 - _CUT_DIGITS, 0)
    digits = str(scaled // 10 ** dropped)
    exponent = len(digits) + dropped - fixed_digits - 1
    if len(digits) > _DIGITS and digits[_DIGITS] in "56789":
        digits = str(int(digits[:_DIGITS]) + 1)
        if len(digits) > _DIGITS:  # 99...9 carried into a new digit
            digits, exponent = digits[:_DIGITS], exponent + 1
    else:
        digits = digits[:_DIGITS]
    if -5 < exponent < _DIGITS:
        if exponent < 0:
            digits, split = "0" * -exponent + digits, 1
        else:
            split = exponent + 1
        exponent = 0
    else:
        split = 1
    text = (digits[:split] + "." + digits[split:]).rstrip("0")
    if text.endswith("."):
        text += "0"
    if exponent == 0:
        return sign + text
    return f"{sign}{text}e{'+' if exponent > 0 else ''}{exponent}"
