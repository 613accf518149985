"""Dual numeric backend helpers.

Exact rationals (``fractions.Fraction``) are the default wherever every
quantity stays rational; arbitrary-precision floats (``mpmath.mpf``,
default 128-bit mantissa) take over once square roots enter.  Numbers
serialize as exact ``"p/q"`` strings in both modes, so round trips are
lossless.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Union

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp

from .errors import DomainError

MODE_RATIONAL = "rational"
MODE_FLOAT = "float"
MODES = (MODE_RATIONAL, MODE_FLOAT)

DEFAULT_PRECISION = 128  # mantissa bits for float mode
MIN_PRECISION = 53  # a double's mantissa: the least a run or a coding may ask for
DEFAULT_REL_TOL = 1e-9

Number = Union[int, Fraction, float, mpf]


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
    if isinstance(x, (float, mpf)) and not mpmath.isfinite(x):
        raise DomainError(f"cannot convert non-finite value {x} to a rational")
    if isinstance(x, float):
        return x.as_integer_ratio()
    if isinstance(x, mpf):
        man, exp = mantissa_pair(x)
        return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
    raise TypeError(f"unsupported numeric type {type(x).__name__}")


def mantissa_pair(x: mpf) -> tuple:
    """A finite mpf as (signed int mantissa, exponent): x = man * 2**exp.

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


def to_mpf(x: Number, precision: int = DEFAULT_PRECISION) -> mpf:
    """Convert to mpf, rounded once to nearest (ties to even) at precision bits."""
    if isinstance(x, Fraction):
        return mp.make_mpf(from_man_exp(*round_ratio(x.numerator, x.denominator, precision)))
    with mp.workprec(precision):
        if isinstance(x, mpf):
            return +x
        return mpf(x)


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


def format_real(x: Number) -> str:
    """Lossy but deterministic 17-digit decimal rendering for float-valued reports."""
    if isinstance(x, Fraction):
        x = to_mpf(x)
    return mpmath.nstr(mpf(x), 17, strip_zeros=True)


def rel_diff(a: Number, b: Number) -> float:
    """|a - b| over the larger magnitude, exactly, rounded to float once; 0 if both vanish.

    With a = na/da and b = nb/db, the ratio is |x - y| / max(|x|, |y|) for
    x = na*db and y = nb*da, and int true division rounds it correctly, as
    ``float(Fraction)`` does, with no gcd on the way.
    """
    (na, da), (nb, db) = _integer_ratio(a), _integer_ratio(b)
    x, y = na * db, nb * da
    if x == y:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))
