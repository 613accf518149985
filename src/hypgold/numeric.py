"""Dual numeric backend helpers.

Exact rationals (``fractions.Fraction``) are the default wherever every
quantity stays rational; arbitrary-precision floats (``mpmath.mpf``,
default 128-bit mantissa) take over once square roots enter.  Numbers
serialize as exact ``"p/q"`` strings in both modes, so round trips are
lossless.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Union

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import from_rational, round_nearest

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
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    if isinstance(x, mpf):
        if not mpmath.isfinite(x):
            raise DomainError(f"cannot convert non-finite value {x} to a rational")
        man, exp = mantissa_pair(x)
        return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    raise TypeError(f"unsupported numeric type {type(x).__name__}")


def mantissa_pair(x: mpf) -> tuple:
    """A finite mpf as (signed int mantissa, exponent): x = man * 2**exp.

    int() strips the gmpy2 mpz the backend may hand out.
    """
    sign, man, exp, _ = x._mpf_
    return (-int(man) if sign else int(man)), int(exp)


def to_mpf(x: Number, precision: int = DEFAULT_PRECISION) -> mpf:
    """Convert to mpf, rounded once to nearest (ties to even) at precision bits."""
    if isinstance(x, Fraction):
        return mp.make_mpf(from_rational(x.numerator, x.denominator, precision, round_nearest))
    with mp.workprec(precision):
        if isinstance(x, mpf):
            return +x
        return mpf(x)


def _digit_limit() -> str:
    # Values beyond it are refused, the limit never lifted: it keeps typed
    # input from costing quadratic time.
    return f"the {sys.get_int_max_str_digits()}-digit limit of Python's int/str conversion"


def parse_exact(text: str) -> Fraction:
    """Parse a ``"p/q"`` or decimal string exactly."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        if 0 < sys.get_int_max_str_digits() < len(text):
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
    """|a - b| over the larger magnitude, exactly, rounded to float once; 0 if both vanish."""
    fa, fb = to_fraction(a), to_fraction(b)
    if fa == fb:
        return 0.0
    return float(abs(fa - fb) / max(abs(fa), abs(fb)))
