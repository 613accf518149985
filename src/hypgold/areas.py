"""Closed-form areas per region type, with their k-derivatives, and the
deformed-plane area of a cell.

The areas take logarithms, so they are binary floats even when the
coding and k are rational.  They are computed on ``numeric``'s
(mantissa, exponent) pairs, each operation rounded once at the
precision the caller names, and returned as ``BinaryFloat``s.  ``_log``
below rounds the logarithm correctly, so every value has the bits that
mpf arithmetic gives from a correctly rounded log at that precision.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from typing import NamedTuple

from .coding import PrimeCoding
from .errors import DomainError, RegionMismatchError
from .numeric import (
    DEFAULT_PRECISION,
    BinaryFloat,
    Number,
    _add,
    _div,
    _integer_ratio,
    _mul,
    _pair,
    _round,
    _round_number,
    _sqrt,
    _sub,
    round_ratio,
    to_fraction,
)
from .regions import DIAGONAL_TYPES, TYPE_COEFFICIENT, RegionType, enumerate_regions


class AreaFormulaResult(NamedTuple):
    """Area of one essential region at a given k, with d/dk and d2/dk2."""

    area: BinaryFloat
    d1: BinaryFloat
    d2: BinaryFloat


@lru_cache(maxsize=32)
def _log_constants(w: int, r: int) -> tuple:
    """ln(1 + 2**-i) * 2**w for i = 0..r, each within 2 of its value; i = 0 gives ln 2.

    ln(1 + 2**-i) = 2 atanh(1/q) with q = 2**(i+1) + 1.  At g more bits, the
    j-th term floor(2**(w+g) / q**(2j+1)) is one floor of nested floors, so
    the n summands before the first zero term are each within 1 of their
    values, and the rest sum to less than 9/8.  The doubled sum, floored to
    w bits, is within 2 (n + 2) / 2**g + 1 < 2, since n < (w + g)/3 + 1.
    """
    g = w.bit_length() + 1
    constants = []
    for i in range(r + 1):
        q = (2 << i) + 1
        qq = q * q
        term = (1 << (w + g)) // q
        total, j = term, 1
        while term:
            term //= qq
            j += 2
            total += term // j
        constants.append(2 * total >> g)
    return tuple(constants)


def _log(a: tuple, prec: int) -> tuple:
    """ln a, for a pair a > 0, correctly rounded to prec bits, to nearest with ties to even.

    a = f * 2**k with f in [1, 2).  At w fractional bits, f is divided by
    1 + 2**-i for each i = 1..r at which it is still at least that, which
    leaves f' in [1, 1 + 2**-r), and ln a = k ln 2 + (the ln(1 + 2**-i)
    divided out) + 2 atanh(s) with s = (f' - 1)/(f' + 1) < 2**-(r+1): a
    series in s**2 that ends at its first zero term, J terms on.  In units
    of 2**-w the sum v is off by less than
      2|k| + 2r from the constants (``_log_constants``);
      r + 1 from f', floored at each division, as ln moves by less than f'
        does for f' >= 1;
      6 (J + 2) from the series: with s < 1/3 each floored term is within
        2 of s**(2j+1), each summand within 3, the tail below 1/4, and the
        sum is doubled.
    So ln a lies strictly between v - err and v + err.  Ziv's rounding test
    (A. Ziv, ACM TOMS 17(3), 1991): when both round alike at prec bits, ln
    a rounds so too; otherwise w doubles.  ln a of a rational a != 1 is
    irrational, so no tie stops the loop, and a = 1 returns an exact 0.  On
    [1/2, 2), |ln a| >= |a - 1|/2, so w also counts the leading zeros of
    a - 1, and the test passes at the first w as often as elsewhere.
    """
    m, e = a
    if m <= 0:
        raise DomainError("logarithm of a non-positive number")
    t = m.bit_length()
    k = e + t - 1
    lz = 0
    if -1 <= k <= 0:
        d = m - (1 << -e) if e < 0 else (m << e) - 1
        if not d:
            return 0, 0
        lz = max(0, 2 - d.bit_length() - e)
    w = (prec + lz + 63) >> 5 << 5  # at least 32 guard bits; multiples of 32 share constants
    while True:
        r = math.isqrt(w) >> 1
        constants = _log_constants(w, r)
        one = 1 << w
        f = m << (w + 1 - t) if w + 1 >= t else m >> (t - 1 - w)
        v = k * constants[0]
        for i in range(1, r + 1):
            if f >= one + (one >> i):
                f = (f << i) // ((1 << i) + 1)
                v += constants[i]
        s = ((f - one) << w) // (f + one)
        s2 = s * s >> w
        total = term = s
        j = 1
        while term:
            term = term * s2 >> w
            j += 2
            total += term // j
        v += 2 * total
        err = 2 * abs(k) + 3 * r + 3 * j + 10  # the bound above, with J = (j - 1)/2
        low = _round(v - err, -w, prec)
        if low == _round(v + err, -w, prec):
            return low
        w *= 2


def _require_region(rtype: RegionType, n: int, n_prime: int, k) -> None:
    if n == n_prime and rtype not in DIAGONAL_TYPES:
        raise RegionMismatchError(f"{rtype.value} is not a diagonal type, got cell ({n},{n})")
    if n != n_prime and rtype in DIAGONAL_TYPES:
        raise RegionMismatchError(f"{rtype.value} lives on the diagonal, got cell ({n},{n_prime})")
    kq = to_fraction(k)
    if kq < 4:
        raise DomainError("areas are defined for k >= 4")
    k0 = math.floor(kq)
    candidates = [enumerate_regions(k0)]
    if kq.denominator == 1 and k0 > 4:
        # Closed-interval extension: an integer k is the right endpoint of
        # [k-1, k] as well as the left endpoint of [k, k+1].
        candidates.append(enumerate_regions(k0 - 1))
    for cells in candidates:
        # The sorted cells hold (n, n') at most once; the pair sorts before
        # its own (n, n', type), so no RegionType is ever compared.
        i = bisect_left(cells, (n, n_prime))
        if i < len(cells) and cells[i] == (n, n_prime, rtype):
            return
    raise RegionMismatchError(
        f"({n},{n_prime}) typed {rtype.value} is not an essential region at k={k}"
    )


_ONE, _TWO = (1, 0), (2, 0)


def area_closed(rtype: RegionType, n: int, n_prime: int, k: Number,
                precision: int = DEFAULT_PRECISION,
                check: bool = True) -> AreaFormulaResult:
    """Closed-form area and derivatives of one essential region at k.

    k is rounded once to ``precision`` bits, and so are n and n', and every
    operation below; the comment over each type is its formula.
    """
    if check:
        _require_region(rtype, n, n_prime, k)
    p = precision
    kk = round_ratio(*_integer_ratio(k), p)
    nn, np_ = _round(n, 0, p), _round(n_prime, 0, p)
    if rtype is RegionType.T2:
        # d1 = ln(k / (n n')), area = k d1 + n n' - k
        cell = _mul(nn, np_, p)
        d1 = _log(_div(kk, cell, p), p)
        area = _sub(_add(_mul(kk, d1, p), cell, p), kk, p)
    elif rtype is RegionType.T3:
        # d1 = ln((n' + 1) / n'), area = k/(n' + 1) - n + k d1 - n' (1/n' - 1/(n' + 1)) k
        np1 = _add(np_, _ONE, p)
        d1 = _log(_div(np1, np_, p), p)
        area = _sub(_add(_sub(_div(kk, np1, p), nn, p), _mul(kk, d1, p), p),
                    _mul(_mul(np_, _sub(_div(_ONE, np_, p), _div(_ONE, np1, p), p), p), kk, p), p)
    elif rtype is RegionType.T5:
        # d1 = ln((n + 1)(n' + 1) / k), area = k/(n' + 1) - n + k d1 - n' (n + 1 - k/(n' + 1))
        n1, np1 = _add(nn, _ONE, p), _add(np_, _ONE, p)
        d1 = _log(_div(_mul(n1, np1, p), kk, p), p)
        k_np1 = _div(kk, np1, p)
        area = _sub(_add(_sub(k_np1, nn, p), _mul(kk, d1, p), p),
                    _mul(np_, _sub(n1, k_np1, p), p), p)
    elif rtype is RegionType.T7:
        # d1 = ln(k)/2 - ln(n), area = k/2 ln(k) - k/2 - k ln(n) + n n/2
        log_k, log_n = _log(kk, p), _log(nn, p)
        d1 = _sub(_div(log_k, _TWO, p), log_n, p)
        half_k = _div(kk, _TWO, p)
        area = _add(_sub(_sub(_mul(half_k, log_k, p), half_k, p), _mul(kk, log_n, p), p),
                    _div(_mul(nn, nn, p), _TWO, p), p)
    elif rtype is RegionType.T8:
        # d1 = ln((n + 1) / sqrt(k)), area = k/2 - n (n + 1) + n n/2 + k d1
        n1 = _add(nn, _ONE, p)
        d1 = _log(_div(n1, _sqrt(kk, p), p), p)
        area = _add(_add(_sub(_div(kk, _TWO, p), _mul(nn, n1, p), p),
                         _div(_mul(nn, nn, p), _TWO, p), p), _mul(kk, d1, p), p)
    else:  # pragma: no cover
        raise RegionMismatchError(f"unknown region type {rtype}")
    coeff = TYPE_COEFFICIENT[rtype]
    d2 = _div((coeff.numerator, 0), _mul((coeff.denominator, 0), kk, p), p)
    return AreaFormulaResult(area=BinaryFloat(*area), d1=BinaryFloat(*d1), d2=BinaryFloat(*d2))


def hat_area(c: PrimeCoding, n: int, n_prime: int, area,
             precision: int = DEFAULT_PRECISION) -> BinaryFloat:
    """Deformed-plane area of the cell (n, n') with real-plane area ``area``.

    psi is affine on the cell, so the Jacobian is the constant xi_n * xi_{n'}.
    Each slope is rounded to ``precision``, the bits ``area`` was computed
    at, and so is each product.
    """
    p = precision
    jacobian = _mul(_round_number(c.slope(n), p), _round_number(c.slope(n_prime), p), p)
    return BinaryFloat(*_mul(jacobian, _pair(area), p))
