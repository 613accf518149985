"""Closed-form areas per region type, deformed-plane scaling, and the
assembled second derivative of the total area.

Logarithms force float arithmetic here even when the coding is rational;
areas are always computed as high-precision mpf values, the package's
only mpf arithmetic.  The second derivative itself contains no
logarithm, so ``hat_AT_second_derivative`` stays exact for rational
codings and rational k.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import NamedTuple

from mpmath import mp, mpf

from .coding import PrimeCoding
from .errors import (
    ChainViolationError,
    DomainError,
    RangeError,
    RegionMismatchError,
)
from .numeric import (
    DEFAULT_PRECISION,
    MODE_RATIONAL,
    Number,
    to_fraction,
    to_mpf,
)
from .points import _check_alpha, _check_coding_length, lower_value
from .regions import DIAGONAL_TYPES, TYPE_COEFFICIENT, RegionType, enumerate_regions


class AreaFormulaResult(NamedTuple):
    """Area of one essential region at a given k, with d/dk and d2/dk2."""

    area: mpf
    d1: mpf
    d2: mpf


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


def area_closed(rtype: RegionType, n: int, n_prime: int, k: Number,
                precision: int = DEFAULT_PRECISION,
                check: bool = True) -> AreaFormulaResult:
    """Closed-form area and derivatives of one essential region at k."""
    if check:
        _require_region(rtype, n, n_prime, k)
    with mp.workprec(precision):
        kk = to_mpf(to_fraction(k), precision)
        nn = mpf(n)
        np_ = mpf(n_prime)
        if rtype is RegionType.T2:
            d1 = mp.log(kk / (nn * np_))
            area = kk * d1 + nn * np_ - kk
        elif rtype is RegionType.T3:
            d1 = mp.log((np_ + 1) / np_)
            area = (kk / (np_ + 1) - nn + kk * d1
                    - np_ * (1 / np_ - 1 / (np_ + 1)) * kk)
        elif rtype is RegionType.T5:
            d1 = mp.log((nn + 1) * (np_ + 1) / kk)
            area = (kk / (np_ + 1) - nn + kk * d1
                    - np_ * (nn + 1 - kk / (np_ + 1)))
        elif rtype is RegionType.T7:
            log_k, log_n = mp.log(kk), mp.log(nn)
            d1 = log_k / 2 - log_n
            area = kk / 2 * log_k - kk / 2 - kk * log_n + nn * nn / 2
        elif rtype is RegionType.T8:
            d1 = mp.log((nn + 1) / mp.sqrt(kk))
            area = kk / 2 - nn * (nn + 1) + nn * nn / 2 + kk * d1
        else:  # pragma: no cover
            raise RegionMismatchError(f"unknown region type {rtype}")
        coeff = TYPE_COEFFICIENT[rtype]
        d2 = coeff.numerator / (coeff.denominator * kk)
        return AreaFormulaResult(area=area, d1=d1, d2=d2)


def hat_area(c: PrimeCoding, n: int, n_prime: int, area,
             precision: int = DEFAULT_PRECISION):
    """Deformed-plane area of the cell (n, n') with real-plane area ``area``.

    psi is affine on the cell, so the Jacobian is the constant xi_n * xi_{n'}.
    The product is taken at ``precision``, the bits ``area`` was computed at.
    """
    with mp.workprec(precision):
        return to_mpf(c.slope(n), precision) * to_mpf(c.slope(n_prime), precision) * area


def _mpf(c: PrimeCoding, value):
    """A float coding's value as an mpf at its precision; a rational coding's as it is."""
    return value if c.mode == MODE_RATIONAL else to_mpf(value, c.precision)


def _check_alpha_coding(c: PrimeCoding, alpha: int, need_index: int) -> None:
    _check_alpha(alpha)
    _check_coding_length(c, need_index)


def ab_coefficients(c: PrimeCoding, alpha: int, k0: int, k: Number):
    """(A_{k0}(k), B_{k0}(k)) = (1/(xi_{k0}^2 k), 1/(xi_{alpha-k0-1}^2 (alpha-k)))."""
    _check_alpha_coding(c, alpha, alpha - 5)
    if not 4 <= k0 <= alpha // 2 - 1:
        raise RangeError(f"k0={k0} outside 4..{alpha // 2 - 1}")
    with mp.workprec(c.precision):
        kv = _mpf(c, c.rounded(to_fraction(k)))
        xi_l = _mpf(c, c.slope(k0))
        xi_u = _mpf(c, c.slope(alpha - k0 - 1))
        return (1 / (xi_l * xi_l * kv), 1 / (xi_u * xi_u * (alpha - kv)))


def hat_AT_second_derivative(c: PrimeCoding, alpha: int, k: Number, side: str = "+"):
    """(A_T-hat)''(k-hat) = A_{k0}(k) x_{k0} + B_{k0}(k) y_{k0} on [k0, k0+1].

    Exact for rational codings and rational k.  The interval is read off k
    exactly, in both modes.  At integer k the default is the right-limit
    value; side="-" selects the limit from [k-1, k].
    """
    _check_alpha_coding(c, alpha, alpha - 4)
    if side not in ("+", "-"):
        raise DomainError("side must be '+' or '-'")
    kq = to_fraction(k)
    if kq < 4 or kq > alpha // 2:
        raise DomainError(f"k={k} outside [4, {alpha // 2}]")
    k0 = math.floor(kq)
    if kq.denominator == 1 and side == "-":
        k0 -= 1
        if k0 < 4:
            raise DomainError("no left limit at k = 4")
    k0 = min(max(k0, 4), alpha // 2 - 1)
    with mp.workprec(c.precision):
        x = _mpf(c, lower_value(c, k0))
        y = -_mpf(c, lower_value(c, alpha - k0 - 1))
        a_coef, b_coef = ab_coefficients(c, alpha, k0, k)
        return a_coef * x + b_coef * y


def hat_lower_sweep(c: PrimeCoding, khat: Number):
    """Deformed-area sum over the essential regions of floor(psi_inv(khat)),
    as a function of the deformed coordinate khat.

    On each sub-interval this differs from the deformed lower-area function
    by a constant, so its second difference in khat checks the A-side of the
    assembled formula.  The upper side is the same function evaluated at the
    deformed complement psi(alpha - k): its own curve parameter is alpha - k,
    so its contribution to the total-area second derivative is this sweep's
    acceleration at psi(alpha - k), subtracted.
    """
    k = c.preimage(khat)
    if k < 4:
        raise DomainError(f"psi_inv(khat)={k} below 4")
    k0 = math.floor(k)
    if k.denominator == 1 and k0 > 4:
        k0 -= 1  # interval endpoints belong to the closed interval below
    with mp.workprec(c.precision):
        total = to_mpf(0, c.precision)
        for n, n_prime, rtype in enumerate_regions(k0):
            area = area_closed(rtype, n, n_prime, k, precision=c.precision, check=False).area
            total = total + hat_area(c, n, n_prime, area, c.precision)
        return total


class ChainEntry(NamedTuple):
    """Endpoint bounds of A_{k0} and B_{k0} over [k0, k0+1]."""

    k0: int
    m_B: object
    M_B: object
    m_A: object
    M_A: object


def bounds_chain(c: PrimeCoding, alpha: int) -> list:
    """Endpoint bounds per k0 plus the full interleaving check.

    Both coefficient functions are monotone in k, so the extrema sit at the
    interval endpoints.  The chain
    m_B4 < M_B4 < ... < m_B(a/2-1) < M_B(a/2-1) < m_A(a/2-1) < ... < M_A4
    must hold for every strict coding; a violation indicates a bug, not a
    data condition.
    """
    _check_alpha_coding(c, alpha, alpha - 5)
    if not c.strict:
        raise DomainError("the bounds chain requires a strict prime coding")
    entries = []
    for k0 in range(4, alpha // 2):
        # A_{k0} falls and B_{k0} rises in k.
        M_A, m_B = ab_coefficients(c, alpha, k0, k0)
        m_A, M_B = ab_coefficients(c, alpha, k0, k0 + 1)
        entries.append(ChainEntry(k0=k0, m_B=m_B, M_B=M_B, m_A=m_A, M_A=M_A))
    with mp.workprec(c.precision):
        chain = []
        for e in entries:
            chain.extend([(e.m_B, f"m_B{e.k0}"), (e.M_B, f"M_B{e.k0}")])
        for e in reversed(entries):
            chain.extend([(e.m_A, f"m_A{e.k0}"), (e.M_A, f"M_A{e.k0}")])
        for (a, la), (b, lb) in zip(chain, chain[1:]):
            if not a < b:
                raise ChainViolationError(f"bounds chain broken: {la} >= {lb} ({a} >= {b})")
    return entries
