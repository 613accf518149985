"""Closed-form areas per region type, deformed-plane scaling, and the
assembled second derivative of the total area.

Logarithms force float arithmetic here even when the coding is rational;
areas are always computed as high-precision floats.  The second
derivative itself contains no logarithm, so ``hat_AT_second_derivative``
stays exact for rational codings and rational k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpf

from .coding import PrimeCoding
from .errors import (
    ChainViolationError,
    DomainError,
    QuadratureError,
    RangeError,
    RegionMismatchError,
)
from .numeric import (
    DEFAULT_PRECISION,
    Number,
    floor_int,
    is_integral,
    to_fraction,
    to_mpf,
)
from .points import _check_alpha, _check_coding_length, lower_value
from .regions import DIAGONAL_TYPES, TYPE_COEFFICIENT, RegionType, enumerate_regions

QUAD_ABS_TOL = 1e-10


@dataclass(frozen=True)
class AreaFormulaResult:
    """Area of one essential region at a given k, with d/dk and d2/dk2."""

    area: mpf
    d1: mpf
    d2: mpf


def _require_region(rtype: RegionType, n: int, n_prime: int, k) -> None:
    if n == n_prime and rtype not in DIAGONAL_TYPES:
        raise RegionMismatchError(f"{rtype.value} is not a diagonal type, got cell ({n},{n})")
    if n != n_prime and rtype in DIAGONAL_TYPES:
        raise RegionMismatchError(f"{rtype.value} lives on the diagonal, got cell ({n},{n_prime})")
    if k < 4:
        raise DomainError("areas are defined for k >= 4")
    k0 = floor_int(k)
    candidates = [enumerate_regions(k0)]
    if is_integral(k) and k0 > 4:
        # Closed-interval extension: an integer k is the right endpoint of
        # [k-1, k] as well as the left endpoint of [k, k+1].
        candidates.append(enumerate_regions(k0 - 1))
    entry = (n, n_prime, rtype)
    if not any(entry in rs.entry_set for rs in candidates):
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


def _quad(f, lo: float, hi: float) -> float:
    if hi <= lo:
        return 0.0
    # scipy serves only the test oracles; importing it here keeps it off
    # the CLI's start-up path.
    from scipy.integrate import quad

    value, err = quad(f, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)
    if err > QUAD_ABS_TOL:
        raise QuadratureError(f"quadrature error estimate {err} above {QUAD_ABS_TOL}")
    return value


def area_quadrature_oracle(rtype: RegionType, n: int, n_prime: int, k: Number) -> float:
    """Defining vertical-slice integral of the region's area; test oracle."""
    kf = float(k)
    np1 = n_prime + 1
    if rtype is RegionType.T2:
        return _quad(lambda x: kf / x - n_prime, n, kf / n_prime)
    if rtype is RegionType.T3:
        return (kf / np1 - n) + _quad(lambda x: kf / x - n_prime, kf / np1, kf / n_prime)
    if rtype is RegionType.T5:
        return (kf / np1 - n) + _quad(lambda x: kf / x - n_prime, kf / np1, n + 1)
    if rtype is RegionType.T7:
        return _quad(lambda x: kf / x - x, n, math.sqrt(kf))
    if rtype is RegionType.T8:
        first = _quad(lambda x: n + 1 - x, n, kf / (n + 1))
        second = _quad(lambda x: kf / x - x, kf / (n + 1), math.sqrt(kf))
        return first + second
    raise RegionMismatchError(f"unknown region type {rtype}")


def hat_area(c: PrimeCoding, n: int, n_prime: int, area):
    """Deformed-plane area of the cell (n, n') with real-plane area ``area``.

    psi is affine on the cell, so the Jacobian is the constant xi_n * xi_{n'}.
    """
    with mp.workprec(c.precision):
        return to_mpf(c.slope(n), c.precision) * to_mpf(c.slope(n_prime), c.precision) * area


def _check_alpha_coding(c: PrimeCoding, alpha: int, need_index: int) -> None:
    _check_alpha(alpha)
    _check_coding_length(c, need_index)


def ab_coefficients(c: PrimeCoding, alpha: int, k0: int, k: Number):
    """(A_{k0}(k), B_{k0}(k)) = (1/(xi_{k0}^2 k), 1/(xi_{alpha-k0-1}^2 (alpha-k)))."""
    _check_alpha_coding(c, alpha, alpha - 5)
    if not 4 <= k0 <= alpha // 2 - 1:
        raise RangeError(f"k0={k0} outside 4..{alpha // 2 - 1}")
    with c.context():
        kv = c._coerce(k)
        xi_l = c.slope(k0)
        xi_u = c.slope(alpha - k0 - 1)
        return (1 / (xi_l * xi_l * kv), 1 / (xi_u * xi_u * (alpha - kv)))


def hat_AT_second_derivative(c: PrimeCoding, alpha: int, k: Number, side: str = "+"):
    """(A_T-hat)''(k-hat) = A_{k0}(k) x_{k0} + B_{k0}(k) y_{k0} on [k0, k0+1].

    Exact for rational codings and rational k.  At integer k the default is
    the right-limit value; side="-" selects the limit from [k-1, k].
    """
    _check_alpha_coding(c, alpha, alpha - 4)
    if side not in ("+", "-"):
        raise DomainError("side must be '+' or '-'")
    kf = c._coerce(k)
    if kf < 4 or kf > alpha // 2:
        raise DomainError(f"k={k} outside [4, {alpha // 2}]")
    k0 = floor_int(kf)
    if is_integral(kf) and side == "-":
        k0 = int(kf) - 1
        if k0 < 4:
            raise DomainError("no left limit at k = 4")
    k0 = min(max(k0, 4), alpha // 2 - 1)
    with c.context():
        x = lower_value(c, k0)
        y = -lower_value(c, alpha - k0 - 1)
        a_coef, b_coef = ab_coefficients(c, alpha, k0, kf)
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
    with c.context():
        k = c.psi_inv(khat)
        if k < 4:
            raise DomainError(f"psi_inv(khat)={k} below 4")
        k0 = floor_int(k)
        if is_integral(k) and k0 > 4:
            k0 -= 1  # interval endpoints belong to the closed interval below
        total = to_mpf(0, c.precision)
        for n, n_prime, rtype in enumerate_regions(k0):
            area = area_closed(rtype, n, n_prime, k, precision=c.precision, check=False).area
            total = total + hat_area(c, n, n_prime, area)
        return total


def _strip_breakpoints(k_lo, k_hi: float) -> list:
    """x-values where the strip integrand between xy=k_lo and xy=k_hi kinks."""
    x_max = math.sqrt(k_hi)
    points = {2.0, x_max}
    for n in range(2, math.floor(x_max) + 1):
        points.add(float(n))
    if k_lo is not None:
        if k_lo > 4:
            points.add(math.sqrt(k_lo))
        for m in range(2, math.floor(k_lo / 2) + 1):
            x = k_lo / m
            if 2 < x < x_max:
                points.add(x)
    for m in range(2, math.floor(k_hi / 2) + 1):
        x = k_hi / m
        if 2 < x < x_max:
            points.add(x)
    return sorted(points)


def hat_strip_quadrature(c: PrimeCoding, k_lo, k_hi: Number) -> float:
    """Deformed area between the curves xy=k_lo and xy=k_hi in the strip
    x >= 2, y >= x, by piecewise adaptive quadrature.  Pass k_lo=None for
    the diagonal (the full region below xy=k_hi).  Test oracle; float64.
    """
    k_hi = float(k_hi)
    k_lo_f = None if k_lo is None else float(k_lo)
    if k_hi < 4:
        raise DomainError("strip quadrature needs k_hi >= 4")
    if k_lo_f is not None and k_lo_f > k_hi:
        raise DomainError("strip quadrature needs k_lo <= k_hi")
    slopes = [float(s) for s in c.slopes]
    top_index = math.floor(k_hi / 2)
    if top_index > c.max_index:
        raise RangeError(f"strip reaches y-cells up to {top_index}, coding stops at {c.max_index}")

    def weighted_column(x: float) -> float:
        y_hi = k_hi / x
        y_lo = x if k_lo_f is None else max(x, k_lo_f / x)
        if y_hi <= y_lo:
            return 0.0
        total = 0.0
        for n_p in range(math.floor(y_lo), math.floor(y_hi) + 1):
            overlap = min(y_hi, n_p + 1.0) - max(y_lo, float(n_p))
            if overlap > 0:
                total += slopes[n_p] * overlap
        return slopes[math.floor(x)] * total

    from scipy.integrate import quad

    cuts = _strip_breakpoints(k_lo_f, k_hi)
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        if hi - lo < 1e-15:
            continue
        value, err = quad(weighted_column, lo, hi, epsabs=1e-12, epsrel=1e-10, limit=200)
        if err > 1e-8:
            raise QuadratureError(f"strip quadrature error {err} on [{lo}, {hi}]")
        total += value
    return total


def hat_AI_quadrature(c: PrimeCoding, k: Number) -> float:
    """Deformed lower area (x >= 2, y >= x, xy <= k); quadrature oracle."""
    return hat_strip_quadrature(c, None, k)


@dataclass(frozen=True)
class ChainEntry:
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
    with c.context():
        chain = []
        for e in entries:
            chain.extend([(e.m_B, f"m_B{e.k0}"), (e.M_B, f"M_B{e.k0}")])
        for e in reversed(entries):
            chain.extend([(e.m_A, f"m_A{e.k0}"), (e.M_A, f"M_A{e.k0}")])
        for (a, la), (b, lb) in zip(chain, chain[1:]):
            if not a < b:
                raise ChainViolationError(f"bounds chain broken: {la} >= {lb} ({a} >= {b})")
    return entries
