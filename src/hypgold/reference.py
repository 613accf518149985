"""Code that only the tests run, off every command's import path.

It holds two kinds of code:

- oracles, each written against the most primitive definition available
  (symmetric differences, cell-by-cell intersection, adaptive
  quadrature, the areas in mpf arithmetic) so that it shares no code
  path with the closed forms, the enumeration and the pair arithmetic
  it checks;
- the paper's statements that no command evaluates: the arithmetic psi
  transports, the natural-identification condition, the deformed
  anti-diagonal and hyperbola with their one-sided derivatives, the
  degree-2 homogeneity of the construction, and the assembled second
  derivative of the total area with its bounds chain.

No command imports this module.  scipy and mpmath are test-only
dependencies: the quadrature imports scipy, and the mpf code mpmath, on
its first call.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .areas import area_closed, hat_area
from .coding import PrimeCoding
from .construction import GoldbachSpec, build_lower
from .errors import (ChainViolationError, DomainError, QuadratureError, RangeError,
                     RegionMismatchError, ScalingViolationError)
from .hyperbola import _curve_one_sided, _exact_point
from .numeric import (DEFAULT_PRECISION, MODE_RATIONAL, BinaryFloat, Number, _div,
                      _integer_ratio, _mul, _pair, _round_number, bounded_str, round_ratio,
                      to_fraction)
from .points import _check_alpha, _check_coding_length, lower_value
from .regions import TYPE_COEFFICIENT, RegionType, enumerate_regions

QUAD_ABS_TOL = 1e-10


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


def finite_difference_d1(f, k, h):
    """Central first difference (f(k+h) - f(k-h)) / 2h."""
    return (f(k + h) - f(k - h)) / (2 * h)


def finite_difference_d2(f, k, h):
    """Central second difference (f(k+h) - 2 f(k) + f(k-h)) / h**2."""
    return (f(k + h) - 2 * f(k) + f(k - h)) / (h * h)


def geometric_region_oracle(k, n: int, n_prime: int):
    """Brute-force validator: intersect xy = k with one cell analytically.

    Works for non-integer k only (so the curve avoids lattice points) and
    returns the RegionType implied by the (entry, exit) edge pair, or None
    when the intersection has at most one point.  Exact in rationals.
    """
    k = to_fraction(k)
    if k.denominator == 1:
        raise DomainError("the geometric oracle needs a non-integer k")
    if k <= 4:
        raise DomainError("the geometric oracle needs k > 4")
    if not (2 <= n <= n_prime):
        raise DomainError("cells live in the strip 2 <= n <= n_prime")

    if n == n_prime:
        # Triangular cell: the curve runs from the entry edge to (sqrt(k), sqrt(k)).
        x_in = max(Fraction(n), k / (n + 1))
        if x_in > n + 1 or x_in * x_in >= k:
            return None
        entry = "left" if x_in == n else "top"
        return RegionType.T7 if entry == "left" else RegionType.T8

    x_in = max(Fraction(n), k / (n_prime + 1))
    x_out = min(Fraction(n + 1), k / n_prime)
    if x_in >= x_out:
        return None
    entry = "left" if x_in == n else "top"
    exit_ = "right" if x_out == n + 1 else "bottom"
    if (entry, exit_) == ("left", "bottom"):
        return RegionType.T2
    if (entry, exit_) == ("top", "bottom"):
        return RegionType.T3
    if (entry, exit_) == ("top", "right"):
        return RegionType.T5
    # A left -> right crossing needs k0 < n(n+1) <= k0, which is impossible
    # in the strip; reaching here means the enumeration was misread.
    raise RegionMismatchError(
        f"cell ({n},{n_prime}) crossed {entry}->{exit_} at k={k}: no such type"
    )


def oracle_region_set(k) -> tuple:
    """Scan all candidate cells of a non-integer k with the geometric oracle."""
    k = to_fraction(k)
    entries = []
    for n in range(2, math.isqrt(math.floor(k)) + 1):
        top = math.floor(k / n) + 1
        for n_prime in range(n, top + 1):
            t = geometric_region_oracle(k, n, n_prime)
            if t is not None:
                entries.append((n, n_prime, t))
    entries.sort(key=lambda e: (e[0], e[1]))
    return tuple(entries)


def _quad(f, lo: float, hi: float, epsabs: float, epsrel: float) -> tuple:
    """(value, error estimate) of scipy's adaptive quadrature of f over [lo, hi]."""
    try:
        from scipy.integrate import quad
    except ImportError as exc:
        raise ImportError("quadrature oracles need scipy: pip install 'hypgold[test]'") from exc
    return quad(f, lo, hi, epsabs=epsabs, epsrel=epsrel, limit=200)


def area_quadrature_oracle(rtype: RegionType, n: int, n_prime: int, k: Number) -> float:
    """Defining vertical-slice integral of the region's area; test oracle."""

    def integral(f, lo: float, hi: float) -> float:
        if hi <= lo:
            return 0.0
        value, err = _quad(f, lo, hi, epsabs=1e-13, epsrel=1e-12)
        if err > QUAD_ABS_TOL:
            raise QuadratureError(f"quadrature error estimate {err} above {QUAD_ABS_TOL}")
        return value

    kf = float(k)
    np1 = n_prime + 1
    if rtype is RegionType.T2:
        return integral(lambda x: kf / x - n_prime, n, kf / n_prime)
    if rtype is RegionType.T3:
        return (kf / np1 - n) + integral(lambda x: kf / x - n_prime, kf / np1, kf / n_prime)
    if rtype is RegionType.T5:
        return (kf / np1 - n) + integral(lambda x: kf / x - n_prime, kf / np1, n + 1)
    if rtype is RegionType.T7:
        return integral(lambda x: kf / x - x, n, math.sqrt(kf))
    if rtype is RegionType.T8:
        first = integral(lambda x: n + 1 - x, n, kf / (n + 1))
        second = integral(lambda x: kf / x - x, kf / (n + 1), math.sqrt(kf))
        return first + second
    raise RegionMismatchError(f"unknown region type {rtype}")


def _strip_breakpoints(k_lo, k_hi: float) -> list:
    """x-values where the strip integrand between xy=k_lo and xy=k_hi kinks."""
    x_max = math.sqrt(k_hi)
    points = {2.0, x_max}
    for n in range(2, math.floor(x_max) + 1):
        points.add(float(n))
    if k_lo is not None and k_lo > 4:
        points.add(math.sqrt(k_lo))
    for kk in (k_hi,) if k_lo is None else (k_lo, k_hi):
        for m in range(2, math.floor(kk / 2) + 1):
            if 2 < kk / m < x_max:
                points.add(kk / m)
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

    cuts = _strip_breakpoints(k_lo_f, k_hi)
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        if hi - lo < 1e-15:
            continue
        value, err = _quad(weighted_column, lo, hi, epsabs=1e-12, epsrel=1e-10)
        if err > 1e-8:
            raise QuadratureError(f"strip quadrature error {err} on [{lo}, {hi}]")
        total += value
    return total


def hat_AI_quadrature(c: PrimeCoding, k: Number) -> float:
    """Deformed lower area (x >= 2, y >= x, xy <= k); quadrature oracle."""
    return hat_strip_quadrature(c, None, k)


# The paper's statements that no command evaluates.  First the transported
# arithmetic: conjugation by psi on the exact pre-images, rounded once;
# DomainError when the pre-image leaves [0, N+1].

def hat_add(c: PrimeCoding, s: Number, t: Number):
    return c.psi(c.preimage(s) + c.preimage(t))


def hat_sub(c: PrimeCoding, s: Number, t: Number):
    x, y = c.preimage(s), c.preimage(t)
    if x < y:
        raise DomainError("hat_sub needs psi_inv(s) >= psi_inv(t)")
    return c.psi(x - y)


def hat_mul(c: PrimeCoding, s: Number, t: Number):
    return c.psi(c.preimage(s) * c.preimage(t))


def hat_div(c: PrimeCoding, s: Number, t: Number):
    x, y = c.preimage(s), c.preimage(t)
    if y == 0:
        raise DomainError("hat_div needs psi_inv(t) != 0")
    return c.psi(x / y)


def identifies_naturals(c: PrimeCoding, alpha: int) -> bool:
    """a_m*a_{alpha-m} != b_m*b_{alpha-m} for every m = 1..alpha-1, on the exact slopes."""
    if not 2 <= alpha <= c.max_index:
        raise RangeError(f"identifies_naturals needs 2 <= alpha <= {c.max_index}")
    xs = c.scaled_slopes[0]
    return all(xs[m - 1] * xs[alpha - m - 1] != xs[m] * xs[alpha - m]
               for m in range(1, alpha))


def fhat(c: PrimeCoding, alpha: int, u: Number):
    """The transformed anti-diagonal: psi(alpha - psi_inv(u)), u in [0, alpha-hat]."""
    if not 1 <= alpha <= c.domain_limit:
        raise DomainError(f"alpha={alpha} outside the coding's domain")
    x = c.preimage(u)
    if x > alpha:
        raise DomainError(f"u={bounded_str(u)} beyond alpha-hat")
    return c.psi(alpha - x)


def fhat_one_sided(c: PrimeCoding, alpha: int, m: int) -> tuple:
    """One-sided derivatives of fhat at the deformed integer m.

    Returns (-b_{alpha-m}/a_m, -a_{alpha-m}/b_m) as (left, right);
    differentiable iff a_m * a_{alpha-m} = b_m * b_{alpha-m}.
    """
    if not 1 <= m <= alpha - 1:
        raise RangeError(f"m={m} is not interior to [0, {alpha}]")
    a_m, b_m = c.exact.one_sided_slopes(m)
    a_c, b_c = c.exact.one_sided_slopes(alpha - m)
    return (c.rounded(-b_c / a_m), c.rounded(-a_c / b_m))


def hhat(c: PrimeCoding, k: Number, u: Number):
    """The transformed hyperbola: psi(k / psi_inv(u))."""
    return c.rounded(_exact_point(c, k, u).v)


def hhat_one_sided(c: PrimeCoding, k: Number, u: Number) -> tuple:
    """One-sided derivatives (left, right) of hhat at u.

    With x = psi_inv(u), y = k/x and the slopes (a_t, b_t) of psi on each
    side of t, these are -k/x**2 * b_y/a_x and -k/x**2 * a_y/b_x.  A
    coordinate with no natural value has a_t = b_t = xi_floor(t), so the
    two sides differ only where x or y is natural.
    """
    return tuple(map(c.rounded, _curve_one_sided(c, _exact_point(c, k, u))))


HOMOGENEITY_REL_TOL = 1e-25  # reduced_form_check's bound on every relative error


class ScalingReport(NamedTuple):
    alpha: int
    scale: object
    max_xi_sq_error: float
    max_x_error: float
    max_ratio_error: float


def reduced_form_check(spec: GoldbachSpec, scale) -> ScalingReport:
    """Rebuild with xi_2^2 scaled and verify degree-2 homogeneity.

    Every lower xi_i^2 and every x_j must scale linearly with the base
    square, while consecutive-value ratios stay put.
    """
    c = to_fraction(scale)
    if c <= 0:
        raise DomainError("scale must be positive")
    prec = DEFAULT_PRECISION
    base = build_lower(spec, prec)
    scaled = build_lower(spec.replace(xi2_sq=to_fraction(spec.xi2_sq) * c), prec)
    cf = _round_number(c, prec)

    def scaled_by_c(value) -> BinaryFloat:
        return BinaryFloat(*_mul(cf, _pair(value), prec))

    def ratio(a, b) -> BinaryFloat:
        return BinaryFloat(*_div(_pair(a), _pair(b), prec))

    xi_err = max(
        rel_diff(scaled.xi_sq[i], scaled_by_c(base.xi_sq[i]))
        for i in range(2, spec.alpha // 2)
    )
    x_err = max(
        rel_diff(scaled.x[j], scaled_by_c(base.x[j]))
        for j in range(4, spec.alpha - 4)
    )
    ratio_err = 0.0
    for k0 in range(5, spec.alpha // 2):
        ratio_err = max(
            ratio_err,
            rel_diff(ratio(scaled.x[k0 - 1], scaled.x[k0]), ratio(base.x[k0 - 1], base.x[k0])),
            rel_diff(
                ratio(scaled.abs_y(k0 - 1), scaled.abs_y(k0)),
                ratio(base.abs_y(k0 - 1), base.abs_y(k0)),
            ),
        )
    report = ScalingReport(
        alpha=spec.alpha,
        scale=c,
        max_xi_sq_error=xi_err,
        max_x_error=x_err,
        max_ratio_error=ratio_err,
    )
    if max(xi_err, x_err, ratio_err) > HOMOGENEITY_REL_TOL:
        raise ScalingViolationError(f"homogeneity violated: {report}")
    return report


# mpf values: mpmath is a test-only dependency, imported on the first call
# that makes one.  First the conversion, then the mpf form of the areas,
# the differential oracle of ``areas``' pair arithmetic, and the assembled
# second derivative of the total area with its bounds chain.

def to_mpf(x: Number, precision: int = DEFAULT_PRECISION):
    """Convert to mpf, rounded once to nearest (ties to even) at precision bits."""
    from mpmath import mp, mpf
    from mpmath.libmp import from_man_exp

    if isinstance(x, Fraction):
        return mp.make_mpf(from_man_exp(*round_ratio(x.numerator, x.denominator, precision)))
    if x.__class__ is BinaryFloat:
        return mp.make_mpf(from_man_exp(x.man, x.exp, precision, "n"))
    with mp.workprec(precision):
        if isinstance(x, mpf):
            return +x
        return mpf(x)


def _log_once(x, precision: int):
    """ln x rounded once to precision bits.

    mp.log at the working precision can miss the last bit.  Ziv's test: take
    mp.log at g and at 2g more bits (g = 64 first), round both once to
    precision, and double g until the two agree.
    """
    from mpmath import mp

    g = 64
    while True:
        with mp.workprec(precision + g):
            near = mp.log(x)
        with mp.workprec(precision + 2 * g):
            far = mp.log(x)
        with mp.workprec(precision):
            near, far = +near, +far
        if near == far:
            return near
        g *= 2


def area_closed_mpf(rtype: RegionType, n: int, n_prime: int, k: Number,
                    precision: int = DEFAULT_PRECISION) -> tuple:
    """(area, d1, d2) of one essential region at k, in mpf arithmetic at precision bits.

    Each operation rounds once to precision, each logarithm too (``_log_once``).
    """
    from mpmath import mp, mpf

    with mp.workprec(precision):
        kk = to_mpf(to_fraction(k), precision)
        nn = mpf(n)
        np_ = mpf(n_prime)
        if rtype is RegionType.T2:
            d1 = _log_once(kk / (nn * np_), precision)
            area = kk * d1 + nn * np_ - kk
        elif rtype is RegionType.T3:
            d1 = _log_once((np_ + 1) / np_, precision)
            area = (kk / (np_ + 1) - nn + kk * d1
                    - np_ * (1 / np_ - 1 / (np_ + 1)) * kk)
        elif rtype is RegionType.T5:
            d1 = _log_once((nn + 1) * (np_ + 1) / kk, precision)
            area = (kk / (np_ + 1) - nn + kk * d1
                    - np_ * (nn + 1 - kk / (np_ + 1)))
        elif rtype is RegionType.T7:
            log_k, log_n = _log_once(kk, precision), _log_once(nn, precision)
            d1 = log_k / 2 - log_n
            area = kk / 2 * log_k - kk / 2 - kk * log_n + nn * nn / 2
        elif rtype is RegionType.T8:
            d1 = _log_once((nn + 1) / mp.sqrt(kk), precision)
            area = kk / 2 - nn * (nn + 1) + nn * nn / 2 + kk * d1
        else:
            raise RegionMismatchError(f"unknown region type {rtype}")
        coeff = TYPE_COEFFICIENT[rtype]
        d2 = coeff.numerator / (coeff.denominator * kk)
        return area, d1, d2


def _mpf(c: PrimeCoding, value):
    """A float coding's value as an mpf at its precision; a rational coding's as it is."""
    return value if c.mode == MODE_RATIONAL else to_mpf(value, c.precision)


def _check_alpha_coding(c: PrimeCoding, alpha: int, need_index: int) -> None:
    _check_alpha(alpha)
    _check_coding_length(c, need_index)


def ab_coefficients(c: PrimeCoding, alpha: int, k0: int, k: Number):
    """(A_{k0}(k), B_{k0}(k)) = (1/(xi_{k0}^2 k), 1/(xi_{alpha-k0-1}^2 (alpha-k)))."""
    from mpmath import mp

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
    from mpmath import mp

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
    from mpmath import mp

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
    from mpmath import mp

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
