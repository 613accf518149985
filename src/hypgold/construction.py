"""Recursive coefficient construction of codings whose total-area second
derivative is continuous across every junction.

Free parameters: the base square xi_2^2, one multiplier lambda_i^2 > 1
per index in {3, 4} and per prime in [5, alpha/2 - 1], and the upper-side
seed xi_{alpha/2}^2.  Everything else is forced: composite lower indices
take the ratio step xi_i^2 = (x_i / x_{i-1}) xi_{i-1}^2, the upper side
descends through ratio steps at composite junctions and the junction
formula at prime junctions.  Square roots enter through x-values, so this
module runs in binary floats (``numeric.BinaryFloat``, 128-bit mantissas
by default): each operation rounds once, at the run's precision, with
``numeric``'s rounding, in the order the formulas below write it.  Every
step computes on (mantissa, exponent) pairs; a pair becomes a value only
where the state stores it or a result returns it to be printed.

One state, ``ConstructedCoding``, runs through both passes: the ascending
pass (``build_lower``) fills the slopes through alpha/2 - 1 and every
x-value through alpha - 5; the descending pass (``build_upper``) returns a
copy with the slopes extended through alpha - 5.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .coding import PrimeCoding
from .errors import ConstructionFailureError, DomainError
from .numeric import (
    DEFAULT_PRECISION,
    DEFAULT_REL_TOL,
    MODE_FLOAT,
    BinaryFloat,
    _add,
    _cmp,
    _div,
    _mul,
    _pair,
    _round_number,
    _sqrt,
    _sub,
    to_fraction,
)
from .oracles import is_prime, primes_in
from .points import _rounded_lower
from .records import Record

PROV_RANDOM = "random-prime-choice"
PROV_COMPOSITE = "forced-composite-ratio"
PROV_UPPER_RATIO = "forced-upper-ratio"
PROV_JUNCTION = "forced-prime-junction"

SCALAR_FINAL_TOL = 1e-4  # scalar_limit_sweep's final deviation bound, relative to xi2_sq


def is_in_N(alpha: int) -> bool:
    """Membership in the window set: alpha even, >= 16, with alpha/2 and
    alpha - 3 both non-prime."""
    return (
        alpha % 2 == 0
        and alpha >= 16
        and not is_prime(alpha // 2)
        and not is_prime(alpha - 3)
    )


def free_indices(alpha: int) -> tuple:
    """{3, 4} plus every prime in [5, alpha/2 - 1]."""
    return (3, 4, *primes_in(5, alpha // 2 - 1))


class GoldbachSpec(Record):
    """Parameters driving one construction run.

    ``lambda_sq`` pins individual multipliers; ``scalar_u`` sets lambda_i = u
    for every free index (the scalar family used in the u -> 1+ limit).
    Any free choice left unpinned is drawn from the seeded generator,
    uniformly from (1, 4] on the squared multiplier, ascending index order,
    then the upper seed as a multiplier on xi_{alpha/2-1}^2.
    """

    FIELDS = ("alpha", "xi2_sq", "xi_half_sq", "lambda_sq", "scalar_u", "seed")

    def __init__(self, alpha: int, xi2_sq=1, xi_half_sq=None, lambda_sq: dict | None = None,
                 scalar_u=None, seed: int = 0):
        self._set(alpha=alpha, xi2_sq=xi2_sq, xi_half_sq=xi_half_sq, lambda_sq=lambda_sq,
                  scalar_u=scalar_u, seed=seed)
        if not is_in_N(self.alpha):
            raise DomainError(
                f"alpha={self.alpha} is outside the window set (need alpha even, "
                ">= 16, alpha/2 and alpha-3 non-prime)"
            )
        if not to_fraction(self.xi2_sq) > 0:
            raise DomainError("xi2_sq must be positive")
        if self.xi_half_sq is not None and not to_fraction(self.xi_half_sq) > 0:
            raise DomainError("xi_half_sq must be positive")
        if self.lambda_sq is not None and self.scalar_u is not None:
            raise DomainError("give either per-index lambda_sq or scalar_u, not both")
        if self.scalar_u is not None and not to_fraction(self.scalar_u) > 1:
            raise DomainError("scalar_u must exceed 1 (u = 1 stalls the construction)")
        if self.lambda_sq is not None:
            allowed = set(free_indices(self.alpha))
            for i, v in self.lambda_sq.items():
                if i not in allowed:
                    raise DomainError(f"lambda index {i} is not free for alpha={self.alpha}")
                if not to_fraction(v) > 1:
                    raise DomainError(f"lambda_sq[{i}] must exceed 1")


def _resolve_lambdas(spec: GoldbachSpec, precision: int) -> tuple:
    """The squared multipliers and the upper seed's multiplier, as pairs rounded to precision."""
    rng = random.Random(spec.seed)
    lam = {}
    pinned = spec.lambda_sq or {}
    scalar = None  # u**2 of the scalar family: one pair for every free index
    if spec.scalar_u is not None:
        u = _round_number(spec.scalar_u, precision)
        scalar = _mul(u, u, precision)
    for i in free_indices(spec.alpha):
        if scalar is not None:
            lam[i] = scalar
        elif i in pinned:
            lam[i] = _round_number(pinned[i], precision)
        else:
            lam[i] = _round_number(1 + 3 * (1 - rng.random()), precision)
        if not _cmp(lam[i], (1, 0)) > 0:
            # The spec's exact check passed, so only the rounding stalls it.
            raise DomainError(f"lambda_{i}^2 rounds to 1 at {precision} bits; raise --precision")
    if spec.xi_half_sq is not None:
        half_mult = None
    else:
        half_mult = _round_number(1 + 3 * (1 - rng.random()), precision)
    return lam, half_mult


def _poly_value(pairs: dict, j: int, products: dict, prec: int) -> BinaryFloat:
    """x_j at prec bits from the mantissa pairs of the slopes defined so far.

    ``pairs[i]`` is xi_i as (mantissa, exponent); a missing slope raises
    KeyError.  ``products`` is the pass's table of rounded slope products:
    a slope never changes once set, so each product is rounded once per
    pass.
    """
    return _rounded_lower(pairs, j, prec, products)


def _values(pairs: dict) -> dict:
    return {i: BinaryFloat(*p) for i, p in pairs.items()}


def build_lower(spec: GoldbachSpec, precision: int = DEFAULT_PRECISION) -> ConstructedCoding:
    """Ascending pass: free multipliers at the free indices, ratio steps at
    the others, x-values computed as soon as their slopes exist."""
    alpha = spec.alpha
    lam, half_mult = _resolve_lambdas(spec, precision)
    xi_sq = {2: _round_number(spec.xi2_sq, precision)}
    xi = {2: _sqrt(xi_sq[2], precision)}  # also the slopes' mantissa pairs the kernel reads
    provenance = {2: PROV_RANDOM}
    products = {}  # (n, q) -> xi_n*xi_q rounded, shared by every x of this pass
    # x_j reads slopes 2..j//2, so slope i completes x_{2i} and x_{2i+1}.
    x = {4: _poly_value(xi, 4, products, precision),
         5: _poly_value(xi, 5, products, precision)}
    for i in range(3, alpha // 2):
        if i in lam:
            xi_sq[i] = _mul(lam[i], xi_sq[i - 1], precision)
            provenance[i] = PROV_RANDOM
        else:
            ratio = _div(_pair(x[i]), _pair(x[i - 1]), precision)
            xi_sq[i] = _mul(ratio, xi_sq[i - 1], precision)
            provenance[i] = PROV_COMPOSITE
        if not _cmp(xi_sq[i], xi_sq[i - 1]) > 0:
            raise ConstructionFailureError(
                f"slope squares failed to increase at index {i}"
            )
        xi[i] = _sqrt(xi_sq[i], precision)
        if not _cmp(xi[i], xi[i - 1]) > 0:
            # The squares increase, so only the rounding of the root stalls it.
            raise DomainError(f"xi_{i} rounds to xi_{i - 1} at {precision} bits; raise --precision")
        for j in range(2 * i, min(2 * i + 2, alpha - 4)):
            x[j] = _poly_value(xi, j, products, precision)
    return ConstructedCoding(
        alpha=alpha,
        precision=precision,
        spec=spec,
        xi_sq=_values(xi_sq),
        xi=_values(xi),
        x=x,
        lambda_sq=_values(lam),
        provenance=provenance,
        half_multiplier=None if half_mult is None else BinaryFloat(*half_mult),
    )


def F_term(state: ConstructedCoding, r0: int) -> BinaryFloat:
    """F_{r0} = ((alpha - r0)/r0) * x_{r0-1} * (1/xi_{r0-1}^2 - 1/xi_{r0}^2)."""
    if not is_prime(r0) or not 5 <= r0 <= state.alpha // 2 - 1:
        raise DomainError(f"F terms are defined for primes in [5, {state.alpha // 2 - 1}]")
    prec = state.precision
    factor = _div((state.alpha - r0, 0), (r0, 0), prec)  # alpha - r0 < 2**53 fits any precision
    factor = _mul(factor, _pair(state.x[r0 - 1]), prec)
    inverses = _sub(_div((1, 0), _pair(state.xi_sq[r0 - 1]), prec),
                    _div((1, 0), _pair(state.xi_sq[r0]), prec), prec)
    return BinaryFloat(*_mul(factor, inverses, prec))


class ConstructedCoding(Record):
    """The construction's state: slopes through alpha/2 - 1 after the lower
    pass, through alpha - 5 after the upper one, every x-value through
    alpha - 5, and the provenance of each slope."""

    FIELDS = ("alpha", "precision", "spec", "xi_sq", "xi", "x", "lambda_sq", "provenance",
              "half_multiplier")

    def __init__(self, alpha: int, precision: int, spec: GoldbachSpec, xi_sq: dict, xi: dict,
                 x: dict, lambda_sq: dict, provenance: dict, half_multiplier=None):
        # half_multiplier: the upper seed's multiplier when xi_half_sq is unpinned
        self._set(alpha=alpha, precision=precision, spec=spec, xi_sq=xi_sq, xi=xi, x=x,
                  lambda_sq=lambda_sq, provenance=provenance, half_multiplier=half_multiplier)

    def abs_y(self, k0: int):
        """|y_{k0}| = x_{alpha - k0 - 1}."""
        return self.x[self.alpha - k0 - 1]

    @cached_property
    def prime_coding(self) -> PrimeCoding:
        """The coefficients as a float-mode coding.

        Indices 0 and 1 are free below the construction's reach and are
        filled ascending under xi_2; indices above alpha - 5 are irrelevant
        and continue with +1 steps so the coding object stays valid.
        """
        prec = self.precision
        xi2 = _pair(self.xi[2])
        pairs = [_div(xi2, (3, 0), prec), _div(_mul((2, 0), xi2, prec), (3, 0), prec)]
        pairs.extend(_pair(self.xi[i]) for i in range(2, self.alpha - 4))
        pairs.append(_add(_pair(self.xi[self.alpha - 5]), (1, 0), prec))
        s = max(0, -min(e for _, e in pairs))  # every pair is an int over 2**s
        return PrimeCoding.from_scaled([m << (e + s) for m, e in pairs], 1 << s, prec, MODE_FLOAT)


def build_upper(spec: GoldbachSpec, lower: ConstructedCoding) -> ConstructedCoding:
    """Descending pass over k0 = alpha/2 - 1 .. 5: the upper seed, ratio
    steps at composite k0, the junction formula at prime k0.  ``lower`` is
    left as it was."""
    alpha, prec = spec.alpha, lower.precision
    xi_sq = dict(lower.xi_sq)
    xi = dict(lower.xi)
    provenance = dict(lower.provenance)
    if spec.xi_half_sq is not None:
        prev = _round_number(spec.xi_half_sq, prec)
    else:
        prev = _mul(_pair(lower.half_multiplier), _pair(xi_sq[alpha // 2 - 1]), prec)
    xi_sq[alpha // 2] = BinaryFloat(*prev)
    provenance[alpha // 2] = PROV_RANDOM
    xi[alpha // 2] = BinaryFloat(*_sqrt(prev, prec))
    for k0 in range(alpha // 2 - 1, 4, -1):
        # prev is xi_{target-1}^2, the square set one step before.
        target = alpha - k0
        before, here = _pair(lower.abs_y(k0 - 1)), _pair(lower.abs_y(k0))
        if is_prime(k0):
            # x_{k0-1} and x_{k0} sum the same terms in the same order.
            if lower.x[k0 - 1] != lower.x[k0]:
                raise ConstructionFailureError(
                    f"x_{k0 - 1} != x_{k0} at prime junction {k0}"
                )
            f_term = _pair(F_term(lower, k0))
            prev = _div(before, _add(_div(here, prev, prec), f_term, prec), prec)
            provenance[target] = PROV_JUNCTION
        else:
            prev = _mul(_div(before, here, prec), prev, prec)
            provenance[target] = PROV_UPPER_RATIO
        xi_sq[target] = BinaryFloat(*prev)
        xi[target] = BinaryFloat(*_sqrt(prev, prec))
    return lower.replace(spec=spec, xi_sq=xi_sq, xi=xi, provenance=provenance)


def build_goldbach(spec: GoldbachSpec, precision: int = DEFAULT_PRECISION) -> ConstructedCoding:
    """Run both passes and return the constructed coding."""
    return build_upper(spec, build_lower(spec, precision))


class ContinuityReport(NamedTuple):
    alpha: int
    max_rel_gap: float
    gaps: dict  # k0 -> relative junction gap


def junction_gaps(cc: ConstructedCoding) -> ContinuityReport:
    """Relative gap between the one-sided second-derivative values at every
    junction k0 in {5, ..., alpha/2 - 1}."""
    alpha, prec = cc.alpha, cc.precision
    x, xi_sq = cc.x, cc.xi_sq

    def side(k0, k, m):
        # x_k / (k0 * xi_k^2) + y_k / ((alpha - k0) * xi_m^2), with y_k = -x_{alpha-k-1}.
        lower = _div(_pair(x[k]), _mul((k0, 0), _pair(xi_sq[k]), prec), prec)
        upper = _div(_pair(x[alpha - k - 1]), _mul((alpha - k0, 0), _pair(xi_sq[m]), prec), prec)
        return _sub(lower, upper, prec)

    gaps = {}
    for k0 in range(5, alpha // 2):
        (am, ae), (bm, be) = side(k0, k0 - 1, alpha - k0), side(k0, k0, alpha - k0 - 1)
        e = min(ae, be)  # reference.rel_diff's int division, both operands over 2**e
        a, b = am << (ae - e), bm << (be - e)
        gaps[k0] = abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
    return ContinuityReport(alpha=alpha, max_rel_gap=max(gaps.values()), gaps=gaps)


def verify_continuity(cc: ConstructedCoding, rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Max relative junction gap; raises when any junction exceeds rel_tol.

    A gap at or below tolerance is what it means for the constructed
    function to be well-formed.
    """
    report = junction_gaps(cc)
    offenders = {k0: g for k0, g in report.gaps.items() if g > rel_tol}
    if offenders:
        worst = max(offenders, key=offenders.get)
        raise ConstructionFailureError(
            f"junction gap {offenders[worst]:.3e} at k0={worst} exceeds {rel_tol:.1e}"
        )
    return report.max_rel_gap


class ScalarLimitRow(NamedTuple):
    u: object
    k0: int
    x_k0: object
    y_k0: object


class ScalarLimitResult(NamedTuple):
    alpha: int
    xi2_sq: object
    rows: tuple
    max_deviation: tuple  # per u, max over k0 of |value - xi2_sq/2|
    monotone: bool
    final_below: bool | None  # None when the sweep never reaches u <= 1 + 1e-6

    @property
    def converged(self) -> bool:
        return self.monotone and self.final_below is not False


def scalar_limit_sweep(alpha: int, u_list, xi2_sq=1,
                       precision: int = DEFAULT_PRECISION) -> ScalarLimitResult:
    """Tabulate x_{k0}(u) and |y_{k0}|(u) for the scalar family along u -> 1+.

    The deviation max_{k0} |x_{k0}(u) - xi2_sq/2| must decrease along the
    list (ordered toward 1); when the list reaches u <= 1 + 1e-6 the final
    deviation must also drop below SCALAR_FINAL_TOL * xi2_sq.  Failures are
    reported, not raised.
    """
    if any(not to_fraction(u) > 1 for u in u_list):
        raise DomainError("scalar sweep needs every u > 1")
    ordered = sorted(u_list, reverse=True)
    rows = []
    deviations = []
    xi2 = _round_number(xi2_sq, precision)
    half = _div(xi2, (2, 0), precision)
    for u in ordered:
        spec = GoldbachSpec(alpha=alpha, xi2_sq=xi2_sq, scalar_u=u, seed=0)
        lower = build_lower(spec, precision)
        worst = (0, 0)
        for k0 in range(4, alpha // 2):
            xv, abs_y = lower.x[k0], lower.abs_y(k0)
            rows.append(ScalarLimitRow(u=u, k0=k0, x_k0=xv, y_k0=-abs_y))
            for v in (xv, abs_y):
                m, e = _sub((v.man, v.exp), half, precision)
                if _cmp((abs(m), e), worst) > 0:
                    worst = abs(m), e
        deviations.append(BinaryFloat(*worst))
    monotone = all(a > b for a, b in zip(deviations, deviations[1:]))
    reaches_limit = to_fraction(ordered[-1]) <= 1 + Fraction(1, 10 ** 6)
    final_below = None
    if reaches_limit:
        bound = BinaryFloat(*_mul(_pair(SCALAR_FINAL_TOL), xi2, precision))
        final_below = bool(deviations[-1] <= bound)
    return ScalarLimitResult(
        alpha=alpha,
        xi2_sq=xi2_sq,
        rows=tuple(rows),
        max_deviation=tuple(deviations),
        monotone=monotone,
        final_below=final_below,
    )
