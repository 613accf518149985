"""Deformed hyperbolas, their one-sided derivatives, and the point/number
classification.

On the deformed plane the image of y = k/x is u -> psi(k / psi_inv(u)).
For codings that identify primes, the transformed curve is differentiable
exactly at points with no natural coordinate, so lattice points on the
curve announce themselves through derivative jumps: the boundary lattice
point (1, k) witnesses that k is natural, interior lattice points witness
compositeness.  The jumps read only the slopes of psi either side of each
coordinate, so a lattice point is decided where it lies, at its exact
pre-image (d, k/d), on the exact twin of a float coding: classification
maps no point through psi or psi_inv.  The curve values themselves and the
deformed anti-diagonal are statements no command evaluates: they live in
``hypgold.reference``.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .coding import PrimeCoding
from .errors import DomainError, RangeError, TheoremViolationError
from .numeric import Number, bounded_str, to_fraction


class PointKind(Enum):
    SMOOTH = "smooth"
    SEMI_VORTEX = "semi_vortex"
    VORTEX = "vortex"


class NumberKind(Enum):
    PRIME = "prime"
    COMPOSITE_NATURAL = "composite_natural"
    NON_NATURAL = "non_natural"


class CurvePoint(NamedTuple):
    """A point on the deformed curve, with its real-plane pre-image."""

    u: object
    v: object
    x: object
    y: object
    k: object


def _exact_point(c: PrimeCoding, k: Number, u: Number) -> CurvePoint:
    """The curve point at u with every field an exact Fraction."""
    k = to_fraction(k)
    x = c.preimage(u)
    if x <= 0:
        raise DomainError("curve points need psi_inv(u) > 0")
    y = k / x
    if y > c.domain_limit:
        raise DomainError(f"ordinate {bounded_str(y)} beyond the coding's domain")
    return CurvePoint(u=to_fraction(u), v=c.exact.psi(y), x=x, y=y, k=k)


def _side_slopes(c: PrimeCoding, t):
    """Exact slopes of psi either side of t: (a_t, b_t) at a natural t, else xi_floor(t) twice."""
    if t.denominator == 1 and t >= 1:
        return c.exact.one_sided_slopes(int(t))
    s = c.exact.slope(math.floor(t))
    return (s, s)


def _one_sided(c: PrimeCoding, k: Fraction, x: Fraction, y: Fraction) -> tuple:
    """Exact one-sided derivatives of the deformed curve of xy = k at the pre-image (x, y)."""
    a_x, b_x = _side_slopes(c, x)
    a_y, b_y = _side_slopes(c, y)
    factor = -k / (x * x)
    return (factor * b_y / a_x, factor * a_y / b_x)


def _jump_kind(c: PrimeCoding, k: Fraction, x: Fraction, y: Fraction) -> PointKind:
    """The kind of the exact point (x, y) of xy = k, 1 <= x <= y, from its one-sided derivatives."""
    left, right = _one_sided(c, k, x, y)
    if left == right:
        return PointKind.SMOOTH
    if x == 1 and y.denominator == 1:
        return PointKind.SEMI_VORTEX
    return PointKind.VORTEX


def classify_point(c: PrimeCoding, k: Number, u: Number) -> PointKind:
    """Classify one on-curve point in the working quadrant x >= 1, y >= x.

    smooth: both one-sided derivatives agree.  semi_vortex: the jump sits
    at the boundary lattice point x = 1.  vortex: the jump sits at an
    interior lattice point (both coordinates natural, x > 1) or at a point
    with exactly one natural coordinate.
    """
    if not c.identifies_primes:
        raise DomainError("point classification needs a coding that identifies primes")
    pt = _exact_point(c, k, u)
    if pt.x < 1 or pt.y < pt.x:
        raise DomainError(
            f"point ({bounded_str(pt.x)}, {bounded_str(pt.y)}) outside the working quadrant "
            "x >= 1, y >= x"
        )
    return _jump_kind(c, pt.k, pt.x, pt.y)


def lattice_witnesses(c: PrimeCoding, k: Number) -> tuple:
    """The verified lattice points ``(d, k // d, PointKind)`` of xy = k, 1 <= d <= sqrt(k).

    Each divisor d <= sqrt(k) gives a lattice point (the only points whose
    jumps distinguish k: points with exactly one natural coordinate jump on
    every curve), and its jump is verified at (d, k/d) on the coding's
    exact twin.  k is read exactly in both modes, so a float coding never
    rounds a non-natural k onto an integer.  Returns an empty tuple when k
    is not natural.
    """
    if not c.identifies_primes:
        raise DomainError("number classification needs a coding that identifies primes")
    kv = to_fraction(k)
    if kv <= 1:
        raise DomainError("classification needs k > 1")
    if kv > c.max_index:
        raise RangeError(f"k={bounded_str(k)} beyond slope index {c.max_index}")
    if kv.denominator != 1:
        return ()
    kn = int(kv)
    exact = c.exact
    witnesses = []
    for d in range(1, math.isqrt(kn) + 1):
        if kn % d:
            continue
        x = Fraction(d)
        kind = _jump_kind(exact, kv, x, kv / x)
        if kind is PointKind.SMOOTH:
            raise TheoremViolationError(
                f"no derivative jump at lattice point ({d}, {kn // d}) on xy={kn}"
            )
        witnesses.append((d, kn // d, kind))
    semi = sum(kind is PointKind.SEMI_VORTEX for _, _, kind in witnesses)
    if semi != 1:
        raise TheoremViolationError(
            f"expected exactly one boundary lattice point on xy={kn}, saw {semi}"
        )
    return tuple(witnesses)


def number_kind(witnesses: tuple) -> NumberKind:
    """Non-natural without lattice points, prime with the boundary point alone."""
    if not witnesses:
        return NumberKind.NON_NATURAL
    return NumberKind.PRIME if len(witnesses) == 1 else NumberKind.COMPOSITE_NATURAL


def classify_number(c: PrimeCoding, k: Number) -> NumberKind:
    """Classify k > 1 from derivative jumps of its deformed hyperbola.

    k is natural iff the boundary lattice point (1, k) exists, prime iff
    no interior lattice point accompanies it (see :func:`lattice_witnesses`).
    """
    return number_kind(lattice_witnesses(c, k))
