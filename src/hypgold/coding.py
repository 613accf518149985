"""Piecewise-affine deformations of the half-line and their transported arithmetic.

A coding is determined by positive slopes ``xi_0 .. xi_N``: on each
interval ``[m, m+1]`` the deformation is the affine map
``psi(x) = xi_m * (x - m) + B_m`` with ``B_m = xi_0 + ... + xi_{m-1}``.
The truncation to ``[0, N+1]`` is deliberate: everything downstream uses
finitely many slopes.  When the slopes increase strictly the coding
*identifies primes*: deformed hyperbolas are differentiable exactly at
points with no natural coordinate.

Only the piecewise-affine family is implemented.  A general coding would
present the same surface: ``psi``/``psi_inv`` as a strictly increasing
bijection of the truncated half-line fixing 0, one-sided derivatives
``(a_k, b_k)`` at the integers, and the transported operations derived
from them; nothing downstream needs more, and affine pieces already
realize every behaviour the classification machinery uses.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

from mpmath import mp

from .errors import DomainError, RangeError
from .numeric import (
    DEFAULT_PRECISION,
    MIN_PRECISION,
    MODE_FLOAT,
    MODE_RATIONAL,
    MODES,
    Number,
    format_exact,
    mantissa_pair,
    parse_exact,
    to_fraction,
    to_mpf,
)


@dataclass(frozen=True)
class PrimeCoding:
    """Immutable truncated piecewise-affine coding; all methods are pure."""

    slopes: tuple
    mode: str = MODE_RATIONAL
    precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        if self.mode not in MODES:
            raise DomainError(f"unknown mode {self.mode!r}")
        p = self.precision
        if not isinstance(p, int) or isinstance(p, bool) or p < MIN_PRECISION:
            raise DomainError(
                f"coding 'precision' must be an integer of at least {MIN_PRECISION} bits, "
                f"got {p!r}"
            )
        if not self.slopes:
            raise DomainError("a coding needs at least one slope")
        if self.mode == MODE_RATIONAL:
            slopes = tuple(to_fraction(s) for s in self.slopes)
        else:
            slopes = tuple(to_mpf(s, self.precision) for s in self.slopes)
        if any(s <= 0 for s in slopes):
            raise DomainError("all slopes must be positive")
        object.__setattr__(self, "slopes", slopes)

    def context(self):
        """Working-precision context for float mode, no-op for rational."""
        if self.mode == MODE_FLOAT:
            return mp.workprec(self.precision)
        return nullcontext()

    @property
    def max_index(self) -> int:
        """N: the largest slope index."""
        return len(self.slopes) - 1

    @property
    def domain_limit(self) -> int:
        """N + 1: largest representable real-line value."""
        return len(self.slopes)

    @cached_property
    def breakpoints(self) -> tuple:
        """B_0 = 0, B_m = xi_0 + ... + xi_{m-1}, up to B_{N+1}; exact Fractions in both modes."""
        return (Fraction(0), *accumulate(self.exact.slopes))

    @property
    def deformed_limit(self) -> Fraction:
        """B_{N+1}: the truncated image is [0, B_{N+1}]."""
        return self.breakpoints[-1]

    @cached_property
    def strict_through(self) -> int:
        """The largest i with xi_0 < ... < xi_i; exact on mpf slopes too."""
        slopes = self.slopes
        return next((i for i, (a, b) in enumerate(zip(slopes, slopes[1:])) if a >= b),
                    self.max_index)

    @property
    def strict(self) -> bool:
        """True when the slopes increase strictly (a prime coding proper)."""
        return self.strict_through == self.max_index

    def rounded(self, value: Fraction):
        """A value computed on the exact slopes, rounded once in float mode."""
        if self.mode == MODE_RATIONAL:
            return value
        return to_mpf(value, self.precision)

    def slope(self, m: int):
        if not 0 <= m <= self.max_index:
            raise RangeError(f"slope index {m} outside 0..{self.max_index}")
        return self.slopes[m]

    def psi(self, x: Number):
        """The deformation itself: xi_m*(x - m) + B_m on [m, m+1]."""
        x = to_fraction(x)
        if x < 0 or x > self.domain_limit:
            raise DomainError(
                f"psi argument {x} outside [0, {self.domain_limit}] "
                "(truncated coding cannot represent it)"
            )
        m = min(int(x), self.max_index)
        return self.rounded(self.exact.slopes[m] * (x - m) + self.breakpoints[m])

    def preimage(self, xhat: Number) -> Fraction:
        """psi_inv(xhat) as the exact Fraction psi_inv rounds.

        A float psi(N+1) may round up past B_{N+1}: inputs up to it read as N+1.
        """
        xhat = to_fraction(xhat)
        top = self.deformed_limit
        if xhat < 0 or (xhat > top and xhat > to_fraction(self.rounded(top))):
            raise DomainError(f"psi_inv argument {xhat} outside [0, {top}]")
        if xhat >= top:
            return Fraction(self.domain_limit)
        m = bisect_right(self.breakpoints, xhat) - 1
        return m + (xhat - self.breakpoints[m]) / self.exact.slopes[m]

    def psi_inv(self, xhat: Number):
        """Inverse of psi on [0, B_{N+1}]."""
        return self.rounded(self.preimage(xhat))

    # Transported arithmetic: conjugation by psi on the exact pre-images,
    # rounded once; DomainError when the pre-image leaves [0, N+1].

    def hat_add(self, s: Number, t: Number):
        return self.psi(self.preimage(s) + self.preimage(t))

    def hat_sub(self, s: Number, t: Number):
        x, y = self.preimage(s), self.preimage(t)
        if x < y:
            raise DomainError("hat_sub needs psi_inv(s) >= psi_inv(t)")
        return self.psi(x - y)

    def hat_mul(self, s: Number, t: Number):
        return self.psi(self.preimage(s) * self.preimage(t))

    def hat_div(self, s: Number, t: Number):
        x, y = self.preimage(s), self.preimage(t)
        if y == 0:
            raise DomainError("hat_div needs psi_inv(t) != 0")
        return self.psi(x / y)

    def one_sided_slopes(self, k: int) -> tuple:
        """(a_k, b_k): left and right derivative of psi at the integer k."""
        if not 1 <= k <= self.max_index:
            raise RangeError(f"one-sided slopes need 1 <= k <= {self.max_index}")
        return (self.slopes[k - 1], self.slopes[k])

    @cached_property
    def exact(self) -> "PrimeCoding":
        """The rational coding with exactly these slopes; self in rational mode.

        Every mpf is m*2**e, so the twin loses nothing, and every decision
        (repeats, derivative jumps, identifies_primes) is made on it: float
        mode decides as rational mode does, with no tolerance.
        """
        if self.mode == MODE_RATIONAL:
            return self
        return PrimeCoding(self.slopes)

    @cached_property
    def scaled_slopes(self) -> tuple:
        """(ints, L): the exact slopes times L, the lcm of their denominators.

        x_{k0} is a degree-2 form with coefficients in {+-1, +-1/2}, so it
        is exactly (2*x_{k0} at the ints) / (2*L**2).
        """
        xs = self.exact.slopes
        lcm = math.lcm(*(s.denominator for s in xs))
        return tuple(s.numerator * (lcm // s.denominator) for s in xs), lcm

    @cached_property
    def mantissa_pairs(self) -> tuple:
        """A float coding's slopes as (int mantissa, exponent) pairs."""
        return tuple(map(mantissa_pair, self.slopes))

    @cached_property
    def identifies_primes(self) -> bool:
        """True when xi_i*xi_j != xi_{i+1}*xi_{j+1} for all i <= j < N.

        Decided on the exact slopes.  A strict coding has the property
        (0 < a < b and 0 < c < d give ac < bd); otherwise the condition
        reads r_i*r_j != 1 for the ratios r_i = xi_{i+1}/xi_i, which one set
        of the ratios seen so far decides.
        """
        if self.strict:
            return True
        xs = self.exact.slopes
        ratios = set()
        for a, b in zip(xs, xs[1:]):
            r = b / a
            ratios.add(r)
            if 1 / r in ratios:
                return False
        return True

    def identifies_naturals(self, alpha: int) -> bool:
        """a_m*a_{alpha-m} != b_m*b_{alpha-m} for every m = 1..alpha-1, on the exact slopes."""
        if not 2 <= alpha <= self.max_index:
            raise RangeError(f"identifies_naturals needs 2 <= alpha <= {self.max_index}")
        xs = self.exact.slopes
        return all(xs[m - 1] * xs[alpha - m - 1] != xs[m] * xs[alpha - m]
                   for m in range(1, alpha))


def default_coding(max_index: int, mode: str = MODE_RATIONAL,
                   precision: int = DEFAULT_PRECISION) -> PrimeCoding:
    """The default strict coding xi_m = 1 + m/N (configurable elsewhere)."""
    if max_index < 1:
        raise DomainError("default coding needs max_index >= 1")
    slopes = tuple(1 + Fraction(m, max_index) for m in range(max_index + 1))
    return PrimeCoding(slopes=slopes, mode=mode, precision=precision)


def coding_to_json(c: PrimeCoding) -> dict:
    """JSON object {"slopes": ["p/q", ...], "mode": ...}; exact round trip."""
    payload = {"slopes": [format_exact(s) for s in c.slopes], "mode": c.mode}
    if c.mode == MODE_FLOAT:
        payload["precision"] = c.precision
    return payload


def coding_from_json(payload: dict) -> PrimeCoding:
    """The coding a coding_to_json object describes; DomainError on any other shape."""
    if not isinstance(payload, dict) or not isinstance(payload.get("slopes"), list):
        raise DomainError("coding JSON needs a 'slopes' list")
    slopes = tuple(parse_exact(str(s)) for s in payload["slopes"])
    return PrimeCoding(slopes=slopes, mode=payload.get("mode", MODE_RATIONAL),
                       precision=payload.get("precision", DEFAULT_PRECISION))
