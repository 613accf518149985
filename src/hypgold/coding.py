"""Piecewise-affine deformations of the half-line.

A coding is determined by positive slopes ``xi_0 .. xi_N``: on each
interval ``[m, m+1]`` the deformation is the affine map
``psi(x) = xi_m * (x - m) + B_m`` with ``B_m = xi_0 + ... + xi_{m-1}``.
The truncation to ``[0, N+1]`` is deliberate: everything downstream uses
finitely many slopes.  When the slopes increase strictly the coding
*identifies primes*: deformed hyperbolas are differentiable exactly at
points with no natural coordinate.

The exact slopes are held as integers over one denominator L:
``xi_m = ints[m] / L``, L the lcm of the reduced denominators.  A float
coding first rounds each slope once to its precision, so its L is a power
of two.  psi, psi_inv, the breakpoints and every decision run on those
integers in both modes, and a value a caller receives is built last.

Only the piecewise-affine family is implemented.  A general coding would
present the same surface: ``psi``/``psi_inv`` as a strictly increasing
bijection of the truncated half-line fixing 0 and one-sided derivatives
``(a_k, b_k)`` at the integers; nothing downstream needs more, and affine
pieces already realize every behaviour the classification machinery uses.
The arithmetic psi transports and the natural-identification condition
are statements no command evaluates: they live in ``hypgold.reference``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, islice, repeat

from .errors import DomainError, RangeError
from .numeric import (
    DEFAULT_PRECISION,
    MAX_PRECISION,
    MIN_PRECISION,
    MODE_FLOAT,
    MODE_RATIONAL,
    MODES,
    BinaryFloat,
    Number,
    bounded_str,
    format_exact,
    parse_exact,
    round_ratio,
    to_fraction,
)


class PrimeCoding:
    """Immutable truncated piecewise-affine coding; all methods are pure.

    A coding is its ``scaled_slopes`` ``(ints, L)`` in lowest terms, its
    ``mode`` and its ``precision``; its ``slopes`` ``ints[m]/L``, Fractions
    or the ``BinaryFloat`` each float slope is, are built only when read.
    Two codings are equal, and hash equal, when these three are.
    """

    def __init__(self, slopes, mode: str = MODE_RATIONAL, precision: int = DEFAULT_PRECISION):
        _check_settings(slopes, mode, precision)
        fs = [to_fraction(s) for s in slopes]
        if mode == MODE_FLOAT:
            # Each slope rounds over its own denominator: the lcm of a file's
            # many denominators would make every int as wide as that lcm.
            ints, scale = _round_slopes((f.numerator for f in fs), (f.denominator for f in fs),
                                        min(fs), precision)
        else:
            # Already in lowest terms, so no gcd runs: a prime p dividing L
            # divides it to the power it has in some slope's reduced
            # denominator, and that slope's int, its numerator times L over
            # that denominator, is prime to p.
            scale = math.lcm(*(f.denominator for f in fs))
            ints = tuple(f.numerator * (scale // f.denominator) for f in fs)
        self._freeze(ints, scale, mode, precision)

    @classmethod
    def from_scaled(cls, ints, scale: int, precision: int = DEFAULT_PRECISION,
                    mode: str = MODE_RATIONAL) -> "PrimeCoding":
        """The coding with slopes ints[m]/scale, rounded once in float mode; scale > 0."""
        ints = tuple(ints)
        _check_settings(ints, mode, precision)
        if scale < 1:
            raise DomainError("a coding's scale must be a positive integer")
        if mode == MODE_FLOAT:
            ints, scale = _round_slopes(ints, repeat(scale), Fraction(min(ints), scale), precision)
        else:
            # A fold, as math.gcd(scale, *ints) would copy the N ints into an
            # N-element argument array; it stops once the gcd is 1.
            g = scale
            for a in ints:
                if g == 1:
                    break
                g = math.gcd(g, a)
            if g > 1:
                ints, scale = tuple(a // g for a in ints), scale // g
        c = cls.__new__(cls)
        c._freeze(ints, scale, mode, precision)
        return c

    def _freeze(self, ints: tuple, scale: int, mode: str, precision: int) -> None:
        """Keep ints/scale, which the caller has put in lowest terms."""
        if min(ints) <= 0:
            raise DomainError("all slopes must be positive")
        self.__dict__.update(mode=mode, precision=precision, scaled_slopes=(ints, scale))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable coding")

    __delattr__ = __setattr__

    @property
    def _key(self) -> tuple:
        return self.scaled_slopes, self.mode, self.precision

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __reduce__(self):
        return PrimeCoding.from_scaled, (*self.scaled_slopes, self.precision, self.mode)

    def __repr__(self):
        return f"PrimeCoding(slopes={self.slopes!r}, mode={self.mode!r}, precision={self.precision})"

    @cached_property
    def slopes(self) -> tuple:
        """xi_0 .. xi_N, built on first read: Fractions, or a float coding's BinaryFloats."""
        ints, lcm = self.scaled_slopes
        return tuple(self.rounded(Fraction(a, lcm)) for a in ints)

    @property
    def max_index(self) -> int:
        """N: the largest slope index."""
        return len(self.scaled_slopes[0]) - 1

    @property
    def domain_limit(self) -> int:
        """N + 1: largest representable real-line value."""
        return self.max_index + 1

    @cached_property
    def _scaled_breakpoints(self) -> tuple:
        """L*B_0 = 0, ..., L*B_{N+1}: partial sums of the scaled slopes, as ints."""
        return tuple(accumulate(self.scaled_slopes[0], initial=0))

    @property
    def breakpoints(self) -> tuple:
        """B_0 = 0, B_m = xi_0 + ... + xi_{m-1}, up to B_{N+1}; exact Fractions in both modes."""
        lcm = self.scaled_slopes[1]
        return tuple(Fraction(b, lcm) for b in self._scaled_breakpoints)

    @property
    def deformed_limit(self) -> Fraction:
        """B_{N+1}: the truncated image is [0, B_{N+1}]."""
        return Fraction(self._scaled_breakpoints[-1], self.scaled_slopes[1])

    @cached_property
    def strict_through(self) -> int:
        """The largest i with xi_0 < ... < xi_i."""
        xs = self.scaled_slopes[0]
        return next((i for i, (a, b) in enumerate(zip(xs, islice(xs, 1, None))) if a >= b),
                    self.max_index)

    @property
    def strict(self) -> bool:
        """True when the slopes increase strictly (a prime coding proper)."""
        return self.strict_through == self.max_index

    def rounded(self, value: Fraction):
        """A value computed on the exact slopes, as a BinaryFloat rounded once in float mode."""
        if self.mode == MODE_RATIONAL:
            return value
        return BinaryFloat(*round_ratio(value.numerator, value.denominator, self.precision))

    def slope(self, m: int):
        if not 0 <= m <= self.max_index:
            raise RangeError(f"slope index {m} outside 0..{self.max_index}")
        ints, lcm = self.scaled_slopes
        return self.rounded(Fraction(ints[m], lcm))

    def psi(self, x: Number):
        """The deformation itself: xi_m*(x - m) + B_m on [m, m+1]."""
        x = to_fraction(x)
        if x < 0 or x > self.domain_limit:
            raise DomainError(
                f"psi argument {bounded_str(x)} outside [0, {self.domain_limit}] "
                "(truncated coding cannot represent it)"
            )
        m = min(int(x), self.max_index)
        (ints, lcm), scaled_b = self.scaled_slopes, self._scaled_breakpoints
        p, q = x.numerator, x.denominator
        return self.rounded(Fraction(ints[m] * (p - m * q) + scaled_b[m] * q, lcm * q))

    def preimage(self, xhat: Number) -> Fraction:
        """psi_inv(xhat) as the exact Fraction psi_inv rounds.

        A float psi(N+1) may round up past B_{N+1}: inputs up to it read as N+1.
        """
        xhat = to_fraction(xhat)
        top = self.deformed_limit
        if xhat < 0 or (xhat > top and xhat > to_fraction(self.rounded(top))):
            raise DomainError(
                f"psi_inv argument {bounded_str(xhat)} outside [0, {bounded_str(top)}]")
        if xhat >= top:
            return Fraction(self.domain_limit)
        (ints, lcm), scaled_b = self.scaled_slopes, self._scaled_breakpoints
        p, q = xhat.numerator, xhat.denominator
        # scaled_b holds ints, so B_m <= xhat exactly when L*B_m <= floor(L*xhat).
        m = bisect_right(scaled_b, lcm * p // q) - 1
        return Fraction(m * ints[m] * q + lcm * p - scaled_b[m] * q, ints[m] * q)

    def psi_inv(self, xhat: Number):
        """Inverse of psi on [0, B_{N+1}]."""
        return self.rounded(self.preimage(xhat))

    def one_sided_slopes(self, k: int) -> tuple:
        """(a_k, b_k): left and right derivative of psi at the integer k."""
        if not 1 <= k <= self.max_index:
            raise RangeError(f"one-sided slopes need 1 <= k <= {self.max_index}")
        return (self.slope(k - 1), self.slope(k))

    @cached_property
    def exact(self) -> "PrimeCoding":
        """The rational coding on the same ints; self in rational mode.

        A float coding's slopes are its ints over 2**s, so the twin loses
        nothing, and every decision (repeats, derivative jumps,
        identifies_primes) is made on it: float mode decides as rational
        mode does, with no tolerance.
        """
        if self.mode == MODE_RATIONAL:
            return self
        twin = object.__new__(PrimeCoding)
        twin.__dict__.update(mode=MODE_RATIONAL, precision=DEFAULT_PRECISION,
                             scaled_slopes=self.scaled_slopes)
        return twin

    @cached_property
    def mantissa_pairs(self) -> tuple:
        """A float coding's slopes as (odd int mantissa, exponent) pairs, a BinaryFloat's fields."""
        ints, scale = self.scaled_slopes
        shift = scale.bit_length() - 1
        zeros = ((a & -a).bit_length() - 1 for a in ints)
        return tuple((a >> z, z - shift) for a, z in zip(ints, zeros))

    @cached_property
    def identifies_primes(self) -> bool:
        """True when xi_i*xi_j != xi_{i+1}*xi_{j+1} for all i <= j < N.

        Decided on the exact slopes.  A strict coding has the property
        (0 < a < b and 0 < c < d give ac < bd); otherwise the condition
        reads r_i*r_j != 1 for the ratios r_i = xi_{i+1}/xi_i, which one set
        of the ratios seen so far decides, each held as a reduced int pair.
        """
        if self.strict:
            return True
        ints = self.scaled_slopes[0]
        ratios = set()
        for a, b in zip(ints, ints[1:]):
            g = math.gcd(a, b)
            ratios.add((b // g, a // g))
            if (a // g, b // g) in ratios:
                return False
        return True


def _round_slopes(nums, dens, low: Fraction, precision: int) -> tuple:
    """(ints, 2**s) in lowest terms: each slope nums[m]/dens[m] rounded once to precision bits.

    round_ratio's exponent grows with the value, so the least slope, low,
    fixes s, and no list of rounded pairs is kept.  The scale is a power of
    two, so the common factor is the lowest set bit the ints share with it.
    """
    if low <= 0:
        raise DomainError("all slopes must be positive")
    shift = max(0, -round_ratio(low.numerator, low.denominator, precision)[1])
    rounded = map(round_ratio, nums, dens, repeat(precision))
    ints = tuple(m << (e + shift) for m, e in rounded)
    zeros = shift
    for a in ints:
        if not zeros:
            break
        zeros = min(zeros, (a & -a).bit_length() - 1)
    if zeros:
        ints = tuple(a >> zeros for a in ints)
    return ints, 1 << (shift - zeros)


def _check_settings(slopes, mode: str, precision: int) -> None:
    if mode not in MODES:
        raise DomainError(f"unknown mode {mode!r}")
    if not isinstance(precision, int) or isinstance(precision, bool) or precision < MIN_PRECISION:
        raise DomainError(
            f"coding 'precision' must be an integer of at least {MIN_PRECISION} bits, "
            f"got {precision!r}"
        )
    if not slopes:
        raise DomainError("a coding needs at least one slope")


def default_coding(max_index: int, mode: str = MODE_RATIONAL,
                   precision: int = DEFAULT_PRECISION) -> PrimeCoding:
    """The default strict coding xi_m = 1 + m/N = (N + m)/N (configurable elsewhere)."""
    if max_index < 1:
        raise DomainError("default coding needs max_index >= 1")
    try:
        ints = tuple(range(max_index, 2 * max_index + 1))
    except (MemoryError, OverflowError) as exc:
        raise RangeError(
            f"a default coding with N = {bounded_str(max_index)} does not fit in memory") from exc
    return PrimeCoding.from_scaled(ints, max_index, precision, mode)


def coding_to_json(c: PrimeCoding) -> dict:
    """JSON object {"slopes": ["p/q", ...], "mode": ...}; exact round trip."""
    payload = {"slopes": [format_exact(s) for s in c.exact.slopes], "mode": c.mode}
    if c.mode == MODE_FLOAT:
        payload["precision"] = c.precision
    return payload


def coding_from_json(payload: dict) -> PrimeCoding:
    """The coding a coding_to_json object describes; DomainError on any other shape."""
    if not isinstance(payload, dict) or not isinstance(payload.get("slopes"), list):
        raise DomainError("coding JSON needs a 'slopes' list")
    precision = payload.get("precision", DEFAULT_PRECISION)
    # The constructor keeps no ceiling, so that a library caller may ask for
    # more; a file is input a user types, so it gets the run's ceiling.
    if isinstance(precision, int) and precision > MAX_PRECISION:
        raise DomainError(
            f"coding 'precision' must be at most {MAX_PRECISION} bits, "
            f"got {bounded_str(precision)}")
    slopes = tuple(parse_exact(str(s)) for s in payload["slopes"])
    return PrimeCoding(slopes=slopes, mode=payload.get("mode", MODE_RATIONAL),
                       precision=precision)
