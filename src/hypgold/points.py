"""Essential polynomials and essential points.

The second derivative of the swept lower area, restricted to one unit
interval [k0, k0+1] and written in deformed coordinates, factors as
``P(xi) / (xi_{k0}**2 * k)`` where P is a homogeneous degree-2 form with
coefficients in {+-1, +-1/2} determined entirely by the typed region set
of k0.  Evaluating the lower form at the coding's slopes gives x_{k0},
the mirrored upper form gives y_{k0} = -x_{alpha-k0-1}; the pair
(x_{k0}, y_{k0}) is the essential point.  Repetition of consecutive
essential points characterizes the Goldbach partitions of alpha inside
the window {5, ..., alpha/2 - 1}.

x_{k0} is summed in one term order, the polynomial's sorted order, in
O(sqrt(k0)) steps and with no region set built.  ``_twice_lower_value``
sums exactly on a coding's scaled slopes ints = L*xi, giving the int
2*L**2*x_{k0} (``scaled_lower_value``); ``_rounded_lower`` takes the
same steps on (int mantissa, exponent) pairs and rounds each product and
sum with ``numeric``'s rounding, to nearest with ties to even, as mpf
arithmetic rounds it.  So a float x_{k0} has the bits
``EssentialPolynomial.evaluate`` gives on the slopes as mpf values at the
same precision.  ``lower_value`` gives one x_{k0} through one kernel or
the other.  The construction, on the slopes it has so far, and a float
coding's ``essential_points`` round with one table of rounded slope
products per pass or call.  The region polynomial stays the
definition and the oracle.

``PointTable`` holds the ints 2*L**2*x_j of a rational coding, or of a
float coding's exact twin, and compares them directly.  The repetition
decisions read it, and so do a rational coding's essential points.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .coding import PrimeCoding
from .errors import DomainError, RangeError, TheoremViolationError
from .numeric import MODE_RATIONAL, BinaryFloat, _add, _round, bounded_str
from .oracles import goldbach_partitions_oracle, is_prime
from .regions import TYPE_COEFFICIENT, _check_k0, enumerate_regions


class EssentialPolynomial(NamedTuple):
    """Sparse homogeneous degree-2 form; terms map (i, j), i <= j, to coefficients."""

    terms: tuple  # (((i, j), Fraction), ...) sorted, zero coefficients dropped

    @staticmethod
    def from_dict(d: dict) -> "EssentialPolynomial":
        items = tuple(sorted((pair, c) for pair, c in d.items() if c != 0))
        return EssentialPolynomial(terms=items)

    def as_dict(self) -> dict:
        return dict(self.terms)

    def variables(self) -> tuple:
        seen = set()
        for (i, j), _ in self.terms:
            seen.add(i)
            seen.add(j)
        return tuple(sorted(seen))

    def negated(self) -> "EssentialPolynomial":
        return EssentialPolynomial(terms=tuple((pair, -c) for pair, c in self.terms))

    def evaluate(self, xi):
        """Substitute x_i := xi[i]: exact on a rational coding, else on a mapping's arithmetic.

        A float coding's slopes are ``BinaryFloat`` values, which have no
        arithmetic: pass a mapping of them in the arithmetic to sum in.
        """
        if isinstance(xi, PrimeCoding):
            if xi.mode != MODE_RATIONAL:
                raise DomainError("a float coding's slopes have no arithmetic; pass an explicit "
                                  "mapping of its slopes, such as mpf values, instead")
            slope = xi.slope
        else:
            slope = xi.__getitem__
        total = 0
        for (i, j), coeff in self.terms:
            total = total + coeff * slope(i) * slope(j)
        return total


@lru_cache(maxsize=4096)
def lower_essential_poly(k0: int) -> EssentialPolynomial:
    """Sum of the per-type monomials over the essential regions of k0."""
    terms: dict = {}
    for n, n_prime, rtype in enumerate_regions(k0):
        coeff = TYPE_COEFFICIENT[rtype]
        if coeff == 0:
            continue
        key = (n, n_prime)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return EssentialPolynomial.from_dict(terms)


def _twice_lower_value(xi, k0: int):
    """2*x_{k0} at the slopes xi[i], exactly: the lower polynomial's terms in sorted order.

    Column n < r = isqrt(k0) holds -xi_n*xi_{k0//(n+1)}, then
    +xi_n*xi_{k0//n}; column r holds +-xi_r**2/2 (+ iff k0//r = r), then
    xi_r*xi_{k0//r} when k0//r > r.  Doubling is exact, so integer slopes
    give an integer.  ``_rounded_lower`` takes the same steps in the same
    order on mantissas, rounding each one.
    """
    root = math.isqrt(k0)
    total = 0
    for n in range(2, root):
        xn = xi[n]
        total = total - xn * xi[k0 // (n + 1)]
        total = total + xn * xi[k0 // n]
    r = xi[root]
    top = k0 // root
    total = 2 * total + (r * r if top == root else -(r * r))
    if top > root:
        total = total + 2 * r * xi[top]
    return total


def scaled_lower_value(c: PrimeCoding, k0: int) -> int:
    """2*L**2*x_{k0} at the exact slopes ints/L of c, an int; ``lower_value`` checks k0."""
    return _twice_lower_value(c.scaled_slopes[0], k0)


def _rounded_lower(pair, k0: int, prec: int, products: dict | None = None) -> BinaryFloat:
    """x_{k0}, every product and sum rounded to prec bits.

    pair(i) gives xi_i as (signed int mantissa, exponent).  The steps are
    ``_twice_lower_value``'s, in its order, each rounded to nearest with
    ties to even, as the mpf operations there round them: every such
    operation is correctly rounded, so the bits are the mpf loop's.
    A product is one exact int product, rounded.  Doubling and the final
    halving only move the exponent; ``2*xi_r`` rounds xi_r first, as
    mpf's multiplication by an int does.

    ``products`` maps (n, q) to the rounded xi_n*xi_q; a product missing
    from it is rounded and stored.  So calls sharing one table while the
    slopes they read stay fixed round each product once, and the sums are
    rounded in the same order either way: the bits do not depend on the
    table.  Without one, every product is rounded and none is kept.
    """
    get = _NO_PRODUCTS.get if products is None else products.get
    root = math.isqrt(k0)
    total = (0, 0)
    for n in range(2, root):
        a, b = k0 // (n + 1), k0 // n
        q, eq = get((n, a)) or _product(products, pair, n, a, prec)
        total = _add(total, (-q, eq), prec)
        total = _add(total, get((n, b)) or _product(products, pair, n, b, prec), prec)
    top = k0 // root
    q, eq = get((root, root)) or _product(products, pair, root, root, prec)
    total = _add((total[0], total[1] + 1), (q if top == root else -q, eq), prec)
    if top > root:
        m, e = pair(root)
        if m.bit_length() > prec:
            m, e = _round(m, e + 1, prec)
            b, eb = pair(top)
            q, eq = _round(m * b, e + eb, prec)
        else:  # 2*xi_r is exact, so its product is xi_r*xi_top's, doubled
            q, eq = get((root, top)) or _product(products, pair, root, top, prec)
            eq += 1
        total = _add(total, (q, eq), prec)
    return BinaryFloat(total[0], total[1] - 1)


_NO_PRODUCTS: dict = {}  # looked in by calls given no table; _product never writes to it


def _product(products: dict | None, pair, n: int, q: int, prec: int) -> tuple:
    """xi_n*xi_q rounded to prec bits, stored in products under (n, q) when there is a table."""
    m, e = pair(n)
    b, eb = pair(q)
    value = _round(m * b, e + eb, prec)
    if products is not None:
        products[n, q] = value
    return value


class EssentialPoint(NamedTuple):
    k0: int
    x: object  # > 0 for strict codings
    y: object  # < 0 for strict codings


def _check_alpha(alpha: int) -> None:
    if alpha < 16 or alpha % 2:
        raise DomainError("alpha must be an even number >= 16")


def _check_coding_length(c: PrimeCoding, need_index: int) -> None:
    if c.max_index < need_index:
        raise RangeError(
            f"coding defines slopes through {c.max_index}, need index {need_index}"
        )


def _check_coding(c: PrimeCoding, alpha: int) -> None:
    """alpha is valid and the coding is adapted to it."""
    _check_alpha(alpha)
    _check_coding_length(c, alpha - 5)
    # The repetition dichotomies need strictly increasing slopes through
    # alpha/2 - 1 (the coding "adapted to alpha"); constructed codings are
    # allowed to dip above that, which the essential points never see.
    if c.strict_through < alpha // 2 - 1:
        raise DomainError(
            f"essential points need slopes strictly increasing through {alpha // 2 - 1}"
        )


# Stores nothing: maxsize=0 only counts calls, for perfbench/tracer.py's
# cache_info(), and hashes no argument, so products may be a dict.
@lru_cache(maxsize=0)
def lower_value(c: PrimeCoding, k0: int, products: dict | None = None):
    """x_{k0} at the coding: an exact Fraction from the integer-scaled
    slopes, or a BinaryFloat rounded at the coding's precision from the
    slopes' mantissas, reading and filling ``_rounded_lower``'s products."""
    _check_k0(k0)
    if k0 // 2 > c.max_index:
        # Name the index EssentialPolynomial.evaluate fails on first: its
        # sorted terms open with (2, k0//3), (2, k0//2), or with (2, 2)
        # when k0 < 9, where k0//3 <= 2.
        missing = next(i for i in (2, k0 // 3, k0 // 2) if i > c.max_index)
        raise RangeError(f"slope index {missing} outside 0..{c.max_index}")
    if c.mode == MODE_RATIONAL:
        lcm = c.scaled_slopes[1]
        return Fraction(scaled_lower_value(c, k0), 2 * lcm * lcm)
    return _rounded_lower(c.mantissa_pairs.__getitem__, k0, c.precision, products)


def essential_points(c: PrimeCoding, alpha: int) -> list:
    """P_{k0} = (x_{k0}, y_{k0}) for k0 = 4 .. alpha/2 - 1.

    A rational coding's x values are read from its ``PointTable``, whose
    x alone is grown through alpha - 5: the table its repetition checks
    decide on, which record their facts only when they run.  A float
    coding's are ``lower_value``'s at its precision, every x and y of the
    call reading one table of rounded slope products, and its exact twin
    is not built.
    """
    _check_coding(c, alpha)
    if c.mode == MODE_RATIONAL:
        table = _point_table(c)
        table.grow(alpha - 5)
        x, scale = table.x, table.scale
        return [EssentialPoint(k0, Fraction(x[k0], scale), Fraction(-x[alpha - k0 - 1], scale))
                for k0 in range(4, alpha // 2)]
    products = {}
    return [EssentialPoint(k0, lower_value(c, k0, products),
                           -lower_value(c, alpha - k0 - 1, products))
            for k0 in range(4, alpha // 2)]


class PointTable:
    """x_4 .. x_top of one rational coding, and the facts every alpha's checks read.

    x_{k0} depends only on the coding and k0, and y_{k0} = -x_{alpha-k0-1},
    so one table serves every alpha <= top + 5.  ``grow`` extends x alone,
    which is all essential points read; ``record``, which the checks run,
    also records the indices j that break the sign condition (x_j <= 0) or
    the ordering (x_j < x_{j-1}), the repeat bitmap R[j] = [x_{j-1} == x_j],
    and the indices where R disagrees with is_prime(j).  An alpha's checks
    then look only for recorded indices inside its window, and at none
    when nothing is recorded.  The table holds the ints 2*L**2*x_j, one
    positive scale of the exact values, so every comparison is exact and
    no Fraction is built but for a message.
    """

    def __init__(self, c: PrimeCoding):
        self.coding = c
        self.scale = 2 * c.scaled_slopes[1] ** 2
        self.x = [None] * 4   # 2*L**2*x[k0] for 4 <= k0 <= top
        self.sign_bad = []    # j with not x_j > 0
        self.order_bad = []   # j with x_j < x_{j-1}
        self.bits = bytearray(4)  # R[j] for 5 <= j < len(bits); bits[4] is 0
        self.mismatches = []  # j with R[j] != is_prime(j)

    def grow(self, top: int) -> None:
        """Extend x through index top."""
        x, c = self.x, self.coding
        for j in range(len(x), top + 1):
            x.append(scaled_lower_value(c, j))

    def record(self, top: int) -> None:
        """Grow x through top and record its facts, each R[j] checked once against is_prime(j)."""
        self.grow(top)
        x, bits = self.x, self.bits
        for j in range(len(bits), top + 1):
            value, repeat = x[j], False
            if not value > 0:
                self.sign_bad.append(j)
            if j > 4:
                if value < x[j - 1]:
                    self.order_bad.append(j)
                repeat = value == x[j - 1]
                if repeat != is_prime(j):
                    self.mismatches.append(j)
            bits.append(repeat)

    def check(self, alpha: int) -> bytearray:
        """Raise the first sign, ordering or dichotomy failure in alpha's window.

        Failures surface in the order a scan over k0 = 4 .. alpha/2 - 1
        meets them: every sign first, then per k0 the ordering before the
        dichotomy.  Returns the repeat bitmap R.
        """
        self.record(alpha - 5)
        if not (self.sign_bad or self.order_bad or self.mismatches):
            return self.bits
        x, scale = self.x, self.scale
        k0 = _first_in_window(self.sign_bad, alpha, alpha - 1)
        if k0 is not None:
            raise TheoremViolationError(
                f"essential point sign violated at k0={k0}: "
                f"x={bounded_str(Fraction(x[k0], scale))}, "
                f"y={bounded_str(Fraction(-x[alpha - k0 - 1], scale))}"
            )
        unordered = _first_in_window(self.order_bad, alpha, alpha)
        mismatched = _first_in_window(self.mismatches, alpha, alpha)
        if unordered is not None and (mismatched is None or unordered <= mismatched):
            raise TheoremViolationError(
                f"essential point ordering violated between k0={unordered - 1} and {unordered}"
            )
        if mismatched is not None:
            rec = _comparison(self.bits, alpha, mismatched)
            raise TheoremViolationError(
                f"repetition dichotomy violated at alpha={alpha}, k0={mismatched}: {rec}"
            )
        return self.bits


def _point_table(c: PrimeCoding) -> PointTable:
    # Kept in the coding's __dict__, so the table lives exactly as long as
    # the coding; a dict keyed by id() would hand a reused id a stale table.
    table = c.__dict__.get("_point_table")
    if table is None:
        table = c.__dict__["_point_table"] = PointTable(c)
    return table


def _first_in_window(indices: list, alpha: int, mirror: int):
    """Smallest k0 < alpha/2 whose x index k0 or y index mirror - k0 is listed.

    mirror is alpha - 1 for the point P_{k0} itself and alpha for the step
    from P_{k0-1} to P_{k0}; None when no listed index falls in the window.
    """
    half = alpha // 2
    hits = [j if j < half else mirror - j for j in indices
            if j <= alpha - 5 and (j < half or mirror - j < half)]
    return min(hits, default=None)


class IndexComparison(NamedTuple):
    """One junction's repetition facts, as the dichotomy error prints them."""

    k0: int
    x_repeats: bool        # x_{k0-1} == x_{k0}
    k0_prime: bool         # expected iff x repeats
    y_repeats: bool        # y_{k0-1} == y_{k0}
    complement_prime: bool  # alpha - k0 prime; expected iff y repeats


def _comparison(bits: bytearray, alpha: int, k0: int) -> IndexComparison:
    return IndexComparison(
        k0=k0,
        x_repeats=bool(bits[k0]),
        k0_prime=is_prime(k0),
        y_repeats=bool(bits[alpha - k0]),
        complement_prime=is_prime(alpha - k0),
    )


def _paired_repeats(bits: bytearray, alpha: int) -> list:
    """k0 in {5, ..., alpha/2 - 1} with R[k0] and R[alpha - k0] both set.

    R's bytes are 0 or 1, so one big-int AND of the window with its mirror
    image (R[alpha-5], R[alpha-6], ...) pairs every k0 with alpha - k0 at
    once, and bytes.find walks the set bytes of the result.
    """
    hi = alpha // 2
    both = (int.from_bytes(bits[5:hi], "big")
            & int.from_bytes(bits[alpha - 5:alpha - hi:-1], "big")).to_bytes(hi - 5, "big")
    found = []
    i = both.find(1)
    while i >= 0:
        found.append(i + 5)
        i = both.find(1, i + 1)
    return found


def goldbach_characterization(c: PrimeCoding, alpha: int) -> list:
    """All k0 in {5, ..., alpha/2 - 1} whose essential point repeats the previous one.

    The result is reconciled against the sieve; a mismatch raises
    TheoremViolationError.
    """
    _check_coding(c, alpha)
    repeated = _paired_repeats(_point_table(c.exact).check(alpha), alpha)
    expected = list(goldbach_partitions_oracle(alpha).inside_window)
    if repeated != expected:
        raise TheoremViolationError(
            f"characterization/sieve mismatch at alpha={alpha}: "
            f"points gave {repeated}, sieve gives {expected}"
        )
    return repeated
