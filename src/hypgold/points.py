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
O(sqrt(k0)) steps and with no region set built, by two loops:
``_twice_lower_value`` sums exactly, on the integer-scaled slopes of a
rational coding or on Fractions; ``_rounded_twice_lower`` sums on
(int mantissa, exponent) pairs and rounds each product and sum to
nearest, ties to even, as mpf arithmetic rounds it.  So a float x_{k0}
has the bits ``EssentialPolynomial.evaluate`` gives at the same
precision, with no mpf arithmetic.  The region polynomial stays the
definition and the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp

from .coding import PrimeCoding
from .errors import DomainError, RangeError, TheoremViolationError
from .numeric import MODE_RATIONAL, mantissa_pair
from .oracles import goldbach_partitions_oracle, is_prime
from .regions import TYPE_COEFFICIENT, _check_k0, enumerate_regions


@dataclass(frozen=True)
class EssentialPolynomial:
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
        """Substitute x_i := xi(i).  xi is a coding, a mapping, or a callable."""
        getter = _slope_getter(xi)
        total = 0
        for (i, j), coeff in self.terms:
            total = total + coeff * getter(i) * getter(j)
        return total


def _slope_getter(xi):
    if isinstance(xi, PrimeCoding):
        return xi.slope
    if hasattr(xi, "__getitem__"):
        return xi.__getitem__
    return xi


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


def upper_essential_poly(alpha: int, k0: int) -> EssentialPolynomial:
    """The mirrored form: the negated lower polynomial of alpha - k0 - 1.

    The upper-area second derivative carries a global minus, so the stored
    polynomial is negated and y_{k0} = -x_{alpha - k0 - 1} comes out negative.
    """
    _check_alpha(alpha)
    if not 4 <= k0 <= alpha // 2 - 1:
        raise RangeError(f"upper polynomial needs 4 <= k0 <= {alpha // 2 - 1}")
    return lower_essential_poly(alpha - k0 - 1).negated()


def eval_poly(p: EssentialPolynomial, xi):
    """Evaluate at the slopes; exact when the slopes are rational."""
    if isinstance(xi, PrimeCoding):
        with xi.context():
            return p.evaluate(xi)
    return p.evaluate(xi)


def lower_point_value(xi, k0: int):
    """x_{k0} at slopes given as a coding, a mapping, or a callable.

    mpf slopes are summed on their mantissas and rounded at the ambient
    mp.prec; other slopes are summed exactly.  No precision context is
    entered, and a missing slope fails as the mapping reports it (a
    KeyError for the construction's dict).
    """
    _check_k0(k0)
    getter = _slope_getter(xi)
    if isinstance(getter(2), mpf):
        twice = _rounded_twice_lower(lambda i: mantissa_pair(getter(i)), k0, mp.prec)
        return _half_mpf(twice)
    return _twice_lower_value(getter, k0) / 2


def _twice_lower_value(getter, k0: int):
    """2*x_{k0}, summed exactly: the lower polynomial's terms in its sorted order.

    Column n < r = isqrt(k0) holds -xi_n*xi_{k0//(n+1)}, then
    +xi_n*xi_{k0//n}; column r holds +-xi_r**2/2 (+ iff k0//r = r), then
    xi_r*xi_{k0//r} when k0//r > r.  Doubling is exact, so integer slopes
    give an integer.  This is the loop for ints and Fractions;
    ``_rounded_twice_lower`` takes the same steps in the same order on
    mantissas, rounding each one.
    """
    root = math.isqrt(k0)
    total = 0
    for n in range(2, root):
        xn = getter(n)
        total = total - xn * getter(k0 // (n + 1))
        total = total + xn * getter(k0 // n)
    r = getter(root)
    top = k0 // root
    total = 2 * total + (r * r if top == root else -(r * r))
    if top > root:
        total = total + 2 * r * getter(top)
    return total


def _rounded_twice_lower(pair, k0: int, prec: int) -> tuple:
    """2*x_{k0} as (mantissa, exponent), every product and sum rounded to prec bits.

    pair(i) gives xi_i as (signed int mantissa, exponent).  The steps are
    ``_twice_lower_value``'s, in its order, each rounded to nearest with
    ties to even, as the mpf operations there round them: every such
    operation is correctly rounded, so the bits are the mpf loop's.
    Doubling only moves the exponent; ``2*xi_r`` rounds xi_r first, as
    mpf's multiplication by an int does.
    """
    root = math.isqrt(k0)
    total = (0, 0)
    for n in range(2, root):
        xn = pair(n)
        m, e = _mul(xn, pair(k0 // (n + 1)), prec)
        total = _add(total, (-m, e), prec)
        total = _add(total, _mul(xn, pair(k0 // n), prec), prec)
    r = pair(root)
    top = k0 // root
    m, e = _mul(r, r, prec)
    total = _add((total[0], total[1] + 1), (m if top == root else -m, e), prec)
    if top > root:
        total = _add(total, _mul(_round(r[0], r[1] + 1, prec), pair(top), prec), prec)
    return total


def _round(m: int, e: int, prec: int) -> tuple:
    """m*2**e rounded to prec bits, to nearest with ties to even."""
    n = m.bit_length() - prec
    if n <= 0:
        return m, e
    half = 1 << (n - 1)
    t = m + half
    q = t >> n
    if q & 1 and not t & ((half << 1) - 1):
        q -= 1  # a tie went up to odd; the even neighbour is below
    return q, e + n


def _mul(a: tuple, b: tuple, prec: int) -> tuple:
    """a*b rounded to prec bits: one exact int product."""
    return _round(a[0] * b[0], a[1] + b[1], prec)


def _add(a: tuple, b: tuple, prec: int) -> tuple:
    """a+b rounded to prec bits, for operands of at most prec significant bits.

    The exact sum of the aligned mantissas is rounded, unless the exponent
    gap passes 2*prec + 8: the operand with the smaller exponent then lies
    far below half the other's last place, so the sum rounds to the larger
    operand, as mpf_add's sticky rule rounds it, and no int grows past
    O(prec) bits.
    """
    (am, ae), (bm, be) = a, b
    d = ae - be
    if d < 0:
        am, ae, bm, be, d = bm, be, am, ae, -d
    if d > 2 * prec + 8 and am:
        return am, ae
    return _round((am << d) + bm, be, prec)


def _half_mpf(twice: tuple):
    m, e = twice
    return mp.make_mpf(from_man_exp(m, e - 1))


@dataclass(frozen=True)
class EssentialPoint:
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


# Stores nothing: maxsize=0 only counts calls, for perfbench/tracer.py's cache_info().
@lru_cache(maxsize=0)
def lower_value(c: PrimeCoding, k0: int):
    """x_{k0} at the coding: an exact Fraction from the
    integer-scaled slopes, or an mpf rounded at the coding's precision
    from the slopes' mantissas."""
    _check_k0(k0)
    if k0 // 2 > c.max_index:
        # Name the index EssentialPolynomial.evaluate fails on first: its
        # sorted terms open with (2, k0//3), (2, k0//2), or with (2, 2)
        # when k0 < 9, where k0//3 <= 2.
        missing = next(i for i in (2, k0 // 3, k0 // 2) if i > c.max_index)
        raise RangeError(f"slope index {missing} outside 0..{c.max_index}")
    if c.mode == MODE_RATIONAL:
        ints, lcm = c.scaled_slopes
        return Fraction(_twice_lower_value(ints.__getitem__, k0), 2 * lcm * lcm)
    return _half_mpf(_rounded_twice_lower(c.mantissa_pairs.__getitem__, k0, c.precision))


def essential_points(c: PrimeCoding, alpha: int) -> list:
    """P_{k0} = (x_{k0}, y_{k0}) for k0 = 4 .. alpha/2 - 1."""
    _check_coding(c, alpha)
    out = []
    with c.context():
        for k0 in range(4, alpha // 2):
            x = lower_value(c, k0)
            y = -lower_value(c, alpha - k0 - 1)
            out.append(EssentialPoint(k0=k0, x=x, y=y))
    return out


class PointTable:
    """x_4 .. x_top of one rational coding, and the facts every alpha's checks read.

    x_{k0} depends only on the coding and k0, and y_{k0} = -x_{alpha-k0-1},
    so one table serves every alpha <= top + 5.  Growing it records the
    indices j that break the sign condition (x_j <= 0) or the ordering
    (x_j < x_{j-1}), the repeat bitmap R[j] = [x_{j-1} == x_j], and the
    indices where R disagrees with is_prime(j).  An alpha's checks then
    look only for recorded indices inside its window.  The values are
    exact, so every comparison is too.
    """

    def __init__(self, c: PrimeCoding):
        self.coding = c
        self.x = [None] * 4   # x[k0] for 4 <= k0 <= top, from lower_value
        self.sign_bad = []    # j with not x_j > 0
        self.order_bad = []   # j with x_j < x_{j-1}
        self.bits = bytearray(5)  # R[j] for 5 <= j < len(bits)
        self.mismatches = []  # j with R[j] != is_prime(j)

    def grow(self, top: int) -> None:
        """Extend x and R through index top, each R[j] checked once against is_prime(j)."""
        x, c = self.x, self.coding
        for j in range(len(x), top + 1):
            value = lower_value(c, j)
            if not value > 0:
                self.sign_bad.append(j)
            if j > 4:
                if value < x[j - 1]:
                    self.order_bad.append(j)
                repeat = value == x[j - 1]
                self.bits.append(repeat)
                if repeat != is_prime(j):
                    self.mismatches.append(j)
            x.append(value)

    def check(self, alpha: int) -> bytearray:
        """Raise the first sign, ordering or dichotomy failure in alpha's window.

        Failures surface in the order a scan over k0 = 4 .. alpha/2 - 1
        meets them: every sign first, then per k0 the ordering before the
        dichotomy.  Returns the repeat bitmap R.
        """
        self.grow(alpha - 5)
        x = self.x
        k0 = _first_in_window(self.sign_bad, alpha, alpha - 1)
        if k0 is not None:
            raise TheoremViolationError(
                f"essential point sign violated at k0={k0}: "
                f"x={x[k0]}, y={-x[alpha - k0 - 1]}"
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


@dataclass(frozen=True)
class IndexComparison:
    """One junction record from the monotonicity sweep."""

    k0: int
    x_repeats: bool        # x_{k0-1} == x_{k0}
    k0_prime: bool         # expected iff x repeats
    y_repeats: bool        # y_{k0-1} == y_{k0}
    complement_prime: bool  # alpha - k0 prime; expected iff y repeats


def monotonicity_report(c: PrimeCoding, alpha: int) -> list:
    """Verify the ordering and the repetition dichotomies of both coordinates.

    Checks 0 < x_4 <= ... <= x_{alpha/2-1} and y_4 <= ... <= y_{alpha/2-1} < 0,
    plus x_{k0-1} = x_{k0} iff k0 prime and y_{k0-1} = y_{k0} iff alpha - k0
    prime.  Any failure raises TheoremViolationError: with a strict coding
    these are theorems, so a failure flags an implementation bug.  Float
    codings are checked on their exact twin, so the equalities are exact.
    """
    _check_coding(c, alpha)
    bits = _point_table(c.exact).check(alpha)
    return [_comparison(bits, alpha, k0) for k0 in range(5, alpha // 2)]


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
