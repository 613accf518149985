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
same precision.  Every caller passes the rounded kernel the slopes' pairs
and a table of rounded slope products that it fills: one per construction
pass, one per float ``essential_points`` call, and a fresh one per
``lower_value``, which no command calls.  The region polynomial stays the
definition and the oracle.

``PointTable`` holds the ints 2*L**2*x_j of a rational coding, or of a
float coding's exact twin, and compares them directly.  The repetition
decisions read it, and so do a rational coding's essential points.  It
keeps the repeat bitmap R one bit per index, with a bit-reversed copy, so
that ``goldbach_sweep`` reconciles each alpha's paired window, one bit per
k0, with the sieve's as one int equality.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from operator import eq
from typing import NamedTuple

from .coding import PrimeCoding
from .errors import DomainError, RangeError, TheoremViolationError
from .numeric import MODE_RATIONAL, BinaryFloat, _add, _round, bounded_str
from .oracles import _table, goldbach_partitions_oracle, is_prime
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


def _rounded_lower(pairs, k0: int, prec: int, products: dict) -> BinaryFloat:
    """x_{k0}, every product and sum rounded to prec bits.

    ``pairs[i]`` is xi_i as (signed int mantissa, exponent), from a tuple
    or a dict.  The steps are ``_twice_lower_value``'s, in its order, each
    rounded to nearest with ties to even, as the mpf operations there round
    them: every such operation is correctly rounded, so the bits are the
    mpf loop's.  A product is one exact int product, rounded.  Doubling and
    the final halving only move the exponent; ``2*xi_r`` rounds xi_r first,
    as mpf's multiplication by an int does.

    ``products`` maps (n, q) to the rounded xi_n*xi_q; a product missing
    from it is rounded and stored.  So calls sharing one table while the
    slopes they read stay fixed round each product once, and the sums are
    rounded in the same order either way: the bits do not depend on the
    table.
    """
    get = products.get
    root = math.isqrt(k0)
    total = (0, 0)
    for n in range(2, root):
        a, b = k0 // (n + 1), k0 // n
        q, eq = get((n, a)) or _product(products, pairs, n, a, prec)
        total = _add(total, (-q, eq), prec)
        total = _add(total, get((n, b)) or _product(products, pairs, n, b, prec), prec)
    top = k0 // root
    q, eq = get((root, root)) or _product(products, pairs, root, root, prec)
    total = _add((total[0], total[1] + 1), (q if top == root else -q, eq), prec)
    if top > root:
        m, e = pairs[root]
        if m.bit_length() > prec:
            m, e = _round(m, e + 1, prec)
            b, eb = pairs[top]
            q, eq = _round(m * b, e + eb, prec)
        else:  # 2*xi_r is exact, so its product is xi_r*xi_top's, doubled
            q, eq = get((root, top)) or _product(products, pairs, root, top, prec)
            eq += 1
        total = _add(total, (q, eq), prec)
    return BinaryFloat(total[0], total[1] - 1)


def _product(products: dict, pairs, n: int, q: int, prec: int) -> tuple:
    """xi_n*xi_q rounded to prec bits, stored in products under (n, q)."""
    m, e = pairs[n]
    b, eb = pairs[q]
    value = products[n, q] = _round(m * b, e + eb, prec)
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


# Stores nothing: maxsize=0 only counts calls, for perfbench/tracer.py's cache_info().
@lru_cache(maxsize=0)
def lower_value(c: PrimeCoding, k0: int):
    """x_{k0} at the coding: an exact Fraction from the integer-scaled
    slopes, or a BinaryFloat rounded at the coding's precision from the
    slopes' mantissas with a fresh product table.  No command calls it."""
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
    return _rounded_lower(c.mantissa_pairs, k0, c.precision, {})


def essential_points(c: PrimeCoding, alpha: int) -> list:
    """P_{k0} = (x_{k0}, y_{k0}) for k0 = 4 .. alpha/2 - 1.

    A rational coding's x values are read from its ``PointTable``, whose
    x alone is grown through alpha - 5: the table its repetition checks
    decide on, which record their facts only when they run.  A float
    coding's are ``_rounded_lower``'s at its precision, every x and y of
    the call reading one table of rounded slope products, and its exact
    twin is not built.  ``_check_coding`` has checked every slope index
    they read.
    """
    _check_coding(c, alpha)
    if c.mode == MODE_RATIONAL:
        table = _point_table(c)
        table.grow(alpha - 5)
        x, scale = table.x, table.scale
        return [EssentialPoint(k0, Fraction(x[k0], scale), Fraction(-x[alpha - k0 - 1], scale))
                for k0 in range(4, alpha // 2)]
    pairs, prec, products = c.mantissa_pairs, c.precision, {}
    return [EssentialPoint(k0, _rounded_lower(pairs, k0, prec, products),
                           -_rounded_lower(pairs, alpha - k0 - 1, prec, products))
            for k0 in range(4, alpha // 2)]


class PointTable:
    """x_4 .. x_top of one rational coding, and the facts every alpha's checks read.

    x_{k0} depends only on the coding and k0, and y_{k0} = -x_{alpha-k0-1},
    so one table serves every alpha <= top + 5.  ``grow`` extends x alone,
    which is all essential points read; ``record``, which the checks run,
    also records the indices j that break the sign condition (x_j <= 0) or
    the ordering (x_j < x_{j-1}), the repeat bitmap R[j] = [x_{j-1} == x_j]
    one bit per index, with a bit-reversed copy for the mirror, and the
    indices where R disagrees with the sieve, the set bits of R XOR the
    sieve's prime bits.  An alpha's checks then look only for recorded
    indices inside its window, and at none when nothing is recorded.  The
    table holds the ints 2*L**2*x_j, one positive scale of the exact values,
    so every comparison is exact and no Fraction is built but for a message.
    """

    def __init__(self, c: PrimeCoding):
        self.coding = c
        self.scale = 2 * c.scaled_slopes[1] ** 2
        self.x = [None] * 4   # 2*L**2*x[k0] for 4 <= k0 < len(x)
        self.top = 3          # the facts below are recorded through index top
        self.sign_bad = []    # j with not x_j > 0
        self.order_bad = []   # j with x_j < x_{j-1}
        self.repeats = 0      # bit j is R[j]; R[4] is 0
        self.mirror = 0       # bit i is R[top + 5 - i]
        self.mismatches = []  # j with R[j] != [j prime]

    def grow(self, top: int) -> None:
        """Extend x through index top."""
        x, c = self.x, self.coding
        for j in range(len(x), top + 1):
            x.append(scaled_lower_value(c, j))

    def record(self, top: int) -> None:
        """Grow x through top and record the facts of each new index, R checked
        against the sieve's prime bits as one XOR."""
        lo = self.top + 1
        if top < lo:
            return
        self.grow(top)
        x = self.x
        self.sign_bad += [j for j in range(lo, top + 1) if not x[j] > 0]
        self.order_bad += [j for j in range(max(lo, 5), top + 1) if x[j] < x[j - 1]]
        # R[lo], ..., R[top] as the digits 0 and 1; x_3 is None, so R[4] is 0.
        digits = bytes(map(eq, x[lo - 1:top], x[lo:top + 1])).translate(_DIGITS)
        primes = _table(top)[top:lo - 1:-1].translate(_DIGITS)  # [j prime], j = top .. lo
        new = int(digits[::-1], 2)  # bit j - lo is R[j]
        self.repeats |= new << lo
        self.mirror = self.mirror << (top - self.top) | int(digits, 2) << 5
        self.mismatches += _set_bits(new ^ int(primes, 2), lo)
        self.top = top

    def paired_window(self, alpha: int) -> int:
        """R's paired window: bit k0 - 5 is R[k0] AND R[alpha - k0], for k0 = 5 .. alpha/2 - 1.

        The mirror shifted right by top + 5 - alpha holds R[alpha - k] at
        bit k, so one AND with R, one shift and one mask pair every k0 in
        the window with alpha - k0 at once.
        """
        both = self.mirror >> (self.top + 5 - alpha) & self.repeats
        return (both >> 5) & ((1 << (alpha // 2 - 5)) - 1)

    def check(self, alpha: int) -> None:
        """Raise the first sign, ordering or dichotomy failure in alpha's window.

        Failures surface in the order a scan over k0 = 4 .. alpha/2 - 1
        meets them: every sign first, then per k0 the ordering before the
        dichotomy.
        """
        self.record(alpha - 5)
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
            rec = _comparison(self, alpha, mismatched)
            raise TheoremViolationError(
                f"repetition dichotomy violated at alpha={alpha}, k0={mismatched}: {rec}"
            )

    def reconcile(self, alpha: int) -> tuple:
        """alpha's sieve report, and the TheoremViolationError its window raises or None.

        ``check`` runs only once the table has recorded a failure.  R's
        paired window is then compared with the sieve's as one int equality:
        both are bitmaps over the same k0, so equality is equality of the
        two partition sets.
        """
        report = goldbach_partitions_oracle(alpha)
        if self.sign_bad or self.order_bad or self.mismatches:
            try:
                self.check(alpha)
            except TheoremViolationError as exc:
                return report, exc
        window = self.paired_window(alpha)
        if window == report.window_bits:
            return report, None
        return report, TheoremViolationError(
            f"characterization/sieve mismatch at alpha={alpha}: "
            f"points gave {_set_bits(window, 5)}, sieve gives {report.inside_window}")


# Bytes 0 and 1, of R or of the sieve, as the digits of a base-2 numeral.
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _set_bits(n: int, offset: int) -> list:
    """The indices of n's set bits, lowest first, each plus offset."""
    return [i for i, digit in enumerate(bin(n)[:1:-1], offset) if digit == "1"]


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


def _comparison(table: PointTable, alpha: int, k0: int) -> IndexComparison:
    return IndexComparison(
        k0=k0,
        x_repeats=bool(table.repeats >> k0 & 1),
        k0_prime=is_prime(k0),
        y_repeats=bool(table.repeats >> (alpha - k0) & 1),
        complement_prime=is_prime(alpha - k0),
    )


def goldbach_sweep(c: PrimeCoding, alphas):
    """Reconcile each alpha of a non-empty ascending sequence, lazily: (report, error or None).

    Before this returns, the coding is checked for the whole range, raising
    the error ``_check_coding`` raises first over the alphas, and the point
    table is recorded through alphas[-1] - 5; each alpha then costs its
    sieve report and one comparison of paired windows (``PointTable.reconcile``).
    """
    # _check_coding fails every alpha past max_index + 5 or 2*strict_through + 3,
    # so only the first such alpha is checked in full, and those before it as alphas.
    fits = bisect_right(alphas, min(c.max_index + 5, 2 * c.strict_through + 3))
    for alpha in alphas[:fits]:
        _check_alpha(alpha)
    if fits < len(alphas):
        _check_coding(c, alphas[fits])
    table = _point_table(c.exact)
    table.record(alphas[-1] - 5)
    return map(table.reconcile, alphas)


def goldbach_characterization(c: PrimeCoding, alpha: int) -> list:
    """All k0 in {5, ..., alpha/2 - 1} whose essential point repeats the previous one.

    The one-alpha ``goldbach_sweep``: its failure is raised, and the list
    returned is read once off the sieve's bitmap, which is then R's too.
    """
    (report, error), = goldbach_sweep(c, (alpha,))
    if error:
        raise error
    return report.inside_window
