"""Essential regions of the hyperbolas xy = k, k0 < k < k0 + 1.

A unit grid cell in the strip ``x >= 2, y >= x`` is essential when the
curve meets it in more than one point.  Exactly five edge-crossing
configurations occur, named by the tags below; the index set depends
only on k0, never on the particular k inside (k0, k0 + 1).

Edge pairs (entry, exit) per type:

    T2  left -> bottom        square cell, top of a column
    T3  top -> bottom         square cell, pass-through
    T5  top -> right          square cell, bottom of a column
    T7  left -> diagonal      triangular cell on y = x
    T8  top -> diagonal       triangular cell on y = x
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError


class RegionType(Enum):
    T2 = "T2"
    T3 = "T3"
    T5 = "T5"
    T7 = "T7"
    T8 = "T8"


DIAGONAL_TYPES = frozenset({RegionType.T7, RegionType.T8})

# Coefficient of the monomial x_n * x_{n'} (or x_n**2 / 2 on the diagonal)
# contributed by each type to the second derivative of the swept area.
TYPE_COEFFICIENT = {
    RegionType.T2: Fraction(1),
    RegionType.T3: Fraction(0),
    RegionType.T5: Fraction(-1),
    RegionType.T7: Fraction(1, 2),
    RegionType.T8: Fraction(-1, 2),
}


def _check_k0(k0) -> None:
    if not isinstance(k0, int) or k0 < 4:
        raise DomainError("essential regions need an integer k0 >= 4")


@lru_cache(maxsize=4096)
def enumerate_regions(k0: int) -> tuple:
    """All essential regions shared by the hyperbolas xy = k, k0 < k < k0+1,
    as the tuple ``((n, n_prime, RegionType), ...)`` sorted by (n, n_prime).

    For each column n < isqrt(k0) the curve enters at row floor(k0/n)
    (T2), leaves at row floor(k0/(n+1)) (T5) and passes through the rows
    between (T3).  In the last column n = isqrt(k0) the curve exits
    through the diagonal, so the bottom cell is triangular (T7 when it is
    also the top cell, T8 otherwise) and no T5 arises.  Columns and the
    rows within each are walked upward, so the cells come out sorted, each
    (n, n_prime) once.
    """
    _check_k0(k0)
    root = math.isqrt(k0)
    entries = []
    for n in range(2, root):
        lo = k0 // (n + 1)
        hi = k0 // n
        for i in range(lo, hi + 1):
            if i == hi:
                t = RegionType.T2
            elif i == lo:
                t = RegionType.T5
            else:
                t = RegionType.T3
            entries.append((n, i, t))
    hi = k0 // root
    for m in range(root, hi + 1):
        if m == root:
            t = RegionType.T7 if root == hi else RegionType.T8
        elif m == hi:
            t = RegionType.T2
        else:
            t = RegionType.T3
        entries.append((root, m, t))
    return tuple(entries)

