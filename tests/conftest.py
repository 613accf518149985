"""Shared coding factories for the test suite."""

import random
import sys
from fractions import Fraction

import mpmath
import pytest

from hypgold.coding import PrimeCoding, default_coding

# Library code guards its own precision with workprec contexts; test-side
# arithmetic on returned mpf values should not round them down to 53 bits.
mpmath.mp.prec = 128


def identity_coding(max_index: int) -> PrimeCoding:
    return PrimeCoding(slopes=(Fraction(1),) * (max_index + 1))


def arith_coding(max_index: int) -> PrimeCoding:
    """xi_m = m + 1, the worked examples' 'xi = (1, 2, ...)' coding."""
    return PrimeCoding(slopes=tuple(Fraction(m + 1) for m in range(max_index + 1)))


def pow2_coding(max_index: int) -> PrimeCoding:
    """xi_m = 2**m, the worked examples' 'xi = (1, 2, 4, ...)' coding."""
    return PrimeCoding(slopes=tuple(Fraction(2) ** m for m in range(max_index + 1)))


def harmonic_coding(max_index: int) -> PrimeCoding:
    """xi_m = (2m+3)/(m+2): strictly increasing, bounded below 2."""
    return PrimeCoding(
        slopes=tuple(Fraction(2 * m + 3, m + 2) for m in range(max_index + 1))
    )


def seeded_coding(max_index: int, seed: int) -> PrimeCoding:
    """Strictly increasing rational slopes with seeded random increments."""
    rng = random.Random(seed)
    acc = Fraction(1)
    slopes = [acc]
    for _ in range(max_index):
        acc += Fraction(1 + rng.randrange(1000), 997)
        slopes.append(acc)
    return PrimeCoding(slopes=tuple(slopes))


def strict_families(max_index: int) -> list:
    """The three strict rational codings used by the characterization sweeps."""
    return [
        default_coding(max_index),
        harmonic_coding(max_index),
        seeded_coding(max_index, seed=7),
    ]


@pytest.fixture(scope="session")
def default20() -> PrimeCoding:
    return default_coding(20)


@pytest.fixture
def low_digit_limit():
    """Python's int/str digit limit lowered to its floor, 640, and restored afterwards."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield 640
    finally:
        sys.set_int_max_str_digits(saved)
