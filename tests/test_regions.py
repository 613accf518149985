"""Essential-region enumeration against the worked examples and the
geometric cell-intersection oracle."""

import math
import random
from fractions import Fraction

import pytest

from hypgold.errors import DomainError
from hypgold.oracles import primes_in
from hypgold.reference import geometric_region_oracle, oracle_region_set
from hypgold.regions import DIAGONAL_TYPES, RegionType, enumerate_regions

T2, T3, T5, T7, T8 = (RegionType.T2, RegionType.T3, RegionType.T5,
                      RegionType.T7, RegionType.T8)


def test_regions_17():
    got = tuple((n, n_prime) for n, n_prime, _ in enumerate_regions(17))
    assert got == ((2, 5), (2, 6), (2, 7), (2, 8), (3, 4), (3, 5), (4, 4))


def test_regions_18_typed():
    got = {(n, n_prime): t for n, n_prime, t in enumerate_regions(18)}
    assert got == {
        (2, 9): T2, (3, 6): T2,
        (2, 8): T3, (2, 7): T3, (3, 5): T3,
        (2, 6): T5, (3, 4): T5,
        (4, 4): T7,
    }


def test_regions_4():
    assert enumerate_regions(4) == ((2, 2, T7),)


def test_regions_equal_examples():
    assert enumerate_regions(18) == enumerate_regions(19)
    assert enumerate_regions(17) != enumerate_regions(18)
    assert enumerate_regions(17) == enumerate_regions(17)


def test_prime_stability():
    for p in primes_in(5, 500):
        assert enumerate_regions(p - 1) == enumerate_regions(p), p


def test_counting_formula():
    for k0 in range(4, 501):
        root = math.isqrt(k0)
        expected = sum(
            k0 // n - k0 // (n + 1) + 1 for n in range(2, root)
        ) + (k0 // root - root + 1)
        assert len(enumerate_regions(k0)) == expected, k0


def test_type_placement_invariants():
    for k0 in range(4, 301):
        for n, n_prime, t in enumerate_regions(k0):
            assert 2 <= n <= n_prime
            if n == n_prime:
                assert t in DIAGONAL_TYPES
            else:
                assert t in (T2, T3, T5)


def test_domain_error():
    with pytest.raises(DomainError):
        enumerate_regions(3)


def test_oracle_examples():
    k = Fraction(37, 2)  # 18.5
    assert geometric_region_oracle(k, 2, 9) is T2
    assert geometric_region_oracle(k, 2, 6) is T5
    assert geometric_region_oracle(k, 5, 5) is None


def test_oracle_rejects_integer_k():
    with pytest.raises(DomainError):
        geometric_region_oracle(18, 2, 9)


def test_oracle_agreement_full():
    # The enumeration must match the analytic cell-by-cell scan for every
    # k0 and for several k inside (k0, k0+1): the sampled k never matters.
    rng = random.Random(42)
    for k0 in range(4, 501):
        numerators = rng.sample(range(1, 97), 5)
        for num in numerators:
            k = k0 + Fraction(num, 97)
            assert oracle_region_set(k) == enumerate_regions(k0), (k0, num)


def test_oracle_independent_of_sample():
    for k0 in (12, 18, 50):
        seen = {oracle_region_set(k0 + Fraction(j, 11)) for j in range(1, 11)}
        assert len(seen) == 1
