"""The oracles get checked against even more primitive computations."""

import sys

import pytest

from hypgold.coding import default_coding
from hypgold.errors import DomainError
from hypgold.oracles import _prime_list, goldbach_partitions_oracle, is_prime, primes_in, sieve
from hypgold.reference import (
    area_quadrature_oracle,
    finite_difference_d1,
    finite_difference_d2,
    hat_AI_quadrature,
)
from hypgold.regions import RegionType


def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_sieve_basics():
    assert is_prime(2)
    assert not is_prime(9)
    assert not is_prime(1)
    assert not is_prime(0)


def test_sieve_matches_trial_division():
    table = sieve(1000)
    for n in range(1001):
        assert table[n] == trial_division_prime(n), n


def test_increasing_is_prime_sieves_once_per_doubling():
    # Each new n used to re-sieve; rounding the bound up to a power of two
    # leaves one table per doubling of n.
    sieve.cache_clear()
    for n in range(2, 20001):
        assert is_prime(n) == trial_division_prime(n), n
    assert sieve.cache_info().misses <= 16


def test_prime_counting():
    assert sum(1 for n in range(101) if trial_division_prime(n)) == 25
    assert len(primes_in(2, 100)) == 25


def test_primes_in_window():
    assert primes_in(5, 7) == [5, 7]
    assert primes_in(8, 10) == []
    assert primes_in(5, 4) == []


def test_sieve_domain():
    with pytest.raises(DomainError):
        sieve(1)


def test_partitions_18():
    report = goldbach_partitions_oracle(18)
    assert report.inside_window == (5, 7)
    assert report.outside_window == ()


def test_partitions_16():
    report = goldbach_partitions_oracle(16)
    assert report.inside_window == (5,)
    assert report.outside_window == (3,)


def test_partitions_20():
    # 3 + 17 falls outside the window; 17 = 20 - 3 prime also explains
    # why 20 misses the construction's window set.
    report = goldbach_partitions_oracle(20)
    assert report.inside_window == (7,)
    assert report.outside_window == (3,)
    assert is_prime(20 - 3)


def test_partitions_all_partitions_sorted():
    report = goldbach_partitions_oracle(48)
    assert tuple(sorted(report.inside_window + report.outside_window)) == (5, 7, 11, 17, 19)


def test_partitions_match_the_window_scan():
    # The comprehension the prime-list scan replaced, kept as its reference.
    for alpha in range(4, 4001, 2):
        table = sieve(alpha)
        hits = [k for k in range(2, alpha // 2 + 1) if table[k] and table[alpha - k]]
        report = goldbach_partitions_oracle(alpha)
        assert report.inside_window == tuple(k for k in hits if 5 <= k <= alpha // 2 - 1)
        assert report.outside_window == tuple(k for k in hits if not 5 <= k <= alpha // 2 - 1)


def test_prime_lists_one_per_sieve_bound():
    _prime_list.cache_clear()
    for hi in range(2, 20001, 7):
        assert primes_in(hi - 30, hi) == [p for p in range(max(hi - 30, 0), hi + 1)
                                          if trial_division_prime(p)], hi
    assert _prime_list.cache_info().currsize <= 10


def test_finite_differences_quadratic():
    f = lambda t: 3 * t * t + 2 * t + 1
    assert abs(finite_difference_d2(f, 1.0, 1e-4) - 6.0) < 1e-6
    assert abs(finite_difference_d1(f, 2.0, 1e-6) - 14.0) < 1e-6


def test_finite_differences_linear():
    f = lambda t: 5 * t - 3
    assert finite_difference_d2(f, 0.5, 1e-3) == pytest.approx(0.0, abs=1e-9)


def test_quadrature_oracles_name_the_test_extra_without_scipy(monkeypatch):
    # scipy is a test-only dependency; without it the oracles say how to get it.
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.integrate", None)
    with pytest.raises(ImportError, match=r"hypgold\[test\]"):
        area_quadrature_oracle(RegionType.T2, 2, 9, 18.5)
    with pytest.raises(ImportError, match=r"hypgold\[test\]"):
        hat_AI_quadrature(default_coding(10), 18.5)
