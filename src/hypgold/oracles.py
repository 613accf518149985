"""Independent brute-force oracles.

Every oracle here is deliberately written against the most primitive
definition available (sieve, trial division, symmetric differences) so
that it shares no code path with the machinery it is used to check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError


@lru_cache(maxsize=32)
def sieve(n: int) -> bytes:
    """Primality table ``t[0..n]`` (1 = prime) by the sieve of Eratosthenes."""
    if n < 2:
        raise DomainError("sieve needs n >= 2")
    table = bytearray([1]) * (n + 1)
    table[0] = table[1] = 0
    p = 2
    while p * p <= n:
        if table[p]:
            table[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
        p += 1
    return bytes(table)


def _table(n: int) -> bytes:
    """A sieve covering n, sized to the next power of two (at least 64).

    Rounding the bound up keeps the cache to about log2(n) tables, so
    callers asking about ever larger n re-sieve only when n doubles.
    """
    return sieve(max(64, 1 << (n - 1).bit_length()))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return bool(_table(n)[n])


def primes_in(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi (empty when hi < lo)."""
    if hi < lo or hi < 2:
        return []
    table = _table(hi)
    return [p for p in range(max(lo, 2), hi + 1) if table[p]]


@dataclass(frozen=True)
class PartitionReport:
    """All Goldbach partitions of alpha, split by the k0 window."""

    alpha: int
    inside_window: tuple[int, ...]   # k0 in {5, ..., alpha/2 - 1}
    outside_window: tuple[int, ...]  # remaining k <= alpha/2

    @property
    def all_partitions(self) -> tuple[int, ...]:
        return tuple(sorted(self.inside_window + self.outside_window))


# A sweep asks for each alpha twice in a row: once to reconcile, once for its record.
@lru_cache(maxsize=1)
def goldbach_partitions_oracle(alpha: int) -> PartitionReport:
    """Exhaustive sieve scan for k <= alpha/2 with k and alpha-k both prime."""
    if alpha < 4 or alpha % 2:
        raise DomainError("goldbach partitions need an even alpha >= 4")
    table = _table(alpha)
    hits = [k for k in range(2, alpha // 2 + 1) if table[k] and table[alpha - k]]
    inside = tuple(k for k in hits if 5 <= k <= alpha // 2 - 1)
    outside = tuple(k for k in hits if not 5 <= k <= alpha // 2 - 1)
    return PartitionReport(alpha=alpha, inside_window=inside, outside_window=outside)


def finite_difference_d1(f, k, h):
    """Central first difference (f(k+h) - f(k-h)) / 2h."""
    return (f(k + h) - f(k - h)) / (2 * h)


def finite_difference_d2(f, k, h):
    """Central second difference (f(k+h) - 2 f(k) + f(k-h)) / h**2."""
    return (f(k + h) - 2 * f(k) + f(k - h)) / (h * h)
