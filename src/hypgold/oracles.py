"""The sieve-side oracles the commands run.

The sieve of Eratosthenes, primality and prime lists read off it, and the
exhaustive Goldbach partition scan.  Each is written against the most
primitive definition available, so that it shares no code path with the
essential-point machinery it reconciles.  The test-only derivations
(finite differences, the geometric cell oracle, quadrature) live in
``hypgold.reference``, which no command imports.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import compress
from typing import NamedTuple

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


@lru_cache(maxsize=32)
def _prime_list(n: int) -> list[int]:
    """The primes p <= n in order, read off sieve(n): one list per sieve bound."""
    return list(compress(range(n + 1), sieve(n)))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return bool(_table(n)[n])


def primes_in(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi (empty when hi < lo)."""
    if hi < lo or hi < 2:
        return []
    primes = _prime_list(len(_table(hi)) - 1)
    return primes[bisect_left(primes, lo):bisect_right(primes, hi)]


class PartitionReport(NamedTuple):
    """All Goldbach partitions of alpha, split by the k0 window."""

    alpha: int
    inside_window: tuple[int, ...]   # k0 in {5, ..., alpha/2 - 1}
    outside_window: tuple[int, ...]  # remaining k <= alpha/2


# A sweep asks for each alpha twice in a row: once to reconcile, once for its record.
@lru_cache(maxsize=1)
def goldbach_partitions_oracle(alpha: int) -> PartitionReport:
    """Exhaustive sieve scan: every prime p <= alpha/2 whose complement alpha-p is prime."""
    if alpha < 4 or alpha % 2:
        raise DomainError("goldbach partitions need an even alpha >= 4")
    table = _table(alpha)
    primes = _prime_list(len(table) - 1)
    half = alpha // 2
    hits = [p for p in primes[:bisect_right(primes, half)] if table[alpha - p]]
    lo = bisect_left(hits, 5)
    hi = max(lo, bisect_right(hits, half - 1))  # the window is empty below alpha = 12
    return PartitionReport(alpha=alpha, inside_window=tuple(hits[lo:hi]),
                           outside_window=tuple(hits[:lo] + hits[hi:]))
