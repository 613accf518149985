"""The sieve-side oracles the commands run.

The sieve of Eratosthenes, primality and prime lists read off it, and
every Goldbach partition of alpha.  Each is written against the most
primitive definition available, so that it shares no code path with the
essential-point machinery it reconciles.  The in-window partitions are one
bitmap, the AND of the sieve's window with its mirror, which
``goldbach_characterization`` compares with the same AND of the repeat
bitmap R as one int equality; the partition list a record prints is read
off that bitmap.  The test-only derivations (finite differences, the
geometric cell oracle, quadrature, the prime-list partition scan) live in
``hypgold.reference``, which no command imports.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import accumulate, compress
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
    """All Goldbach partitions of alpha, split by the k0 window {5, ..., alpha/2 - 1}.

    ``window_bits`` is the in-window datum, one byte per k0 read as a
    little-endian int: byte k0 - 5 is 1 iff k0 and alpha - k0 are both
    prime.  ``inside_window`` is read off it, so the bitmap a
    reconciliation compares and the list a record prints are one datum.
    """

    alpha: int
    window_bits: int
    outside_window: tuple[int, ...]  # the partitions p = 2, 3 and alpha/2 outside the window

    @property
    def inside_window(self) -> list[int]:
        """The in-window partitions in order, a fresh list read off ``window_bits``."""
        width = max(self.alpha // 2 - 5, 0)
        runs = self.window_bits.to_bytes(width, "little").split(b"\x01")
        runs.pop()  # the zero bytes after the last set one
        # Set byte j (from 0) follows j set bytes and the zero bytes of runs 0..j.
        return [5 + j + zeros for j, zeros in enumerate(accumulate(map(len, runs)))]


# A sweep asks for each alpha twice in a row: once to reconcile, once for its record.
@lru_cache(maxsize=1)
def goldbach_partitions_oracle(alpha: int) -> PartitionReport:
    """Every prime p <= alpha/2 whose complement alpha - p is prime, read off the sieve.

    The table's bytes are 0 or 1, so one big-int AND of the window
    t[5], ..., t[alpha/2 - 1] with its mirror t[alpha - 5], ..., t[alpha/2 + 1]
    sets byte k0 - 5 exactly for the partitions k0 in the window.  Outside
    it only p = 2, 3 and alpha/2 are left to test, 4 being composite.
    """
    if alpha < 4 or alpha % 2:
        raise DomainError("goldbach partitions need an even alpha >= 4")
    table = _table(alpha)
    half = alpha // 2
    width = max(half - 5, 0)  # the window is empty below alpha = 12
    window = (int.from_bytes(table[5:5 + width], "little")
              & int.from_bytes(table[alpha - 5:alpha - 5 - width:-1], "little"))
    outside = tuple(p for p in ((2, 3, half) if half > 3 else (2, 3))
                    if p <= half and table[p] and table[alpha - p])
    return PartitionReport(alpha=alpha, window_bits=window, outside_window=outside)
