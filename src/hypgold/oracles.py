"""The sieve-side oracles the commands run.

The sieve of Eratosthenes, primality and prime lists read off it, and
every Goldbach partition of alpha.  Each is written against the most
primitive definition available, so that it shares no code path with the
essential-point machinery it reconciles.  The sieve is also kept one bit
per index, with a bit-reversed copy, by this module's own packing: the
in-window partitions are one bitmap, one bit per k0, the AND of the
sieve's window with its mirror, which ``goldbach_sweep`` compares with the
same AND of the repeat bitmap R, packed in ``points``, as one int
equality; the partition list a record prints is read off that bitmap.
The test-only derivations (finite differences, the geometric cell
oracle, quadrature, the prime-list partition scan) live in
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


# A table's 0 and 1 bytes as the digits of a base-2 numeral.
_DIGITS = bytes.maketrans(b"\0\1", b"01")


@lru_cache(maxsize=32)
def _bit_table(n: int) -> tuple[int, int]:
    """sieve(n) one bit per index, twice: bit p of the first int is set iff
    p is prime, and bit i of the second iff n - i is."""
    digits = sieve(n).translate(_DIGITS)
    return int(digits[::-1], 2), int(digits, 2)


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

    ``window_bits`` is the in-window datum, one bit per k0: bit k0 - 5 is
    set iff k0 and alpha - k0 are both prime.  ``inside_window`` is read
    off it, so the bitmap a reconciliation compares and the list a record
    prints are one datum.
    """

    alpha: int
    window_bits: int
    outside_window: tuple[int, ...]  # the partitions p = 2, 3 and alpha/2 outside the window

    @property
    def inside_window(self) -> list[int]:
        """The in-window partitions in order, a fresh list read off ``window_bits``."""
        runs = bin(self.window_bits)[:1:-1].split("1")  # the binary digits, lowest first
        runs.pop()  # the zero bits after the last set one
        # Set bit j (from 0) follows j set bits and the zero bits of runs 0..j.
        return [5 + j + zeros for j, zeros in enumerate(accumulate(map(len, runs)))]


def goldbach_partitions_oracle(alpha: int) -> PartitionReport:
    """Every prime p <= alpha/2 whose complement alpha - p is prime, read off the sieve.

    The sieve's bit-reversed copy, shifted right by top - alpha, holds
    [alpha - k prime] at bit k, so one AND with the sieve's bits, one shift
    and one mask leave bit k0 - 5 set exactly for the partitions k0 in the
    window.  Outside it only p = 2, 3 and alpha/2 are left to test, 4 being
    composite.
    """
    if alpha < 4 or alpha % 2:
        raise DomainError("goldbach partitions need an even alpha >= 4")
    table = _table(alpha)
    top = len(table) - 1
    forward, backward = _bit_table(top)
    half = alpha // 2
    # The window is empty below alpha = 12.
    window = ((backward >> (top - alpha) & forward) >> 5) & ((1 << max(half - 5, 0)) - 1)
    outside = tuple([p for p in ((2, 3, half) if half > 3 else (2, 3))
                     if p <= half and table[p] and table[alpha - p]])
    return PartitionReport(alpha, window, outside)
