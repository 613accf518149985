"""Fixed reference workload that measures how fast this machine runs right now.

    python3 perfbench/probe.py

Prints the seconds a fixed, stdlib-only piece of interpreter work took in
this fresh process: a bytearray sieve turned into a tuple of bools, Fraction
arithmetic and dict and sort churn, the kinds of work hypgold's sweep and
one-shot commands spend their time on.  It shares no code with hypgold, so
no change to the program moves it; only the machine does.  ``run.py`` runs
it between commands and divides each command's times by the probe times
around it (see ``REFERENCE_PROBE_S`` there).
"""

import time
from fractions import Fraction


def work() -> int:
    n = 400_000
    table = bytearray([1]) * (n + 1)
    p = 2
    while p * p <= n:
        if table[p]:
            table[p * p::p] = bytearray(len(range(p * p, n + 1, p)))
        p += 1
    flags = tuple(bool(b) for b in table)
    acc = Fraction(0)
    for k in range(1, 2500):
        acc += Fraction(k % 97 + 1, k + 1) * Fraction(1, k % 13 + 1)
    memo = {}
    for k in range(60_000):
        key = (k % 997, k % 89)
        memo[key] = memo.get(key, 0) + flags[k]
    ranked = sorted(memo.items(), key=lambda kv: (kv[1], kv[0]))
    return len(ranked) + acc.denominator % 7


if __name__ == "__main__":
    t0 = time.perf_counter()
    work()
    print(time.perf_counter() - t0)
