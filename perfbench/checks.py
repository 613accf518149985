"""The benchmark's own oracle: inputs from the seed and checks of CLI outputs.

Nothing here imports hypgold.  Primality comes from this file's sieve and
trial division, essential-point values from the telescoped closed form
evaluated on the slopes the benchmark generated, so a defect in the
package's oracles cannot hide a defect in its decisions.  Every check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

JUNCTION_TOL = 1e-9  # the CLI's default --tol, which build-g's gap must meet
RANDOM = "random-prime-choice"  # build-g provenance of a freely drawn slope


def sieve(n: int) -> bytearray:
    table = bytearray([1]) * (n + 1)
    table[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if table[p]:
            table[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return table


def is_prime(n: int) -> bool:
    """Trial division, independent of the sieve above."""
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def seeded_slopes(max_index: int, seed: int) -> list:
    """Strict rational slopes 1, 1 + d_1/997, ... with seeded increments d_i in 1..1000.

    The same construction as the test suite's ``seeded_coding``; a coding
    for a smaller index is a prefix of the one for a larger index.
    """
    rng = random.Random(seed)
    acc = Fraction(1)
    slopes = [acc]
    for _ in range(max_index):
        acc += Fraction(1 + rng.randrange(1000), 997)
        slopes.append(acc)
    return slopes


def default_slopes(max_index: int) -> list:
    """The CLI's default coding xi_m = 1 + m/N."""
    return [1 + Fraction(m, max_index) for m in range(max_index + 1)]


def coding_json(slopes: list) -> dict:
    return {"mode": "rational",
            "slopes": [f"{s.numerator}/{s.denominator}" for s in slopes]}


def x_value(slopes: list, k0: int) -> Fraction:
    """x_{k0} from the telescoped closed form of the lower essential polynomial."""
    root = math.isqrt(k0)
    total = Fraction(0)
    for n in range(2, root):
        total += slopes[n] * (slopes[k0 // n] - slopes[k0 // (n + 1)])
    r = slopes[root]
    if k0 // root == root:
        return total + r * r / 2
    return total + r * slopes[k0 // root] - r * r / 2


def _partitions(alpha: int, table: bytearray) -> tuple:
    hits = [k for k in range(2, alpha // 2 + 1) if table[k] and table[alpha - k]]
    inside = [k for k in hits if 5 <= k <= alpha // 2 - 1]
    return inside, [k for k in hits if k not in inside]


def check_sweep(doc: dict, hi: int) -> list:
    alphas = list(range(16, hi + 1, 2))
    problems = []
    if doc.get("command") != "goldbach-check" or doc.get("alpha_range") != [16, alphas[-1]]:
        problems.append("goldbach-check: wrong command or alpha range")
    if doc.get("all_agree") is not True:
        problems.append("goldbach-check: all_agree is not true")
    records = doc.get("records", [])
    if [r.get("alpha") for r in records] != alphas:
        return problems + ["goldbach-check: records do not cover every even alpha in order"]
    table = sieve(hi)
    for rec in records:
        inside, outside = _partitions(rec["alpha"], table)
        if (rec["k0_list"] != inside or rec["sieve_window"] != inside
                or rec["sieve_outside_window"] != outside
                or rec["sieve_agreement"] is not True or "error" in rec):
            problems.append(f"goldbach-check: alpha={rec['alpha']} disagrees with the oracle")
    return problems


def check_points(doc: dict, alpha: int, slopes: list) -> list:
    records = doc.get("records", [])
    if doc.get("alpha") != alpha or [r.get("k0") for r in records] != list(range(4, alpha // 2)):
        return ["points: wrong alpha or k0 range"]
    problems = []
    xs = [Fraction(r["x"]) for r in records]
    ys = [Fraction(r["y"]) for r in records]
    for rec, x, y in zip(records, xs, ys):
        k0 = rec["k0"]
        if x != x_value(slopes, k0) or y != -x_value(slopes, alpha - k0 - 1):
            problems.append(f"points: value mismatch at k0={k0}")
    for i in range(1, len(records)):
        k0 = records[i]["k0"]
        if (xs[i] == xs[i - 1]) != is_prime(k0) or (ys[i] == ys[i - 1]) != is_prime(alpha - k0):
            problems.append(f"points: repetition dichotomy fails at k0={k0}")
        if xs[i] < xs[i - 1] or ys[i] < ys[i - 1]:
            problems.append(f"points: ordering fails at k0={k0}")
    return problems


def check_classify(doc: dict, k: int) -> list:
    expected = {
        "k": str(k),
        "kind": "prime" if is_prime(k) else "composite_natural",
        "witnesses": [
            {"x": d, "y": k // d, "kind": "semi_vortex" if d == 1 else "vortex"}
            for d in range(1, math.isqrt(k) + 1) if k % d == 0
        ],
    }
    if any(doc.get(key) != value for key, value in expected.items()):
        return [f"classify: wrong classification of k={k}"]
    return []


def check_build_g(doc: dict, coding: dict, alpha: int, seed: int, coding_path: str) -> list:
    problems = []
    if (doc.get("alpha"), doc.get("seed"), doc.get("coding_file")) != (alpha, seed, coding_path):
        problems.append("build-g: report does not echo alpha, seed and coding file")
    if not float(doc.get("max_junction_gap", "inf")) <= JUNCTION_TOL:
        problems.append("build-g: junction gap above tolerance")
    slopes = [Fraction(s) for s in coding.get("slopes", [])]
    if coding.get("mode") != "float" or len(slopes) != alpha - 3:
        return problems + ["build-g: coding file has the wrong mode or length"]
    if any(a >= b for a, b in zip(slopes[: alpha // 2 + 1], slopes[1 : alpha // 2 + 1])):
        problems.append("build-g: slopes not strictly increasing through alpha/2")
    expected = {i: RANDOM for i in range(2, 6)}
    for i in range(6, alpha // 2):
        expected[i] = RANDOM if is_prime(i) else "forced-composite-ratio"
    expected[alpha // 2] = RANDOM
    for k0 in range(5, alpha // 2):
        expected[alpha - k0] = "forced-prime-junction" if is_prime(k0) else "forced-upper-ratio"
    if coding.get("provenance") != {str(i): v for i, v in expected.items()}:
        problems.append("build-g: provenance disagrees with the primes")
    free = {3, 4} | {p for p in range(5, alpha // 2) if is_prime(p)}
    if set(coding.get("lambda_sq", {})) != {str(i) for i in free}:
        problems.append("build-g: free indices disagree with the primes")
    return problems


def check_scalar_limit(doc: dict, alpha: int, n_u: int) -> list:
    problems = []
    if not (doc.get("monotone") is True and doc.get("converged") is True
            and doc.get("final_below") is True):
        problems.append("scalar-limit: sweep did not converge monotonically")
    deviations = [float(d) for d in doc.get("max_deviation", [])]
    if len(deviations) != n_u or any(a <= b for a, b in zip(deviations, deviations[1:])):
        problems.append("scalar-limit: deviations do not shrink along u")
    k0s = list(range(4, alpha // 2))
    if [r.get("k0") for r in doc.get("records", [])] != k0s * n_u:
        problems.append("scalar-limit: records do not cover every u and k0")
    return problems
