"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import json
import random
import time
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from hypgold.areas import area_closed
from hypgold.cli import main
from hypgold.coding import default_coding
from hypgold.construction import (
    GoldbachSpec,
    F_term,
    build_goldbach,
    build_lower,
    build_upper,
    is_in_N,
    junction_gaps,
    scalar_limit_sweep,
)
from hypgold.hyperbola import NumberKind, classify_number
from hypgold.oracles import is_prime, primes_in
from hypgold.points import goldbach_characterization, lower_essential_poly
from hypgold.reference import (area_quadrature_oracle, bounds_chain, finite_difference_d1,
                               finite_difference_d2, rel_diff, to_mpf)
from hypgold.regions import enumerate_regions

from conftest import strict_families
from helpers18 import alpha18_expected


def _report(number: int, description: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"PASS criterion {number} [{elapsed:6.2f}s < {budget:g}s] {description}")
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


def _run_cli(capsys, args):
    rc = main(args)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_criterion_1_region_fidelity(capsys):
    started = time.perf_counter()
    rc, payload = _run_cli(capsys, ["regions", "--k0", "17"])
    assert rc == 0
    assert [(r["n"], r["n_prime"]) for r in payload["records"]] == [
        (2, 5), (2, 6), (2, 7), (2, 8), (3, 4), (3, 5), (4, 4),
    ]
    rc, payload = _run_cli(capsys, ["regions", "--k0", "18"])
    assert rc == 0
    typed = {(r["n"], r["n_prime"]): r["type"] for r in payload["records"]}
    assert typed == {
        (2, 9): "T2", (3, 6): "T2",
        (2, 8): "T3", (2, 7): "T3", (3, 5): "T3",
        (2, 6): "T5", (3, 4): "T5",
        (4, 4): "T7",
    }
    assert enumerate_regions(18) == enumerate_regions(19)
    _report(1, "region fidelity (k0=17, k0=18, 18~19)", started, 1.0)


def test_criterion_2_area_calculus():
    started = time.perf_counter()
    checked = 0
    with mp.workprec(160):
        h = mpf(10) ** -5
        for k0 in range(4, 201):
            regions = enumerate_regions(k0)
            for tenth in (1, 5, 9):
                k = k0 + Fraction(tenth, 10)
                for n, np_, t in regions:
                    closed = area_closed(t, n, np_, k, precision=160, check=False)
                    numeric = area_quadrature_oracle(t, n, np_, k)
                    if abs(numeric) > 1e-12:
                        assert rel_diff(closed.area, numeric) <= 1e-8, (k0, n, np_, t)
                    else:
                        assert abs(closed.area) < 1e-10, (k0, n, np_, t)
                    checked += 1
            k = k0 + Fraction(1, 2)
            for n, np_, t in regions:
                area_of = lambda kv, n=n, np_=np_, t=t: mpf(area_closed(
                    t, n, np_, kv, precision=160, check=False
                ).area)
                res = area_closed(t, n, np_, k, precision=160, check=False)
                d1_fd = finite_difference_d1(area_of, to_mpf(k, 160), h)
                d2_fd = finite_difference_d2(area_of, to_mpf(k, 160), h)
                assert rel_diff(res.d1, d1_fd) <= 1e-6, (k0, n, np_, t)
                if res.d2 == 0:
                    assert abs(d2_fd) < 1e-9
                else:
                    assert rel_diff(res.d2, d2_fd) <= 1e-5, (k0, n, np_, t)
    _report(2, f"area calculus ({checked} closed-vs-quadrature checks)", started, 30.0)


def test_criterion_3_essential_polynomials():
    started = time.perf_counter()
    assert lower_essential_poly(12).as_dict() == {
        (2, 6): 1, (2, 4): -1, (3, 4): 1, (3, 3): Fraction(-1, 2),
    }
    rng = random.Random(2024)
    for draw in range(5):
        lam = {i: Fraction(rng.randrange(1080, 3800), 1000) for i in (3, 4, 5, 7)}
        xi9 = Fraction(rng.randrange(2, 40), 3)
        spec = GoldbachSpec(alpha=18, xi2_sq=1, xi_half_sq=xi9, lambda_sq=lam)
        cc = build_goldbach(spec)
        expected = alpha18_expected(lam, 1, xi9)
        for j in range(4, 14):
            assert rel_diff(cc.x[j], expected["x"][j]) <= 1e-9, (draw, "x", j)
        for i in (6, 10, 11, 12, 13):
            assert rel_diff(cc.xi_sq[i], expected["xi_sq"][i]) <= 1e-9, (draw, "xi", i)
    _report(3, "essential polynomial fidelity (k0=12 and the alpha=18 table)",
            started, 30.0)


def test_criterion_4_characterization_sweep():
    started = time.perf_counter()
    alphas = range(16, 601, 2)
    for c in strict_families(600):
        for alpha in alphas:
            expected = [
                p for p in primes_in(5, alpha // 2 - 1) if is_prime(alpha - p)
            ]
            got = goldbach_characterization(c, alpha)
            assert got == expected, (alpha, got, expected)
    _report(4, "characterization sweep (even alpha in [16, 600] x 3 codings, exact)",
            started, 300.0)


def test_criterion_5_hyperbolic_classification():
    started = time.perf_counter()
    c = default_coding(210)
    for k in range(2, 201):
        got = classify_number(c, k)
        expected = NumberKind.PRIME if is_prime(k) else NumberKind.COMPOSITE_NATURAL
        assert got is expected, k
    rng = random.Random(17)
    for _ in range(200):
        k = Fraction(rng.randrange(2, 200)) + Fraction(rng.randrange(1, 17), 17)
        assert classify_number(c, k) is NumberKind.NON_NATURAL, k
    _report(5, "hyperbolic classification (k in 2..200 and 200 non-integers)",
            started, 10.0)


def test_criterion_6_goldbach_construction():
    started = time.perf_counter()
    cases = [(alpha, seed) for seed, alpha in
             enumerate([18, 24, 36, 48, 120, 144] * 4)][:20]
    for alpha, seed in cases:
        spec = GoldbachSpec(alpha=alpha, seed=seed)
        lower = build_lower(spec)
        cc = build_upper(spec, lower)
        report = junction_gaps(cc)
        assert report.max_rel_gap <= 1e-9, (alpha, seed)
        with mp.workprec(128):
            # The construction's values are exact binary floats: mpf(v) takes
            # them into mpf arithmetic at the working precision.
            acc = mpf(cc.abs_y(alpha // 2 - 1)) / cc.xi_sq[alpha // 2]
            window = primes_in(5, alpha // 2 - 1)
            for r0 in window:
                acc += F_term(lower, r0)
            closed_form = cc.abs_y(4) / acc
            assert rel_diff(cc.xi_sq[alpha - 5], closed_form) <= 1e-9, (alpha, seed)
            lam = {i: mpf(v) for i, v in cc.lambda_sq.items()}
            base = 1 / (2 * lam[3] * lam[4])
            f5 = ((alpha - 5) / mpf(5)) * base * (1 - 1 / lam[5])
            assert rel_diff(F_term(lower, 5), f5) <= 1e-9
            for p0 in window[1:]:
                product = mpf(1)
                for q in window:
                    if q < p0:
                        product *= 1 / lam[q]
                assert rel_diff(mpf(lower.x[p0]) / lower.xi_sq[p0 - 1], base * product) <= 1e-9
                f_p = ((alpha - p0) / mpf(p0)) * base * product * (
                    1 - 1 / lam[p0]
                )
                assert rel_diff(F_term(lower, p0), f_p) <= 1e-9
    _report(6, "construction: junction gaps, xi_(alpha-5)^2 closed form, F identities "
               "(20 seeded specs)", started, 60.0)


def test_criterion_7_scalar_limit():
    started = time.perf_counter()
    u_list = [1 + Fraction(1, 10 ** m) for m in range(1, 7)]
    for alpha in (18, 24, 48):
        result = scalar_limit_sweep(alpha, u_list, xi2_sq=1)
        assert result.monotone, alpha
        assert result.final_below, alpha
        assert result.max_deviation[-1] <= mpf(10) ** -4, alpha
    _report(7, "scalar limit u -> 1+ (monotone, <= 1e-4 at u = 1 + 1e-6)",
            started, 30.0)


def test_criterion_8_bounds_chain():
    started = time.perf_counter()
    codings = strict_families(600)
    for alpha in range(16, 201, 2):
        for c in codings:
            entries = bounds_chain(c, alpha)  # raises on any interleaving break
            assert len(entries) == alpha // 2 - 4
    _report(8, "bounds chain interleaving (alpha in 16..200 x 3 strict codings)",
            started, 30.0)


def test_criterion_9_window_set_membership():
    started = time.perf_counter()
    for alpha in range(0, 10001, 2):
        expected = (
            alpha >= 16
            and alpha % 2 == 0
            and not is_prime(alpha // 2)
            and not is_prime(alpha - 3)
        )
        assert is_in_N(alpha) == expected, alpha
    for k in range(2, 51):
        assert is_in_N(12 * k), k
    _report(9, "window-set membership (even alpha <= 1e4, plus the 12k family)",
            started, 5.0)
