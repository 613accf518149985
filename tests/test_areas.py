"""Area formulas against quadrature, derivative formulas against finite
differences, Jacobian scaling, the assembled second derivative, and the
bounds chain."""

import random
import time
from fractions import Fraction

import pytest
from mpmath import mp, mpf

import hypgold.areas as areas_mod
from hypgold.areas import (
    _require_region,
    ab_coefficients,
    area_closed,
    bounds_chain,
    hat_lower_sweep,
    hat_AT_second_derivative,
    hat_area,
)
from hypgold.coding import PrimeCoding, default_coding
from hypgold.errors import ChainViolationError, DomainError, RegionMismatchError
from hypgold.numeric import rel_diff, to_fraction, to_mpf
from hypgold.points import lower_value
from hypgold.reference import (
    area_quadrature_oracle,
    finite_difference_d1,
    finite_difference_d2,
    hat_AI_quadrature,
    hat_strip_quadrature,
)
from hypgold.regions import RegionType, enumerate_regions

from conftest import arith_coding, identity_coding, seeded_coding, strict_families

T2, T3, T5, T7, T8 = (RegionType.T2, RegionType.T3, RegionType.T5,
                      RegionType.T7, RegionType.T8)


def test_degenerate_t2_zero():
    # Curve through the cell corner: k = n * n'.
    res = area_closed(T2, 2, 9, 18)
    assert abs(res.area) < mpf(10) ** -35


def test_degenerate_t7_zero():
    res = area_closed(T7, 2, 2, 4)
    assert abs(res.area) < mpf(10) ** -35


def test_t2_frozen_example():
    # Frozen from the vertical-slice quadrature of the (2, 9) cell at 18.5.
    res = area_closed(T2, 2, 9, Fraction(37, 2))
    assert rel_diff(res.area, 0.006881022480117189) < 1e-9
    assert rel_diff(res.area, area_quadrature_oracle(T2, 2, 9, 18.5)) < 1e-9


def test_closed_vs_quadrature_sample():
    rng = random.Random(31)
    k0s = rng.sample(range(4, 201), 40)
    for k0 in k0s:
        frac = Fraction(rng.randrange(1, 10), 10)
        k = k0 + frac
        for n, np_, t in enumerate_regions(k0):
            closed = area_closed(t, n, np_, k)
            numeric = area_quadrature_oracle(t, n, np_, k)
            assert rel_diff(closed.area, numeric) < 1e-8 or abs(numeric) < 1e-12, (k0, n, np_, t)


def test_t3_area_linear_in_k():
    for (n, np_) in ((2, 7), (2, 8)):
        a1 = area_closed(T3, n, np_, Fraction(73, 4)).area   # 18.25
        a2 = area_closed(T3, n, np_, Fraction(37, 2)).area   # 18.5
        a3 = area_closed(T3, n, np_, Fraction(75, 4)).area   # 18.75
        assert abs((a3 - a2) - (a2 - a1)) < mpf(10) ** -30


def test_derivatives_match_finite_differences():
    rng = random.Random(77)
    with mp.workprec(160):
        h = mpf(10) ** -5
        for k0 in rng.sample(range(4, 201), 12):
            k = mpf(k0) + mpf(1) / 2
            for n, np_, t in enumerate_regions(k0):
                area_of = lambda kv, n=n, np_=np_, t=t: area_closed(
                    t, n, np_, kv, precision=160, check=False
                ).area
                res = area_closed(t, n, np_, k, precision=160, check=False)
                d1_fd = finite_difference_d1(area_of, k, h)
                d2_fd = finite_difference_d2(area_of, k, h)
                if res.d1 != 0:
                    assert rel_diff(res.d1, d1_fd) < 1e-6
                if res.d2 != 0:
                    assert rel_diff(res.d2, d2_fd) < 1e-5
                else:
                    assert abs(d2_fd) < 1e-9


def test_d2_values_by_type():
    k = Fraction(37, 2)
    assert rel_diff(area_closed(T2, 2, 9, k).d2, Fraction(2, 37)) < 1e-35
    assert area_closed(T3, 2, 8, k).d2 == 0
    assert rel_diff(area_closed(T5, 2, 6, k).d2, Fraction(-2, 37)) < 1e-35
    assert rel_diff(area_closed(T7, 4, 4, k).d2, Fraction(1, 37)) < 1e-35
    k8 = Fraction(17, 2)
    assert rel_diff(area_closed(T8, 2, 2, k8).d2, Fraction(-1, 17)) < 1e-35


def test_each_logarithm_evaluated_once(monkeypatch):
    # d1 is the area's logarithm, so each type takes one log (T7 takes log k and log n).
    logs = []

    class CountingMp:
        def __getattr__(self, name):
            return getattr(mp, name)

        def log(self, x):
            logs.append(x)
            return mp.log(x)

    monkeypatch.setattr(areas_mod, "mp", CountingMp())
    cases = {T2: (2, 9, Fraction(37, 2)), T3: (2, 8, Fraction(37, 2)),
             T5: (2, 6, Fraction(37, 2)), T7: (4, 4, Fraction(37, 2)),
             T8: (2, 2, Fraction(17, 2))}
    for rtype, (n, n_prime, k) in cases.items():
        logs.clear()
        area_closed(rtype, n, n_prime, k)
        assert len(logs) == (2 if rtype is T7 else 1), rtype


def test_region_membership_errors():
    with pytest.raises(RegionMismatchError):
        area_closed(T2, 2, 9, 25)  # (2,9) is not essential at k=25
    with pytest.raises(RegionMismatchError):
        area_closed(T7, 2, 3, 18.5)  # diagonal type off the diagonal
    with pytest.raises(RegionMismatchError):
        area_closed(T3, 4, 4, 18.5)  # square type on the diagonal
    with pytest.raises(DomainError):
        area_closed(T7, 2, 2, 3.5)


def test_region_validation_is_linear():
    # One lookup per region: at the parent each lookup scanned the region
    # tuple, and validating the 19,999 regions of k0 = 40000 took ~6 s.
    k = Fraction(80001, 2)
    start = time.perf_counter()
    for n, n_prime, rtype in enumerate_regions(40000):
        _require_region(rtype, n, n_prime, k)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(RegionMismatchError, match=r"\(2,20000\) typed T3 is not an essential"):
        _require_region(T3, 2, 20000, k)


def test_integer_k_closed_interval_extension():
    # k = 19 is the right endpoint of [18, 19]: the regions of 18 apply.
    res = area_closed(T2, 2, 9, 19)
    assert res.area > 0


def test_hat_area_identity():
    c = identity_coding(10)
    k = Fraction(37, 2)
    for n, np_, t in enumerate_regions(18):
        area = area_closed(t, n, np_, k).area
        assert hat_area(c, n, np_, area) == area


def test_hat_area_doubling():
    c1 = arith_coding(10)
    c2 = PrimeCoding(slopes=tuple(2 * s for s in c1.slopes))
    k = Fraction(37, 2)
    for n, np_, t in enumerate_regions(18):
        area = area_closed(t, n, np_, k).area
        assert rel_diff(hat_area(c2, n, np_, area), 4 * hat_area(c1, n, np_, area)) < 1e-30


def test_hat_area_example():
    slopes = [Fraction(1)] * 11
    slopes[9] = Fraction(2)  # xi_2 = 1, xi_9 = 2
    c = PrimeCoding(slopes=tuple(slopes))
    k = Fraction(37, 2)
    plain = area_closed(T2, 2, 9, k).area
    assert rel_diff(hat_area(c, 2, 9, plain), 2 * plain) < 1e-30


def test_hat_area_keeps_the_bits_of_a_256_bit_area():
    # The product is taken at the area's precision, not at the coding's 128
    # bits: three roundings at 256 bits stay within 2**-250 of the exact value.
    k = Fraction(37, 2)
    for c in (default_coding(40), default_coding(40, mode="float", precision=64)):
        for n, np_, t in enumerate_regions(18):
            area = area_closed(t, n, np_, k, precision=256).area
            exact = to_fraction(c.slope(n)) * to_fraction(c.slope(np_)) * to_fraction(area)
            hat = to_fraction(hat_area(c, n, np_, area, 256))
            assert abs(hat - exact) <= exact / 2 ** 250


def test_hat_at_identity_reduction():
    # With xi = 1 the polynomial values collapse and only 1/k, 1/(alpha-k) remain.
    c = identity_coding(20)
    alpha = 20
    k = Fraction(13, 2)
    x = lower_value(c, 6)
    y = -lower_value(c, alpha - 7)
    assert x == Fraction(1, 2) and y == Fraction(-1, 2)
    got = hat_AT_second_derivative(c, alpha, k)
    assert got == x / k + y / (alpha - k)


def test_hat_at_exact_rational():
    c = default_coding(20)
    alpha = 18
    got = hat_AT_second_derivative(c, alpha, Fraction(25, 4))
    assert isinstance(got, Fraction)


def test_hat_at_direct_assembly_cross_check():
    c = default_coding(24)
    alpha = 18
    with mp.workprec(128):
        for k in (Fraction(25, 4), Fraction(13, 2), Fraction(31, 4)):
            k0 = int(k)
            xi = [mpf(s.numerator) / s.denominator for s in c.slopes]
            acc = mpf(0)
            for n, np_, t in enumerate_regions(k0):
                d2 = area_closed(t, n, np_, k, check=False).d2
                acc += xi[n] * xi[np_] / (xi[k0] ** 2) * d2
            for n, np_, t in enumerate_regions(alpha - k0 - 1):
                d2 = area_closed(t, n, np_, alpha - k, check=False).d2
                acc -= xi[n] * xi[np_] / (xi[alpha - k0 - 1] ** 2) * d2
            direct = hat_AT_second_derivative(c, alpha, k)
            assert rel_diff(acc, direct) < 1e-30


def test_hat_at_matches_finite_difference_of_area_sums():
    # Each side of the assembled formula is the sweep's acceleration in its
    # own deformed variable: the lower sum at psi(k), the upper sum at
    # psi(alpha - k), subtracted.
    c = default_coding(24)
    alpha = 18
    with mp.workprec(140):
        h = mpf(10) ** -4
        f = lambda u: hat_lower_sweep(c, u)
        for k0 in (5, 6, 8):
            k = Fraction(2 * k0 + 1, 2)
            lower_hat = to_mpf(c.psi(k), 140)
            upper_hat = to_mpf(c.psi(alpha - k), 140)
            fd = finite_difference_d2(f, lower_hat, h) - finite_difference_d2(
                f, upper_hat, h
            )
            exact = hat_AT_second_derivative(c, alpha, k)
            assert rel_diff(fd, exact) < 1e-5, k0


def test_hat_lower_sweep_sums_at_the_coding_precision():
    # A rational coding has no working-precision context of its own: the sum
    # of its 128-bit deformed areas must not round at mpmath's global 53 bits.
    c = default_coding(40)
    khat = c.psi(Fraction(37, 2))
    with mp.workprec(53):
        at_53 = hat_lower_sweep(c, khat)
    assert at_53 == hat_lower_sweep(c, khat)


def test_hat_at_one_sided_at_integer_k():
    c = default_coding(24)
    alpha = 18
    right = hat_AT_second_derivative(c, alpha, 6)
    left = hat_AT_second_derivative(c, alpha, 6, side="-")
    # An unforced coding generically jumps at junctions.
    assert left != right
    assert hat_AT_second_derivative(c, alpha, 6) == right
    with pytest.raises(DomainError):
        hat_AT_second_derivative(c, alpha, 4, side="-")
    with pytest.raises(DomainError):
        hat_AT_second_derivative(c, alpha, 3.5)
    # k = alpha/2 clamps onto the final interval.
    assert hat_AT_second_derivative(c, alpha, 9) == hat_AT_second_derivative(
        c, alpha, 9, side="-"
    )


def test_float_hat_at_reads_k_exactly():
    # k = 5 - 2^-200 rounds to 5 at 128 bits; the interval is still [4, 5].
    k = 5 - Fraction(1, 2 ** 200)
    cf = default_coding(40, mode="float")
    got = hat_AT_second_derivative(cf, 40, k)
    assert got == hat_AT_second_derivative(cf, 40, 5, side="-")
    assert got != hat_AT_second_derivative(cf, 40, 5)
    assert rel_diff(got, hat_AT_second_derivative(default_coding(40), 40, k)) < 1e-30


def test_additivity_strip():
    c = default_coding(24)
    for k0 in (12, 18):
        k = k0 + Fraction(37, 100)
        total = mpf(0)
        with mp.workprec(128):
            for n, np_, t in enumerate_regions(k0):
                grown = hat_area(c, n, np_, area_closed(t, n, np_, k, check=False).area)
                base = hat_area(c, n, np_, area_closed(t, n, np_, k0, check=False).area)
                total += grown - base
        strip = hat_strip_quadrature(c, k0, k)
        assert rel_diff(total, strip) < 1e-7, k0


def test_hat_ai_identity_analytic():
    c = identity_coding(10)
    k = 18.5
    expected = (k / 2) * mp.log(k / 4) - k / 2 + 2
    assert rel_diff(hat_AI_quadrature(c, k), expected) < 1e-9


def test_b_below_a_pointwise():
    c = default_coding(20)
    alpha = 20
    for k0 in range(4, alpha // 2):
        for j in range(0, 1001):
            k = k0 + Fraction(j, 1000)
            a_coef, b_coef = ab_coefficients(c, alpha, k0, k)
            assert b_coef < a_coef


def test_bounds_chain_holds():
    for alpha in (16, 20, 34, 60):
        c = default_coding(alpha)
        entries = bounds_chain(c, alpha)
        assert len(entries) == alpha // 2 - 4
        e4 = entries[0]
        xi_u = c.slope(alpha - 5)
        xi_l = c.slope(4)
        assert e4.M_B == 1 / ((alpha - 5) * xi_u * xi_u)
        assert e4.m_A == 1 / (5 * xi_l * xi_l)


def test_bounds_chain_requires_strict():
    with pytest.raises(DomainError):
        bounds_chain(identity_coding(20), 16)


def test_bounds_chain_detects_corruption():
    c = default_coding(20)
    entries = bounds_chain(c, 16)
    assert entries[0].m_B < entries[0].M_B
    # Non-increasing slopes past the window would break interleaving; build
    # a artificially non-strict coding to show the error surfaces.
    slopes = list(default_coding(20).slopes)
    slopes[11] = slopes[12]
    bad = PrimeCoding(slopes=tuple(slopes))
    with pytest.raises((ChainViolationError, DomainError)):
        bounds_chain(bad, 16)


def test_bounds_chain_entries_are_ab_at_the_endpoints():
    for c in strict_families(60):
        for alpha in (16, 38, 60):
            for e in bounds_chain(c, alpha):
                k0 = e.k0
                assert (e.M_A, e.m_B) == ab_coefficients(c, alpha, k0, k0)
                assert (e.m_A, e.M_B) == ab_coefficients(c, alpha, k0, k0 + 1)
                xi_l, xi_u = c.slope(k0), c.slope(alpha - k0 - 1)
                assert e.M_A == 1 / (k0 * xi_l ** 2)
                assert e.m_B == 1 / ((alpha - k0) * xi_u ** 2)
