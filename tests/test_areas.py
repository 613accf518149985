"""Area formulas against quadrature and against their mpf form, the
logarithm against mpmath's, derivative formulas against finite
differences, Jacobian scaling, the assembled second derivative, and the
bounds chain."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp

import hypgold.areas as areas_mod
from hypgold.areas import _log, _require_region, area_closed, hat_area
from hypgold.coding import PrimeCoding, default_coding
from hypgold.errors import ChainViolationError, DomainError, RegionMismatchError
from hypgold.numeric import BinaryFloat, _round, mantissa_pair, round_ratio, to_fraction
from hypgold.points import lower_value
from hypgold.reference import (
    ab_coefficients,
    area_closed_mpf,
    area_quadrature_oracle,
    bounds_chain,
    finite_difference_d1,
    finite_difference_d2,
    hat_AI_quadrature,
    hat_AT_second_derivative,
    hat_lower_sweep,
    hat_strip_quadrature,
    rel_diff,
    to_mpf,
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
        a1 = mpf(area_closed(T3, n, np_, Fraction(73, 4)).area)   # 18.25
        a2 = mpf(area_closed(T3, n, np_, Fraction(37, 2)).area)   # 18.5
        a3 = mpf(area_closed(T3, n, np_, Fraction(75, 4)).area)   # 18.75
        assert abs((a3 - a2) - (a2 - a1)) < mpf(10) ** -30


def test_derivatives_match_finite_differences():
    rng = random.Random(77)
    with mp.workprec(160):
        h = mpf(10) ** -5
        for k0 in rng.sample(range(4, 201), 12):
            k = mpf(k0) + mpf(1) / 2
            for n, np_, t in enumerate_regions(k0):
                area_of = lambda kv, n=n, np_=np_, t=t: mpf(area_closed(
                    t, n, np_, kv, precision=160, check=False
                ).area)
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
    log = areas_mod._log

    def counting_log(x, prec):
        logs.append(x)
        return log(x, prec)

    monkeypatch.setattr(areas_mod, "_log", counting_log)
    cases = {T2: (2, 9, Fraction(37, 2)), T3: (2, 8, Fraction(37, 2)),
             T5: (2, 6, Fraction(37, 2)), T7: (4, 4, Fraction(37, 2)),
             T8: (2, 2, Fraction(17, 2))}
    for rtype, (n, n_prime, k) in cases.items():
        logs.clear()
        area_closed(rtype, n, n_prime, k)
        assert len(logs) == (2 if rtype is T7 else 1), rtype


@st.composite
def log_arguments(draw):
    """(pair, precision): random mantissas at exponents far from 0, ratios of
    small integers, and arguments within 2**16 units of the last place of 1,
    on either side of it, 1 itself included."""
    prec = draw(st.sampled_from([53, 64, 128, 256, 1024]))
    kind = draw(st.sampled_from(["random", "ratio", "near-one"]))
    if kind == "random":
        pair = (draw(st.integers(1, 2 ** prec - 1)), draw(st.integers(-prec - 3000, 3000)))
    elif kind == "ratio":
        pair = round_ratio(draw(st.integers(1, 10 ** 6)), draw(st.integers(1, 10 ** 6)), prec)
    else:
        pair = ((1 << prec) + draw(st.integers(-2 ** 16, 2 ** 16)), -prec)
    return pair, prec


@given(log_arguments())
@example(((1, 0), 53))
@example(((3, -1), 1024))
@example(((2 ** 53 + 1, -53), 53))
@example(((2 ** 1024 + 1, -1024), 1024))
@settings(max_examples=300, deadline=None)
def test_log_is_mpmaths_log_rounded_once(arg):
    # mp.log is not correctly rounded at every precision: at p + 300 bits it
    # misrounds some arguments near 1 at 1024 bits, so the reference carries
    # 4000 more bits than the result and is rounded once from there.  ln(1 +
    # 2**-p) lies 2**-3p/3 above a midpoint of p-bit values, closer than
    # the first working precision can tell: only the rounding test's retry
    # rounds it up.
    pair, prec = arg
    with mp.workprec(prec + 4000):
        reference = mp.log(mp.make_mpf(from_man_exp(*pair)))
    assert BinaryFloat(*_log(pair, prec)) == BinaryFloat(*_round(*mantissa_pair(reference), prec))


def _area_corpus():
    """(k0, k): every k0 <= 150 and 60 seeded k0 up to 6000, each at k0,
    k0 + 1/2, k0 + 1/10 and a random k in between."""
    rng = random.Random(2005)
    for k0 in [*range(4, 151), *rng.sample(range(151, 6001), 60)]:
        for frac in (0, Fraction(1, 2), Fraction(1, 10), Fraction(rng.randrange(1, 10 ** 6), 10 ** 6)):
            yield k0, k0 + frac


# (k0, k, region) whose log argument mp.log misrounds in the last bit at
# the working precision, keyed by that precision.
_MISROUNDED_BY_MP_LOG = {
    128: [(234, Fraction(703, 3), (4, 46, T5))],
    1024: [(1128, Fraction(2257, 2), (21, 51, T5))],
}


@pytest.mark.parametrize("precision", [53, 128, 1024])
def test_area_closed_has_the_bits_of_its_mpf_form(precision):
    # Six seeded regions of each (k0, k), with the first and the last cell:
    # the column top's T2 and the diagonal's T7 or T8, and the arguments
    # that mp.log misrounds at this precision: the oracle rounds each log
    # once, as the pairs' _log does.
    rng = random.Random(precision)
    types = set()
    cells = []
    for k0, k in _area_corpus():
        regions = enumerate_regions(k0)
        sample = [*rng.sample(regions, min(6, len(regions))), regions[0], regions[-1]]
        cells += [(k0, k, cell) for cell in sample]
    for k0, k, (n, np_, t) in [*cells, *_MISROUNDED_BY_MP_LOG.get(precision, [])]:
        got = area_closed(t, n, np_, k, precision=precision, check=False)
        expected = area_closed_mpf(t, n, np_, k, precision)
        assert [v._mpf_ for v in got] == [v._mpf_ for v in expected], (k0, k, n, np_, t)
        types.add(t)
    assert types == set(RegionType)


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
        assert rel_diff(hat_area(c2, n, np_, area), 4 * mpf(hat_area(c1, n, np_, area))) < 1e-30


def test_hat_area_example():
    slopes = [Fraction(1)] * 11
    slopes[9] = Fraction(2)  # xi_2 = 1, xi_9 = 2
    c = PrimeCoding(slopes=tuple(slopes))
    k = Fraction(37, 2)
    plain = area_closed(T2, 2, 9, k).area
    assert rel_diff(hat_area(c, 2, 9, plain), 2 * mpf(plain)) < 1e-30


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
                total += mpf(grown) - mpf(base)
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
