"""Transformed curves: evaluation, one-sided derivatives, and the
classification of points and numbers.  The curve values are the paper's
statements in ``hypgold.reference``; the classification is ``hyperbola``'s."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypgold.coding import PrimeCoding, default_coding
from hypgold.errors import DomainError, RangeError
from hypgold.hyperbola import (
    CurvePoint,
    NumberKind,
    PointKind,
    _exact_point,
    classify_number,
    classify_point,
    lattice_witnesses,
)
from hypgold.numeric import BinaryFloat
from hypgold.oracles import is_prime
from hypgold.reference import (
    fhat,
    fhat_one_sided,
    hat_add,
    hat_div,
    hat_lower_sweep,
    hat_mul,
    hat_sub,
    hhat,
    hhat_one_sided,
    rel_diff,
    to_mpf,
)

from conftest import arith_coding, identity_coding, pow2_coding, seeded_coding


def test_fhat_endpoints():
    c = seeded_coding(12, 3)
    alpha = 9
    assert fhat(c, alpha, 0) == c.psi(alpha)
    assert fhat(c, alpha, c.psi(alpha)) == 0


def test_fhat_identity_coding():
    c = identity_coding(10)
    for u in (0, Fraction(1, 3), 2, Fraction(17, 4)):
        assert fhat(c, 7, u) == 7 - u


def test_fhat_hand_example():
    c = pow2_coding(4)
    assert c.psi(Fraction(1, 2)) == Fraction(1, 2)
    assert fhat(c, 2, Fraction(1, 2)) == 2  # psi(1.5) = 1 + 2/2


def test_fhat_strictly_decreasing():
    c = seeded_coding(9, 5)
    alpha = 8
    grid = [c.psi(Fraction(j, 7)) for j in range(0, 7 * alpha + 1)]
    values = [fhat(c, alpha, u) for u in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_fhat_one_sided_identity():
    c = identity_coding(8)
    assert fhat_one_sided(c, 6, 2) == (-1, -1)


def test_fhat_one_sided_pow2():
    c = pow2_coding(4)
    left, right = fhat_one_sided(c, 4, 1)
    assert left == Fraction(-8, 1)   # -b_3 / a_1 = -8/1
    assert right == Fraction(-2, 1)  # -a_3 / b_1 = -4/2


def test_fhat_one_sided_range():
    c = pow2_coding(6)
    with pytest.raises(RangeError):
        fhat_one_sided(c, 4, 0)
    with pytest.raises(RangeError):
        fhat_one_sided(c, 4, 4)


def test_fhat_jump_at_every_m_strict():
    for c in (arith_coding(50), seeded_coding(50, 8)):
        for alpha in range(2, 51):
            for m in range(1, alpha):
                left, right = fhat_one_sided(c, alpha, m)
                assert left != right, (alpha, m)


def test_fhat_differentiability_iff_product_identity():
    # Slopes engineered with collisions so both verdicts occur.
    slopes = tuple(Fraction(2) ** ((m * 3) % 5) for m in range(51))
    c = PrimeCoding(slopes=slopes)
    for alpha in range(2, 51):
        for m in range(1, alpha):
            left, right = fhat_one_sided(c, alpha, m)
            a_m, b_m = c.one_sided_slopes(m)
            a_c, b_c = c.one_sided_slopes(alpha - m)
            assert (left == right) == (a_m * a_c == b_m * b_c)


def test_hhat_identity_coding():
    c = identity_coding(12)
    assert hhat(c, 6, 2) == 3
    assert hhat(c, Fraction(15, 2), Fraction(5, 2)) == 3


def test_hhat_hand_example():
    c = arith_coding(4)
    assert hhat(c, 2, 1) == 3  # psi(2) = B_2 = 1 + 2


def test_hhat_symmetric_fixed_point():
    c = arith_coding(6)
    u = c.psi(2)
    assert hhat(c, 4, u) == u


def test_hhat_strictly_decreasing():
    c = seeded_coding(16, 4)
    k = Fraction(23, 2)
    grid = [c.psi(1 + Fraction(j, 9)) for j in range(0, 80)]
    values = [hhat(c, k, u) for u in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_hhat_one_sided_identity():
    c = identity_coding(12)
    for x in (Fraction(3, 2), 2, Fraction(7, 3)):
        k = 4 * x  # keeps y = 4 natural or not depending on x
        left, right = hhat_one_sided(c, k, c.psi(x))
        assert left == right == -k / (x * x)


def test_hhat_one_sided_lattice_pow2():
    c = pow2_coding(4)
    left, right = hhat_one_sided(c, 4, c.psi(2))
    assert left == Fraction(-2, 1)       # -(4/4) * b_2/a_2 = -4/2
    assert right == Fraction(-1, 2)      # -(4/4) * a_2/b_2 = -2/4


def test_hhat_one_sided_natural_ordinate():
    # x = 3/2, y = 3 on the arithmetic coding: numerator slope splits.
    c = arith_coding(6)
    k = Fraction(9, 2)
    left, right = hhat_one_sided(c, k, c.psi(Fraction(3, 2)))
    assert left == -4   # -(k/x^2) * b_3/xi_1 = -2 * 4/2
    assert right == -3  # -(k/x^2) * a_3/xi_1 = -2 * 3/2


def test_hhat_one_sided_natural_abscissa():
    # x = 2, y = 7/3: denominator slope splits.
    c = arith_coding(6)
    k = Fraction(14, 3)
    left, right = hhat_one_sided(c, k, c.psi(2))
    assert left == Fraction(-7, 4)   # -(k/4) * xi_2/a_2
    assert right == Fraction(-7, 6)  # -(k/4) * xi_2/b_2


def test_differentiability_criterion_random():
    c = seeded_coding(12, 17)
    rng = random.Random(99)
    for _ in range(10_000):
        if rng.random() < 0.5:
            x = Fraction(rng.randrange(1, 9)) + Fraction(rng.randrange(1, 7), 7)
        else:
            x = Fraction(rng.randrange(1, 9))
        if rng.random() < 0.5:
            y = Fraction(rng.randrange(1, 12)) + Fraction(rng.randrange(1, 7), 7)
        else:
            y = Fraction(rng.randrange(1, 12))
        k = x * y
        left, right = hhat_one_sided(c, k, c.psi(x))
        natural_free = x.denominator != 1 and y.denominator != 1
        assert (left == right) == natural_free, (x, y)


def test_classify_point_examples():
    c = default_coding(20)
    assert classify_point(c, 17, c.psi(1)) is PointKind.SEMI_VORTEX
    assert classify_point(c, 12, c.psi(3)) is PointKind.VORTEX
    smooth_u = c.psi(Fraction(3, 2))
    assert classify_point(c, Fraction(21, 4), smooth_u) is PointKind.SMOOTH


def test_classify_point_quadrant():
    c = default_coding(20)
    with pytest.raises(DomainError):
        classify_point(c, 4, c.psi(3))  # y = 4/3 < x
    with pytest.raises(DomainError):
        classify_point(c, Fraction(1, 4), c.psi(Fraction(1, 2)))  # x < 1


def test_classify_point_needs_identifying_coding():
    c = identity_coding(20)
    with pytest.raises(DomainError):
        classify_point(c, 12, c.psi(3))


def test_classify_number_small_sweep():
    from conftest import harmonic_coding

    for c in (default_coding(64), harmonic_coding(64)):
        for k in range(2, 61):
            got = classify_number(c, k)
            if is_prime(k):
                assert got is NumberKind.PRIME, k
            else:
                assert got is NumberKind.COMPOSITE_NATURAL, k


def test_classify_number_perfect_square():
    c = default_coding(30)
    assert classify_number(c, 25) is NumberKind.COMPOSITE_NATURAL


def test_classify_number_non_integers():
    c = default_coding(64)
    rng = random.Random(5)
    for _ in range(50):
        k = Fraction(rng.randrange(2, 60)) + Fraction(rng.randrange(1, 13), 13)
        assert classify_number(c, k) is NumberKind.NON_NATURAL
    assert classify_number(c, Fraction(15, 2)) is NumberKind.NON_NATURAL


def test_classify_number_float_mode():
    c = default_coding(40, mode="float")
    for k, expected in ((13, NumberKind.PRIME), (36, NumberKind.COMPOSITE_NATURAL)):
        assert classify_number(c, k) is expected
    assert classify_number(c, 7.5) is NumberKind.NON_NATURAL


def test_float_coding_agrees_with_its_exact_twin():
    # Dyadic slopes: the float coding and its twin describe the same curve,
    # so the float coding, which decides on exact coordinates and rounds
    # only what it returns, must reach the twin's kinds and, to rounding,
    # its one-sided slopes.
    c = PrimeCoding(slopes=tuple(1 + Fraction(m, 32) for m in range(33)), mode="float")
    twin = c.exact
    points = [
        (17, 1, PointKind.SEMI_VORTEX),                          # boundary lattice point
        (12, 3, PointKind.VORTEX),                               # interior lattice point
        (7, 2, PointKind.VORTEX),                                # natural x, y = 7/2
        (10, Fraction(5, 2), PointKind.VORTEX),                  # natural y = 4
        (Fraction(21, 4), Fraction(3, 2), PointKind.SMOOTH),     # y = 7/2
        (Fraction(29, 3), Fraction(9, 4), PointKind.SMOOTH),     # y = 116/27
    ]
    for k, x, kind in points:
        assert classify_point(c, k, c.psi(x)) is kind, (k, x)
        assert classify_point(twin, k, twin.psi(x)) is kind, (k, x)
        got = hhat_one_sided(c, k, c.psi(x))
        want = hhat_one_sided(twin, k, twin.psi(x))
        assert all(rel_diff(g, w) < 1e-35 for g, w in zip(got, want)), (k, x)
    for k in (Fraction(37, 2), 10, Fraction(29, 3)):
        got = hat_lower_sweep(c, c.psi(k))
        assert rel_diff(got, hat_lower_sweep(twin, twin.psi(k))) < 1e-30, k


def test_float_point_classification_reads_k_exactly():
    # k = 30 + 2^-60 rounds to 30 at 53 bits, which would put the lattice
    # point (1, 30) on the curve and call the non-natural k natural.
    c = default_coding(40, mode="float", precision=53)
    k = 30 + Fraction(1, 2 ** 60)
    assert classify_point(c.exact, k, c.exact.psi(1)) is PointKind.VORTEX
    assert classify_point(c, k, c.psi(1)) is PointKind.VORTEX


def test_float_one_sided_slopes_read_u_exactly():
    # x = psi_inv(u) = 3 + 2^-60 / xi_3: u rounds onto psi(3) at 53 bits,
    # which would report the jump of the lattice abscissa x = 3.
    c = default_coding(40, mode="float", precision=53)
    u = c.exact.psi(3) + Fraction(1, 2 ** 60)
    want = hhat_one_sided(c.exact, 7, u)
    assert want[0] == want[1]
    assert hhat_one_sided(c, 7, u) == (to_mpf(want[0], 53),) * 2


@st.composite
def float_coding_cases(draw):
    """A strict float coding of 10..24 slopes and exact points inside its domain."""
    steps = draw(st.lists(st.tuples(st.integers(min_value=1, max_value=3000),
                                    st.integers(min_value=1, max_value=1000)),
                          min_size=10, max_size=24))
    slopes, acc = [], Fraction(0)
    for p, q in steps:
        acc += Fraction(p, q)
        slopes.append(acc)
    precision = draw(st.sampled_from([53, 128, 256]))
    c = PrimeCoding(slopes=tuple(slopes), mode="float", precision=precision)

    def coordinate(lo, hi):
        # Naturals, short rationals, and points 2^-e off a natural.
        n = Fraction(draw(st.integers(min_value=lo, max_value=hi)))
        kind = draw(st.sampled_from(["natural", "rational", "near"]))
        if kind == "rational":
            q = draw(st.integers(min_value=1, max_value=50))
            return min(n + Fraction(draw(st.integers(min_value=0, max_value=q)), q), hi)
        if kind == "near":
            return min(n + Fraction(1, 2 ** draw(st.integers(min_value=40, max_value=300))), hi)
        return n

    x = coordinate(1, 4)
    y = max(x, coordinate(1, 8))
    s, t = coordinate(0, 5), coordinate(0, 5)
    alpha = draw(st.integers(min_value=2, max_value=c.max_index))
    m = draw(st.integers(min_value=1, max_value=alpha - 1))
    return c, x, y, s, t, alpha, m


def _rounded_twin(c, got, want):
    """got is want rounded once at c's precision, bit for bit, field by field."""
    if isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _rounded_twin(c, g, w)
        return
    assert isinstance(want, Fraction) and isinstance(got, BinaryFloat)
    assert got == to_mpf(want, c.precision), (got, want)


@given(float_coding_cases())
@settings(max_examples=300, deadline=None)
def test_float_coding_rounds_its_exact_twin_once(case):
    c, x, y, s, t, alpha, m = case
    twin = c.exact
    k = x * y
    u = twin.psi(x)
    hats = twin.psi(s), twin.psi(t)
    top = twin.deformed_limit
    for got, want in [
        (c.psi(s), twin.psi(s)),
        (c.psi_inv(hats[0]), twin.psi_inv(hats[0])),
        (c.psi_inv(top), twin.psi_inv(top)),
        (c.psi_inv(top / 3), twin.psi_inv(top / 3)),
        (hat_add(c, *hats), hat_add(twin, *hats)),
        (CurvePoint(*map(c.rounded, _exact_point(c, k, u))), _exact_point(twin, k, u)),
        (hhat(c, k, u), hhat(twin, k, u)),
        (hhat_one_sided(c, k, u), hhat_one_sided(twin, k, u)),
        (fhat(c, alpha, twin.psi(alpha) / 3), fhat(twin, alpha, twin.psi(alpha) / 3)),
        (fhat_one_sided(c, alpha, m), fhat_one_sided(twin, alpha, m)),
    ]:
        _rounded_twin(c, got, want)
    if s * t <= c.domain_limit:
        _rounded_twin(c, hat_mul(c, *hats), hat_mul(twin, *hats))
    if s >= t:
        _rounded_twin(c, hat_sub(c, *hats), hat_sub(twin, *hats))
    if t and s / t <= c.domain_limit:
        _rounded_twin(c, hat_div(c, *hats), hat_div(twin, *hats))
    assert classify_point(c, k, u) is classify_point(twin, k, u)
    # The float coding's own rounded psi(x) lands near x, not on it; the
    # float coding decides that point as the twin does.
    u_float = c.psi(x)
    x_float = twin.psi_inv(u_float)
    if 1 <= x_float <= k / x_float:
        assert classify_point(c, k, u_float) is classify_point(twin, k, u_float)


def test_float_classification_is_linear():
    # Float identifies_primes is decided on the exact twin: the O(N^2)
    # scan of rounded products took about 10 s at N = 2000.
    started = time.perf_counter()
    c = default_coding(2000, mode="float")
    assert c.identifies_primes
    assert [(x, y) for x, y, _ in lattice_witnesses(c, 1999)] == [(1, 1999)]
    assert time.perf_counter() - started < 2.0


def test_classify_number_domain():
    c = default_coding(16)
    with pytest.raises(DomainError):
        classify_number(c, 1)
    with pytest.raises(RangeError):
        classify_number(c, 17)


def test_curve_point_consistency():
    c = seeded_coding(14, 23)
    pt = _exact_point(c, Fraction(21, 2), c.psi(Fraction(7, 2)))
    assert pt.x == Fraction(7, 2)
    assert pt.y == 3
    assert pt.v == c.psi(3)


def test_curve_messages_render_values_past_the_digit_limit(low_digit_limit):
    c = default_coding(20)
    with pytest.raises(RangeError, match=r"^k=<a number beyond .*digit limit"):
        lattice_witnesses(c, Fraction(10 ** 5000 + 1, 3))
    with pytest.raises(DomainError, match=r"^u=<a number beyond .*digit limit"):
        fhat(c, 3, c.psi(3) + Fraction(1, 3 ** 1400))
