"""Deformation evaluation, inversion, transported arithmetic, and the
prime/natural identification conditions."""

import json
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import ldexp

from hypgold.coding import (
    PrimeCoding,
    coding_from_json,
    coding_to_json,
    default_coding,
)
from hypgold.errors import DomainError, RangeError
from hypgold.numeric import MODE_FLOAT, MODE_RATIONAL, rel_diff, to_fraction
from hypgold.points import goldbach_characterization

from conftest import arith_coding, harmonic_coding, identity_coding, pow2_coding, seeded_coding


def rational_points(c, count, seed):
    rng = random.Random(seed)
    limit = c.domain_limit
    return [
        Fraction(rng.randrange(0, limit * 1000), 1000) for _ in range(count)
    ]


def test_psi_at_zero():
    for c in (identity_coding(5), arith_coding(5), seeded_coding(5, 3)):
        assert c.psi(0) == 0


def test_identity_coding_is_identity():
    c = identity_coding(8)
    for x in rational_points(c, 50, seed=1):
        assert c.psi(x) == x
        assert c.psi_inv(x) == x


def test_psi_hand_example():
    c = arith_coding(4)
    assert c.psi(Fraction(3, 2)) == 2  # 1 + 2 * 0.5
    assert c.psi_inv(2) == Fraction(3, 2)


def test_psi_inv_zero():
    assert arith_coding(4).psi_inv(0) == 0


def test_breakpoint_increments_exact():
    c = seeded_coding(15, 31)
    bps = c.breakpoints
    assert bps[0] == 0
    assert all(b1 - b0 == s for b0, b1, s in zip(bps, bps[1:], c.slopes))
    assert all(b0 < b1 for b0, b1 in zip(bps, bps[1:]))


def test_round_trip_exact():
    for c in (arith_coding(12), harmonic_coding(12), seeded_coding(12, 5)):
        for x in rational_points(c, 3400, seed=11):
            assert c.psi_inv(c.psi(x)) == x


def test_round_trip_float_mode():
    c = default_coding(12, mode=MODE_FLOAT)
    rng = random.Random(2)
    for _ in range(500):
        x = rng.uniform(0, 13)
        assert rel_diff(c.psi_inv(c.psi(x)), x) <= 1e-12


def test_strict_monotonicity():
    c = seeded_coding(10, 9)
    pts = sorted(rational_points(c, 400, seed=3))
    values = [c.psi(x) for x in pts]
    for (x0, v0), (x1, v1) in zip(zip(pts, values), zip(pts[1:], values[1:])):
        if x0 < x1:
            assert v0 < v1


def test_domain_errors():
    c = arith_coding(4)
    with pytest.raises(DomainError):
        c.psi(-1)
    with pytest.raises(DomainError):
        c.psi(6)
    with pytest.raises(DomainError):
        c.psi_inv(-Fraction(1, 2))
    with pytest.raises(DomainError):
        c.psi_inv(c.deformed_limit + 1)


def test_hat_identities():
    c = seeded_coding(9, 4)
    zero_hat = c.psi(0)
    one_hat = c.psi(1)
    t_hat = c.psi(Fraction(7, 2))
    assert c.hat_add(zero_hat, t_hat) == t_hat
    assert c.hat_mul(one_hat, t_hat) == t_hat


def test_hat_example_pow2():
    c = pow2_coding(4)
    one_hat = c.psi(1)
    assert one_hat == 1
    assert c.hat_add(one_hat, one_hat) == 3  # psi(2) = B_2 = 1 + 2


def test_hat_isomorphism_exact():
    c = seeded_coding(14, 6)
    rng = random.Random(8)
    for _ in range(300):
        s = Fraction(rng.randrange(0, 7000), 1000)
        t = Fraction(rng.randrange(0, 7000), 1000)
        if s + t <= c.domain_limit:
            assert c.hat_add(c.psi(s), c.psi(t)) == c.psi(s + t)
        if s * t <= c.domain_limit:
            assert c.hat_mul(c.psi(s), c.psi(t)) == c.psi(s * t)
        if s >= t:
            assert c.hat_sub(c.psi(s), c.psi(t)) == c.psi(s - t)
        if t != 0 and s / t <= c.domain_limit:
            assert c.hat_div(c.psi(s), c.psi(t)) == c.psi(s / t)


def test_hat_order_preservation():
    c = seeded_coding(10, 12)
    rng = random.Random(13)
    for _ in range(200):
        s = Fraction(rng.randrange(0, 11000), 1000)
        t = Fraction(rng.randrange(0, 11000), 1000)
        assert (c.psi(s) <= c.psi(t)) == (s <= t)


def test_hat_domain_errors():
    c = arith_coding(3)
    big = c.psi(3)
    with pytest.raises(DomainError):
        c.hat_add(big, big)  # 3 + 3 beyond domain limit 4
    with pytest.raises(DomainError):
        c.hat_sub(c.psi(1), c.psi(2))
    with pytest.raises(DomainError):
        c.hat_div(c.psi(1), c.psi(0))


def test_one_sided_slopes():
    ones = identity_coding(4)
    assert ones.one_sided_slopes(1) == (1, 1)
    c = pow2_coding(4)
    assert c.one_sided_slopes(1) == (1, 2)
    assert c.one_sided_slopes(2) == (2, 4)
    with pytest.raises(RangeError):
        c.one_sided_slopes(0)
    with pytest.raises(RangeError):
        c.one_sided_slopes(5)


def test_identifies_primes_strict():
    for c in (arith_coding(12), harmonic_coding(12), seeded_coding(12, 1)):
        assert c.strict
        assert c.identifies_primes


def test_identifies_primes_constant():
    assert not identity_coding(6).identifies_primes


def test_identifies_primes_collision():
    # xi_0 * xi_2 = 1 * 4 = 2 * 2 = xi_1 * xi_3
    c = PrimeCoding(slopes=(1, 2, 4, 2))
    assert not c.identifies_primes


def identifies_primes_oracle(c) -> bool:
    """The defining O(N^2) scan of xi_i*xi_j != xi_{i+1}*xi_{j+1}, i <= j."""
    xs = c.slopes
    n = len(xs) - 1
    return all(xs[i] * xs[j] != xs[i + 1] * xs[j + 1]
               for i in range(n) for j in range(i, n))


def _strict_slopes(increments):
    return [Fraction(1) + Fraction(sum(increments[:m]), 397) for m in range(len(increments) + 1)]


codings_to_identify = st.one_of(
    st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=14).map(_strict_slopes),
    st.tuples(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=14))
    .map(lambda vn: [Fraction(vn[0])] * (vn[1] + 1)),
    st.lists(st.integers(min_value=1, max_value=12), min_size=2, max_size=14)
    .map(lambda raw: [Fraction(v, 3) for v in raw]),
)


@given(codings_to_identify, st.sampled_from([None, 53, 128, 256]))
@settings(max_examples=150, deadline=None)
def test_identifies_primes_matches_exhaustive_scan(slopes, precision):
    # A float coding answers for the exact values of its rounded slopes.
    c = PrimeCoding(slopes=tuple(slopes))
    if precision is not None:
        c = PrimeCoding(slopes=c.slopes, mode=MODE_FLOAT, precision=precision)
    assert c.identifies_primes == identifies_primes_oracle(c.exact)


def test_identifies_primes_long_non_strict_coding():
    # Decreasing slopes: no collision, and no strictness shortcut either.
    c = PrimeCoding(slopes=tuple(Fraction(1, m + 1) for m in range(4000)))
    assert not c.strict
    assert c.identifies_primes
    bumped = PrimeCoding(slopes=c.slopes[:3000] + (c.slopes[2999] * 2,) + c.slopes[3001:])
    assert not bumped.identifies_primes


def test_pickle_round_trips_a_used_coding():
    # The hash is the dataclass's own, over the fields, and nothing caches
    # it; a coding whose views and point table are built still round-trips.
    c = seeded_coding(60, 4)
    assert hash(c) == hash((c.slopes, c.mode, c.precision))
    assert "_hash" not in c.__dict__
    c.scaled_slopes
    assert goldbach_characterization(c, 60) == [7, 13, 17, 19, 23, 29]
    again = pickle.loads(pickle.dumps(c))
    assert again == c and hash(again) == hash(c)
    assert goldbach_characterization(again, 60) == [7, 13, 17, 19, 23, 29]


POSITIVE_SLOPES = st.lists(
    st.fractions(min_value=Fraction(1, 10 ** 4), max_value=10 ** 3, max_denominator=10 ** 4),
    min_size=1, max_size=40)


@settings(max_examples=60, deadline=None)
@given(POSITIVE_SLOPES, st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=53, max_value=300))
def test_scaled_slopes_are_the_slopes_over_one_denominator(slopes, seed, precision):
    rational = PrimeCoding(slopes=tuple(slopes))
    float_twin = PrimeCoding(slopes=rational.slopes, mode=MODE_FLOAT, precision=precision)
    for c in (rational, seeded_coding(len(slopes), seed), float_twin):
        ints, lcm = c.scaled_slopes
        xs = c.exact.slopes
        assert lcm == math.lcm(*(s.denominator for s in xs))
        assert len(ints) == len(xs)
        assert all(Fraction(n, lcm) == s for n, s in zip(ints, xs))


@settings(max_examples=60, deadline=None)
@given(POSITIVE_SLOPES, st.integers(min_value=53, max_value=300))
def test_mantissa_pairs_are_the_float_slopes(slopes, precision):
    c = PrimeCoding(slopes=tuple(slopes), mode=MODE_FLOAT, precision=precision)
    pairs = c.mantissa_pairs
    assert len(pairs) == len(c.slopes)
    for (man, exp), s in zip(pairs, c.slopes):
        assert isinstance(man, int) and isinstance(exp, int)
        assert man * Fraction(2) ** exp == to_fraction(s)
        assert ldexp(man, exp) == s


def test_identifies_naturals():
    c = seeded_coding(12, 2)
    for alpha in range(2, 13):
        assert c.identifies_naturals(alpha)
    assert not identity_coding(6).identifies_naturals(4)
    bad = PrimeCoding(slopes=(1, 2, 4, 2, 16, 32))
    assert not bad.identifies_naturals(4)
    with pytest.raises(RangeError):
        c.identifies_naturals(13)


def test_float_identifies_naturals_decides_on_exact_slopes():
    # At m = 1 the products (1+e)(1+3e) and (1+2e)**2 differ by e**2, which
    # rounds away at 53 bits: only the exact slopes tell them apart.
    e = Fraction(1, 2**52)
    slopes = (1 + e, 1 + 2 * e, 1 + 3 * e, 1 + 2 * e, 2)
    assert PrimeCoding(slopes).identifies_naturals(4)
    assert PrimeCoding(slopes, mode=MODE_FLOAT, precision=53).identifies_naturals(4)


@given(st.lists(st.integers(min_value=1, max_value=400), min_size=2, max_size=12))
@settings(max_examples=60, deadline=None)
def test_strictly_increasing_implies_identifies(increments):
    acc = Fraction(1)
    slopes = [acc]
    for inc in increments:
        acc += Fraction(inc, 397)
        slopes.append(acc)
    c = PrimeCoding(slopes=tuple(slopes))
    assert c.identifies_primes
    for alpha in range(2, c.max_index + 1):
        assert c.identifies_naturals(alpha)


@given(st.lists(st.integers(min_value=1, max_value=12), min_size=3, max_size=9))
@settings(max_examples=60, deadline=None)
def test_identifies_primes_subsumes_naturals(raw):
    # Condition (**) covers the natural-identification products at i = m-1,
    # j = alpha-m-1, so it must imply every identifies_naturals verdict.
    slopes = tuple(Fraction(v, 3) for v in raw)
    c = PrimeCoding(slopes=slopes)
    if c.identifies_primes:
        for alpha in range(2, c.max_index + 1):
            assert c.identifies_naturals(alpha)


def test_serialization_round_trip_rational():
    c = seeded_coding(9, 21)
    payload = coding_to_json(c)
    again = coding_from_json(json.loads(json.dumps(payload)))
    assert again.slopes == c.slopes
    assert again.mode == c.mode


def test_serialization_round_trip_float():
    c = default_coding(7, mode=MODE_FLOAT)
    again = coding_from_json(coding_to_json(c))
    assert again.mode == MODE_FLOAT
    assert all(a == b for a, b in zip(again.slopes, c.slopes))


def test_serialization_rejects_garbage():
    with pytest.raises(DomainError):
        coding_from_json({"mode": "rational"})
    with pytest.raises(DomainError):
        coding_from_json({"slopes": ["1", "zebra"]})
    with pytest.raises(DomainError, match="'slopes' list"):
        coding_from_json({"slopes": "123"})
    with pytest.raises(DomainError, match="'slopes' list"):
        coding_from_json(["1", "2"])
    for precision in ("abc", "128", 128.0, True, 0):
        with pytest.raises(DomainError, match="'precision'"):
            coding_from_json({"slopes": ["1", "2"], "mode": "float", "precision": precision})


@pytest.mark.parametrize("mode", [MODE_RATIONAL, MODE_FLOAT])
@pytest.mark.parametrize("precision", [0, 8, 52, True, "128"])
def test_precision_below_a_double_rejected(mode, precision):
    with pytest.raises(DomainError, match="'precision'"):
        PrimeCoding(slopes=(1, 2, 3), mode=mode, precision=precision)


def test_invalid_codings():
    with pytest.raises(DomainError):
        PrimeCoding(slopes=())
    with pytest.raises(DomainError):
        PrimeCoding(slopes=(1, 0, 2))
    with pytest.raises(DomainError):
        PrimeCoding(slopes=(1, 2), mode="decimal")


def strict_prefix_oracle(slopes):
    """Largest i with slopes[0] < ... < slopes[i], by the exact values."""
    xs = [to_fraction(s) for s in slopes]
    return max(i for i in range(len(xs)) if all(xs[j] < xs[j + 1] for j in range(i)))


# Steps of 0..3 times 2**-60: distinct slopes stay distinct at 128 and 256
# bits and collapse at 53.
_close_slopes = st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=14).map(
    lambda steps: [1 + Fraction(sum(steps[:m]), 2**60) for m in range(len(steps))]
)


@given(st.one_of(codings_to_identify, _close_slopes), st.sampled_from([None, 53, 128, 256]))
@settings(max_examples=150, deadline=None)
def test_strict_through_matches_a_prefix_scan(slopes, precision):
    c = PrimeCoding(slopes=tuple(slopes))
    if precision is not None:
        c = PrimeCoding(slopes=c.slopes, mode=MODE_FLOAT, precision=precision)
    assert c.strict_through == strict_prefix_oracle(c.slopes)
    assert c.strict == (c.strict_through == c.max_index)
