"""Deformation evaluation, inversion, transported arithmetic, and the
prime/natural identification conditions."""

import json
import math
import pickle
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import ldexp, mp, mpf
from mpmath.libmp import from_man_exp

from hypgold.coding import (
    PrimeCoding,
    coding_from_json,
    coding_to_json,
    default_coding,
)
from hypgold.errors import DomainError, RangeError, TheoremViolationError
from hypgold.hyperbola import lattice_witnesses
from hypgold.numeric import (
    MAX_PRECISION,
    MODE_FLOAT,
    MODE_RATIONAL,
    mantissa_pair,
    to_fraction,
)
from hypgold.oracles import primes_in
from hypgold.points import goldbach_characterization, lower_essential_poly, lower_value
from hypgold.reference import (hat_add, hat_div, hat_mul, hat_sub, identifies_naturals, rel_diff,
                               to_mpf)

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


def test_float_round_trip_at_the_top():
    # psi(N+1) rounds B_{N+1} to nearest and lands above it about half the
    # time: psi_inv takes any input up to that rounded top, reads what lies
    # above B_{N+1} as N+1, and refuses what lies above both.
    rng = random.Random(400)
    above = 0
    for _ in range(400):
        slopes = tuple(Fraction(rng.randrange(1, 10 ** 6), rng.randrange(1, 10 ** 6))
                       for _ in range(rng.randrange(1, 30)))
        c = PrimeCoding(slopes=slopes, mode=MODE_FLOAT, precision=53)
        top = c.psi(c.domain_limit)
        x = c.psi_inv(top)
        if to_fraction(top) > c.deformed_limit:
            above += 1
            assert c.preimage(top) == x == c.domain_limit
        else:
            assert c.preimage(top) <= c.domain_limit
        with pytest.raises(DomainError):
            c.psi_inv(max(to_fraction(top), c.deformed_limit) + Fraction(1, 2 ** 80))
    assert above > 100


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
    assert hat_add(c, zero_hat, t_hat) == t_hat
    assert hat_mul(c, one_hat, t_hat) == t_hat


def test_hat_example_pow2():
    c = pow2_coding(4)
    one_hat = c.psi(1)
    assert one_hat == 1
    assert hat_add(c, one_hat, one_hat) == 3  # psi(2) = B_2 = 1 + 2


def test_hat_isomorphism_exact():
    c = seeded_coding(14, 6)
    rng = random.Random(8)
    for _ in range(300):
        s = Fraction(rng.randrange(0, 7000), 1000)
        t = Fraction(rng.randrange(0, 7000), 1000)
        if s + t <= c.domain_limit:
            assert hat_add(c, c.psi(s), c.psi(t)) == c.psi(s + t)
        if s * t <= c.domain_limit:
            assert hat_mul(c, c.psi(s), c.psi(t)) == c.psi(s * t)
        if s >= t:
            assert hat_sub(c, c.psi(s), c.psi(t)) == c.psi(s - t)
        if t != 0 and s / t <= c.domain_limit:
            assert hat_div(c, c.psi(s), c.psi(t)) == c.psi(s / t)


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
        hat_add(c, big, big)  # 3 + 3 beyond domain limit 4
    with pytest.raises(DomainError):
        hat_sub(c, c.psi(1), c.psi(2))
    with pytest.raises(DomainError):
        hat_div(c, c.psi(1), c.psi(0))


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
    # A rational coding hashes its integer form, and nothing caches the
    # hash; a coding whose views and point table are built still round-trips.
    c = seeded_coding(60, 4)
    assert hash(c) == hash((c.scaled_slopes, c.mode, c.precision))
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
        assert identifies_naturals(c, alpha)
    assert not identifies_naturals(identity_coding(6), 4)
    bad = PrimeCoding(slopes=(1, 2, 4, 2, 16, 32))
    assert not identifies_naturals(bad, 4)
    with pytest.raises(RangeError):
        identifies_naturals(c, 13)


def test_float_identifies_naturals_decides_on_exact_slopes():
    # At m = 1 the products (1+e)(1+3e) and (1+2e)**2 differ by e**2, which
    # rounds away at 53 bits: only the exact slopes tell them apart.
    e = Fraction(1, 2**52)
    slopes = (1 + e, 1 + 2 * e, 1 + 3 * e, 1 + 2 * e, 2)
    assert identifies_naturals(PrimeCoding(slopes), 4)
    assert identifies_naturals(PrimeCoding(slopes, mode=MODE_FLOAT, precision=53), 4)


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
        assert identifies_naturals(c, alpha)


@given(st.lists(st.integers(min_value=1, max_value=12), min_size=3, max_size=9))
@settings(max_examples=60, deadline=None)
def test_identifies_primes_subsumes_naturals(raw):
    # Condition (**) covers the natural-identification products at i = m-1,
    # j = alpha-m-1, so it must imply every identifies_naturals verdict.
    slopes = tuple(Fraction(v, 3) for v in raw)
    c = PrimeCoding(slopes=slopes)
    if c.identifies_primes:
        for alpha in range(2, c.max_index + 1):
            assert identifies_naturals(c, alpha)


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
    for mode in (MODE_RATIONAL, MODE_FLOAT):
        with pytest.raises(DomainError, match="'precision' must be at most 8192 bits, got 8193"):
            coding_from_json({"slopes": ["1", "2"], "mode": mode, "precision": 8193})
    assert coding_from_json({"slopes": ["1", "2"], "mode": "float",
                             "precision": MAX_PRECISION}).precision == MAX_PRECISION


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


def test_messages_render_values_past_the_digit_limit(low_digit_limit):
    # Formatting the rejected value itself would raise ValueError.
    with pytest.raises(DomainError, match=r"^psi_inv argument <a number beyond .*digit limit"):
        PrimeCoding((1, 2)).psi_inv(Fraction(10 ** 5000 + 1, 3))
    with pytest.raises(DomainError, match=r"^psi argument <a number beyond .*digit limit"):
        PrimeCoding(slopes=(1, 2), mode="float", precision=15000).psi(-Fraction(1, 3 ** 9500))


def test_default_coding_decides_without_fraction_slopes():
    # The sweep and the classification read the integer slopes, so the
    # O(N) tuple of Fraction slopes is never built.
    c = default_coding(2000)
    assert goldbach_characterization(c, 2000)[:3] == [7, 13, 67]
    assert len(lattice_witnesses(c, 1999)) == 1
    assert len(lattice_witnesses(c, 1800)) == 18
    assert "slopes" not in c.__dict__
    assert c.scaled_slopes == (tuple(range(2000, 4001)), 2000)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DomainError, RangeError, TheoremViolationError) as exc:
        return type(exc), str(exc)


def _fraction_psi(xs, x):
    """psi by its definition on Fraction slopes: xi_m*(x - m) + B_m."""
    m = min(int(x), len(xs) - 1)
    return xs[m] * (x - m) + sum(xs[:m], Fraction(0))


def _fraction_preimage(xs, xhat):
    bps = [Fraction(0), *accumulate(xs)]
    if xhat >= bps[-1]:
        return Fraction(len(xs))
    m = bisect_right(bps, xhat) - 1
    return m + (xhat - bps[m]) / xs[m]


def _agree(a, b, data):
    """Rational a and b (of either mode) agree, and match the Fraction definitions.

    b rounds each value a gives once; its exact slopes are a's.
    """
    xs = b.exact.slopes
    assert a.breakpoints == b.breakpoints == (Fraction(0), *accumulate(xs))
    for _ in range(4):
        x = Fraction(data.draw(st.integers(min_value=0, max_value=50 * b.domain_limit)), 50)
        assert b.rounded(a.psi(x)) == b.psi(x) == b.rounded(_fraction_psi(xs, x))
        xhat = b.deformed_limit * Fraction(data.draw(st.integers(0, 1000)), 1000)
        assert a.preimage(xhat) == b.preimage(xhat) == _fraction_preimage(xs, xhat)
    for k in range(1, b.max_index + 1):
        assert a.one_sided_slopes(k) == tuple(map(to_fraction, b.one_sided_slopes(k)))
    assert a.strict_through == b.strict_through == strict_prefix_oracle(xs)
    assert a.identifies_primes == b.identifies_primes == identifies_primes_oracle(b.exact)
    for alpha in range(2, b.max_index + 1):
        assert (identifies_naturals(a, alpha) == identifies_naturals(b, alpha)
                == all(xs[m - 1] * xs[alpha - m - 1] != xs[m] * xs[alpha - m]
                       for m in range(1, alpha)))
    for k in range(2, b.max_index + 1):
        assert _outcome(lattice_witnesses, a, k) == _outcome(lattice_witnesses, b, k)


@given(st.lists(st.integers(min_value=1, max_value=10 ** 6), min_size=2, max_size=24),
       st.integers(min_value=1, max_value=10 ** 4), st.booleans(),
       st.integers(min_value=53, max_value=300), st.data())
@settings(max_examples=80, deadline=None)
def test_integer_born_and_fraction_born_codings_agree(ints, scale, strict, precision, data):
    # from_scaled reduces ints/scale to the canonical (ints, L) by a gcd
    # fold; the constructor, which runs none, must build the same coding
    # from the same values as Fractions, in both modes.
    if strict:
        ints = list(accumulate(ints))
    born = PrimeCoding.from_scaled(ints, scale)
    fractions = PrimeCoding(tuple(Fraction(a, scale) for a in ints))
    assert born == fractions and hash(born) == hash(fractions)
    assert born.scaled_slopes[1] == math.lcm(*(s.denominator for s in fractions.slopes))
    assert born.slopes == fractions.slopes
    _agree(born, fractions, data)
    # A float coding's twin comes from its mantissas with L a power of two.
    rounded = PrimeCoding(fractions.slopes, mode=MODE_FLOAT, precision=precision)
    assert PrimeCoding.from_scaled(ints, scale, precision, MODE_FLOAT) == rounded
    twin = PrimeCoding(tuple(map(to_fraction, rounded.slopes)))
    assert rounded.exact == twin and hash(rounded.exact) == hash(twin)
    assert rounded.scaled_slopes[1] & (rounded.scaled_slopes[1] - 1) == 0
    _agree(twin, rounded, data)
    for c in (born, rounded):
        assert coding_from_json(json.loads(json.dumps(coding_to_json(c)))) == c
        again = pickle.loads(pickle.dumps(c))
        assert again == c and hash(again) == hash(c)


def test_the_constructor_runs_no_gcd(monkeypatch):
    # Its ints are numerators over the lcm L of the reduced denominators, so
    # they are in lowest terms already, and a float coding's scale is a power
    # of two, reduced by the lowest set bit its ints share.  On a long file
    # of many denominators, a gcd fold made one big-int gcd per slope.
    slopes = tuple(m + Fraction(1, p) for m, p in enumerate(primes_in(2, 400)))
    dyadic = tuple(Fraction(m, 64) for m in range(8, 40, 4))

    def no_gcd(*args):
        raise AssertionError("the constructor ran a gcd")

    with monkeypatch.context() as patched:
        patched.setattr(math, "gcd", no_gcd)
        codings = [PrimeCoding(slopes), PrimeCoding(slopes, MODE_FLOAT, 128),
                   PrimeCoding(dyadic), PrimeCoding(dyadic, MODE_FLOAT, 53)]
    for c in codings:
        assert math.gcd(c.scaled_slopes[1], *c.scaled_slopes[0]) == 1
    assert codings[2].scaled_slopes == (tuple(range(2, 10)), 16)
    assert codings[3].scaled_slopes == (tuple(range(2, 10)), 16)


# Positive slopes of each type a float coding accepts: Fractions of wide
# denominators, Python floats, and mpf values wider than any precision drawn.
FLOAT_CODING_SLOPES = st.one_of(
    st.fractions(min_value=Fraction(1, 10 ** 9), max_value=10 ** 9, max_denominator=10 ** 30),
    st.floats(min_value=1e-300, max_value=1e300),
    st.builds(lambda m, e: mp.make_mpf(from_man_exp(m, e)),
              st.integers(min_value=1, max_value=2 ** 400), st.integers(min_value=-500, max_value=100)),
)


def _float_coding_matches_one_rounding_per_slope(c, values, data):
    """c against the definition: each slope is to_mpf of its value, and every
    value psi, preimage and lower_value give is computed on those mpfs."""
    reference = tuple(to_mpf(v, c.precision) for v in values)
    ints, scale = c.scaled_slopes
    # In lowest terms, L is the finest last place among the slopes, or 1.
    assert scale == 1 << max(0, -min(e for _, e in map(mantissa_pair, reference)))
    born = PrimeCoding.from_scaled(ints, scale, c.precision, MODE_FLOAT)
    assert born == c and hash(born) == hash(c)
    assert born == PrimeCoding(reference, MODE_FLOAT, c.precision)
    assert [s._mpf_ for s in c.slopes] == [s._mpf_ for s in reference]
    assert c.mantissa_pairs == tuple(map(mantissa_pair, reference))
    xs = [to_fraction(s) for s in reference]
    for _ in range(3):
        x = Fraction(data.draw(st.integers(min_value=0, max_value=50 * c.domain_limit)), 50)
        assert c.psi(x)._mpf_ == to_mpf(_fraction_psi(xs, x), c.precision)._mpf_
        xhat = c.deformed_limit * Fraction(data.draw(st.integers(0, 1000)), 1000)
        assert c.preimage(xhat) == _fraction_preimage(xs, xhat)
    with mp.workprec(c.precision):
        for k0 in range(4, min(2 * c.max_index + 2, 120)):
            expected = lower_essential_poly(k0).evaluate(reference)
            assert lower_value(c, k0)._mpf_ == expected._mpf_, k0
    assert coding_from_json(json.loads(json.dumps(coding_to_json(c)))) == c
    again = pickle.loads(pickle.dumps(c))
    assert again == c and hash(again) == hash(c)


@given(st.lists(FLOAT_CODING_SLOPES, min_size=1, max_size=40),
       st.integers(min_value=53, max_value=300), st.data())
@settings(max_examples=80, deadline=None)
def test_float_codings_are_their_dyadic_ints(values, precision, data):
    # A float coding holds only (ints, 2**s), mode and precision.
    c = PrimeCoding(values, MODE_FLOAT, precision)
    assert set(c.__dict__) == {"mode", "precision", "scaled_slopes"}
    _float_coding_matches_one_rounding_per_slope(c, values, data)


@given(st.one_of(st.integers(min_value=1, max_value=3000),
                 st.sampled_from([2, 64, 1024, 3 * 2 ** 10])),
       st.integers(min_value=53, max_value=300), st.data())
@settings(max_examples=40, deadline=None)
def test_float_default_coding_rounds_each_slope_once(n, precision, data):
    # Power-of-two N make dyadic slopes, which must be reduced to lowest terms.
    c = default_coding(n, MODE_FLOAT, precision)
    assert set(c.__dict__) == {"mode", "precision", "scaled_slopes"}
    _float_coding_matches_one_rounding_per_slope(
        c, [Fraction(n + m, n) for m in range(n + 1)], data)


def test_float_default_coding_classifies_without_mpf_slopes():
    c = default_coding(2000, MODE_FLOAT)
    assert len(lattice_witnesses(c, 1999)) == 1
    assert len(lattice_witnesses(c, 1800)) == 18
    assert "slopes" not in c.__dict__ and "slopes" not in c.exact.__dict__
    assert c.exact.scaled_slopes is c.scaled_slopes


@pytest.mark.parametrize("value", [float("nan"), float("inf"), mpf("nan"), mpf("-inf")],
                         ids=["nan", "inf", "mpf-nan", "mpf-minus-inf"])
@pytest.mark.parametrize("mode", [MODE_RATIONAL, MODE_FLOAT])
def test_non_finite_slopes_are_refused_at_construction(value, mode):
    with pytest.raises(DomainError, match=r"^cannot convert non-finite value .* to a rational$"):
        PrimeCoding((1, value, 3), mode, 53)
