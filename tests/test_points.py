"""Essential polynomials term-for-term, evaluation paths, sign and
repetition theorems, and the Goldbach characterization."""

import random
import time
from fractions import Fraction
from itertools import accumulate
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp

import hypgold.cli as cli_mod
import hypgold.numeric as numeric_mod
import hypgold.points as points_mod

from hypgold.coding import PrimeCoding, default_coding
from hypgold.errors import DomainError, RangeError, TheoremViolationError
from hypgold.hyperbola import classify_number
from hypgold.oracles import goldbach_partitions_oracle, is_prime, primes_in
from hypgold.numeric import MODE_FLOAT, MODE_RATIONAL, BinaryFloat, mantissa_pair
from hypgold.points import (
    EssentialPoint,
    EssentialPolynomial,
    IndexComparison,
    essential_points,
    goldbach_characterization,
    goldbach_sweep,
    lower_essential_poly,
    lower_value,
)
from hypgold.reference import goldbach_partitions_scan
from hypgold.regions import TYPE_COEFFICIENT, enumerate_regions

from conftest import (
    arith_coding,
    harmonic_coding,
    identity_coding,
    pow2_coding,
    seeded_coding,
    strict_families,
)

H = Fraction(1, 2)


def test_poly_12_term_for_term():
    p = lower_essential_poly(12)
    assert p.as_dict() == {
        (2, 6): 1, (2, 4): -1, (3, 4): 1, (3, 3): -H,
    }


def test_poly_4():
    assert lower_essential_poly(4).as_dict() == {(2, 2): H}


def test_poly_9():
    assert lower_essential_poly(9).as_dict() == {
        (2, 4): 1, (2, 3): -1, (3, 3): H,
    }


def test_poly_prime_repetition():
    for p in primes_in(5, 200):
        assert lower_essential_poly(p - 1) == lower_essential_poly(p)


def test_poly_homogeneous_coefficients():
    for k0 in range(4, 120):
        for (i, j), coeff in lower_essential_poly(k0).terms:
            assert 2 <= i <= j <= k0 // 2
            assert coeff in (1, -1, H, -H)


def test_upper_poly_is_negated_mirror():
    # y_{k0} is the negated lower polynomial of alpha - k0 - 1.
    c = default_coding(16)
    y = {pt.k0: pt.y for pt in essential_points(c, 18)}
    assert y[8] == lower_essential_poly(9).negated().evaluate(c)
    assert y[5] == lower_essential_poly(12).negated().evaluate(c)


def test_eval_hand_example():
    xi = {2: Fraction(1), 3: Fraction(2), 4: Fraction(3), 6: Fraction(5)}
    assert lower_essential_poly(12).evaluate(xi) == 6


def test_eval_zero_poly():
    assert EssentialPolynomial(terms=()).evaluate(identity_coding(4)) == 0


def test_eval_refuses_a_float_coding():
    # Its slopes are BinaryFloats, which have no arithmetic to sum in.
    with pytest.raises(DomainError, match="^a float coding's slopes have no arithmetic; "
                                          "pass an explicit mapping"):
        lower_essential_poly(12).evaluate(default_coding(20, mode="float"))


def test_eval_identity_coding_gives_half():
    c = identity_coding(200)
    for k0 in range(4, 401):
        assert lower_value(c, k0) == H
    for k0 in range(4, 99):
        assert lower_essential_poly(k0).evaluate(c) == H


def test_two_evaluation_paths_agree():
    c = seeded_coding(200, 13)
    for k0 in range(4, 401):
        direct = sum(
            (TYPE_COEFFICIENT[t] * c.slope(n) * c.slope(np_)
             for n, np_, t in enumerate_regions(k0)),
            start=Fraction(0),
        )
        assert lower_essential_poly(k0).evaluate(c) == direct
        assert lower_value(c, k0) == direct


def test_essential_points_signs_alpha18():
    c = default_coding(16)
    pts = essential_points(c, 18)
    assert [p.k0 for p in pts] == [4, 5, 6, 7, 8]
    for p in pts:
        assert p.x > 0 > p.y
    # x_4 = xi_2^2 / 2 and y_4 = -x_13.
    assert pts[0].x == c.slope(2) ** 2 / 2
    assert pts[0].y == -lower_value(c, 13)


def test_float_y_keeps_working_precision():
    # Whatever mpmath's working precision (53 bits in the CLI), y must be
    # the exact negative of the coding's 128-bit x, not a rounded copy.
    c = PrimeCoding(slopes=seeded_coding(40, 3).slopes, mode=MODE_FLOAT, precision=128)
    with mpmath.workprec(53):
        pts = essential_points(c, 40)
    x = lower_value(c, 35)
    assert isinstance(x, BinaryFloat) and x.man.bit_length() > 53
    assert -pts[0].y == x


def test_essential_points_preconditions():
    with pytest.raises(RangeError):
        essential_points(default_coding(10), 18)
    with pytest.raises(DomainError):
        essential_points(identity_coding(20), 18)
    with pytest.raises(DomainError):
        essential_points(default_coding(16), 17)


def test_monotonicity_alpha18():
    table = points_mod._point_table(default_coding(16))
    table.check(18)
    records = {k0: points_mod._comparison(table, 18, k0) for k0 in range(5, 9)}
    assert records[5].x_repeats and records[5].k0_prime
    assert records[7].x_repeats and records[7].k0_prime
    assert not records[6].x_repeats and not records[6].k0_prime
    # y_4 = y_5 iff 13 = 18 - 5 prime.
    assert records[5].y_repeats and records[5].complement_prime


def test_characterization_examples():
    assert goldbach_characterization(default_coding(16), 18) == [5, 7]
    assert goldbach_characterization(default_coding(16), 16) == [5]
    assert goldbach_characterization(default_coding(20), 24) == [5, 7, 11]


def test_characterization_sweep_multiple_codings():
    for c in strict_families(120):
        for alpha in range(16, 121, 2):
            expected = [p for p in primes_in(5, alpha // 2 - 1) if is_prime(alpha - p)]
            assert goldbach_characterization(c, alpha) == expected, (alpha,)


def value_or_error(fn, *args):
    try:
        return fn(*args)
    except (DomainError, RangeError) as exc:
        return type(exc), str(exc)


class MpfSlopes:
    """A float coding's slopes as mpf values, read through c.slope: a
    missing index raises the coding's RangeError."""

    def __init__(self, c):
        self.slope = c.slope

    def __getitem__(self, i):
        return mpmath.mpf(self.slope(i))


def poly_oracle(c, k0):
    """The region polynomial at c's slopes: exact, or in mpf at a float coding's precision."""
    poly = lower_essential_poly(k0)
    if c.mode == MODE_RATIONAL:
        return poly.evaluate(c)
    with mpmath.workprec(c.precision):
        return poly.evaluate(MpfSlopes(c))


def with_float_copies(c):
    """c, then the same slopes as 53-, 128- and 256-bit float codings."""
    return [c] + [PrimeCoding(slopes=c.slopes, mode=MODE_FLOAT, precision=p)
                  for p in (53, 128, 256)]


@st.composite
def rational_codings(draw):
    """Positive slopes with unrelated denominators, runs of equal slopes and dips."""
    slopes = []
    for _ in range(draw(st.integers(min_value=1, max_value=160))):
        if slopes and draw(st.integers(min_value=0, max_value=3)) == 0:
            slopes.append(slopes[-1])
        else:
            slopes.append(Fraction(draw(st.integers(min_value=1, max_value=10 ** 6)),
                                   draw(st.integers(min_value=1, max_value=10 ** 4))))
    return PrimeCoding(slopes=tuple(slopes))


@given(c=rational_codings(), precision=st.sampled_from([None, 53, 128, 256]),
       k0s=st.lists(st.integers(min_value=-2, max_value=400), min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_int_kernel_matches_region_polynomial(c, precision, k0s):
    # k0 past 2*max_index must raise the RangeError the polynomial meets first.
    # Float values must match bit for bit: both sum the terms in one order.
    if precision is not None:
        c = PrimeCoding(slopes=c.slopes, mode=MODE_FLOAT, precision=precision)
    for k0 in k0s:
        assert value_or_error(lower_value, c, k0) == value_or_error(poly_oracle, c, k0), k0


def test_int_kernel_matches_region_polynomial_on_families():
    for family in (harmonic_coding(150), pow2_coding(150), arith_coding(150),
                   default_coding(150), identity_coding(150)):
        for c in with_float_copies(family):
            for k0 in range(0, 310):
                assert (value_or_error(lower_value, c, k0)
                        == value_or_error(poly_oracle, c, k0)), (c.mode, c.precision, k0)


@st.composite
def strict_rational_codings(draw):
    """Strictly increasing slopes with unrelated denominators."""
    parts = draw(st.lists(st.tuples(st.integers(min_value=1, max_value=10 ** 4),
                                    st.integers(min_value=1, max_value=10 ** 3)),
                          min_size=31, max_size=90))
    acc, slopes = Fraction(0), []
    for n, d in parts:
        acc += Fraction(n, d)
        slopes.append(acc)
    return PrimeCoding(slopes=tuple(slopes))


@given(c=strict_rational_codings())
@settings(max_examples=30, deadline=None)
def test_float_copies_decide_as_the_rational_coding(c):
    # Float codings are decided on their exact twins, with no tolerance:
    # each copy must give the rational coding's verdicts.
    n = c.max_index
    alphas = range(16, n + 6, 2)
    ks = [*range(2, n + 1), *(k + Fraction(1, 3) for k in range(2, n))]

    def verdicts(coding):
        return ([goldbach_characterization(coding, alpha) for alpha in alphas],
                [classify_number(coding, k) for k in ks],
                coding.identifies_primes)

    expected = verdicts(c)
    for copy in with_float_copies(c)[1:]:
        assert verdicts(copy) == expected, copy.precision


PRECS = st.integers(min_value=53, max_value=300)


@given(seed=st.integers(min_value=0, max_value=2 ** 32), prec=PRECS,
       wider=st.integers(min_value=0, max_value=64), spread=st.sampled_from([4, 300]))
@settings(max_examples=150, deadline=None)
def test_rounded_kernel_matches_the_mpf_loop(seed, prec, wider, spread):
    # The same steps summed in mpf arithmetic, on random mantissas of up to
    # prec + wider bits: slopes wider than prec round 2*xi_r before its product.
    rng = random.Random(seed)
    slopes = {}
    for i in range(rng.randrange(3, 80)):
        bits = rng.randrange(1, prec + wider + 1)
        m = rng.getrandbits(bits) | (1 << (bits - 1))
        slopes[i] = mpmath.mp.make_mpf(from_man_exp(m, rng.randrange(-spread, spread + 1)))
    pairs = {i: mantissa_pair(v) for i, v in slopes.items()}
    with mpmath.workprec(prec):
        for k0 in range(4, 2 * max(slopes) + 2):
            expected = points_mod._twice_lower_value(slopes, k0) / 2
            assert points_mod._rounded_lower(pairs, k0, prec, {}) == expected, k0


@st.composite
def slope_pair(draw, prec, spread):
    """A slope as (mantissa, exponent): up to prec + 64 random bits, bits
    below the top prec that tie or nearly tie, or a factor that makes
    products tie."""
    kind = draw(st.sampled_from(["random", "tie", "above", "under", "small"]))
    if kind == "small":
        m = draw(st.sampled_from([1, 3, 5, 7, 9, 2 ** 20 + 1, 2 ** prec - 1, 2 ** prec + 1]))
    else:
        bits = draw(st.integers(min_value=1, max_value=prec + 64))
        m = draw(st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1))
        n = bits - prec
        if kind != "random" and n > 0:
            m = (m >> n << n) | ((1 << (n - 1)) + {"tie": 0, "above": 1, "under": -1}[kind])
    return m, draw(st.integers(min_value=-spread, max_value=spread))


@given(data=st.data(), prec=st.sampled_from([53, 128, 512]), spread=st.sampled_from([4, 300]))
@settings(max_examples=120, deadline=None)
def test_a_shared_product_table_keeps_every_bit(data, prec, spread):
    # x_4 .. x_T through one table, in ascending and in shuffled order,
    # equal a fresh call per k0 and the same steps summed in mpf arithmetic.
    count = data.draw(st.integers(min_value=3, max_value=60))
    slopes = {i: mpmath.mp.make_mpf(from_man_exp(*data.draw(slope_pair(prec, spread))))
              for i in range(count)}
    pairs = {i: mantissa_pair(v) for i, v in slopes.items()}
    ks = list(range(4, 2 * count))  # x_k reads slopes 2 .. k//2
    with mpmath.workprec(prec):
        oracle = {k: points_mod._twice_lower_value(slopes, k) / 2 for k in ks}
    fresh = {k: points_mod._rounded_lower(pairs, k, prec, {}) for k in ks}
    assert fresh == oracle
    for order in (ks, data.draw(st.permutations(ks))):
        table = {}
        shared = {k: points_mod._rounded_lower(pairs, k, prec, table) for k in order}
        assert shared == fresh, order
        # Every product it kept is the one rounded product of its two slopes.
        for (n, q), value in table.items():
            assert value == points_mod._round(pairs[n][0] * pairs[q][0],
                                              pairs[n][1] + pairs[q][1], prec), (n, q)


def test_far_apart_slopes_stay_in_precision_sized_ints():
    # Slopes near 2**-100000 below slopes near 1: the rounded kernel must
    # equal the region polynomial and never align the two exactly.
    tiny = [Fraction(i + 1, 2 ** 100000) for i in range(12)]
    c = PrimeCoding(slopes=(*tiny, *(Fraction(i) for i in range(12, 70))),
                    mode=MODE_FLOAT, precision=128)
    widest = []
    real_round = points_mod._round

    def watched(m, e, prec):
        widest.append(m.bit_length())
        return real_round(m, e, prec)

    start = time.perf_counter()
    # The kernel rounds its products in points and its sums in numeric's _add.
    with mock.patch.object(points_mod, "_round", watched), \
            mock.patch.object(numeric_mod, "_round", watched):
        values = [lower_value(c, k0) for k0 in range(4, 140)]
    assert time.perf_counter() - start < 1
    assert max(widest) <= 3 * 128 + 12
    assert values == [poly_oracle(c, k0) for k0 in range(4, 140)]


def test_int_kernel_errors_pinned():
    for c in with_float_copies(default_coding(10)):
        with pytest.raises(DomainError, match=r"^essential regions need an integer k0 >= 4$"):
            lower_value(c, 3)
        with pytest.raises(RangeError, match=r"^slope index 11 outside 0\.\.10$"):
            lower_value(c, 35)  # terms (2, 11), (2, 17): index 11 comes first
    for c in with_float_copies(default_coding(1)):
        with pytest.raises(RangeError, match=r"^slope index 2 outside 0\.\.1$"):
            lower_value(c, 4)


def test_lower_value_stores_nothing():
    # The point table is the only store of x values: asking lower_value
    # twice for the same x runs the kernel twice.
    c = seeded_coding(40, 7)
    real = points_mod._twice_lower_value
    calls = []

    def counted(getter, k0):
        calls.append(k0)
        return real(getter, k0)

    with mock.patch.object(points_mod, "_twice_lower_value", counted):
        first = lower_value(c, 20)
        second = lower_value(c, 20)
    assert calls == [20, 20]
    assert first == second == poly_oracle(c, 20)
    info = lower_value.cache_info()
    assert info.maxsize == 0 and info.currsize == 0


def test_rational_sweep_bypasses_region_polynomial():
    # Table values come from the integer kernel: with both caches emptied,
    # every k0 is fresh, and the sweep must build no region set and no
    # region polynomial.
    c = seeded_coding(1200, 29)
    enumerate_regions.cache_clear()
    lower_essential_poly.cache_clear()
    for alpha in range(16, 1206, 2):
        goldbach_characterization(c, alpha)
    assert enumerate_regions.cache_info().misses == 0
    assert lower_essential_poly.cache_info().misses == 0
    lcm = c.scaled_slopes[1]
    stored = points_mod._point_table(c).x[1199]  # 2*L**2*x_1199
    assert Fraction(stored, 2 * lcm * lcm) == poly_oracle(c, 1199)


def test_scale_invariance():
    base = seeded_coding(40, 3)
    scaled = PrimeCoding(slopes=tuple(Fraction(7, 3) * s for s in base.slopes))
    factor = Fraction(7, 3) ** 2
    for k0 in range(4, 40):
        assert lower_value(scaled, k0) == factor * lower_value(base, k0)
    alpha = 36
    assert goldbach_characterization(base, alpha) == goldbach_characterization(scaled, alpha)


def test_theorem_violation_surfaces_for_bad_equalities():
    # A coding tuned so x_5 != x_4 is impossible; instead corrupt the
    # report check by faking a non-strict head, which the precondition
    # rejects before any wrong verdict can escape.
    slopes = list(default_coding(16).slopes)
    slopes[3] = slopes[2]
    with pytest.raises(DomainError):
        goldbach_characterization(PrimeCoding(slopes=tuple(slopes)), 18)


def test_variables_within_window():
    for alpha in (18, 24, 36):
        for k0 in range(4, alpha // 2):
            upper = lower_essential_poly(alpha - k0 - 1).negated()
            for v in upper.variables():
                assert 2 <= v <= (alpha - k0 - 1) // 2


def trial_division_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def lower_value_points(c, alpha):
    """Essential points built by lower_value, one call per coordinate, with no point table."""
    return [EssentialPoint(k0, lower_value(c, k0), -lower_value(c, alpha - k0 - 1))
            for k0 in range(4, alpha // 2)]


def scan_monotonicity(c, alpha):
    """Per-alpha oracle: the sign, ordering and repetition scan over lower_value's points.

    Its x values come from lower_value, not from the point table it checks.
    """
    pts = lower_value_points(c, alpha)
    for pt in pts:
        if not (pt.x > 0 and pt.y < 0):
            raise TheoremViolationError(
                f"essential point sign violated at k0={pt.k0}: x={pt.x}, y={pt.y}"
            )
    records = []
    for prev, cur in zip(pts, pts[1:]):
        if cur.x < prev.x or cur.y < prev.y:
            raise TheoremViolationError(
                f"essential point ordering violated between k0={prev.k0} and {cur.k0}"
            )
        rec = IndexComparison(
            k0=cur.k0,
            x_repeats=prev.x == cur.x,
            k0_prime=trial_division_prime(cur.k0),
            y_repeats=prev.y == cur.y,
            complement_prime=trial_division_prime(alpha - cur.k0),
        )
        if rec.x_repeats != rec.k0_prime or rec.y_repeats != rec.complement_prime:
            raise TheoremViolationError(
                f"repetition dichotomy violated at alpha={alpha}, k0={rec.k0}: {rec}"
            )
        records.append(rec)
    return records


def scan_characterization(c, alpha):
    records = scan_monotonicity(c, alpha)
    repeated = [r.k0 for r in records if r.x_repeats and r.y_repeats]
    expected = [p for p in range(5, alpha // 2)
                if trial_division_prime(p) and trial_division_prime(alpha - p)]
    if repeated != expected:
        raise TheoremViolationError(f"scan mismatch at alpha={alpha}")
    return repeated


def table_records(c, alpha):
    """The point table's verdict on alpha: its check, then the junction records of its R."""
    table = points_mod._point_table(c.exact)
    table.check(alpha)
    return [points_mod._comparison(table, alpha, k0) for k0 in range(5, alpha // 2)]


def outcome(fn, *args):
    try:
        return fn(*args)
    except TheoremViolationError as exc:
        return type(exc), str(exc)


def corrupt(index, kind):
    """A stand-in for scaled_lower_value that spoils x_index in one way.

    lower_value reads scaled_lower_value too, so the point table and a scan
    of lower_value's points see the same spoiled value.
    """
    real = points_mod.scaled_lower_value

    def fake(c, k0):
        if k0 != index:
            return real(c, k0)
        value = real(c, k0)
        if kind == "negate":
            return -value
        if kind == "repeat":
            # x_4 has no predecessor: copy its successor instead.
            return real(c, k0 - 1 if k0 > 4 else k0 + 1)
        if kind == "halve":
            return value // 2
        return value + value // 1000 + 1
    return fake


@given(
    increments=st.lists(st.integers(min_value=1, max_value=1000), min_size=30, max_size=70),
    mode=st.sampled_from([MODE_RATIONAL, MODE_FLOAT]),
    picks=st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=6),
    damage=st.none() | st.tuples(st.integers(min_value=4, max_value=10 ** 6),
                                 st.sampled_from(["negate", "repeat", "halve", "bump"])),
)
@settings(max_examples=60, deadline=None)
def test_table_matches_per_alpha_scan(increments, mode, picks, damage):
    # One coding serves several alphas in random order, so the shared table
    # grows between checks; an optional spoiled x_j must surface for exactly
    # the alphas whose window reads it, with the scan's message.  A float
    # coding is decided on its exact twin, so the scan runs on the twin.
    acc, slopes = Fraction(1), [Fraction(1)]
    for inc in increments:
        acc += Fraction(inc, 997)
        slopes.append(acc)
    c = PrimeCoding(slopes=tuple(slopes), mode=mode, precision=128)
    alphas = [16 + 2 * (p % ((c.max_index + 5 - 16) // 2 + 1)) for p in picks]
    patch = mock.patch.object(points_mod, "scaled_lower_value",
                              corrupt(4 + damage[0] % (c.max_index - 3), damage[1])
                              if damage else points_mod.scaled_lower_value)
    with patch:
        for alpha in alphas:
            assert (outcome(table_records, c, alpha)
                    == outcome(scan_monotonicity, c.exact, alpha))
            assert (outcome(goldbach_characterization, c, alpha)
                    == outcome(scan_characterization, c.exact, alpha))


def sweep_one(c, alpha):
    """goldbach-check's record of alpha as the per-alpha loop built it before the
    sweep: the characterization, or its failure, beside the sieve's partitions.
    The characterization is the scan of lower_value's points, and the
    partitions are the prime-list scan."""
    inside, outside = goldbach_partitions_scan(alpha)
    try:
        k0_list = window = scan_characterization(c.exact, alpha)
        agreement, error = True, None
    except TheoremViolationError as exc:
        k0_list, agreement, error = [], False, str(exc)
        window = inside
    record = {
        "alpha": alpha,
        "k0_list": k0_list,
        "sieve_window": window,
        "sieve_outside_window": outside,
        "sieve_agreement": agreement,
    }
    if error:
        record["error"] = error
    return record


@given(
    increments=st.lists(st.integers(min_value=1, max_value=1000), min_size=12, max_size=60),
    tail=st.lists(st.integers(min_value=1, max_value=1000), max_size=30),
    mode=st.sampled_from([MODE_RATIONAL, MODE_FLOAT]),
    bounds=st.tuples(st.integers(min_value=0, max_value=10 ** 6),
                     st.integers(min_value=0, max_value=10 ** 6)),
    damage=st.none() | st.tuples(st.integers(min_value=0, max_value=10 ** 6),
                                 st.sampled_from(["negate", "repeat", "halve", "bump"])),
)
# A spoiled x_11 breaks the sign at alpha 16 (x_4, y_4), a halved x_7 the
# ordering and a repeated x_8 the dichotomy, in every window that reads them.
@example(increments=[1] * 40, tail=[], mode=MODE_RATIONAL, bounds=(0, 10 ** 6),
         damage=(7, "negate"))
@example(increments=[1] * 40, tail=[], mode=MODE_RATIONAL, bounds=(0, 10 ** 6),
         damage=(3, "halve"))
@example(increments=[1] * 40, tail=[], mode=MODE_FLOAT, bounds=(0, 10 ** 6),
         damage=(4, "repeat"))
@settings(max_examples=60, deadline=None)
def test_goldbach_check_records_match_the_per_alpha_loop(increments, tail, mode, bounds, damage):
    # goldbach-check builds its records from one goldbach_sweep over the
    # range; they must be, as canonical JSON, the records the per-alpha loop
    # built.  The codings are strict, or stop increasing above every window
    # of the range, and an optional spoiled x_j (which lower_value reads too)
    # makes the table record a sign, ordering or dichotomy failure.
    slopes = (*accumulate(increments), *tail)
    c = PrimeCoding(slopes=tuple(Fraction(v, 997) for v in slopes), mode=mode, precision=128)
    limit = min(c.max_index + 5, 2 * c.strict_through + 3)  # the largest alpha c serves
    lo = 16 + 2 * (bounds[0] % ((limit - 14) // 2))
    hi = lo + 2 * (bounds[1] % ((limit - lo) // 2 + 1))
    spoil = (corrupt(4 + damage[0] % (hi - 8), damage[1]) if damage
             else points_mod.scaled_lower_value)
    printed = []
    with mock.patch.object(points_mod, "scaled_lower_value", spoil), \
            mock.patch.object(cli_mod, "_load_coding", lambda *args, **kwargs: c), \
            mock.patch.object(cli_mod, "emit", lambda *args, **fields: printed.append(fields)):
        rc = cli_mod.main(["goldbach-check", "--alpha-range", f"{lo}..{hi}"])
        expected = [sweep_one(c, alpha) for alpha in range(lo, hi + 1, 2)]
    assert rc == (0 if all(r["sieve_agreement"] for r in expected) else 2)
    assert (cli_mod.canonical_json({"records": printed[0]["records"]})
            == cli_mod.canonical_json({"records": expected}))


def test_a_clean_table_scans_no_window(monkeypatch):
    # A table that has recorded no sign, ordering or dichotomy failure never
    # runs its check: no window is scanned, and every alpha is still
    # reconciled with the sieve.
    def no_check(self, alpha):
        raise AssertionError(f"a clean table checked the window of alpha={alpha}")

    def no_scan(indices, alpha, mirror):
        raise AssertionError(f"a clean table scanned the window of alpha={alpha}")

    monkeypatch.setattr(points_mod.PointTable, "check", no_check)
    monkeypatch.setattr(points_mod, "_first_in_window", no_scan)
    c = default_coding(200)
    table = points_mod._point_table(c)
    for alpha in (40, 18, 204, 100):
        assert (goldbach_characterization(c, alpha)
                == list(goldbach_partitions_oracle(alpha).inside_window))
    assert (table.sign_bad, table.order_bad, table.mismatches) == ([], [], [])
    assert ([j for j in range(5, 200) if table.repeats >> j & 1]
            == [j for j in range(5, 200) if is_prime(j)])
    alphas = range(16, 205, 2)
    outcomes = list(goldbach_sweep(c, alphas))
    assert [report.alpha for report, _ in outcomes] == list(alphas)
    assert all(error is None for _, error in outcomes)


def _scan_of_fractions(c, top):
    """The point table's facts through top, by a scan of lower_value Fractions."""
    x = {j: lower_value(c, j) for j in range(4, top + 1)}
    repeats = [x[j - 1] == x[j] for j in range(5, top + 1)]
    return (x,
            [j for j in x if not x[j] > 0],
            [j for j in range(5, top + 1) if x[j] < x[j - 1]],
            repeats,
            [j for j, r in zip(range(5, top + 1), repeats) if r != trial_division_prime(j)])


@given(
    values=st.lists(st.integers(min_value=1, max_value=1000), min_size=30, max_size=70),
    strict=st.booleans(),
    tops=st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=4),
    damage=st.none() | st.tuples(st.integers(min_value=4, max_value=10 ** 6),
                                 st.sampled_from(["negate", "repeat", "halve", "bump"])),
)
@settings(max_examples=60, deadline=None)
def test_integer_table_matches_a_scan_of_fractions(values, strict, tops, damage):
    # The table compares the ints 2*L**2*x_j; its sign, order, repeat and
    # mismatch lists must be those a scan of the Fractions x_j gives, on
    # strict and non-strict codings, grown in steps, with an optional spoiled
    # x_j (which lower_value reads too).
    c = PrimeCoding(slopes=tuple(Fraction(v, 997) for v in
                                 (accumulate(values) if strict else values)))
    limit = 2 * c.max_index + 1  # x_j reads slopes through j // 2
    spoil = (corrupt(4 + damage[0] % (limit - 3), damage[1]) if damage
             else points_mod.scaled_lower_value)
    table = points_mod.PointTable(c)
    with mock.patch.object(points_mod, "scaled_lower_value", spoil):
        for top in sorted(4 + t % (limit - 3) for t in tops):
            table.record(top)
            x, sign, order, repeats, mismatches = _scan_of_fractions(c, top)
            assert {j: Fraction(table.x[j], table.scale) for j in x} == x
            assert (table.sign_bad, table.order_bad, table.mismatches) == (sign, order, mismatches)
            assert [bool(table.repeats >> j & 1) for j in range(5, top + 1)] == repeats
            assert [bool(table.mirror >> (top + 5 - j) & 1) for j in range(5, top + 1)] == repeats
            assert table.repeats >> (top + 1) == 0 and table.mirror.bit_length() <= top + 1


def test_violation_messages_pinned():
    c = default_coding(16)
    with mock.patch.object(points_mod, "scaled_lower_value", corrupt(6, "repeat")):
        with pytest.raises(TheoremViolationError) as info:
            goldbach_characterization(c, 18)
    assert str(info.value) == (
        "repetition dichotomy violated at alpha=18, k0=6: IndexComparison(k0=6, "
        "x_repeats=True, k0_prime=False, y_repeats=False, complement_prime=False)"
    )
    # Halving x_7 breaks the ordering and the dichotomy at the same k0; the
    # ordering is reported, as the scan checks it first.
    c = default_coding(16)
    with mock.patch.object(points_mod, "scaled_lower_value", corrupt(7, "halve")):
        with pytest.raises(TheoremViolationError,
                           match=r"^essential point ordering violated between k0=6 and 7$"):
            points_mod._point_table(c).check(18)
    c = default_coding(16)
    with mock.patch.object(points_mod, "scaled_lower_value", corrupt(12, "halve")):
        with pytest.raises(TheoremViolationError) as info:
            points_mod._point_table(c).check(18)
        assert str(info.value) == (
            "repetition dichotomy violated at alpha=18, k0=5: IndexComparison(k0=5, "
            "x_repeats=True, k0_prime=True, y_repeats=False, complement_prime=True)"
        )
        # x_12 is y_5 at alpha 18 but lies outside alpha 16's window.
        assert goldbach_characterization(c, 16) == [5]
    c = default_coding(16)
    with mock.patch.object(points_mod, "scaled_lower_value", corrupt(11, "negate")):
        with pytest.raises(TheoremViolationError) as info:
            goldbach_characterization(c, 16)
    assert str(info.value) == (
        f"essential point sign violated at k0=4: x={lower_value(c, 4)}, y={lower_value(c, 11)}"
    )


def test_sieve_mismatch_message_pinned():
    # A sieve that forgets 7 must make the characterization raise, not agree:
    # its bitmap (bit k0 - 5 of an int) is the datum both compared and
    # printed.
    def forgetful_oracle(alpha):
        report = goldbach_partitions_oracle(alpha)
        return report._replace(window_bits=report.window_bits & ~(1 << (7 - 5)))

    with mock.patch.object(points_mod, "goldbach_partitions_oracle", forgetful_oracle):
        with pytest.raises(TheoremViolationError) as info:
            goldbach_characterization(default_coding(16), 18)
    assert str(info.value) == (
        "characterization/sieve mismatch at alpha=18: points gave [5, 7], sieve gives [5]"
    )


def window_comprehension(bits, alpha):
    """The per-index scan the paired window replaced, kept as its reference."""
    return [k for k in range(5, alpha // 2) if bits[k] and bits[alpha - k]]


def paired_repeats(bits, alpha):
    """The k0 of R's paired window, on a point table whose R is bits[5:], recorded through
    len(bits) - 1: x_4 = 1, and x_j steps up by one unless R[j] is set."""
    table = points_mod.PointTable(default_coding(16))
    table.x = [None] * 4 + list(accumulate([1] + [1 - b for b in bits[5:]]))
    table.record(len(bits) - 1)
    return points_mod._set_bits(table.paired_window(alpha), 5)


@given(data=st.data(), alpha=st.integers(min_value=8, max_value=400).map(lambda h: 2 * h),
       extra=st.integers(min_value=0, max_value=40))
@settings(max_examples=200, deadline=None)
def test_paired_repeats_match_the_comprehension(data, alpha, extra):
    # The table may have grown past alpha - 5 for a larger alpha earlier.
    size = alpha - 4 + extra
    bits = bytearray(b & 1 for b in data.draw(st.binary(min_size=size, max_size=size)))
    assert paired_repeats(bits, alpha) == window_comprehension(bits, alpha)


@pytest.mark.parametrize("alpha", [16, 18, 20, 102, 1000, 2002])
@pytest.mark.parametrize("fill", [0, 1])
def test_paired_repeats_on_uniform_bitmaps(alpha, fill):
    bits = bytearray([fill]) * (alpha - 4)
    found = paired_repeats(bits, alpha)
    assert found == window_comprehension(bits, alpha)
    assert found == (list(range(5, alpha // 2)) if fill else [])


def test_non_strict_coding_errors_pinned():
    slopes = list(default_coding(24).slopes)
    slopes[9] = slopes[8]
    c = PrimeCoding(slopes=tuple(slopes))
    for fn in (essential_points, goldbach_characterization):
        with pytest.raises(DomainError) as info:
            fn(c, 20)
        assert str(info.value) == "essential points need slopes strictly increasing through 9"
        with pytest.raises(RangeError) as info:
            fn(default_coding(10), 18)
        assert str(info.value) == "coding defines slopes through 10, need index 13"
    # The dip lies above alpha/2 - 1 = 8, where the essential points never look.
    assert goldbach_characterization(c, 18) == [5, 7]


def test_float_essential_points_skip_the_exact_twin():
    # Strictness is read on the coding's own ints, and so are the mantissas.
    c = default_coding(120, mode=MODE_FLOAT)
    essential_points(c, 120)
    assert "exact" not in c.__dict__


def test_points_and_the_repetition_checks_build_one_table(monkeypatch):
    # A rational coding's essential points and every alpha's repetition
    # checks read one PointTable, and each x_j is computed once.
    top = 300
    c = seeded_coding(top - 5, 17)
    tables, computed = [], []
    real_init, real_value = points_mod.PointTable.__init__, points_mod.scaled_lower_value

    def counted_init(self, coding):
        tables.append(coding)
        real_init(self, coding)

    def counted_value(coding, k0):
        computed.append(k0)
        return real_value(coding, k0)

    monkeypatch.setattr(points_mod.PointTable, "__init__", counted_init)
    monkeypatch.setattr(points_mod, "scaled_lower_value", counted_value)
    essential_points(c, top)
    assert computed == list(range(4, top - 4))
    for alpha in range(16, top + 1, 2):
        points_mod._point_table(c).check(alpha)
        assert (goldbach_characterization(c, alpha)
                == list(goldbach_partitions_oracle(alpha).inside_window))
    essential_points(c, top)
    assert tables == [c]
    assert computed == list(range(4, top - 4))


def test_points_ask_is_prime_nothing_until_a_check_runs(monkeypatch):
    # essential_points grows the table's x values alone; the first check on
    # the same coding records R and compares it with the sieve's table once,
    # as one XOR: no index is asked of is_prime.
    top = 300
    c = seeded_coding(top - 5, 17)
    asked, tables = [], []

    def counted_is_prime(n):
        asked.append(n)
        return is_prime(n)

    def counted_table(n):
        tables.append(n)
        return table(n)

    table = points_mod._table
    monkeypatch.setattr(points_mod, "is_prime", counted_is_prime)
    monkeypatch.setattr(points_mod, "_table", counted_table)
    essential_points(c, top)
    assert asked == tables == []
    assert (goldbach_characterization(c, top)
            == list(goldbach_partitions_oracle(top).inside_window))
    assert asked == [] and tables == [top - 5]


@given(
    increments=st.lists(st.integers(min_value=1, max_value=1000), min_size=20, max_size=80),
    picks=st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_points_from_the_table_match_lower_value(increments, picks):
    # Alphas come in random order, so the table has sometimes grown past
    # alpha - 5 already; the points read from it must be lower_value's.
    acc, slopes = Fraction(1), [Fraction(1)]
    for inc in increments:
        acc += Fraction(inc, 997)
        slopes.append(acc)
    c = PrimeCoding(slopes=tuple(slopes))
    for p in picks:
        alpha = 16 + 2 * (p % ((c.max_index + 5 - 16) // 2 + 1))
        pts = essential_points(c, alpha)
        assert pts == lower_value_points(c, alpha)
        assert all(type(pt.x) is type(pt.y) is Fraction for pt in pts)
