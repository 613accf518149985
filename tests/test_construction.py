"""The recursive construction: worked-example fidelity, junction
continuity, closed-form identities, homogeneity, and the scalar limit."""

import math
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

import hypgold.construction as construction
import hypgold.points as points_mod
from hypgold.areas import hat_AT_second_derivative
from hypgold.construction import (
    ConstructedCoding,
    GoldbachSpec,
    F_term,
    build_goldbach,
    build_lower,
    build_upper,
    free_indices,
    is_in_N,
    junction_gaps,
    scalar_limit_sweep,
    verify_continuity,
)
from hypgold.coding import PrimeCoding
from hypgold.errors import ConstructionFailureError, DomainError
from hypgold.numeric import MODE_FLOAT, mantissa_pair, to_mpf
from hypgold.oracles import is_prime, primes_in
from hypgold.points import (
    essential_points,
    goldbach_characterization,
    lower_essential_poly,
    lower_value,
)
from hypgold.reference import reduced_form_check, rel_diff
from hypgold.regions import enumerate_regions

from conftest import seeded_coding

from helpers18 import alpha18_expected


def random_lambda_sq(alpha: int, seed: int) -> dict:
    rng = random.Random(seed)
    return {
        i: Fraction(rng.randrange(1050, 4000), 1000) for i in free_indices(alpha)
    }


def test_is_in_N_examples():
    assert is_in_N(18)
    assert not is_in_N(16)  # 13 prime
    assert is_in_N(24)


def test_is_in_N_matches_definition():
    for alpha in range(0, 2001, 2):
        expected = (
            alpha >= 16 and not is_prime(alpha // 2) and not is_prime(alpha - 3)
        )
        assert is_in_N(alpha) == expected, alpha


def test_twelve_k_family():
    for k in range(2, 51):
        assert is_in_N(12 * k)


def test_free_indices():
    assert free_indices(18) == (3, 4, 5, 7)
    assert free_indices(24) == (3, 4, 5, 7, 11)


def test_spec_validation():
    with pytest.raises(DomainError):
        GoldbachSpec(alpha=16)  # not in the window set
    with pytest.raises(DomainError):
        GoldbachSpec(alpha=18, lambda_sq={3: 1})  # stalls: lambda = 1
    with pytest.raises(DomainError):
        GoldbachSpec(alpha=18, scalar_u=1)
    with pytest.raises(DomainError):
        GoldbachSpec(alpha=18, scalar_u=Fraction(3, 2), lambda_sq={3: 2})
    with pytest.raises(DomainError):
        GoldbachSpec(alpha=18, lambda_sq={6: 2})  # 6 is forced, not free
    with pytest.raises(DomainError):
        GoldbachSpec(alpha=18, xi2_sq=0)


def test_alpha18_symbol_table():
    for seed in (3, 11):
        lam = random_lambda_sq(18, seed)
        xi9 = Fraction(seed * 7 + 5, 3)
        spec = GoldbachSpec(alpha=18, xi2_sq=1, xi_half_sq=xi9, lambda_sq=lam)
        cc = build_goldbach(spec)
        expected = alpha18_expected(lam, 1, xi9)
        for j in range(4, 14):
            assert rel_diff(cc.x[j], expected["x"][j]) < 1e-9, ("x", j)
        for i in (6, 7, 8, 10, 11, 12, 13):
            assert rel_diff(cc.xi_sq[i], expected["xi_sq"][i]) < 1e-9, ("xi_sq", i)
        lower = build_lower(spec)
        assert rel_diff(F_term(lower, 5), expected["F5"]) < 1e-9
        assert rel_diff(F_term(lower, 7), expected["F7"]) < 1e-9


def test_junction_continuity_random_specs():
    for alpha in (18, 24, 36, 102):
        for seed in range(4):
            cc = build_goldbach(GoldbachSpec(alpha=alpha, seed=seed))
            assert verify_continuity(cc, rel_tol=1e-9) <= 1e-9


def test_forced_ratio_identities():
    cc = build_goldbach(GoldbachSpec(alpha=36, seed=5))
    alpha = 36
    for i in range(6, alpha // 2):
        if not is_prime(i):
            assert rel_diff(mpf(cc.xi_sq[i]) * cc.x[i - 1], mpf(cc.xi_sq[i - 1]) * cc.x[i]) < 1e-30
    for k0 in range(5, alpha // 2):
        if not is_prime(k0):
            left = mpf(cc.xi_sq[alpha - k0 - 1]) * cc.abs_y(k0 - 1)
            right = mpf(cc.xi_sq[alpha - k0]) * cc.abs_y(k0)
            assert rel_diff(left, right) < 1e-30


def test_increase_guard_covers_the_first_free_index():
    # u^2 rounds to 1 at 128 bits, so xi_3^2 would equal xi_2^2: the input
    # needs more precision, which is a domain error, not a failed construction.
    spec = GoldbachSpec(alpha=18, scalar_u=1 + Fraction(1, 10 ** 40))
    with pytest.raises(DomainError,
                       match=r"^lambda_3\^2 rounds to 1 at 128 bits; raise --precision$"):
        build_lower(spec)
    pinned = GoldbachSpec(alpha=18, lambda_sq={5: 1 + Fraction(1, 10 ** 40)})
    with pytest.raises(DomainError, match=r"^lambda_5\^2 rounds to 1 at 128 bits"):
        build_lower(pinned)
    build_lower(spec, precision=256)


def test_increase_guard_catches_a_stalled_ratio(monkeypatch):
    # x_6 = x_5 gives the ratio 1 at the composite index 6.
    real = construction._poly_value

    def stalled(xi, j, products, prec):
        return real(xi, 5 if j == 6 else j, products, prec)

    monkeypatch.setattr(construction, "_poly_value", stalled)
    with pytest.raises(ConstructionFailureError,
                       match="^slope squares failed to increase at index 6$"):
        build_lower(GoldbachSpec(alpha=18, seed=1))


def test_each_x_is_computed_once_as_soon_as_its_slopes_exist(monkeypatch):
    real = construction._poly_value
    calls = []
    tables = set()

    def spy(pairs, j, products, prec):
        # x_j reads slopes 2..j//2, and no later slope may exist yet.
        assert max(pairs) == max(j // 2, 2), j
        calls.append(j)
        tables.add(id(products))
        return real(pairs, j, products, prec)

    monkeypatch.setattr(construction, "_poly_value", spy)
    cc = build_lower(GoldbachSpec(alpha=102, seed=3))
    assert calls == list(range(4, 102 - 4)) == list(cc.x)
    assert len(tables) == 1  # one product table serves the whole pass


def _kernel_products(k0: int) -> set:
    """The (n, q) whose product xi_n*xi_q the x_{k0} kernel reads."""
    r = math.isqrt(k0)
    keys = {(n, k0 // d) for n in range(2, r) for d in (n, n + 1)} | {(r, r)}
    if k0 // r > r:
        keys.add((r, k0 // r))
    return keys


def test_a_pass_rounds_each_slope_product_once(monkeypatch):
    # Every rounding outside a sum rounds a product, and each distinct
    # product of the pass is rounded exactly once, into its one table.
    alpha = 480
    real_product, real_round, real_add = points_mod._product, points_mod._round, points_mod._add
    rounded, tables, in_sum, other = [], set(), [False], [0]

    def product(products, pair, n, q, prec):
        rounded.append((n, q))
        tables.add(None if products is None else id(products))
        return real_product(products, pair, n, q, prec)

    def add(a, b, prec):
        in_sum[0] = True
        try:
            return real_add(a, b, prec)
        finally:
            in_sum[0] = False

    def round_(m, e, prec):
        if not in_sum[0]:
            other[0] += 1
        return real_round(m, e, prec)

    monkeypatch.setattr(points_mod, "_product", product)
    monkeypatch.setattr(points_mod, "_add", add)
    monkeypatch.setattr(points_mod, "_round", round_)
    build_lower(GoldbachSpec(alpha=alpha, seed=5))
    expected = set().union(*(_kernel_products(k0) for k0 in range(4, alpha - 4)))
    assert len(rounded) == len(set(rounded)) == len(expected) == 1036
    assert set(rounded) == expected
    assert other[0] == len(rounded)  # no product is rounded outside the table
    assert len(tables) == 1 and None not in tables


def test_float_points_round_each_slope_product_once(monkeypatch):
    # One table serves every x and y of the call, and the bits are those
    # of a lower_value that keeps no table.
    alpha = 480
    c = PrimeCoding(slopes=seeded_coding(alpha - 4, 41).slopes, mode=MODE_FLOAT, precision=96)
    real_product = points_mod._product
    rounded, tables = [], set()

    def product(products, pair, n, q, prec):
        rounded.append((n, q))
        tables.add(None if products is None else id(products))
        return real_product(products, pair, n, q, prec)

    monkeypatch.setattr(points_mod, "_product", product)
    points = essential_points(c, alpha)
    expected = set().union(*(_kernel_products(k0) for k0 in range(4, alpha - 4)))
    assert len(rounded) == len(set(rounded)) == len(expected)
    assert set(rounded) == expected
    assert len(tables) == 1 and None not in tables
    monkeypatch.undo()
    for p in points:
        assert mantissa_pair(p.x) == mantissa_pair(lower_value(c, p.k0)), p.k0
        assert mantissa_pair(p.y) == mantissa_pair(-lower_value(c, alpha - p.k0 - 1)), p.k0


def test_the_scalar_family_rounds_u_once(monkeypatch):
    # Every free index takes the one pair u**2 rounds to.
    u = Fraction(21, 20)
    calls = []
    real = construction._round_number

    def round_number(x, prec):
        calls.append(x)
        return real(x, prec)

    monkeypatch.setattr(construction, "_round_number", round_number)
    lower = build_lower(GoldbachSpec(alpha=120, scalar_u=u))
    assert calls.count(u) == 1
    assert len(set(lower.lambda_sq.values())) == 1
    assert set(lower.lambda_sq) == set(free_indices(120))


def test_perturbation_breaks_continuity():
    cc = build_goldbach(GoldbachSpec(alpha=18, seed=2))
    assert cc.provenance[11] == "forced-prime-junction"
    tampered = ConstructedCoding(
        alpha=cc.alpha,
        precision=cc.precision,
        spec=cc.spec,
        xi_sq={**cc.xi_sq},
        xi={**cc.xi},
        x={**cc.x},
        lambda_sq=dict(cc.lambda_sq),
        provenance=dict(cc.provenance),
    )
    tampered.xi_sq[11] = cc.xi_sq[11] * mpf("1.0201")  # xi_11 up by 1%
    report = junction_gaps(tampered)
    assert report.gaps[7] > 1e-3
    with pytest.raises(ConstructionFailureError):
        verify_continuity(tampered)


def test_terminal_coefficient_closed_form():
    for alpha, seed in ((18, 1), (24, 9), (48, 4)):
        spec = GoldbachSpec(alpha=alpha, seed=seed)
        lower = build_lower(spec)
        cc = build_upper(spec, lower)
        with mp.workprec(128):
            acc = mpf(cc.abs_y(alpha // 2 - 1)) / cc.xi_sq[alpha // 2]
            for r0 in primes_in(5, alpha // 2 - 1):
                acc += F_term(lower, r0)
            expected = cc.abs_y(4) / acc
        assert rel_diff(cc.xi_sq[alpha - 5], expected) < 1e-9


def test_lambda_product_identities():
    alpha = 48
    lam = random_lambda_sq(alpha, 21)
    spec = GoldbachSpec(alpha=alpha, xi2_sq=Fraction(5, 4), lambda_sq=lam)
    lower = build_lower(spec)
    with mp.workprec(128):
        l3sq = to_mpf(lam[3])
        l4sq = to_mpf(lam[4])
        base = 1 / (2 * l3sq * l4sq)
        window = primes_in(5, alpha // 2 - 1)
        for p0 in window[1:]:
            product = mpf(1)
            for q in window:
                if q < p0:
                    product *= 1 / to_mpf(lam[q])
            # i) x_{p0} / xi_{p0-1}^2 telescopes to the lambda product.
            got = mpf(lower.x[p0]) / lower.xi_sq[p0 - 1]
            assert rel_diff(got, base * product) < 1e-9, p0
            # iii) F_{p0} carries the same product and the (1 - 1/lambda^2) factor.
            expected_f = ((alpha - p0) / mpf(p0)) * base * product * (
                1 - 1 / to_mpf(lam[p0])
            )
            assert rel_diff(F_term(lower, p0), expected_f) < 1e-9, p0
        # ii) F_5 in closed form.
        expected_f5 = ((alpha - 5) / mpf(5)) * base * (1 - 1 / to_mpf(lam[5]))
        assert rel_diff(F_term(lower, 5), expected_f5) < 1e-9


def test_f_term_domain():
    lower = build_lower(GoldbachSpec(alpha=18, seed=0))
    with pytest.raises(DomainError):
        F_term(lower, 6)
    with pytest.raises(DomainError):
        F_term(lower, 11)


def test_f5_monotone_in_lambda5_with_limit_bound():
    # F_5 grows with lambda_5^2 and stays below its algebraic limit
    # (alpha - 5) / (10 lambda_3^2 lambda_4^2).
    alpha = 18
    base = {3: Fraction(3, 2), 4: Fraction(7, 4), 7: Fraction(2)}
    values = []
    for l5 in (Fraction(11, 10), Fraction(3, 2), Fraction(3), Fraction(50)):
        lam = {**base, 5: l5}
        lower = build_lower(GoldbachSpec(alpha=alpha, lambda_sq=lam, seed=0))
        values.append(F_term(lower, 5))
    assert all(a < b for a, b in zip(values, values[1:]))
    limit = to_mpf(Fraction(alpha - 5, 10) / (base[3] * base[4]))
    assert all(v < limit for v in values)
    assert rel_diff(values[-1], limit) < 0.03  # lambda_5^2 = 50 sits near the limit


def test_eval_G_interior_and_junction():
    # G at khat is the total-area second derivative at psi_inv(khat).
    cc = build_goldbach(GoldbachSpec(alpha=18, seed=7))
    coding = cc.prime_coding
    alpha = 18

    def eval_G(khat):
        return hat_AT_second_derivative(coding, alpha, coding.preimage(khat))

    with mp.workprec(128):
        k = mpf(13) / 2
        k0 = 6
        value = eval_G(coding.psi(k))
        expected = cc.x[k0] / (cc.xi_sq[k0] * k) - cc.abs_y(k0) / (
            cc.xi_sq[alpha - k0 - 1] * (alpha - k)
        )
        assert rel_diff(value, expected) < 1e-25
        eps = mpf(10) ** -7
        for k0 in range(5, 9):
            left = eval_G(coding.psi(k0 - eps))
            right = eval_G(coding.psi(k0 + eps))
            assert rel_diff(left, right) < 1e-5, k0


def test_reduced_form_scaling():
    spec = GoldbachSpec(alpha=18, xi2_sq=Fraction(2, 3), seed=5)
    for scale in (1, 4, Fraction(9, 1)):
        report = reduced_form_check(spec, scale)
        assert report.max_xi_sq_error < 1e-25
        assert report.max_x_error < 1e-25
        assert report.max_ratio_error < 1e-25


def test_characterization_survives_construction():
    # Every seed-0 window-set alpha up to 600: decided with a relative
    # tolerance of 1e-9, 58 of these 162 read a near-tie as a repeat.
    cases = [(24, 3), (36, 8), (98, 2)] + [(a, 0) for a in range(16, 601, 2) if is_in_N(a)]
    for alpha, seed in cases:
        cc = build_goldbach(GoldbachSpec(alpha=alpha, seed=seed))
        pc = cc.prime_coding
        expected = [p for p in primes_in(5, alpha // 2 - 1) if is_prime(alpha - p)]
        assert goldbach_characterization(pc, alpha) == expected, (alpha, seed)


def test_prime_junction_values_are_bit_identical():
    # At a prime p no n <= isqrt(p) divides p and isqrt(p - 1) = isqrt(p),
    # so x_{p-1} and x_p sum the same terms in the same order.
    for alpha in (18, 96, 480):
        lower = build_lower(GoldbachSpec(alpha=alpha))
        for p in primes_in(5, alpha - 5):
            assert lower.x[p - 1] == lower.x[p], (alpha, p)


def test_prime_junction_check_is_exact():
    spec = GoldbachSpec(alpha=96)
    lower = build_lower(spec)
    with mp.workprec(lower.precision):
        lower.x[7] = lower.x[7] * (1 + mpf(2) ** -120)
    with pytest.raises(ConstructionFailureError, match="prime junction 7"):
        build_upper(spec, lower)


@pytest.mark.parametrize("spec", [
    GoldbachSpec(alpha=480, seed=916),
    GoldbachSpec(alpha=96, scalar_u=Fraction(101, 100)),
])
def test_lower_x_is_region_polynomial_bit_for_bit(spec):
    # The constructed slopes are serialized exactly, so every x must round
    # as the region polynomial's term-by-term sum does, at every precision.
    for precision in (53, 128, 256):
        lower = build_lower(spec, precision)
        with mp.workprec(lower.precision):
            xi = {i: mpf(v) for i, v in lower.xi.items()}  # each slope exactly
            for j, value in lower.x.items():
                assert lower_essential_poly(j).evaluate(xi) == value, (precision, j)


@pytest.mark.parametrize("precision", [53, 128, 256])
@pytest.mark.parametrize("seed, alpha", [(0, 192), (1, 180), (2, 144), (3, 96)])
def test_construction_x_is_the_slope_evaluator_bit_for_bit(seed, alpha, precision):
    # build_lower sums the slopes it has so far; the coding build-g writes
    # must reproduce every x it used, read back through lower_value.
    for spec in (GoldbachSpec(alpha=alpha, seed=seed),
                 GoldbachSpec(alpha=alpha, scalar_u=Fraction(11 + seed, 10), seed=seed)):
        cc = build_goldbach(spec, precision)
        assert sorted(cc.x) == list(range(4, alpha - 4))
        coding = cc.prime_coding
        for j, value in cc.x.items():
            expected = lower_value(coding, j)
            assert mantissa_pair(value) == mantissa_pair(expected), (spec, j)


def test_construction_and_float_points_build_no_region_set():
    enumerate_regions.cache_clear()
    lower_essential_poly.cache_clear()
    build_goldbach(GoldbachSpec(alpha=120, seed=5))
    scalar_limit_sweep(60, [Fraction(11, 10), Fraction(101, 100)])
    c = PrimeCoding(slopes=seeded_coding(200, 41).slopes, mode=MODE_FLOAT, precision=96)
    essential_points(c, 200)
    assert enumerate_regions.cache_info().misses == 0
    assert lower_essential_poly.cache_info().misses == 0


def test_scalar_family_formulas():
    u = Fraction(3, 2)
    spec = GoldbachSpec(alpha=18, xi2_sq=1, scalar_u=u)
    lower = build_lower(spec)
    uf = to_mpf(u)
    with mp.workprec(128):
        assert rel_diff(lower.x[6], uf - mpf(1) / 2) < 1e-25
        assert rel_diff(lower.x[8], uf ** 2 - mpf(1) / 2) < 1e-25
        assert rel_diff(lower.x[9], mpf(3) / 2 * uf ** 2 - uf) < 1e-25
        assert rel_diff(lower.x[10], uf ** 3 - uf + uf ** 2 / 2) < 1e-25
        assert rel_diff(lower.xi_sq[6], (2 * uf - 1) * uf ** 6) < 1e-25


def test_scalar_xi6_limit():
    # xi_6^2 -> xi_2^2 as u -> 1+.
    values = []
    for m in (1, 2, 3, 4):
        u = 1 + Fraction(1, 10 ** m)
        lower = build_lower(GoldbachSpec(alpha=18, xi2_sq=1, scalar_u=u))
        values.append(abs(mpf(lower.xi_sq[6]) - 1))
    assert all(a > b for a, b in zip(values, values[1:]))


def test_scalar_limit_sweep_alpha18():
    u_list = [1 + Fraction(1, 10 ** m) for m in range(1, 7)]
    result = scalar_limit_sweep(18, u_list, xi2_sq=1)
    assert result.monotone
    assert result.final_below
    assert result.converged
    assert result.max_deviation[-1] <= mpf(10) ** -4
    # First-order behaviour: deviation / h stays bounded.
    slopes = [
        float(dev) / 10 ** -(m + 1)
        for m, dev in enumerate(result.max_deviation)
    ]
    assert max(slopes) < 20


def test_scalar_limit_sweep_validation():
    with pytest.raises(DomainError):
        scalar_limit_sweep(18, [Fraction(1, 2)])


def test_build_determinism():
    a = build_goldbach(GoldbachSpec(alpha=24, seed=42))
    b = build_goldbach(GoldbachSpec(alpha=24, seed=42))
    assert all(a.xi_sq[i] == b.xi_sq[i] for i in a.xi_sq)
    c = build_goldbach(GoldbachSpec(alpha=24, seed=43))
    assert any(a.xi_sq[i] != c.xi_sq[i] for i in a.xi_sq)


def test_provenance_tags():
    cc = build_goldbach(GoldbachSpec(alpha=24, seed=1))
    alpha = 24
    for i in range(6, alpha // 2):
        expected = "random-prime-choice" if is_prime(i) else "forced-composite-ratio"
        assert cc.provenance[i] == expected
    for k0 in range(5, alpha // 2):
        expected = "forced-prime-junction" if is_prime(k0) else "forced-upper-ratio"
        assert cc.provenance[alpha - k0] == expected


def test_replace_rebuilds_the_prime_coding():
    cc = build_goldbach(GoldbachSpec(alpha=18, seed=4))
    old = cc.prime_coding
    with mp.workprec(cc.precision):
        xi = {i: 2 * mpf(v) for i, v in cc.xi.items()}
    changed = cc.replace(xi=xi)
    assert cc.prime_coding is old
    with mp.workprec(cc.precision):
        assert changed.prime_coding.slopes[:-1] == tuple(2 * mpf(s) for s in old.slopes[:-1])


def test_prime_coding_shape():
    cc = build_goldbach(GoldbachSpec(alpha=18, seed=4))
    pc = cc.prime_coding
    assert pc.max_index == 14  # alpha - 4
    head = pc.slopes[:9]
    assert all(a < b for a, b in zip(head, head[1:]))


# --- The pair paths against their value oracles ---------------------------------
# Every window-set alpha <= 600 runs at each precision, under one of three
# seeds or the scalar family in turn.

_WINDOW_ALPHAS = [a for a in range(16, 601, 2) if is_in_N(a)]


def _differential_specs():
    for i, alpha in enumerate(_WINDOW_ALPHAS):
        kind = i % 4
        if kind < 3:
            yield GoldbachSpec(alpha=alpha, seed=kind)
        else:
            yield GoldbachSpec(alpha=alpha, xi2_sq=Fraction(7, 3), scalar_u=Fraction(21, 20))


@pytest.mark.parametrize("precision", [53, 128, 256])
def test_prime_coding_is_the_coding_of_its_slopes(precision):
    # prime_coding reads mantissa pairs as ints over one power of two; the
    # oracle rounds the same slopes as mpf values and hands them to the
    # constructor, which rounds each through its Fraction.
    for spec in _differential_specs():
        cc = build_goldbach(spec, precision)
        alpha = spec.alpha
        with mp.workprec(precision):
            xi2 = mpf(cc.xi[2])
            slopes = (xi2 / 3, 2 * xi2 / 3, *(cc.xi[i] for i in range(2, alpha - 4)),
                      mpf(cc.xi[alpha - 5]) + 1)
        oracle = PrimeCoding(slopes=slopes, mode=MODE_FLOAT, precision=precision)
        assert cc.prime_coding == oracle, spec
        assert cc.prime_coding.scaled_slopes == oracle.scaled_slopes, spec


@pytest.mark.parametrize("precision", [53, 128, 256])
def test_scalar_sweep_max_deviation_is_the_max_of_its_deviations(precision):
    # The sweep compares deviations as pairs; the oracle takes the max of
    # |x - xi2_sq/2| over the rows, each difference an mpf at the precision.
    u_list = [Fraction(11, 10), Fraction(101, 100), Fraction(1001, 1000)]
    for i, alpha in enumerate(_WINDOW_ALPHAS[::4]):
        xi2_sq = Fraction(7, 3) if i % 2 else 1
        result = scalar_limit_sweep(alpha, u_list, xi2_sq=xi2_sq, precision=precision)
        with mp.workprec(precision):
            half = to_mpf(xi2_sq, precision) / 2
            oracle = [max(abs(mpf(v) - half) for r in result.rows if r.u == u
                          for v in (r.x_k0, -r.y_k0))
                      for u in sorted(u_list, reverse=True)]
        assert [mantissa_pair(d) for d in result.max_deviation] == \
            [mantissa_pair(d) for d in oracle], (alpha, xi2_sq)
