"""Invariants of the type-B2 Bessel layer: series, integrals, Dunkl algebra."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sps

from jackb2.bessel import (
    Multiplicity,
    OrderResolutionError,
    PoleError,
    Poly2,
    _denominator_table,
    bessel_b2_double_integral,
    bessel_b2_series,
    bessel_b2_series_trunc,
    bessel_i_norm,
    bessel_product_identity,
    bessel_rotation_symmetry,
    check_rotation_intertwining,
    dunkl_apply,
    hyp0f1_single_integral,
    hyp0f1_two,
    limit_transition,
    resolve_double_integral_order,
    verify_derived_route,
    verify_limit_transition,
    verify_series_vs_double_integral,
    verify_single_integral,
)
from jackb2.jack import jack_p_two_var
from jackb2.partitions import gen_pochhammer, hook_product_h, partitions_of_weight
from jackb2.product import eigen_split
from jackb2.quadrature import gauss_jacobi_rule, normalization_c

KAPPAS = (Multiplicity(Fraction(1), Fraction(1)),
          Multiplicity(Fraction(4, 5), Fraction(13, 10)),
          Multiplicity(Fraction(1, 2), Fraction(1, 2)))

DUNKL_KAPPAS = (Multiplicity(Fraction(1), Fraction(1)),
                Multiplicity(Fraction(1, 2), Fraction(3, 2)),
                Multiplicity(Fraction(2), Fraction(1, 3)))


def monomials_up_to(degree):
    for d in range(degree + 1):
        for i in range(d + 1):
            yield Poly2({(i, d - i): Fraction(1)})


class TestNormalizedBessel:
    def test_against_scipy(self):
        # Independent oracle: 𝓘_nu(t) = Gamma(nu+1) (2/t)^nu I_nu(t).
        for nu in (0.0, 0.5, 1.0, 2.4):
            for t in (0.1, 1.0, 3.0, 7.5):
                mine = bessel_i_norm(nu, t)
                oracle = sps.gamma(nu + 1) * (2.0 / t) ** nu * sps.iv(nu, t)
                assert mine == pytest.approx(oracle, rel=1e-13)

    def test_value_at_zero_and_evenness(self):
        assert bessel_i_norm(1.7, 0.0) == 1.0
        assert bessel_i_norm(1.7, 2.0) == bessel_i_norm(1.7, -2.0)

    def test_half_order_is_cosh_family(self):
        # nu = -1/2 gives cosh(t).
        for t in (0.3, 1.0, 2.5):
            assert bessel_i_norm(-0.5, t) == pytest.approx(math.cosh(t), rel=1e-14)

    def test_ode_residual(self):
        # t f'' + (2 nu + 1) f' - t f = 0 with derivatives taken from the
        # term-wise differentiated series.
        def derivatives(nu, t, terms=80):
            f = fp = fpp = 0.0
            for m in range(terms):
                c = (0.25 ** m / (math.factorial(m)
                     * float(sps.poch(nu + 1.0, m))))
                f += c * t ** (2 * m)
                if m >= 1:
                    fp += c * 2 * m * t ** (2 * m - 1)
                    fpp += c * 2 * m * (2 * m - 1) * t ** (2 * m - 2)
            return f, fp, fpp

        for nu in (0.0, 0.5, 1.9):
            for t in (0.2, 1.0, 2.0):
                value = bessel_i_norm(nu, t)
                f, fp, fpp = derivatives(nu, t)
                assert value == pytest.approx(f, rel=1e-14)
                residual = t * fpp + (2 * nu + 1) * fp - t * value
                assert abs(residual) <= 1e-10 * max(1.0, abs(value))

    def test_array_path_matches_scalar(self):
        nu = 1.3
        ts = np.array([0.0, 0.4, 1.1, 5.0])
        arr = bessel_i_norm(nu, ts)
        assert arr == pytest.approx([bessel_i_norm(nu, float(t)) for t in ts], rel=1e-15)

    def test_overflow_and_nonfinite_raise(self):
        assert math.isfinite(bessel_i_norm(0.5, 700.0))
        with pytest.raises(ValueError):
            bessel_i_norm(0.5, 750.0)
        with pytest.raises(ValueError):
            bessel_i_norm(0.5, np.array([1.0, 750.0]))
        with pytest.raises(ValueError):
            bessel_i_norm(0.5, math.nan)
        with pytest.raises(ValueError):
            bessel_i_norm(0.5, np.array([1.0, math.nan]))


class TestSeries:
    def test_normalization_at_zero(self):
        for kappa in KAPPAS:
            assert bessel_b2_series(kappa, (0.0, 0.0), (1.0, 2.0)) == 1.0

    def test_symmetric_in_arguments(self):
        kappa = KAPPAS[0]
        a = bessel_b2_series(kappa, (0.4, 0.7), (0.2, 0.6))
        b = bessel_b2_series(kappa, (0.2, 0.6), (0.4, 0.7))
        assert a == pytest.approx(b, rel=1e-15)

    def test_even_in_each_component(self):
        kappa = KAPPAS[1]
        base = bessel_b2_series(kappa, (0.4, 0.7), (0.2, 0.6))
        assert bessel_b2_series(kappa, (-0.4, 0.7), (0.2, -0.6)) == pytest.approx(base, rel=1e-15)

    def test_truncation_estimate_monotone(self):
        kappa = KAPPAS[0]
        x, y = (0.9, 0.5), (0.8, 1.0)
        estimates = [bessel_b2_series_trunc(kappa, x, y, max_degree=d)[1]
                     for d in (4, 8, 12, 16, 20)]
        assert all(b < a for a, b in zip(estimates, estimates[1:]))

    def test_pole_error_when_term_does_not_vanish(self):
        with pytest.raises(PoleError):
            hyp0f1_two(Fraction(1), Fraction(1), (0.5, 0.3), (0.7, 0.2), 6)

    def test_float_series_past_the_range_is_a_usage_error(self):
        # The float closed-form row (2k)_m / (k)_m is inf from m = 170 on.
        with pytest.raises(ValueError, match="max_degree=170 .*double-integral"):
            hyp0f1_two(2.5, 1.0, (0.125, 0.045), (0.245, 0.02), 170)
        # A power of the closed form overflows at large arguments.
        with pytest.raises(ValueError, match="max_degree=160 .*double-integral"):
            bessel_b2_series(KAPPAS[0], (30.0, 20.0), (30.0, 20.0), 160)

    def test_vanishing_numerator_shields_the_pole(self):
        # Second argument (1, 0) kills every two-row term, so the would-be
        # pole at mu = k = 1 is removable and the series reduces to one row.
        value, _ = hyp0f1_two(Fraction(1), Fraction(1), (0.5, 0.3), (1.0, 0.0), 30)
        assert math.isfinite(value) and value > 1


def _per_term_hyp0f1_two(mu_order, k, x, y, max_degree):
    """The series as it was summed before the denominator table: every term
    recomputed from gen_pochhammer, hook_product_h and jack_p_two_var."""
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    x1, x2 = (float(v) for v in x)
    y1, y2 = (float(v) for v in y)
    terms = []
    top_layer = 0.0
    for d in range(max_degree + 1):
        layer = []
        for lam in partitions_of_weight(d, 2):
            num = float(jack_p_two_var(lam, k, x1, x2)) \
                * float(jack_p_two_var(lam, k, y1, y2))
            if num == 0.0:
                continue
            poch = float(gen_pochhammer(mu_order, lam, k, 2))
            if poch == 0.0:
                raise PoleError(
                    f"Pochhammer factor vanishes for {lam} at order {mu_order}")
            denom = poch * float(hook_product_h(lam, k)) \
                * float(jack_p_two_var(lam, k, 1, 1))
            layer.append(num / denom)
        terms.extend(layer)
        top_layer = math.fsum(abs(v) for v in layer)
    return math.fsum(terms), top_layer


# (mu, k) pairs; the first has mu = k, where (mu - k)_ell vanishes.
TABLE_PAIRS = ((Fraction(1), Fraction(1)), (Fraction(5, 2), Fraction(1)),
               (Fraction(3, 2), Fraction(1, 2)), (Fraction(12, 5), Fraction(2)),
               (Fraction(53, 24), Fraction(13, 10)), (2, 3), (Fraction(7, 3), Fraction(1, 8)))


class TestDenominatorTable:
    @pytest.mark.parametrize("mu, k", TABLE_PAIRS)
    def test_entries_match_the_general_routines(self, mu, k):
        pochs, denoms = _denominator_table(mu, k, 40)
        lams = [lam for d in range(41) for lam in partitions_of_weight(d, 2)]
        assert len(pochs) == len(denoms) == len(lams)
        for lam, poch, denom in zip(lams, pochs, denoms):
            exact_poch = float(gen_pochhammer(mu, lam, k, 2))
            assert poch == exact_poch, lam
            assert denom == exact_poch * float(hook_product_h(lam, k)) \
                * float(jack_p_two_var(lam, k, 1, 1)), lam

    def test_zero_pochhammer_factor_when_mu_equals_k(self):
        pochs, _ = _denominator_table(Fraction(1), Fraction(1), 4)
        lams = [lam for d in range(5) for lam in partitions_of_weight(d, 2)]
        assert [lam for lam, p in zip(lams, pochs) if p == 0.0] == [
            lam for lam in lams if len(lam) == 2]

    def test_denominator_past_the_float_range_is_a_usage_error(self):
        # mu = 5/2, k = 1 is kappa = (1, 1): the exact table's (mu)_(m+ell)
        # fits a float through degree 169, the float table's m! through 170.
        for mu, k, top in ((Fraction(5, 2), Fraction(1), 169), (2.5, 1.0, 170)):
            pochs, _ = _denominator_table(mu, k, top)
            assert len(pochs) == len([lam for d in range(top + 1)
                                      for lam in partitions_of_weight(d, 2)])
            with pytest.raises(ValueError, match=rf"max_degree={top + 1} .*float range"):
                _denominator_table(mu, k, top + 1)
        with pytest.raises(ValueError, match="max_degree=200"):
            hyp0f1_two(Fraction(5, 2), Fraction(1), (0.125, 0.045), (0.245, 0.02), 200)

    def test_exact_and_float_arguments_get_their_own_entries(self):
        # Fraction(13, 8) == 1.625 and hash(Fraction(13, 8)) == hash(1.625).
        before = _denominator_table.cache_info()
        exact = _denominator_table(Fraction(13, 8), Fraction(3, 8), 7)
        inexact = _denominator_table(1.625, 0.375, 7)
        assert exact is not inexact
        assert exact is _denominator_table(Fraction(13, 8), Fraction(3, 8), 7)
        assert inexact is _denominator_table(1.625, 0.375, 7)
        assert _denominator_table.cache_info().hits - before.hits == 2


class TestSeriesAgainstPerTermLoop:
    @staticmethod
    def _points(seed, count):
        rng = np.random.default_rng(seed)
        return [(tuple(rng.uniform(0.0, 2.5, size=2)), tuple(rng.uniform(0.0, 2.5, size=2)))
                for _ in range(count)]

    @pytest.mark.parametrize("seed, mu, k",
                             [(11 + i, *pair) for i, pair in enumerate(TABLE_PAIRS[1:5])])
    def test_exact_parameter_is_bit_equal(self, seed, mu, k):
        # Six seeded points per pair, 24 in all, then a second argument that
        # kills every two-row term and a first argument at the origin.
        points = self._points(seed, 6) + [((0.5, 0.3), (1.0, 0.0)), ((0.0, 0.0), (1.0, 2.0))]
        for x, y in points:
            for degree in (0, 7, 24):
                assert hyp0f1_two(mu, k, x, y, degree) == \
                    _per_term_hyp0f1_two(mu, k, x, y, degree), (x, y, degree)

    @pytest.mark.parametrize("mu, k", ((2.5, 1.0), (1.3, 0.35), (4.75, 2.2)))
    def test_float_parameter_agrees(self, mu, k):
        for x, y in self._points(21, 4):
            value, top = hyp0f1_two(mu, k, x, y, 30)
            ref_value, ref_top = _per_term_hyp0f1_two(mu, k, x, y, 30)
            assert value == pytest.approx(ref_value, rel=1e-14, abs=0)
            assert top == pytest.approx(ref_top, rel=1e-14, abs=0)

    def test_pole_raised_where_the_loop_raises(self):
        for fn in (hyp0f1_two, _per_term_hyp0f1_two):
            with pytest.raises(PoleError, match=r"Partition\(\(1, 1\)\) at order 1"):
                fn(Fraction(1), Fraction(1), (0.5, 0.3), (0.7, 0.2), 6)


class TestSingleIntegral:
    @pytest.mark.parametrize("mu", (Fraction(1), Fraction(3, 2), Fraction(12, 5)))
    @pytest.mark.parametrize("k", (Fraction(1, 2), Fraction(1), Fraction(2)))
    def test_matches_series(self, mu, k):
        for x in ((0.0, 0.0), (1.0, 0.0), (0.5, 0.5), (1.0, 1.0), (0.3, 0.9)):
            series, _ = hyp0f1_two(mu, k, x, (1.0, 0.0), 40)
            integral = hyp0f1_single_integral(mu, k, x, npoints=64)
            assert integral == pytest.approx(series, rel=1e-11)

    def test_report_compares_series_with_integral(self):
        mu, k, x = Fraction(3, 2), Fraction(1), (0.3, 0.9)
        rep = verify_single_integral(mu, k, x, npoints=64, max_degree=40, tol=1e-9)
        assert rep.lhs == hyp0f1_two(mu, k, x, (1.0, 0.0), 40)[0]
        assert rep.rhs == hyp0f1_single_integral(mu, k, x, 64)
        assert rep.passed
        doc = rep.to_json()
        assert (doc["identity"], doc["mu"], doc["k"], doc["x"]) == (
            "single-integral", "3/2", "1", [0.3, 0.9])

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            hyp0f1_single_integral(Fraction(3, 2), Fraction(1), (-0.1, 0.5))
        # Non-finite arguments are rejected by the same check.
        kappa = KAPPAS[0]
        for bad in ((math.nan, 0.5), (0.5, math.inf)):
            with pytest.raises(ValueError):
                hyp0f1_single_integral(Fraction(3, 2), Fraction(1), bad)
            with pytest.raises(ValueError):
                bessel_b2_double_integral(kappa, bad, (0.3, 0.2), order=1.5)
            with pytest.raises(ValueError):
                bessel_b2_double_integral(kappa, (0.3, 0.2), bad, order=1.5)

    def test_consistent_with_b2_series_on_axis_family(self):
        # J^kappa(x, (sqrt2, 0)) has second 0F1 argument (1, 0), landing in
        # the single-integral sub-family.
        kappa = KAPPAS[1]
        x = (0.6, 0.2)
        series = bessel_b2_series(kappa, x, (math.sqrt(2.0), 0.0))
        integral = hyp0f1_single_integral(
            kappa.order_mu, kappa.kappa2, (0.5 * x[0] ** 2, 0.5 * x[1] ** 2))
        assert integral == pytest.approx(series, rel=1e-12)


class TestDoubleIntegral:
    def test_resolved_order_is_shared_and_offset_minus_one(self):
        offsets = set()
        for kappa in KAPPAS:
            order = resolve_double_integral_order(kappa)
            offsets.add(round(float(order - kappa.order_mu)))
        assert offsets == {-1}

    def test_matches_series_on_seeded_grid(self):
        rng = np.random.default_rng(42)
        for kappa in KAPPAS:
            for _ in range(3):
                x = tuple(rng.uniform(0.1, 0.8, size=2))
                y = tuple(rng.uniform(0.1, 0.8, size=2))
                series = bessel_b2_series(kappa, x, y)
                integral = bessel_b2_double_integral(kappa, x, y)
                assert integral == pytest.approx(series, rel=1e-9)

    def test_report_at_resolved_order(self):
        kappa = KAPPAS[1]
        x, y = (0.4, 0.2), (0.6, 0.3)
        order = resolve_double_integral_order(kappa)
        rep = verify_series_vs_double_integral(kappa, x, y, order)
        assert rep.lhs == bessel_b2_series(kappa, x, y)
        assert rep.rhs == bessel_b2_double_integral(kappa, x, y, order=order)
        assert rep.passed
        assert rep.to_json()["resolved_order"] == float(order)

    def test_explicit_order_override(self):
        kappa = KAPPAS[0]
        x = y = (0.5, 0.25)
        series = bessel_b2_series(kappa, x, y)
        good = bessel_b2_double_integral(kappa, x, y, order=kappa.order_mu - 1)
        bad = bessel_b2_double_integral(kappa, x, y, order=kappa.order_mu)
        assert good == pytest.approx(series, rel=1e-9)
        assert abs(bad - series) > 1e-4 * abs(series)

    def test_resolution_failure_raises(self):
        with pytest.raises(OrderResolutionError):
            resolve_double_integral_order(Multiplicity(Fraction(1), Fraction(1)), npoints=1)

    def test_value_at_zero(self):
        kappa = KAPPAS[2]
        assert bessel_b2_double_integral(kappa, (0.0, 0.0), (0.7, 0.3)) == pytest.approx(1.0, rel=1e-12)


# Multiplicities of the derivation tests; the last is where step B is least
# accurate (2.5e-14 measured).
DERIVATION_KAPPAS = KAPPAS + (Multiplicity(Fraction(2), Fraction(1, 3)),
                              Multiplicity(Fraction(1, 8), Fraction(3, 2)))


def _j1(kappa, big, small):
    """J1(X) = 0F1(mu; X, (1, 1)) with Jack parameter kappa2, by its series."""
    return hyp0f1_two(kappa.order_mu, kappa.kappa2, (big, small), (1.0, 1.0), 40)[0]


class TestDerivedRoute:
    """The double integral as the product formula composed with one integral."""

    @pytest.mark.parametrize("kappa", DERIVATION_KAPPAS, ids=str)
    def test_step_a_product_identity_in_u(self, kappa):
        rng = np.random.default_rng(3)
        for _ in range(3):
            xs = tuple(0.5 * v * v for v in rng.uniform(0.1, 0.8, size=2))
            ys = tuple(0.5 * v * v for v in rng.uniform(0.1, 0.8, size=2))
            series, _ = hyp0f1_two(kappa.order_mu, kappa.kappa2, xs, ys, 40)
            for npoints in (8, 16, 24):
                rule = gauss_jacobi_rule(npoints, kappa.kappa2)
                splits = [eigen_split(xs, ys, u) for u in rule.nodes]
                route = normalization_c(kappa.kappa2) * math.fsum(
                    w * _j1(kappa, sp.x1_big, sp.x2_small)
                    for sp, w in zip(splits, rule.weights))
                assert abs(route - series) <= 1e-13 * series

    @pytest.mark.parametrize("kappa", DERIVATION_KAPPAS, ids=str)
    def test_step_b_one_integral_in_v(self, kappa):
        rng = np.random.default_rng(4)
        rule = gauss_jacobi_rule(64, kappa.kappa1)
        nu = float(kappa.order_mu) - 1.0
        for _ in range(4):
            small, big = sorted(rng.uniform(0.05, 0.6, size=2))
            args = 2.0 * np.sqrt(big + small + 2.0 * rule.nodes * math.sqrt(big * small))
            route = normalization_c(kappa.kappa1) * float(rule.weights @ bessel_i_norm(nu, args))
            series = _j1(kappa, big, small)
            assert abs(route - series) <= 1e-13 * series

    def test_default_order_is_the_derived_one(self):
        # Forty fresh seeded multiplicities, p/q with p <= 24 and q <= 8.
        rng = np.random.default_rng(40)
        kappas = set()
        while len(kappas) < 40:
            kappas.add(tuple(Fraction(int(p), int(q)) for p, q in
                             zip(rng.integers(1, 25, size=2), rng.integers(1, 9, size=2))))
        for pair in sorted(kappas):
            kappa = Multiplicity(*pair)
            derived = float(kappa.order_mu) - 1.0
            x, y = tuple(rng.uniform(0.1, 5.0, size=2)), tuple(rng.uniform(0.1, 5.0, size=2))
            assert bessel_b2_double_integral(kappa, x, y) == \
                bessel_b2_double_integral(kappa, x, y, order=derived), pair
            assert resolve_double_integral_order(kappa) == derived, pair

    def test_default_call_does_not_resolve(self):
        kappa = Multiplicity(Fraction(17, 7), Fraction(5, 3))
        before = resolve_double_integral_order.cache_info()
        bessel_b2_double_integral(kappa, (0.4, 0.2), (0.6, 0.3))
        after = resolve_double_integral_order.cache_info()
        assert (after.misses, after.hits) == (before.misses, before.hits)

    def test_report(self):
        kappa = DERIVATION_KAPPAS[-1]
        x, y = (0.4, 0.2), (0.6, 0.3)
        rep = verify_derived_route(kappa, x, y)
        assert rep.lhs == bessel_b2_series(kappa, x, y)
        assert rep.rhs == pytest.approx(bessel_b2_double_integral(kappa, x, y), rel=1e-13)
        assert rep.passed and rep.rel_err <= 1e-13
        doc = rep.to_json()
        assert (doc["identity"], doc["kappa"], doc["order"], doc["nodes"]) == (
            "b2-derivation", ["1/8", "3/2"], 1.125, 64)
        assert not verify_derived_route(kappa, x, y, npoints=1).passed
        with pytest.raises(ValueError):
            verify_derived_route(kappa, (math.nan, 0.2), y)


class TestRotationSymmetry:
    def test_series_invariance(self):
        rng = np.random.default_rng(11)
        for kappa in KAPPAS:
            x = tuple(rng.uniform(0.1, 0.8, size=2))
            y = tuple(rng.uniform(0.1, 0.8, size=2))
            report = bessel_rotation_symmetry(kappa, x, y)
            assert report.passed, report.to_json()

    def test_intertwining_exact_through_degree_six(self):
        for kappa in DUNKL_KAPPAS:
            for p in monomials_up_to(6):
                assert check_rotation_intertwining(p, kappa)


class TestDunklOperators:
    def test_lower_degree_by_one(self):
        kappa = DUNKL_KAPPAS[0]
        p = Poly2({(3, 2): Fraction(1)})
        for direction in (1, 2):
            image = dunkl_apply(p, kappa, direction)
            assert all(i + j == 4 for i, j in image.coeffs)

    def test_kill_constants(self):
        kappa = DUNKL_KAPPAS[1]
        one = Poly2({(0, 0): Fraction(1)})
        for direction in (1, 2):
            assert dunkl_apply(one, kappa, direction).coeffs == {}

    def test_plain_derivative_at_zero_multiplicity_limit(self):
        # On symmetric-even polynomials the reflection terms cancel pairwise;
        # x1^2 + x2^2 maps to 2 x1 + (reflection corrections that vanish).
        kappa = DUNKL_KAPPAS[0]
        p = Poly2({(2, 0): Fraction(1), (0, 2): Fraction(1)})
        image = dunkl_apply(p, kappa, 1)
        assert image.coeffs == {(1, 0): Fraction(2)}

    def test_commutativity(self):
        for kappa in DUNKL_KAPPAS:
            for p in monomials_up_to(6):
                forward = dunkl_apply(dunkl_apply(p, kappa, 1), kappa, 2)
                backward = dunkl_apply(dunkl_apply(p, kappa, 2), kappa, 1)
                assert (forward - backward).coeffs == {}

    def test_laplacian_of_radial_square(self):
        # (T1^2 + T2^2) applied to x1^2 + x2^2 is the constant
        # 4 + 8 kappa1 + 8 kappa2 = 8 mu.
        for kappa in DUNKL_KAPPAS:
            p = Poly2({(2, 0): Fraction(1), (0, 2): Fraction(1)})
            total = Poly2({})
            for direction in (1, 2):
                total = total + dunkl_apply(dunkl_apply(p, kappa, direction), kappa, direction)
            assert total.coeffs == {(0, 0): 8 * kappa.order_mu}


class TestPoly2:
    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            Poly2({(-1, 0): Fraction(1)})

    def test_synthetic_division_round_trip(self):
        p = Poly2({(3, 1): Fraction(2), (1, 3): Fraction(-2)})  # divisible by x1 - x2
        q = p.div_linear(+1)
        # multiply back: (x1 - x2) * q recovers p
        back = Poly2({})
        for (i, j), c in q.coeffs.items():
            back = back + Poly2({(i + 1, j): c}) + Poly2({(i, j + 1): -c})
        assert back.coeffs == p.coeffs

    def test_division_remainder_raises(self):
        with pytest.raises(ArithmeticError):
            Poly2({(2, 0): Fraction(1)}).div_linear(+1)

    def test_reflections(self):
        p = Poly2({(2, 1): Fraction(1)})
        assert p.reflect(1).coeffs == {(2, 1): Fraction(1)}
        assert Poly2({(1, 2): Fraction(1)}).reflect(1).coeffs == {(1, 2): Fraction(-1)}
        assert p.swap().coeffs == {(1, 2): Fraction(1)}
        assert p.neg_swap().coeffs == {(1, 2): Fraction(-1)}


class TestClassicalProduct:
    @pytest.mark.parametrize("k", (Fraction(1, 2), Fraction(1), Fraction(3, 2)))
    def test_grid(self, k):
        for x in (0.0, 0.5, 1.0, 2.0, 5.0):
            for y in (0.0, 0.5, 1.0, 2.0, 5.0):
                report = bessel_product_identity(k, x, y)
                assert report.passed, report.to_json()

    def test_zero_second_argument_exact_to_rounding(self):
        # At y = 0 the integrand is constant, so the identity reduces to
        # c(k) * mass = 1 and holds to a few ulps.
        report = bessel_product_identity(Fraction(1), 1.5, 0.0)
        assert report.rel_err <= 5e-16


class TestLimitTransition:
    def test_value_at_zero_argument(self):
        assert limit_transition(Fraction(1, 2), 0.0, 8) == pytest.approx(1.0)

    def test_monotone_error_decay_to_bessel_limit(self):
        # The limit of the normalized ratio at parameter k is the normalized
        # Bessel function of order k - 1/2; at k = 1/2 that is the classical
        # modified Bessel function I_0 (not cosh, which is order -1/2).
        target = bessel_i_norm(0.0, 1.0)
        assert target == pytest.approx(
            math.fsum((0.25 ** m) / math.factorial(m) ** 2 for m in range(25)))
        errors = [abs(limit_transition(Fraction(1, 2), 1.0, ell) - target)
                  for ell in (8, 16, 32, 64)]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 0.05

    def test_requires_large_index(self):
        with pytest.raises(ValueError):
            limit_transition(Fraction(1), 9.0, 8)

    def test_report_checks_the_rate(self):
        rep = verify_limit_transition(Fraction(1, 2), 1.0)
        errors = rep.context["errors"]
        assert rep.passed
        assert rep.lhs == bessel_i_norm(0.0, 1.0)
        assert rep.rhs == limit_transition(Fraction(1, 2), 1.0, 64)
        assert rep.abs_err == errors[-1]
        assert rep.context["ratios"] == [b / a for a, b in zip(errors, errors[1:])]
        assert list(rep.to_json())[:6] == ["identity", "k", "x", "ells", "errors", "ratios"]
