"""Invariants of the type-B2 Bessel layer: series, integrals, Dunkl algebra."""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from jackb2.bessel import (
    Multiplicity,
    OrderResolutionError,
    PoleError,
    Poly2,
    _denominator_table,
    _dunkl_parts,
    _rotation_defect,
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
from jackb2.cli import INTERTWINING_KAPPAS
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
    def test_against_mpmath(self):
        # Independent oracle: 𝓘_nu(t) = Gamma(nu+1) (2/t)^nu I_nu(t).
        with mpmath.workdps(50):
            for nu in (0.0, 0.5, 1.0, 2.4):
                for t in (0.1, 1.0, 3.0, 7.5):
                    mine = bessel_i_norm(nu, t)
                    oracle = float(mpmath.gamma(nu + 1) * (2 / mpmath.mpf(t)) ** nu
                                   * mpmath.besseli(nu, t))
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
                with mpmath.workdps(50):
                    poch = float(mpmath.rf(nu + 1.0, m))
                c = 0.25 ** m / (math.factorial(m) * poch)
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

    @pytest.mark.parametrize("nu, t, expected", [(1e4, 5044.0, 1.2301185985583630e268),
                                                 (1.2e5, 18400.0, 2.670438327433422e305)])
    def test_terms_peaking_past_six_hundred(self, nu, t, expected):
        # The terms peak where m (nu + m) = t^2 / 4: near m = 600 and m = 700,
        # and the second sum stops near m = 940, close to the float limit.
        with mpmath.workdps(50):
            oracle = float(mpmath.hyp0f1(nu + 1, mpmath.mpf(t) ** 2 / 4))
        assert oracle == pytest.approx(expected, rel=1e-15)
        for value in (bessel_i_norm(nu, t), bessel_i_norm(nu, np.array([t, 1.0]))[0]):
            assert value == pytest.approx(oracle, rel=1e-14)
        # A non-finite neighbour fails as non-finite.
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="not finite"):
                bessel_i_norm(nu, np.array([t, bad]))

    def test_huge_orders(self):
        # Orders whose square overflows a float; the sum stops at its first term.
        for nu in (1e200, math.inf):
            assert bessel_i_norm(nu, 1.0) == 1.0
            assert np.array_equal(bessel_i_norm(nu, np.array([1.0, 3.0])), [1.0, 1.0])

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


def _per_term_i_norm(nu, t):
    """Oracle: the array sum of bessel_i_norm with its stop test after every term."""
    nu = float(nu)
    with np.errstate(over="ignore"):
        q = np.square(t) * 0.25
        term = np.ones_like(q)
        total = np.ones_like(q)
        for m in range(1, 600):
            term = term * q / (m * (nu + m))
            total += term
            if not np.any(term > 1e-17 * total):
                if not np.all(np.isfinite(total)):
                    raise ValueError("an argument is not finite or its value overflows")
                return total
    raise ArithmeticError("series did not converge in 600 terms")


I_NORM_ORDERS = (-0.9, -0.5, 0.0, 0.5, 10.0, 200.0)
# Every value fits a float up to t = 700, but at nu = -0.9 the sum stops
# with an overflow of the partial product term * q from t = 698.3.
I_NORM_FIXED = (0.0, 1e-300, 1e-150, 1e-8, 1e-3, 0.1, 1.0, 5.0, 30.0, 100.0, 300.0, 690.0)


class TestINormArrayAgainstPerTermStop:
    @staticmethod
    def _grids(seed):
        """The fixed arguments, then seeded grids: uniform on [0, 690], on a
        log scale over [1e-300, 690], and a 2-D grid as the double integral makes."""
        rng = np.random.default_rng(seed)
        return [np.array(I_NORM_FIXED), rng.uniform(0.0, 690.0, size=40),
                np.exp(rng.uniform(math.log(1e-300), math.log(690.0), size=40)),
                rng.uniform(0.0, 8.0, size=(16, 16)), np.array([2.5])]

    @pytest.mark.parametrize("nu", I_NORM_ORDERS)
    @pytest.mark.parametrize("seed", (3, 4))
    def test_same_bits(self, nu, seed):
        for t in self._grids(seed):
            assert np.array_equal(bessel_i_norm(nu, t), _per_term_i_norm(nu, t)), t

    @pytest.mark.parametrize("nu", I_NORM_ORDERS)
    def test_same_exceptions(self, nu):
        for t in ((1.0, 1e4), (math.nan, 1.0), (math.inf,), (2.0, -math.inf, 1e4)):
            for fn in (bessel_i_norm, _per_term_i_norm):
                with pytest.raises(ValueError, match="not finite or its value overflows"):
                    fn(nu, np.array(t))


class TestINormPastTheProductOverflow:
    # (nu, t) where the partial product term * q overflows but the value
    # fits a float: just past the overflow, between, and near the float limit.
    POINTS = [(-0.9, t) for t in (698.5, 703.0, 706.4)] \
        + [(-0.5, t) for t in (702.5, 706.0, 710.4)] \
        + [(0.5, t) for t in (709.0, 713.0, 717.0)] \
        + [(10.0, t) for t in (750.0, 755.0, 758.3)]

    @staticmethod
    def _oracle(nu, t):
        with mpmath.workdps(50):
            return mpmath.gamma(nu + 1) * (2 / mpmath.mpf(t)) ** nu * mpmath.besseli(nu, t)

    @pytest.mark.parametrize("nu, t", POINTS)
    def test_scalar_and_array_against_mpmath(self, nu, t):
        with pytest.raises(ValueError, match="overflows"):
            _per_term_i_norm(nu, np.array([t]))
        oracle = self._oracle(nu, t)
        for value in (bessel_i_norm(nu, t), *bessel_i_norm(nu, np.array([t, 2.0, t]))[::2]):
            assert math.isfinite(value)
            assert abs(value - oracle) <= 5e-14 * oracle

    def test_past_the_float_range_still_raises(self):
        for nu, t in ((-0.9, 706.5), (-0.5, 710.5), (0.5, 717.1), (0.5, 750.0)):
            with pytest.raises(ValueError, match="overflows"):
                bessel_i_norm(nu, t)
            with pytest.raises(ValueError, match="overflows"):
                bessel_i_norm(nu, np.array([1.0, t]))


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


def _rising_prefix(a, m):
    out = [a * 0 + 1]
    for t in range(m):
        out.append(out[-1] * (a + t))
    return out


def _reduced_table(mu_order, k, max_degree):
    """Oracle: the denominators from reduced prefix products in the arithmetic
    of mu and k (Fractions when exact), each factor floated once."""
    kv = Fraction(k) if isinstance(k, (int, Fraction)) else float(k)
    mu = Fraction(mu_order) if isinstance(mu_order, (int, Fraction)) else float(mu_order)
    rise_mu = _rising_prefix(mu, max_degree)
    rise_mu_k = _rising_prefix(mu - kv, max_degree // 2)
    at_ones = [a / b for a, b in zip(_rising_prefix(2 * kv, max_degree),
                                     _rising_prefix(kv, max_degree))]
    hooks = []
    for m in range(max_degree + 1):
        row = [math.factorial(m)]
        for ell in range(1, (max_degree - m) // 2 + 1):
            row.append(row[-1] * ell * (m + ell + kv))
        hooks.append(row)
    denoms = []
    for d in range(max_degree + 1):
        for ell in range(d // 2 + 1):
            m = d - 2 * ell
            poch = float(rise_mu[m + ell] * rise_mu_k[ell])
            denoms.append(poch * float(hooks[m][ell]) * float(at_ones[m]))
    return tuple(denoms)


def _seeded_table_pairs(seed, count):
    """(mu, k) as the series makes them: mu = kappa1 + kappa2 + 1/2, k = kappa2."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        kappa1, kappa2 = (Fraction(rng.randint(1, 24), rng.randint(1, 8)) for _ in range(2))
        out.append((kappa1 + kappa2 + Fraction(1, 2), kappa2))
    return out


class TestDenominatorTable:
    @pytest.mark.parametrize("mu, k", TABLE_PAIRS)
    def test_entries_match_the_general_routines(self, mu, k):
        denoms = _denominator_table(mu, k, 40)
        lams = [lam for d in range(41) for lam in partitions_of_weight(d, 2)]
        assert len(denoms) == len(lams)
        for lam, denom in zip(lams, denoms):
            assert denom == float(gen_pochhammer(mu, lam, k, 2)) \
                * float(hook_product_h(lam, k)) * float(jack_p_two_var(lam, k, 1, 1)), lam

    @pytest.mark.parametrize("degree, count", [(0, 12), (1, 12), (30, 12), (90, 3)])
    def test_same_tables_as_reduced_prefix_products(self, degree, count):
        # mu = k (vanishing factors) and integer arguments, then seeded pairs.
        for mu, k in (TABLE_PAIRS[0], (2, 3), *_seeded_table_pairs(degree, count)):
            for args in ((mu, k), (float(mu), float(k))):
                assert _denominator_table(*args, degree) == _reduced_table(*args, degree), args

    def test_zero_pochhammer_factor_when_mu_equals_k(self):
        # (mu - k)_ell vanishes for ell >= 1: exactly the two-row partitions.
        denoms = _denominator_table(Fraction(1), Fraction(1), 4)
        lams = [lam for d in range(5) for lam in partitions_of_weight(d, 2)]
        assert [lam for lam, v in zip(lams, denoms) if v == 0.0] == [
            lam for lam in lams if len(lam) == 2]

    def test_denominator_past_the_float_range_is_a_usage_error(self):
        # mu = 5/2, k = 1 is kappa = (1, 1): the exact table's (mu)_(m+ell)
        # fits a float through degree 169, the float table's m! through 170.
        for mu, k, top in ((Fraction(5, 2), Fraction(1), 169), (2.5, 1.0, 170)):
            denoms = _denominator_table(mu, k, top)
            assert len(denoms) == len([lam for d in range(top + 1)
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
            # (k)_4 overflows, so the float P(1,1) of (4,) is inf / inf.
            with pytest.raises(PoleError, match=r"Partition\(\(4,\)\) at order -3.0"):
                fn(-3.0, 1e160, (0.5, 0.2), (0.3, 0.1), 6)

    def test_argument_squared_past_the_float_range_is_named(self):
        # The series takes the halved squares of x and y; past 1.3e154 the
        # square leaves the float range before any term is summed.
        kappa = Multiplicity(1, 1)
        for x, y in (((1e200, 1.0), (1.0, 1.0)), ((1.0, 1.0), (1.0, -2e154))):
            with pytest.raises(ValueError, match="squared is past the float range"):
                bessel_b2_series(kappa, x, y)

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_non_finite_input_is_named_as_such(self, bad):
        # Not the max_degree advice that a series past the float range gets.
        kappa, ok = Multiplicity(1, 1), (0.5, 1.0)
        calls = (lambda: hyp0f1_two(bad, 1, ok, ok, 10),
                 lambda: hyp0f1_two(Fraction(5, 2), bad, ok, ok, 10),
                 lambda: hyp0f1_two(Fraction(5, 2), 1, (bad, 0.5), ok, 10),
                 lambda: hyp0f1_two(Fraction(5, 2), 1, ok, (0.5, bad), 10),
                 lambda: bessel_b2_series(kappa, (bad, 1.0), (1.0, 1.0)),
                 lambda: bessel_b2_series(kappa, (1.0, 1.0), (1.0, bad)),
                 lambda: bessel_rotation_symmetry(kappa, (1.0, bad), (1.0, 1.0)))
        for call in calls:
            with pytest.raises(ValueError, match="must be finite") as info:
                call()
            assert "max_degree" not in str(info.value)


def _exact_series(mu_order, k, x, y, max_degree):
    """The truncated series in exact rationals: (value, the summed magnitude
    of the top degree's terms), every term from the general routines."""
    total = Fraction(0)
    for d in range(max_degree + 1):
        top = Fraction(0)
        for lam in partitions_of_weight(d, 2):
            term = jack_p_two_var(lam, k, *x) * jack_p_two_var(lam, k, *y) / (
                gen_pochhammer(mu_order, lam, k, 2) * hook_product_h(lam, k)
                * jack_p_two_var(lam, k, 1, 1))
            total += term
            top += abs(term)
    return total, top


class TestSeriesAgainstExactSum:
    # Worst relative errors over 400 seeded cases of this kind at degrees
    # 10, 30 and 40: 7.8e-16 for the value (7 ulp), 3.2e-15 for the
    # estimate.  Each bound is about 2.5 times its worst.
    VALUE_BOUND = 2e-15
    ESTIMATE_BOUND = 8e-15

    def test_float_series_is_within_its_bound_of_the_exact_sum(self):
        # mu = kappa1 + k + 1/2 keeps mu - k = kappa1 + 1/2 off the poles, and
        # points in eighths are exact floats, so each sum is an exact rational.
        rng = random.Random(18)
        for case in range(20):
            kappa1, k = (Fraction(rng.randint(1, 24), rng.randint(1, 8)) for _ in range(2))
            mu = kappa1 + k + Fraction(1, 2)
            x, y = ((Fraction(rng.randint(0, 100), 8), Fraction(rng.randint(0, 100), 8))
                    for _ in range(2))
            degree = (10, 30)[case % 2]
            value, estimate = hyp0f1_two(mu, k, tuple(map(float, x)), tuple(map(float, y)), degree)
            exact, top = _exact_series(mu, k, x, y, degree)
            assert abs(Fraction(value) - exact) <= self.VALUE_BOUND * exact, (mu, k, x, y, degree)
            assert abs(Fraction(estimate) - top) <= self.ESTIMATE_BOUND * top, (mu, k, x, y, degree)


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


def _j1_mpmath(kappa, big, small):
    """J1 as c(kappa1) times the integral over v of i_(mu-1)(2 sqrt(X1 + X2 + 2 v sqrt(X1 X2)))
    (1 - v^2)^(kappa1 - 1), by mpmath quad and besseli at 50 digits, with
    i_nu(t) = Gamma(nu + 1) (2 / t)^nu I_nu(t).  On each half of [-1, 1],
    v = +-(1 - w^(1 / kappa1)) takes the endpoint factor into the measure:
    dv (1 - v^2)^(kappa1 - 1) = (2 - s)^(kappa1 - 1) dw / kappa1, s = w^(1 / kappa1)."""
    with mpmath.workdps(50):
        k1, k2 = (mpmath.mpf(k.numerator) / k.denominator for k in (kappa.kappa1, kappa.kappa2))
        nu = k1 + k2 - mpmath.mpf(1) / 2
        x1, x2 = mpmath.mpf(big), mpmath.mpf(small)
        lead = mpmath.gamma(nu + 1) * 2 ** nu / k1
        total = 0
        for sign in (1, -1):
            def f(w, sign=sign):
                s = w ** (1 / k1)
                t = 2 * mpmath.sqrt(x1 + x2 + 2 * sign * (1 - s) * mpmath.sqrt(x1 * x2))
                return lead * t ** -nu * mpmath.besseli(nu, t) * (2 - s) ** (k1 - 1)
            half, err = mpmath.quad(f, [0, 1], error=True)
            assert err < mpmath.mpf(10) ** -30, (kappa, big, small, err)
            total += half
        c = mpmath.gamma(k1 + mpmath.mpf(1) / 2) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(k1))
        return float(c * total)


def _j1_oracle_errors(count=16, seed=2021):
    """Relative errors of the 64-node J1 and of the degree-40 series against
    _j1_mpmath, at seeded kappas p/8 (p <= 24) and X in [0.05, 4]^2."""
    rng = random.Random(seed)
    for _ in range(count):
        kappa = Multiplicity(Fraction(rng.randint(1, 24), 8), Fraction(rng.randint(1, 24), 8))
        big, small = sorted((rng.uniform(0.05, 4.0), rng.uniform(0.05, 4.0)), reverse=True)
        ref = _j1_mpmath(kappa, big, small)
        rule = gauss_jacobi_rule(64, kappa.kappa1)
        args = 2.0 * np.sqrt(big + small + 2.0 * rule.nodes * math.sqrt(big * small))
        route = normalization_c(kappa.kappa1) * float(
            rule.weights @ bessel_i_norm(kappa.integral_order, args))
        yield kappa, abs(route - ref) / ref, abs(_j1(kappa, big, small) - ref) / ref


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

    def test_j1_against_mpmath(self):
        # Sixteen seeded points, worst measured 7.3e-15 (64 nodes, at
        # kappa1 = 3/8, whose endpoint factor the rule resolves least well)
        # and 1.3e-16 (series); the bounds leave a margin of about 4 and 8.
        errors = list(_j1_oracle_errors())
        assert max(rule for _, rule, _ in errors) <= 3e-14, errors
        assert max(series for _, _, series in errors) <= 1e-15, errors

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
            assert kappa.integral_order == derived, pair
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

    def test_order_is_keyword_only(self):
        # One node count sets both rules; a stale call passing a second one
        # cannot be read as the order.
        kappa, x, y = Multiplicity(1, 1), (0.4, 0.2), (0.6, 0.3)
        with pytest.raises(TypeError):
            bessel_b2_double_integral(kappa, x, y, 16, 16)
        assert bessel_b2_double_integral(kappa, x, y, 16) == \
            bessel_b2_double_integral(kappa, x, y, 16, order=kappa.integral_order)

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


def _per_degree_intertwining(p, kappa):
    """The rotation law checked on each homogeneous part of p alone, the
    oracle for check_rotation_intertwining on mixed-degree polynomials."""
    parts = {}
    for (i, j), c in p.coeffs.items():
        parts.setdefault(i + j, {})[(i, j)] = c
    kp = kappa.swapped
    for _, cs in sorted(parts.items()):
        comp = Poly2(cs)
        rotated = comp.rotate_scaled()
        t1 = dunkl_apply(comp, kp, 1)
        t2 = dunkl_apply(comp, kp, 2)
        pairs = (
            (dunkl_apply(rotated, kappa, 1), (t1 - t2).rotate_scaled()),
            (dunkl_apply(rotated, kappa, 2), (t1 + t2).rotate_scaled()),
        )
        for lhs, rhs in pairs:
            if (lhs - rhs).coeffs:
                return False
    return True


def _random_poly2(rng, max_degree):
    """A rational polynomial with one to eight terms of degrees 0..max_degree."""
    coeffs = {}
    for _ in range(rng.randint(1, 8)):
        d = rng.randint(0, max_degree)
        i = rng.randint(0, d)
        coeffs[(i, d - i)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Poly2(coeffs)


def _seeded_poly2s():
    """The 200 seeded rational polynomials of the intertwining oracles."""
    rng = random.Random(18)
    return [_random_poly2(rng, 8) for _ in range(200)]


class TestIntertwiningAgainstPerDegree:
    KAPPAS = DUNKL_KAPPAS + (Multiplicity(Fraction(4, 5), Fraction(13, 10)),)

    def test_mixed_degree_rational_polynomials(self):
        polys = _seeded_poly2s()
        assert sum(len({i + j for i, j in p.coeffs}) > 1 for p in polys) >= 150
        for p in polys:
            for kappa in self.KAPPAS:
                assert (check_rotation_intertwining(p, kappa),
                        _per_degree_intertwining(p, kappa)) == (True, True), (p, kappa)


def _oracle_t1(p, k1, k2):
    """T_1 at one numeric kappa, the closed form summed in Fraction arithmetic."""
    out = {}
    for (a, b), c in p.coeffs.items():
        if a:
            out[(a - 1, b)] = out.get((a - 1, b), 0) + (a + 2 * k1 if a % 2 else a) * c
        r, lo = (2 * k2 * c if a > b else -2 * k2 * c), min(a, b)
        for e in range(lo + (a - 1 - lo) % 2, max(a, b), 2):
            out[(e, a + b - 1 - e)] = out.get((e, a + b - 1 - e), 0) + r
    return Poly2(out)


def _oracle_dunkl(p, kappa, direction):
    if direction == 1:
        return _oracle_t1(p, kappa.kappa1, kappa.kappa2)
    return _oracle_t1(p.swap(), kappa.kappa1, kappa.kappa2).swap()


def _oracle_intertwining(p, kappa):
    """The rotation law at one kappa in Fraction arithmetic, both sides built
    in full: the oracle for check_rotation_intertwining."""
    kp = kappa.swapped
    rotated = p.rotate_scaled()
    t1, t2 = _oracle_dunkl(p, kp, 1), _oracle_dunkl(p, kp, 2)
    for lhs, rhs in ((_oracle_dunkl(rotated, kappa, 1), (t1 - t2).rotate_scaled()),
                     (_oracle_dunkl(rotated, kappa, 2), (t1 + t2).rotate_scaled())):
        if (lhs - rhs).coeffs:
            return False
    return True


def _seeded_kappas(count):
    """Positive rational multiplicities drawn from a fixed seed."""
    rng = random.Random(21)
    return tuple(Multiplicity(Fraction(rng.randint(1, 40), rng.randint(1, 12)),
                              Fraction(rng.randint(1, 40), rng.randint(1, 12)))
                 for _ in range(count))


class TestIntertwiningAgainstPerKappaOracle:
    @pytest.mark.parametrize("kappa", (*(Multiplicity(*pair) for pair in INTERTWINING_KAPPAS),
                                       *_seeded_kappas(3)),
                             ids=lambda k: f"{k.kappa1},{k.kappa2}")
    def test_seeded_rational_polynomials(self, kappa):
        for p in _seeded_poly2s():
            assert check_rotation_intertwining(p, kappa) == _oracle_intertwining(p, kappa), p


class TestRotationDefect:
    """The rotation law's defect is d0 + kappa1 d1 + kappa2 d2 with integer d0, d1, d2."""

    def test_every_part_vanishes_through_degree_twelve(self):
        # All three parts are zero, so the law holds for every kappa, kappa <= 0 included.
        _rotation_defect.cache_clear()
        for d in range(13):
            for i in range(d + 1):
                parts = [part.coeffs for ident in _rotation_defect(Poly2({(i, d - i): 1}))
                         for part in ident]
                assert parts == [{}] * 6, (i, d)

    def test_parts_are_integer_polynomials(self):
        # Only the kappa-free, kappa1 and kappa2 parts of T_1 are summed, on integers.
        p = Poly2({(3, 1): 5, (1, 4): -2, (0, 0): 7})
        for direction in (1, 2):
            parts = _dunkl_parts(p, direction)
            assert all(type(c) is int for part in parts for c in part.coeffs.values())
            assert parts[1].coeffs and parts[2].coeffs

    def test_rational_polynomial_is_checked_on_its_integer_multiple(self):
        _rotation_defect.cache_clear()
        p = Poly2({(3, 2): Fraction(1, 6), (2, 0): Fraction(-3, 4)})
        assert check_rotation_intertwining(p, DUNKL_KAPPAS[2])
        _rotation_defect(Poly2({(3, 2): 2, (2, 0): -9}))  # 12 p, 12 = lcm(6, 4)
        assert _rotation_defect.cache_info()[:2] == (1, 1)  # (hits, misses)

    def test_float_multiplicity_reads_the_exact_defect(self):
        # The parts are exact, so a float kappa multiplies zeros only; summing
        # both sides in floats failed 20 of these 28 monomials by rounding.
        for p in monomials_up_to(6):
            assert check_rotation_intertwining(p, Multiplicity(0.3, 0.7)), p


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


def _ref_div_x(p, direction):
    """Exact division by x1 or x2; raises if any term lacks the factor."""
    out = {}
    for (i, j), c in p.coeffs.items():
        e = (i - 1, j) if direction == 1 else (i, j - 1)
        if min(e) < 0:
            raise ArithmeticError(f"division by x{direction} leaves a remainder")
        out[e] = c
    return Poly2(out)


def _ref_div_linear(p, root_sign):
    """Exact division by x1 - root_sign * x2, by synthetic division in x1."""
    if not p.coeffs:
        return Poly2()
    rows = {}
    for (i, j), c in p.coeffs.items():
        rows.setdefault(i, {})[j] = c
    top = max(rows)
    quot = {}
    carry = dict(rows.get(top, {}))
    for i in range(top - 1, -1, -1):
        for j, c in carry.items():
            if c != 0:
                quot[(i, j)] = quot.get((i, j), 0) + c
        nxt = dict(rows.get(i, {}))
        for j, c in carry.items():
            nxt[j + 1] = nxt.get(j + 1, 0) + root_sign * c
        carry = {j: c for j, c in nxt.items() if c != 0}
    if carry:
        raise ArithmeticError("division by the linear form leaves a remainder")
    return Poly2(quot)


def _ref_dunkl(p, kappa, direction):
    """The Dunkl operator from its definition, the oracle for dunkl_apply.

    Reflected copies of p are subtracted from p and each difference is
    divided exactly by its linear form: x_direction, x1 - x2 or x1 + x2.
    """
    k1, k2 = kappa.kappa1, kappa.kappa2
    deriv = Poly2({(i - (direction == 1), j - (direction == 2)): c * (i if direction == 1 else j)
                   for (i, j), c in p.coeffs.items() if (i, j)[direction - 1]})
    reflected = Poly2({(i, j): -c if (i, j)[direction - 1] % 2 else c
                       for (i, j), c in p.coeffs.items()})
    neg_swap = Poly2({(j, i): c if (i + j) % 2 == 0 else -c for (i, j), c in p.coeffs.items()})
    refl = _ref_div_x(p - reflected, direction)
    swap_diff = _ref_div_linear(p - p.swap(), +1)
    neg_diff = _ref_div_linear(p - neg_swap, -1)
    sign = 1 if direction == 1 else -1
    return deriv + refl.scaled(k1) + swap_diff.scaled(sign * k2) + neg_diff.scaled(k2)


class TestDunklAgainstDefinition:
    RATIONAL = DUNKL_KAPPAS + (Multiplicity(Fraction(4, 5), Fraction(13, 10)),)

    @pytest.mark.parametrize("kappa", RATIONAL)
    def test_every_monomial_through_degree_twelve(self, kappa):
        for p in monomials_up_to(12):
            for direction in (1, 2):
                assert dunkl_apply(p, kappa, direction) == _ref_dunkl(p, kappa, direction), p

    def test_random_rational_polynomials(self):
        rng = random.Random(12)
        for _ in range(200):
            p = Poly2({(rng.randrange(9), rng.randrange(9)):
                       Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                       for _ in range(rng.randint(1, 8))})
            kappa = rng.choice(self.RATIONAL)
            for direction in (1, 2):
                assert dunkl_apply(p, kappa, direction) == _ref_dunkl(p, kappa, direction), p

    def test_float_multiplicity_to_rounding(self):
        kappa = Multiplicity(0.3, 0.7)
        for p in monomials_up_to(12):
            for direction in (1, 2):
                got = dunkl_apply(p, kappa, direction).coeffs
                want = _ref_dunkl(p, kappa, direction).coeffs
                assert got.keys() == want.keys(), p
                for e, c in want.items():
                    assert abs(got[e] - c) <= 1e-15 * abs(c), (p, e)


class TestPoly2:
    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            Poly2({(-1, 0): Fraction(1)})

    def test_swap(self):
        assert Poly2({(2, 1): Fraction(1)}).swap().coeffs == {(1, 2): Fraction(1)}

    def test_rotate_scaled_is_the_substitution(self):
        # p o R evaluated at a point equals p evaluated at R of that point.
        def value(p, x1, x2):
            return sum(c * x1 ** i * x2 ** j for (i, j), c in p.coeffs.items())

        rng = random.Random(5)
        for p in _seeded_poly2s()[:40]:
            x1, x2 = Fraction(rng.randint(-9, 9), 7), Fraction(rng.randint(-9, 9), 5)
            assert value(p.rotate_scaled(), x1, x2) == value(p, x1 + x2, -x1 + x2), p


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

    def test_rule_has_the_given_node_count(self):
        report = bessel_product_identity(Fraction(1), 0.5, 1.0, npoints=16)
        assert report.passed and report.context["npoints"] == 16
        # One node cannot integrate the product: the count is really used.
        assert not bessel_product_identity(Fraction(1), 0.5, 1.0, npoints=1).passed


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
