"""Every public evaluator treats a NaN, infinite or out-of-domain coordinate
as a usage error (ValueError), never as a value or a failed identity."""

import math
from fractions import Fraction

import pytest

import jackb2 as jb
from jackb2.product import verify_product_sweep, verify_zonal_sweep

KAPPA = jb.Multiplicity(Fraction(1), Fraction(1))
GOOD = (0.4, 0.7)

# Each evaluator takes a coordinate pair p in place of a valid one; the
# scalar ones are evaluated at both coordinates.
EVALUATORS = {
    "jack_p_two_var": lambda p: jb.jack_p_two_var((2, 1), Fraction(1), *p),
    "JackPolynomial.evaluate": lambda p: jb.jack_p((2, 1), Fraction(1), 2).evaluate(p),
    "evaluate": lambda p: jb.evaluate(jb.jack_p((3, 1), Fraction(1, 2), 2).expansion, p),
    "jack_recursion_lift": lambda p: jb.jack_recursion_lift((2,), Fraction(1), (*p, 9.0)),
    "eigen_split": lambda p: jb.eigen_split(p, GOOD, 0.3),
    "rotation_conjugate_eigs": lambda p: jb.rotation_conjugate_eigs(GOOD, p, 0.3),
    "product_lhs": lambda p: jb.product_lhs((2, 1), Fraction(1), p, GOOD),
    "product_rhs": lambda p: jb.product_rhs((2, 1), Fraction(1), GOOD, p, 7),
    "verify_product": lambda p: jb.verify_product((2, 1), Fraction(1), p, GOOD, 7, 1e-10),
    "verify_product_sweep": lambda p: verify_product_sweep(
        (2, 1), Fraction(1), [(GOOD, GOOD), (GOOD, p)], 7, 1e-10),
    "zonal_so2_average": lambda p: jb.zonal_so2_average((2, 1), p, GOOD, 16),
    "verify_zonal": lambda p: jb.verify_zonal((2, 1), GOOD, p, 16, 1e-10),
    "verify_zonal_sweep": lambda p: verify_zonal_sweep((2, 1), [(p, GOOD)], 16, 1e-10),
    "hyp0f1_two": lambda p: jb.hyp0f1_two(Fraction(5, 2), Fraction(1), p, GOOD, 20),
    "bessel_b2_series": lambda p: jb.bessel_b2_series(KAPPA, p, GOOD),
    "bessel_b2_series_trunc": lambda p: jb.bessel_b2_series_trunc(KAPPA, GOOD, p),
    "bessel_rotation_symmetry": lambda p: jb.bessel_rotation_symmetry(KAPPA, p, GOOD, 20),
    "bessel_b2_double_integral": lambda p: jb.bessel_b2_double_integral(KAPPA, p, GOOD, 16),
    "hyp0f1_single_integral": lambda p: jb.hyp0f1_single_integral(
        Fraction(5, 2), Fraction(1), p, 16),
    "verify_single_integral": lambda p: jb.verify_single_integral(
        Fraction(5, 2), Fraction(1), p, 16, 20),
    "verify_series_vs_double_integral": lambda p: jb.verify_series_vs_double_integral(
        KAPPA, p, GOOD, KAPPA.integral_order, 16, 20),
    "verify_derived_route": lambda p: jb.verify_derived_route(KAPPA, GOOD, p, 16, 20),
    "bessel_product_identity": lambda p: jb.bessel_product_identity(Fraction(1), *p, 16),
    "bessel_i_norm": lambda p: [jb.bessel_i_norm(0.5, t) for t in p],
    "limit_transition": lambda p: [jb.limit_transition(Fraction(1), t, 8) for t in p],
}
# The polynomials, and the series and Bessel functions (even in each
# component), take negative coordinates; the rest need nonnegative ones.
SIGNED = ("jack_p_two_var", "JackPolynomial.evaluate", "evaluate", "hyp0f1_two",
          "bessel_b2_series", "bessel_b2_series_trunc", "bessel_rotation_symmetry",
          "bessel_product_identity", "bessel_i_norm", "limit_transition")
NONNEGATIVE = [name for name in EVALUATORS if name not in SIGNED]
# The type-B2 evaluators square each coordinate (the 0F1 argument v^2 / 2,
# or the double integral's radicand): 1e200 is finite, its square is not.
SQUARING = ("bessel_b2_series", "bessel_b2_series_trunc", "bessel_rotation_symmetry",
            "bessel_b2_double_integral", "verify_series_vs_double_integral",
            "verify_derived_route")


def _values(result):
    if isinstance(result, jb.VerificationReport):
        return [result.lhs, result.rhs]
    return [float(v) for v in result] if isinstance(result, (tuple, list)) else [float(result)]


@pytest.mark.parametrize("name, bad", [
    *((name, bad) for bad in (math.nan, math.inf, -math.inf) for name in EVALUATORS),
    *((name, -0.5) for name in NONNEGATIVE),
    *((name, 1e200) for name in SQUARING)])
def test_bad_coordinate_is_a_usage_error(name, bad):
    for point in ((bad, 0.5), (0.5, bad)):
        with pytest.raises(ValueError):
            EVALUATORS[name](point)


@pytest.mark.parametrize("name", EVALUATORS)
def test_non_finite_coordinate_is_named(name):
    # NaN fails every comparison, so a domain test alone would name the
    # wrong fault; the message must say that the value is not finite.
    for bad in (math.nan, math.inf, -math.inf):
        for point in ((bad, 0.5), (0.5, bad)):
            with pytest.raises(ValueError, match="finite"):
                EVALUATORS[name](point)


@pytest.mark.parametrize("name", SQUARING)
def test_square_past_the_float_range_is_named(name):
    # The same message for every squaring evaluator, raised before any
    # float operation forms inf - inf from the overflowed squares.
    for point in ((1e200, 0.5), (0.5, 1e200)):
        with pytest.raises(ValueError, match="squared is past the float range"):
            EVALUATORS[name](point)


@pytest.mark.parametrize("name", SIGNED)
def test_negative_coordinate_is_valid_where_the_domain_has_it(name):
    assert all(math.isfinite(v) for v in _values(EVALUATORS[name]((-0.5, 0.5))))
