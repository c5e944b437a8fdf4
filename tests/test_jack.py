"""Invariants of the Jack polynomial constructions (solver, closed form, lift)."""

import math
from fractions import Fraction

import numpy as np
import pytest

from jackb2.jack import (
    jack_p,
    jack_p_at_ones,
    jack_p_two_var,
    jack_recursion_lift,
)
from jackb2.partitions import (
    Partition,
    dominance_leq,
    eigenvalue_e,
    hook_product_h,
    partitions_of_weight,
    rising_factorial,
)
from jackb2.sympoly import MonomialExpansion, apply_lb_operator, evaluate

K_GRID = (Fraction(1, 2), Fraction(7, 3))


def partitions_up_to(weight, max_parts):
    for d in range(weight + 1):
        yield from partitions_of_weight(d, max_parts)


class TestSolver:
    def test_known_expansion(self):
        poly = jack_p((2,), Fraction(1, 2), 2)
        assert poly.expansion.coeffs == {
            Partition((2,)): 1, Partition((1, 1)): Fraction(2, 3)}

    def test_monic_and_triangular(self):
        for lam in partitions_up_to(6, 3):
            poly = jack_p(lam, Fraction(1, 2), 3)
            assert poly.expansion.coeffs[Partition(lam)] == 1
            for mu in poly.expansion.coeffs:
                assert dominance_leq(mu, lam)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("k", K_GRID)
    def test_exact_eigenfunction(self, n, k):
        for lam in partitions_up_to(6, n):
            expansion = jack_p(lam, k, n).expansion
            image = apply_lb_operator(expansion, k)
            assert image == expansion.scaled(eigenvalue_e(lam, k, n))

    def test_rejects_too_many_parts(self):
        with pytest.raises(ValueError):
            jack_p((1, 1, 1), Fraction(1), 2)

    def test_float_parameter_lifted_exactly(self):
        # 0.5 is dyadic, so the float entry matches the rational solve.
        assert jack_p((3, 1), 0.5, 2).expansion == jack_p((3, 1), Fraction(1, 2), 2).expansion


class TestTwoVariableClosedForm:
    @pytest.mark.parametrize("k", K_GRID)
    def test_matches_solver_exactly(self, k):
        points = ((Fraction(3, 2), Fraction(2, 3)), (Fraction(7, 5), Fraction(1, 3)))
        for lam in partitions_up_to(6, 2):
            poly = jack_p(lam, k, 2)
            for x in points:
                closed = jack_p_two_var(lam, k, x[0], x[1])
                assert isinstance(closed, Fraction)
                assert closed == poly.evaluate(x)

    def test_float_arguments_give_floats(self):
        val = jack_p_two_var((3, 1), Fraction(1, 2), 1.25, 0.5)
        assert isinstance(val, float)
        exact = jack_p_two_var((3, 1), Fraction(1, 2), Fraction(5, 4), Fraction(1, 2))
        assert val == pytest.approx(float(exact), rel=1e-14)

    def test_homogeneity(self):
        t = Fraction(3, 2)
        x = (Fraction(2), Fraction(1, 3))
        for lam in ((2,), (3, 1), (4, 2), (2, 2)):
            lhs = jack_p_two_var(lam, Fraction(1, 2), t * x[0], t * x[1])
            rhs = t ** sum(lam) * jack_p_two_var(lam, Fraction(1, 2), x[0], x[1])
            assert lhs == rhs

    def test_value_at_ones(self):
        # P_(m,0) at (1,1) is (2k)_m / (k)_m; exact via rising factorials.
        for k in K_GRID:
            for m in range(13):
                ones = jack_p_two_var((m,), k, 1, 1)
                expect = rising_factorial(2 * k, m) / rising_factorial(k, m)
                assert ones == expect
                assert jack_p_at_ones((m,), k, 2) == expect

    def test_rectangle_factor(self):
        # P_(l+m, l) carries the factor (x1 x2)^l against P_(m,0).
        k = Fraction(1, 2)
        x = (Fraction(5, 2), Fraction(1, 7))
        for m in range(4):
            for ell in range(1, 4):
                full = jack_p_two_var((ell + m, ell), k, x[0], x[1])
                reduced = jack_p_two_var((m,), k, x[0], x[1])
                assert full == (x[0] * x[1]) ** ell * reduced


class TestNormalization:
    @pytest.mark.parametrize("n", [2, 3])
    def test_sum_equals_power_of_first_symmetric(self, n):
        # sum over |lam| = d of C_lam equals (x1 + ... + xn)^d exactly,
        # compared coefficient-by-coefficient in the monomial basis.
        k = Fraction(3, 2)
        for d in range(5):
            total = MonomialExpansion(n, {})
            for lam in partitions_of_weight(d, n):
                poly = jack_p(lam, k, n)
                coeff = Fraction(math.factorial(d)) / hook_product_h(lam, k)
                total = total.plus(poly.expansion.scaled(coeff))
            expect = {
                Partition(mu): Fraction(math.factorial(d))
                / math.prod(math.factorial(p) for p in mu)
                for mu in partitions_of_weight(d, n)}
            assert total.coeffs == expect


class TestRecursionLift:
    def test_two_variable_lift_is_the_polynomial(self):
        # n=2: lifting the one-variable monomial reproduces P_lam(x1, x2).
        for lam, k in (((1,), Fraction(1)), ((2,), Fraction(1, 2)), ((3,), Fraction(2))):
            x = (0.6, 1.9)
            got = jack_recursion_lift(lam, k, x)
            expect = float(jack_p_two_var(lam, k, *map(Fraction, map(str, x))))
            assert got == pytest.approx(expect, rel=1e-12)

    def test_three_variable_lift_matches_solver(self):
        x = (0.4, 1.1, 2.3)
        for lam, k in (((2,), Fraction(1)), ((2, 1), Fraction(1, 2)), ((3, 2), Fraction(2))):
            got = jack_recursion_lift(lam, k, x)
            oracle = float(jack_p(lam, k, 3).evaluate(x))
            assert got == pytest.approx(oracle, rel=1e-8)

    def test_empty_partition_lifts_to_one(self):
        assert jack_recursion_lift((), Fraction(1, 2), (0.5, 1.5)) == pytest.approx(1.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            jack_recursion_lift((1,), Fraction(1), (1.0, 2.0, 3.0, 4.0))  # n > 3
        with pytest.raises(ValueError):
            jack_recursion_lift((2, 1), Fraction(1), (1.0, 2.0))  # too many parts
        with pytest.raises(ValueError):
            jack_recursion_lift((1,), Fraction(1), (2.0, 1.0))  # not increasing
        with pytest.raises(ValueError):
            jack_recursion_lift((1,), Fraction(1), (-1.0, 1.0))  # not positive


def jack_c(lam, k, n, x):
    """Oracle: the C-normalized Jack polynomial (|lam|! / h_k(lam)) P_lam at x."""
    lam = Partition(lam)
    scale = Fraction(math.factorial(lam.weight)) / hook_product_h(lam, k)
    return scale * jack_p(lam, k, n).evaluate(tuple(x))


class TestCNormalizedValue:
    def test_point_value(self):
        # The C-normalized polynomials of weight d sum to (x1 + ... + xn)^d.
        k = Fraction(1, 2)
        x = (Fraction(1), Fraction(2), Fraction(3))
        assert sum(jack_c(lam, k, 3, x) for lam in partitions_of_weight(3, 3)) == 6 ** 3


class TestEvaluate:
    def test_float_point(self):
        poly = jack_p((3, 1), Fraction(1, 2), 3)
        x = (0.3, 1.7, 2.1)
        direct = evaluate(poly.expansion, x)
        assert poly.evaluate(x) == pytest.approx(direct, rel=1e-15)

    def test_json_shape(self):
        doc = jack_p((2,), Fraction(1, 2), 2).to_json()
        assert doc["lambda"] == [2]
        assert doc["k"] == "1/2"
        assert doc["nvars"] == 2
        assert {"partition": [1, 1], "coeff": "2/3"} in doc["terms"]
