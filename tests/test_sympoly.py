"""Invariants of the monomial-basis layer and the defining operator."""

import itertools
import math
from fractions import Fraction

import pytest

from jackb2.jack import jack_p
from jackb2.partitions import Partition, eigenvalue_e, partitions_of_weight
from jackb2.sympoly import (
    MonomialExpansion,
    apply_lb_operator,
    evaluate,
    monomial_eval,
)

from oracles import dominance_leq


class TestMonomialExpansion:
    def test_zero_coefficients_dropped(self):
        p = MonomialExpansion(2, {Partition((1,)): 0, Partition((2,)): 3})
        assert p.coeffs == {Partition((2,)): 3}

    def test_rejects_too_many_parts(self):
        with pytest.raises(ValueError):
            MonomialExpansion(2, {Partition((1, 1, 1)): 1})

    def test_plus_and_scaled(self):
        p = MonomialExpansion(2, {(2,): 1}).plus(
            MonomialExpansion(2, {(1, 1): 1}).scaled(Fraction(2, 3)))
        assert p.coeffs == {Partition((2,)): 1, Partition((1, 1)): Fraction(2, 3)}
        assert p.scaled(3).coeffs[Partition((1, 1))] == 2

    def test_degree_and_homogeneity(self):
        p = MonomialExpansion(3, {(3, 1): 1})
        assert {mu.weight for mu in p.coeffs} == {4} and p.is_homogeneous()
        q = p.plus(MonomialExpansion(3, {(1,): 1}))
        assert {mu.weight for mu in q.coeffs} == {1, 4} and not q.is_homogeneous()


class TestMonomialEval:
    def test_distinct_monomial_convention(self):
        # m_(1,1) at (x1, x2) is the single product x1*x2, counted once.
        assert monomial_eval((1, 1), (3, 2)) == 6
        # m_(2,2) likewise has one distinct monomial in two variables.
        assert monomial_eval((2, 2), (3, 2)) == 36
        # m_(2,1) has both orderings.
        assert monomial_eval((2, 1), (3, 2)) == 9 * 2 + 3 * 4

    def test_evaluate_rational_point(self):
        p = MonomialExpansion(2, {(2,): 1, (1, 1): Fraction(2, 3)})
        x = (Fraction(3, 2), Fraction(1, 3))
        expect = x[0] ** 2 + x[1] ** 2 + Fraction(2, 3) * x[0] * x[1]
        assert evaluate(p, x) == expect


def _orbit_eval(lam, x):
    """Oracle: m_lam at x over the sorted set of all permutations of lam padded
    to len(x), each term multiplied out from the left."""
    lam = Partition(lam)
    if len(lam) > len(x):
        raise ValueError(f"partition {lam} has more parts than variables")
    padded = tuple(lam) + (0,) * (len(x) - len(lam))
    total = 0
    for expo in sorted(set(itertools.permutations(padded))):
        term = 1
        for xi, e in zip(x, expo):
            term *= xi ** e
        total += term
    return total


# One point of each kind per variable count, cut to the first n coordinates:
# ints, Fractions, floats whose sums round, signed zeros with tiny values that
# underflow, and 1e+-200, where a square overflows.
ORACLE_POINTS = (
    (3, -2, 5, 1, -4, 2),
    (Fraction(3, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(1, 3), Fraction(-7, 5), 2),
    (0.7, -1.3, 2.1, 0.45, -0.9, 1.6),
    (-0.0, 1e-200, 0.0, -1e-200, 3.0, -0.0),
    (1e200, -0.0, 1e-200, -1e200, 0.5, -1e-200),
)


def _outcome(fn, *args):
    """(value, its type) of fn(*args), or the type of what it raised.

    A float is compared by its hex form, which tells -0.0 from 0.0 and
    matches NaN with NaN.
    """
    try:
        value = fn(*args)
    except ArithmeticError as exc:
        return type(exc)
    return (value.hex() if isinstance(value, float) else value), type(value)


class TestMonomialEvalAgainstOrbit:
    # 252 partitions of weight <= 8 with at most n <= 6 parts, five points each.
    CASES = [(lam, point[:n]) for n in range(1, 7) for d in range(9)
             for lam in partitions_of_weight(d, n) for point in ORACLE_POINTS]

    def test_monomial_eval_equals_the_orbit(self):
        for lam, x in self.CASES:
            assert _outcome(monomial_eval, lam, x) == _outcome(_orbit_eval, lam, x), (lam, x)

    def test_evaluate_equals_the_orbit(self):
        # Every partition of one weight at once, with exact coefficients.
        for n in range(1, 7):
            for d in range(9):
                lams = partitions_of_weight(d, n)
                p = MonomialExpansion(n, {lam: Fraction(2 * i + 1, i + 2)
                                          for i, lam in enumerate(lams)})
                for point in ORACLE_POINTS:
                    x = point[:n]
                    expect = _outcome(lambda: sum(c * _orbit_eval(mu, x)
                                                  for mu, c in p.coeffs.items()))
                    assert _outcome(evaluate, p, x) == expect, (n, d, x)

    def test_nine_variables_at_ones_count_the_orbits(self):
        # m_mu(1, ..., 1) is the number n!/F(mu) of distinct monomials.
        n = 9
        poly = jack_p((4, 3, 2, 1), Fraction(1, 2), n)
        expect = 0
        for mu, c in poly.expansion.coeffs.items():
            padded = tuple(mu) + (0,) * (n - len(mu))
            f_mu = math.prod(math.factorial(padded.count(v)) for v in set(padded))
            expect += c * (math.factorial(n) // f_mu)
        assert poly.evaluate((1,) * n) == expect


class TestOperator:
    K = Fraction(1, 2)

    def test_defining_example(self):
        # D_k m_(2) = 2(1+2k) m_(2) + 4k m_(1,1) in two variables.
        out = apply_lb_operator(MonomialExpansion(2, {(2,): 1}), self.K)
        assert out.coeffs == {
            Partition((2,)): 2 + 4 * self.K, Partition((1, 1)): 4 * self.K}

    def test_linearity(self):
        a, b = Fraction(3, 7), Fraction(-2, 5)
        p, q = MonomialExpansion(3, {(3, 1): 1}), MonomialExpansion(3, {(2, 2): 1})
        combo = apply_lb_operator(p.scaled(a).plus(q.scaled(b)), self.K)
        split = apply_lb_operator(p, self.K).scaled(a).plus(
            apply_lb_operator(q, self.K).scaled(b))
        assert combo == split

    @pytest.mark.parametrize("n", [2, 3])
    def test_triangular_diagonal_degree(self, n):
        for d in range(9):
            for lam in partitions_of_weight(d, n):
                out = apply_lb_operator(MonomialExpansion(n, {lam: 1}), self.K)
                for mu, coeff in out.coeffs.items():
                    assert dominance_leq(mu, lam)
                    assert mu.weight == d
                assert out.coeffs.get(lam, 0) == eigenvalue_e(lam, self.K, n)

    def test_requires_homogeneous(self):
        with pytest.raises(ValueError):
            apply_lb_operator(MonomialExpansion(2, {(2,): 1, (1,): 1}), self.K)

    def test_float_parameter_supported(self):
        out = apply_lb_operator(MonomialExpansion(2, {(2,): 1}), 0.5)
        assert out.coeffs[Partition((1, 1))] == pytest.approx(2.0)

    def test_integer_parameter_stays_exact(self):
        p = MonomialExpansion(4, {(3, 1, 1): 1})
        out = apply_lb_operator(p, 1)
        assert out == apply_lb_operator(p, Fraction(1))
        assert not any(isinstance(c, float) for c in out.coeffs.values())

    @pytest.mark.parametrize("k", [Fraction(1, 2), Fraction(7, 3)])
    def test_matches_definition_at_a_point(self, k):
        # D_k x^v = x^v (sum_i v_i (v_i - 1) + 2k sum_{i != j} v_i x_i / (x_i - x_j)),
        # summed over the distinct permutations v of lam, in exact rationals.
        point = (Fraction(3, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(1, 3))
        for n in range(1, 5):
            x = point[:n]
            for d in range(8):
                for lam in partitions_of_weight(d, n):
                    padded = tuple(lam) + (0,) * (n - len(lam))
                    expect = 0
                    for v in set(itertools.permutations(padded)):
                        monomial = 1
                        for xi, vi in zip(x, v):
                            monomial *= xi ** vi
                        rational = sum(
                            vi * xi / (xi - xj)
                            for (vi, xi), (vj, xj) in itertools.permutations(zip(v, x), 2))
                        expect += monomial * (sum(vi * (vi - 1) for vi in v) + 2 * k * rational)
                    out = apply_lb_operator(MonomialExpansion(n, {lam: 1}), k)
                    assert evaluate(out, x) == expect, (lam, n)
