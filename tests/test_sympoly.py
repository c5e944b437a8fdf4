"""Invariants of the monomial-basis layer and the defining operator."""

import itertools
from fractions import Fraction

import pytest

from jackb2.partitions import Partition, eigenvalue_e, partitions_of_weight
from jackb2.sympoly import (
    MonomialExpansion,
    apply_lb_operator,
    evaluate,
    mono,
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
        p = mono((2,), 2).plus(mono((1, 1), 2).scaled(Fraction(2, 3)))
        assert p.coeffs == {Partition((2,)): 1, Partition((1, 1)): Fraction(2, 3)}
        assert p.scaled(3).coeffs[Partition((1, 1))] == 2

    def test_degree_and_homogeneity(self):
        p = mono((3, 1), 3)
        assert {mu.weight for mu in p.coeffs} == {4} and p.is_homogeneous()
        q = p.plus(mono((1,), 3))
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
        p = mono((2,), 2).plus(mono((1, 1), 2).scaled(Fraction(2, 3)))
        x = (Fraction(3, 2), Fraction(1, 3))
        expect = x[0] ** 2 + x[1] ** 2 + Fraction(2, 3) * x[0] * x[1]
        assert evaluate(p, x) == expect


class TestOperator:
    K = Fraction(1, 2)

    def test_defining_example(self):
        # D_k m_(2) = 2(1+2k) m_(2) + 4k m_(1,1) in two variables.
        out = apply_lb_operator(mono((2,), 2), self.K)
        assert out.coeffs == {
            Partition((2,)): 2 + 4 * self.K, Partition((1, 1)): 4 * self.K}

    def test_linearity(self):
        a, b = Fraction(3, 7), Fraction(-2, 5)
        p, q = mono((3, 1), 3), mono((2, 2), 3)
        combo = apply_lb_operator(p.scaled(a).plus(q.scaled(b)), self.K)
        split = apply_lb_operator(p, self.K).scaled(a).plus(
            apply_lb_operator(q, self.K).scaled(b))
        assert combo == split

    @pytest.mark.parametrize("n", [2, 3])
    def test_triangular_diagonal_degree(self, n):
        for d in range(9):
            for lam in partitions_of_weight(d, n):
                out = apply_lb_operator(mono(lam, n), self.K)
                for mu, coeff in out.coeffs.items():
                    assert dominance_leq(mu, lam)
                    assert mu.weight == d
                assert out.coeffs.get(lam, 0) == eigenvalue_e(lam, self.K, n)

    def test_requires_homogeneous(self):
        with pytest.raises(ValueError):
            apply_lb_operator(mono((2,), 2).plus(mono((1,), 2)), self.K)

    def test_float_parameter_supported(self):
        out = apply_lb_operator(mono((2,), 2), 0.5)
        assert out.coeffs[Partition((1, 1))] == pytest.approx(2.0)

    def test_integer_parameter_stays_exact(self):
        p = mono((3, 1, 1), 4)
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
                    assert evaluate(apply_lb_operator(mono(lam, n), k), x) == expect, (lam, n)
