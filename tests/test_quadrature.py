"""Invariants of the Gauss rules for the symmetric weight (1 - u^2)^(k-1)."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from jackb2 import cli
from jackb2.quadrature import (
    _MAX_RULE_NODES,
    QuadratureRule,
    even_moment,
    gauss_jacobi_rule,
    normalization_c,
)

K_GRID = (0.3, 0.5, 1.0, 1.5, 2.75, 5.0)
# Every k of the CLI defaults, of K_GRID and of acceptance check 07, and
# every p/q with p <= 24 and q <= 8.
ORACLE_K = sorted(
    {float(k) for k in (*cli.DEFAULT_PRODUCT_K, *cli.DEFAULT_BESSEL_K,
                        *(v for pair in cli.DEFAULT_KAPPAS for v in pair))}
    | set(K_GRID) | {0.3, 0.5, 1.0, 2.75}
    | {p / q for p in range(1, 25) for q in range(1, 9)})


class TestKnownRules:
    def test_chebyshev_three_point(self):
        # k = 1/2 is the Chebyshev weight: nodes at cos(j*pi/4), weights pi/3.
        rule = gauss_jacobi_rule(3, 0.5)
        assert rule.nodes == pytest.approx([-math.sqrt(3) / 2, 0.0, math.sqrt(3) / 2], abs=1e-15)
        assert rule.weights == pytest.approx([math.pi / 3] * 3, rel=1e-15)

    def test_legendre_two_point(self):
        rule = gauss_jacobi_rule(2, 1.0)
        assert rule.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], rel=1e-15)
        assert rule.weights == pytest.approx([1.0, 1.0], rel=1e-14)

    def test_single_point_rule(self):
        rule = gauss_jacobi_rule(1, 2.0)
        assert rule.nodes == pytest.approx([0.0], abs=0)
        assert rule.weights == pytest.approx([even_moment(0, 2.0)], rel=1e-15)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            gauss_jacobi_rule(0, 1.0)
        with pytest.raises(ValueError):
            gauss_jacobi_rule(4, 0.0)
        with pytest.raises(ValueError):
            gauss_jacobi_rule(4, -1.0)
        # NaN and inf are not positive reals; below 2^-1022 the mass overflows.
        for bad in (math.nan, math.inf, 1e-310):
            with pytest.raises(ValueError):
                gauss_jacobi_rule(4, bad)

    def test_rule_size_limit(self):
        # The dense eigensolve is O(n^3): rules past the limit are refused
        # before any work, with the limit in the message.
        with pytest.raises(ValueError, match=str(_MAX_RULE_NODES)):
            gauss_jacobi_rule(_MAX_RULE_NODES + 1, 1.0)


class TestRuleCache:
    def test_repeat_call_returns_the_same_read_only_rule(self):
        rule = gauss_jacobi_rule(7, 1.25)
        assert gauss_jacobi_rule(7, 1.25) is rule
        for array in (rule.nodes, rule.weights):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        assert not gauss_jacobi_rule(1, 1.25).nodes.flags.writeable

    def test_exact_parameter_shares_the_float_rule(self):
        assert gauss_jacobi_rule(5, Fraction(3, 2)) is gauss_jacobi_rule(5, 1.5)

    def test_errors_are_not_cached(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                gauss_jacobi_rule(0, 1.0)
            with pytest.raises(ValueError):
                gauss_jacobi_rule(4, 0.0)
            with pytest.raises(ValueError):
                gauss_jacobi_rule(4, -1.0)


class TestStructure:
    @pytest.mark.parametrize("k", K_GRID)
    def test_symmetry_and_positivity(self, k):
        for n in (1, 2, 3, 5, 8, 21, 48):
            rule = gauss_jacobi_rule(n, k)
            assert len(rule.nodes) == len(rule.weights) == n
            assert np.all(rule.weights > 0)
            assert np.array_equal(rule.nodes, -rule.nodes[::-1])
            assert np.array_equal(rule.weights, rule.weights[::-1])
            assert np.all(np.diff(rule.nodes) > 0)
            assert np.all(np.abs(rule.nodes) < 1)

    @pytest.mark.parametrize("k", K_GRID)
    def test_mass_and_normalization(self, k):
        rule = gauss_jacobi_rule(16, k)
        mass = math.fsum(rule.weights)
        assert mass == pytest.approx(even_moment(0, k), rel=1e-14)
        assert normalization_c(k) * mass == pytest.approx(1.0, rel=1e-13)

    def test_odd_function_integrates_to_zero(self):
        rule = gauss_jacobi_rule(9, 1.5)
        u = rule.nodes
        assert abs(rule.weights @ u) < 1e-14
        assert abs(rule.weights @ (u ** 3 - 2 * u)) < 1e-14


class TestMoments:
    def test_known_second_moment(self):
        # With k = 1 (flat weight), the u^2 moment over [-1,1] is 2/3.
        rule = gauss_jacobi_rule(2, 1.0)
        assert rule.weights @ rule.nodes ** 2 == pytest.approx(2 / 3, rel=1e-15)

    @pytest.mark.parametrize("k", K_GRID)
    def test_exactness_to_degree_bound(self, k):
        # A Gauss rule with n points integrates all even powers u^(2j)
        # with 2j <= 2n-1 to rounding; the big sweep lives in acceptance.
        for n in (1, 2, 3, 7, 16):
            rule = gauss_jacobi_rule(n, k)
            for j in range(n):
                approx = float(rule.weights @ rule.nodes ** (2 * j))
                assert approx == pytest.approx(even_moment(j, k), rel=5e-14)

    def test_moment_closed_form(self):
        # even_moment(j, k) is the Beta function B(j + 1/2, k).
        assert even_moment(0, 1.0) == pytest.approx(2.0, rel=1e-15)
        assert even_moment(1, 1.0) == pytest.approx(2 / 3, rel=1e-15)
        assert even_moment(0, 0.5) == pytest.approx(math.pi, rel=1e-15)


class TestIntegrate:
    def test_vectorized_and_scalar_agree(self):
        # The rule applied as a dot product and as a compensated sum of
        # scalar evaluations gives the same integral.
        rule = gauss_jacobi_rule(12, 2.75)
        scalar = math.fsum(w * math.cos(u) for u, w in zip(rule.nodes, rule.weights))
        vector = float(rule.weights @ np.cos(rule.nodes))
        assert scalar == pytest.approx(vector, rel=1e-15)


class TestMpmathOracle:
    """The float layer against mpmath at 50 digits."""

    def test_moments_and_normalization(self):
        worst_mass = worst_c = worst_moment = 0.0
        with mpmath.workdps(50):
            for k in ORACLE_K:
                for j in range(64):
                    exact = mpmath.beta(j + 0.5, k)
                    rel = float(abs(even_moment(j, k) - exact) / exact)
                    worst_moment = max(worst_moment, rel)
                    if j == 0:
                        worst_mass = max(worst_mass, rel)
                        worst_c = max(worst_c, float(abs(normalization_c(k) * exact - 1)))
        assert worst_mass <= 2e-15
        assert worst_c <= 2e-15
        assert worst_moment <= 3e-14

    @pytest.mark.parametrize("k", (171.0, 200.0, 1e3, 1e6), ids=str)
    def test_moments_past_the_gamma_range(self, k):
        # Gamma(k) alone overflows here, and a sum of lgamma values loses
        # digits as k grows (9.6e-10 at k = 1e6, j = 0).
        worst = 0.0
        with mpmath.workdps(50):
            for j in range(64):
                exact = mpmath.beta(j + 0.5, k)
                worst = max(worst, float(abs(even_moment(j, k) - exact) / exact))
            c_err = float(abs(normalization_c(k) * mpmath.beta(0.5, k) - 1))
        assert worst <= 1e-15, worst
        assert c_err <= 1e-15, c_err

    @pytest.mark.parametrize("k", (0.3, 0.5, 1.0, 1.3, 2.75))
    def test_nodes_are_jacobi_roots(self, k):
        # Each positive node, refined by Newton on P_n^(k-1, k-1) at 50
        # digits, moves by at most 8 units in the last place (the others
        # follow by symmetry).  Near a root the series cancels, so mpmath
        # may raise its precision to 1000 bits.
        a = k - 1.0

        def jacobi(n, b, x):
            return mpmath.jacobi(n, b, b, x, maxprec=1000)

        with mpmath.workdps(50):
            for n in (2, 7, 16, 33, 64):
                roots = []
                for node in gauss_jacobi_rule(n, k).nodes[(n + 1) // 2:].tolist():
                    root = mpmath.mpf(node)
                    for _ in range(3):
                        root -= jacobi(n, a, root) / ((n + 2 * a + 1) / 2 * jacobi(n - 1, a + 1, root))
                    roots.append(root)
                    assert float(abs(node - root)) <= 8 * np.spacing(float(root)), (n, node)
                # Distinct roots: each positive root of P_n is matched once.
                assert all(hi - lo > 1e-10 for lo, hi in zip(roots, roots[1:]))
