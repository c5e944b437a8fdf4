"""Invariants of the Gauss rules for the symmetric weight (1 - u^2)^(k-1)."""

import math
import random
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from jackb2 import cli, quadrature
from jackb2.quadrature import (
    _MAX_RULE_NODES,
    QuadratureRule,
    _rule_slot,
    even_moment,
    gauss_jacobi_rule,
    gauss_jacobi_rules,
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

    @pytest.mark.parametrize("npoints", (2.5, Fraction(7, 2), math.nan, math.inf), ids=str)
    def test_non_integral_npoints(self, npoints):
        with pytest.raises(ValueError, match=f"got {npoints}"):
            gauss_jacobi_rule(npoints, 1.0)

    @pytest.mark.parametrize(("npoints", "k"), ((8, 1e-17), (64, 1e-17), (8, 1e154),
                                                (64, 1e154), (64, 1e-300), (3, 1e308)))
    def test_rules_past_the_float_range(self, npoints, k):
        # The recurrence coefficients underflow to 0 (k near 0: b_2 = 0) or
        # their denominators overflow (large k: b_j = 0, or NaN from 2^1023
        # on): the rule would be NaN, and is refused with k and npoints named.
        # A numpy warning on the way would fail the test (pytest.ini).
        message = rf"{npoints}-node .* k={re.escape(repr(k))} is not finite"
        with pytest.raises(ValueError, match=message):
            gauss_jacobi_rule(npoints, k)


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

    def test_integral_float_npoints_shares_the_int_rule(self):
        assert gauss_jacobi_rule(6.0, 1.25) is gauss_jacobi_rule(6, 1.25)
        assert gauss_jacobi_rule(Fraction(6), 1.25) is gauss_jacobi_rule(6, 1.25)

    def test_stacked_rules_are_cached_one_by_one(self, monkeypatch):
        builds = _spy_builds(monkeypatch)
        u, v = gauss_jacobi_rules(9, (1.0625, 0.6875))
        again = gauss_jacobi_rules(9, (0.6875, 1.0625, 0.6875))
        assert list(map(id, again)) == [id(v), id(u), id(v)]
        assert gauss_jacobi_rule(9, 1.0625) is u and gauss_jacobi_rule(9, 0.6875) is v
        # One uncached k of a stack is built alone, and a repeated k once.
        _, w, w_again = gauss_jacobi_rules(9, (1.0625, 3.0625, 3.0625))
        assert w_again is w and gauss_jacobi_rule(9, 3.0625) is w
        assert builds == [[1.0625, 0.6875], [3.0625]]

    def test_errors_are_not_cached(self, monkeypatch):
        builds = _spy_builds(monkeypatch)
        for _ in range(2):
            with pytest.raises(ValueError):
                gauss_jacobi_rule(0, 1.0)
            with pytest.raises(ValueError):
                gauss_jacobi_rule(4, 0.0)
            with pytest.raises(ValueError):
                gauss_jacobi_rule(4, -1.0)
            with pytest.raises(ValueError):
                gauss_jacobi_rules(4, (1.0, math.nan))
            # A stack with one rule past the float range raises, and keeps
            # none of its rules: the good one is built again next time.
            with pytest.raises(ValueError, match="k=1e-17"):
                gauss_jacobi_rules(8, (1.4375, 1e-17))
        assert builds == [[1.4375, 1e-17]] * 2
        gauss_jacobi_rule(8, 1.4375)
        assert builds[-1] == [1.4375]


def _spy_builds(monkeypatch):
    """The list of the ks of every rule build from now on, on an emptied rule cache."""
    builds, build = [], quadrature._build_rules

    def spy(specs):
        builds.append([kf for _, kf in specs])
        return build(specs)

    _rule_slot.cache_clear()
    monkeypatch.setattr(quadrature, "_build_rules", spy)
    return builds


def _reference_rule(npoints, k):
    """(nodes, weights) of one rule by scalar-coefficient loops over its own nodes:
    the reference whose bits the stacked builder must keep."""
    a = k - 1.0
    j = np.arange(1, npoints + 1, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        b = j * (j + 2 * a) / ((2 * j + 2 * a + 1) * (2 * j + 2 * a - 1))
    b[0] = 1.0 / (2 * a + 3)
    total_mass = even_moment(0, k)
    if npoints == 1:
        return np.zeros(1), np.array([total_mass])
    sb = np.sqrt(b)
    p0 = 1.0 / math.sqrt(total_mass)

    def recurrence(x):
        p_prev, d_prev = np.full_like(x, p0), np.zeros_like(x)
        p_cur, d_cur = x * p_prev / sb[0], p_prev / sb[0]
        total = p_prev * p_prev
        for j in range(1, npoints):
            total += p_cur * p_cur
            p_prev, p_cur = p_cur, (x * p_cur - sb[j - 1] * p_prev) / sb[j]
            d_prev, d_cur = d_cur, (p_prev + x * d_cur - sb[j - 1] * d_prev) / sb[j]
        return p_cur / d_cur, total

    nodes = np.linalg.eigvalsh(np.diag(sb[:-1], -1))
    step, total = recurrence(nodes)
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = 2.0 * k * nodes * step / ((1.0 - nodes) * (1.0 + nodes))
    weights = 1.0 / (total * (1.0 - np.where(np.abs(nodes) < 1.0, shift, 0.0)))
    nodes = nodes - step
    nodes = 0.5 * (nodes - nodes[::-1])
    if npoints % 2 == 1:
        nodes[npoints // 2] = 0.0
    return nodes, 0.5 * (weights + weights[::-1])


class TestStackedAgainstOneRuleLoops:
    """Rules built together have every bit of the same rules built one at a time."""

    KS = (1e-3, 1 / 8, 0.3, 0.5, 1.0, 11 / 4, 24.0, 500.0)

    @pytest.mark.parametrize("npoints", (1, 2, 3, 17, 64, 65, 128))
    def test_bits_on_a_seeded_grid(self, npoints):
        rng = random.Random(npoints)
        stacks = [(k,) for k in self.KS] + [tuple(rng.choices(self.KS, k=size))
                                            for size in (2, 2, 3, 3, 3)]
        stacks += [(0.3, 0.3), (24.0, 1.0, 24.0)]  # a repeated k
        reference = {k: _reference_rule(npoints, k) for k in self.KS}
        for stack in stacks:
            _rule_slot.cache_clear()
            for k, rule in zip(stack, gauss_jacobi_rules(npoints, stack)):
                for got, want in zip((rule.nodes, rule.weights), reference[k]):
                    assert got.tobytes() == want.tobytes(), (npoints, stack, k)
                    assert np.array_equal(np.signbit(got), np.signbit(want))

    SIZES = (1, 2, 3, 8, 16, 17, 32, 64)

    @pytest.mark.parametrize("seed", range(4))
    def test_bits_of_mixed_size_stacks(self, seed):
        # Seeded (npoints, k) stacks built together, then through gauss_jacobi_rules
        # every node count of a tuple for each k, on an emptied rule cache.
        rng = random.Random(seed)
        stacks = [list(dict.fromkeys(zip(rng.choices(self.SIZES, k=size),
                                         rng.choices(self.KS, k=size))))
                  for size in (2, 3, 4, 6, 8)]
        stacks += [[(8, 0.3), (16, 0.3)], [(64, 24.0), (1, 24.0), (17, 24.0), (17, 1.0)]]
        built = [list(zip(stack, quadrature._build_rules(stack))) for stack in stacks]
        counts = tuple(rng.sample(self.SIZES, 2))
        for ks in ((rng.choice(self.KS), 0.3), (24.0, 1.0, 24.0)):  # a repeated k
            _rule_slot.cache_clear()
            specs = [(n, k) for n in counts for k in ks]
            built.append(list(zip(specs, gauss_jacobi_rules(counts, ks))))
        for stack in built:
            for (n, k), rule in stack:
                for got, want in zip((rule.nodes, rule.weights), _reference_rule(n, k)):
                    assert got.tobytes() == want.tobytes(), (n, k, stack)
                    assert np.array_equal(np.signbit(got), np.signbit(want))


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

    @pytest.mark.parametrize("k", (1e-3, 1e-6, 1e-9), ids=str)
    def test_mass_near_k_zero(self, k):
        # Most of the mass sits on the outermost weights, where the Christoffel sum changes
        # fastest between the start and the root (a sum taken at the Newton-corrected node
        # alone is off by up to 3.6e-12 here).
        for n in (16, 64, 256):
            rule = gauss_jacobi_rule(n, k)
            assert math.fsum(rule.weights) == pytest.approx(even_moment(0, k), rel=1e-14), n

    @pytest.mark.parametrize("npoints", (3, 8, 256))
    def test_start_at_the_endpoint(self, npoints):
        # At k = 1e-16 the outermost eigenvalue start is +/-1, where 1 - x^2 = 0: its weight
        # keeps the Christoffel sum at the start, so the rule stays positive and increasing.
        rule = gauss_jacobi_rule(npoints, 1e-16)
        assert np.all(rule.weights > 0) and np.all(np.diff(rule.nodes) > 0)
        assert math.fsum(rule.weights) == pytest.approx(even_moment(0, 1e-16), rel=1e-7)

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

    @pytest.mark.parametrize("k", (Fraction(1, 8), Fraction(3, 10), Fraction(11, 4), Fraction(24),
                                   Fraction(1000, 3), Fraction(10 ** 6)), ids=str)
    def test_exact_parameter_has_the_bits_of_its_float(self, k):
        assert normalization_c(k).hex() == normalization_c(float(k)).hex()
        assert even_moment(5, k).hex() == even_moment(5, float(k)).hex()

    @pytest.mark.parametrize("k", (0, -1, math.inf, math.nan, Fraction(1, 2 ** 1100)), ids=repr)
    def test_parameter_out_of_range_raises_in_every_form(self, k):
        # 2^-1100 rounds to 0.0; a Fraction is checked as the float it rounds to.
        for form in (k, float(k), *([Fraction(k)] if math.isfinite(k) else [])):
            with pytest.raises(ValueError, match=r"finite and at least 2\^-1022, got "):
                normalization_c(form)

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

    # Worst relative error on these nodes at this writing: 1.3e-14 at n = 64 and
    # 3.3e-13 at n = 256, both at k = 1/8; each bound is about 2.5 times its worst.
    @pytest.mark.parametrize(("npoints", "bound"), ((64, 3.5e-14), (256, 8e-13)))
    def test_weights_against_the_christoffel_function_at_the_root(self, npoints, bound):
        # The reference weight is 1 / sum_{j<n} p_j(r)^2 at 40 digits, r the float node
        # refined by Newton on the same orthonormal recurrence, on the 6 outermost and the 6
        # central positive nodes (the others follow by symmetry).
        half = list(range((npoints + 1) // 2, npoints))
        worst = 0.0
        with mpmath.workdps(40):
            for k in (0.125, 1.0):
                rule = gauss_jacobi_rule(npoints, k)
                for i in half[:6] + half[-6:]:
                    root, weight = _mpmath_root_and_weight(npoints, k, rule.nodes[i])
                    assert abs(rule.nodes[i] - root) <= 8 * np.spacing(float(root))
                    worst = max(worst, float(abs(rule.weights[i] - weight) / weight))
        assert worst <= bound, worst

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


def _mpmath_root_and_weight(npoints, k, node):
    """(root, weight) of the npoints-node rule at k next to a float node, in mpmath's precision:
    the node refined by two Newton steps on the orthonormal recurrence (from a few ulps off,
    each squares the error), and 1 / sum_{j<n} p_j(root)^2 at it."""
    a = mpmath.mpf(k) - 1
    b = [1 / (2 * a + 3)] + [j * (j + 2 * a) / ((2 * j + 2 * a + 1) * (2 * j + 2 * a - 1))
                             for j in range(2, npoints + 1)]
    sb, p0 = [mpmath.sqrt(v) for v in b], 1 / mpmath.sqrt(mpmath.beta(0.5, mpmath.mpf(k)))

    def recurrence(x):  # (p_n(x), p_n'(x), sum of p_j(x)^2 for j < n)
        p_prev, p_cur, d_prev, d_cur, s_prev, total = 0, p0, 0, 0, 0, 0
        for s in sb:
            total += p_cur * p_cur
            p_prev, p_cur, d_prev, d_cur = (p_cur, (x * p_cur - s_prev * p_prev) / s,
                                            d_cur, (p_cur + x * d_cur - s_prev * d_prev) / s)
            s_prev = s
        return p_cur, d_cur, total

    root = mpmath.mpf(float(node))
    for _ in range(2):
        p, d, _ = recurrence(root)
        root -= p / d
    return root, 1 / recurrence(root)[2]
