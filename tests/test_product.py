"""Invariants of the two-variable integral product identity machinery."""

import math
from fractions import Fraction

import numpy as np
import pytest

from jackb2 import product
from jackb2.cli import DEFAULT_PRODUCT_K
from jackb2.jack import _two_var_coeffs
from jackb2.partitions import Partition, param_value, partitions_of_weight
from jackb2.product import (
    SplitPair,
    eigen_split,
    finite_nonnegative,
    make_report,
    product_lhs,
    product_rhs,
    rotation_conjugate_eigs,
    verify_product,
    verify_zonal,
    zonal_so2_average,
)
from jackb2.quadrature import QuadratureRule, gauss_jacobi_rule, normalization_c


class TestEigenSplit:
    X = (2.0, 0.7)
    Y = (1.3, 0.4)

    def test_matches_rotation_conjugation(self):
        # X1(u), X2(u) at u = cos(2 theta) are the eigenvalues of the
        # rotated-diagonal product matrix.
        for theta in np.linspace(0.0, math.pi, 65):
            split = eigen_split(self.X, self.Y, math.cos(2 * theta))
            e1, e2 = rotation_conjugate_eigs(self.X, self.Y, theta)
            assert split.x1_big == pytest.approx(e1, abs=1e-12)
            assert split.x2_small == pytest.approx(e2, abs=1e-12)

    def test_invariants_of_the_pair(self):
        for u in (-1.0, -0.3, 0.0, 0.9, 1.0):
            split = eigen_split(self.X, self.Y, u)
            assert split.x1_big >= split.x2_small > 0
            product = self.X[0] * self.X[1] * self.Y[0] * self.Y[1]
            assert split.x1_big * split.x2_small == pytest.approx(product, rel=1e-14)
            assert split.x1_big + split.x2_small == pytest.approx(split.alpha_split, rel=1e-14)

    def test_endpoint_values(self):
        # u = 1 pairs the components directly, u = -1 crosses them; the
        # split always reports the larger eigenvalue first.
        split = eigen_split(self.X, self.Y, 1.0)
        assert split.x1_big == pytest.approx(self.X[0] * self.Y[0], rel=1e-14)
        assert split.x2_small == pytest.approx(self.X[1] * self.Y[1], rel=1e-14)
        split = eigen_split(self.X, self.Y, -1.0)
        crossed = sorted((self.X[0] * self.Y[1], self.X[1] * self.Y[0]))
        assert split.x2_small == pytest.approx(crossed[0], rel=1e-14)
        assert split.x1_big == pytest.approx(crossed[1], rel=1e-14)

    def test_zero_component_allowed(self):
        split = eigen_split((0.0, 1.0), self.Y, 0.5)
        assert split.x2_small == 0.0

    def test_tiny_arguments_keep_both_eigenvalues(self):
        # Found by a random search of the product identity: at x = y = (t, t)
        # both eigenvalues are t^2 for every u, but alpha^2 and x1 x2 y1 y2
        # underflow to 0 and the unscaled split reports (t^2, 0).
        t = 1.5521762906262642e-132
        split = eigen_split((t, t), (t, t), 0.0)
        assert split.x2_small == pytest.approx(t * t, rel=1e-14, abs=0)

    @pytest.mark.parametrize("scale", (1e-132, 1e-100, 1e80, 1e150), ids=str)
    def test_out_of_range_split_matches_the_scaled_pair(self, scale):
        # alpha^2 or x1 x2 y1 y2 leaves the normal range at every scale here:
        # the eigenvalues must still scale by scale^2, and the product
        # identity must still hold.
        x, y = (2.0 * scale, 0.7 * scale), (1.3 * scale, 0.4 * scale)
        ref = eigen_split((2.0, 0.7), (1.3, 0.4), 0.3)
        split = eigen_split(x, y, 0.3)
        assert split.x1_big == pytest.approx(ref.x1_big * scale * scale, rel=1e-14, abs=0)
        assert split.x2_small == pytest.approx(ref.x2_small * scale * scale, rel=1e-14, abs=0)
        assert verify_product(Partition((1,)), Fraction(1), x, y, 5, 1e-10).passed

    def test_validation(self):
        with pytest.raises(ValueError):
            eigen_split(self.X, self.Y, 1.5)
        with pytest.raises(ValueError):
            eigen_split((-0.1, 1.0), self.Y, 0.5)
        with pytest.raises(ValueError):
            eigen_split(self.X, (-1.0, 1.0), 0.5)
        # NaN and inf are usage errors too: NaN fails every comparison, so
        # a plain sign test would let it through.
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                eigen_split((bad, 1.0), self.Y, 0.3)
            with pytest.raises(ValueError):
                eigen_split(self.X, (1.0, bad), 0.3)
            with pytest.raises(ValueError):
                rotation_conjugate_eigs((bad, 1.0), self.Y, 0.3)
        with pytest.raises(ValueError):
            eigen_split(self.X, self.Y, math.nan)
        with pytest.raises(ValueError):
            verify_product((2, 1), Fraction(1), (math.nan, 1.0), self.Y, 7, 1e-10)


class TestProductIdentity:
    def test_seeded_sweep(self):
        rng = np.random.default_rng(7)
        for lam in ((1,), (2,), (2, 1), (3, 2), (4,)):
            for k in (Fraction(1, 2), Fraction(1), Fraction(11, 4)):
                x = tuple(3.0 - rng.uniform(0.0, 3.0, size=2))
                y = tuple(3.0 - rng.uniform(0.0, 3.0, size=2))
                report = verify_product(lam, k, x, y, npoints=sum(lam) + 4, tol=1e-10)
                assert report.passed, report.to_json()

    def test_rhs_symmetric_in_x_and_y(self):
        lam, k = (3, 1), Fraction(3, 2)
        x, y = (1.5, 0.2), (2.4, 0.9)
        assert product_rhs(lam, k, x, y, 12) == product_rhs(lam, k, y, x, 12)

    def test_rhs_exactly_invariant_under_swapping_one_pair(self):
        # Swapping y1 and y2 reflects the integrand u -> -u; the rule is
        # exactly mirror-symmetric and fsum is order-independent, so the
        # two floating-point results are identical.
        lam, k = (4, 1), Fraction(1, 2)
        x = (1.7, 0.3)
        assert product_rhs(lam, k, x, (2.2, 0.8), 11) == product_rhs(lam, k, x, (0.8, 2.2), 11)

    def test_rhs_homogeneous_in_x(self):
        lam, k, t = (3, 1), Fraction(1), 1.75
        x, y = (1.2, 0.5), (2.0, 0.3)
        scaled = product_rhs(lam, k, (t * x[0], t * x[1]), y, 10)
        plain = product_rhs(lam, k, x, y, 10)
        assert scaled == pytest.approx(t ** sum(lam) * plain, rel=1e-13)

    @pytest.mark.parametrize("bad", ((math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0)))
    def test_lhs_rejects_what_the_rhs_rejects(self, bad):
        lam, k, good = (2, 1), Fraction(1), (1.2, 0.5)
        for x, y in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                product_lhs(lam, k, x, y)
            with pytest.raises(ValueError, match="finite and nonnegative"):
                product_rhs(lam, k, x, y, 7)

    def test_rejects_insufficient_nodes(self):
        with pytest.raises(ValueError):
            product_rhs((8,), Fraction(1), (1.0, 0.5), (2.0, 1.0), 2)

    def test_lhs_is_normalized_product(self):
        lam, k = (2, 1), Fraction(1, 2)
        x, y = (1.1, 0.4), (0.9, 0.2)
        from jackb2.jack import jack_p_at_ones, jack_p_two_var
        expect = (float(jack_p_two_var(lam, k, *x)) * float(jack_p_two_var(lam, k, *y))
                  / float(jack_p_at_ones(lam, k, 2)))
        assert product_lhs(lam, k, x, y) == pytest.approx(expect, rel=1e-15)


class TestZonalAverage:
    X = (1.1, 0.3)
    Y = (2.0, 0.5)

    def test_determinant_partition_is_exact(self):
        # P_(1,1) of the eigenvalue pair is their product, the determinant,
        # which every rotation preserves.
        avg = zonal_so2_average((1, 1), self.X, self.Y, ntheta=8)
        det = self.X[0] * self.X[1] * self.Y[0] * self.Y[1]
        assert avg == pytest.approx(det, rel=1e-13)

    def test_single_box_low_harmonics(self):
        avg = zonal_so2_average((1,), self.X, self.Y, ntheta=64)
        expect = 0.5 * (self.X[0] + self.X[1]) * (self.Y[0] + self.Y[1])
        assert avg == pytest.approx(expect, rel=1e-12)

    def test_matches_product_lhs(self):
        lam = (4,)
        avg = zonal_so2_average(lam, (2.0, 1.0), (3.0, 1.0), ntheta=256)
        lhs = product_lhs(lam, Fraction(1, 2), (2.0, 1.0), (3.0, 1.0))
        assert avg == pytest.approx(lhs, rel=1e-10)

    def test_report_compares_lhs_with_average(self):
        rep = verify_zonal((3, 1), self.X, self.Y, 256, 1e-10)
        assert rep.lhs == product_lhs((3, 1), Fraction(1, 2), self.X, self.Y)
        assert rep.rhs == zonal_so2_average((3, 1), self.X, self.Y, 256)
        assert rep.passed
        assert rep.to_json()["lambda"] == [3, 1]


class TestReports:
    def test_pass_and_context(self):
        report = make_report(2.0, 2.0 + 1e-13, 1e-10, identity="demo", npoints=7)
        assert report.passed
        doc = report.to_json()
        assert doc["identity"] == "demo"
        assert doc["npoints"] == 7
        assert doc["pass"] is True
        assert doc["rel_err"] == pytest.approx(5e-14, rel=1e-2)

    def test_fail_when_out_of_tolerance(self):
        report = make_report(1.0, 1.1, 1e-10, identity="demo")
        assert not report.passed

    def test_tiny_lhs_uses_absolute_error(self):
        report = make_report(0.0, 1e-14, 1e-10, identity="demo")
        assert report.passed


# The per-node sweeps as they were before they moved onto the float cores:
# every node went through the public eigen_split / rotation_conjugate_eigs
# and the public closed form, and P_lam(1,1) was the exact closed form at
# (1, 1).  Kept as the reference the sweeps must match bit for bit.

def _ref_jack_p_two_var(lam, k, x1, x2):
    lam = Partition(lam)
    kv = param_value(k)
    ell, m = lam.part(1), lam.part(0) - lam.part(1)
    exact = all(isinstance(v, (int, Fraction)) for v in (kv, x1, x2))
    if exact:
        kv, half = Fraction(kv), Fraction(1, 2)
    else:
        kv, half = float(kv), 0.5
    s = (x1 + x2) * half
    t = (x1 - x2) * half
    return (x1 * x2) ** ell * sum(c * s ** (m - 2 * r) * t ** (2 * r)
                                  for r, c in enumerate(_two_var_coeffs(m, kv, exact)))


def _ref_eigen_split(x, y, u):
    x1, x2 = finite_nonnegative(x)
    y1, y2 = finite_nonnegative(y)
    u = float(u)
    if not abs(u) <= 1:
        raise ValueError(f"u must lie in [-1, 1], got {u}")
    alpha = 0.5 * ((x1 + x2) * (y1 + y2) + (x1 - x2) * (y1 - y2) * u)
    prod = x1 * x2 * y1 * y2
    disc = alpha * alpha - 4.0 * prod
    if disc < 0:
        if disc < -1e-12 * max(alpha * alpha, 1e-300):
            raise ArithmeticError(f"discriminant {disc} below the rounding floor")
        disc = 0.0
    big = 0.5 * (alpha + math.sqrt(disc))
    small = prod / big if big > 0 else 0.0
    return SplitPair(alpha, big, small)


def _ref_rotation_conjugate_eigs(x, y, theta):
    x1, x2 = finite_nonnegative(x)
    y1, y2 = finite_nonnegative(y)
    c, s = math.cos(theta), math.sin(theta)
    m11 = x1 * y1 * c * c + x1 * y2 * s * s
    m22 = x2 * y2 * c * c + x2 * y1 * s * s
    m12 = math.sqrt(x1 * x2) * (y1 - y2) * c * s
    tr = m11 + m22
    det = m11 * m22 - m12 * m12
    disc = max(tr * tr - 4.0 * det, 0.0)
    big = 0.5 * (tr + math.sqrt(disc))
    small = det / big if big > 0 else 0.0
    return big, small


def _ref_product_lhs(lam, k, x, y):
    lam = Partition(lam)
    if len(lam) > 2:
        raise ValueError(f"partition {lam} needs more than two variables")
    px = _ref_jack_p_two_var(lam, k, x[0], x[1])
    py = _ref_jack_p_two_var(lam, k, y[0], y[1])
    return float(px) * float(py) / float(_ref_jack_p_two_var(lam, k, 1, 1))


def _ref_product_rhs(lam, k, x, y, npoints, rule_for=gauss_jacobi_rule):
    lam = Partition(lam)
    if len(lam) > 2:
        raise ValueError(f"partition {lam} needs more than two variables")
    kv = float(param_value(k))
    spread = lam.part(0) - lam.part(1)
    if npoints < (spread + 2) // 2:
        raise ValueError(
            f"npoints={npoints} cannot integrate a degree-{spread} integrand exactly")
    rule = rule_for(npoints, kv)
    splits = (_ref_eigen_split(x, y, u) for u in rule.nodes)
    total = math.fsum(
        w * _ref_jack_p_two_var(lam, kv, pair.x1_big, pair.x2_small)
        for pair, w in zip(splits, rule.weights)
    )
    return normalization_c(kv) * total


def _ref_zonal_so2_average(lam, x, y, ntheta):
    lam = Partition(lam)
    if len(lam) > 2:
        raise ValueError(f"partition {lam} needs more than two variables")
    if ntheta < 1:
        raise ValueError("ntheta must be positive")
    vals = []
    for j in range(ntheta):
        theta = 2.0 * math.pi * j / ntheta
        big, small = _ref_rotation_conjugate_eigs(x, y, theta)
        vals.append(_ref_jack_p_two_var(lam, 0.5, big, small))
    return math.fsum(vals) / ntheta


class TestSweepsAgainstPerNodeLoop:
    LAMS = [lam for d in range(9) for lam in partitions_of_weight(d, 2)]
    KS = list(DEFAULT_PRODUCT_K) + [0.7]

    @staticmethod
    def _points(seed):
        # Five pairs in (0, 3] as the CLI draws them: numpy slices for the
        # first three, Python-float tuples for the last two.
        rng = np.random.default_rng(seed)
        pairs = []
        for i in range(5):
            draw = 3.0 - rng.uniform(0.0, 3.0, size=4)
            x, y = draw[:2], draw[2:]
            pairs.append((x, y) if i < 3 else (tuple(x.tolist()), tuple(y.tolist())))
        return pairs

    @pytest.mark.parametrize("k", KS, ids=str)
    def test_product_sides_are_bit_equal(self, k):
        for i, lam in enumerate(self.LAMS):
            for x, y in self._points(100 + i):
                assert product_lhs(lam, k, x, y) == _ref_product_lhs(lam, k, x, y), (lam, x, y)
                for npoints in (lam.weight + 4, 2 * lam.weight + 13):
                    assert product_rhs(lam, k, x, y, npoints) == \
                        _ref_product_rhs(lam, k, x, y, npoints), (lam, x, y, npoints)
                u = float(x[0] - y[1]) / 3.0
                assert eigen_split(x, y, u) == _ref_eigen_split(x, y, u)

    def test_lhs_at_exact_points_is_bit_equal(self):
        x, y = (Fraction(7, 3), Fraction(1, 5)), (Fraction(2), Fraction(9, 4))
        for k in self.KS:
            for lam in self.LAMS:
                assert product_lhs(lam, k, x, y) == _ref_product_lhs(lam, k, x, y)

    @pytest.mark.parametrize("ntheta", (8, 256))
    def test_zonal_average_is_bit_equal(self, ntheta):
        for i, lam in enumerate(self.LAMS):
            for x, y in self._points(200 + i):
                assert zonal_so2_average(lam, x, y, ntheta) == \
                    _ref_zonal_so2_average(lam, x, y, ntheta), (lam, x, y)
                theta = float(x[1]) * math.pi
                assert rotation_conjugate_eigs(x, y, theta) == \
                    _ref_rotation_conjugate_eigs(x, y, theta)

    def test_same_exceptions(self, monkeypatch):
        x, y = (1.5, 0.5), (2.0, 0.25)
        cases = [
            ((8,), Fraction(1), x, y, 4),                 # too few nodes
            ((2, 1, 1), Fraction(1), x, y, 7),            # three parts
            ((2, 1), Fraction(0), x, y, 7),               # k not positive
            ((2, 1), Fraction(1), (math.nan, 1.0), y, 7),
            ((2, 1), Fraction(1), x, (1.0, -2.0), 7),
        ]
        for args in cases:
            for fn in (product_rhs, _ref_product_rhs):
                with pytest.raises(ValueError):
                    fn(*args)
        for fn in (zonal_so2_average, _ref_zonal_so2_average):
            with pytest.raises(ValueError):
                fn((2, 1), x, y, 0)
            with pytest.raises(ValueError):
                fn((1, 1, 1), x, y, 8)
        # At u = -1, x = y = (1e154, 1e-300) cancels alpha to 0 while the
        # product stays 1e-292: the discriminant floor.  No Gauss-Jacobi
        # node sits at -1, so a rule with one is substituted.
        wide = (1e154, 1e-300)
        for fn in (eigen_split, _ref_eigen_split):
            with pytest.raises(ArithmeticError, match="rounding floor"):
                fn(wide, wide, -1.0)
        rule = QuadratureRule(1.0, np.array([-1.0, 0.0, 1.0]), np.array([0.5, 1.0, 0.5]))
        monkeypatch.setattr(product, "gauss_jacobi_rule", lambda n, k: rule)
        with pytest.raises(ArithmeticError, match="rounding floor"):
            product_rhs((2,), Fraction(1), wide, wide, 3)
        with pytest.raises(ArithmeticError, match="rounding floor"):
            _ref_product_rhs((2,), Fraction(1), wide, wide, 3, rule_for=lambda n, k: rule)
