"""Invariants of the two-variable integral product identity machinery."""

import math
from fractions import Fraction

import numpy as np
import pytest

from jackb2.product import (
    eigen_split,
    make_report,
    product_lhs,
    product_rhs,
    rotation_conjugate_eigs,
    verify_product,
    verify_zonal,
    zonal_so2_average,
)


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
