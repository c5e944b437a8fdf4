"""Invariants of the two-variable integral product identity machinery."""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from jackb2 import product
from jackb2.bessel import PoleError, _denominator_table, hyp0f1_two
from jackb2.cli import DEFAULT_PRODUCT_K, _draw_positive
from jackb2.jack import _closed_form_terms, _two_var_coeffs
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
    verify_product_sweep,
    verify_zonal,
    verify_zonal_sweep,
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

    def test_double_eigenvalue_keeps_full_precision(self):
        # At x = y = (t, t) both eigenvalues are t^2 for every u, where the
        # difference alpha^2 - 4 x1 x2 y1 y2 cancels completely (it left both
        # 1.23e-8 off); the sum of squares has no cancellation.
        t = 0.550870036601895
        with mpmath.workdps(50):
            exact = mpmath.mpf(t) ** 2
            for u in (-1.0, -0.4, 0.0, 0.7, 1.0):
                split = eigen_split((t, t), (t, t), u)
                for value in (split.x1_big, split.x2_small):
                    assert abs(value - exact) <= 2 * math.ulp(float(exact)), u

    def test_against_mpmath(self):
        # Seeded points in (0, 3], with a double eigenvalue (x1 = x2, y1 = y2)
        # and a near-double one, at interior and end values of u, each also
        # scaled far out of range; the eigenvalues of the 2x2 product at 50
        # digits are the reference.
        rng = np.random.default_rng(15)
        t = 0.550870036601895
        points = [((t, t), (t, t), 0.0), ((1e154, 1e-300), (1e154, 1e-300), -1.0)]
        for _ in range(60):
            x1, x2, y1, y2 = (3.0 - rng.uniform(0.0, 3.0, size=4)).tolist()
            for u in (float(rng.uniform(-1.0, 1.0)), -1.0, 1.0):
                points += [((x1, x2), (y1, y2), u), ((x1, x1), (y1, y1), u),
                           ((x1, x1 * (1 + 1e-9)), (y2, y2), u)]
        points += [(tuple(v * scale for v in x), tuple(v * scale for v in y), u)
                   for x, y, u in points[2:62] for scale in (1e-140, 1e120)]
        # Components spanning the whole float range: the eigenvalues are
        # (1e300, 1e-300), and the small one must not underflow in the rescale.
        points.append(((1e300, 1e-300), (1.0, 1.0), 0.3))
        worst = 0.0
        with mpmath.workdps(50):
            for x, y, u in points:
                x1, x2, y1, y2, um = (mpmath.mpf(v) for v in (*x, *y, u))
                p, q = 1 + um, 1 - um
                alpha = (x1 * (y1 * p + y2 * q) + x2 * (y1 * q + y2 * p)) / 2
                big = (alpha + mpmath.sqrt(alpha ** 2 - 4 * x1 * x2 * y1 * y2)) / 2
                split = eigen_split(x, y, u)
                for value, exact in ((split.x1_big, big),
                                     (split.x2_small, x1 * x2 * y1 * y2 / big)):
                    worst = max(worst, float(abs(value - exact) / exact))
        assert worst <= 4 * 2.0 ** -52, worst

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

    def test_overflowing_sum_is_a_usage_error(self):
        # Finite components whose alpha overflows: no NaN eigenvalue, and the
        # identity check is a usage error, not a failed identity.
        x = y = (1e200, 1.0)
        with pytest.raises(ValueError, match="overflows"):
            eigen_split(x, y, 0.3)
        with pytest.raises(ValueError, match="overflows"):
            verify_product(Partition((1,)), Fraction(3, 10), x, y, 4, 1e-10)

    def test_sides_past_the_float_range_are_usage_errors(self):
        # alpha stays in range, but P_(2) at these points is about 1e308 on
        # each side, so the left side's product and the right side's
        # closed form leave the float range: no inf, no OverflowError.
        args = (Partition((2,)), Fraction(1), (1e154, 1e-300), (1e154, 1e-300))
        for call in (lambda: product_lhs(*args), lambda: product_rhs(*args, 3),
                     lambda: verify_product(*args, 3, 1e-10)):
            with pytest.raises(ValueError, match="float range"):
                call()
        # Near the edge but in range, both sides keep their bits.
        args = (Partition((2,)), Fraction(1), (1e70, 1e-100), (1e70, 1e-100))
        assert product_lhs(*args) == _ref_product_lhs(*args)
        assert product_rhs(*args, 3) == _ref_product_rhs(*args, 3)

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
# every node goes through the public eigen_split / rotation_conjugate_eigs
# and the normalized closed form, and each side is P_lam(1,1) of the float
# table times the normalized values.  Kept as the reference the sweeps must
# match bit for bit.

def _plain_sum(terms):
    # Left to right from the int 0: sum() of floats on Python 3.10 and 3.11
    # (from 3.12 sum() compensates).
    total = 0
    for term in terms:
        total += term
    return total


def _ref_normalized(lam, k, x1, x2):
    # (P_lam(1,1), P_lam(x1, x2) / P_lam(1,1)) from the float table at float points.
    lam = Partition(lam)
    kv = float(param_value(k))
    ell, m = lam.part(1), lam.part(0) - lam.part(1)
    s = (x1 + x2) * 0.5
    t = (x1 - x2) * 0.5
    at_ones, rows = _two_var_coeffs(m, kv)
    return at_ones[m], (x1 * x2) ** ell * _plain_sum(c * s ** (m - 2 * r) * t ** (2 * r)
                                                     for r, c in enumerate(rows[m]))


def _ref_closed_form(kv, m, ell, points, half):
    # (x1 x2)^ell Pn at each point, term by term in the points' own arithmetic.
    row = _two_var_coeffs(m, kv)[1][m]
    out = []
    for x1, x2 in points:
        s, t = (x1 + x2) * half, (x1 - x2) * half
        out.append((x1 * x2) ** ell * _plain_sum(
            c * s ** (m - 2 * r) * t ** (2 * r) for r, c in enumerate(row)))
    return out


def _ref_at_ones(lam, k):
    # P_lam(1,1) of the float table.
    return _ref_normalized(lam, float(param_value(k)), 1.0, 1.0)[0]


def _ref_eigen_split(x, y, u):
    x1, x2 = finite_nonnegative(x)
    y1, y2 = finite_nonnegative(y)
    u = float(u)
    if not abs(u) <= 1:
        raise ValueError(f"u must lie in [-1, 1], got {u}")
    if y1 < y2:  # swapping both index pairs leaves the pair unchanged
        x1, x2, y1, y2 = x2, x1, y2, y1
    p, q = 1.0 + u, 1.0 - u
    m11 = 0.5 * x1 * (y1 * p + y2 * q)
    m22 = 0.5 * x2 * (y1 * q + y2 * p)
    alpha = m11 + m22
    m12_squared_4 = (x1 * ((y1 - y2) * p)) * (x2 * ((y1 - y2) * q))
    big = 0.5 * (alpha + math.sqrt((m11 - m22) ** 2 + m12_squared_4))
    prod = (x1 * y1) * (x2 * y2) if u >= 0 else (x1 * y2) * (x2 * y1)
    return SplitPair(alpha, big, prod / big)


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
    # Both vectors at their float components, as the report prints them.
    lam = Partition(lam)
    if len(lam) > 2:
        raise ValueError(f"partition {lam} needs more than two variables")
    px = _ref_normalized(lam, k, float(x[0]), float(x[1]))[1]
    py = _ref_normalized(lam, k, float(y[0]), float(y[1]))[1]
    return _ref_at_ones(lam, k) * (px * py)


def _ref_split(x1, x2, y1, y2, u, rescaled=False):
    # The split of one node, with the power-of-two rescale out of range.
    if y1 < y2:
        x1, x2, y1, y2 = x2, x1, y2, y1
    p, q = 1.0 + u, 1.0 - u
    m11, m22 = 0.5 * x1 * (y1 * p + y2 * q), 0.5 * x2 * (y1 * q + y2 * p)
    alpha = m11 + m22
    prod = (x1 * y1) * (x2 * y2) if u >= 0 else (x1 * y2) * (x2 * y1)
    if not (rescaled or prod >= 2.0 ** -960 and alpha <= 2.0 ** 511):
        if not alpha < math.inf:
            raise ValueError(
                "the eigenvalue sum of the conjugated product overflows the float range")
        a = min(-(math.frexp(alpha)[1] // 2), 1023 - math.frexp(max(x1, x2, y1, y2))[1])
        split = _ref_split(*(math.ldexp(v, a) for v in (x1, x2, y1, y2)), u, rescaled=True)
        alpha, big = (math.ldexp(v, -2 * a) for v in split[:2])
        (mant, expo), *factors = (math.frexp(v) for v in (big, x1, x2, y1, y2))
        small = math.prod(m for m, _ in factors) / mant if big > 0 else 0.0
        return alpha, big, math.ldexp(small, sum(e for _, e in factors) - expo)
    d = y1 - y2
    big = 0.5 * (alpha + math.sqrt((m11 - m22) ** 2 + (x1 * (d * p)) * (x2 * (d * q))))
    return alpha, big, prod / big if big > 0 else 0.0


def _ref_rescaled_eigen_split(x, y, u):
    return SplitPair(*_ref_split(*finite_nonnegative(x), *finite_nonnegative(y), float(u)))


def _ref_product_rhs(lam, k, x, y, npoints, rule_for=gauss_jacobi_rule,
                     split_for=_ref_eigen_split):
    lam = Partition(lam)
    if len(lam) > 2:
        raise ValueError(f"partition {lam} needs more than two variables")
    kv = float(param_value(k))
    spread = lam.part(0) - lam.part(1)
    if npoints < (spread + 2) // 2:
        raise ValueError(
            f"npoints={npoints} cannot integrate a degree-{spread} integrand exactly")
    rule = rule_for(npoints, kv)
    splits = (split_for(x, y, u) for u in rule.nodes)
    total = math.fsum(
        w * _ref_normalized(lam, kv, pair.x1_big, pair.x2_small)[1]
        for pair, w in zip(splits, rule.weights)
    )
    return normalization_c(kv) * _ref_at_ones(lam, kv) * total


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
        vals.append(_ref_normalized(lam, 0.5, big, small)[1])
    return _ref_at_ones(lam, 0.5) * math.fsum(vals) / ntheta


def _ref_hyp0f1_two(mu_order, k, x, y, max_degree):
    # hyp0f1_two with the closed form evaluated once per row and argument,
    # each a separate generator sum over the row, row d when the sum reaches
    # degree d.
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    x1, x2 = (float(v) for v in x)
    y1, y2 = (float(v) for v in y)
    if not all(abs(v) < math.inf for v in (mu_order, k, x1, x2, y1, y2)):
        raise ValueError(f"mu, k, x and y must be finite, got {mu_order}, {k}, {x}, {y}")
    kv = param_value(k)
    entries = itertools.chain(*_denominator_table(mu_order, kv, max_degree))

    def closed_form(coeffs, m, v1, v2):
        s = (v1 + v2) * 0.5
        t = (v1 - v2) * 0.5
        return _plain_sum(c * s ** (m - 2 * r) * t ** (2 * r) for r, c in enumerate(coeffs))

    try:
        at_ones, rows = _two_var_coeffs(max_degree, float(kv))
        px, py, qx, qy = x1 * x2, y1 * y2, [], []
        terms = []
        for d in range(max_degree + 1):
            qx.append(closed_form(rows[d], d, x1, x2))
            qy.append(closed_form(rows[d], d, y1, y2))
            layer = []
            for ell in range(d // 2 + 1):
                denom = next(entries)
                m = d - 2 * ell
                num = at_ones[m] * ((px ** ell * qx[m]) * (py ** ell * qy[m]))
                if num == 0.0:
                    continue
                if denom == 0.0:
                    raise PoleError(f"Pochhammer factor vanishes for "
                                    f"{Partition((m + ell, ell))} at order {mu_order}")
                layer.append(num / denom)
            terms.extend(layer)
        value = math.fsum(terms)
        if math.isfinite(value):
            return value, math.fsum(abs(v) for v in layer)
    except (OverflowError, ValueError):
        pass
    raise ValueError(f"max_degree={max_degree} takes the float series past the float "
                     "range; lower it or use the double integral (--method double-integral)")


def _outcome(call):
    """The float.hex of each value call() returns, or the type and message it raises."""
    try:
        result = call()
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, float):
        return result.hex()
    return [v.hex() if isinstance(v, float) else repr(v) for v in result]


def _range_outcome(message, call):
    """_outcome of call, where an overflow or a non-finite value is the ValueError with
    message."""
    outcome = _outcome(call)
    overflowed = outcome[0] == "OverflowError" if isinstance(outcome, tuple) \
        else not math.isfinite(float.fromhex(outcome))
    return ("ValueError", message) if overflowed else outcome


def _side_outcome(side, call):
    """_outcome of one side of the product identity, where an overflow or a
    non-finite value is that side's float-range error."""
    return _range_outcome(f"the {side} side of the product identity overflows the float "
                          "range (about 1.8e308) at these points; take smaller coordinates", call)


def _zonal_outcome(call):
    """_outcome of a rotation-group average, where an overflow or a non-finite value (the
    trapezoid sum past the float range) is the average's float-range error."""
    return _range_outcome("the rotation-group average overflows the float range (about "
                          "1.8e308) at these points; take smaller coordinates", call)


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
        # Exact points are evaluated at their float components.
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
        # At u = -1, x = y = (1e154, 1e-300) has the double eigenvalue
        # 1e-146, although (x1 + x2)(y1 + y2) is 1e308: alpha must be a sum
        # of nonnegative terms to keep it.  No Gauss-Jacobi node sits at -1,
        # so a rule with only that node is substituted (at u > -1 the pair
        # reaches 1e308, and its square overflows the closed form).
        wide = (1e154, 1e-300)
        for fn in (eigen_split, _ref_eigen_split):
            split = fn(wide, wide, -1.0)
            assert (split.x1_big, split.x2_small) == (1e-146, 1e-146)
        rule = QuadratureRule(1.0, np.array([-1.0]), np.array([2.0]))
        monkeypatch.setattr(product, "gauss_jacobi_rule", lambda n, k: rule)
        assert product_rhs((2,), Fraction(1), wide, wide, 3) == \
            _ref_product_rhs((2,), Fraction(1), wide, wide, 3, rule_for=lambda n, k: rule)

    # Exact, float and mixed vectors in one sweep: each takes the float row at
    # its float components.
    MIXED = [((Fraction(7, 3), Fraction(1, 5)), (0.4, 2.1)),
             ((1.5, 0.25), (Fraction(2), 3)),
             ((Fraction(1, 2), 0.75), (2, Fraction(9, 4))),
             ((1, 2), (3, Fraction(1, 4))),
             (np.array([0.3, 2.2]), (np.float64(1.1), 0.6))]

    @pytest.mark.parametrize("k", KS, ids=str)
    def test_mixed_exact_and_float_points(self, k):
        for lam in self.LAMS:
            npoints = lam.weight + 4
            expect = [make_report(
                _ref_product_lhs(lam, k, x, y), _ref_product_rhs(lam, k, x, y, npoints), 1e-10,
                identity="product", **{"lambda": list(lam)}, k=str(k),
                x=[float(v) for v in x], y=[float(v) for v in y], npoints=npoints)
                for x, y in self.MIXED]
            assert repr(verify_product_sweep(lam, k, self.MIXED, npoints, 1e-10)) == \
                repr(expect), lam

    # Points whose split takes the power-of-two rescale: a pair spanning the
    # float range (the closed form overflows past the first degrees), one
    # whose products underflow, and a zero component.
    RESCALED = {"wide": ((1e154, 1e-300), (1e154, 1e-300)),
                "tiny": ((1.55e-132, 1.55e-132), (1.55e-132, 1.55e-132)),
                "zero": ((0.0, 1.3), (2.0, 0.5))}

    @pytest.mark.parametrize("kind", RESCALED)
    def test_rescaled_points_in_a_sweep(self, kind):
        point = self.RESCALED[kind]
        points = [((1.2, 0.4), (0.9, 2.5)), point, ((0.0, 0.0), (3.0, 1.0)), point[::-1]]
        for lam in self.LAMS:
            npoints = lam.weight + 4
            for k in (Fraction(1), 0.7, Fraction(1, 2)):
                lhs = [_side_outcome("left", lambda: _ref_product_lhs(lam, k, x, y))
                       for x, y in points]
                if k == Fraction(1, 2):
                    sweep = lambda: verify_zonal_sweep(lam, points, 16, 1e-10)  # noqa: E731
                    rhs = [_zonal_outcome(lambda: _ref_zonal_so2_average(lam, x, y, 16))
                           for x, y in points]
                else:
                    sweep = lambda: verify_product_sweep(  # noqa: E731
                        lam, k, points, npoints, 1e-10)
                    rhs = [_side_outcome("right", lambda: _ref_product_rhs(
                        lam, k, x, y, npoints, split_for=_ref_rescaled_eigen_split))
                        for x, y in points]
                errors = [o for o in lhs + rhs if isinstance(o, tuple)]
                expect = errors[0] if errors else [v for pair in zip(lhs, rhs) for v in pair]
                got = _outcome(lambda: [v for r in sweep() for v in (r.lhs, r.rhs)])
                assert got == expect, (lam, k)

    def test_closed_form_batch_matches_per_point_sums(self):
        # 20,000 points, so that some s**2 and t**2 round differently from
        # s*s and t*t (about one in 1,200 here): the batch must keep every
        # term c * s**i * t**j and the left-to-right sum, for one row and for
        # a block of rows alike.
        rng = np.random.default_rng(5)
        points = [tuple(p) for p in rng.uniform(-3.0, 3.0, size=(20000, 2)).tolist()]
        exact = [(Fraction(a, 7), Fraction(b, 5))
                 for a, b in rng.integers(-20, 20, size=(40, 2)).tolist()]
        for kv, half, batch in ((0.7, 0.5, points), (Fraction(7, 3), Fraction(1, 2), exact)):
            for lo, hi in ((0, 0), (1, 1), (2, 2), (3, 3), (7, 7), (12, 12), (0, 12), (5, 9)):
                for ell in (0, 2):
                    got = _closed_form_terms(kv, lo, hi, ell, batch).tolist()
                    for m in range(lo, hi + 1):
                        expect = _ref_closed_form(kv, m, ell, batch, half)
                        assert [repr(v[m - lo]) for v in got] == [repr(v) for v in expect], \
                            (lo, hi, m, ell)

    # Points of every scalar kind a caller may pass: each is evaluated with its
    # own arithmetic (np.float32 stays float32, a complex stays complex), as a
    # per-term loop over the same values does.
    SCALARS = [(np.float32(0.5), 1), (1, np.float32(1.25)), (np.int64(3), 1), (1 + 0j, 0.5),
               (Fraction(1, 2), np.float64(0.75)), (np.float64(-0.3), np.float64(2.0)),
               (True, Fraction(2, 3)), (-0.0, -0.0), (0.0, -0.0), (-1e-200, 1e-200)]

    @pytest.mark.parametrize("kv", (1.5, Fraction(3, 2)), ids=str)
    def test_closed_form_keeps_each_scalar_kind(self, kv):
        half = 0.5 if isinstance(kv, float) else Fraction(1, 2)
        for point in self.SCALARS:
            for lo, hi, ell in ((4, 4, 0), (5, 5, 1), (0, 9, 2), (33, 33, 1)):
                if isinstance(kv, Fraction) and not all(
                        isinstance(v, (int, Fraction)) for v in point):
                    continue
                got = _closed_form_terms(kv, lo, hi, ell, [point]).tolist()[0]
                expect = [_ref_closed_form(kv, m, ell, [point], half)[0]
                          for m in range(lo, hi + 1)]
                assert [(type(v), repr(v)) for v in got] == \
                    [(type(v), repr(v)) for v in expect], (point, lo, hi, ell)

    def test_closed_form_overflow_is_the_loop_overflow(self):
        # A finite coordinate whose power leaves the float range raises
        # OverflowError, in a batch as in a per-term loop; an infinite s or t
        # gives inf or nan without raising, as ** does.
        for points in ([(1.0, 2.0), (1e300, 1e10)], [(1e200, -1e200)], [(1e300, 1e300)],
                       [(1e308, 1e308)], [(1.5, 0.5)]):
            for lo, hi, ell in ((2, 2, 0), (1, 1, 3), (0, 5, 0)):
                got = _outcome(lambda: [v for p in _closed_form_terms(0.7, lo, hi, ell, points)
                                        .tolist() for v in p])
                expect = _outcome(lambda: [_ref_closed_form(0.7, m, ell, [p], 0.5)[0]
                                           for p in points for m in range(lo, hi + 1)])
                # An error is compared by type: the messages are numpy's and libm's.
                assert (got[0] if isinstance(got, tuple) else got) == \
                    (expect[0] if isinstance(expect, tuple) else expect), (points, lo, hi, ell)

    def test_hyp0f1_two_matches_per_row_loop(self):
        # 200 seeded (mu, k, x, y) with signed coordinates, some of them
        # zero; mu = -2 and -3 put zero Pochhammer factors under the terms.
        rng = np.random.default_rng(17)
        mus = (Fraction(5, 2), Fraction(7, 3), 2.2, Fraction(-2), -3.0, Fraction(13, 8))
        ks = (Fraction(1), Fraction(1, 2), Fraction(3, 8), 0.7, 2.0)
        poles = zeros = 0
        for i in range(200):
            x, y = (tuple(0.0 if rng.random() < 0.15 else v
                          for v in rng.uniform(-2.5, 2.5, size=2).tolist()) for _ in range(2))
            mu, k = mus[i % 6], ks[i % 5]
            zeros += 0.0 in (*x, *y)
            for degree in (0, 1, 30, 40):
                expect = _outcome(lambda: _ref_hyp0f1_two(mu, k, x, y, degree))
                assert _outcome(lambda: hyp0f1_two(mu, k, x, y, degree)) == expect, \
                    (mu, k, x, y, degree)
                poles += expect[0] == "PoleError"
        assert poles and zeros

    def test_hyp0f1_two_block_edges(self):
        # The series evaluates rows in 32-degree blocks: truncations at the
        # last degree of a block, the first of the next, one past it and two
        # blocks, at signed, zero and large coordinates.
        rng = np.random.default_rng(23)
        points = [(tuple(rng.uniform(-2.5, 2.5, size=2).tolist()),
                   tuple(rng.uniform(-2.5, 2.5, size=2).tolist())) for _ in range(3)]
        points += [((0.5, 0.0), (1.0, 0.0)), ((4.0, 3.0), (2.5, 1.0)), ((-0.0, 0.3), (0.2, -0.0))]
        for mu, k in ((Fraction(5, 2), Fraction(1)), (Fraction(13, 8), Fraction(3, 8)),
                      (2.2, 0.7)):
            for x, y in points:
                for degree in (31, 32, 33, 64):
                    expect = _outcome(lambda: _ref_hyp0f1_two(mu, k, x, y, degree))
                    assert _outcome(lambda: hyp0f1_two(mu, k, x, y, degree)) == expect, \
                        (mu, k, x, y, degree)

    def test_hyp0f1_two_at_poles(self):
        # A removable pole: mu - k = -1 puts a zero under every term with
        # ell >= 2, from degree 4 on, and y = (1, 0) makes each of those terms
        # vanish, so the blocks run on past those zeros.  At y = (3600, 0) the
        # rows of y from 87 on are past the float range (their powers are not,
        # up to 94), so the term of (90, 2) is nan over a zero, a pole; the
        # block's row 95 overflows, and the block is taken again.  And a live
        # pole inside the second block, at degree 36.
        for x, y in (((0.5, 0.3), (1.0, 0.0)), ((1.0, 0.0), (-2.0, 0.0)),
                     ((0.5, 0.3), (3600.0, 0.0)), ((0.5, 0.3), (3500.0, 0.0))):
            for degree in (3, 4, 5, 31, 32, 33, 64, 95, 127):
                for mu, k in ((2, 3), (Fraction(1, 2), Fraction(3, 2))):
                    expect = _outcome(lambda: _ref_hyp0f1_two(mu, k, x, y, degree))
                    assert _outcome(lambda: hyp0f1_two(mu, k, x, y, degree)) == expect, \
                        (mu, k, x, y, degree)
        live = ((0.5, 0.3), (0.7, 0.2))
        for mu, degree in ((Fraction(-35), 40), (Fraction(-35), 64)):
            expect = _outcome(lambda: _ref_hyp0f1_two(mu, Fraction(1), *live, degree))
            assert expect[0] == "PoleError" and "Partition((36,))" in expect[1]
            assert _outcome(lambda: hyp0f1_two(mu, Fraction(1), *live, degree)) == expect


class TestCaseSweepsAgainstPerPointReports:
    """A sweep over a case's samples against the per-point reports built from
    the reference loops above, field for field, on the CLI's own draws."""

    CASES = [(Partition((1,)), Fraction(1, 2)), (Partition((3, 1)), Fraction(1)),
             (Partition((5, 2)), Fraction(11, 4)), (Partition((8,)), Fraction(3, 2)),
             (Partition((4, 4)), 0.7)]

    @staticmethod
    def _draws(seed):
        rng = np.random.default_rng(seed)
        return _draw_positive(rng, 50)

    @pytest.mark.parametrize("lam, k", CASES, ids=str)
    def test_product_sweep(self, lam, k):
        points = self._draws(lam.weight)
        npoints = lam.weight + 4
        expect = [make_report(
            _ref_product_lhs(lam, k, x, y), _ref_product_rhs(lam, k, x, y, npoints), 1e-10,
            identity="product", **{"lambda": list(lam)}, k=str(k),
            x=[float(v) for v in x], y=[float(v) for v in y], npoints=npoints)
            for x, y in points]
        assert verify_product_sweep(lam, k, points, npoints, 1e-10) == expect
        assert verify_product_sweep(lam, k, iter(points), npoints, 1e-10) == expect

    @pytest.mark.parametrize("lam", [lam for lam, _ in CASES], ids=str)
    def test_zonal_sweep(self, lam):
        points = self._draws(100 + lam.weight)
        expect = [make_report(
            _ref_product_lhs(lam, Fraction(1, 2), x, y), _ref_zonal_so2_average(lam, x, y, 64),
            1e-10, identity="zonal-average", **{"lambda": list(lam)},
            x=[float(v) for v in x], y=[float(v) for v in y], ntheta=64)
            for x, y in points]
        assert verify_zonal_sweep(lam, points, 64, 1e-10) == expect

    def test_every_point_is_checked(self):
        points = self._draws(3)
        points[2] = ((1.0, math.nan), (1.0, 2.0))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            verify_product_sweep((2, 1), Fraction(1), points, 7, 1e-10)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            verify_zonal_sweep((2, 1), points, 64, 1e-10)
