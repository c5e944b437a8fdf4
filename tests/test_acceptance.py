"""Acceptance sweep: twelve end-to-end checks at their contractual tolerances.

Each test prints exactly one PASS/FAIL line (visible with -s or in captured
output) and then asserts, so a red run still shows the measured numbers.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from jackb2.bessel import (
    Multiplicity,
    Poly2,
    bessel_product_identity,
    bessel_rotation_symmetry,
    check_rotation_intertwining,
    resolve_double_integral_order,
    verify_limit_transition,
    verify_series_vs_double_integral,
    verify_single_integral,
)
from jackb2.jack import jack_p, jack_p_two_var, jack_recursion_lift
from jackb2.partitions import (
    Partition,
    eigenvalue_e,
    hook_product_h,
    partitions_of_weight,
)
from jackb2.product import verify_product, verify_zonal
from jackb2.quadrature import even_moment, gauss_jacobi_rule
from jackb2.sympoly import MonomialExpansion, apply_lb_operator

SEED = 42


def two_row_partitions(max_weight):
    out = []
    for d in range(max_weight + 1):
        out.extend(partitions_of_weight(d, 2))
    return out


def report(index, name, passed, detail):
    print(f"ACCEPTANCE {index:02d} {'PASS' if passed else 'FAIL'} {name}: {detail}")


def test_01_product_formula():
    rng = np.random.default_rng(SEED)
    points = [tuple(3.0 - rng.uniform(0.0, 3.0, size=4)) for _ in range(50)]
    worst = (0.0, None)
    for k in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(11, 4)):
        for lam in two_row_partitions(8):
            npoints = lam.weight + 4
            for quad in points:
                rep = verify_product(lam, k, quad[:2], quad[2:], npoints, 1e-10)
                if rep.rel_err > worst[0]:
                    worst = (rep.rel_err, (tuple(lam), str(k)))
    passed = worst[0] <= 1e-10
    report(1, "two-variable integral product formula", passed,
           f"worst rel err {worst[0]:.3e} at (lambda, k) = {worst[1]}, "
           f"50 seeded points, tol 1e-10")
    assert passed


def test_02_exact_eigenfunction():
    checked = 0
    for n in (2, 3):
        lams = [lam for d in range(9) for lam in partitions_of_weight(d, n)]
        for k in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(7, 3)):
            for lam in lams:
                expansion = jack_p(lam, k, n).expansion
                image = apply_lb_operator(expansion, k)
                assert image == expansion.scaled(eigenvalue_e(lam, k, n)), (lam, k, n)
                checked += 1
    report(2, "operator eigenfunction identity (exact rationals)", True,
           f"{checked} (lambda, k, n) triples, |lambda| <= 8, n in {{2,3}}")


def test_03_closed_form_vs_solver():
    points = ((Fraction(3, 2), Fraction(2, 3)), (Fraction(7, 5), Fraction(1, 3)))
    checked = 0
    for k in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(7, 3)):
        for lam in two_row_partitions(8):
            poly = jack_p(lam, k, 2)
            for x in points:
                assert jack_p_two_var(lam, k, x[0], x[1]) == poly.evaluate(x), (lam, k, x)
                checked += 1
    report(3, "two-variable closed form vs triangular solver (exact)", True,
           f"{checked} exact rational comparisons, |lambda| <= 8")


def test_04_normalization_sum():
    checked = 0
    for n in (2, 3):
        for k in (Fraction(1, 2), Fraction(7, 3)):
            for d in range(7):
                total = MonomialExpansion(n, {})
                for lam in partitions_of_weight(d, n):
                    scale = Fraction(math.factorial(d)) / hook_product_h(lam, k)
                    total = total.plus(jack_p(lam, k, n).expansion.scaled(scale))
                expect = {
                    Partition(mu): Fraction(math.factorial(d))
                    / math.prod(math.factorial(p) for p in mu)
                    for mu in partitions_of_weight(d, n)}
                assert total.coeffs == expect, (n, k, d)
                checked += 1
    report(4, "C-normalization sums to the power of e1 (exact)", True,
           f"{checked} (n, k, d) combinations, d <= 6")


def test_05_recursion_lift_three_variables():
    rng = np.random.default_rng(SEED)
    points = []
    while len(points) < 10:
        x = np.sort(rng.uniform(0.0, 3.0, size=3))
        if x[0] > 0 and np.all(np.diff(x) > 0):
            points.append(tuple(float(v) for v in x))
    worst = (0.0, None)
    for k in (Fraction(1, 2), Fraction(1), Fraction(2)):
        for lam in two_row_partitions(6):
            for x in points:
                got = jack_recursion_lift(lam, k, x)
                expect = float(jack_p(lam, k, 3).evaluate(x))
                rel = abs(got - expect) / abs(expect)
                if rel > worst[0]:
                    worst = (rel, (tuple(lam), str(k)))
    passed = worst[0] <= 1e-8
    report(5, "integral recursion lift to three variables", passed,
           f"worst rel err {worst[0]:.3e} at (lambda, k) = {worst[1]}, tol 1e-8")
    assert passed


def test_06_zonal_cross_check():
    rng = np.random.default_rng(SEED)
    worst = (0.0, None)
    for lam in two_row_partitions(6):
        for _ in range(5):
            x = tuple(3.0 - rng.uniform(0.0, 3.0, size=2))
            y = tuple(3.0 - rng.uniform(0.0, 3.0, size=2))
            rep = verify_zonal(lam, x, y, 256, 1e-10)
            if rep.rel_err > worst[0]:
                worst = (rep.rel_err, tuple(lam))
    passed = worst[0] <= 1e-10
    report(6, "rotation-average cross-check at k=1/2", passed,
           f"worst rel err {worst[0]:.3e} at lambda = {worst[1]}, ntheta=256, tol 1e-10")
    assert passed


def test_07_quadrature_moment_exactness():
    worst = (0.0, None)
    for k in (0.3, 0.5, 1.0, 2.75):
        for n in range(1, 65):
            rule = gauss_jacobi_rule(n, k)
            for j in range(n):
                approx = float(rule.weights @ rule.nodes ** (2 * j))
                exact = even_moment(j, k)
                rel = abs(approx - exact) / exact
                if rel > worst[0]:
                    worst = (rel, (k, n, 2 * j))
    passed = worst[0] <= 1e-13
    report(7, "Gauss rule reproduces even moments", passed,
           f"worst rel err {worst[0]:.3e} at (k, n, degree) = {worst[1]}, "
           f"n <= 64, tol 1e-13")
    assert passed


def test_08_single_integral_representation():
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    worst = (0.0, None)
    for mu in (Fraction(1), Fraction(3, 2), Fraction(12, 5)):
        for k in (Fraction(1, 2), Fraction(1), Fraction(2)):
            for x1 in grid:
                for x2 in grid:
                    rep = verify_single_integral(mu, k, (x1, x2), 64, 40, 1e-9)
                    if rep.rel_err > worst[0]:
                        worst = (rep.rel_err, (str(mu), str(k)))
    passed = worst[0] <= 1e-9
    report(8, "one-dimensional integral form of the two-argument series", passed,
           f"worst rel err {worst[0]:.3e} at (mu, k) = {worst[1]}, tol 1e-9")
    assert passed


def test_09_double_integral_with_resolved_order():
    kappas = (Multiplicity(Fraction(1), Fraction(1)),
              Multiplicity(Fraction(4, 5), Fraction(13, 10)),
              Multiplicity(Fraction(1, 2), Fraction(1, 2)))
    offsets = set()
    rng = np.random.default_rng(SEED)
    points = [(tuple(rng.uniform(0.0, 0.8, size=2)), tuple(rng.uniform(0.0, 0.8, size=2)))
              for _ in range(5)]
    worst = (0.0, None)
    for kappa in kappas:
        order = resolve_double_integral_order(kappa)
        offsets.add(round(float(order - kappa.order_mu)))
        for x, y in points:
            rep = verify_series_vs_double_integral(kappa, x, y, order, tol=1e-7)
            if rep.rel_err > worst[0]:
                worst = (rep.rel_err, (float(kappa.kappa1), float(kappa.kappa2)))
    same_candidate = len(offsets) == 1
    passed = worst[0] <= 1e-7 and same_candidate
    report(9, "double-integral representation at the resolved order", passed,
           f"worst rel err {worst[0]:.3e} at kappa = {worst[1]}, "
           f"resolved offset(s) from mu: {sorted(offsets)}, tol 1e-7")
    assert passed


def test_10_rotation_symmetry_and_intertwining():
    kappas = (Multiplicity(Fraction(1), Fraction(1)),
              Multiplicity(Fraction(4, 5), Fraction(13, 10)),
              Multiplicity(Fraction(1, 2), Fraction(1, 2)))
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for kappa in kappas:
        for _ in range(5):
            x = tuple(rng.uniform(0.0, 0.8, size=2))
            y = tuple(rng.uniform(0.0, 0.8, size=2))
            rep = bessel_rotation_symmetry(kappa, x, y, tol=1e-8)
            worst = max(worst, rep.rel_err)
    intertwined = all(
        check_rotation_intertwining(Poly2({(i, d - i): Fraction(1)}), Multiplicity(*pair))
        for pair in ((Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(3, 2)),
                     (Fraction(2), Fraction(1, 3)))
        for d in range(7) for i in range(d + 1))
    passed = worst <= 1e-8 and intertwined
    report(10, "rotation symmetry of the Bessel series + exact intertwining", passed,
           f"worst series rel err {worst:.3e} (tol 1e-8); "
           f"intertwining exact through degree 6: {intertwined}")
    assert passed


def test_11_classical_bessel_product():
    worst = (0.0, None)
    zero_case = 0.0
    for k in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
        for x in (0.0, 0.5, 1.0, 2.0, 5.0):
            for y in (0.0, 0.5, 1.0, 2.0, 5.0):
                rep = bessel_product_identity(k, x, y)
                err = rep.rel_err if math.isfinite(rep.rel_err) else rep.abs_err
                if err > worst[0]:
                    worst = (err, (str(k), x, y))
                if y == 0.0:
                    zero_case = max(zero_case, err)
    passed = worst[0] <= 1e-10 and zero_case <= 1e-15
    report(11, "classical one-variable Bessel product formula", passed,
           f"worst rel err {worst[0]:.3e} at (k, x, y) = {worst[1]}, tol 1e-10; "
           f"y=0 cases within {zero_case:.1e} (a few ulps)")
    assert passed


def test_12_limit_transition_rate():
    reps = [verify_limit_transition(k, x) for k in (Fraction(1, 2), Fraction(1))
            for x in (0.5, 1.0)]
    ratios = [r for rep in reps for r in rep.context["ratios"]]
    lo, hi = min(ratios), max(ratios)
    passed = all(rep.passed for rep in reps)
    report(12, "large-index limit to the one-variable Bessel function", passed,
           f"error ratios per doubling of the index in [{lo:.3f}, {hi:.3f}], "
           f"window [0.35, 0.65]")
    assert passed
