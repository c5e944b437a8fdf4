#!/usr/bin/env python3
"""The generalized Bessel function of type B2, three ways, plus its algebra.

The series over two-row partitions is the ground truth.  The double-integral
representation is derived from the two-variable product formula in two
steps: step A is the product identity in u, with the one-argument function
J1(X) = 0F1(mu; X, (1, 1)) at the eigenvalue split X(u); step B writes J1
as one integral in v of the normalized Bessel function of order mu - 1.
Composed, they are the double integral, at order mu - 1 by derivation.  The
Dunkl operators behind the function satisfy an exact rational intertwining
under the 45-degree rotation.
"""

import math
from fractions import Fraction

import numpy as np

from jackb2 import (
    Multiplicity,
    Poly2,
    bessel_b2_double_integral,
    bessel_b2_series,
    bessel_i_norm,
    bessel_product_identity,
    bessel_rotation_symmetry,
    check_rotation_intertwining,
    dunkl_apply,
    eigen_split,
    gauss_jacobi_rule,
    hyp0f1_single_integral,
    hyp0f1_two,
    normalization_c,
    verify_derived_route,
)

kappa = Multiplicity(Fraction(4, 5), Fraction(13, 10))
x, y = (0.6, 0.2), (0.4, 0.1)
mu, nu = kappa.order_mu, float(kappa.order_mu) - 1.0


def j1(big, small):
    """J1(X) = 0F1(mu; X, (1, 1)), Jack parameter kappa2, by its series."""
    return hyp0f1_two(mu, kappa.kappa2, (big, small), (1.0, 1.0), 40)[0]


def rel(a, b):
    return abs(a - b) / abs(b)


print("=" * 72)
print("1. The double integral, derived from the product formula")
print("=" * 72)
xs = (0.5 * x[0] ** 2, 0.5 * x[1] ** 2)
ys = (0.5 * y[0] ** 2, 0.5 * y[1] ** 2)
series = bessel_b2_series(kappa, x, y)
print(f"kappa=(4/5, 13/10), mu={mu}; halved squares xs=(0.18, 0.02), ys=(0.08, 0.005)")
print(f"series value 0F1(mu; xs, ys):  {series:.15f}")

rule_u = gauss_jacobi_rule(16, kappa.kappa2)
splits = [eigen_split(xs, ys, u) for u in rule_u.nodes]
step_a = normalization_c(kappa.kappa2) * math.fsum(
    w * j1(sp.x1_big, sp.x2_small) for sp, w in zip(splits, rule_u.weights))
print(f"step A, c(k2) * sum_u w_u J1(X(u)), 16 nodes: {step_a:.15f}"
      f"   rel err {rel(step_a, series):.2e}")

big, small = 0.5, 0.2
rule_v = gauss_jacobi_rule(64, kappa.kappa1)
args = 2.0 * np.sqrt(big + small + 2.0 * rule_v.nodes * math.sqrt(big * small))
step_b = normalization_c(kappa.kappa1) * float(rule_v.weights @ bessel_i_norm(nu, args))
print(f"step B at X = (0.5, 0.2), c(k1) * sum_v w_v i_(mu-1)(...), 64 nodes: {step_b:.15f}"
      f"   rel err {rel(step_b, j1(big, small)):.2e} against J1 by its series")

route = verify_derived_route(kappa, x, y)
print(f"A composed with B, one 64x64 grid at order mu - 1 = {nu}:"
      f" {route.rhs:.15f}   rel err {route.rel_err:.2e}")
double = bessel_b2_double_integral(kappa, x, y)
print(f"double integral (radicand Z(u, v) / 2 = 4 (X1 + X2 + 2 v sqrt(X1 X2))):"
      f" {double:.15f}   rel err {rel(double, series):.2e}")

single = hyp0f1_single_integral(mu, kappa.kappa2, xs)
axis_series, _ = hyp0f1_two(mu, kappa.kappa2, xs, (1.0, 0.0), 40)
print(f"single integral (second argument pinned to (1,0)): {single:.15f}"
      f"   rel err {rel(single, axis_series):.2e}")

print()
print("=" * 72)
print("2. Rotation symmetry and the exact Dunkl intertwining")
print("=" * 72)
report = bessel_rotation_symmetry(kappa, x, y)
print(f"J^(k1,k2)(x, y) = J^(k2,k1)(rx, ry) for the 45-degree rotation r:"
      f"  rel err {report.rel_err:.2e} -> {'ok' if report.passed else 'FAIL'}")

p = Poly2({(3, 2): Fraction(1)})
print("intertwining on the monomial x1^3 x2^2, exact rationals:",
      check_rotation_intertwining(p, kappa))

t1 = dunkl_apply(p, kappa, 1)
print("T1(x1^3 x2^2) =", " + ".join(f"({c}) x1^{i} x2^{j}"
                                    for (i, j), c in sorted(t1.coeffs.items())))

print()
print("=" * 72)
print("3. The classical one-variable product formula it all degenerates to")
print("=" * 72)
for k in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
    rep = bessel_product_identity(k, 2.0, 5.0)
    print(f"k={k}:  lhs={rep.lhs:.12e}  rhs={rep.rhs:.12e}  rel err={rep.rel_err:.2e}")
