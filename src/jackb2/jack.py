"""Jack polynomials: triangular construction, closed forms, and the lift.

``jack_p`` builds P_lam as the monic-in-m_lam eigenfunction of the operator
in ``sympoly.apply_lb_operator`` by solving the dominance-triangular linear
system in exact rational arithmetic.

``jack_p_two_var`` evaluates the two-variable case through the closed form

    P_lam(x1, x2) = (x1 x2)^ell * (2k)_m / (k)_m
                    * sum_r  C(m, 2r) (1/2)_r / (k+1/2)_r  s^(m-2r) t^(2r)

with s = (x1+x2)/2, t = (x1-x2)/2, m = lam_1 - lam_2, ell = lam_2.  This is
the Beta-moment expansion of the one-dimensional integral representation,
with the Gamma-function prefactor collapsed by Legendre duplication into the
rising-factorial ratio (2k)_m/(k)_m; everything stays rational for rational
inputs, and no numerical quadrature is involved.

``jack_recursion_lift`` realizes the integral recursion that produces the
n-variable polynomial from the (n-1)-variable one, for n = 2 and n = 3; the
interlacing region splits into per-coordinate boxes and each box carries a
Gauss-Jacobi rule absorbing its |x_i - nu|^(k-1) endpoint factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .partitions import (
    Partition,
    dominance_leq,
    eigenvalue_e,
    param_value,
    partitions_of_weight,
    rising_factorial,
)
from .quadrature import gauss_jacobi_rule
from .sympoly import MonomialExpansion, apply_lb_operator, evaluate, mono


# Cache sizes, each above the distinct keys of the largest benchmark
# workload: 227 expansions (jack-exact), 1,116 coefficient rows (bessel-scan
# at seed 1).
_EXPANSION_CACHE_SIZE = 512
_COEFFS_CACHE_SIZE = 4096


class DegenerateEigenvalueError(ZeroDivisionError):
    """Two partitions in the triangular solve share an eigenvalue.

    Cannot occur for k > 0; kept as a defensive check on the division.
    """


@dataclass(frozen=True)
class JackPolynomial:
    """A constructed Jack polynomial: index, parameter, and its expansion."""

    lam: Partition
    k: object
    nvars: int
    expansion: MonomialExpansion

    def evaluate(self, x):
        return evaluate(self.expansion, x)

    def to_json(self):
        return {
            "lambda": list(self.lam),
            "k": str(self.k),
            "nvars": self.nvars,
            "terms": self.expansion.to_json(),
        }


@lru_cache(maxsize=_EXPANSION_CACHE_SIZE)
def _jack_expansion(lam, kv, n):
    if len(lam) > n:
        raise ValueError(f"partition {lam} has more than n={n} parts")
    cands = [mu for mu in partitions_of_weight(lam.weight, n) if dominance_leq(mu, lam)]
    # Decreasing lexicographic order refines dominance, so cands[0] is lam
    # and every partition is preceded by everything above it.
    action = {nu: apply_lb_operator(mono(nu, n), kv).coeffs for nu in cands}
    e_lam = eigenvalue_e(lam, kv, n)
    coeffs = {lam: Fraction(1)}
    for mu in cands[1:]:
        feed = sum((action[nu].get(mu, 0) * a for nu, a in coeffs.items()),
                   start=Fraction(0))
        denom = e_lam - eigenvalue_e(mu, kv, n)
        if denom == 0:
            raise DegenerateEigenvalueError(
                f"eigenvalue of {mu} collides with that of {lam} at k={kv}")
        coeffs[mu] = feed / denom
    return MonomialExpansion(n, coeffs)


def jack_p(lam, k, n):
    """The monic Jack polynomial P_lam in n variables, exact coefficients.

    Solves the dominance-triangular system a_mu = (sum of operator feed-down
    from higher partitions) / (e_lam - e_mu) with exact rationals; float k
    is lifted to its exact binary rational first.  Results are cached.
    """
    lam = Partition(lam)
    kv = Fraction(param_value(k))
    return JackPolynomial(lam, kv, n, _jack_expansion(lam, kv, n))


@lru_cache(maxsize=_COEFFS_CACHE_SIZE)
def _two_var_coeffs(m, kv, exact):
    """Coefficients of s^(m-2r) t^(2r) in the two-variable closed form.

    The boolean mode is part of the cache key: a float kv equal in value to
    a Fraction would otherwise hash to the same entry and leak float
    coefficients into the exact path.
    """
    half = Fraction(1, 2) if exact else 0.5
    pref = rising_factorial(2 * kv, m) / rising_factorial(kv, m)
    return tuple(
        pref * math.comb(m, 2 * r) * rising_factorial(half, r)
        / rising_factorial(kv + half, r)
        for r in range(m // 2 + 1)
    )


def _coeff_row(m, kv, *points):
    """(_two_var_coeffs row, 1/2), exact when kv and every point are rational.

    kv must already be checked positive.
    """
    if all(isinstance(v, (int, Fraction)) for v in (kv, *points)):
        return _two_var_coeffs(m, Fraction(kv), True), Fraction(1, 2)
    return _two_var_coeffs(m, float(kv), False), 0.5


def _closed_form_terms(coeffs, half, m, x1, x2):
    """P_lam(x1, x2) / (x1 x2)^ell for every lam with lam_1 - lam_2 = m.

    sum_r coeffs[r] s^(m-2r) t^(2r) at s = (x1+x2) half, t = (x1-x2) half,
    with the row and half from _coeff_row; the one place the closed-form
    terms are written.
    """
    s = (x1 + x2) * half
    t = (x1 - x2) * half
    return sum(c * s ** (m - 2 * r) * t ** (2 * r) for r, c in enumerate(coeffs))


def jack_p_two_var(lam, k, x1, x2):
    """Evaluate P_lam(x1, x2) by the exact closed form (no quadrature).

    Exact for rational k and rational points; floats anywhere switch the
    arithmetic to floating point.
    """
    m, ell = _two_row_shape(lam)
    coeffs, half = _coeff_row(m, param_value(k), x1, x2)
    return (x1 * x2) ** ell * _closed_form_terms(coeffs, half, m, x1, x2)


def _two_row_shape(lam):
    """(lam_1 - lam_2, lam_2); a partition with more than two parts raises."""
    lam = Partition(lam)
    if len(lam) > 2:
        raise ValueError(f"partition {lam} needs more than two variables")
    return lam.part(0) - lam.part(1), lam.part(1)


def jack_p_at_ones(lam, k, n):
    """P_lam evaluated at (1, ..., 1), from the constructed expansion."""
    return jack_p(lam, k, n).evaluate((1,) * n)


def _lift_prefactor(lam, kv, n):
    """Gamma-ratio constant of the lift: prod_i G(l_i+(n-i+1)k)/(G(l_i+(n-i)k)G(k)).

    The orientation of the ratio is pinned by the n=2 specialization (where
    the closed form is known independently) and by the trivial partition at
    n=3, both of which the lift must reproduce.
    """
    pref = 1.0
    for i in range(1, n):
        li = lam.part(i - 1)
        pref *= math.gamma(li + (n - i + 1) * kv) / (
            math.gamma(li + (n - i) * kv) * math.gamma(kv))
    return pref


def jack_recursion_lift(lam, k, x, npoints=48):
    """P_lam at an n-point x from the (n-1)-variable polynomial, by quadrature.

    Implements the interlacing integral recursion for n = len(x) in {2, 3}:
    the inner variables nu_i live in the boxes [x_i, x_i+1], each box is
    mapped to [-1, 1] where the two |x - nu|^(k-1) endpoint factors become
    the Gauss-Jacobi weight (1-s^2)^(k-1), and the remaining factors
    (the polynomial, the nu-spread, and the off-box |x_j - nu_i|^(k-1))
    are smooth.  Sign-ambiguous differences enter through absolute values.
    """
    lam = Partition(lam)
    x = [float(v) for v in x]
    n = len(x)
    if n not in (2, 3):
        raise ValueError("the lift is implemented for 2 or 3 variables")
    if len(lam) > n - 1:
        raise ValueError(f"partition {lam} must have at most {n - 1} parts")
    if any(v < 0 for v in x):
        raise ValueError("coordinates must be nonnegative")
    if any(a >= b for a, b in zip(x, x[1:])):
        raise ValueError("coordinates must be strictly increasing")
    kv = float(param_value(k))

    pref = _lift_prefactor(lam, kv, n)
    vand = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            vand *= abs(x[i] - x[j]) ** (1.0 - 2.0 * kv)
    rule = gauss_jacobi_rule(npoints, kv)
    s, w = rule.nodes, rule.weights

    if n == 2:
        m = lam.part(0)
        c, h = 0.5 * (x[0] + x[1]), 0.5 * (x[1] - x[0])
        nu = c + h * s
        inner = h ** (2.0 * kv - 1.0) * float(w @ nu ** m)
        return pref * vand * inner

    c1, h1 = 0.5 * (x[0] + x[1]), 0.5 * (x[1] - x[0])
    c2, h2 = 0.5 * (x[1] + x[2]), 0.5 * (x[2] - x[1])
    nu1 = c1 + h1 * s
    nu2 = c2 + h2 * s
    grid = np.zeros((len(s), len(s)))
    for mu, cf in jack_p(lam, kv, 2).expansion.coeffs.items():
        a, b = mu.part(0), mu.part(1)
        cf = float(cf)
        if a == b:
            grid += cf * np.outer(nu1 ** a, nu2 ** a)
        else:
            grid += cf * (np.outer(nu1 ** a, nu2 ** b) + np.outer(nu1 ** b, nu2 ** a))
    grid *= nu2[None, :] - nu1[:, None]
    grid *= ((x[2] - nu1) ** (kv - 1.0))[:, None]
    grid *= ((nu2 - x[0]) ** (kv - 1.0))[None, :]
    inner = (h1 * h2) ** (2.0 * kv - 1.0) * float(w @ grid @ w)
    return pref * vand * inner
