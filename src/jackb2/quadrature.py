"""Gauss-Jacobi quadrature for the symmetric weight (1 - u^2)^(k-1) on [-1, 1].

Nodes and weights come from the Golub-Welsch eigenvalue method: the weight's
orthogonal polynomials (Jacobi with both exponents k - 1) obey a three-term
recurrence whose symmetric tridiagonal matrix has the nodes as eigenvalues
and the weights as scaled squared first eigenvector components.  This stays
robust for k < 1, where the weight is singular at the endpoints and Newton
iterations on the polynomial are delicate.

``even_moment`` supplies the exact Beta-function moments that the rules are
tested against, and ``normalization_c`` is the constant that turns the weight
into a probability measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import beta as _beta

# Rules kept at once, each for one (npoints, k); bessel-scan uses about 53.
_RULE_CACHE_SIZE = 128


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for integral of f(u) (1-u^2)^(k-1) du over [-1, 1]."""

    k: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        # Rules are cached and shared between callers.
        self.nodes.flags.writeable = False
        self.weights.flags.writeable = False

    @property
    def npoints(self):
        return len(self.nodes)


def _orthonormal_scan(x, sb, mass, n):
    """Orthonormal-polynomial data at the points x.

    Returns (p_n(x), p_n'(x), sum of p_j(x)^2 for j < n) computed by the
    three-term recurrence x p_j = sb[j] p_{j+1} + sb[j-1] p_{j-1}, where
    sb[j] = sqrt(b_{j+1}) and the polynomials are orthonormal for the full
    (unnormalized) weight of total mass ``mass``.
    """
    p_cur = np.full_like(x, 1.0 / math.sqrt(mass))
    d_cur = np.zeros_like(x)
    p_prev = np.zeros_like(x)
    d_prev = np.zeros_like(x)
    christoffel = p_cur * p_cur
    for j in range(n):
        below = sb[j - 1] if j >= 1 else 0.0
        p_next = (x * p_cur - below * p_prev) / sb[j]
        d_next = (p_cur + x * d_cur - below * d_prev) / sb[j]
        p_prev, d_prev, p_cur, d_cur = p_cur, d_cur, p_next, d_next
        if j < n - 1:
            christoffel += p_cur * p_cur
    return p_cur, d_cur, christoffel


def gauss_jacobi_rule(npoints, k):
    """Gauss rule with npoints nodes for the weight (1 - u^2)^(k-1).

    Exact (to rounding) for polynomial integrands of degree <= 2*npoints - 1.
    Nodes start from the Jacobi-matrix eigenvalues and get two Newton
    correction passes against the orthonormal recurrence; weights come from
    the Christoffel function at the corrected nodes.  Rules are cached per
    (npoints, float(k)) and their arrays are read-only.
    """
    if npoints < 1:
        raise ValueError("npoints must be at least 1")
    kf = float(k)
    if kf <= 0:
        raise ValueError(f"parameter k must be positive, got {k}")
    return _gauss_jacobi_rule(npoints, kf)


@lru_cache(maxsize=_RULE_CACHE_SIZE)
def _gauss_jacobi_rule(npoints, kf):
    """The rule for checked arguments, built once per (npoints, float k)."""
    a = kf - 1.0  # Jacobi exponent, both sides
    # Monic recurrence p_{j+1} = u p_j - b_j p_{j-1}; diagonal terms vanish
    # by symmetry.  The j = 1 coefficient is written in its cancelled form
    # (the generic expression is 0/0 at a = -1/2).
    j = np.arange(1, npoints + 1, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        b = j * (j + 2 * a) / ((2 * j + 2 * a + 1) * (2 * j + 2 * a - 1))
    b[0] = 1.0 / (2 * a + 3)
    total_mass = even_moment(0, kf)
    if npoints == 1:
        return QuadratureRule(kf, np.zeros(1), np.array([total_mass]))
    sb = np.sqrt(b)
    nodes = eigh_tridiagonal(np.zeros(npoints), sb[:-1], eigvals_only=True)
    for _ in range(2):
        value, slope, _ = _orthonormal_scan(nodes, sb, total_mass, npoints)
        nodes = nodes - value / slope
    _, _, christoffel = _orthonormal_scan(nodes, sb, total_mass, npoints)
    weights = 1.0 / christoffel
    # Symmetrize: average mirror pairs so nodes come out exactly +/- symmetric.
    nodes = 0.5 * (nodes - nodes[::-1])
    if npoints % 2 == 1:
        nodes[npoints // 2] = 0.0
    weights = 0.5 * (weights + weights[::-1])
    return QuadratureRule(kf, nodes, weights)


def even_moment(j, k):
    """Exact moment integral of u^(2j) (1-u^2)^(k-1) du = B(j + 1/2, k).

    Odd moments vanish by symmetry.
    """
    if j < 0:
        raise ValueError("moment index must be nonnegative")
    if not k > 0:
        raise ValueError(f"parameter k must be positive, got {k}")
    return float(_beta(j + 0.5, float(k)))


def normalization_c(k):
    """Gamma(k + 1/2) / (Gamma(k) sqrt(pi)), the reciprocal total mass.

    normalization_c(k) * even_moment(0, k) == 1.
    """
    if not k > 0:
        raise ValueError(f"parameter k must be positive, got {k}")
    return 1.0 / even_moment(0, k)

