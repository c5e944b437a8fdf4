"""Gauss-Jacobi quadrature for the symmetric weight (1 - u^2)^(k-1) on [-1, 1].

Golub-Welsch: the weight's orthogonal polynomials (Jacobi with both
exponents k - 1) obey a three-term recurrence whose symmetric tridiagonal
matrix has the nodes as eigenvalues.  Its eigenvalues, from numpy's dense
solver, start one pass of the orthonormal recurrence, which gives each
node's Newton step and its Christoffel sum; the weight is that sum moved to
the corrected node to first order.  The rules of one call take this pass on
one vector of all their nodes.  This stays robust for k < 1, where the
weight is singular at the endpoints.

``even_moment`` gives the Beta-function moments the rules are tested
against, and ``normalization_c`` the constant that turns the weight into a
probability measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # numpy is imported where a rule is built, not with the package
    import numpy as np

# Rules kept at once, each for one (npoints, k); a bessel-scan batch uses 106 to 117.
_RULE_CACHE_SIZE = 128
# Largest rule built; its dense eigensolve takes seconds and 128 MB.
_MAX_RULE_NODES = 4096


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


def _recurrence(x, rows, p0, ends):
    """(p_n(x) / p_n'(x), sum of p_j(x)^2 for j < n) by the orthonormal recurrence
    x p_j = s_j p_{j+1} + s_{j-1} p_{j-1}, s_j = sqrt(b_{j+1}) the vectors of rows,
    p_0 = p0 = (total mass)^(-1/2), both read after row n at the elements of slice ends[n]."""
    step, total_out, s_prev = x.copy(), x.copy(), next(rows)
    p_prev, p_cur, d_prev, d_cur = p0, x * p0 / s_prev, 0.0, p0 / s_prev
    total = p0 * p0 + p_cur * p_cur
    for n, s in enumerate(rows, 2):
        p_prev, p_cur = p_cur, (x * p_cur - s_prev * p_prev) / s
        d_prev, d_cur = d_cur, (p_prev + x * d_cur - s_prev * d_prev) / s
        s_prev = s
        if n in ends:
            step[ends[n]] = p_cur[ends[n]] / d_cur[ends[n]]
            total_out[ends[n]] = total[ends[n]]
        total += p_cur * p_cur
    return step, total_out


def gauss_jacobi_rule(npoints, k):
    """Gauss rule with npoints nodes for the weight (1 - u^2)^(k-1), as gauss_jacobi_rules;
    exact (to rounding) for polynomial integrands of degree <= 2*npoints - 1."""
    return gauss_jacobi_rules(npoints, (k,))[0]


def gauss_jacobi_rules(npoints, ks):
    """The rules with npoints nodes for each k of ks, in order, the uncached ones built together;
    for a tuple npoints, the rules of each of its node counts in turn.

    Rules are cached per (npoints, float(k)) and their arrays are read-only.
    A non-integral npoints, one above _MAX_RULE_NODES, and a rule that is not
    finite in float arithmetic raise ValueError, and no rule of that call is cached.
    """
    counts = npoints if isinstance(npoints, tuple) else (npoints,)
    for n in counts:
        if not (n % 1 == 0 and 1 <= n <= _MAX_RULE_NODES):
            raise ValueError(f"npoints must be an integer from 1 to the {_MAX_RULE_NODES}-node "
                             f"limit of a quadrature rule, got {n}")
    kfs = [float(k) for k in ks]
    for k, kf in zip(ks, kfs):
        if not 0 < kf < math.inf:
            raise ValueError(f"parameter k must be positive and finite, got {k}")
    specs = [(int(n), kf) for n in counts for kf in kfs]
    slots = [_rule_slot(*spec) for spec in specs]
    missing = {spec: slot for spec, slot in zip(specs, slots) if not slot}
    if missing:
        for slot, rule in zip(missing.values(), _build_rules(list(missing))):
            slot.append(rule)
    return [slot[0] for slot in slots]


@lru_cache(maxsize=_RULE_CACHE_SIZE)
def _rule_slot(npoints, kf):
    """The cache entry of (npoints, kf): a list that holds its rule once one is built."""
    return []


def _build_rules(specs):
    """The rules of distinct checked (npoints, kf), in order, their nodes stacked in one vector.

    After the Newton step, a dense start gives the same doubles as a
    tridiagonal solver (8,636 rules, n <= 69), but costs O(n^3): a rule takes
    0.45 ms at 64 nodes and two together 0.62 ms, 4.1 ms at 256, 0.78 s at
    2,048, 5.4 s at 4,096 (one BLAS thread, 2-vCPU Xeon).  The one recurrence
    pass takes 11 array operations a row, which pays for the dense start at
    usual sizes.  The vector holds the rules by node count, each rule's
    coefficients repeated over its nodes; the pass runs to the largest rule's
    last row and reads each element at its own, so it takes the operations of
    its rule built alone.  The 8- and 16-node rules at two k take 0.20 ms in
    one stack and 0.27 ms as two pairs.
    """
    import numpy as np

    rules = {(n, kf): QuadratureRule(kf, np.zeros(1), np.array([even_moment(0, kf)]))
             for n, kf in specs if n == 1}
    stack = sorted((spec for spec in specs if spec[0] > 1), key=lambda spec: spec[0])
    if not stack:
        return [rules[spec] for spec in specs]
    sizes, top = [n for n, _ in stack], stack[-1][0]
    ends = {n: slice(sum(sizes[:sizes.index(n)]), sum(m for m in sizes if m <= n)) for n in sizes}
    kfs = np.array([kf for _, kf in stack])
    a = kfs[:, None] - 1.0  # Jacobi exponent of each rule, both sides

    def rows(m):  # vector j < m: each rule's sb[j] (below) over its nodes, 64 vectors at a time
        for start in range(0, m, 64):
            yield from sb[:, start:min(start + 64, m)].T.repeat(sizes, axis=1)

    # Monic recurrence p_{j+1} = u p_j - b_j p_{j-1}; diagonal terms vanish
    # by symmetry.  The j = 1 coefficient is written in its cancelled form
    # (the generic expression is 0/0 at a = -1/2).
    j = np.arange(1, top + 1, dtype=float)
    with np.errstate(all="ignore"):  # a rule that is not finite raises below
        b = j * (j + 2 * a) / ((2 * j + 2 * a + 1) * (2 * j + 2 * a - 1))
        b[:, 0] = 1.0 / (2 * a[:, 0] + 3)
        sb = np.sqrt(b)
        p0 = np.array([1.0 / math.sqrt(even_moment(0, kf)) for _, kf in stack]).repeat(sizes)
        # fmax gives the eigensolver 0 for a NaN coefficient (k near 2^1023); its rule stays NaN.
        nodes = np.concatenate([np.linalg.eigvalsh(np.diag(np.fmax(r[:n - 1], 0.0), -1))
                                for r, n in zip(sb, sizes)])
        # One Newton step to the root r = x0 - delta, and the Christoffel sum K moved to r to
        # first order: at a root K'/K = p_n''/p_n' = 2k x / (1 - x^2) (the Jacobi equation).
        # A start at +/-1 (k below about 1e-16 n^2) keeps its K, then off by O(k).
        step, total = _recurrence(nodes, rows(top), p0, ends)
        shift = 2.0 * kfs.repeat(sizes) * nodes * step / ((1.0 - nodes) * (1.0 + nodes))
        weights = 1.0 / (total * (1.0 - np.where(np.abs(nodes) < 1.0, shift, 0.0)))
        nodes = nodes - step
    pairs = []
    for n, part in ends.items():
        # Symmetrize: average mirror pairs so nodes come out exactly +/- symmetric.
        x, w = nodes[part].reshape(-1, n), weights[part].reshape(-1, n)
        x = 0.5 * (x - x[:, ::-1])
        if n % 2 == 1:
            x[:, n // 2] = 0.0
        w = 0.5 * (w + w[:, ::-1])
        pairs += zip(x, w, np.isfinite(x).all(axis=1) & np.isfinite(w).all(axis=1))
    for (n, kf), (x, w, finite) in zip(stack, pairs):
        if not finite:
            raise ValueError(f"the {n}-node Gauss-Jacobi rule at k={kf!r} "
                             "is not finite in float arithmetic")
        rules[n, kf] = QuadratureRule(kf, x, w)
    return [rules[spec] for spec in specs]


def even_moment(j, k):
    """Moment integral of u^(2j) (1-u^2)^(k-1) du = B(j + 1/2, k); odd ones vanish.

    A math.gamma ratio, within 2e-15 relative at j = 0 and 3e-14 for j <= 63
    on the tested k in [1/8, 24].  Past its range, Gamma(k) / Gamma(k + 1/2) by
    its series in 1/k times an exact rational at k >= 64 (5e-16), else lgamma.
    """
    if j < 0:
        raise ValueError("moment index must be nonnegative")
    a, kf = j + 0.5, float(k)
    if not 2.0 ** -1022 <= kf < math.inf:
        raise ValueError(f"parameter k must be finite and at least 2^-1022, got {k}")
    if a + kf < 171:  # inside the range of math.gamma (about 171.6)
        beta = math.gamma(a) * math.gamma(kf) / math.gamma(a + kf)
        if math.isfinite(beta):
            return beta
    if kf >= 64:  # the fifth term of E, 1.7e-3 k^-9, is below 1e-19
        z = 1.0 / (kf * kf)  # E = sum of (2^(1-2i) - 2) B_2i / (2i (2i - 1)) k^(1-2i)
        e = (-1 / 8 + z * (1 / 192 + z * (-1 / 640 + z * (17 / 14336)))) / kf
        p, q = kf.as_integer_ratio()  # (k + 1/2)_j = prod (2p + (2i + 1) q) / (2q)^j
        pochhammer = math.prod(2 * p + (2 * i + 1) * q for i in range(j))
        exact = math.factorial(2 * j) * q ** j / (2 ** j * math.factorial(j) * pochhammer)
        return exact * math.sqrt(math.pi / kf) * math.exp(-e)
    return math.exp(math.lgamma(a) + math.lgamma(kf) - math.lgamma(a + kf))


def normalization_c(k):
    """Gamma(k + 1/2) / (Gamma(k) sqrt(pi)), the reciprocal total mass.

    normalization_c(k) * even_moment(0, k) == 1.
    """
    return 1.0 / even_moment(0, k)
