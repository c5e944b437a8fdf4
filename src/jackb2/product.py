"""The two-variable product identity and its verification harness.

For diagonal matrices with entries x = (x1, x2) and y = (y1, y2) conjugated
by a rotation, the eigenvalues of the product depend on the rotation angle
only through u = cos 2*theta.  ``eigen_split`` computes that eigenvalue pair
(X1(u), X2(u)); the product identity states, for Pn = P_lam / P_lam(1,1),

    Pn(x) Pn(y) = c(k) * integral over [-1,1] of Pn(X1(u), X2(u)) (1-u^2)^(k-1) du

with c(k) the weight's normalization constant; each side is reported times
P_lam(1,1), so the left one is P_lam(x) P_lam(y) / P_lam(1,1).  The integrand
is a polynomial in u of degree lam_1 - lam_2 (X1 + X2 is linear in u and
X1*X2 is constant), so a Gauss-Jacobi rule with enough nodes evaluates the
right side exactly up to rounding.

``zonal_so2_average`` is the independent k = 1/2 cross-check: the classical
rotation-group average computed directly as a trapezoid sum over equispaced
angles, which converges spectrally to the same left side.

``verify_product_sweep`` and ``verify_zonal_sweep`` check one case at all its
points: ``_split`` and ``_conjugate_eigs`` take a point at all its nodes or
angles and ``jack._closed_form_terms`` a row at all nodes of the case, each value
with the float operations of a single check, in the same order, so the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .jack import _closed_form_terms, _rows, _two_row_shape
from .partitions import Partition, param_value
from .quadrature import gauss_jacobi_rule, normalization_c


@dataclass(frozen=True)
class SplitPair:
    """Eigenvalue pair of the conjugated product at a fixed u = cos 2*theta."""

    alpha_split: float
    x1_big: float
    x2_small: float


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity check; context carries the inputs."""

    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    passed: bool
    context: dict = field(default_factory=dict)

    def to_json(self):
        out = dict(self.context)
        out.update({
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "pass": self.passed,
        })
        return out


def make_report(lhs, rhs, tol, **context):
    """Compare two values: relative error, absolute for vanishing left side."""
    lhs, rhs = float(lhs), float(rhs)
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / abs(lhs) if abs(lhs) >= 1e-300 else abs_err
    return VerificationReport(lhs, rhs, abs_err, rel_err, rel_err <= tol, context)


def finite_nonnegative(v):
    """The two components of v as floats; NaN, inf or a negative raises ValueError."""
    v1, v2 = map(float, v)
    if not (0.0 <= v1 < math.inf and 0.0 <= v2 < math.inf):
        raise ValueError(f"coordinates must be finite and nonnegative, got {v}")
    return v1, v2


def eigen_split(x, y, u):
    """Eigenvalues (X1 >= X2) of the rotation-conjugated product at u.

    With p = 1 + u and q = 1 - u, the conjugated product has the diagonal
    m11 = x1 (y1 p + y2 q) / 2 and m22 = x2 (y1 q + y2 p) / 2 and the squared
    off-diagonal m12^2 = x1 x2 (y1 - y2)^2 p q / 4.  Their sum alpha = m11 + m22
    is a sum of nonnegative terms and the discriminant (m11 - m22)^2 + 4 m12^2
    a sum of squares, so neither cancels; X1 takes the additive root and X2
    comes from the product x1 x2 y1 y2.  A sum alpha past the float range
    raises ValueError.
    """
    x1, x2 = finite_nonnegative(x)
    y1, y2 = finite_nonnegative(y)
    u = float(u)
    if not abs(u) <= 1:
        raise ValueError(f"u must lie in [-1, 1], got {u}")
    return SplitPair(*_split(x1, x2, y1, y2, [u])[0])


def _split(x1, x2, y1, y2, us, rescaled=False):
    """eigen_split on checked float components at each u of us: a list of (alpha, X1, X2).

    Swapping both index pairs leaves the pair unchanged, so y1 >= y2; then
    each factor of 4 m12^2 = (x1 (y1 - y2) p) (x2 (y1 - y2) q) is at most 2 m11
    or 2 m22, and the product is grouped by the sign of u likewise, so no
    partial result exceeds alpha^2.  Out of range (alpha above 2^511, where
    its square overflows, or the product below 2^-960, where the quotient X2
    loses precision) the components are first scaled by a power of two, for
    that u alone.  The swap and y1 - y2 are taken once for the batch.
    """
    if y1 < y2:
        x1, x2, y1, y2 = x2, x1, y2, y1
    d, out = y1 - y2, []
    for u in us:
        p, q = 1.0 + u, 1.0 - u
        m11, m22 = 0.5 * x1 * (y1 * p + y2 * q), 0.5 * x2 * (y1 * q + y2 * p)
        alpha = m11 + m22
        prod = (x1 * y1) * (x2 * y2) if u >= 0 else (x1 * y2) * (x2 * y1)
        if rescaled or prod >= 2.0 ** -960 and alpha <= 2.0 ** 511:
            big = 0.5 * (alpha + math.sqrt((m11 - m22) ** 2 + (x1 * (d * p)) * (x2 * (d * q))))
            out.append((alpha, big, prod / big if big > 0 else 0.0))
        else:  # rescaled guards the recursion: a zero component keeps prod at 0
            out.append(_split_rescaled(x1, x2, y1, y2, u, alpha))
    return out


def _split_rescaled(x1, x2, y1, y2, u, alpha):
    """_split on components scaled by 2^a, alpha near 1 (the pair scales by 4^a).

    X2 = x1 x2 y1 y2 / X1 comes from the frexp parts of the unscaled factors.
    """
    if not alpha < math.inf:
        raise ValueError("the eigenvalue sum of the conjugated product overflows the float range")
    a = min(-(math.frexp(alpha)[1] // 2), 1023 - math.frexp(max(x1, x2, y1, y2))[1])
    split = _split(*(math.ldexp(v, a) for v in (x1, x2, y1, y2)), [u], rescaled=True)[0]
    alpha, big = (math.ldexp(v, -2 * a) for v in split[:2])
    (mant, expo), *factors = (math.frexp(v) for v in (big, x1, x2, y1, y2))
    small = math.prod(m for m, _ in factors) / mant if big > 0 else 0.0
    return alpha, big, math.ldexp(small, sum(e for _, e in factors) - expo)


def rotation_conjugate_eigs(x, y, theta):
    """Eigenvalues of the explicit conjugated 2x2 matrix, sorted decreasing.

    Independent code path from eigen_split: builds the matrix entries and
    uses trace/determinant.  Agrees with eigen_split at u = cos 2*theta.
    """
    return _conjugate_eigs(*finite_nonnegative(x), *finite_nonnegative(y),
                           [(math.cos(theta), math.sin(theta))])[0]


def _conjugate_eigs(x1, x2, y1, y2, angles):
    """rotation_conjugate_eigs on checked float components at each (cos, sin) of angles:
    a list of (X1, X2).  m12 is ((root c) s), so root = sqrt(x1 x2) (y1 - y2) is taken once."""
    root, out = math.sqrt(x1 * x2) * (y1 - y2), []
    for c, s in angles:
        m11 = x1 * y1 * c * c + x1 * y2 * s * s
        m22 = x2 * y2 * c * c + x2 * y1 * s * s
        m12 = root * c * s
        tr = m11 + m22
        det = m11 * m22 - m12 * m12
        big = 0.5 * (tr + math.sqrt(max(tr * tr - 4.0 * det, 0.0)))
        out.append((big, det / big if big > 0 else 0.0))
    return out


def _case(lam, points):
    """The checked case: (lam, m, ell, the float (x1, x2, y1, y2) of each point)."""
    lam = Partition(lam)
    m, ell = _two_row_shape(lam)
    return lam, m, ell, [(*finite_nonnegative(x), *finite_nonnegative(y)) for x, y in points]


def _in_float_range(side, evaluate):
    """evaluate() if all its values are finite; else ValueError: P_lam is past the float range."""
    try:
        if all(map(math.isfinite, values := evaluate())):
            return values
    except OverflowError:
        pass
    raise ValueError(f"the {side} side of the product identity overflows the float range "
                     "(about 1.8e308) at these points; take smaller coordinates")


def _left_sides(k, m, ell, comps):
    """product_lhs at each checked point, as P_lam(1,1) (Pn(x) Pn(y)) with the normalized
    Pn = P_lam / P_lam(1,1) at the float components and P_lam(1,1) of the float table:
    every vector in one closed-form call."""
    at_ones, rows = _rows(m, float(param_value(k)))

    def sides():
        values = _closed_form_terms(rows, m, ell, [v for c in comps for v in (c[:2], c[2:])])
        return [at_ones[m] * (vx * vy) for vx, vy in zip(values[::2], values[1::2])]

    return _in_float_range("left", sides)


def _right_sides(k, m, ell, comps, npoints):
    """product_rhs at each checked point: one split per point, one closed form per case."""
    kv = float(param_value(k))
    if npoints < (m + 2) // 2:
        raise ValueError(f"npoints={npoints} cannot integrate a degree-{m} integrand exactly")
    (at_ones, rows), rule = _rows(m, kv), gauss_jacobi_rule(npoints, kv)
    us, ws = rule.nodes.tolist(), rule.weights.tolist() * len(comps)
    scale = normalization_c(kv) * at_ones[m]
    pairs = [pair[1:] for comp in comps for pair in _split(*comp, us)]

    def sides():
        terms = [w * q for w, q in zip(ws, _closed_form_terms(rows, m, ell, pairs))]
        return [scale * math.fsum(terms[i:i + len(us)]) for i in range(0, len(terms), len(us))]

    return _in_float_range("right", sides)


def product_lhs(lam, k, x, y):
    """P_lam(x) P_lam(y) / P_lam(1,1) in floats, at the float components of x and y."""
    _, m, ell, comps = _case(lam, [(x, y)])
    return _left_sides(k, m, ell, comps)[0]


def product_rhs(lam, k, x, y, npoints):
    """c(k) * integral of P_lam(X1(u), X2(u)) against (1-u^2)^(k-1)."""
    _, m, ell, comps = _case(lam, [(x, y)])
    return _right_sides(k, m, ell, comps, npoints)[0]


def verify_product(lam, k, x, y, npoints, tol):
    """Run both sides of the product identity and report the comparison."""
    return verify_product_sweep(lam, k, [(x, y)], npoints, tol)[0]


def verify_product_sweep(lam, k, points, npoints, tol=1e-10):
    """verify_product at each (x, y) of the sequence points, the per-case work done once."""
    lam, m, ell, comps = _case(lam, points)
    sides = zip(comps, _left_sides(k, m, ell, comps),
                _right_sides(k, m, ell, comps, npoints))
    context = {"identity": "product", "lambda": list(lam), "k": str(k)}
    return [make_report(lhs, rhs, tol, **context, x=[x1, x2], y=[y1, y2], npoints=npoints)
            for (x1, x2, y1, y2), lhs, rhs in sides]


def zonal_so2_average(lam, x, y, ntheta):
    """Rotation-group average of P_lam at parameter 1/2, a trapezoid sum over
    ntheta equispaced angles of P^(1/2)_lam at the conjugated matrix's eigenvalues:
    spectrally convergent, exact once ntheta exceeds the integrand's degree in theta."""
    _, m, ell, comps = _case(lam, [(x, y)])
    return _zonal_averages(m, ell, comps, ntheta)[0]


def _zonal_averages(m, ell, comps, ntheta):
    """zonal_so2_average at each checked point: one eigenvalue call per point, one closed form.
    A power of the closed form past the float range raises ValueError."""
    if ntheta < 1:
        raise ValueError("ntheta must be positive")
    at_ones, rows = _rows(m, 0.5)
    angles = [(math.cos(t), math.sin(t)) for t in [2 * math.pi * j / ntheta for j in range(ntheta)]]
    pairs = [pair for comp in comps for pair in _conjugate_eigs(*comp, angles)]
    try:
        values = _closed_form_terms(rows, m, ell, pairs)
    except OverflowError:  # a float power of the closed form
        raise ValueError("the rotation-group average overflows the float range (about 1.8e308) "
                         "at these points; take smaller coordinates") from None
    return [at_ones[m] * math.fsum(values[i:i + ntheta]) / ntheta
            for i in range(0, len(values), ntheta)]


def verify_zonal(lam, x, y, ntheta, tol):
    """Compare the k = 1/2 product left side with the rotation-group average."""
    return verify_zonal_sweep(lam, [(x, y)], ntheta, tol)[0]


def verify_zonal_sweep(lam, points, ntheta, tol=1e-10):
    """verify_zonal at each (x, y) of the sequence points, the per-case work done once."""
    lam, m, ell, comps = _case(lam, points)
    sides = zip(comps, _left_sides(0.5, m, ell, comps),
                _zonal_averages(m, ell, comps, ntheta))
    context = {"identity": "zonal-average", "lambda": list(lam)}
    return [make_report(lhs, rhs, tol, **context, x=[x1, x2], y=[y1, y2], ntheta=ntheta)
            for (x1, x2, y1, y2), lhs, rhs in sides]
