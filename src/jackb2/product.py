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
points with array kernels: ``_split`` and ``_conjugate_eigs`` give the eigenvalue
pairs on the case's whole (point, node) or (point, angle) grid, and
``jack._closed_form_terms`` the closed form at every cell of it.  Each value comes
from the float operations of a single check, in the same order, so the same bits:
every float power is ``np.float_power`` (libm ``pow``, as Python's ``**``), and
each point's sum is one ``math.fsum``.
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
    return SplitPair(*(v.item() for v in _split([x1], [x2], [y1], [y2], [u])))


def _split(x1, x2, y1, y2, us, rescaled=False):
    """eigen_split on checked float components, arrays over points, at each u of us: the
    arrays (alpha, X1, X2), one row per point and one column per u.

    Swapping both index pairs leaves the pair unchanged, so y1 >= y2; then
    each factor of 4 m12^2 = (x1 (y1 - y2) p) (x2 (y1 - y2) q) is at most 2 m11
    or 2 m22, and the product is grouped by the sign of u likewise, so no
    partial result exceeds alpha^2.  Out of range (alpha above 2^511, where
    its square overflows, or the product below 2^-960, where the quotient X2
    loses precision) a cell goes to ``_split_rescaled``, which scales the
    components by a power of two for that point and u alone.
    """
    import numpy as np

    x1, x2, y1, y2 = (np.asarray(v, float)[:, None] for v in (x1, x2, y1, y2))
    swap = y1 < y2
    x1, x2, y1, y2 = (np.where(swap, b, a) for a, b in ((x1, x2), (x2, x1), (y1, y2), (y2, y1)))
    u = np.asarray(us, float)
    p, q, d = 1.0 + u, 1.0 - u, y1 - y2
    with np.errstate(all="ignore"):  # an out-of-range cell is taken again below
        m11, m22 = 0.5 * x1 * (y1 * p + y2 * q), 0.5 * x2 * (y1 * q + y2 * p)
        alpha = m11 + m22
        prod = np.where(u >= 0, (x1 * y1) * (x2 * y2), (x1 * y2) * (x2 * y1))
        big = 0.5 * (alpha + np.sqrt(np.float_power(m11 - m22, 2)
                                     + (x1 * (d * p)) * (x2 * (d * q))))
        small = np.where(big > 0, prod / big, 0.0)
    if not rescaled:  # rescaled guards the recursion: a zero component keeps prod at 0
        for i, j in zip(*np.nonzero(~((prod >= 2.0 ** -960) & (alpha <= 2.0 ** 511)))):
            alpha[i, j], big[i, j], small[i, j] = _split_rescaled(
                *(v.item() for v in (x1[i, 0], x2[i, 0], y1[i, 0], y2[i, 0], u[j], alpha[i, j])))
    return alpha, big, small


def _split_rescaled(x1, x2, y1, y2, u, alpha):
    """_split of one point at one u on components scaled by 2^a, alpha near 1 (the pair
    scales by 4^a).  X2 = x1 x2 y1 y2 / X1 comes from the frexp parts of the unscaled factors.
    """
    if not alpha < math.inf:
        raise ValueError("the eigenvalue sum of the conjugated product overflows the float range")
    a = min(-(math.frexp(alpha)[1] // 2), 1023 - math.frexp(max(x1, x2, y1, y2))[1])
    split = _split(*([math.ldexp(v, a)] for v in (x1, x2, y1, y2)), [u], rescaled=True)
    alpha, big = (math.ldexp(v.item(), -2 * a) for v in split[:2])
    (mant, expo), *factors = (math.frexp(v) for v in (big, x1, x2, y1, y2))
    small = math.prod(m for m, _ in factors) / mant if big > 0 else 0.0
    return alpha, big, math.ldexp(small, sum(e for _, e in factors) - expo)


def rotation_conjugate_eigs(x, y, theta):
    """Eigenvalues of the explicit conjugated 2x2 matrix, sorted decreasing.

    Independent code path from eigen_split: builds the matrix entries and
    uses trace/determinant.  Agrees with eigen_split at u = cos 2*theta.
    """
    x1, x2 = finite_nonnegative(x)
    y1, y2 = finite_nonnegative(y)
    pair = _conjugate_eigs([x1], [x2], [y1], [y2], [(math.cos(theta), math.sin(theta))])
    return tuple(v.item() for v in pair)


def _conjugate_eigs(x1, x2, y1, y2, angles):
    """rotation_conjugate_eigs on checked float components, arrays over points, at each
    (cos, sin) of angles: the arrays (X1, X2), one row per point and one column per angle.
    m12 is ((root c) s), so root = sqrt(x1 x2) (y1 - y2) is taken once per point."""
    import numpy as np

    x1, x2, y1, y2 = (np.asarray(v, float)[:, None] for v in (x1, x2, y1, y2))
    c, s = np.asarray(angles, float).reshape(-1, 2).T
    with np.errstate(all="ignore"):  # a pair past the float range is inf, as math gives it
        root = np.sqrt(x1 * x2) * (y1 - y2)
        m11 = x1 * y1 * c * c + x1 * y2 * s * s
        m22 = x2 * y2 * c * c + x2 * y1 * s * s
        m12 = root * c * s
        tr = m11 + m22
        det = m11 * m22 - m12 * m12
        disc = tr * tr - 4.0 * det
        big = 0.5 * (tr + np.sqrt(np.where(0.0 > disc, 0.0, disc)))  # max(disc, 0.0)
        return big, np.where(big > 0, det / big, 0.0)


def _case(lam, points):
    """The checked case: (lam, m, ell, the float (x1, x2, y1, y2) of each point)."""
    lam = Partition(lam)
    m, ell = _two_row_shape(lam)
    return lam, m, ell, [(*finite_nonnegative(x), *finite_nonnegative(y)) for x, y in points]


def _in_float_range(what, evaluate):
    """evaluate() if all its values are finite; else ValueError: what is past the float range."""
    import numpy as np

    try:
        with np.errstate(all="ignore"):  # an overflow is the ValueError below
            if all(map(math.isfinite, values := evaluate())):
                return values
    except OverflowError:  # a float power of the closed form, or a sum of math.fsum
        pass
    raise ValueError(f"{what} overflows the float range (about 1.8e308) at these points; "
                     "take smaller coordinates")


def _vectors(comps):
    """The checked points as a float array, one row per vector: x, y of each point in turn."""
    import numpy as np

    return np.array(comps, float).reshape(-1, 2)


def _left_sides(k, m, ell, comps):
    """product_lhs at each checked point, as P_lam(1,1) (Pn(x) Pn(y)) with the normalized
    Pn = P_lam / P_lam(1,1) at the float components and P_lam(1,1) of the float table:
    every vector in one closed-form call."""
    kv = float(param_value(k))
    at_ones = _rows(m, kv)[0][m]

    def sides():
        values = _closed_form_terms(kv, m, m, ell, _vectors(comps))[:, 0]
        return (at_ones * (values[::2] * values[1::2])).tolist()

    return _in_float_range("the left side of the product identity", sides)


def _right_sides(k, m, ell, comps, npoints):
    """product_rhs at each checked point: the split over every (point, node) of the case and
    one closed form, each point's weighted values summed by math.fsum."""
    import numpy as np

    kv = float(param_value(k))
    if npoints < (m + 2) // 2:
        raise ValueError(f"npoints={npoints} cannot integrate a degree-{m} integrand exactly")
    at_ones, rule = _rows(m, kv)[0], gauss_jacobi_rule(npoints, kv)
    scale = normalization_c(kv) * at_ones[m]
    _, big, small = _split(*_vectors(comps).reshape(-1, 4).T, rule.nodes)

    def sides():
        values = _closed_form_terms(kv, m, m, ell, np.stack([big.ravel(), small.ravel()], 1))
        terms = rule.weights * values.reshape(big.shape)
        return [scale * math.fsum(row) for row in terms.tolist()]

    return _in_float_range("the right side of the product identity", sides)


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
    """zonal_so2_average at each checked point: the eigenvalues at every (point, angle) of
    the case and one closed form.  A power of the closed form, or a trapezoid sum, past the
    float range raises ValueError."""
    import numpy as np

    if ntheta < 1:
        raise ValueError("ntheta must be positive")
    at_ones = _rows(m, 0.5)[0][m]
    angles = [(math.cos(t), math.sin(t)) for t in [2 * math.pi * j / ntheta for j in range(ntheta)]]
    big, small = _conjugate_eigs(*_vectors(comps).reshape(-1, 4).T, angles)

    def averages():
        values = _closed_form_terms(0.5, m, m, ell, np.stack([big.ravel(), small.ravel()], 1))
        return [at_ones * math.fsum(row) / ntheta for row in values.reshape(big.shape).tolist()]

    return _in_float_range("the rotation-group average", averages)


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
