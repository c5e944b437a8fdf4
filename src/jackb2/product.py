"""The two-variable product identity and its verification harness.

For diagonal matrices with entries x = (x1, x2) and y = (y1, y2) conjugated
by a rotation, the eigenvalues of the product depend on the rotation angle
only through u = cos 2*theta.  ``eigen_split`` computes that eigenvalue pair
(X1(u), X2(u)); the product identity states

    P_lam(x) P_lam(y) / P_lam(1,1)
        = c(k) * integral over [-1,1] of P_lam(X1(u), X2(u)) (1-u^2)^(k-1) du

with c(k) the weight's normalization constant.  The integrand is a
polynomial in u of degree lam_1 - lam_2 (X1 + X2 is linear in u and X1*X2
is constant), so a Gauss-Jacobi rule with enough nodes evaluates the right
side exactly up to rounding.

``zonal_so2_average`` is the independent k = 1/2 cross-check: the classical
rotation-group average computed directly as a trapezoid sum over equispaced
angles, which converges spectrally to the same left side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .jack import _closed_form_terms, _coeff_row, _two_row_shape, jack_p_two_var
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
    v1, v2 = (float(c) for c in v)
    if not (0.0 <= v1 < math.inf and 0.0 <= v2 < math.inf):
        raise ValueError(f"coordinates must be finite and nonnegative, got {v}")
    return v1, v2


def eigen_split(x, y, u):
    """Eigenvalues (X1 >= X2) of the rotation-conjugated product at u.

    alpha = ((x1+x2)(y1+y2) + (x1-x2)(y1-y2) u) / 2 is their sum and
    x1 x2 y1 y2 their product; X1 takes the additive root and X2 comes from
    the product, which avoids cancellation when the discriminant is small.
    Discriminants below -1e-12 relative to alpha^2 are a domain violation;
    tiny negatives are rounding and clamp to zero.
    """
    x1, x2 = finite_nonnegative(x)
    y1, y2 = finite_nonnegative(y)
    u = float(u)
    if not abs(u) <= 1:
        raise ValueError(f"u must lie in [-1, 1], got {u}")
    return SplitPair(*_split(x1, x2, y1, y2, u))


def _split(x1, x2, y1, y2, u):
    """eigen_split on checked float components: (alpha, X1, X2)."""
    alpha = 0.5 * ((x1 + x2) * (y1 + y2) + (x1 - x2) * (y1 - y2) * u)
    prod = x1 * x2 * y1 * y2
    if not (prod >= 2.0 ** -1022 and alpha <= 2.0 ** 511):  # prod or alpha^2 not normal
        return _split_rescaled(x1, x2, y1, y2, u, alpha)
    disc = alpha * alpha - 4.0 * prod
    if disc < 0:
        if disc < -1e-12 * max(alpha * alpha, 1e-300):
            raise ArithmeticError(f"discriminant {disc} below the rounding floor")
        disc = 0.0
    big = 0.5 * (alpha + math.sqrt(disc))
    small = prod / big if big > 0 else 0.0
    return alpha, big, small


def _split_rescaled(x1, x2, y1, y2, u, alpha):
    """_split on components scaled by 2^a, alpha near 1 (the pair scales by 4^a),
    with the discriminant as a sum of squares, free of cancellation."""
    if not alpha > 0:
        return 0.0, 0.0, 0.0
    a = min(-(math.frexp(alpha)[1] // 2), 1023 - math.frexp(max(x1, x2, y1, y2))[1])
    x1, x2, y1, y2 = (math.ldexp(v, a) for v in (x1, x2, y1, y2))
    alpha = 0.5 * ((x1 + x2) * (y1 + y2) + (x1 - x2) * (y1 - y2) * u)
    disc = (0.25 * ((x1 + x2) * (y1 - y2) + u * (x1 - x2) * (y1 + y2)) ** 2
            + (y1 * (x1 - x2)) * (y2 * (x1 - x2)) * (1.0 - u * u))
    big = 0.5 * (alpha + math.sqrt(disc))
    return tuple(math.ldexp(v, -2 * a) for v in (alpha, big, (x1 * y1) * (x2 * y2) / big))


def rotation_conjugate_eigs(x, y, theta):
    """Eigenvalues of the explicit conjugated 2x2 matrix, sorted decreasing.

    Independent code path from eigen_split: builds the matrix entries and
    uses trace/determinant.  Agrees with eigen_split at u = cos 2*theta.
    """
    return _conjugate_eigs(*finite_nonnegative(x), *finite_nonnegative(y), theta)


def _conjugate_eigs(x1, x2, y1, y2, theta):
    """rotation_conjugate_eigs on checked float components."""
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


def product_lhs(lam, k, x, y):
    """P_lam(x) P_lam(y) / P_lam(1,1).

    x and y are evaluated as given (exactly when rational); P_lam(1,1) is
    the leading coefficient of the closed-form row, (2k)_m / (k)_m.
    """
    m, _ = _two_row_shape(lam)
    finite_nonnegative(x)
    finite_nonnegative(y)
    px = jack_p_two_var(lam, k, x[0], x[1])
    py = jack_p_two_var(lam, k, y[0], y[1])
    return float(px) * float(py) / float(_coeff_row(m, k)[0][0])


def product_rhs(lam, k, x, y, npoints):
    """c(k) * integral of P_lam(X1(u), X2(u)) against (1-u^2)^(k-1).

    Inputs are checked once; the node loop runs on Python floats through
    the float cores of eigen_split and of the closed form.
    """
    m, ell = _two_row_shape(lam)
    kv = float(param_value(k))
    if npoints < (m + 2) // 2:
        raise ValueError(
            f"npoints={npoints} cannot integrate a degree-{m} integrand exactly")
    x1, x2 = finite_nonnegative(x)
    y1, y2 = finite_nonnegative(y)
    coeffs, half = _coeff_row(m, kv)
    rule = gauss_jacobi_rule(npoints, kv)
    terms = []
    for u, w in zip(rule.nodes.tolist(), rule.weights.tolist()):
        _, big, small = _split(x1, x2, y1, y2, u)
        terms.append(w * ((big * small) ** ell
                          * _closed_form_terms(coeffs, half, m, big, small)))
    return normalization_c(kv) * math.fsum(terms)


def verify_product(lam, k, x, y, npoints, tol):
    """Run both sides of the product identity and report the comparison."""
    lhs = product_lhs(lam, k, x, y)
    rhs = product_rhs(lam, k, x, y, npoints)
    return make_report(
        lhs, rhs, tol,
        identity="product",
        **{"lambda": list(Partition(lam))},
        k=str(k),
        x=[float(v) for v in x],
        y=[float(v) for v in y],
        npoints=npoints,
    )


def zonal_so2_average(lam, x, y, ntheta):
    """Rotation-group average of P_lam at parameter 1/2, trapezoid in theta.

    Averages P^(1/2)_lam over the eigenvalues of the conjugated matrix at
    ntheta equispaced angles; by periodicity this converges spectrally and
    is exact once ntheta exceeds the trigonometric degree of the integrand.
    """
    m, ell = _two_row_shape(lam)
    if ntheta < 1:
        raise ValueError("ntheta must be positive")
    x1, x2 = finite_nonnegative(x)
    y1, y2 = finite_nonnegative(y)
    coeffs, half = _coeff_row(m, 0.5)
    vals = []
    for j in range(ntheta):
        theta = 2.0 * math.pi * j / ntheta
        big, small = _conjugate_eigs(x1, x2, y1, y2, theta)
        vals.append((big * small) ** ell * _closed_form_terms(coeffs, half, m, big, small))
    return math.fsum(vals) / ntheta


def verify_zonal(lam, x, y, ntheta, tol):
    """Compare the k = 1/2 product left side with the rotation-group average."""
    lhs = product_lhs(lam, Fraction(1, 2), x, y)
    rhs = zonal_so2_average(lam, x, y, ntheta)
    return make_report(
        lhs, rhs, tol,
        identity="zonal-average",
        **{"lambda": list(Partition(lam))},
        x=[float(v) for v in x],
        y=[float(v) for v in y],
        ntheta=ntheta,
    )
