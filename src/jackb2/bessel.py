"""Generalized Bessel function of type B2 and the operators behind it.

Three independent routes to the same function are implemented:

* ``bessel_b2_series`` -- the two-argument 0F1 hypergeometric series over
  partitions with at most two rows, evaluated through Jack polynomials;
* ``hyp0f1_single_integral`` -- the one-dimensional integral that covers
  arguments of the form (x, e1);
* ``bessel_b2_double_integral`` -- the two-dimensional integral against a
  product of symmetric Jacobi weights.

The double integral is derived from the two-variable product formula:
step A is the product identity in u, with J1(X) = 0F1(mu; X, (1, 1)) at the
eigenvalue split X(u) of the halved squares of x and y; step B writes J1 as
one integral in v of i_(mu-1)(2 sqrt(X1 + X2 + 2 v sqrt(X1 X2))).  Composed,
they give the double integral at order mu - 1 = kappa1 + kappa2 - 1/2.
``verify_derived_route`` checks the composition against the series, and
``resolve_double_integral_order`` keeps the numerical evidence for the order.

``dunkl_apply`` realizes the type-B2 Dunkl operators on exact rational
polynomials (``Poly2``); every reflection difference is divisible by its
linear form and the division is carried out on coefficients, so the whole
operator calculus is exact.  ``check_rotation_intertwining`` verifies the
conjugation law under the 45-degree rotation that swaps the two root
lengths, reduced to an exact rational identity per homogeneous degree.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .jack import _closed_form_terms, _two_var_coeffs, jack_p_two_var
from .partitions import Partition, param_value, rising_prefix
from .product import _split, finite_nonnegative, make_report
from .quadrature import gauss_jacobi_rule, normalization_c

log = logging.getLogger(__name__)

_SQRT2 = math.sqrt(2.0)
# Indices for verify_limit_transition; each doubles the one before.
_LIMIT_ELLS = (8, 16, 32, 64)
# Series denominator tables kept at once, each for one (mu, k, max_degree).
_TABLE_CACHE_SIZE = 32
# Resolved orders kept at once; bessel-scan resolves 40 multiplicities.
_ORDER_CACHE_SIZE = 64


class PoleError(ArithmeticError):
    """A Pochhammer factor in the series denominator vanished."""


class OrderResolutionError(RuntimeError):
    """Neither candidate Bessel order reproduces the series."""


@dataclass(frozen=True)
class Multiplicity:
    """Type-B2 multiplicity (kappa1 on the sign flips, kappa2 on the swaps)."""

    kappa1: object
    kappa2: object

    def __post_init__(self):
        if not (self.kappa1 > 0 and self.kappa2 > 0):
            raise ValueError(f"multiplicities must be positive, got {self}")

    @property
    def order_mu(self):
        """Derived Bessel order parameter kappa1 + kappa2 + 1/2."""
        exact = all(isinstance(v, (int, Fraction)) for v in (self.kappa1, self.kappa2))
        return self.kappa1 + self.kappa2 + (Fraction(1, 2) if exact else 0.5)

    @property
    def swapped(self):
        """The multiplicity with the two root-length values exchanged."""
        return Multiplicity(self.kappa2, self.kappa1)


class Poly2:
    """Polynomial in two variables with exact coefficients, not symmetric.

    Stored as a map (i, j) -> coefficient for the monomial x1^i x2^j.
    Immutable by convention; all operations return new polynomials.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        for (i, j), c in (coeffs or {}).items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in {(i, j)}")
            if c != 0:
                clean[(int(i), int(j))] = c
        self.coeffs = clean

    def __eq__(self, other):
        return isinstance(other, Poly2) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        terms = ", ".join(f"x1^{i} x2^{j}: {c}" for (i, j), c in sorted(self.coeffs.items()))
        return f"Poly2({{{terms}}})"

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return Poly2(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) - c
        return Poly2(out)

    def scaled(self, c):
        return Poly2({e: c * v for e, v in self.coeffs.items()})

    def deriv(self, direction):
        """Partial derivative with respect to x1 or x2."""
        out = {}
        for (i, j), c in self.coeffs.items():
            if direction == 1 and i:
                out[(i - 1, j)] = c * i
            elif direction == 2 and j:
                out[(i, j - 1)] = c * j
        return Poly2(out)

    def reflect(self, direction):
        """Substitute x1 -> -x1 (direction 1) or x2 -> -x2 (direction 2)."""
        if direction == 1:
            return Poly2({(i, j): c if i % 2 == 0 else -c
                          for (i, j), c in self.coeffs.items()})
        return Poly2({(i, j): c if j % 2 == 0 else -c
                      for (i, j), c in self.coeffs.items()})

    def swap(self):
        """Substitute (x1, x2) -> (x2, x1)."""
        return Poly2({(j, i): c for (i, j), c in self.coeffs.items()})

    def neg_swap(self):
        """Substitute (x1, x2) -> (-x2, -x1)."""
        return Poly2({(j, i): c if (i + j) % 2 == 0 else -c
                      for (i, j), c in self.coeffs.items()})

    def div_x(self, direction):
        """Exact division by x1 or x2; raises if any term lacks the factor."""
        out = {}
        for (i, j), c in self.coeffs.items():
            if direction == 1:
                if i == 0:
                    raise ArithmeticError("division by x1 leaves a remainder")
                out[(i - 1, j)] = c
            else:
                if j == 0:
                    raise ArithmeticError("division by x2 leaves a remainder")
                out[(i, j - 1)] = c
        return Poly2(out)

    def div_linear(self, root_sign):
        """Exact division by x1 - root_sign * x2, by synthetic division in x1.

        root_sign = +1 divides by x1 - x2, root_sign = -1 by x1 + x2.
        Raises if the remainder (the value on the line x1 = root_sign*x2)
        is nonzero.
        """
        if not self.coeffs:
            return Poly2()
        rows = {}
        for (i, j), c in self.coeffs.items():
            rows.setdefault(i, {})[j] = c
        top = max(rows)
        quot = {}
        carry = dict(rows.get(top, {}))
        for i in range(top - 1, -1, -1):
            for j, c in carry.items():
                if c != 0:
                    quot[(i, j)] = quot.get((i, j), 0) + c
            nxt = dict(rows.get(i, {}))
            for j, c in carry.items():
                nxt[j + 1] = nxt.get(j + 1, 0) + root_sign * c
            carry = {j: c for j, c in nxt.items() if c != 0}
        if carry:
            raise ArithmeticError("division by the linear form leaves a remainder")
        return Poly2(quot)

    def rotate_scaled(self):
        """Substitute (x1, x2) -> (x1 + x2, -x1 + x2), exactly.

        This is sqrt(2) times the 45-degree rotation; tracking the powers of
        two per homogeneous degree keeps rotation identities rational.
        """
        out = {}
        for (i, j), c in self.coeffs.items():
            for a in range(i + 1):
                ca = c * math.comb(i, a)
                for b in range(j + 1):
                    # (x1+x2)^i contributes x1^a x2^(i-a); (-x1+x2)^j
                    # contributes (-1)^b x1^b x2^(j-b).
                    cb = ca * math.comb(j, b) * (-1 if b % 2 else 1)
                    e = (a + b, i - a + j - b)
                    out[e] = out.get(e, 0) + cb
        return Poly2(out)

    def homogeneous_parts(self):
        """Map degree -> homogeneous component."""
        parts = {}
        for (i, j), c in self.coeffs.items():
            parts.setdefault(i + j, {})[(i, j)] = c
        return {d: Poly2(cs) for d, cs in sorted(parts.items())}


def dunkl_apply(p, kappa, direction):
    """Type-B2 Dunkl operator T_1 or T_2 applied to an exact polynomial.

    T_1 f = d f/dx1 + kappa1 (f - f(-x1, x2))/x1
                    + kappa2 (f - f(x2, x1))/(x1 - x2)
                    + kappa2 (f - f(-x2, -x1))/(x1 + x2)

    and T_2 is the analogue in the second variable, with the swap term
    entering with the opposite sign.  All differences are exactly divisible
    by their linear forms.
    """
    if direction not in (1, 2):
        raise ValueError("direction must be 1 or 2")
    k1, k2 = kappa.kappa1, kappa.kappa2
    swap_diff = (p - p.swap()).div_linear(+1)
    neg_diff = (p - p.neg_swap()).div_linear(-1)
    if direction == 1:
        refl = (p - p.reflect(1)).div_x(1)
        return p.deriv(1) + refl.scaled(k1) + swap_diff.scaled(k2) + neg_diff.scaled(k2)
    refl = (p - p.reflect(2)).div_x(2)
    return p.deriv(2) + refl.scaled(k1) + swap_diff.scaled(-k2) + neg_diff.scaled(k2)


def check_rotation_intertwining(p, kappa):
    """Exact check of the rotation conjugation law for the Dunkl operators.

    With r the 45-degree rotation and kappa' the swapped multiplicity,

        T_1^kappa (p o r) = (1/sqrt 2) ((T_1 - T_2)^kappa' p) o r
        T_2^kappa (p o r) = (1/sqrt 2) ((T_1 + T_2)^kappa' p) o r.

    Both sides of each identity scale by the same power of sqrt(2) per
    homogeneous degree, so after replacing r by the integer matrix
    (x1, x2) -> (x1 + x2, -x1 + x2) the comparison is exact and rational.
    Returns False (and logs the first differing monomial) on mismatch.
    """
    kp = kappa.swapped
    for _, comp in p.homogeneous_parts().items():
        rotated = comp.rotate_scaled()
        t1 = dunkl_apply(comp, kp, 1)
        t2 = dunkl_apply(comp, kp, 2)
        pairs = (
            (dunkl_apply(rotated, kappa, 1), (t1 - t2).rotate_scaled()),
            (dunkl_apply(rotated, kappa, 2), (t1 + t2).rotate_scaled()),
        )
        for lhs, rhs in pairs:
            diff = lhs - rhs
            if diff.coeffs:
                term = sorted(diff.coeffs.items())[0]
                log.debug("intertwining mismatch on %r: term %r", comp, term)
                return False
    return True


def bessel_i_norm(nu, t):
    """Normalized modified Bessel function: series in (t^2/4), equal 1 at 0.

    sum_m (t^2/4)^m / (m! (nu+1)_m), accumulated until the next term drops
    below 1e-17 of the running value.  Scalars use compensated summation;
    numpy arrays are summed termwise with a shared stopping criterion.  A
    NaN or infinite argument stops the sum at once; it and a value past the
    float range (from about t = 710) raise ValueError.
    """
    if not nu > -1:
        raise ValueError(f"order must exceed -1, got {nu}")
    nu = float(nu)
    if isinstance(t, np.ndarray):
        with np.errstate(over="ignore"):  # an overflow raises ValueError below
            q = np.square(t) * 0.25
            term = np.ones_like(q)
            total = np.ones_like(q)
            for m in range(1, 600):
                term = term * q / (m * (nu + m))
                total += term
                if not np.any(term > 1e-17 * total):
                    if not np.all(np.isfinite(total)):
                        raise ValueError("an argument is not finite or its value overflows")
                    return total
        raise ArithmeticError("series did not converge in 600 terms")
    q = float(t) * float(t) * 0.25
    term = total = 1.0
    terms = [term]
    for m in range(1, 600):
        term = term * q / (m * (nu + m))
        terms.append(term)
        # A plain running sum is accurate enough for the stopping test;
        # the compensated sum is taken once, for the returned value.
        total += term
        if not term > 1e-17 * total:
            if not math.isfinite(total):
                raise ValueError(f"argument {t} is not finite or its value overflows")
            return math.fsum(terms)
    raise ArithmeticError("series did not converge in 600 terms")


@lru_cache(maxsize=_TABLE_CACHE_SIZE, typed=True)
def _denominator_table(mu_order, k, max_degree):
    """Float Pochhammer factor and denominator of every term of ``hyp0f1_two``.

    Entries run over lam = (m + ell, ell) with |lam| <= max_degree, in the
    order the series sums them (degree ascending, then ell ascending), as
    two flat tuples (poch, denom).  The factors come from prefix products
    of rising factorials and a recurrence in ell, in the arithmetic of mu
    and k (Fractions when exact):

        poch   = (mu)_(m+ell) (mu-k)_ell      gen_pochhammer at n = 2
        hook   = ell! m! (m+1+k)_ell          hook_product_h
        P(1,1) = (2k)_m / (k)_m               jack_p_two_var at (1, 1)
        denom  = float(poch) * float(hook) * float(P(1,1))

    For exact mu and k each factor is the same rational the general routine
    gives, so each float is the same double.  ``typed=True`` keeps exact and
    float arguments apart: Fraction(1, 2) == 0.5 and their hashes agree.
    An exact factor (or the integer m!) too large for a float raises
    ValueError naming max_degree; float factors overflow to inf as before.
    """
    kv = Fraction(k) if isinstance(k, (int, Fraction)) else float(k)
    mu = Fraction(mu_order) if isinstance(mu_order, (int, Fraction)) else float(mu_order)
    rise_mu = rising_prefix(mu, max_degree)
    rise_mu_k = rising_prefix(mu - kv, max_degree // 2)
    at_ones = [a / b for a, b in zip(rising_prefix(2 * kv, max_degree),
                                     rising_prefix(kv, max_degree))]
    pochs, denoms = [], []
    try:
        hooks = []
        for m in range(max_degree + 1):
            row = [math.factorial(m)]
            for ell in range(1, (max_degree - m) // 2 + 1):
                row.append(row[-1] * ell * (m + ell + kv))
            hooks.append(row)
        for d in range(max_degree + 1):
            for ell in range(d // 2 + 1):
                m = d - 2 * ell
                poch = float(rise_mu[m + ell] * rise_mu_k[ell])
                pochs.append(poch)
                denoms.append(poch * float(hooks[m][ell]) * float(at_ones[m]))
    except OverflowError as exc:
        raise ValueError(
            f"max_degree={max_degree} needs series denominators beyond the float "
            f"range (about 1.8e308) at mu={mu_order}, k={k}; lower max_degree") from exc
    return tuple(pochs), tuple(denoms)


def hyp0f1_two(mu_order, k, x, y, max_degree):
    """Two-argument 0F1 series over two-row partitions, truncated by degree.

    Returns (value, truncation_estimate) where the estimate is the summed
    magnitude of the top degree's contribution.  Raises PoleError when a
    generalized Pochhammer factor in a needed denominator vanishes.

    The denominators come from ``_denominator_table``, built once per
    (mu, k, max_degree); the Jack closed form is evaluated once per
    m = lam_1 - lam_2 at each argument and scaled by (x1 x2)^ell per term.
    A sum past the float range raises ValueError naming max_degree.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    x1, x2 = (float(v) for v in x)
    y1, y2 = (float(v) for v in y)
    kv = param_value(k)
    pochs, denoms = _denominator_table(mu_order, kv, max_degree)
    try:
        rows = [_two_var_coeffs(m, float(kv), False) for m in range(max_degree + 1)]
        qx = [_closed_form_terms(row, 0.5, m, x1, x2) for m, row in enumerate(rows)]
        qy = [_closed_form_terms(row, 0.5, m, y1, y2) for m, row in enumerate(rows)]
        px, py = x1 * x2, y1 * y2
        entries = zip(pochs, denoms)
        terms = []
        top_layer = 0.0
        for d in range(max_degree + 1):
            layer = []
            for ell in range(d // 2 + 1):
                poch, denom = next(entries)
                m = d - 2 * ell
                num = (px ** ell * qx[m]) * (py ** ell * qy[m])
                if num == 0.0:
                    # Term vanishes identically at this point; a zero Pochhammer
                    # factor under it is a removable singularity, not a pole.
                    continue
                if poch == 0.0:
                    raise PoleError(f"Pochhammer factor vanishes for "
                                    f"{Partition((m + ell, ell))} at order {mu_order}")
                layer.append(num / denom)
            terms.extend(layer)
            top_layer = math.fsum(abs(v) for v in layer)
        value = math.fsum(terms)
        if math.isfinite(value):
            return value, top_layer
    except (OverflowError, ValueError):  # a float power or fsum past the range
        pass
    raise ValueError(f"max_degree={max_degree} takes the float series past the float "
                     "range; lower it or use the double integral (--method double-integral)")


def bessel_b2_series(kappa, x, y, max_degree=30):
    """Generalized Bessel function of type B2 via the hypergeometric series.

    J(x, y) = 0F1(mu; x^2/2, y^2/2) with mu = kappa1 + kappa2 + 1/2 and the
    Jack parameter equal to kappa2.  Even in each argument component.
    """
    value, _ = bessel_b2_series_trunc(kappa, x, y, max_degree)
    return value


def bessel_b2_series_trunc(kappa, x, y, max_degree=30):
    """Series value together with its truncation estimate."""
    xs = (0.5 * float(x[0]) ** 2, 0.5 * float(x[1]) ** 2)
    ys = (0.5 * float(y[0]) ** 2, 0.5 * float(y[1]) ** 2)
    return hyp0f1_two(kappa.order_mu, kappa.kappa2, xs, ys, max_degree)


def hyp0f1_single_integral(mu_order, k, x, npoints=64):
    """One-dimensional integral form of 0F1(mu; x, e1), e1 = (1, 0).

    c(k) * integral of I_(mu-1)(sqrt(2(x1 + x2 + v(x1 - x2)))) against
    (1 - v^2)^(k-1); the radicand is nonnegative on the whole domain for
    componentwise nonnegative x.
    """
    x1, x2 = finite_nonnegative(x)
    nu = float(mu_order) - 1.0
    rule = gauss_jacobi_rule(npoints, k)
    args = np.sqrt(np.maximum(2.0 * (x1 + x2 + rule.nodes * (x1 - x2)), 0.0))
    vals = bessel_i_norm(nu, args)
    return normalization_c(k) * float(rule.weights @ vals)


def _double_integral_radicand(x, y, u, v):
    """Polynomial under the inner radical of the double-integral form."""
    x1, x2 = x
    y1, y2 = y
    s = (x1 * x1 + x2 * x2) * (y1 * y1 + y2 * y2)
    d = (x1 * x1 - x2 * x2) * (y1 * y1 - y2 * y2)
    p = 4.0 * x1 * x2 * y1 * y2
    return s + u * d + v * p


def bessel_b2_double_integral(kappa, x, y, npoints_u=64, npoints_v=64, order=None):
    """Double-integral representation of the type-B2 Bessel function.

    c_kappa * double integral of I_order(sqrt(Z(u,v)/2)) against
    (1-u^2)^(kappa2-1) (1-v^2)^(kappa1-1), with the polynomial radicand

        Z(u,v) = (x1^2+x2^2)(y1^2+y2^2) + u (x1^2-x2^2)(y1^2-y2^2)
                 + 4 v x1 x2 y1 y2.

    Z is provably nonnegative on the closed square (its minimum over
    u, v in [-1,1] is 2 (x1 y2 - x2 y1)^2), which is still asserted at the
    nodes.  The order defaults to mu - 1, by the derivation in the module
    docstring: Z(u, v) / 2 = 4 (X1 + X2 + 2 v sqrt(X1 X2)) at the split X(u).
    """
    x1, x2 = finite_nonnegative(x)
    y1, y2 = finite_nonnegative(y)
    if order is None:
        order = float(kappa.order_mu) - 1.0
    rule_u = gauss_jacobi_rule(npoints_u, kappa.kappa2)
    rule_v = gauss_jacobi_rule(npoints_v, kappa.kappa1)
    z = _double_integral_radicand(
        (x1, x2), (y1, y2), rule_u.nodes[:, None], rule_v.nodes[None, :])
    scale = max(abs(z).max(), 1.0)
    if z.min() < -1e-12 * scale:
        raise ArithmeticError(f"negative radicand {z.min()} at a quadrature node")
    vals = bessel_i_norm(float(order), np.sqrt(np.maximum(z, 0.0) * 0.5))
    c_kappa = normalization_c(kappa.kappa1) * normalization_c(kappa.kappa2)
    return c_kappa * float(rule_u.weights @ vals @ rule_v.weights)


@lru_cache(maxsize=_ORDER_CACHE_SIZE)
def resolve_double_integral_order(kappa, npoints=64, max_degree=30, seed=42):
    """Check the Bessel order of the double integral against the series.

    The formula circulates with the order stated both as mu and as mu - 1;
    the evaluators take mu - 1 by derivation, and as evidence this evaluates
    both on five seeded small argument pairs and returns the one agreeing with
    the series.  Points where both match (degenerate arguments) are excluded.
    Raises OrderResolutionError if no candidate agrees within 1e-5 everywhere.
    """
    mu = float(kappa.order_mu)
    candidates = (mu, mu - 1.0)
    rng = np.random.default_rng(seed)
    worst = [0.0, 0.0]
    used = attempts = 0
    while used < 5:
        attempts += 1
        if attempts > 25:
            raise OrderResolutionError(
                f"could not find informative resolution points for {kappa}")
        x = tuple(rng.uniform(0.1, 0.8, size=2))
        y = tuple(rng.uniform(0.1, 0.8, size=2))
        ref = bessel_b2_series(kappa, x, y, max_degree)
        errs = [
            abs(bessel_b2_double_integral(kappa, x, y, npoints, npoints, order=c) - ref)
            / abs(ref)
            for c in candidates
        ]
        if max(errs) < 1e-9:  # both match: uninformative point
            continue
        worst = [max(w, e) for w, e in zip(worst, errs)]
        used += 1
    best = min(range(2), key=lambda i: worst[i])
    if worst[best] > 1e-5:
        raise OrderResolutionError(
            f"no candidate order matches the series for {kappa}: "
            f"errors mu={worst[0]:.3g}, mu-1={worst[1]:.3g}")
    return candidates[best]


def verify_series_vs_double_integral(kappa, x, y, order, npoints=64, max_degree=30, tol=1e-7):
    """Compare the series with the double integral taken at Bessel order ``order``."""
    lhs = bessel_b2_series(kappa, x, y, max_degree)
    rhs = bessel_b2_double_integral(kappa, x, y, npoints, npoints, order=order)
    return make_report(
        lhs, rhs, tol,
        identity="series-vs-double-integral",
        kappa=[str(kappa.kappa1), str(kappa.kappa2)],
        x=[float(v) for v in x],
        y=[float(v) for v in y],
        method_a="series",
        method_b="double-integral",
        resolved_order=float(order),
        nodes=npoints,
    )


def verify_derived_route(kappa, x, y, npoints=64, max_degree=30, tol=1e-7):
    """Compare the series with step A composed with step B, on one u-v grid.

    rhs = c(kappa2) c(kappa1) sum_u sum_v w_u w_v i_(mu-1)(2 sqrt(X1 + X2 + 2 v sqrt(X1 X2))).
    """
    x1, x2 = finite_nonnegative(x)
    y1, y2 = finite_nonnegative(y)
    order = float(kappa.order_mu) - 1.0
    rule_u = gauss_jacobi_rule(npoints, kappa.kappa2)
    rule_v = gauss_jacobi_rule(npoints, kappa.kappa1)
    split = np.array([_split(0.5 * x1 ** 2, 0.5 * x2 ** 2, 0.5 * y1 ** 2, 0.5 * y2 ** 2, u)
                      for u in rule_u.nodes.tolist()])
    radicand = split[:, :1] + 2.0 * rule_v.nodes * np.sqrt(split[:, 1:2] * split[:, 2:])
    vals = bessel_i_norm(order, 2.0 * np.sqrt(np.maximum(radicand, 0.0)))
    c_kappa = normalization_c(kappa.kappa2) * normalization_c(kappa.kappa1)
    return make_report(
        bessel_b2_series(kappa, x, y, max_degree),
        c_kappa * float(rule_u.weights @ vals @ rule_v.weights), tol,
        identity="b2-derivation",
        kappa=[str(kappa.kappa1), str(kappa.kappa2)],
        x=[float(v) for v in x],
        y=[float(v) for v in y],
        method_a="series",
        method_b="product-formula-route",
        order=order,
        nodes=npoints,
    )


def verify_single_integral(mu_order, k, x, npoints=64, max_degree=40, tol=1e-9):
    """Compare the two-argument series at (x, e1) with its single integral."""
    series, _ = hyp0f1_two(mu_order, k, x, (1.0, 0.0), max_degree)
    integral = hyp0f1_single_integral(mu_order, k, x, npoints)
    return make_report(
        series, integral, tol,
        identity="single-integral",
        mu=str(mu_order),
        k=str(k),
        x=[float(v) for v in x],
        method_a="series",
        method_b="single-integral",
        nodes=npoints,
        max_degree=max_degree,
    )


def bessel_rotation_symmetry(kappa, x, y, max_degree=30, tol=1e-8):
    """Check J^kappa(x, y) = J^kappa'(r x, r y) for the 45-degree rotation r."""
    rx = ((x[0] + x[1]) / _SQRT2, (x[1] - x[0]) / _SQRT2)
    ry = ((y[0] + y[1]) / _SQRT2, (y[1] - y[0]) / _SQRT2)
    lhs = bessel_b2_series(kappa, x, y, max_degree)
    rhs = bessel_b2_series(kappa.swapped, rx, ry, max_degree)
    return make_report(
        lhs, rhs, tol,
        identity="rotation-symmetry",
        kappa=[str(kappa.kappa1), str(kappa.kappa2)],
        x=[float(v) for v in x],
        y=[float(v) for v in y],
        method_a="series",
        method_b="series-rotated",
        max_degree=max_degree,
    )


def bessel_product_identity(k, x, y, npoints=64, tol=1e-10):
    """Classical product formula for the normalized Bessel function.

    I_(k-1/2)(x) I_(k-1/2)(y) = c(k) * integral of
    I_(k-1/2)(sqrt(x^2 + y^2 + 2 u x y)) against (1-u^2)^(k-1).
    """
    x, y = float(x), float(y)
    nu = float(k) - 0.5
    lhs = bessel_i_norm(nu, x) * bessel_i_norm(nu, y)
    rule = gauss_jacobi_rule(max(npoints, 64), k)
    args = np.sqrt(np.maximum(x * x + y * y + 2.0 * rule.nodes * x * y, 0.0))
    rhs = normalization_c(k) * float(rule.weights @ bessel_i_norm(nu, args))
    return make_report(
        lhs, rhs, tol,
        identity="bessel-product",
        k=str(k),
        x=x,
        y=y,
        npoints=max(npoints, 64),
        method_a="series-product",
        method_b="quadrature",
    )


def limit_transition(k, x, ell):
    """Normalized Jack ratio whose large-index limit is the Bessel function.

    Evaluates P_lam(1 + x/ell, 1 - x/ell) / P_lam(1, 1) at lam =
    (2 ell, ell); as ell grows this converges (first order in 1/ell) to
    bessel_i_norm(k - 1/2, x).
    """
    if ell < 1:
        raise ValueError("ell must be a positive integer")
    x = float(x)
    if not ell > abs(x):
        raise ValueError("ell must exceed |x| to keep the arguments positive")
    lam = Partition((2 * ell, ell))
    kv = float(k)
    num = jack_p_two_var(lam, kv, 1.0 + x / ell, 1.0 - x / ell)
    den = jack_p_two_var(lam, kv, 1.0, 1.0)
    return num / den


def verify_limit_transition(k, x):
    """lhs = bessel_i_norm(k - 1/2, x), rhs = the Jack ratio at the last ell.

    The error should halve as ell doubles, so the check passes when every
    ratio of successive errors lies in [0.35, 0.65], whatever the last error.
    """
    target = bessel_i_norm(float(k) - 0.5, x)
    values = [limit_transition(k, x, ell) for ell in _LIMIT_ELLS]
    errors = [abs(v - target) for v in values]
    ratios = [b / a if a > 0 else 0.0 for a, b in zip(errors, errors[1:])]
    report = make_report(
        target, values[-1], math.inf,
        identity="limit-transition",
        k=str(k),
        x=x,
        ells=list(_LIMIT_ELLS),
        errors=errors,
        ratios=ratios,
    )
    return replace(report, passed=all(0.35 <= r <= 0.65 for r in ratios))
