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

``dunkl_apply`` realizes the type-B2 Dunkl operators on exact polynomials
(``Poly2``): T_1 by its closed form on one monomial, split into a kappa-free,
a kappa1 and a kappa2 part, and T_2 = s T_1 s, s the swap of x1 and x2.
``check_rotation_intertwining`` checks on integers the conjugation law under the
45-degree rotation that swaps the two root lengths: its defect is d0 + kappa1 d1
+ kappa2 d2 with kappa-free integer polynomials, and where all three vanish
(tested for every monomial through degree 12) the law holds for every kappa.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

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
# Resolved orders kept at once; only verify's three default kappas reach it.
_ORDER_CACHE_SIZE = 64
# Default quadrature nodes of every integral route, and the relative
# tolerance of a degree-truncated series value or of a quadrature.
DEFAULT_NPOINTS = 64
SERIES_TOL = 1e-7


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
        """Derived Bessel order parameter kappa1 + kappa2 + 1/2, a float for a float pair."""
        return self.kappa1 + self.kappa2 + Fraction(1, 2)

    @property
    def integral_order(self):
        """Bessel order mu - 1 of the integral forms, derived from the product formula."""
        return float(self.order_mu) - 1.0

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
        return self + other.scaled(-1)

    def scaled(self, c):
        return Poly2({e: c * v for e, v in self.coeffs.items()})

    def swap(self):
        """Substitute (x1, x2) -> (x2, x1)."""
        return Poly2({(j, i): c for (i, j), c in self.coeffs.items()})

    def rotate_scaled(self):
        """Substitute (x1, x2) -> (x1 + x2, -x1 + x2), sqrt(2) times the 45-degree
        rotation: exact, on the integer D p of ``_integer_scaled``, each result divided by D."""
        scale, ints = _integer_scaled(self)
        out = {}
        for (i, j), n in ints.items():
            # (x1+x2)^i gives x1^a x2^(i-a); (-x1+x2)^j gives (-1)^b x1^b x2^(j-b).
            signed = [(-1) ** b * math.comb(j, b) for b in range(j + 1)]
            for a in range(i + 1):
                na = math.comb(i, a) * n
                for b, cb in enumerate(signed):
                    out[(a + b, i + j - a - b)] = out.get((a + b, i + j - a - b), 0) + na * cb
        return Poly2(out if scale == 1 else {e: Fraction(v, scale) for e, v in out.items()})


def _integer_scaled(p):
    """(D, D p as a coefficient map), D the lcm of the denominators of p's exact coefficients."""
    scale = math.lcm(*(Fraction(c).denominator for c in p.coeffs.values()))
    return scale, {e: int(c * scale) for e, c in p.coeffs.items()}


def _dunkl_parts(p, direction):
    """T_direction p as its kappa-free, kappa1 and kappa2 parts; T_2 = s T_1 s, s the swap."""
    free, on_k1, on_k2 = {}, {}, {}
    for (a, b), c in (p if direction == 1 else p.swap()).coeffs.items():
        if a:
            free[(a - 1, b)] = a * c
            on_k1[(a - 1, b)] = 2 * c * (a % 2)
        r, lo = (2 * c if a > b else -2 * c), min(a, b)
        for e in range(lo + (a - 1 - lo) % 2, max(a, b), 2):
            on_k2[(e, a + b - 1 - e)] = on_k2.get((e, a + b - 1 - e), 0) + r
    parts = Poly2(free), Poly2(on_k1), Poly2(on_k2)
    return parts if direction == 1 else tuple(part.swap() for part in parts)


def dunkl_apply(p, kappa, direction):
    """Type-B2 Dunkl operator T_1 or T_2 applied to an exact polynomial.

    T_1 f = d f/dx1 + kappa1 (f - f(-x1, x2))/x1
                    + kappa2 (f - f(x2, x1))/(x1 - x2)
                    + kappa2 (f - f(-x2, -x1))/(x1 + x2)

    and T_2 = s T_1 s, with s the swap of x1 and x2.  Each quotient is a short
    sum, and the two kappa2 sums cancel at every other monomial, so on
    x1^a x2^b T_1 is

        (a + 2 kappa1 [a odd]) x1^(a-1) x2^b
        + 2 kappa2 sgn(a - b) sum_e x1^e x2^(a+b-1-e)

    over min(a, b) <= e < max(a, b) with e = a - 1 (mod 2), read from ``_dunkl_parts``.
    """
    if direction not in (1, 2):
        raise ValueError("direction must be 1 or 2")
    free, on_k1, on_k2 = _dunkl_parts(p, direction)
    return free + on_k1.scaled(kappa.kappa1) + on_k2.scaled(kappa.kappa2)


@lru_cache(maxsize=64)  # verify rotation checks 28 monomials
def _rotation_defect(p):
    """Each identity's lhs - rhs on an integer p, as parts (d0, d1, d2); kappa' swaps d1, d2."""
    rotated, t1, t2 = p.rotate_scaled(), _dunkl_parts(p, 1), _dunkl_parts(p, 2)
    defect = []
    for direction, sign in ((1, -1), (2, 1)):
        l0, l1, l2 = _dunkl_parts(rotated, direction)
        r0, r1, r2 = ((a + b.scaled(sign)).rotate_scaled() for a, b in zip(t1, t2))
        defect.append((l0 - r0, l1 - r2, l2 - r1))
    return tuple(defect)


def check_rotation_intertwining(p, kappa):
    """Exact check of the rotation conjugation law for the Dunkl operators.

    With r the 45-degree rotation and kappa' the swapped multiplicity,

        T_1^kappa (p o r) = (1/sqrt 2) ((T_1 - T_2)^kappa' p) o r
        T_2^kappa (p o r) = (1/sqrt 2) ((T_1 + T_2)^kappa' p) o r.

    Every Dunkl operator lowers the degree by exactly one, so with r replaced
    by the integer matrix R = sqrt(2) r, (x1, x2) -> (x1 + x2, -x1 + x2), the
    factors sqrt 2 and 1/sqrt 2 cancel.  Both sides are linear in p, so the law
    is checked on the integer polynomial D p, D the lcm of p's denominators;
    both are affine in kappa, so each defect lhs - rhs is d0 + kappa1 d1 +
    kappa2 d2 with integer d0, d1, d2, built once per D p and read at kappa.
    Returns False (and logs the first differing monomial) on mismatch.
    """
    scale, ints = _integer_scaled(p)
    for d0, d1, d2 in _rotation_defect(Poly2(ints)):
        diff = (d0 + d1.scaled(kappa.kappa1) + d2.scaled(kappa.kappa2)).scaled(Fraction(1, scale))
        if diff.coeffs:
            log.debug("intertwining mismatch on %r: term %r", p, sorted(diff.coeffs.items())[0])
            return False
    return True


def _i_norm_array(nu, q, grouped):
    """The array sum of bessel_i_norm at q = t^2 / 4, tested every 4th term."""
    import numpy as np

    term = np.ones_like(q)
    total = np.ones_like(q)
    for m in range(1, 1500):
        d = m * (nu + m)
        term = term * (q / d) if grouped else term * q / d
        total += term
        if (m % 4 == 0 or m == 1499) and not np.any(term > 1e-17 * total):
            return total
    raise ArithmeticError("series did not converge in 1500 terms")


def _i_norm_scalar(nu, q, grouped):
    """The scalar sum of bessel_i_norm at q = t^2 / 4, tested every term."""
    term = total = 1.0
    terms = [term]
    for m in range(1, 1500):
        d = m * (nu + m)
        term = term * (q / d) if grouped else term * q / d
        terms.append(term)
        # A plain running sum is accurate enough for the stopping test;
        # the compensated sum is taken once, for the returned value.
        total += term
        if not term > 1e-17 * total:
            return math.fsum(terms) if math.isfinite(total) else total
    raise ArithmeticError("series did not converge in 1500 terms")


def bessel_i_norm(nu, t):
    """Normalized modified Bessel function: series in (t^2/4), equal 1 at 0.

    sum_m (t^2/4)^m / (m! (nu+1)_m), term m = term (m-1) * q / (m (nu+m)) with
    q = t^2/4, accumulated until every term drops below 1e-17 of its running
    value.  Past the last allowed term, m = 1499, ArithmeticError is raised;
    every value within the float range stops by m = 941 (its peak, where
    m (nu+m) = q, lies below m = 710, and the terms past the peak fall at
    least as fast as Poisson weights), and a larger one overflows a term
    first.  Scalars test after each term and return the compensated sum.
    Numpy arrays are summed termwise and test every 4th term and the last.  The later stop keeps every bit: at the first term that
    passes the test each element is past its peak, so every later term is
    smaller still, below 1e-17 of the total and so under half an ulp of it,
    and adding it rounds back to the total.

    The product term * q overflows before the sum does, from t = 698.2 at
    nu = -0.9 and 708.8 at nu = 1/2.  Only there is the sum taken again with
    term * (q / (m (nu+m))), which reaches the float limit of the value
    itself: t = 706.4 at nu = -0.9, 710.4 at nu = -1/2 (cosh t) and 717.0 at
    nu = 1/2 (sinh(t) / t), within 5e-14 of it.  A NaN or infinite argument,
    or a value past the float range, raises ValueError.
    """
    import numpy as np

    if not nu > -1:
        raise ValueError(f"order must exceed -1, got {nu}")
    nu = float(nu)
    if isinstance(t, np.ndarray):
        with np.errstate(over="ignore"):  # an overflow raises ValueError below
            q = np.square(t) * 0.25
            total = _i_norm_array(nu, q, False)
            if not np.all(np.isfinite(total)):
                total = _i_norm_array(nu, q, True)
        if np.all(np.isfinite(total)):
            return total
        raise ValueError("an argument is not finite or its value overflows")
    q = float(t) * float(t) * 0.25
    total = _i_norm_scalar(nu, q, False)
    if not math.isfinite(total):
        total = _i_norm_scalar(nu, q, True)
    if math.isfinite(total):
        return total
    raise ValueError(f"argument {t} is not finite or its value overflows")


@lru_cache(maxsize=_TABLE_CACHE_SIZE, typed=True)
def _denominator_table(mu_order, k, max_degree):
    """Float denominator of every term of ``hyp0f1_two``, as one flat tuple.

    Entries run over lam = (m + ell, ell) with |lam| <= max_degree, in the
    order the series sums them (degree ascending, then ell ascending).  The
    factors come from prefix products of rising factorials and a recurrence
    in ell:

        poch   = (mu)_(m+ell) (mu-k)_ell      gen_pochhammer at n = 2
        hook   = ell! m! (m+1+k)_ell          hook_product_h
        P(1,1) = (2k)_m / (k)_m               jack_p_two_var at (1, 1)
        denom  = float(poch) * float(hook) * float(P(1,1))

    With mu and k both exact each factor is an unreduced integer pair (N, D)
    and no gcd is taken: int / int is correctly rounded, as is float() of a
    Fraction (numerator / denominator), so N / D is the reduced rational's
    double.  Otherwise both are floats, pairs (value, 1.0) that round where
    value recurrences do, and may overflow to inf.  A zero Pochhammer factor
    is stored as the denominator even where a float hook or P(1,1) overflowed;
    for k > 0 these are >= 1, so no other denominator is 0.0.  ``typed=True``
    keeps exact and float arguments apart: Fraction(1, 2) == 0.5 and their
    hashes agree.  An exact factor (or the integer m!) too large for a float
    raises ValueError naming max_degree.
    """
    if all(isinstance(v, (int, Fraction)) for v in (mu_order, k)):
        (mn, md), (kn, kd) = (Fraction(v).as_integer_ratio() for v in (mu_order, k))
    else:
        (mn, md), (kn, kd) = (float(mu_order), 1.0), (float(k), 1.0)
    rise_mu = rising_prefix(mn, md, max_degree)
    rise_mu_k = rising_prefix(mn * kd - kn * md, md * kd, max_degree // 2)
    at_ones = [(a * bd, ad * b) for (a, ad), (b, bd) in zip(rising_prefix(2 * kn, kd, max_degree),
                                                           rising_prefix(kn, kd, max_degree))]
    denoms = []
    try:
        hooks = []
        for m in range(max_degree + 1):
            row = [(math.factorial(m), 1)]
            for ell in range(1, (max_degree - m) // 2 + 1):
                row.append((row[-1][0] * ell * ((m + ell) * kd + kn), row[-1][1] * kd))
            hooks.append(row)
        for d in range(max_degree + 1):
            for ell in range(d // 2 + 1):
                m = d - 2 * ell
                (pn, pd), (qn, qd) = rise_mu[m + ell], rise_mu_k[ell]
                (hn, hd), (an, ad) = hooks[m][ell], at_ones[m]
                poch = pn * qn / (pd * qd)
                denoms.append(poch and poch * (hn / hd) * (an / ad))
    except OverflowError as exc:
        raise ValueError(
            f"max_degree={max_degree} needs series denominators beyond the float "
            f"range (about 1.8e308) at mu={mu_order}, k={k}; lower max_degree") from exc
    return tuple(denoms)


def hyp0f1_two(mu_order, k, x, y, max_degree):
    """Two-argument 0F1 series over two-row partitions, truncated by degree.

    Returns (value, truncation_estimate), the estimate the summed magnitude
    of the top degree's terms.  A zero Pochhammer factor in a needed
    denominator raises PoleError, a non-finite mu, k or coordinate ValueError.

    The denominators come from ``_denominator_table``, built once per
    (mu, k, max_degree), and the closed-form rows m = 0..max_degree from one
    call of ``jack._two_var_coeffs``; each row is evaluated at x and y in one
    call and scaled by (x1 x2)^ell per term.  A sum past the float range
    raises ValueError naming max_degree.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    x1, x2 = (float(v) for v in x)
    y1, y2 = (float(v) for v in y)
    if not all(abs(v) < math.inf for v in (mu_order, k, x1, x2, y1, y2)):
        raise ValueError(f"mu, k, x and y must be finite, got {mu_order}, {k}, {x}, {y}")
    kv = param_value(k)
    entries = iter(_denominator_table(mu_order, kv, max_degree))
    try:
        rows = _two_var_coeffs(max_degree, float(kv))
        q = [_closed_form_terms(row, 0.5, m, ((x1, x2), (y1, y2))) for m, row in enumerate(rows)]
        px, py = x1 * x2, y1 * y2
        terms = []
        for d in range(max_degree + 1):
            layer = []
            for ell in range(d // 2 + 1):
                denom = next(entries)
                m = d - 2 * ell
                num = (px ** ell * q[m][0]) * (py ** ell * q[m][1])
                if num == 0.0:
                    # Term vanishes identically at this point; a zero Pochhammer
                    # factor under it is a removable singularity, not a pole.
                    continue
                if denom == 0.0:
                    raise PoleError(f"Pochhammer factor vanishes for "
                                    f"{Partition((m + ell, ell))} at order {mu_order}")
                layer.append(num / denom)
            terms.extend(layer)
        value = math.fsum(terms)
        if math.isfinite(value):
            return value, math.fsum(abs(v) for v in layer)
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


def _halved_squares(x, y):
    """The 0F1 arguments v^2 / 2 of B2 points; a square past the float range raises ValueError."""
    try:
        return [(0.5 * float(v[0]) ** 2, 0.5 * float(v[1]) ** 2) for v in (x, y)]
    except OverflowError:
        raise ValueError("x or y squared is past the float range (about 1.8e308)") from None


def bessel_b2_series_trunc(kappa, x, y, max_degree=30):
    """Series value and truncation estimate; a square past the float range raises ValueError."""
    return hyp0f1_two(kappa.order_mu, kappa.kappa2, *_halved_squares(x, y), max_degree)


def hyp0f1_single_integral(mu_order, k, x, npoints=DEFAULT_NPOINTS):
    """One-dimensional integral form of 0F1(mu; x, e1), e1 = (1, 0).

    c(k) * integral of I_(mu-1)(sqrt(2(x1 + x2 + v(x1 - x2)))) against
    (1 - v^2)^(k-1); the radicand is nonnegative on the whole domain for
    componentwise nonnegative x.
    """
    import numpy as np

    x1, x2 = finite_nonnegative(x)
    nu = float(mu_order) - 1.0
    rule = gauss_jacobi_rule(npoints, k)
    args = np.sqrt(np.maximum(2.0 * (x1 + x2 + rule.nodes * (x1 - x2)), 0.0))
    vals = bessel_i_norm(nu, args)
    return normalization_c(k) * float(rule.weights @ vals)


def bessel_b2_double_integral(kappa, x, y, npoints=DEFAULT_NPOINTS, *, order=None):
    """Double-integral representation of the type-B2 Bessel function.

    c_kappa * double integral of I_order(sqrt(Z(u,v)/2)) against
    (1-u^2)^(kappa2-1) (1-v^2)^(kappa1-1) on an npoints x npoints grid, with
    the polynomial radicand

        Z(u,v) = (x1^2+x2^2)(y1^2+y2^2) + u (x1^2-x2^2)(y1^2-y2^2)
                 + 4 v x1 x2 y1 y2.

    Z is provably nonnegative on the closed square (its minimum over
    u, v in [-1,1] is 2 (x1 y2 - x2 y1)^2), which is still asserted at the
    nodes.  The order defaults to mu - 1, by the derivation in the module
    docstring: Z(u, v) / 2 = 4 (X1 + X2 + 2 v sqrt(X1 X2)) at the split X(u).
    """
    import numpy as np

    x1, x2 = finite_nonnegative(x)
    y1, y2 = finite_nonnegative(y)
    _halved_squares((x1, x2), (y1, y2))  # a square past the float range raises ValueError
    if order is None:
        order = kappa.integral_order
    rule_u = gauss_jacobi_rule(npoints, kappa.kappa2)
    rule_v = gauss_jacobi_rule(npoints, kappa.kappa1)
    z = ((x1 * x1 + x2 * x2) * (y1 * y1 + y2 * y2)
         + rule_u.nodes[:, None] * ((x1 * x1 - x2 * x2) * (y1 * y1 - y2 * y2))
         + rule_v.nodes[None, :] * (4.0 * x1 * x2 * y1 * y2))
    scale = max(abs(z).max(), 1.0)
    if z.min() < -1e-12 * scale:
        raise ArithmeticError(f"negative radicand {z.min()} at a quadrature node")
    vals = bessel_i_norm(float(order), np.sqrt(np.maximum(z, 0.0) * 0.5))
    c_kappa = normalization_c(kappa.kappa1) * normalization_c(kappa.kappa2)
    return c_kappa * float(rule_u.weights @ vals @ rule_v.weights)


@lru_cache(maxsize=_ORDER_CACHE_SIZE)
def resolve_double_integral_order(kappa, npoints=DEFAULT_NPOINTS, max_degree=30, seed=42):
    """Check the Bessel order of the double integral against the series.

    The formula circulates with the order stated both as mu and as mu - 1;
    the evaluators take mu - 1 by derivation, and as evidence this evaluates
    both on five seeded small argument pairs and returns the one agreeing with
    the series.  Points where both match (degenerate arguments) are excluded.
    Raises OrderResolutionError if no candidate agrees within 1e-5 everywhere.
    """
    import numpy as np

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
            abs(bessel_b2_double_integral(kappa, x, y, npoints, order=c) - ref)
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


def _series_report(kappa, x, y, degree, rhs, tol, identity, method_b, **context):
    """The series to ``degree`` at a B2 point against rhs from method_b, the point leading."""
    return make_report(bessel_b2_series(kappa, x, y, degree), rhs, tol, identity=identity,
                       kappa=[str(kappa.kappa1), str(kappa.kappa2)], x=[float(v) for v in x],
                       y=[float(v) for v in y], method_a="series", method_b=method_b, **context)


def verify_series_vs_double_integral(kappa, x, y, order, npoints=DEFAULT_NPOINTS, max_degree=30,
                                     tol=SERIES_TOL):
    """Compare the series with the double integral taken at Bessel order ``order``."""
    rhs = bessel_b2_double_integral(kappa, x, y, npoints, order=order)
    return _series_report(kappa, x, y, max_degree, rhs, tol, "series-vs-double-integral",
                          "double-integral", resolved_order=float(order), nodes=npoints)


def verify_derived_route(kappa, x, y, npoints=DEFAULT_NPOINTS, max_degree=30, tol=SERIES_TOL):
    """Compare the series with step A composed with step B, on one u-v grid.

    rhs = c(kappa2) c(kappa1) sum_u sum_v w_u w_v i_(mu-1)(2 sqrt(X1 + X2 + 2 v sqrt(X1 X2))).
    """
    import numpy as np

    x1, x2 = finite_nonnegative(x)
    y1, y2 = finite_nonnegative(y)
    order = kappa.integral_order
    rule_u = gauss_jacobi_rule(npoints, kappa.kappa2)
    rule_v = gauss_jacobi_rule(npoints, kappa.kappa1)
    xs, ys = _halved_squares((x1, x2), (y1, y2))
    split = np.array(_split(*xs, *ys, rule_u.nodes.tolist()))
    radicand = split[:, :1] + 2.0 * rule_v.nodes * np.sqrt(split[:, 1:2] * split[:, 2:])
    vals = bessel_i_norm(order, 2.0 * np.sqrt(np.maximum(radicand, 0.0)))
    rhs = normalization_c(kappa.kappa2) * normalization_c(kappa.kappa1) * float(
        rule_u.weights @ vals @ rule_v.weights)
    return _series_report(kappa, x, y, max_degree, rhs, tol, "b2-derivation",
                          "product-formula-route", order=order, nodes=npoints)


def verify_single_integral(mu_order, k, x, npoints=DEFAULT_NPOINTS, max_degree=40, tol=1e-9):
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
    rhs = bessel_b2_series(kappa.swapped, rx, ry, max_degree)
    return _series_report(kappa, x, y, max_degree, rhs, tol, "rotation-symmetry", "series-rotated",
                          max_degree=max_degree)


def bessel_product_identity(k, x, y, npoints=DEFAULT_NPOINTS, tol=1e-10):
    """Classical product formula for the normalized Bessel function.

    I_(k-1/2)(x) I_(k-1/2)(y) = c(k) * integral of
    I_(k-1/2)(sqrt(x^2 + y^2 + 2 u x y)) against (1-u^2)^(k-1).
    """
    import numpy as np

    x, y = float(x), float(y)
    nu = float(k) - 0.5
    lhs = bessel_i_norm(nu, x) * bessel_i_norm(nu, y)
    rule = gauss_jacobi_rule(npoints, k)
    args = np.sqrt(np.maximum(x * x + y * y + 2.0 * rule.nodes * x * y, 0.0))
    rhs = normalization_c(k) * float(rule.weights @ bessel_i_norm(nu, args))
    return make_report(
        lhs, rhs, tol,
        identity="bessel-product",
        k=str(k),
        x=x,
        y=y,
        npoints=npoints,
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
    if not abs(x) < ell:
        raise ValueError(f"x must be finite with |x| < ell = {ell} (positive arguments), got {x}")
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
