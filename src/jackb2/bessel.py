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

import itertools
import logging
import math
import numbers
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache

from .jack import _closed_form_terms, _normalized_two_var, _rows
from .partitions import Partition, param_value
from .product import _split, finite_nonnegative, make_report
from .quadrature import gauss_jacobi_rule, gauss_jacobi_rules, normalization_c

log = logging.getLogger(__name__)

_SQRT2 = math.sqrt(2.0)
# Indices for verify_limit_transition; each doubles the one before.
_LIMIT_ELLS = (8, 16, 32, 64)
# Series denominator tables kept at once, each for one (mu, k, max_degree).
_TABLE_CACHE_SIZE = 32
# Term indices of the series kept at once, one per block of degrees (verify all uses 3).
_INDEX_CACHE_SIZE = 64
# Resolved orders kept at once; only verify's three default kappas reach it.
_ORDER_CACHE_SIZE = 64
# Quadrature nodes of the verify routes, and the relative tolerance of a
# degree-truncated series value or of a quadrature.
DEFAULT_NPOINTS = 64
SERIES_TOL = 1e-7
# An integral without npoints doubles its nodes from 8, up to LADDER_CAP, until |I_n - I_2n|
# <= LADDER_TOL |I_2n|: the rules' weight error leaves 4e-14 to 9.4e-14 of it at n >= 128 and
# k = 1/8, too close to 1e-13 for that tolerance.
LADDER_TOL = 1e-12
LADDER_CAP = 256


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

    @cached_property
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
        return Poly2(_swapped(self.coeffs))

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


def _swapped(coeffs):
    """The coefficient map with x1 and x2 exchanged."""
    return {(j, i): c for (i, j), c in coeffs.items()}


def _dunkl_parts(p, direction):
    """T_direction p as the coefficient maps of its kappa-free, kappa1 and kappa2 parts;
    T_2 = s T_1 s, s the swap."""
    free, on_k1, on_k2 = {}, {}, {}
    for (a, b), c in (p.coeffs if direction == 1 else _swapped(p.coeffs)).items():
        if a:
            free[(a - 1, b)] = a * c
        if a % 2:
            on_k1[(a - 1, b)] = 2 * c
        r, lo = (2 * c if a > b else -2 * c), min(a, b)
        for e in range(lo + (a - 1 - lo) % 2, max(a, b), 2):
            on_k2[(e, a + b - 1 - e)] = on_k2.get((e, a + b - 1 - e), 0) + r
    parts = free, on_k1, on_k2
    return parts if direction == 1 else tuple(map(_swapped, parts))


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

    over min(a, b) <= e < max(a, b) with e = a - 1 (mod 2), read from ``_dunkl_parts``
    and summed per monomial as free + kappa1 on_k1 + kappa2 on_k2, into one Poly2.
    """
    if direction not in (1, 2):
        raise ValueError("direction must be 1 or 2")
    out, on_k1, on_k2 = _dunkl_parts(p, direction)
    for part, k in ((on_k1, kappa.kappa1), (on_k2, kappa.kappa2)):
        for e, c in part.items():
            if c:
                out[e] = out.get(e, 0) + k * c
    return Poly2(out)


@lru_cache(maxsize=64)  # verify rotation checks 28 monomials
def _rotation_defect(p):
    """Each identity's lhs - rhs on an integer p, as parts (d0, d1, d2); kappa' swaps d1, d2."""
    rotated = p.rotate_scaled()
    t1, t2 = ([Poly2(part) for part in _dunkl_parts(p, d)] for d in (1, 2))
    defect = []
    for direction, sign in ((1, -1), (2, 1)):
        l0, l1, l2 = map(Poly2, _dunkl_parts(rotated, direction))
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


def bessel_i_norm(nu, t):
    """Normalized modified Bessel function: series in (t^2/4), equal 1 at 0.

    sum_m q^m / (m! (nu+1)_m) with q = t^2/4, in one array loop: term m is
    term (m-1) * (q / (m (nu+m))), the ratio first, which reaches the float
    limit of the value itself (t = 706.4 at nu = -0.9, 710.4 at nu = -1/2,
    where it is cosh t), where term * q would overflow from t = 698.2.  The
    stop, every term below 1e-17 of its running sum, is tested every 4th
    term.  The later stop keeps every bit: at the first term that passes the
    test each element is past its peak, so every later term is smaller still,
    under half an ulp of the total, and adding it rounds back to the total.
    So a value has the same bits alone and among any others.  Every value in
    the float range stops by m = 941 (its peak, where m (nu+m) = q, lies
    below m = 710, and the terms past it fall at least as fast as Poisson
    weights); past m = 1500 ArithmeticError is raised.

    A number t gives a float, an array-like an array of its shape, and a list
    of these, summed as one array, a list of their values.  A NaN or infinite
    argument, or a value past the float range, raises ValueError.
    """
    import numpy as np

    if not nu > -1:
        raise ValueError(f"order must exceed -1, got {nu}")
    nu = float(nu)
    parts = t if isinstance(t, list) else [t]
    arrays = [np.asarray(part, dtype=float) for part in parts]
    q = np.square(np.concatenate(arrays, axis=None)) * 0.25
    term, total = np.ones_like(q), np.ones_like(q)
    with np.errstate(over="ignore", invalid="ignore"):  # a value that is not finite raises below
        for m in range(1, 1501):
            term = term * (q / (m * (nu + m)))
            total += term
            if m % 4 == 0 and not (term > 1e-17 * total).any():
                break
        else:
            raise ArithmeticError("series did not converge in 1500 terms")
    if not np.isfinite(total).all():
        raise ValueError("an argument is not finite or its value overflows")
    ends = itertools.accumulate(a.size for a in arrays)
    values = [float(total[end - 1]) if isinstance(part, numbers.Number)
              else total[end - a.size:end].reshape(a.shape)
              for part, a, end in zip(parts, arrays, ends)]
    return values if isinstance(t, list) else values[0]


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _denominator_table(mu_order, k, max_degree):
    """Float Pochhammer x hook of every term of ``hyp0f1_two``, one tuple per degree.

    Entry ell of degree d is lam = (m + ell, ell), m = d - 2 ell, in the order
    the series sums them.  The factors are running products stepped once per
    degree, (mu)_j, (mu-k)_j and m!, and for the hook one numerator per m: m!
    at degree m, times ell ((m + ell) D_k + N_k) per later one, over D_k^ell:

        poch  = (mu)_(m+ell) (mu-k)_ell      gen_pochhammer at n = 2
        hook  = ell! m! (m+1+k)_ell          hook_product_h
        denom = float(poch) * float(hook)

    mu and k are taken as exact rationals, a float as its exact binary value,
    so equal parameters give one table and one cache entry.  Each factor is an
    unreduced integer N over a power D of the parameters' denominators, no gcd
    taken: int / int is correctly rounded, as is float() of a Fraction, so
    N / D is the reduced rational's double.  A zero Pochhammer factor stays
    zero at every later ell of its m: the entry is 0.0 and that m's hook is not
    stepped again.  For k > 0 a hook is >= 1, so no other entry is 0.0.  A
    factor (or m!) too large for a float raises ValueError naming max_degree,
    at the first degree that needs it, before any later factor is built.
    """
    (mn, md), (kn, kd) = (Fraction(v).as_integer_ratio() for v in (mu_order, k))
    # (mu)_j = rise_mu[j] / md^j and (mu-k)_j = rise_mu_k[j] / dk^j: step j multiplies in
    # N_1 + (j-1) D_1; the powers of md, dk and kd are kept as lists too.
    nk, dk = mn * kd - kn * md, md * kd
    rise_mu, rise_mu_k, md_pow, dk_pow, kd_pow = [1], [1], [1], [1], [1]
    denoms, hooks, fact = [], [], 1
    try:
        for d in range(max_degree + 1):
            if d:
                fact *= d
                rise_mu.append(rise_mu[-1] * (mn + (d - 1) * md))
                md_pow.append(md_pow[-1] * md)
                if d % 2 == 0:
                    rise_mu_k.append(rise_mu_k[-1] * (nk + (d // 2 - 1) * dk))
                    dk_pow.append(dk_pow[-1] * dk)
                    kd_pow.append(kd_pow[-1] * kd)
            hooks.append(fact)  # hooks[m] / kd^ell: the hook of (m + ell, ell) at the last ell
            layer = []
            for ell in range(d // 2 + 1):
                m = d - 2 * ell
                pn, qn = rise_mu[m + ell], rise_mu_k[ell]
                if not (pn and qn):
                    layer.append(0.0)
                    continue
                if ell:
                    hooks[m] *= ell * ((m + ell) * kd + kn)
                poch = pn * qn / (md_pow[m + ell] * dk_pow[ell])
                layer.append(poch and poch * (hooks[m] / kd_pow[ell]))
            denoms.append(tuple(layer))
    except OverflowError as exc:
        raise ValueError(
            f"max_degree={max_degree} needs series denominators beyond the float "
            f"range (about 1.8e308) at mu={mu_order}, k={k}; lower max_degree") from exc
    return tuple(denoms)


def _block_end(table, lo, vanishes):
    """The last degree of the block of ``hyp0f1_two`` that starts at degree lo: the end of
    lo's 32-row block of ``jack._rows``, or the top degree, or else the first degree with a
    zero denominator at an ell where vanishes[ell] is False, whichever comes first."""
    for d, denoms in enumerate(table[lo:], lo):
        if d % 32 == 31 or d == len(table) - 1 or 0.0 in denoms and not all(
                vanishes[ell] for ell, v in enumerate(denoms) if v == 0.0):
            return d


@lru_cache(maxsize=_INDEX_CACHE_SIZE)
def _term_index(lo, hi):
    """(ell, m) of each term of degrees lo..hi, in the order the series sums them."""
    import numpy as np

    counts = np.arange(lo, hi + 1) // 2 + 1
    ell = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    return ell, np.repeat(np.arange(lo, hi + 1), counts) - 2 * ell


def hyp0f1_two(mu_order, k, x, y, max_degree):
    """Two-argument 0F1 series over two-row partitions, truncated by degree.

    Returns (value, truncation_estimate), the estimate the summed magnitude
    of the top degree's terms.  A zero Pochhammer factor in a needed
    denominator raises PoleError, a non-finite mu, k or coordinate ValueError.

    Term lam is P_lam(1,1) (Pn(x) Pn(y)) / (poch hook), Pn = P_lam / P_lam(1,1),
    symmetric in x and y.  The denominators come from ``_denominator_table``,
    exact in mu and k and built once per (mu, k, max_degree), and the rows of
    Pn and P_lam(1,1) from the float tables of ``jack._rows``.  The sum goes by
    blocks of degrees: a block's rows are evaluated at x and y in one
    closed-form call, and its terms, each scaled by (x1 x2)^ell (y1 y2)^ell, as
    arrays with the operations of a term-by-term loop.  A term whose numerator
    is 0 is skipped: a zero Pochhammer factor under it is removable.  A block
    ends at the first degree with a zero denominator under a term whose factor
    (x1 x2)^ell (y1 y2)^ell is nonzero, so a pole stops the sum before any later
    row is evaluated; should a block's rows overflow, it is taken again ending
    at its first zero denominator of any kind, which is where a row value past
    the float range can make a term with a vanishing factor a pole.  A sum past
    the float range raises ValueError naming max_degree.
    """
    import numpy as np

    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    x1, x2 = (float(v) for v in x)
    y1, y2 = (float(v) for v in y)
    if not all(abs(v) < math.inf for v in (mu_order, k, x1, x2, y1, y2)):
        raise ValueError(f"mu, k, x and y must be finite, got {mu_order}, {k}, {x}, {y}")
    kv = param_value(k)
    table = _denominator_table(mu_order, kv, max_degree)
    kv, bases = float(kv), np.array([[x1 * x2], [y1 * y2]])
    with np.errstate(all="ignore"):  # a power past the range raises below, where ** would
        powers = np.float_power(bases, np.arange(max_degree // 2 + 1))
    past = np.isinf(powers) & np.isfinite(bases)
    vanishes = (powers == 0.0).any(0).tolist()
    q, at_ones, terms, lo = np.zeros((2, 0)), np.zeros(0), [], 0
    try:
        while lo <= max_degree:
            hi = _block_end(table, lo, vanishes)
            try:
                block = _closed_form_terms(kv, lo, hi, 0, ((x1, x2), (y1, y2)))
            except OverflowError:
                hi = _block_end(table, lo, [False] * len(vanishes))
                block = _closed_form_terms(kv, lo, hi, 0, ((x1, x2), (y1, y2)))
            q = np.concatenate((q, block), 1)
            at_ones = np.concatenate((at_ones, _rows(hi, kv)[0][lo:hi + 1]))
            ell, m = _term_index(lo, hi)
            denom = np.fromiter(itertools.chain.from_iterable(table[lo:hi + 1]), float, len(ell))
            with np.errstate(all="ignore"):  # an overflow or a pole raises below
                num = at_ones[m] * ((powers[0, ell] * q[0, m]) * (powers[1, ell] * q[1, m]))
                kept, quotient = num != 0.0, num / denom
            overflow = past[0, ell] | past[1, ell]
            stop = np.flatnonzero(overflow | kept & (denom == 0.0))
            if stop.size and overflow[stop[0]]:
                raise OverflowError("a power (x1 x2)^ell of the series is past the float range")
            if stop.size:
                lam = Partition((int(m[stop[0]] + ell[stop[0]]), int(ell[stop[0]])))
                raise PoleError(f"Pochhammer factor vanishes for {lam} at order {mu_order}")
            terms.append(quotient[kept])
            lo = hi + 1
        top = slice(-(max_degree // 2 + 1), None)
        value = math.fsum(np.concatenate(terms).tolist())
        if math.isfinite(value):
            return value, math.fsum(np.abs(quotient[top][kept[top]]).tolist())
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


def _ladder(evaluate, strict=True):
    """(I_n, |I_(n/2) - I_n|, n) at the first n = 16, 32, ... whose estimate is within LADDER_TOL
    of |I_n|; unconverged at LADDER_CAP, ArithmeticError if strict.  evaluate(counts) gives I_n
    for each n of the tuple counts: (8, 16) in one call, then one count a call."""
    n, (last, value) = 16, evaluate((8, 16))
    estimate = abs(last - value)
    while not estimate <= LADDER_TOL * abs(value) and 2 * n <= LADDER_CAP:
        n, last, (value,) = 2 * n, value, evaluate((2 * n,))
        estimate = abs(last - value)
    if estimate <= LADDER_TOL * abs(value) or not strict:
        return value, estimate, n
    raise ArithmeticError(f"the quadrature did not converge by {n} nodes: |I_{n // 2} - "
                          f"I_{n}| = {estimate:.3g}, |I_{n}| = {abs(value):.3g}")


def hyp0f1_single_integral(mu_order, k, x, npoints=None):
    """One-dimensional integral form of 0F1(mu; x, e1), e1 = (1, 0).

    c(k) * integral of I_(mu-1)(sqrt(2(x1 + x2 + v(x1 - x2)))) against
    (1 - v^2)^(k-1); the radicand is nonnegative on the whole domain for
    componentwise nonnegative x.  Without npoints, the nodes double from 8 (``_ladder``).
    """
    if npoints is None:
        return _ladder(lambda counts: _single_integrals(mu_order, k, x, counts))[0]
    return _single_integrals(mu_order, k, x, (npoints,))[0]


def _single_integrals(mu_order, k, x, counts):
    """hyp0f1_single_integral at each node count of counts, from one build of their rules
    and one bessel_i_norm call; each value has the bits of its count taken alone."""
    import numpy as np

    x1, x2 = finite_nonnegative(x)
    nu = float(mu_order) - 1.0
    rules = gauss_jacobi_rules(counts, (k,))
    args = [np.sqrt(np.maximum(2.0 * (x1 + x2 + rule.nodes * (x1 - x2)), 0.0)) for rule in rules]
    c = normalization_c(k)
    return [c * float(rule.weights @ vals) for rule, vals in zip(rules, bessel_i_norm(nu, args))]


def bessel_b2_double_integral(kappa, x, y, npoints=None, *, order=None):
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
    A square of x or y, or a value of Z, past the float range raises ValueError.
    Without npoints, the nodes double from 8 (``_ladder``).
    """
    if npoints is None:
        return _ladder(lambda counts: _double_integrals(kappa, x, y, counts, order))[0]
    return _double_integrals(kappa, x, y, (npoints,), order)[0]


def _double_integrals(kappa, x, y, counts, order=None):
    """bessel_b2_double_integral at each node count of counts, from one build of their rules
    and one bessel_i_norm call; each value has the bits of its count taken alone."""
    import numpy as np

    x1, x2 = finite_nonnegative(x)
    y1, y2 = finite_nonnegative(y)
    _halved_squares((x1, x2), (y1, y2))  # a square past the float range raises ValueError
    if order is None:
        order = kappa.integral_order
    rules = gauss_jacobi_rules(counts, (kappa.kappa2, kappa.kappa1))
    pairs, args = list(zip(rules[::2], rules[1::2])), []
    for rule_u, rule_v in pairs:
        with np.errstate(over="ignore", invalid="ignore"):  # a z past the range raises below
            z = ((x1 * x1 + x2 * x2) * (y1 * y1 + y2 * y2)
                 + rule_u.nodes[:, None] * ((x1 * x1 - x2 * x2) * (y1 * y1 - y2 * y2))
                 + rule_v.nodes[None, :] * (4.0 * x1 * x2 * y1 * y2))
        if not np.isfinite(z).all():
            raise ValueError("the radicand Z(u, v) of the double integral is past the float "
                             "range (about 1.8e308) at these x and y")
        scale = max(abs(z).max(), 1.0)
        if z.min() < -1e-12 * scale:
            raise ArithmeticError(f"negative radicand {z.min()} at a quadrature node")
        args.append(np.sqrt(np.maximum(z, 0.0) * 0.5))
    c_kappa = normalization_c(kappa.kappa1) * normalization_c(kappa.kappa2)
    return [c_kappa * float(rule_u.weights @ vals @ rule_v.weights)
            for (rule_u, rule_v), vals in zip(pairs, bessel_i_norm(float(order), args))]


@lru_cache(maxsize=_ORDER_CACHE_SIZE)
def resolve_double_integral_order(kappa, npoints=DEFAULT_NPOINTS, max_degree=30, seed=42):
    """Check the Bessel order of the double integral against the series.

    The formula circulates with the order stated both as mu and as mu - 1;
    the evaluators take mu - 1 by derivation, and as evidence this evaluates
    both on five seeded small argument pairs and returns the one agreeing with
    the series.  Points where both match within 1e-9 are excluded; where 25
    draws give fewer than five others (3 at kappa = (4000, 4000)), those found
    decide, and a tie, none found included (at (10^6, 10^6)), keeps mu - 1.
    Raises OrderResolutionError if no candidate agrees within 1e-5 everywhere.
    """
    import numpy as np

    mu = float(kappa.order_mu)
    candidates = (mu, mu - 1.0)
    rng = np.random.default_rng(seed)
    worst = [0.0, 0.0]
    used = attempts = 0
    while used < 5 and attempts < 25:
        attempts += 1
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
    best = 0 if worst[0] < worst[1] else 1
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
    rule_u, rule_v = gauss_jacobi_rules(npoints, (kappa.kappa2, kappa.kappa1))
    xs, ys = _halved_squares((x1, x2), (y1, y2))
    alpha, big, small = (v.T for v in _split(*([v] for v in (*xs, *ys)), rule_u.nodes))
    radicand = alpha + 2.0 * rule_v.nodes * np.sqrt(big * small)
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
    rule = gauss_jacobi_rule(npoints, k)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite x or y raises below
        args = np.sqrt(np.maximum(x * x + y * y + 2.0 * rule.nodes * x * y, 0.0))
    i_x, i_y, vals = bessel_i_norm(float(k) - 0.5, [x, y, args])
    lhs = i_x * i_y
    rhs = normalization_c(k) * float(rule.weights @ vals)
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

    Evaluates P_lam(1 + x/ell, 1 - x/ell) / P_lam(1, 1) at lam = (2 ell, ell)
    by the normalized float closed form; as ell grows this converges (first
    order in 1/ell) to bessel_i_norm(k - 1/2, x).  From about ell = 1030 the
    row's binomials are past the float range, which raises ValueError.
    """
    if not (ell >= 1 and ell % 1 == 0):
        raise ValueError(f"ell must be a positive integer, got {ell}")
    x = float(x)
    if not abs(x) < ell:
        raise ValueError(f"x must be finite with |x| < ell = {ell} (positive arguments), got {x}")
    return _normalized_two_var((2 * ell, ell), float(k), 1.0 + x / ell, 1.0 - x / ell)[1]


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
