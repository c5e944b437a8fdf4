"""Jack polynomials: triangular construction, closed forms, and the lift.

``jack_p`` builds P_lam as the monic-in-m_lam eigenfunction of the operator
D_k of ``sympoly`` by solving the dominance-triangular linear system in exact
rational arithmetic, scattering each coefficient through the k-free integer
images of ``sympoly._lb_images`` with integer eigenvalue gaps.

``jack_p_two_var`` evaluates the two-variable case through the closed form

    P_lam(x1, x2) = (x1 x2)^ell * P_lam(1,1)
                    * sum_r  C(m, 2r) (1/2)_r / (k+1/2)_r  s^(m-2r) t^(2r),
    P_lam(1,1)    = (2k)_m / (k)_m

with s = (x1+x2)/2, t = (x1-x2)/2, m = lam_1 - lam_2, ell = lam_2.  This is
the Beta-moment expansion of the one-dimensional integral representation,
with the Gamma-function prefactor collapsed by Legendre duplication into the
rising-factorial ratio P_lam(1,1); everything stays rational for rational
inputs, and no numerical quadrature is involved.  The tables hold the sum,
the normalized P_lam / P_lam(1,1) of the product formula and the Bessel
limit, beside P_lam(1,1); they are read through ``_rows``, one table per k,
arithmetic (exact or float) and 32-row block, each entry built from the one
before it, so a series to degree D pays O(D^2) per k.  ``_closed_form_terms``
evaluates a block of rows at a batch of points as arrays, with the operations
and order of a term-by-term loop.

``jack_recursion_lift`` realizes the integral recursion that produces the
n-variable polynomial from the (n-1)-variable one, for n = 2 and n = 3; the
interlacing region splits into per-coordinate boxes and each box carries a
Gauss-Jacobi rule absorbing its |x_i - nu|^(k-1) endpoint factors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .partitions import Partition, param_value, partitions_of_weight
from .quadrature import gauss_jacobi_rule
from .sympoly import MonomialExpansion, _lb_images, evaluate


# Cache sizes, each above the distinct keys of the largest benchmark
# workload: 227 expansions (jack-exact), 36 coefficient tables (bessel-scan
# makes 29-36 at seeds 1-3, one per kappa2; verify-all 11).
_EXPANSION_CACHE_SIZE = 512
_COEFFS_CACHE_SIZE = 256
# Row grids of the closed-form kernel, one per (k, block of rows), and their k-free index
# arrays, one per block: the sweeps read one row per case, the series one block per 32 rows
# of a degree.
_GRID_CACHE_SIZE = 256


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
    # Decreasing lexicographic order refines dominance, and D_k m_nu feeds
    # only partitions below nu, so each a_nu is final when reached and is
    # scattered into its images at once.  For k = p/q the images are
    # k / F(nu) times integers and q e(mu) is an integer, so
    # a_mu = p * sum_nu images[nu][mu] a_nu / F(nu) / (q e(lam) - q e(mu)).
    # The gap is positive: below lam, sum mu_i^2 drops and no prefix sum grows.
    p, q = kv.numerator, kv.denominator

    def q_eig(mu):
        return sum(v * (q * (v - 1) + 2 * p * (n - i)) for i, v in enumerate(mu, start=1))

    coeffs, feed, q_e_lam = {}, {}, q_eig(lam)
    for mu in partitions_of_weight(lam.weight, n):
        if mu == lam:
            coeffs[mu] = Fraction(1)
        elif mu in feed:
            coeffs[mu] = p * feed.pop(mu) / (q_e_lam - q_eig(mu))
        if coeffs.get(mu):
            images, f_mu = _lb_images(mu, n)
            share = coeffs[mu] / f_mu
            for low, c in images.items():
                feed[low] = feed.get(low, 0) + c * share
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


@lru_cache(maxsize=_COEFFS_CACHE_SIZE, typed=True)
def _two_var_coeffs(top, kv):
    """(at_ones, rows) for m = 0..top: at_ones[m] = P_lam(1,1) = (2k)_m / (k)_m, the one place
    it is formed, and row m the coefficients C(m, 2r) (1/2)_r / (k+1/2)_r of s^(m-2r) t^(2r).

    Each entry is the one before it times its ratio, in the arithmetic of kv: (2k+i)/(k+i)
    for P(1,1), taken as a + a (k/(k+i)), and (m-2r+2)(m-2r+1) / (2r (2k+2r-1)) along a row,
    so no float entry needs a big integer; for m <= 300 each is within 2e-14 of the exact one.
    A Fraction kv gives exact tables, a float kv float ones; ``typed=True`` keeps apart
    Fraction(1, 2) and 0.5, equal and hashed alike.  A float entry past the float range is
    inf: a row's from about m = 1030 (its binomials), P(1,1) < 2^m only for a large k.
    """
    one = kv * 0 + 1
    at_ones = [one]
    for i in range(top):
        at_ones.append(at_ones[-1] + at_ones[-1] * (kv / (kv + i)))
    dens = [2 * r * (2 * kv + (2 * r - 1)) for r in range(1, top // 2 + 1)]
    rows = []
    for m in range(top + 1):
        c, row = one, [one]
        for j, den in zip(range(m, 1, -2), dens):  # j = m - 2r + 2
            c = c * (j * (j - 1) / den)
            row.append(c)
        rows.append(tuple(row))
    return tuple(at_ones), tuple(rows)


def _rows(top, kv):
    """``_two_var_coeffs(top | 31, kv)``: every table read comes from here, one per kv (exact
    for a Fraction, float for a float) and 32-row block."""
    return _two_var_coeffs(top | 31, kv)


@lru_cache(maxsize=_GRID_CACHE_SIZE, typed=True)
def _row_grid(kv, lo, hi):
    """The rows lo..hi of ``_rows(hi, kv)`` as arrays for ``_closed_form_terms``: (coeffs,
    index, valid, s_exps, t_exps), term r of row m in cell (r, m - lo).

    coeffs holds the row entries (float64 for a float kv, object for a Fraction one), zero
    past a row's end, where valid is False; the rest, from ``_grid_index``, is shared by
    every kv.
    """
    import numpy as np

    index, valid, s_exps, t_exps = _grid_index(lo, hi)
    coeffs = np.zeros((hi - lo + 1, len(valid)), float if isinstance(kv, float) else object)
    coeffs[valid.T] = list(itertools.chain.from_iterable(_rows(hi, kv)[1][lo:hi + 1]))
    return coeffs.T, index, valid, s_exps, t_exps


@lru_cache(maxsize=_GRID_CACHE_SIZE)
def _grid_index(lo, hi):
    """(index, valid, s_exps, t_exps) of ``_row_grid``'s rows lo..hi: valid[r, m - lo] is
    2r <= m, t_exps are the exponents 2r of t, s_exps those of s, and index[r, m - lo] the
    position of m - 2r in s_exps.  One row needs only the powers of s of its own parity, a
    block of rows every power up to hi."""
    import numpy as np

    width, step = hi // 2 + 1, 1 if lo < hi else 2
    r, m = np.arange(width)[:, None], np.arange(lo, hi + 1)
    valid = 2 * r <= m
    return (np.where(valid, (m - 2 * r) // step, 0), valid,
            np.arange(hi % step, hi + 1, step), 2 * np.arange(width))


def _powers(base, exps):
    """base ** exps elementwise: np.float_power on float64 (libm pow, the bits of Python's
    ``**``, where np.power may differ), ``**`` itself on objects.  A finite float base taken
    past the float range raises OverflowError, as ``**`` does; an infinite one gives inf."""
    import numpy as np

    if base.dtype == object:
        return np.power(base, exps)
    out = np.float_power(base, exps)
    if np.isinf(out).any() and (np.isinf(out) & np.isfinite(base)).any():
        raise OverflowError("a power of the closed form is past the float range")
    return out


def _closed_form_terms(kv, lo, hi, ell, points):
    """(x1 x2)^ell P_lam / P_lam(1,1) at each (x1, x2) of points for lam = (m + ell, ell),
    m = lo..hi: an array with a row per point and a column per m; the one place the
    closed-form terms are written.

    (x1 x2)^ell sum_r rows[m][r] s^(m-2r) t^(2r) at s = (x1+x2)/2, t = (x1-x2)/2, with the
    rows of ``_rows(hi, kv)`` and 1/2 in their arithmetic, on a (point, term, row) grid:
    each power once per point, each term c * s**i * t**j, and the terms of each row added
    column by column from 0 (never np.sum, which sums pairwise).  So every value has the
    bits of a scalar loop over the terms.  Points that are all Python floats (or an array)
    run in float64, with powers from ``_powers``; any other point (a Fraction, an int, a
    numpy scalar, a complex) puts the same code on object arrays, where each operation is
    the element's own, and a float power past the range raises OverflowError.
    """
    import numpy as np

    coeffs, index, valid, s_exps, t_exps = _row_grid(kv, lo, hi)
    if not isinstance(points, np.ndarray):
        floats = coeffs.dtype == float and all(type(v) is float for p in points for v in p)
        points = np.array(points, float if floats else object).reshape(-1, 2)
    if points.dtype == object:
        coeffs = coeffs.astype(object)
    x1, x2 = points[:, 0], points[:, 1]
    half = coeffs[0, 0] / 2
    with np.errstate(all="ignore"):
        s, t = (x1 + x2) * half, (x1 - x2) * half
        terms = np.where(valid, coeffs * _powers(s[:, None], s_exps)[:, index]
                         * _powers(t[:, None], t_exps)[:, :, None], 0)
        # accumulate adds column r to the sum of columns 0..r-1, from the 0 put first.
        start = np.zeros((len(points), 1, hi - lo + 1), points.dtype)
        total = np.add.accumulate(np.concatenate((start, terms), 1), 1)[:, -1]
        return _powers(x1 * x2, ell)[:, None] * total


def _normalized_two_var(lam, k, x1, x2):
    """(P_lam(1,1), P_lam(x1, x2) / P_lam(1,1)) by the closed form: exact when k and both
    points are int or Fraction (bool included; a float, numpy's too, is ruled out before the
    ABC check of Fraction), else float.  A NaN or infinite coordinate, or a float P_lam past
    the float range (a row or a power past it included), raises ValueError."""
    m, ell = _two_row_shape(lam)
    if not all(abs(v) < math.inf for v in (x1, x2)):
        raise ValueError(f"coordinates must be finite, got {(x1, x2)}")
    kv = param_value(k)
    exact = all(not isinstance(v, float) and isinstance(v, (int, Fraction)) for v in (kv, x1, x2))
    kv = Fraction(kv) if exact else float(kv)
    at_ones = _rows(m, kv)[0]
    try:
        value = _closed_form_terms(kv, m, m, ell, [(x1, x2)]).item()
        if exact or abs(at_ones[m] * value) < math.inf:
            return at_ones[m], value
    except OverflowError:
        pass
    raise ValueError(f"the closed form of {Partition(lam)} at k={kv} and {(x1, x2)} is past the "
                     "float range (about 1.8e308)")


def jack_p_two_var(lam, k, x1, x2):
    """P_lam(x1, x2) by the closed form (no quadrature), exact for int or Fraction k and x."""
    at_ones, value = _normalized_two_var(lam, k, x1, x2)
    return at_ones * value


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
    import numpy as np

    lam = Partition(lam)
    x = [float(v) for v in x]
    n = len(x)
    if n not in (2, 3):
        raise ValueError("the lift is implemented for 2 or 3 variables")
    if len(lam) > n - 1:
        raise ValueError(f"partition {lam} must have at most {n - 1} parts")
    if not all(0 <= v < math.inf for v in x):
        raise ValueError("coordinates must be finite and nonnegative")
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
