"""Symmetric polynomials in the monomial basis, and the defining operator.

A symmetric polynomial in n variables is stored as a finite map
Partition -> coefficient ("monomial expansion"): the key mu stands for the
monomial symmetric function m_mu, the sum of the *distinct* monomials whose
exponent multiset is mu.  With this convention m_lam has leading coefficient
1 in itself, which is what the triangular construction of Jack polynomials
requires.  ``monomial_eval`` visits each distinct monomial once.

``apply_lb_operator`` applies

    D_k = sum_i x_i^2 d^2/dx_i^2 + 2k sum_{i != j} x_i^2/(x_i - x_j) d/dx_i

exactly, in partition space.  Let vec be lam padded with zeros to n and F(v)
the product of r! over the multiplicities r of the entries of v (zeros
counted), so that the orbit of v has n!/F(v) distinct monomials.  Then

    D_k m_lam = e(lam) m_lam
              + sum_{i<j} sum_{0<t<a-b} k (a-b) F(low)/F(vec) m_low,

with a = vec[i], b = vec[j], low = vec with a-t at i and b+t at j, sorted,
and e(lam) = ``eigenvalue_e``.  The rational terms never materialize: in
one pair of positions, the orbit monomials x^a y^b and x^b y^a (a > b)
together contribute 2k (a-b) x^(a-t) y^(b+t) for each 0 < t < a-b, and
their endpoint terms fold into e(lam).  Charging half of that to each
member counts every unordered pair once: an orbit monomial gives k (a-b)
per interior t at each position pair where it holds the larger exponent,
which for the sorted vec are the pairs i < j.  This mass, summed over the
n!/F(vec) monomials of the orbit of lam, spreads evenly over the n!/F(low)
monomials of m_low; hence the factor F(low)/F(vec).  The image is
symmetric by construction and the orbit itself is never visited.  Below
the diagonal it is k / F(vec) times the integers sum (a-b) F(low), which
do not depend on k: ``_lb_images`` gives them, for this operator and for
the Jack solve.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .partitions import Partition, eigenvalue_e, param_value


class MonomialExpansion:
    """Finite map Partition -> coefficient in nvars variables.

    Zero coefficients are dropped at construction.  Instances are treated
    as immutable; all operations return new expansions.
    """

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars, coeffs=None):
        if nvars < 1:
            raise ValueError("nvars must be at least 1")
        self.nvars = nvars
        clean = {}
        for mu, c in (coeffs or {}).items():
            mu = Partition(mu)
            if len(mu) > nvars:
                raise ValueError(f"key {mu} has more parts than nvars={nvars}")
            if c != 0:
                clean[mu] = c
        self.coeffs = clean

    def __eq__(self, other):
        return (isinstance(other, MonomialExpansion)
                and self.nvars == other.nvars and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.coeffs.items())))

    def __repr__(self):
        terms = ", ".join(f"{tuple(mu)}: {c}" for mu, c in sorted(self.coeffs.items(), reverse=True))
        return f"MonomialExpansion(nvars={self.nvars}, {{{terms}}})"

    def is_homogeneous(self):
        return len({mu.weight for mu in self.coeffs}) <= 1

    def scaled(self, c):
        return MonomialExpansion(self.nvars, {mu: c * v for mu, v in self.coeffs.items()})

    def plus(self, other):
        if other.nvars != self.nvars:
            raise ValueError("variable counts differ")
        out = dict(self.coeffs)
        for mu, c in other.coeffs.items():
            out[mu] = out.get(mu, 0) + c
        return MonomialExpansion(self.nvars, out)

    def to_json(self):
        """JSON form: list of {partition, coeff} with exact coefficient strings."""
        return [{"partition": list(mu), "coeff": str(c)}
                for mu, c in sorted(self.coeffs.items(), reverse=True)]


def monomial_eval(lam, x):
    """Evaluate m_lam at the point x: the sum of its distinct monomials.

    Position i takes each distinct exponent of lam (zero-padded) still
    unplaced, in ascending order, so the n!/F(lam) exponent vectors come once
    each, in lexicographic order.  Each term is 1 * x[0] ** e0 * ... taken
    from the left and added to a total from 0, as in a loop over the sorted
    vectors, so float bits hold; factoring out x[i] ** e would change them.
    """
    lam = Partition(lam)
    if len(lam) > len(x):
        raise ValueError(f"partition {lam} has more parts than variables")
    total = 0

    def walk(i, term, left):
        nonlocal total
        if not left:
            total += term
            return
        for j, e in enumerate(left):
            if j == 0 or e != left[j - 1]:
                walk(i + 1, term * x[i] ** e, left[:j] + left[j + 1:])

    walk(0, 1, tuple(sorted(tuple(lam) + (0,) * (len(x) - len(lam)))))
    return total


def evaluate(p, x):
    """Evaluate an expansion at the point x: p.nvars coordinates, each finite."""
    if len(x) != p.nvars:
        raise ValueError(f"expected {p.nvars} coordinates, got {len(x)}")
    if not all(abs(v) < math.inf for v in x):
        raise ValueError(f"coordinates must be finite, got {tuple(x)}")
    return sum(c * monomial_eval(mu, x) for mu, c in p.coeffs.items())


def _multiplicity_factorial(vec):
    """Product of r! over the multiplicities r of the entries of vec."""
    return math.prod(math.factorial(vec.count(v)) for v in set(vec))


def _lb_images(nu, n):
    """(images, F(vec)) with images = {mu: sum (a-b) F(low)}, free of k:

    D_k m_nu - e(nu) m_nu = k / F(vec) * sum_mu images[mu] m_mu.
    """
    vec = tuple(nu) + (0,) * (n - len(nu))
    spans = {}
    for i, j in itertools.combinations(range(n), 2):
        a, b = vec[i], vec[j]
        for t in range(1, a - b):
            low = list(vec)
            low[i], low[j] = a - t, b + t
            key = tuple(sorted(low, reverse=True))
            spans[key] = spans.get(key, 0) + a - b
    images = {Partition(key): span * _multiplicity_factorial(key)
              for key, span in spans.items()}
    return images, _multiplicity_factorial(vec)


def apply_lb_operator(p, k):
    """Exact action of D_k on a homogeneous symmetric expansion.

    Returns a MonomialExpansion of the same degree.  The coefficient of
    m_lam in D_k m_lam is the eigenvalue of lam, and every key of the
    output is dominated by some key of the input.  Integer and Fraction
    inputs give exact coefficients; a float k gives floats.
    """
    kv = param_value(k)
    if not p.is_homogeneous():
        raise ValueError("operator requires a homogeneous expansion")
    n = p.nvars
    out = {}
    for lam, coeff in p.coeffs.items():
        out[lam] = out.get(lam, 0) + coeff * eigenvalue_e(lam, kv, n)
        images, f_lam = _lb_images(lam, n)
        for mu, c in images.items():
            out[mu] = out.get(mu, 0) + coeff * kv * Fraction(c, f_lam)
    return MonomialExpansion(n, out)
