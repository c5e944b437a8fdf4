"""Symmetric polynomials in the monomial basis, and the defining operator.

A symmetric polynomial in n variables is stored as a finite map
Partition -> coefficient ("monomial expansion"): the key mu stands for the
monomial symmetric function m_mu, the sum of the *distinct* monomials whose
exponent multiset is mu.  With this convention m_lam has leading coefficient
1 in itself, which is what the triangular construction of Jack polynomials
requires.

``apply_lb_operator`` applies

    D_k = sum_i x_i^2 d^2/dx_i^2 + 2k sum_{i != j} x_i^2/(x_i - x_j) d/dx_i

exactly.  The rational terms never materialize: for an unordered variable
pair carrying exponents a >= b, the combined contribution of the orbit
monomials x^a y^b and x^b y^a to the 2k-part is the polynomial identity

    a * x^b y^b * (x^{a-b} + ... + y^{a-b})           (a-b+1 terms)
  - b * x^{b+1} y^{b+1} * (x^{a-b-2} + ... + y^{a-b-2})

which is what the code accumulates, monomial orbit by monomial orbit.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .partitions import Partition, param_value


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

    @property
    def degree(self):
        """Common weight of the keys, or None for the zero polynomial."""
        weights = {mu.weight for mu in self.coeffs}
        if not weights:
            return None
        if len(weights) > 1:
            raise ValueError("expansion is not homogeneous")
        return weights.pop()

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

    @classmethod
    def from_json(cls, nvars, terms):
        return cls(nvars, {Partition(t["partition"]): Fraction(t["coeff"]) for t in terms})


def mono(lam, nvars):
    """The single monomial symmetric function m_lam as an expansion."""
    return MonomialExpansion(nvars, {Partition(lam): 1})


def _orbit(lam, nvars):
    """Distinct exponent vectors obtained by permuting lam padded to nvars."""
    lam = Partition(lam)
    padded = tuple(lam) + (0,) * (nvars - len(lam))
    return sorted(set(itertools.permutations(padded)))


def monomial_eval(lam, x):
    """Evaluate m_lam at the point x: sum over distinct permuted monomials."""
    lam = Partition(lam)
    if len(lam) > len(x):
        raise ValueError(f"partition {lam} has more parts than variables")
    total = 0
    for expo in _orbit(lam, len(x)):
        term = 1
        for xi, e in zip(x, expo):
            term *= xi ** e
        total += term
    return total


def evaluate(p, x):
    """Evaluate an expansion at the point x (len(x) must equal p.nvars)."""
    if len(x) != p.nvars:
        raise ValueError(f"expected {p.nvars} coordinates, got {len(x)}")
    return sum(c * monomial_eval(mu, x) for mu, c in p.coeffs.items())


def apply_lb_operator(p, k):
    """Exact action of D_k on a homogeneous symmetric expansion.

    Returns a MonomialExpansion of the same degree.  The coefficient of
    m_lam in D_k m_lam is the eigenvalue of lam, and every key of the
    output is dominated by some key of the input.
    """
    kv = param_value(k)
    if not p.is_homogeneous():
        raise ValueError("operator requires a homogeneous expansion")
    n = p.nvars
    two_k = 2 * kv
    acc = {}  # exponent vector -> coefficient

    def add(vec, c):
        acc[vec] = acc.get(vec, 0) + c

    for lam, coeff in p.coeffs.items():
        diag = sum(a * (a - 1) for a in lam)
        for vec in _orbit(lam, n):
            if diag:
                add(vec, coeff * diag)
            for i, j in itertools.combinations(range(n), 2):
                a, b = vec[i], vec[j]
                if a < b:
                    continue  # handled jointly at the swapped orbit monomial
                if a == b:
                    if a:
                        add(vec, two_k * coeff * a)
                    continue
                base = list(vec)
                for t in range(a - b + 1):
                    base[i], base[j] = b + t, a - t
                    add(tuple(base), two_k * coeff * a)
                for t in range(a - b - 1):
                    base[i], base[j] = b + 1 + t, a - 1 - t
                    add(tuple(base), -two_k * coeff * b)

    out = {}
    for vec, c in acc.items():
        key = Partition(sorted(vec, reverse=True))
        rep = tuple(key) + (0,) * (n - len(key))
        if vec == rep:
            out[key] = c
        else:
            crep = acc.get(rep, 0)
            exact = not (isinstance(c, float) or isinstance(crep, float))
            if (crep != c) if exact else abs(crep - c) > 1e-9 * (1 + abs(c)):
                raise AssertionError("operator produced a non-symmetric result")
    return MonomialExpansion(n, out)

