"""Integer partitions and the scalar combinatorics built on them.

Partitions index every polynomial in this package.  This module provides
the value type itself (weakly decreasing tuples with trailing zeros
trimmed), conjugation, rising factorials, and three scalar quantities:

* ``eigenvalue_e``      -- the eigenvalue sum(lam_i * (lam_i + 2k(n-i) - 1)),
* ``hook_product_h``    -- the deformed hook product over diagram cells,
* ``gen_pochhammer``    -- the generalized Pochhammer symbol with k-staircase
                           shifts.

All operations are exact whenever the parameter k is exact (int or
``fractions.Fraction``); floats propagate as floats.  Only ``eigenvalue_e``
feeds the library: the series builds the other two by recurrence in its
denominator table, and the tests check that table against them.
"""

from __future__ import annotations

import math
from fractions import Fraction


class Partition(tuple):
    """Weakly decreasing tuple of nonnegative integers, trailing zeros trimmed.

    Immutable and hashable; usable directly as a dict key.  ``len`` gives the
    number of nonzero parts.  A part must equal its int (3.0 does; 2.5 raises).
    """

    def __new__(cls, parts=()):
        if type(parts) is cls:
            return parts
        given = tuple(parts)
        parts = tuple(map(int, given))
        if parts != given or parts and min(parts) < 0:
            raise ValueError(f"partition parts must be nonnegative integers, got {given}")
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"partition parts must be weakly decreasing, got {parts}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        return super().__new__(cls, parts)

    @property
    def weight(self):
        """Sum of the parts, |lambda|."""
        return sum(self)

    def part(self, i):
        """i-th part (0-based), 0 beyond the last nonzero part."""
        return self[i] if i < len(self) else 0

    def __repr__(self):
        return f"Partition({tuple(self)})"


def param_value(k):
    """Return the deformation parameter k unchanged after checking k > 0."""
    if not k > 0:
        raise ValueError(f"parameter k must be positive, got {k}")
    return k


def parse_partition(text):
    """Parse ``"3,1"`` (or ``"2"`` or ``""``) into a Partition."""
    text = text.strip()
    if not text:
        return Partition()
    return Partition(int(tok) for tok in text.split(","))


def parse_scalar(text):
    """Parse ``"p/q"``, an integer, or a decimal string into an exact Fraction.

    Decimal strings convert to their exact decimal value ("2.75" -> 11/4);
    this is the only place float-ish input enters the library.
    """
    return Fraction(text.strip())


def conjugate(lam):
    """Conjugate partition: lam'_j = #{i : lam_i >= j}."""
    lam = Partition(lam)
    if not lam:
        return Partition()
    return Partition(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def eigenvalue_e(lam, k, n):
    """Eigenvalue sum_{i=1}^{n} lam_i (lam_i + 2k(n-i) - 1).

    Exact for rational k.  Requires len(lam) <= n; missing parts are zeros
    and contribute nothing.
    """
    lam = Partition(lam)
    kv = param_value(k)
    if len(lam) > n:
        raise ValueError(f"partition {lam} has more than n={n} parts")
    return sum(p * (p + 2 * kv * (n - i) - 1) for i, p in enumerate(lam, start=1))


def hook_product_h(lam, k):
    """Deformed hook product over the diagram cells of lam.

    prod over cells (i, j) of (lam_i - j + 1 + k * (lam'_j - i)),
    with 1 <= i <= len(lam) and 1 <= j <= lam_i.
    """
    lam = Partition(lam)
    kv = param_value(k)
    conj = conjugate(lam)
    prod = kv * 0 + 1  # one in the arithmetic of k
    for i, row in enumerate(lam, start=1):
        for j in range(1, row + 1):
            prod *= row - j + 1 + kv * (conj[j - 1] - i)
    return prod


def rising_factorial(a, m):
    """Rising factorial (a)_m = a (a+1) ... (a+m-1); exact for exact a."""
    return math.prod((a + t for t in range(m)), start=a * 0 + 1)


def gen_pochhammer(mu_order, lam, k, n):
    """Generalized Pochhammer prod_{j=1}^{n} (mu - k(j-1))_{lam_j}.

    The product runs to n even when lam has fewer parts; the extra factors
    are empty rising factorials equal to 1.
    """
    lam = Partition(lam)
    kv = param_value(k)
    if len(lam) > n:
        raise ValueError(f"partition {lam} has more than n={n} parts")
    prod = (mu_order + kv) * 0 + 1
    for j in range(1, n + 1):
        prod *= rising_factorial(mu_order - kv * (j - 1), lam.part(j - 1))
    return prod


def partitions_of_weight(d, max_parts):
    """All partitions of d into at most max_parts parts, decreasing lex order."""
    if d < 0:
        raise ValueError("weight must be nonnegative")
    if max_parts < 1:
        raise ValueError("max_parts must be at least 1")
    out = []

    def rec(remaining, cap, slots, prefix):
        if remaining == 0:
            out.append(Partition(prefix))
            return
        if slots == 0:
            return
        lo = -(-remaining // slots)  # smallest admissible next part
        for p in range(min(remaining, cap), lo - 1, -1):
            rec(remaining - p, p, slots - 1, prefix + (p,))

    rec(d, d, max_parts, ())
    return out
