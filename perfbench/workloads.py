"""Seeded inputs and reference checks for the three workloads.

Everything here is standard library only: the inputs are made in the
benchmark and handed to the program, and the exact references for
``jack-exact`` and ``verify-all`` are checked without importing jackb2.
The ``bessel-scan`` references need the program's own series at higher
degree; ``worker.py reference`` computes them outside the timed region and
``check_bessel`` judges them here.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

WORKLOADS = ("verify-all", "bessel-scan", "jack-exact")

# Sizes.  "full" is what a measured run uses; "tiny" is the smoke run.
BESSEL_OPS = {"full": 40, "tiny": 3}
# Share of each (n, |lam|) cell taken, by n: every partition where the solve
# is cheap, a third where it is not.
JACK_STRIDE = {"full": {3: 1, 4: 1, 5: 3, 6: 3}, "tiny": {3: 1, 4: 1}}
JACK_TINY_CELLS = [(3, 4), (3, 5), (4, 5)]
VERIFY_ARGS = {"full": [], "tiny": ["--samples", "2", "--lambda-max", "2"]}

# Tolerances are the ones `jackb2 verify` applies to the same comparisons.
SERIES_TOL = 1e-7        # series vs double integral
SINGLE_TOL = 1e-9        # single integral vs two-argument series, degree 40
SINGLE_REF_DEGREE = 40
TRUNCATION_REF_DEGREE = 90

# The two points where the degree-30 series is known to miss the double
# integral (truncation; measured against degree 90).  Every batch carries
# them so the defect shows on every seed instead of only on seeds that
# happen to draw a large argument with a small multiplicity.
BESSEL_PROBES = (
    {"kappa": ["1", "1"], "x": [5.0, 3.0], "y": [5.0, 3.0]},
    {"kappa": ["1/8", "1/8"], "x": [5.0, 3.0], "y": [5.0, 3.0]},
)

# Relative errors below this read as exact agreement: the float64 ceiling.
DIGITS_CEILING = 17.0


def _rational(rng):
    """A positive rational p/q with p <= 24 and q <= 8."""
    return Fraction(rng.randint(1, 24), rng.randint(1, 8))


def _argument(rng):
    """A value in (0, 5]."""
    return 5.0 * (1.0 - rng.random())


def partitions(d, max_parts):
    """Partitions of d with at most max_parts parts, decreasing lex order."""
    out = []

    def rec(remaining, cap, slots, prefix):
        if remaining == 0:
            out.append(prefix)
            return
        if slots == 0:
            return
        for p in range(min(remaining, cap), -(-remaining // slots) - 1, -1):
            rec(remaining - p, p, slots - 1, prefix + (p,))

    rec(d, d, max_parts, ())
    return out


def make_bessel_ops(seed, size):
    """Fresh multiplicities, each evaluated at seeded arguments in (0, 5]."""
    rng = random.Random(seed)
    count = BESSEL_OPS[size]
    ops = [dict(p, xs=[_argument(rng), _argument(rng)]) for p in BESSEL_PROBES]
    seen = {tuple(Fraction(v) for v in p["kappa"]) for p in BESSEL_PROBES}
    while len(ops) < count:
        kappa = (_rational(rng), _rational(rng))
        if kappa in seen:
            continue
        seen.add(kappa)
        ops.append({
            "kappa": [str(v) for v in kappa],
            "x": [_argument(rng), _argument(rng)],
            "y": [_argument(rng), _argument(rng)],
            "xs": [_argument(rng), _argument(rng)],
        })
    return ops[:count]


def _solve_work(lam, cell, n):
    """Orbit terms the triangular solve for lam touches: the orbits of every
    partition lam dominates.  Orders a cell by cost."""
    return sum(_orbit_size(mu, n) for mu in cell if _dominated(mu, lam))


def make_jack_ops(seed, size):
    """Fresh (lam, k, n) triples over n = 3..6 and |lam| = 4..10.

    For n <= 4 every partition is taken.  For n = 5, 6 each (n, |lam|)
    cell, ordered by solve work, contributes a third of its partitions, one
    from each equal slice at a seeded shift, so every batch spans the cost
    range of each cell with the same count and batches of different seeds
    cost about the same.  The parameter k is a fresh seeded rational per
    operation.
    """
    rng = random.Random(seed)
    strides = JACK_STRIDE[size]
    if size == "tiny":
        cells = JACK_TINY_CELLS
    else:
        cells = [(n, w) for n in range(3, 7) for w in range(4, 11)]
    ops = []
    for n, w in cells:
        stride = strides[n]
        cell = partitions(w, n)
        by_work = sorted(cell, key=lambda lam: (_solve_work(lam, cell, n), lam))
        count = -(-len(cell) // stride)
        shift = rng.random()
        for i in range(count):
            lam = by_work[int((i + shift) * len(cell) / count)]
            ops.append({"lam": list(lam), "k": str(_rational(rng)), "n": n})
    rng.shuffle(ops)
    return ops


def make_verify_argv(seed, size):
    return ["verify", "all", "--seed", str(seed % 2**32)] + VERIFY_ARGS[size]


def digits(rel_err):
    """-log10 of a relative error, capped at the float64 ceiling."""
    if not math.isfinite(rel_err):
        return -DIGITS_CEILING
    if rel_err <= 10.0 ** -DIGITS_CEILING:
        return DIGITS_CEILING
    return -math.log10(rel_err)


def rel_err(a, b):
    if a == b:
        return 0.0
    return abs(a - b) / abs(b) if b else math.inf


# ---------------------------------------------------------------------------
# Reference checks.  Each returns (attempted, failed, explained, worst, notes):
# failed counts operations that missed their reference, explained the misses
# that are the documented degree-30 truncation and nothing else, and worst is
# the largest relative error against a reference.


def check_verify(stdout, returncode):
    doc = json.loads(stdout)
    summary = doc["summary"]
    cases = doc["cases"]
    worst = 0.0
    for case in cases:
        # limit-transition checks a convergence rate; its rel_err of about
        # 2e-2 is a design value, not an accuracy.
        if "rel_err" in case and case.get("identity") != "limit-transition":
            worst = max(worst, float(case["rel_err"]))
    failed = sum(1 for case in cases if case.get("pass") is False)
    notes = []
    if summary["failed"] != failed or summary["total"] != len(cases):
        notes.append("summary does not match the cases")
    if returncode != (0 if failed == 0 else 1):
        notes.append(f"exit code {returncode} with {failed} failed cases")
    return len(cases), failed, 0, worst, notes


def _dominated(mu, lam):
    acc_mu = acc_lam = 0
    for i in range(max(len(mu), len(lam))):
        acc_mu += mu[i] if i < len(mu) else 0
        acc_lam += lam[i] if i < len(lam) else 0
        if acc_mu > acc_lam:
            return False
    return sum(mu) == sum(lam)


def _orbit_size(mu, n):
    """Number of distinct permutations of mu padded with zeros to n."""
    padded = list(mu) + [0] * (n - len(mu))
    size = math.factorial(n)
    for part in set(padded):
        size //= math.factorial(padded.count(part))
    return size


def jack_value_at_ones(lam, k, n):
    """prod over cells (i, j) of (k(n-i+1) + j-1) / (a + k(l+1)),
    a the arm and l the leg of the cell."""
    conj = [sum(1 for p in lam if p >= j) for j in range(1, (lam[0] if lam else 0) + 1)]
    value = Fraction(1)
    for i, row in enumerate(lam, start=1):
        for j in range(1, row + 1):
            arm, leg = row - j, conj[j - 1] - i
            value *= (k * (n - i + 1) + j - 1) / (arm + k * (leg + 1))
    return value


def check_jack(ops, outputs):
    failed = 0
    worst = 0.0
    notes = []
    for i, (op, terms) in enumerate(zip(ops, outputs)):
        lam, k, n = tuple(op["lam"]), Fraction(op["k"]), op["n"]
        coeffs = {tuple(mu): Fraction(c) for mu, c in terms}
        problems = []
        if coeffs.get(lam) != 1:
            problems.append("coefficient of m_lam is not 1")
        if not all(_dominated(mu, lam) and len(mu) <= n for mu in coeffs):
            problems.append("a key is not dominated by lam")
        at_ones = sum(c * _orbit_size(mu, n) for mu, c in coeffs.items())
        expected = jack_value_at_ones(lam, k, n)
        if at_ones != expected:
            worst = max(worst, float(abs(at_ones - expected) / expected))
            problems.append("value at (1, ..., 1) differs from the product formula")
        if problems:
            failed += 1
            notes.append(f"op {i} {op}: " + "; ".join(problems))
    return len(ops), failed, 0, worst, notes


def check_bessel(ops, outputs, references):
    failed = explained = 0
    worst = 0.0
    notes = []
    for i, (op, out, ref) in enumerate(zip(ops, outputs, references)):
        e_series = rel_err(out["series"], out["double"])
        e_single = rel_err(out["single"], ref["single_ref"])
        worst = max(worst, e_series, e_single)
        if e_series <= SERIES_TOL and e_single <= SINGLE_TOL:
            continue
        failed += 1
        deep = ref.get("series_deep")
        truncation = (e_single <= SINGLE_TOL and deep is not None
                      and rel_err(deep, out["double"]) <= SERIES_TOL)
        if truncation:
            explained += 1
        else:
            notes.append(f"op {i} {op}: series {e_series:.3g}, single {e_single:.3g}")
    return len(ops), failed, explained, worst, notes
