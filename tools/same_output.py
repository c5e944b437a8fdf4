#!/usr/bin/env python3
"""Check that the working tree prints exactly what a base revision prints.

    python tools/same_output.py --base REV

Exports REV with ``git archive`` into a temporary directory, runs one list
of commands in that copy and in the working tree, each with PYTHONPATH set
to the tree's own ``src`` and the tree's root as the working directory, and
compares stdout, stderr and the exit code.  Every command that differs is
printed; the exit code is 1 if any differs and 0 if none does.  The copy is
removed at the end.

The commands are the output a refactor must keep byte for byte: ``verify
all`` at three seeds in every format, each verify verb with and without
``--tol`` and ``--npoints``, every ``--help``, the ``jack`` and ``bessel``
commands of CI with their exit-1 and exit-2 probes, the demos, and the
``repr`` of the ``bessel-scan`` values of seeds 1 and 2 (read from
``perfbench/workloads.py``, which is left as it is), once more with the
integrals at a fixed node count, and the ``repr`` of the
float kernels' batches of one: ``jack_p_two_var``, the product sides, the
eigenvalue splits and the rotation-group average at ordinary and rescaled
points, and ``limit_transition`` to ell = 1024, and the bytes of Gauss-Jacobi
rules on a grid of (npoints, k), each built alone and in pairs, and of stacks
of two node counts.
"""

from __future__ import annotations

import argparse
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI = [sys.executable, "-m", "jackb2.cli"]

# Per bessel-scan operation: the series at degree 30 and 60, the double and
# single integrals, and the two-argument series at (xs, e1) to degree 40.  Run
# with the argument "fixed", the integrals are taken at DEFAULT_NPOINTS nodes
# instead of on the node ladder of a call without npoints.
SCAN_PROBE = """
import sys
from fractions import Fraction
sys.path.insert(0, "perfbench")
import jackb2, workloads
nodes = (jackb2.bessel.DEFAULT_NPOINTS,) if sys.argv[1:] == ["fixed"] else ()
for seed in (1, 2):
    for op in workloads.make_bessel_ops(seed, "full"):
        kappa = jackb2.Multiplicity(*(Fraction(v) for v in op["kappa"]))
        x, y, xs = tuple(op["x"]), tuple(op["y"]), tuple(op["xs"])
        print(repr((jackb2.bessel_b2_series(kappa, x, y), jackb2.bessel_b2_series(kappa, x, y, 60),
                    jackb2.bessel_b2_double_integral(kappa, x, y, *nodes),
                    jackb2.hyp0f1_single_integral(kappa.order_mu, kappa.kappa2, xs, *nodes),
                    jackb2.hyp0f1_two(kappa.order_mu, kappa.kappa2, xs, (1.0, 0.0), 40))))
"""

# Batches of one through the float kernels: the closed form at one point (float,
# Fraction and np.float64 inputs), each side of the product identity, the split and
# the rotation-group average at ordinary points and at ones whose split is rescaled
# (components near 1e-300 and 1e154), and the Bessel limit up to ell = 1024.
BATCH_PROBE = """
from fractions import Fraction
import numpy as np
import jackb2

def show(call):
    try:
        print(repr(call()))
    except (ArithmeticError, ValueError) as exc:
        print(type(exc).__name__, exc)

# The rotation-group average is taken at the first six, where it stays in the float range.
points = [((0.4, 0.7), (0.2, 0.6)), ((1.2, 0.4), (0.9, 2.5)), ((0.0, 1.3), (2.0, 0.5)),
          ((1.55e-132, 1.55e-132), (1.55e-132, 1.55e-132)), ((1e-300, 2.0), (0.5, 1e-300)),
          ((1e154, 1e-300), (1e-154, 1e-300)), ((1e154, 1e-300), (1e154, 1e-300)),
          ((1e154, 0.5), (1e-300, 2.0))]
for lam in ((0,), (1,), (2,), (3, 1), (4, 4), (7, 2)):
    for x in ((0.4, 0.7), (Fraction(2, 5), Fraction(7, 10)), (np.float64(0.4), np.float64(-0.7))):
        show(lambda: jackb2.jack_p_two_var(lam, Fraction(3, 2), *x))
    for i, (x, y) in enumerate(points):
        for k in (Fraction(1), 0.7):
            show(lambda: jackb2.product_lhs(lam, k, x, y))
            show(lambda: jackb2.product_rhs(lam, k, x, y, 12))
        if i < 6:
            show(lambda: jackb2.zonal_so2_average(lam, x, y, 16))
for x, y in points:
    for u in (-1.0, -0.3, 0.0, 0.8, 1.0):
        show(lambda: jackb2.eigen_split(x, y, u))
    show(lambda: jackb2.rotation_conjugate_eigs(x, y, 0.4))
for ell in (8, 16, 32, 64, 128, 256, 512, 1024):
    for k in (0.5, Fraction(3, 2)):
        show(lambda: jackb2.limit_transition(k, 0.7, ell))
"""

# A sha256 of the nodes' and weights' bytes of each Gauss-Jacobi rule on a grid of
# (npoints, k): every rule built alone, then each in pairs, the caches emptied before
# each pair, then stacks of two node counts at two k each, the caches emptied first.  A
# tree without gauss_jacobi_rules builds a pair one rule at a time, and one whose rules
# take one node count a call builds a stack one count at a time.
RULE_PROBE = """
import hashlib
from jackb2 import quadrature

def clear():
    for value in vars(quadrature).values():
        getattr(value, "cache_clear", lambda: None)()

def pair(n, ks):
    if hasattr(quadrature, "gauss_jacobi_rules"):
        return quadrature.gauss_jacobi_rules(n, ks)
    return [quadrature.gauss_jacobi_rule(n, k) for k in ks]

try:
    quadrature.gauss_jacobi_rules((1,), (1.0,))
    stacks = True
except (AttributeError, TypeError):
    stacks = False

def stacked(counts, ks):
    if stacks:
        return quadrature.gauss_jacobi_rules(counts, ks)
    return [rule for n in counts for rule in pair(n, ks)]

ks = [1e-3, 1 / 8, 0.3, 0.5, 1.0, 11 / 4, 24.0, 500.0]
for n in (1, 2, 3, 17, 64, 65, 128):
    clear()
    builds = [("alone", [quadrature.gauss_jacobi_rule(n, k)]) for k in ks]
    for stack in [*zip(ks, ks[1:] + ks[:1]), (0.3, 0.3)]:
        clear()
        builds.append(("pair", pair(n, stack)))
    for how, rules in builds:
        for rule in rules:
            digest = hashlib.sha256(rule.nodes.tobytes() + rule.weights.tobytes()).hexdigest()
            print(how, n, rule.k.hex(), digest)
for counts in ((8, 16), (16, 32)):
    for pair_ks in ((0.3, 11 / 4), (1 / 8, 24.0)):
        clear()
        for rule in stacked(counts, pair_ks):
            digest = hashlib.sha256(rule.nodes.tobytes() + rule.weights.tobytes()).hexdigest()
            print("stack", len(rule.nodes), rule.k.hex(), digest)
"""


def commands():
    """The command list, each an argv run from a tree's root."""
    sys.path.insert(0, str(ROOT / "src"))
    from jackb2.cli import VERIFY_VERBS

    out = [[*CLI, "verify", "all", "--seed", seed, "--output", fmt]
           for seed in ("42", "1", "7") for fmt in ("json", "csv", "pretty")]
    for verb in VERIFY_VERBS:
        small = [*CLI, "verify", verb, "--samples", "3", "--lambda-max", "3"]
        out += [small, [*small, "--tol", "1e-3", "--npoints", "20"]]
    out += [[*CLI, *sub, "--help"] for sub in ([], ["jack"], ["bessel"], ["verify"])]
    point = ["--kappa", "1,1", "--x", "0.4,0.7", "--y", "0.2,0.6"]
    out += [[*CLI, "bessel", *point, "--method", m]
            for m in ("series", "double-integral", "single-integral")]
    out += [[*CLI, "bessel", *args] for args in (
        [*point, "--method", "double-integral", "--nodes", "1"],
        [*point, "--method", "double-integral", "--nodes", "64"],
        [*point, "--method", "single-integral", "--nodes", "64"],
        ["--kappa", "1,1", "--x", "1,2,3"],
        ["--kappa", "1/8,1/8", "--x", "5,3", "--y", "5,3"],
        ["--kappa", "1/8,1/8", "--x", "5,3", "--y", "5,3", "--max-degree", "60"],
        ["--kappa", "5000,5000", "--x", "60,60", "--y", "60,60", "--method", "double-integral"],
        ["--kappa", "1,1", "--x", "24,12", "--y", "24,12", "--method", "double-integral"],
        ["--kappa", "1/8,1/8", "--x", "16,12", "--y", "16,12", "--method", "double-integral"],
        ["--kappa", "1,1", "--x", "1e200,1", "--y", "1,1"],
        ["--kappa", "1,1", "--x", "1e100,0.5", "--y", "1e100,0.5", "--method", "double-integral"],
    )]
    # The denominators past the float range under CI's 1 GB address-space cap.
    out.append(["sh", "-c", "ulimit -v 1000000; OPENBLAS_NUM_THREADS=1 exec \"$0\" -m jackb2.cli "
                "bessel --kappa 1,1 --x 0.1,0.1 --y 0.1,0.1 --max-degree 32000", sys.executable])
    six = ["--lambda", "4,3,2,1", "--n", "6", "--k", "1/2", "--x", "1,2,3,4,5,6"]
    out += [[*CLI, "jack", *six, "--output", fmt] for fmt in ("json", "csv", "pretty")]
    out.append([*CLI, "jack", "--lambda", "4,3,2,1", "--n", "11", "--k", "1/2",
                "--x", ",".join(str(i) for i in range(1, 12))])
    out += [[sys.executable, f"demos/{demo.name}"] for demo in sorted((ROOT / "demos").glob("*.py"))]
    out += [[sys.executable, "-c", probe] for probe in (SCAN_PROBE, BATCH_PROBE, RULE_PROBE)]
    out.append([sys.executable, "-c", SCAN_PROBE, "fixed"])
    return out


def run(command, tree):
    """(exit code, stdout, stderr) of command run in tree, with the tree's path masked."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True, timeout=900)
    return done.returncode, *(s.replace(str(tree), "<tree>") for s in (done.stdout, done.stderr))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    git = ["git", "-C", str(ROOT)]
    rev = subprocess.run([*git, "rev-parse", "--verify", f"{args.base}^{{commit}}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    differing = []
    with tempfile.TemporaryDirectory(prefix="same-output-") as tmp:
        base = Path(tmp)
        archive = subprocess.run([*git, "archive", rev], capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        for command in commands():
            probe = {SCAN_PROBE: "bessel-scan", BATCH_PROBE: "batch-of-one",
                     RULE_PROBE: "rule"}.get(command[2]) if command[1] == "-c" else None
            text = (" ".join([f"python -c <{probe} probe>", *command[3:]]) if probe else
                    shlex.join(["python" if a == sys.executable else a for a in command]))
            old, new = run(command, base), run(command, ROOT)
            if old != new:
                parts = [name for name, a, b in zip(("exit code", "stdout", "stderr"), old, new)
                         if a != b]
                differing.append(text)
                print(f"DIFFERS ({', '.join(parts)}): {text}")
    print(f"{len(differing)} command(s) differ from {args.base} ({rev[:12]})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
