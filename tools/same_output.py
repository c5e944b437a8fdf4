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
``perfbench/workloads.py``, which is left as it is).
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
# single integrals, and the two-argument series at (xs, e1) to degree 40.
SCAN_PROBE = """
import sys
from fractions import Fraction
sys.path.insert(0, "perfbench")
import jackb2, workloads
for seed in (1, 2):
    for op in workloads.make_bessel_ops(seed, "full"):
        kappa = jackb2.Multiplicity(*(Fraction(v) for v in op["kappa"]))
        x, y, xs = tuple(op["x"]), tuple(op["y"]), tuple(op["xs"])
        print(repr((jackb2.bessel_b2_series(kappa, x, y), jackb2.bessel_b2_series(kappa, x, y, 60),
                    jackb2.bessel_b2_double_integral(kappa, x, y),
                    jackb2.hyp0f1_single_integral(kappa.order_mu, kappa.kappa2, xs),
                    jackb2.hyp0f1_two(kappa.order_mu, kappa.kappa2, xs, (1.0, 0.0), 40))))
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
        ["--kappa", "1,1", "--x", "1,2,3"],
        ["--kappa", "1/8,1/8", "--x", "5,3", "--y", "5,3"],
        ["--kappa", "1/8,1/8", "--x", "5,3", "--y", "5,3", "--max-degree", "60"],
        ["--kappa", "5000,5000", "--x", "60,60", "--y", "60,60", "--method", "double-integral"],
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
    out.append([sys.executable, "-c", SCAN_PROBE])
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
            text = ("python -c <bessel-scan probe>" if command[-1] == SCAN_PROBE else
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
