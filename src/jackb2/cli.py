"""Command-line surface: evaluation, tabulation, and verification sweeps.

Three subcommands:

* ``jack``   -- construct a Jack polynomial, print its expansion, optionally
               evaluate it at a rational point (exactly);
* ``bessel`` -- evaluate the type-B2 Bessel function by any of its three
               representations, with the error estimate behind the value;
* ``verify`` -- run seeded identity sweeps (the same identities the test
               suite enforces) and report per-case results.

All random sweeps draw from numpy's PCG64 generator (``np.random.default_rng``)
seeded from ``--seed`` (default 42), so an identical configuration produces
byte-identical JSON output on the same platform.  Floats are printed with 17
significant digits; exact rationals as "p/q" strings.

Exit codes: 0 all checks passed, 1 at least one identity failed or an
estimate exceeded its tolerance, 2 invalid usage or configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bessel import (
    Multiplicity,
    OrderResolutionError,
    Poly2,
    bessel_b2_double_integral,
    bessel_b2_series_trunc,
    bessel_product_identity,
    bessel_rotation_symmetry,
    check_rotation_intertwining,
    hyp0f1_single_integral,
    resolve_double_integral_order,
    verify_derived_route,
    verify_limit_transition,
    verify_series_vs_double_integral,
    verify_single_integral,
)
from .jack import jack_p
from .partitions import Partition, parse_partition, parse_scalar, partitions_of_weight
from .product import verify_product, verify_zonal

DEFAULT_PRODUCT_K = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(11, 4))
DEFAULT_BESSEL_K = (Fraction(1, 2), Fraction(1), Fraction(3, 2))
DEFAULT_KAPPAS = (
    (Fraction(1), Fraction(1)),
    (Fraction(4, 5), Fraction(13, 10)),
    (Fraction(1, 2), Fraction(1, 2)),
)
# Relative tolerance of a degree-truncated series value or of a quadrature.
SERIES_TOL = 1e-7
INTERTWINING_KAPPAS = (
    (Fraction(1), Fraction(1)),
    (Fraction(1, 2), Fraction(3, 2)),
    (Fraction(2), Fraction(1, 3)),
)


@dataclass
class RunConfig:
    command: str
    verb: str = ""
    lam: Partition = Partition()
    n: int = 2
    k: Fraction | None = None
    kappa: tuple | None = None
    x: tuple | None = None
    y: tuple | None = None
    method: str = "series"
    npoints: int | None = None
    max_degree: int = 30
    ntheta: int = 256
    lambda_max: int = 8
    samples: int = 50
    tol: float | None = None
    seed: int = 42
    output: str = "json"

    def to_json(self):
        return {
            "verb": self.verb or None,
            "lambda": list(self.lam),
            "n": self.n,
            "k": str(self.k) if self.k is not None else None,
            "kappa": [str(v) for v in self.kappa] if self.kappa else None,
            "x": [str(v) for v in self.x] if self.x else None,
            "y": [str(v) for v in self.y] if self.y else None,
            "method": self.method,
            "npoints": self.npoints,
            "max_degree": self.max_degree,
            "ntheta": self.ntheta,
            "lambda_max": self.lambda_max,
            "samples": self.samples,
            "tol": self.tol,
            "seed": self.seed,
            "output": self.output,
        }


# ---------------------------------------------------------------------------
# Deterministic JSON emission.

def _float_text(v):
    if not math.isfinite(v):
        return json.dumps(repr(v))
    return format(v, ".17g")


def json_text(obj):
    """Serialize with 17-significant-digit floats and "p/q" rationals."""
    if obj is None or isinstance(obj, (bool, str)):
        return json.dumps(obj)
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {json_text(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(json_text(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def emit(doc, output, stream=None):
    stream = stream or sys.stdout
    if output == "json":
        stream.write(json_text(doc) + "\n")
        return
    if output == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["identity", "params", "lhs", "rhs", "abs_err", "rel_err", "pass"])
        standard = {"identity", "lhs", "rhs", "abs_err", "rel_err", "pass"}
        for case in doc["cases"]:
            params = " ".join(
                f"{key}={json_text(val)}" for key, val in case.items()
                if key not in standard)
            numbers = [_float_text(float(case[key])) if key in case else ""
                       for key in ("lhs", "rhs", "abs_err", "rel_err")]
            writer.writerow([case.get("identity", doc["command"]), params, *numbers,
                             str(case.get("pass", "")).lower()])
        return
    # pretty
    for case in doc["cases"]:
        status = {True: "PASS", False: "FAIL"}.get(case.get("pass"), " -- ")
        keys = [f"{k}={json_text(v)}" for k, v in case.items()
                if k not in ("pass", "lhs", "rhs", "abs_err")]
        stream.write(f"[{status}] " + " ".join(keys) + "\n")
    summary = doc.get("summary")
    if summary:
        stream.write(
            f"total {summary['total']}  passed {summary['passed']}  "
            f"failed {summary['failed']}\n")


def _document(command, config, cases):
    failed = sum(1 for c in cases if c.get("pass") is False)
    passed = sum(1 for c in cases if c.get("pass") is True)
    return {
        "command": command,
        "config": config.to_json(),
        "cases": cases,
        "summary": {"total": len(cases), "passed": passed, "failed": failed},
    }


# ---------------------------------------------------------------------------
# Verification sweeps.  Each identity is one library function returning a
# VerificationReport; a runner picks the sweep and keeps each group's worst.

def _worst(reports):
    """The report with the largest relative error; the first one on ties."""
    return max(reports, key=lambda rep: rep.rel_err)


def _two_row_partitions(max_weight):
    return [lam for d in range(max_weight + 1) for lam in partitions_of_weight(d, 2)]


def _draw_positive(rng):
    """A point pair with components in (0, 3]."""
    draw = 3.0 - rng.uniform(0.0, 3.0, size=4)
    return draw[:2], draw[2:]


def _draw_small(rng):
    """A point pair with components in [0.1, 0.8)."""
    return tuple(rng.uniform(0.1, 0.8, size=2)), tuple(rng.uniform(0.1, 0.8, size=2))


def _product_cases(config):
    ks = [config.k] if config.k is not None else list(DEFAULT_PRODUCT_K)
    tol = config.tol if config.tol is not None else 1e-10
    rng = np.random.default_rng(config.seed)
    cases = []
    for k in ks:
        for lam in _two_row_partitions(config.lambda_max):
            npoints = lam.weight + 4 if config.npoints is None else config.npoints
            case = _worst(verify_product(lam, k, *_draw_positive(rng), npoints, tol)
                          for _ in range(config.samples)).to_json()
            case["samples"] = config.samples
            cases.append(case)
    return cases


def _zonal_cases(config):
    tol = config.tol if config.tol is not None else 1e-10
    samples = min(config.samples, 5)
    rng = np.random.default_rng(config.seed)
    cases = []
    for lam in _two_row_partitions(min(config.lambda_max, 6)):
        case = _worst(verify_zonal(lam, *_draw_positive(rng), config.ntheta, tol)
                      for _ in range(samples)).to_json()
        case["samples"] = samples
        cases.append(case)
    return cases


def _small_point_cases(config, check):
    """Per multiplicity, the worst check(kappa, x, y) over five small seeded points."""
    rng = np.random.default_rng(config.seed)
    return [_worst(check(Multiplicity(*pair), *_draw_small(rng)) for _ in range(5)).to_json()
            for pair in ([config.kappa] if config.kappa else DEFAULT_KAPPAS)]


def _series_vs_integral_cases(config):
    tol = config.tol if config.tol is not None else SERIES_TOL
    nodes = 64 if config.npoints is None else config.npoints
    cases = _small_point_cases(config, lambda kappa, x, y: verify_series_vs_double_integral(
        kappa, x, y, float(kappa.order_mu) - 1.0, nodes, config.max_degree, tol))
    kappas = [config.kappa] if config.kappa else list(DEFAULT_KAPPAS)
    tags = []
    for kappa in (Multiplicity(*pair) for pair in kappas):
        try:  # the evidence for the derived order: its offset from mu must be -1
            tags.append(int(round(resolve_double_integral_order(kappa) - float(kappa.order_mu))))
        except OrderResolutionError:
            tags.append(None)
    cases.append({
        "identity": "order-consistency",
        "kappas": [[str(v) for v in pair] for pair in kappas],
        "order_offsets": tags,
        "pass": all(tag == -1 for tag in tags),
    })
    return cases


def _bessel_product_cases(config):
    tol = config.tol if config.tol is not None else 1e-10
    ks = [config.k] if config.k is not None else list(DEFAULT_BESSEL_K)
    nodes = 64 if config.npoints is None else config.npoints
    cases = []
    points = (0.0, 0.5, 1.0, 2.0, 5.0)
    for k in ks:
        case = _worst(bessel_product_identity(k, xv, yv, nodes, tol)
                      for xv in points for yv in points).to_json()
        case["grid"] = list(points)
        cases.append(case)
    return cases


def _rotation_cases(config):
    tol = config.tol if config.tol is not None else 1e-8
    cases = []
    for pair in INTERTWINING_KAPPAS:
        kappa = Multiplicity(*pair)
        cases.append({
            "identity": "dunkl-intertwining",
            "kappa": [str(v) for v in pair],
            "max_monomial_degree": 6,
            "exact": True,
            "pass": all(check_rotation_intertwining(Poly2({(i, d - i): Fraction(1)}), kappa)
                        for d in range(7) for i in range(d + 1)),
        })
    return cases + _small_point_cases(config, lambda kappa, x, y: bessel_rotation_symmetry(
        kappa, x, y, config.max_degree, tol))


def _single_integral_cases(config):
    tol = config.tol if config.tol is not None else 1e-9
    nodes = 64 if config.npoints is None else config.npoints
    degree = max(config.max_degree, 40)
    cases = []
    grid = (0.0, 0.5, 1.0)
    for mu in (Fraction(1), Fraction(3, 2), Fraction(12, 5)):
        for k in (Fraction(1, 2), Fraction(1), Fraction(2)):
            cases.append(_worst(
                verify_single_integral(mu, k, (x1, x2), nodes, degree, tol)
                for x1 in grid for x2 in grid).to_json())
    return cases


def _limit_cases(config):
    return [verify_limit_transition(k, xv).to_json()
            for k in (Fraction(1, 2), Fraction(1)) for xv in (0.5, 1.0)]


def _derivation_cases(config):
    tol = config.tol if config.tol is not None else SERIES_TOL
    nodes = 64 if config.npoints is None else config.npoints
    return _small_point_cases(config, lambda kappa, x, y: verify_derived_route(
        kappa, x, y, nodes, config.max_degree, tol))


_VERB_RUNNERS = {
    "product": _product_cases,
    "zonal": _zonal_cases,
    "bessel-series-vs-integral": _series_vs_integral_cases,
    "bessel-product": _bessel_product_cases,
    "rotation": _rotation_cases,
    "single-integral": _single_integral_cases,
    "limit": _limit_cases,
    "b2-derivation": _derivation_cases,
}

VERIFY_VERBS = (*_VERB_RUNNERS, "all")


def run_verify(config):
    verbs = list(_VERB_RUNNERS) if config.verb == "all" else [config.verb]
    cases = []
    for verb in verbs:
        cases.extend(_VERB_RUNNERS[verb](config))
    doc = _document("verify", config, cases)
    return doc, 0 if doc["summary"]["failed"] == 0 else 1


# ---------------------------------------------------------------------------
# jack and bessel commands.

def run_jack(config):
    poly = jack_p(config.lam, config.k if config.k is not None else Fraction(1), config.n)
    case = poly.to_json()
    if config.x is not None:
        if len(config.x) != config.n:
            raise ValueError(f"expected {config.n} coordinates, got {len(config.x)}")
        case["point"] = [str(v) for v in config.x]
        case["value"] = poly.evaluate(tuple(config.x))
    case["pass"] = True
    return _document("jack", config, [case]), 0


def run_bessel(config):
    if config.kappa is None:
        raise ValueError("--kappa is required for the bessel command")
    kappa = Multiplicity(*config.kappa)
    nodes = 64 if config.npoints is None else config.npoints
    x = config.x or (Fraction(0), Fraction(0))
    y = config.y or (Fraction(0), Fraction(0))
    case = {
        "method": config.method,
        "kappa": [str(v) for v in config.kappa],
        "x": [float(v) for v in x],
        "y": [float(v) for v in y],
        "mu": str(kappa.order_mu),
    }
    if config.method == "series":
        value, estimate = bessel_b2_series_trunc(kappa, x, y, config.max_degree)
        case.update(value=value, truncation_estimate=estimate, max_degree=config.max_degree)
    elif config.method == "double-integral":
        # The order mu - 1 is derived from the product formula.
        case.update(resolved_order=float(kappa.order_mu) - 1.0, nodes=nodes)
        value = case["value"] = bessel_b2_double_integral(kappa, x, y, nodes, nodes)
        estimate = case["quadrature_estimate"] = abs(
            value - bessel_b2_double_integral(kappa, x, y, 2 * nodes, 2 * nodes))
    elif config.method == "single-integral":
        # Surfaces the one-dimensional representation directly: --x is the
        # 0F1 argument pair (already halved squares), the second argument
        # being e1 = (1, 0).
        case["nodes"] = nodes
        value = case["value"] = hyp0f1_single_integral(kappa.order_mu, kappa.kappa2, x, nodes)
        estimate = case["quadrature_estimate"] = abs(
            value - hyp0f1_single_integral(kappa.order_mu, kappa.kappa2, x, 2 * nodes))
    else:
        raise ValueError(f"unknown method {config.method!r}")
    # A value passes when its error estimate (series truncation, or n vs 2n
    # nodes) is within the tolerance `verify` applies to the series.
    passed = estimate <= SERIES_TOL * abs(value)
    case["pass"] = passed
    return _document("bessel", config, [case]), 0 if passed else 1


# ---------------------------------------------------------------------------
# Argument parsing.

def _parse_vector(text):
    return tuple(parse_scalar(tok) for tok in text.split(","))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jackb2",
        description="Jack polynomials, the two-variable product identity, and "
                    "the generalized Bessel function of type B2.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_jack = sub.add_parser("jack", help="construct and evaluate a Jack polynomial")
    p_jack.add_argument("--lambda", dest="lam", default="", help="partition, e.g. 3,1")
    p_jack.add_argument("--k", default="1", help="parameter k as p/q or decimal")
    p_jack.add_argument("--n", type=int, default=2, help="number of variables")
    p_jack.add_argument("--x", default=None, help="evaluation point, e.g. 3,2")
    p_jack.add_argument("--output", choices=("json", "csv", "pretty"), default="json")

    p_bessel = sub.add_parser("bessel", help="evaluate the type-B2 Bessel function")
    p_bessel.add_argument("--kappa", required=True, help="multiplicity pair, e.g. 1,1")
    p_bessel.add_argument("--x", default="0,0")
    p_bessel.add_argument("--y", default="0,0")
    p_bessel.add_argument("--method", default="series",
                          choices=("series", "single-integral", "double-integral"))
    p_bessel.add_argument("--nodes", dest="npoints", type=int, default=None)
    p_bessel.add_argument("--max-degree", type=int, default=30)
    p_bessel.add_argument("--output", choices=("json", "csv", "pretty"), default="json")

    p_verify = sub.add_parser("verify", help="run seeded identity sweeps")
    p_verify.add_argument("verb", choices=VERIFY_VERBS)
    p_verify.add_argument("--k", default=None, help="restrict to one parameter value")
    p_verify.add_argument("--kappa", default=None, help="restrict to one multiplicity")
    p_verify.add_argument("--lambda-max", type=int, default=8)
    p_verify.add_argument("--samples", type=int, default=50)
    p_verify.add_argument("--npoints", type=int, default=None)
    p_verify.add_argument("--ntheta", type=int, default=256)
    p_verify.add_argument("--max-degree", type=int, default=30)
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--output", choices=("json", "csv", "pretty"), default="json")
    return parser


def config_from_args(args):
    command = args.command
    if command == "jack":
        return RunConfig(
            command=command,
            lam=parse_partition(args.lam),
            n=args.n,
            k=parse_scalar(args.k),
            x=_parse_vector(args.x) if args.x else None,
            output=args.output,
        )
    if command == "bessel":
        kappa = _parse_vector(args.kappa)
        if len(kappa) != 2:
            raise ValueError("--kappa needs exactly two components")
        if args.npoints is not None and args.npoints < 1:
            raise ValueError("--nodes must be at least 1")
        return RunConfig(
            command=command,
            kappa=kappa,
            x=_parse_vector(args.x),
            y=_parse_vector(args.y),
            method=args.method,
            npoints=args.npoints,
            max_degree=args.max_degree,
            output=args.output,
        )
    kappa = _parse_vector(args.kappa) if args.kappa else None
    if kappa is not None and len(kappa) != 2:
        raise ValueError("--kappa needs exactly two components")
    if args.tol is not None and not args.tol > 0:
        raise ValueError("--tol must be positive")
    if args.lambda_max < 0:
        raise ValueError("--lambda-max must be nonnegative")
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    if args.npoints is not None and args.npoints < 1:
        raise ValueError("--npoints must be at least 1")
    return RunConfig(
        command=command,
        verb=args.verb,
        k=parse_scalar(args.k) if args.k else None,
        kappa=kappa,
        npoints=args.npoints,
        max_degree=args.max_degree,
        ntheta=args.ntheta,
        lambda_max=args.lambda_max,
        samples=args.samples,
        tol=args.tol,
        seed=args.seed,
        output=args.output,
    )


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        run = {"jack": run_jack, "bessel": run_bessel, "verify": run_verify}[config.command]
        doc, code = run(config)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit(doc, config.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
