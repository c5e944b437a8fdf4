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
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .bessel import (
    LADDER_TOL,
    SERIES_TOL,
    Multiplicity,
    OrderResolutionError,
    Poly2,
    _double_integrals,
    _ladder,
    _single_integrals,
    bessel_b2_series_trunc,
    bessel_product_identity,
    bessel_rotation_symmetry,
    check_rotation_intertwining,
    resolve_double_integral_order,
    verify_derived_route,
    verify_limit_transition,
    verify_series_vs_double_integral,
    verify_single_integral,
)
from .jack import jack_p
from .partitions import (Partition, param_value, parse_partition, parse_scalar,
                         partitions_of_weight)
from .product import verify_product_sweep, verify_zonal_sweep
from .quadrature import _MAX_RULE_NODES

DEFAULT_PRODUCT_K = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(11, 4))
DEFAULT_BESSEL_K = (Fraction(1, 2), Fraction(1), Fraction(3, 2))
DEFAULT_KAPPAS = (
    (Fraction(1), Fraction(1)),
    (Fraction(4, 5), Fraction(13, 10)),
    (Fraction(1, 2), Fraction(1, 2)),
)
INTERTWINING_KAPPAS = (
    (Fraction(1), Fraction(1)),
    (Fraction(1, 2), Fraction(3, 2)),
    (Fraction(2), Fraction(1, 3)),
)


@dataclass
class RunConfig:
    """The options of one run; each argparse ``dest`` is a field name."""

    command: str
    verb: str | None = None
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
        """Every option but the command, in field order; ``lam`` is keyed "lambda"."""
        return {"lambda" if f.name == "lam" else f.name: getattr(self, f.name)
                for f in fields(self) if f.name != "command"}


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


def _draw_positive(rng, samples):
    """Point pairs with components in (0, 3], one per sample, from one draw of the generator."""
    return [(row[:2], row[2:]) for row in (3.0 - rng.uniform(0.0, 3.0, size=(samples, 4))).tolist()]


def _options(config, *names):
    """The named options as keyword arguments, each only where the command line sets it."""
    return {name: getattr(config, name) for name in names if getattr(config, name) is not None}


def _draw_small(rng):
    """A point pair with components in [0.1, 0.8)."""
    return tuple(rng.uniform(0.1, 0.8, size=2)), tuple(rng.uniform(0.1, 0.8, size=2))


def _product_cases(config):
    ks = [config.k] if config.k is not None else list(DEFAULT_PRODUCT_K)
    options = _options(config, "tol")
    rng = np.random.default_rng(config.seed)
    cases = []
    for k in ks:
        for lam in _two_row_partitions(config.lambda_max):
            npoints = lam.weight + 4 if config.npoints is None else config.npoints
            points = _draw_positive(rng, config.samples)
            case = _worst(verify_product_sweep(lam, k, points, npoints, **options)).to_json()
            case["samples"] = config.samples
            cases.append(case)
    return cases


def _zonal_cases(config):
    samples, options = min(config.samples, 5), _options(config, "tol")
    rng = np.random.default_rng(config.seed)
    cases = []
    for lam in _two_row_partitions(min(config.lambda_max, 6)):
        points = _draw_positive(rng, samples)
        case = _worst(verify_zonal_sweep(lam, points, config.ntheta, **options)).to_json()
        case["samples"] = samples
        cases.append(case)
    return cases


def _small_point_cases(config, check):
    """Per multiplicity, the worst check(kappa, x, y) over five small seeded points."""
    rng = np.random.default_rng(config.seed)
    return [_worst(check(Multiplicity(*pair), *_draw_small(rng)) for _ in range(5)).to_json()
            for pair in ([config.kappa] if config.kappa else DEFAULT_KAPPAS)]


def _series_vs_integral_cases(config):
    options = _options(config, "npoints", "tol")
    cases = _small_point_cases(config, lambda kappa, x, y: verify_series_vs_double_integral(
        kappa, x, y, kappa.integral_order, max_degree=config.max_degree, **options))
    kappas = [config.kappa] if config.kappa else list(DEFAULT_KAPPAS)
    tags = []
    for kappa in (Multiplicity(*pair) for pair in kappas):
        try:  # the evidence for the derived order: its offset from mu must be -1
            tags.append(int(round(resolve_double_integral_order(kappa) - kappa.integral_order)) - 1)
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
    ks = [config.k] if config.k is not None else list(DEFAULT_BESSEL_K)
    options = _options(config, "npoints", "tol")
    cases = []
    points = (0.0, 0.5, 1.0, 2.0, 5.0)
    for k in ks:
        case = _worst(bessel_product_identity(k, xv, yv, **options)
                      for xv in points for yv in points).to_json()
        case["grid"] = list(points)
        cases.append(case)
    return cases


def _rotation_cases(config):
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
    options = _options(config, "tol")
    return cases + _small_point_cases(config, lambda kappa, x, y: bessel_rotation_symmetry(
        kappa, x, y, config.max_degree, **options))


def _single_integral_cases(config):
    options = _options(config, "npoints", "tol")
    degree = max(config.max_degree, 40)
    cases = []
    grid = (0.0, 0.5, 1.0)
    for mu in (Fraction(1), Fraction(3, 2), Fraction(12, 5)):
        for k in (Fraction(1, 2), Fraction(1), Fraction(2)):
            cases.append(_worst(
                verify_single_integral(mu, k, (x1, x2), max_degree=degree, **options)
                for x1 in grid for x2 in grid).to_json())
    return cases


def _limit_cases(config):
    return [verify_limit_transition(k, xv).to_json()
            for k in (Fraction(1, 2), Fraction(1)) for xv in (0.5, 1.0)]


def _derivation_cases(config):
    options = _options(config, "npoints", "tol")
    return _small_point_cases(config, lambda kappa, x, y: verify_derived_route(
        kappa, x, y, max_degree=config.max_degree, **options))


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
    poly = jack_p(config.lam, config.k, config.n)
    case = poly.to_json()
    if config.x is not None:
        case["point"] = [str(v) for v in config.x]
        case["value"] = poly.evaluate(config.x)
    case["pass"] = True
    return _document("jack", config, [case]), 0


def run_bessel(config):
    kappa = Multiplicity(*config.kappa)
    x, y = config.x, config.y
    case = {
        "method": config.method,
        "kappa": [str(v) for v in config.kappa],
        "x": [float(v) for v in x],
        "y": [float(v) for v in y],
        "mu": str(kappa.order_mu),
    }
    # A value passes when its error estimate (series truncation, or n vs 2n
    # nodes) is within the tolerance `verify` applies to the series.
    tol = SERIES_TOL
    if config.method == "series":
        value, estimate = bessel_b2_series_trunc(kappa, x, y, config.max_degree)
        case.update(value=value, truncation_estimate=estimate, max_degree=config.max_degree)
    else:
        if config.method == "double-integral":
            # The order mu - 1 is derived from the product formula.
            case["resolved_order"] = kappa.integral_order
            evaluate = lambda counts: _double_integrals(kappa, x, y, counts)
        else:  # single-integral: --x is the 0F1 argument pair (halved squares), y is e1 = (1, 0)
            evaluate = lambda counts: _single_integrals(kappa.order_mu, kappa.kappa2, x, counts)
        if config.npoints is None:  # the node ladder: a value passes where it converged
            (value, estimate, nodes), tol = _ladder(evaluate, strict=False), LADDER_TOL
        else:
            nodes, (value, twice) = config.npoints, evaluate((config.npoints, 2 * config.npoints))
            estimate = abs(value - twice)
        case.update(nodes=nodes, value=value, quadrature_estimate=estimate)
    passed = estimate <= tol * abs(value)
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

    # An option left out takes its RunConfig default; jack --k and bessel --x/--y state their own.
    unset = {"argument_default": argparse.SUPPRESS}
    p_jack = sub.add_parser("jack", **unset, help="construct and evaluate a Jack polynomial")
    p_jack.add_argument("--lambda", dest="lam", help="partition, e.g. 3,1")
    p_jack.add_argument("--k", default="1", help="parameter k as p/q or decimal")
    p_jack.add_argument("--n", type=int, help="number of variables")
    p_jack.add_argument("--x", help="evaluation point, e.g. 3,2")
    p_jack.add_argument("--output", choices=("json", "csv", "pretty"))

    p_bessel = sub.add_parser("bessel", **unset, help="evaluate the type-B2 Bessel function")
    p_bessel.add_argument("--kappa", required=True, help="multiplicity pair, e.g. 1,1")
    p_bessel.add_argument("--x", default="0,0")
    p_bessel.add_argument("--y", default="0,0")
    p_bessel.add_argument("--method", choices=("series", "single-integral", "double-integral"))
    p_bessel.add_argument("--nodes", dest="npoints", type=int)
    p_bessel.add_argument("--max-degree", type=int)
    p_bessel.add_argument("--output", choices=("json", "csv", "pretty"))

    p_verify = sub.add_parser("verify", **unset, help="run seeded identity sweeps")
    p_verify.add_argument("verb", choices=VERIFY_VERBS)
    p_verify.add_argument("--k", help="restrict to one parameter value")
    p_verify.add_argument("--kappa", help="restrict to one multiplicity")
    p_verify.add_argument("--lambda-max", type=int)
    p_verify.add_argument("--samples", type=int)
    p_verify.add_argument("--npoints", type=int)
    p_verify.add_argument("--ntheta", type=int)
    p_verify.add_argument("--max-degree", type=int)
    p_verify.add_argument("--tol", type=float)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--output", choices=("json", "csv", "pretty"))
    return parser


_PARSERS = {"lam": parse_partition, "k": parse_scalar, "kappa": _parse_vector,
            "x": _parse_vector, "y": _parse_vector}


def config_from_args(args):
    """The RunConfig of parsed arguments; every option is checked here, once."""
    config = RunConfig(**{key: _PARSERS[key](text) if key in _PARSERS else text
                          for key, text in vars(args).items()})
    if config.k is not None:
        param_value(config.k)
    if config.command == "jack" and config.x is not None and len(config.x) != config.n:
        raise ValueError(f"expected {config.n} coordinates, got {len(config.x)}")
    for flag in ("kappa",) if config.command == "jack" else ("kappa", "x", "y"):
        if getattr(config, flag) is not None and len(getattr(config, flag)) != 2:
            raise ValueError(f"--{flag} needs exactly two components")
    if config.kappa is not None:
        Multiplicity(*config.kappa)
    if config.command != "jack":  # jack is exact; bessel and verify compute in floats
        ks = () if config.k is None else (config.k,)
        for flag, parts in (("k", ks), ("kappa", config.kappa), ("x", config.x), ("y", config.y)):
            for part in parts or ():
                try:
                    zero = float(part) == 0
                except OverflowError:
                    raise ValueError(f"--{flag} is past the float range (about 1.8e308)") from None
                if zero and flag in ("k", "kappa"):
                    raise ValueError(f"--{flag} is positive but rounds to 0.0 as a float")
    if config.npoints is not None:
        if config.command == "bessel" and not 1 <= config.npoints <= _MAX_RULE_NODES // 2:
            raise ValueError(f"--nodes must be between 1 and {_MAX_RULE_NODES // 2}: its "
                             f"2N-node estimate is capped at {_MAX_RULE_NODES} nodes")
        if not 1 <= config.npoints <= _MAX_RULE_NODES:
            raise ValueError(f"--npoints must be between 1 and the rule limit {_MAX_RULE_NODES}")
    if config.tol is not None and not config.tol > 0:
        raise ValueError("--tol must be positive")
    if config.lambda_max < 0:
        raise ValueError("--lambda-max must be nonnegative")
    if config.max_degree < 0:
        raise ValueError("--max-degree must be nonnegative")
    if config.samples < 1:
        raise ValueError("--samples must be at least 1")
    return config


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
