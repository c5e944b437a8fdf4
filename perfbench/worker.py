"""Child process that calls jackb2 on generated inputs.

    python3 perfbench/worker.py run <workload> [--trace SPANS_PATH] < inputs.json
    python3 perfbench/worker.py reference bessel-scan < ops_and_outputs.json

``run`` times each operation and prints one JSON document with the loop
time, each operation's start and latency (``time.perf_counter``, which is
the system-wide monotonic clock, so the parent can line them up with its
speed samples) and the outputs.  With ``--trace`` it first
installs the outside-in tracer, adds the per-layer metrics to the document
and writes every span to SPANS_PATH.  ``reference`` computes the
``bessel-scan`` references, outside any timed region.

The parent (``run.py``) sets PYTHONPATH to the checkout's ``src`` and caps
BLAS and OpenMP threads before starting this process.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

# Every module is imported before the tracer patches namespaces, and the
# import cost is set-up, not loop time.
import jackb2
import jackb2.cli
import workloads

LAYERS = Path(__file__).with_name("layers.json")


def _bessel_prepare(op):
    kappa = jackb2.Multiplicity(*(Fraction(v) for v in op["kappa"]))
    return kappa, tuple(op["x"]), tuple(op["y"]), tuple(op["xs"])


def _bessel_call(kappa, x, y, xs):
    return {
        "series": jackb2.bessel_b2_series(kappa, x, y),
        "double": jackb2.bessel_b2_double_integral(kappa, x, y),
        "single": jackb2.hyp0f1_single_integral(kappa.order_mu, kappa.kappa2, xs),
    }


def _jack_prepare(op):
    return tuple(op["lam"]), Fraction(op["k"]), op["n"]


def _jack_call(lam, k, n):
    poly = jackb2.jack_p(lam, k, n)
    return [[list(mu), str(c)] for mu, c in poly.expansion.coeffs.items()]


def _verify_prepare(argv):
    return (argv,)


def _verify_call(argv):
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = jackb2.cli.main(argv)
    return {"code": code, "stdout": captured.getvalue()}


CALLS = {
    "bessel-scan": (_bessel_prepare, _bessel_call),
    "jack-exact": (_jack_prepare, _jack_call),
    "verify-all": (_verify_prepare, _verify_call),
}


def run(workload, inputs, spans_path=None):
    prepare, call = CALLS[workload]
    prepared = [prepare(op) for op in inputs]
    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        layers = json.loads(LAYERS.read_text())
        tracer = Tracer(layers["functions"], layers["caches"])
        tracer.install()
    outputs, op_start, latency = [], [], []
    clock = time.perf_counter
    loop_start = clock()
    for op_id, args in enumerate(prepared):
        start = clock()
        if tracer is None:
            out = call(*args)
        else:
            out = tracer.run_op(op_id, call, *args)
        latency.append(clock() - start)
        op_start.append(start)
        outputs.append(out)
    loop_s = clock() - loop_start
    doc = {"loop_start_s": loop_start, "loop_s": loop_s, "op_start_s": op_start,
           "latency_s": latency, "outputs": outputs}
    if tracer is not None:
        tracer.uninstall()
        trace = tracer.summary()
        if workload == "verify-all":
            trace["metrics"]["cli.emit.bytes"] = sum(
                len(out["stdout"].encode()) for out in outputs)
        else:
            trace["metrics"]["cli.emit.bytes"] = 0
        tracer.write(spans_path)
        doc["trace"] = trace
    return doc


def reference_bessel(ops, outputs):
    """Degree-40 two-argument series for the single integral and, where the
    degree-30 series misses the double integral, the degree-90 series."""
    refs = []
    for op, out in zip(ops, outputs):
        kappa, x, y, xs = _bessel_prepare(op)
        single_ref, _ = jackb2.hyp0f1_two(kappa.order_mu, kappa.kappa2, xs, (1.0, 0.0),
                                   workloads.SINGLE_REF_DEGREE)
        ref = {"single_ref": single_ref}
        if workloads.rel_err(out["series"], out["double"]) > workloads.SERIES_TOL:
            ref["series_deep"] = jackb2.bessel_b2_series(
                kappa, x, y, workloads.TRUNCATION_REF_DEGREE)
        refs.append(ref)
    return refs


def main(argv):
    mode, workload = argv[0], argv[1]
    payload = json.load(sys.stdin)
    if mode == "run":
        spans_path = argv[3] if argv[2:3] == ["--trace"] else None
        doc = run(workload, payload, spans_path)
    elif mode == "reference" and workload == "bessel-scan":
        doc = reference_bessel(payload["ops"], payload["outputs"])
    else:
        raise SystemExit(f"unknown mode {mode!r} for {workload!r}")
    json.dump(doc, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
