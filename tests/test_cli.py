"""CLI contract: schema, determinism, exit codes, output formats."""

import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stdout, redirect_stderr
from fractions import Fraction

import numpy as np
import pytest

from jackb2 import bessel, cli
from jackb2.bessel import OrderResolutionError
from jackb2.cli import main
from jackb2.quadrature import _MAX_RULE_NODES


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestJackCommand:
    def test_expansion_document(self):
        code, out, _ = run_cli("jack", "--lambda", "2", "--k", "1", "--n", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "jack"
        assert doc["summary"] == {"total": 1, "passed": 1, "failed": 0}
        terms = {tuple(t["partition"]): t["coeff"] for t in doc["cases"][0]["terms"]}
        assert terms == {(2,): "1", (1, 1): "1"}

    def test_point_value_examples(self):
        code, out, _ = run_cli("jack", "--lambda", "1,1", "--k", "1/2", "--n", "2", "--x", "3,2")
        assert code == 0
        assert json.loads(out)["cases"][0]["value"] == "6"
        code, out, _ = run_cli("jack", "--lambda", "1", "--k", "2/3", "--n", "2", "--x", "1,1")
        assert code == 0
        assert json.loads(out)["cases"][0]["value"] == "2"

    def test_rational_output_strings(self):
        code, out, _ = run_cli("jack", "--lambda", "2", "--k", "1/2", "--n", "2")
        doc = json.loads(out)
        terms = {tuple(t["partition"]): t["coeff"] for t in doc["cases"][0]["terms"]}
        assert terms[(1, 1)] == "2/3"

    def test_usage_errors(self):
        code, _, err = run_cli("jack", "--lambda", "1,2", "--k", "1", "--n", "2")
        assert code == 2 and "error" in err
        code, _, err = run_cli("jack", "--lambda", "2", "--k", "0", "--n", "2")
        assert code == 2
        code, _, err = run_cli("jack", "--lambda", "2", "--k", "1", "--n", "2", "--x", "1,2,3")
        assert code == 2

    @pytest.mark.parametrize("k", ("1e400", "1e-400"))
    def test_k_outside_the_float_range_is_exact(self, k):
        # jack computes in rationals, so no --k is checked against the float range.
        code, out, _ = run_cli("jack", "--lambda", "2,1", "--k", k, "--n", "2", "--x", "1,2")
        assert code == 0 and json.loads(out)["config"]["k"] == str(Fraction(k))


class TestBesselCommand:
    def test_series_at_zero_is_one(self):
        code, out, _ = run_cli("bessel", "--kappa", "1,1", "--x", "0,0", "--y", "1,2",
                               "--method", "series")
        assert code == 0
        assert json.loads(out)["cases"][0]["value"] == 1.0

    def test_cross_method_agreement(self):
        _, out_series, _ = run_cli("bessel", "--kappa", "0.8,1.3", "--x", "0.6,0.2",
                                   "--y", "0.4,0.1", "--method", "series")
        _, out_integral, _ = run_cli("bessel", "--kappa", "0.8,1.3", "--x", "0.6,0.2",
                                     "--y", "0.4,0.1", "--method", "double-integral",
                                     "--nodes", "64")
        a = json.loads(out_series)["cases"][0]["value"]
        b = json.loads(out_integral)["cases"][0]["value"]
        assert b == pytest.approx(a, rel=1e-7)

    def test_truncation_estimate_reported(self):
        # At degree 1 the estimate is far above 1e-7 of the value, so the
        # case is reported as failed.
        code, out, _ = run_cli("bessel", "--kappa", "1,1", "--x", "0.5,0.5",
                               "--y", "0.5,0.5", "--method", "series", "--max-degree", "1")
        case = json.loads(out)["cases"][0]
        assert case["truncation_estimate"] > 0
        assert code == 1 and case["pass"] is False

    # At (30, 20) the value is 5.13e99 and the estimate 5.12e99; at the
    # (5, 3) probe the estimate is 2.8e-6 of the value.
    @pytest.mark.parametrize("x", ("30,20", "5,3"), ids=["huge", "probe"])
    def test_truncated_series_fails(self, x):
        code, out, _ = run_cli("bessel", "--kappa", "1,1", "--x", x, "--y", x)
        case = json.loads(out)["cases"][0]
        assert case["truncation_estimate"] > 1e-7 * abs(case["value"])
        assert (code, case["pass"]) == (1, False)
        assert json.loads(out)["summary"]["failed"] == 1

    def test_converged_series_passes(self):
        code, out, _ = run_cli("bessel", "--kappa", "1,1", "--x", "0.5,0.3", "--y", "0.7,0.2")
        case = json.loads(out)["cases"][0]
        assert case["truncation_estimate"] < 1e-100
        assert (code, case["pass"]) == (0, True)

    def test_series_denominator_overflow_is_usage_error(self):
        code, out, err = run_cli("bessel", "--kappa", "1,1", "--x", "0.5,0.3",
                                 "--y", "0.7,0.2", "--max-degree", "200")
        assert (code, out) == (2, "")
        assert "max_degree=200" in err and "float range" in err

    def test_denominators_past_the_float_range_stop_there(self):
        # Under a 1 GB cap: the exact denominators leave the float range at
        # degree 170, and the table must stop there, not build all 3200 degrees.
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (10 ** 9, 10 ** 9))
        proc = subprocess.run(
            [sys.executable, "-m", "jackb2.cli", "bessel", "--kappa", "1,1", "--x", "0.1,0.1",
             "--y", "0.1,0.1", "--max-degree", "3200"], capture_output=True, text=True,
            timeout=120, preexec_fn=cap, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "max_degree=3200" in proc.stderr and "Traceback" not in proc.stderr

    def test_argument_squared_past_the_float_range_is_usage_error(self):
        code, out, err = run_cli("bessel", "--kappa", "1,1", "--x", "1e200,1", "--y", "1,1")
        assert (code, out) == (2, "")
        assert "float range" in err and "Traceback" not in err

    def test_resolved_order_reported(self):
        _, out, _ = run_cli("bessel", "--kappa", "1,1", "--x", "0.4,0.7",
                            "--y", "0.2,0.6", "--method", "double-integral")
        case = json.loads(out)["cases"][0]
        assert case["mu"] == "5/2"
        assert case["resolved_order"] == 1.5

    def test_resolution_failure_exit_code(self):
        # One node is far from converged: the n vs 2n estimate (8.8e-6 of
        # the value) fails the case instead of passing it in silence.
        code, out, _ = run_cli("bessel", "--kappa", "1,1", "--x", "0.4,0.7",
                               "--y", "0.2,0.6", "--method", "double-integral",
                               "--nodes", "1")
        case = json.loads(out)["cases"][0]
        assert case["quadrature_estimate"] > 1e-7 * abs(case["value"])
        assert (code, case["pass"]) == (1, False)

    @pytest.mark.parametrize("method", ("double-integral", "single-integral"))
    def test_quadrature_estimate_reported(self, method):
        code, out, _ = run_cli("bessel", "--kappa", "1,1", "--x", "0.4,0.7",
                               "--y", "0.2,0.6", "--method", method)
        case = json.loads(out)["cases"][0]
        assert case["quadrature_estimate"] <= 1e-12 * abs(case["value"])
        assert (code, case["pass"], case["nodes"]) == (0, True, 16)

    @pytest.mark.parametrize("method", ("double-integral", "single-integral"))
    def test_explicit_nodes_compare_n_with_2n(self, method):
        code, out, _ = run_cli("bessel", "--kappa", "1,1", "--x", "0.4,0.7",
                               "--y", "0.2,0.6", "--method", method, "--nodes", "64")
        case = json.loads(out)["cases"][0]
        assert (code, case["pass"], case["nodes"]) == (0, True, 64)
        # One evaluation at 64 and 128 nodes keeps the bits of the two fixed calls.
        kappa, x, y = bessel.Multiplicity(1, 1), (0.4, 0.7), (0.2, 0.6)
        if method == "double-integral":
            value, twice = (bessel.bessel_b2_double_integral(kappa, x, y, n) for n in (64, 128))
        else:
            value, twice = (bessel.hyp0f1_single_integral(kappa.order_mu, 1, x, n)
                            for n in (64, 128))
        assert (case["value"], case["quadrature_estimate"]) == (value, abs(value - twice))

    def test_ladder_unconverged_at_the_cap_is_a_failed_case(self, monkeypatch):
        # This point needs 32 nodes: capped at 16, its 8 vs 16 estimate fails the case.
        monkeypatch.setattr(bessel, "LADDER_CAP", 16)
        code, out, err = run_cli("bessel", "--kappa", "1,1", "--x", "5,3", "--y", "5,3",
                                 "--method", "double-integral")
        case = json.loads(out)["cases"][0]
        assert (code, case["pass"], case["nodes"], err) == (1, False, 16, "")
        assert case["quadrature_estimate"] > 1e-12 * abs(case["value"])

    def test_float_series_overflow_is_usage_error(self):
        code, out, err = run_cli("bessel", "--kappa", "1,1", "--x", "30,20",
                                 "--y", "30,20", "--max-degree", "160")
        assert (code, out) == (2, "")
        assert "max_degree=160" in err and "--method double-integral" in err

    def test_kappa_validation(self):
        code, _, _ = run_cli("bessel", "--kappa", "0,1", "--method", "series")
        assert code == 2
        code, _, _ = run_cli("bessel", "--kappa", "1,1,1", "--method", "series")
        assert code == 2

    @pytest.mark.parametrize("method", ("series", "single-integral", "double-integral"))
    @pytest.mark.parametrize("flag", ("--x", "--y"))
    def test_point_needs_two_components(self, method, flag):
        # Checked before any method runs: no traceback, and no value at the
        # first two components echoed with all three.
        argv = {"--x": "0.5,0.3", "--y": "0.7,0.2", flag: "1,2,3"}
        code, out, err = run_cli("bessel", "--kappa", "1,1", "--method", method,
                                 *(item for pair in argv.items() for item in pair))
        assert (code, out) == (2, "")
        assert err == f"error: {flag} needs exactly two components\n"

    @pytest.mark.parametrize("argv, message", [
        (("--kappa", "1e400,1", "--method", "double-integral"), "--kappa is past the float range"),
        (("--kappa", "1e400,1", "--method", "single-integral"), "--kappa is past the float range"),
        (("--kappa", "1,1", "--x", "1e400,0.5"), "--x is past the float range"),
        (("--kappa", "1,1", "--y", "0.5,-1e400"), "--y is past the float range"),
        (("--kappa", "1e-400,1"), "--kappa is positive but rounds to 0.0"),
    ], ids=["double-integral", "single-integral", "x", "y", "kappa-underflow"])
    def test_option_outside_the_float_range_is_usage_error(self, argv, message):
        code, out, err = run_cli("bessel", *argv)
        assert (code, out) == (2, "")
        assert message in err

    def test_coordinate_below_the_float_range_is_zero(self):
        # Only a positive parameter must stay nonzero; a coordinate may round to 0.0.
        code, out, _ = run_cli("bessel", "--kappa", "1,1", "--x", "1e-400,0.5")
        assert code == 0 and json.loads(out)["cases"][0]["x"] == [0.0, 0.5]

    @pytest.mark.parametrize("method", ("series", "single-integral", "double-integral"))
    @pytest.mark.parametrize("nodes", ("0", "-1"))
    def test_node_count_below_one_is_usage_error(self, method, nodes):
        code, out, err = run_cli("bessel", "--kappa", "1,1", "--x", "0.5,0.3",
                                 "--method", method, "--nodes", nodes)
        assert code == 2
        assert out == ""
        assert "--nodes" in err


class TestVerifyCommand:
    def test_product_sweep_passes(self):
        code, out, _ = run_cli("verify", "product", "--lambda-max", "3", "--samples", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["failed"] == 0
        assert doc["summary"]["total"] == len(doc["cases"])
        assert all(case["pass"] for case in doc["cases"])

    def test_identity_failure_exit_code(self):
        # An absurd tolerance turns honest rounding into reported failures.
        code, out, _ = run_cli("verify", "zonal", "--lambda-max", "4", "--tol", "1e-30")
        assert code == 1
        assert json.loads(out)["summary"]["failed"] >= 1

    def test_positive_draws_are_the_per_sample_draws(self):
        # One (samples, 4) draw gives the doubles of one 4-draw per sample, in order.
        batched, single = np.random.default_rng(5), np.random.default_rng(5)
        points = cli._draw_positive(batched, 30)
        assert len(points) == 30
        for x, y in points:
            draw = 3.0 - single.uniform(0.0, 3.0, size=4)
            assert np.array_equal(x, draw[:2]) and np.array_equal(y, draw[2:])
        assert batched.uniform() == single.uniform()
        assert cli._draw_positive(batched, 0) == []

    def test_seeded_byte_identical(self):
        first = run_cli("verify", "product", "--lambda-max", "4", "--samples", "3")
        second = run_cli("verify", "product", "--lambda-max", "4", "--samples", "3")
        assert first == second

    def test_seed_changes_samples(self):
        _, a, _ = run_cli("verify", "product", "--lambda-max", "2", "--samples", "2",
                          "--seed", "42")
        _, b, _ = run_cli("verify", "product", "--lambda-max", "2", "--samples", "2",
                          "--seed", "43")
        assert a != b
        assert json.loads(a)["config"]["seed"] == 42

    def test_all_verbs_run_clean(self):
        code, out, _ = run_cli("verify", "all", "--lambda-max", "3", "--samples", "2")
        assert code == 0
        doc = json.loads(out)
        identities = {case["identity"] for case in doc["cases"]}
        assert {"product", "zonal-average", "series-vs-double-integral",
                "bessel-product", "rotation-symmetry", "single-integral",
                "limit-transition", "b2-derivation"} <= identities
        assert doc["cases"][-1]["identity"] == "b2-derivation"

    def test_derivation_verb(self):
        code, out, _ = run_cli("verify", "b2-derivation")
        cases = json.loads(out)["cases"]
        assert code == 0
        assert [case["kappa"] for case in cases] == [["1", "1"], ["4/5", "13/10"], ["1/2", "1/2"]]
        assert all(case["identity"] == "b2-derivation" and case["rel_err"] < 1e-13
                   for case in cases)
        code, out, _ = run_cli("verify", "b2-derivation", "--kappa", "1/8,3/2", "--npoints", "1")
        assert code == 1 and json.loads(out)["cases"][0]["pass"] is False

    def test_order_resolution_failure_is_a_failed_case(self, monkeypatch):
        def fail(kappa):
            raise OrderResolutionError(f"no candidate order matches for {kappa}")
        monkeypatch.setattr(cli, "resolve_double_integral_order", fail)
        code, out, _ = run_cli("verify", "bessel-series-vs-integral")
        case = json.loads(out)["cases"][-1]
        assert case["identity"] == "order-consistency"
        assert (code, case["order_offsets"], case["pass"]) == (1, [None] * 3, False)

    def test_order_resolved_at_large_multiplicity(self):
        # Only 3 of 25 draws tell the two orders apart at mu = 8000.5; they decide.
        code, out, _ = run_cli("verify", "bessel-series-vs-integral", "--kappa", "4000,4000")
        case = json.loads(out)["cases"][-1]
        assert (code, case["order_offsets"], case["pass"]) == (0, [-1], True)

    def test_unknown_verb_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "nonsense")
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, flag", [
        (("product", "--lambda-max", "-1"), "--lambda-max"),
        (("zonal", "--lambda-max", "-1"), "--lambda-max"),
        (("all", "--lambda-max", "-1", "--samples", "1"), "--lambda-max"),
        (("product", "--samples", "0"), "--samples"),
    ], ids=["product", "zonal", "all", "samples"])
    def test_empty_sweep_is_usage_error(self, argv, flag):
        code, out, err = run_cli("verify", *argv)
        assert code == 2
        assert out == ""
        assert flag in err

    @pytest.mark.parametrize("verb", ("product", "bessel-series-vs-integral",
                                      "bessel-product", "single-integral", "all"))
    @pytest.mark.parametrize("npoints", ("0", "-3"))
    def test_node_count_below_one_is_usage_error(self, verb, npoints):
        code, out, err = run_cli("verify", verb, "--npoints", npoints)
        assert code == 2
        assert out == ""
        assert "--npoints" in err

    @pytest.mark.parametrize("argv, flag", [
        (("bessel", "--kappa", "1,1", "--method", "double-integral",
          "--nodes", str(_MAX_RULE_NODES // 2 + 1)), "--nodes"),
        (("verify", "product", "--npoints", str(_MAX_RULE_NODES + 1)), "--npoints"),
    ], ids=["bessel-estimate-rule", "verify"])
    def test_node_count_over_the_rule_limit_is_usage_error(self, argv, flag):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        assert flag in err and str(_MAX_RULE_NODES) in err

    @pytest.mark.parametrize("verb", cli.VERIFY_VERBS)
    @pytest.mark.parametrize("option, value, message", [
        ("--k", "0", "parameter k must be positive"),
        ("--k", "-5", "parameter k must be positive"),
        ("--kappa", "0,1", "multiplicities must be positive"),
        ("--kappa", "1,-1/2", "multiplicities must be positive"),
    ])
    def test_out_of_domain_parameter_is_usage_error(self, verb, option, value, message):
        # Also for the verbs that do not use the option, such as `limit`.
        code, out, err = run_cli("verify", verb, option, value)
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize("argv, message", [
        (("bessel-product", "--k", "1e400"), "--k is past the float range"),
        (("product", "--k", "1e400"), "--k is past the float range"),
        (("all", "--k", "1e400"), "--k is past the float range"),
        (("bessel-series-vs-integral", "--kappa", "1e400,1"), "--kappa is past the float range"),
        (("b2-derivation", "--kappa", "1e400,1"), "--kappa is past the float range"),
        (("product", "--k", "1e-400"), "--k is positive but rounds to 0.0"),
        (("limit", "--k", "1e400"), "--k is past the float range"),
    ], ids=["bessel-product", "product", "all", "series-vs-integral", "b2-derivation",
            "product-underflow", "limit"])
    def test_parameter_outside_the_float_range_is_usage_error(self, argv, message):
        # Checked once, before any sweep: no OverflowError traceback and no
        # "float division by zero" from a parameter that rounds to 0.0.
        code, out, err = run_cli("verify", *argv)
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize("verb", ("single-integral", "all"))
    def test_negative_max_degree_is_usage_error(self, verb):
        code, out, err = run_cli("verify", verb, "--max-degree", "-1")
        assert (code, out, err) == (2, "", "error: --max-degree must be nonnegative\n")

    def test_csv_output(self):
        code, out, _ = run_cli("verify", "zonal", "--lambda-max", "2", "--output", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "identity,params,lhs,rhs,abs_err,rel_err,pass"
        doc_code, json_out, _ = run_cli("verify", "zonal", "--lambda-max", "2")
        assert len(lines) - 1 == len(json.loads(json_out)["cases"])

    def test_pretty_output(self):
        code, out, _ = run_cli("verify", "limit", "--output", "pretty")
        assert code == 0
        assert out.count("[PASS]") == 4
        assert out.strip().endswith("failed 0")


_DEFAULT_CONFIG = {
    "verb": None, "lambda": [], "n": 2, "k": None, "kappa": None, "x": None, "y": None,
    "method": "series", "npoints": None, "max_degree": 30, "ntheta": 256, "lambda_max": 8,
    "samples": 50, "tol": None, "seed": 42, "output": "json",
}


class TestConfigBlock:
    @pytest.mark.parametrize("argv, changed", [
        (("jack",), {"k": "1"}),
        (("bessel", "--kappa", "0.8,1.3"),
         {"kappa": ["4/5", "13/10"], "x": ["0", "0"], "y": ["0", "0"]}),
        (("verify", "limit"), {"verb": "limit"}),
    ], ids=["jack", "bessel", "verify"])
    def test_defaults_are_echoed_in_full(self, argv, changed):
        # Every option, in this order, with its type: rationals as strings.
        code, out, _ = run_cli(*argv)
        assert code == 0
        expected = dict(_DEFAULT_CONFIG, **changed)
        assert list(json.loads(out)["config"].items()) == list(expected.items())

    @pytest.mark.parametrize("command", (("jack",), ("verify", "limit")))
    @pytest.mark.parametrize("k", ("1/0", "abc"))
    def test_unparsable_k_is_usage_error(self, command, k):
        code, out, err = run_cli(*command, "--k", k)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


class TestJsonConventions:
    def test_float_seventeen_digits(self):
        _, out, _ = run_cli("verify", "product", "--lambda-max", "2", "--samples", "1")
        doc = json.loads(out)
        case = next(c for c in doc["cases"] if c["lambda"] == [1])
        # Seeded x coordinates are full-precision floats and survive a
        # parse/print round trip exactly.
        assert float(f"{case['x'][0]:.17g}") == case["x"][0]

    def test_schema_keys(self):
        _, out, _ = run_cli("verify", "zonal", "--lambda-max", "2")
        doc = json.loads(out)
        assert list(doc.keys()) == ["command", "config", "cases", "summary"]
        assert set(doc["summary"]) == {"total", "passed", "failed"}


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "jackb2.cli", "jack", "--lambda", "2", "--k", "1", "--n", "2"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["command"] == "jack"
