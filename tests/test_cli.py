"""CLI contract: schema, determinism, exit codes, output formats."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout, redirect_stderr

import pytest

from jackb2 import cli
from jackb2.bessel import OrderResolutionError
from jackb2.cli import main


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
        assert case["quadrature_estimate"] <= 1e-7 * abs(case["value"])
        assert (code, case["pass"], case["nodes"]) == (0, True, 64)

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
