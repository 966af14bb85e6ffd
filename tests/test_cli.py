"""Command line interface: exit codes, JSON payloads, error paths."""

import contextlib
import gc
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
import weakref
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest depends on the backport
    import tomli as tomllib

import gl3schwarz
from gl3schwarz import appell, report
from gl3schwarz.appell import F1Params, f1_series
from gl3schwarz.cli import main
from gl3schwarz.derivs import MapJet2, deriv_quad
from gl3schwarz.jets import Jet
from gl3schwarz.report import run_suites


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, env=None):
    return runner.invoke(main, args, env=env, catch_exceptions=False)


class TestVerify:
    def test_all_suites_pass(self, runner):
        res = invoke(runner, ["verify", "group", "--seed", "5", "--format", "text"])
        assert res.exit_code == 0
        assert "1/1 checks passed" in res.output

    def test_json_determinism(self, runner):
        args = ["verify", "derivs", "--seed", "42", "--samples", "3"]
        a = invoke(runner, args)
        b = invoke(runner, args)
        assert a.exit_code == b.exit_code == 0
        assert a.output == b.output
        rep = json.loads(a.output)
        assert rep["schema"] == "gl3schwarz-report/1"
        assert rep["summary"]["failed"] == 0

    def test_unknown_suite_is_usage_error(self, runner):
        res = invoke(runner, ["verify", "nosuch"])
        assert res.exit_code == 2
        assert "unknown suite" in res.output

    def test_bad_tol_spec_is_usage_error(self, runner):
        res = invoke(runner, ["verify", "group", "--tol", "MT1"])
        assert res.exit_code == 2

    def test_forced_failure_exits_one(self, runner):
        res = invoke(
            runner,
            ["verify", "derivs", "--samples", "2", "--tol", "cocycle=0"],
        )
        assert res.exit_code == 1
        rep = json.loads(res.output)
        assert rep["summary"]["failed"] == 1

    # a refusal inside a check once ended verify as a usage error (ValueError)
    # or in a traceback (ZeroDivisionError)
    @pytest.mark.parametrize(
        "error", [ValueError("zero Jacobian at base point (sample 3)"), ZeroDivisionError("vanishing denominator")]
    )
    def test_a_refusal_in_a_check_fails_the_check(self, runner, monkeypatch, error):
        def run(rng, n):
            raise error

        checks = tuple(replace(c, run=run) if c.id == "vanishing" else c for c in report.CHECKS)
        monkeypatch.setattr(report, "CHECKS", checks)
        res = invoke(runner, ["verify", "derivs", "--samples", "2"])
        assert res.exit_code == 1
        rep = json.loads(res.stdout)
        (failed,) = [e for e in rep["checks"] if not e["pass"]]
        assert failed["id"] == "vanishing" and failed["error"] == str(error)
        assert rep["summary"] == {"total": 8, "passed": 7, "failed": 1}
        res = invoke(runner, ["verify", "derivs", "--samples", "2", "--format", "text"])
        assert res.exit_code == 1
        assert f"error: {error}" in res.stdout

    # a count below 1 once ran every sampled check on one sample and passed
    @pytest.mark.parametrize("args", [["--samples", "0", "derivs"], ["--samples", "-4", "f1"]])
    def test_samples_below_one_is_usage_error(self, runner, args):
        res = invoke(runner, ["verify", *args])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "--samples" in res.stderr

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_tolerance_flag_must_be_finite_and_non_negative(self, runner, value):
        res = invoke(runner, ["verify", "group", "--tol", f"group-algebra={value}"])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "finite and >= 0" in res.stderr

    @pytest.mark.parametrize("value", ["1", "0"])
    def test_exact_check_takes_no_tolerance_flag(self, runner, value):
        # group-algebra's residual is 0 or 1: tolerance 1 would pass a failed identity
        res = invoke(runner, ["verify", "group", "--tol", f"group-algebra={value}"])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "exact check(s): ['group-algebra']" in res.stderr

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "abc"])
    def test_tolerance_env_must_be_finite_and_non_negative(self, runner, value):
        res = invoke(runner, ["verify", "f1"], env={"GL3SCHWARZ_TOL": value})
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "GL3SCHWARZ_TOL" in res.stderr

    def test_env_tolerance_reaches_runner(self, runner):
        res = invoke(
            runner,
            ["verify", "derivs", "--samples", "2", "--format", "text"],
            env={"GL3SCHWARZ_TOL": "1e-20"},
        )
        assert res.exit_code == 1
        assert "FAIL" in res.output


class TestF1:
    def test_both_methods_agree(self, runner):
        res = invoke(
            runner,
            ["f1", "--a", "1/3", "--b", "1/3", "--bp", "1/3", "--c", "1",
             "--x", "0.2", "--y", "-0.1", "--method", "both"],
        )
        assert res.exit_code == 0
        out = json.loads(res.output)
        p = F1Params("1/3", "1/3", "1/3", "1")
        want = f1_series(p, 0.2, -0.1)
        assert out["series"] == pytest.approx([want.real, want.imag], abs=1e-14)
        assert out["euler"] == pytest.approx([want.real, want.imag], abs=1e-8)

    def test_single_method_payload(self, runner):
        res = invoke(
            runner,
            ["f1", "--a", "0.5", "--b", "0.5", "--bp", "0.5", "--c", "2",
             "--x", "0.1", "--y", "0.1"],
        )
        out = json.loads(res.output)
        assert set(out) == {"a", "b", "bp", "c", "x", "y", "series"}

    def test_domain_error_exits_one(self, runner):
        res = invoke(
            runner,
            ["f1", "--a", "1/3", "--b", "1/3", "--bp", "1/3", "--c", "1",
             "--x", "2.5", "--y", "0.1"],
        )
        assert res.exit_code == 1
        assert "error" in res.output

    @pytest.mark.parametrize(
        "field,bad",
        [("--a", "x"), ("--x", "zz"), ("--a", "1/0"), ("--b", "nan"), ("--c", "inf")],
    )
    def test_bad_literal_is_usage_error(self, runner, field, bad):
        args = {"--a": "1/3", "--b": "1/3", "--bp": "1/3", "--c": "1",
                "--x": "0", "--y": "0", field: bad}
        res = invoke(runner, ["f1"] + [t for kv in args.items() for t in kv])
        assert res.exit_code == 2

    def test_complex_parameter_matches_mpmath(self, runner):
        args = ["f1", "--a", "0.3+0.1j", "--b", "1/3", "--bp", "1/3", "--c", "1",
                "--x", "0.2", "--y", "0.1"]
        res = invoke(runner, args)
        assert res.exit_code == 0, res.output
        got = complex(*json.loads(res.stdout)["series"])
        with mpmath.workdps(16):
            ref = complex(mpmath.appellf1(0.3 + 0.1j, mpmath.mpf(1) / 3,
                                          mpmath.mpf(1) / 3, 1, 0.2, 0.1))
        assert abs(got - ref) <= 1e-11
        # the Euler rule needs real endpoint exponents: a domain error
        res = invoke(runner, args + ["--method", "both"])
        assert res.exit_code == 1
        assert "real a and c" in json.loads(res.stderr)["error"]

    def test_near_unit_circle_matches_mpmath(self, runner):
        # |x| = 0.9: a fixed cap of 10,000 terms once made this point fail
        res = invoke(
            runner,
            ["f1", "--a", "1/3", "--b", "1/3", "--bp", "1/3", "--c", "1",
             "--x", "0.54+0.72j", "--y", "0.45"],
        )
        assert res.exit_code == 0
        got = complex(*json.loads(res.stdout)["series"])
        with mpmath.workdps(16):
            ref = complex(mpmath.appellf1(mpmath.mpf(1) / 3, mpmath.mpf(1) / 3,
                                          mpmath.mpf(1) / 3, 1, 0.54 + 0.72j, 0.45))
        assert abs(got - ref) <= 1e-11 * abs(ref)

    def test_past_diagonal_budget_exits_one(self, runner):
        res = invoke(
            runner,
            ["f1", "--a", "1/3", "--b", "1/3", "--bp", "1/3", "--c", "1",
             "--x", "0.999", "--y", "0.1"],
        )
        assert res.exit_code == 1
        assert res.stdout == ""
        assert "unit circle" in json.loads(res.stderr)["error"]

    # the series once printed -8.0e57 (mpmath: +8.0e51) and exited 0; the
    # Euler rule at c = 1e15 printed numpy RuntimeWarnings, then a nan error.
    # Below the exponent floor the rule printed 1.00412 for 1.0000000000001
    # (a = 1e-12) or failed with "math domain error" (a = 5e-324); overflowing
    # series terms printed five RuntimeWarnings and "did not settle", and at
    # a = 1e308 "cannot convert float infinity to integer".  On the cut the
    # Euler rule printed 1.0762 - 0.3929i, where F1 is 1.0852 - 0.3945i, and
    # at x = 2 + 0.01i, off the cut by 0.0025 in 1/x, 0.22% off mpmath;
    # an Euler integrand past the float range printed three numpy warnings
    @pytest.mark.parametrize(
        "args, message",
        [
            (["--a", "90", "--b", "90", "--bp", "90", "--c", "1/2", "--x", "0.3", "--y", "-0.15"],
             "terms cancel"),
            (["--a", "1/3", "--b", "1/3", "--bp", "1/3", "--c", "1e15", "--x", "0.2", "--y", "0.1",
              "--method", "euler"], "endpoint exponents"),
            (["--a", "1e-12", "--b", "1/3", "--bp", "1/3", "--c", "1", "--x", "0.2", "--y", "0.1",
              "--method", "euler"], "a and c - a of at least"),
            (["--a", "5e-324", "--b", "1/3", "--bp", "1/3", "--c", "1", "--x", "0.2", "--y", "0.1",
              "--method", "euler"], "a and c - a of at least"),
            (["--a", "1", "--b", "1/3", "--bp", "1/3", "--c", str(1 + 2.0**-21), "--x", "0.2",
              "--y", "0.1", "--method", "euler"], "a and c - a of at least"),
            (["--a", "-1e308", "--b", "1/3", "--bp", "1/3", "--c", "1", "--x", "0.2", "--y", "0.1"],
             "terms overflow"),
            (["--a", "1/3", "--b", "1/3", "--bp", "1/3", "--c", "5e-324", "--x", "0.2", "--y", "0.1"],
             "terms overflow"),
            (["--a", "1e308", "--b", "1/3", "--bp", "1/3", "--c", "1", "--x", "0.2", "--y", "0.1"],
             "terms overflow"),
            (["--a", "1/3", "--b", "1/3", "--bp", "1/3", "--c", "1", "--x", "2", "--y", "0.1",
              "--method", "euler"], "modulus on the cut"),
            (["--a", "1/3", "--b", "1/3", "--bp", "1/3", "--c", "1", "--x", "2+0.01j", "--y", "0.1",
              "--method", "euler"], "modulus too near the cut"),
            (["--a", "1", "--b", "1e10", "--bp", "1", "--c", "200", "--x", "0.35316555480030276",
              "--y", "-0.6449458809952979", "--method", "euler"], "output 'euler' overflows"),
        ],
        ids=["cancellation", "huge-exponent", "tiny-a", "denormal-a", "tiny-c-minus-a",
             "overflow-a", "overflow-c", "overflow-budget", "euler-on-the-cut",
             "euler-near-the-cut", "euler-integrand-overflow"],
    )
    def test_refusal_is_one_json_error_and_no_warning(self, args, message):
        out = subprocess.run(
            [sys.executable, "-m", "gl3schwarz", "f1", *args],
            capture_output=True, text=True, env=_child_env(),
        )
        assert out.returncode == 1
        assert out.stdout == ""
        assert "Warning" not in out.stderr
        assert message in json.loads(out.stderr)["error"]

    def test_euler_at_the_exponent_bound(self, runner):
        res = invoke(
            runner,
            ["f1", "--a", "1/3", "--b", "1/3", "--bp", "1/3", "--c", "1e14",
             "--x", "0.2", "--y", "0.1", "--method", "euler"],
        )
        assert res.exit_code == 0, res.output
        assert res.stderr == ""
        assert complex(*json.loads(res.stdout)["euler"]) == pytest.approx(1.0, abs=1e-14)

    # Gamma(c) overflows at c = 200: the Euler value was once nan (exit 1)
    @pytest.mark.parametrize("a, c", [("1/3", "200"), ("170", "400")])
    def test_euler_at_large_c_matches_mpmath(self, runner, a, c):
        res = invoke(
            runner,
            ["f1", "--a", a, "--b", "1/3", "--bp", "1/3", "--c", c,
             "--x", "0.2", "--y", "0.1", "--method", "euler"],
        )
        assert res.exit_code == 0, res.output
        got = complex(*json.loads(res.stdout)["euler"])
        with mpmath.workdps(30):
            third = mpmath.mpf("1/3")
            ref = complex(mpmath.appellf1(mpmath.mpf(a), third, third, int(c), 0.2, 0.1))
        assert abs(got - ref) <= 1e-10 * abs(ref)

    # 1/x lies 0.073 from [0, 1] here, outside the refused ellipse
    def test_euler_off_the_cut_matches_mpmath(self, runner):
        res = invoke(
            runner,
            ["f1", "--a", "1/3", "--b", "1/3", "--bp", "1/3", "--c", "1",
             "--x", "2+0.3j", "--y", "0.1", "--method", "euler"],
        )
        assert res.exit_code == 0, res.output
        got = complex(*json.loads(res.stdout)["euler"])
        with mpmath.workdps(30):
            third = mpmath.mpf("1/3")
            ref = complex(mpmath.appellf1(third, third, third, 1, mpmath.mpc(2, 0.3), 0.1))
        assert abs(got - ref) <= 1e-12 * abs(ref)


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def assert_documented_outcome(res):
    """Exit 0 with strict JSON, 1 with one JSON error line, or 2 with usage text."""
    if res.exit_code == 0:
        assert res.stderr == ""
        _strict_json(res.stdout)
    elif res.exit_code == 1:
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1, res.stderr
        assert set(_strict_json(lines[0])) == {"error"}
    else:
        assert res.exit_code == 2, res.output
        assert res.stdout == ""
        assert "Usage:" in res.stderr


_ANY = st.floats()  # nan and both infinities included
_COMPLEX = st.complex_numbers(allow_nan=True, allow_infinity=True)
_CNUM = _COMPLEX.map(repr)
_CPAIR = st.tuples(_COMPLEX, _COMPLEX).map(lambda p: f"{p[0]!r},{p[1]!r}")
# moduli u and v that satisfy the modular equation, so that a point t is mapped
_ON_SHELL = ("2,3", "1.24169426078821,4")
_PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)


class TestEvaluatorOutcomes:
    """Any float or complex input, nan and inf included, ends one of the documented ways.

    In process: a leaked numpy warning is an error under the test settings,
    and an uncaught exception is not turned into an exit code.
    """

    @_PROPERTY
    @given(a=_ANY, c=_ANY, x=_ANY, y=_ANY, method=st.sampled_from(["series", "euler", "both"]))
    @example(a=1e-12, c=1.0, x=0.2, y=0.1, method="euler")
    @example(a=5e-324, c=1.0, x=0.2, y=0.1, method="euler")
    @example(a=-1e308, c=1.0, x=0.2, y=0.1, method="series")
    @example(a=1 / 3, c=5e-324, x=0.2, y=0.1, method="series")
    @example(a=1e308, c=1.0, x=0.2, y=0.1, method="series")
    @example(a=1 / 3, c=1.0, x=2.0, y=0.1, method="euler")
    def test_f1(self, a, c, x, y, method):
        assert_documented_outcome(
            invoke(CliRunner(), ["f1", "--a", repr(a), "--b", "1/3", "--bp", "1/3", "--c", repr(c),
                                 "--x", repr(x), "--y", repr(y), "--method", method])
        )

    @_PROPERTY
    @given(l=_CPAIR)
    def test_picard_j(self, l):
        assert_documented_outcome(invoke(CliRunner(), ["picard", "j", "--l", l]))

    @_PROPERTY
    @given(x=_CNUM, y=_CNUM)
    def test_picard_integral(self, x, y):
        assert_documented_outcome(invoke(CliRunner(), ["picard", "integral", "--x", x, "--y", y]))

    @_PROPERTY
    @given(u=_CPAIR, v2=_CNUM)
    def test_picard_modular_solve(self, u, v2):
        assert_documented_outcome(invoke(CliRunner(), ["picard", "modular-solve", "--u", u, "--v2", v2]))

    @_PROPERTY
    @given(uv=st.tuples(_CPAIR, _CPAIR) | st.just(_ON_SHELL), t=st.none() | _CPAIR)
    def test_picard_transform(self, uv, t):
        args = ["picard", "transform", "--u", uv[0], "--v", uv[1]]
        assert_documented_outcome(invoke(CliRunner(), args + ([] if t is None else ["--t", t])))

    @_PROPERTY
    @given(ki=_CNUM, kj=_CNUM)
    def test_k(self, ki, kj):
        assert_documented_outcome(invoke(CliRunner(), ["k", "--ki", ki, "--kj", kj]))


MAP_JSON = {
    "dim": 2,
    "u1": {"1,0": [1.0, 0.0], "2,0": [0.3, 0.1], "1,1": [0.0, 0.2]},
    "u2": {"0,1": [1.0, 0.0], "0,2": [-0.2, 0.0], "0,3": [0.05, 0.0]},
}


def poly_jet(coeffs, base):
    x = Jet.variable(2, 3, 0, base=base[0])
    y = Jet.variable(2, 3, 1, base=base[1])
    total = Jet.constant(2, 3, 0.0)
    for key, (re, im) in coeffs.items():
        e1, e2 = (int(p) for p in key.split(","))
        total = total + Jet.constant(2, 3, complex(re, im)) * x**e1 * y**e2
    return total


class TestDeriv:
    def test_matches_direct_evaluation(self, runner, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(json.dumps(MAP_JSON))
        res = invoke(runner, ["deriv", "--map", str(path), "--at", "0.2,-0.1"])
        assert res.exit_code == 0
        out = json.loads(res.output)

        u1 = poly_jet(MAP_JSON["u1"], (0.2, -0.1))
        u2 = poly_jet(MAP_JSON["u2"], (0.2, -0.1))
        want = deriv_quad(MapJet2(u1, u2)).value
        for key, w in zip(("brace_x", "brace_y", "bracket_x", "bracket_y"), want):
            assert out[key] == pytest.approx([w.real, w.imag], abs=1e-12)
        assert out["at"] == [[0.2, 0.0], [-0.1, 0.0]]
        assert out["map"] == {"u1": MAP_JSON["u1"], "u2": MAP_JSON["u2"]}

    def test_missing_component_exits_one(self, runner, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"dim": 2, "u1": {"1,0": [1, 0]}}))
        res = invoke(runner, ["deriv", "--map", str(path), "--at", "0,0"])
        assert res.exit_code == 1
        assert "u2" in res.output

    def test_malformed_json_exits_one(self, runner, tmp_path):
        path = tmp_path / "map.json"
        path.write_text("{not json")
        res = invoke(runner, ["deriv", "--map", str(path), "--at", "0,0"])
        assert res.exit_code == 1

    # each of these once ended in a traceback: AttributeError, TypeError,
    # IndexError; a string coefficient was parsed by complex()
    @pytest.mark.parametrize(
        "spec",
        [
            [],
            {"dim": 2, "u1": {"1,0": {"a": 1}}, "u2": {"0,1": 1}},
            {"dim": 2, "u1": {"1,0": [1]}, "u2": {"0,1": 1}},
            {"dim": 2, "u1": {"1,0": "1+2j"}, "u2": {"0,1": 1}},
            {"dim": 2, "u1": [[1, 0]], "u2": {"0,1": 1}},
        ],
        ids=["top-level-list", "object-coefficient", "short-pair", "string-coefficient",
             "list-table"],
    )
    def test_malformed_map_is_one_json_error(self, runner, tmp_path, spec):
        path = tmp_path / "map.json"
        path.write_text(json.dumps(spec))
        res = invoke(runner, ["deriv", "--map", str(path), "--at", "0.1,0.2"])
        assert res.exit_code == 1
        assert res.stdout == ""
        assert json.loads(res.stderr)["error"].startswith("malformed map file")

    # each of these once gave the unpacking or int() message, with no key
    @pytest.mark.parametrize("key", ["1,0,0", "a,0", "1", "1;0", ""])
    def test_malformed_exponent_key_is_named(self, runner, tmp_path, key):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"dim": 2, "u1": {key: 1, "1,0": 1}, "u2": {"0,1": 1}}))
        res = invoke(runner, ["deriv", "--map", str(path), "--at", "0.1,0.2"])
        assert res.exit_code == 1
        assert res.stdout == ""
        assert json.loads(res.stderr) == {
            "error": f"malformed map file: exponent key {key!r} is not two integers 'e1,e2'"
        }

    # the first once printed four numpy RuntimeWarnings and then "Out of
    # range float values are not JSON compliant: nan"
    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"u1": {"3000,0": 1, "0,1": 1}, "u2": {"1,0": 1}}, "map component u1 overflows"),
            ({"u1": {"1,0": 1e200, "0,1": 1}, "u2": {"1,0": 1, "2,0": 1e200}},
             "the derivatives overflow"),
        ],
        ids=["overflowing-monomial", "overflowing-derivatives"],
    )
    def test_overflow_is_one_json_error_and_no_warning(self, tmp_path, spec, message):
        path = tmp_path / "map.json"
        path.write_text(json.dumps(spec))
        out = subprocess.run(
            [sys.executable, "-m", "gl3schwarz", "deriv", "--map", str(path), "--at", "2,0.5"],
            capture_output=True, text=True, env=_child_env(),
        )
        assert out.returncode == 1
        assert out.stdout == ""
        assert "Warning" not in out.stderr
        assert message in json.loads(out.stderr)["error"]

    # the evaluators whose result leaves the float range: the same one
    # error line, naming the output.  A refused transform point whose
    # values overflow once printed "invalid value encountered in scalar
    # divide" before its error
    @pytest.mark.parametrize(
        "args, message",
        [
            (["picard", "modular-solve", "--u", "2,3", "--v2", "1e200"], "output 'roots' overflows"),
            (["picard", "transform", "--u", "2,3", "--v", "1.24169426078821,4", "--t", "1e100,1"],
             "output 'w' overflows"),
            (["picard", "integral", "--x", "1e305", "--y", "1e305j"],
             "output 'cubed_relative_gap' is 0/0"),
            (["picard", "transform", "--u", "1e+16,1e+200-2j", "--v", "1e+300,-100000000.0-1.7e+308j",
              "--t", "1e+200-1.000001j,-1e-300"], "vanishing denominator"),
            (["picard", "transform", "--u", "2,3", "--v", "1.24169426078821,4", "--t", "1e308,1e-300"],
             "vanishing denominator"),
        ],
        ids=["modular-solve-roots", "transform-w", "integral-gap", "transform-refused-non-finite",
             "transform-refused-overflow"],
    )
    def test_overflowing_output_is_one_json_error_and_no_warning(self, args, message):
        out = subprocess.run(
            [sys.executable, "-m", "gl3schwarz", *args],
            capture_output=True, text=True, env=_child_env(),
        )
        assert out.returncode == 1
        assert out.stdout == ""
        assert "Warning" not in out.stderr
        assert message in json.loads(out.stderr)["error"]

    def test_huge_exponent_is_quick(self, runner, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"u1": {"1,0": 1, "1000000000,0": 1}, "u2": {"0,1": 1}}))
        start = time.perf_counter()
        res = invoke(runner, ["deriv", "--map", str(path), "--at", "0.1,0.2"])
        assert time.perf_counter() - start < 1.0
        assert res.exit_code == 0, res.output

    def test_wrong_dim_exits_one(self, runner, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({**MAP_JSON, "dim": 3}))
        res = invoke(runner, ["deriv", "--map", str(path), "--at", "0,0"])
        assert res.exit_code == 1

    def test_degenerate_jacobian_exits_one(self, runner, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({
            "dim": 2,
            "u1": {"1,0": [1.0, 0.0]},
            "u2": {"1,0": [2.0, 0.0]},
        }))
        res = invoke(runner, ["deriv", "--map", str(path), "--at", "0,0"])
        assert res.exit_code == 1
        assert "error" in res.output


class TestPicard:
    def test_j_invariants(self, runner):
        res = invoke(runner, ["picard", "j", "--l", "2,-1"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["J1"] == pytest.approx([1 / 9, 0.0], abs=1e-15)
        assert out["J2"] == pytest.approx([1 / 9, 0.0], abs=1e-15)

    def test_j_degenerate_exits_one(self, runner):
        res = invoke(runner, ["picard", "j", "--l", "0,2"])
        assert res.exit_code == 1
        assert "error" in res.output

    def test_j_non_finite_input_is_usage_error(self, runner):
        res = invoke(runner, ["picard", "j", "--l", "nan,2"])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "finite" in res.stderr

    def test_j_non_finite_result_exits_one(self, runner):
        # J2 is about 2.5e399 here, outside the float range
        res = invoke(runner, ["picard", "j", "--l", "1e200,2"])
        assert res.exit_code == 1
        assert res.stdout == ""
        assert "overflow" in json.loads(res.stderr)["error"]

    def test_j_large_finite_moduli(self, runner):
        # l1^2 (l1 - 1)^2 overflows at l1 = 1e100, but J2 = 2.5e199 does not
        res = invoke(runner, ["picard", "j", "--l", "1e100,2"])
        assert res.exit_code == 0, res.output
        out = json.loads(res.stdout)
        assert out["J2"][0] == pytest.approx(2.5e199, rel=1e-12)
        assert out["J2"][1] == 0.0

    # one parser for a number and for each number of a pair: a pair once
    # kept the spaces inside its numbers and refused them
    @pytest.mark.parametrize(
        "spaced, plain",
        [
            (["picard", "j", "--l", "2 + 1j,3"], ["picard", "j", "--l", "2+1j,3"]),
            (["picard", "j", "--l", " 2 + 1j , 3 - 1j "], ["picard", "j", "--l", "2+1j,3-1j"]),
            (["picard", "modular-solve", "--u", "2,3 + 0.5j", "--v2", "4 - 1j"],
             ["picard", "modular-solve", "--u", "2,3+0.5j", "--v2", "4-1j"]),
            (["picard", "integral", "--x", "2 + 1j", "--y", "3 - 1j"],
             ["picard", "integral", "--x", "2+1j", "--y", "3-1j"]),
        ],
        ids=["pair", "pair-padded", "pair-and-number", "numbers"],
    )
    def test_spaces_inside_a_complex_number_are_ignored(self, runner, spaced, plain):
        res = invoke(runner, spaced)
        assert res.exit_code == 0, res.output
        assert res.stdout == invoke(runner, plain).stdout

    def test_modular_solve_roots(self, runner):
        res = invoke(runner, ["picard", "modular-solve", "--u", "2,3", "--v2", "4"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        roots = sorted(r[0] for r in out["roots"])
        s = math.sqrt(57.0)
        assert roots == pytest.approx([(15 - s) / 6, (15 + s) / 6], abs=1e-12)
        assert max(out["residuals"]) < 1e-12

    def test_transform_constraint(self, runner):
        res = invoke(
            runner,
            ["picard", "transform", "--u", "2,3",
             "--v", "1.2416942607882084,4", "--t", "0.7,1.1"],
        )
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["constraint_residual"] < 1e-12
        assert set(out) >= {"alpha", "beta", "gamma", "w"}

    def test_transform_requires_modular_relation(self, runner):
        res = invoke(runner, ["picard", "transform", "--u", "2,3", "--v", "9,4"])
        assert res.exit_code == 1
        assert "error" in res.output

    def test_integral_cubed_identity(self, runner):
        res = invoke(runner, ["picard", "integral", "--x", "3", "--y", "5.5"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["cubed_relative_gap"] < 1e-6

    # these once reported the series' own condition, |x|, |y| < 1, which is
    # the opposite of what the closed form asks of the user's moduli
    @pytest.mark.parametrize("x", ["1e-2j", "0.5+0.5j"])
    def test_integral_inside_the_unit_disc_names_the_closed_form_domain(self, runner, x):
        res = invoke(runner, ["picard", "integral", "--x", x, "--y", "5"])
        assert res.exit_code == 1
        assert res.stdout == ""
        assert json.loads(res.stderr) == {"error": "the F1 closed form needs |x|, |y| > 1"}


class TestPointEvaluators:
    def test_k_at_origin_is_beta_value(self, runner):
        res = invoke(runner, ["k", "--ki", "0", "--kj", "0"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["value"] == pytest.approx(
            [2 * math.pi / math.sqrt(3.0), 0.0], abs=1e-10
        )
        assert out["gap"] < 1e-8

    def test_k_non_finite_input_is_usage_error(self, runner):
        res = invoke(runner, ["k", "--ki", "nan", "--kj", "0"])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "finite" in res.stderr

    def test_heis_decomposition(self, runner):
        res = invoke(runner, ["heis", "--alpha", "2,1", "--q", "3"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert (out["m"], out["n"], out["l"]) == (2, 1, -1)
        assert out["word"]

    def test_heis_parity_error(self, runner):
        res = invoke(runner, ["heis", "--alpha", "1,1", "--q", "0"])
        assert res.exit_code == 1

    def test_heis_non_integer_is_usage_error(self, runner):
        res = invoke(runner, ["heis", "--alpha", "0.5,1", "--q", "3"])
        assert res.exit_code == 2


class TestOutputStreams:
    def test_redirected_stream_is_not_kept_alive(self):
        # in-process callers capture output by redirecting sys.stdout; the
        # CLI must not hold on to each stream it wrote to
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(["picard", "j", "--l", "2,3"], standalone_mode=False)
        assert set(json.loads(buf.getvalue())) == {"l", "J1", "J2"}
        ref = weakref.ref(buf)
        del buf
        gc.collect()
        assert ref() is None


class TestBench:
    def test_reports_backends(self, runner):
        res = invoke(runner, ["bench", "--reps", "50"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["active_backend"] == "pure"
        assert set(out) == {
            "dim", "order", "reps", "terms", "seconds", "active_backend"
        }
        assert out["seconds"]["pure"] > 0.0
        assert out["terms"] == 35


def _child_env(**overrides):
    """Environment for a child process that imports the gl3schwarz under test.

    Inherits the parent's environment and puts the absolute directory holding
    the imported package first on PYTHONPATH, so the child sees the same copy
    whether or not the package is installed and whatever its working
    directory.
    """
    env = dict(os.environ)
    pkg_root = str(Path(gl3schwarz.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    env.update(overrides)
    return env


class TestConsoleScript:
    def test_entry_point_and_backend_env(self):
        code = (
            "from gl3schwarz import jets; print(jets.BACKEND)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True,
            env=_child_env(),
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "pure"

    def test_script_runs(self):
        # the installed script and `python -m gl3schwarz` share this entry point
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text())["project"]
        assert project["name"] == "gl3schwarz"
        assert project["scripts"]["gl3schwarz"] == "gl3schwarz.cli:run"

        script = shutil.which("gl3schwarz")
        cmd = [script] if script else [sys.executable, "-m", "gl3schwarz"]
        out = subprocess.run(
            cmd + ["picard", "j", "--l", "2,-1"],
            capture_output=True, text=True, env=_child_env(),
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["J1"] == [pytest.approx(1 / 9), 0.0]


class TestEntryPoint:
    """`cli.run` freezes the GC on the way out of a one-shot process;
    in-process callers reach `main` and never freeze."""

    def test_one_shot_run_freezes_before_exit(self):
        code = (
            "import atexit, gc, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
            "sys.argv = ['gl3schwarz', 'heis', '--alpha', '2,1', '--q', '3']\n"
            "from gl3schwarz.cli import run\n"
            "run()\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["word"][0] == ["T1", 2]
        word, count = out.stderr.split()
        assert word == "frozen" and int(count) > 0

    def test_in_process_calls_do_not_freeze(self, runner):
        assert gc.get_freeze_count() == 0
        assert invoke(runner, ["heis", "--alpha", "2,1", "--q", "3"]).exit_code == 0
        assert invoke(runner, ["verify", "--samples", "1", "group"]).exit_code == 0
        with contextlib.redirect_stdout(io.StringIO()):
            main(["picard", "j", "--l", "2,-1"], standalone_mode=False)
            with pytest.raises(SystemExit):
                main(["verify", "--seed", "6", "--samples", "1", "--tol", "MT3=0", "picard"],
                     standalone_mode=False)
        assert gc.get_freeze_count() == 0

    def test_module_run_prints_the_in_process_report(self):
        args = ["verify", "--seed", "42", "group", "eta"]
        out = subprocess.run(
            [sys.executable, "-m", "gl3schwarz", *args], capture_output=True, env=_child_env()
        )
        assert out.returncode == 0, out.stderr
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(args, standalone_mode=False)
        assert out.stdout == buf.getvalue().encode()


class TestNoScipy:
    def test_verify_runs_with_scipy_blocked(self):
        # a None entry in sys.modules makes any scipy import fail
        code = (
            "import sys; sys.modules['scipy'] = None\n"
            "from gl3schwarz.cli import main\n"
            "main(['verify', 'f1', '--seed', '42'])"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["summary"]["failed"] == 0

    def test_cli_import_loads_no_scipy(self):
        code = (
            "import sys, gl3schwarz.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"


class TestNoLinearAlgebra:
    """A report and the quadrature commands run with numpy.linalg refused.

    The Gauss-Jacobi rules come from a recurrence and the 3x3 determinants
    and solves are closed forms, so no LAPACK routine runs and no BLAS
    threads start for them.
    """

    @pytest.fixture()
    def no_linalg(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("numpy.linalg was called")

        for name in ("eigvalsh", "eigh", "eigvals", "det", "solve", "inv"):
            monkeypatch.setattr(np.linalg, name, refused)
        # every rule is built afresh under the refusal
        appell._jacobi_rule.cache_clear()
        yield
        appell._jacobi_rule.cache_clear()

    def test_a_report_passes(self, no_linalg):
        assert run_suites(seed=42)["summary"] == {"total": 36, "passed": 36, "failed": 0}

    @pytest.mark.parametrize(
        "args",
        [
            ["f1", "--a", "1/3", "--b", "1/3", "--bp", "1/3", "--c", "1", "--x", "0.2", "--y", "0.1",
             "--method", "euler"],
            ["k", "--ki", "0.3", "--kj", "0.2"],
            ["picard", "integral", "--x", "2+1j", "--y", "3-1j"],
        ],
        ids=["f1-euler", "k", "picard-integral"],
    )
    def test_the_quadrature_commands_run(self, runner, no_linalg, args):
        res = invoke(runner, args)
        assert res.exit_code == 0, res.output
        assert appell._jacobi_rule.cache_info().currsize > 0


def _modules_after(args=None):
    """The modules a fresh interpreter holds after importing the CLI and,
    with args, running that one command."""
    code = (
        "import json, sys\n"
        "from gl3schwarz.cli import main\n"
        f"args = {args!r}\n"
        "if args is not None:\n"
        "    try:\n"
        "        main(args, standalone_mode=False)\n"
        "    except SystemExit:\n"
        "        pass\n"
        "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stderr.strip().splitlines()[-1]))


def _package_modules_after(args=None):
    return {m for m in _modules_after(args) if m.split(".")[0] == "gl3schwarz"}


class TestImportFootprint:
    """Each command loads its own layer when it runs, not at CLI import."""

    def test_cli_import_loads_only_the_jets(self):
        assert _package_modules_after() == {"gl3schwarz", "gl3schwarz.jets", "gl3schwarz.cli"}

    def test_numeric_suites_do_not_load_eta(self):
        loaded = _package_modules_after(
            ["verify", "--samples", "1", "derivs", "pde", "f1", "picard", "evolution"]
        )
        assert "gl3schwarz.report" in loaded
        assert "gl3schwarz.eta" not in loaded

    def test_heis_loads_neither_appell_nor_report(self):
        loaded = _package_modules_after(["heis", "--alpha", "2,1", "--q", "3"])
        assert "gl3schwarz.lft" in loaded
        assert loaded.isdisjoint({"gl3schwarz.appell", "gl3schwarz.report"})

    def test_a_report_loads_neither_numpy_random_nor_openssl(self):
        # a report draws from random.Random and hashes its seeds with the
        # interpreter's own SHA-256, so its peak memory holds neither; nor
        # numpy.ma, which np.unique imports (1.1 MB)
        loaded = _modules_after(["verify", "--seed", "42"])
        assert {"gl3schwarz.report", "gl3schwarz.eta"} <= loaded
        assert loaded.isdisjoint({"numpy.random", "hashlib", "_hashlib", "secrets", "numpy.ma"})
