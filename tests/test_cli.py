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
import weakref
from pathlib import Path

import mpmath
import pytest
from click.testing import CliRunner

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest depends on the backport
    import tomli as tomllib

import gl3schwarz
from gl3schwarz.appell import F1Params, f1_series
from gl3schwarz.cli import main
from gl3schwarz.derivs import MapJet2, deriv_quad
from gl3schwarz.jets import Jet


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

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_tolerance_flag_must_be_finite_and_non_negative(self, runner, value):
        res = invoke(runner, ["verify", "group", "--tol", f"group-algebra={value}"])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "finite and >= 0" in res.stderr

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
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
    # Euler rule at c = 1e15 printed numpy RuntimeWarnings, then a nan error
    @pytest.mark.parametrize(
        "args, message",
        [
            (["--a", "90", "--b", "90", "--bp", "90", "--c", "1/2", "--x", "0.3", "--y", "-0.15"],
             "terms cancel"),
            (["--a", "1/3", "--b", "1/3", "--bp", "1/3", "--c", "1e15", "--x", "0.2", "--y", "0.1",
              "--method", "euler"], "endpoint exponents"),
        ],
        ids=["cancellation", "huge-exponent"],
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
        want = deriv_quad(MapJet2(u1, u2)).values()
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
        assert project["scripts"]["gl3schwarz"] == "gl3schwarz.cli:main"

        script = shutil.which("gl3schwarz")
        cmd = [script] if script else [sys.executable, "-m", "gl3schwarz"]
        out = subprocess.run(
            cmd + ["picard", "j", "--l", "2,-1"],
            capture_output=True, text=True, env=_child_env(),
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["J1"] == [pytest.approx(1 / 9), 0.0]


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
