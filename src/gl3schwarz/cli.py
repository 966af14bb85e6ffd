"""Command line front end.

`verify` runs the seeded identity suites and prints the deterministic
report; the remaining commands are one-shot evaluators that echo their
parsed inputs back together with the computed values, complex numbers as
[re, im] pairs throughout.

Exit codes: 0 all good, 1 failed checks or a domain error in an evaluator,
2 usage errors.  A process enters at `run`; in-process callers call `main`.
"""

from __future__ import annotations

import cmath
import functools
import gc
import json
import math
import sys
import time

import click
import numpy as np

# Each command imports its own layer when it runs: a start that only parses
# arguments, or runs one evaluator, does not load the verification suites.
from .jets import BACKEND, Jet, _mul_table, monomials


def _complex(text: str) -> complex:
    """A finite complex number, with spaces anywhere in the text ignored."""
    z = complex(text.replace(" ", ""))
    if not cmath.isfinite(z):
        raise ValueError("not finite")
    return z


class ComplexParam(click.ParamType):
    name = "complex"

    def convert(self, value, param, ctx):
        try:
            return _complex(str(value))
        except ValueError:
            self.fail(f"{value!r} is not a finite complex number", param, ctx)


class ComplexPairParam(click.ParamType):
    name = "complex,complex"

    def convert(self, value, param, ctx):
        parts = str(value).split(",")
        if len(parts) != 2:
            self.fail(f"{value!r} is not a comma-separated pair", param, ctx)
        try:
            return tuple(_complex(p) for p in parts)
        except ValueError:
            self.fail(f"{value!r} is not a pair of finite complex numbers", param, ctx)


COMPLEX = ComplexParam()
CPAIR = ComplexPairParam()


def _cj(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


# Output goes through sys.stdout/sys.stderr directly, not click.echo: click
# caches a text wrapper per stream in a WeakKeyDictionary whose value for a
# StringIO is the stream itself, so every stream it ever wrote to (each
# redirected in-process run) would stay alive for the life of the process.
def _emit(obj) -> None:
    """Print obj as strict JSON; an output out of the float range is a
    ValueError naming that output."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        key = next(k for k, v in obj.items() if not _strict(v))
        raise ValueError(f"output {key!r} overflows the float range") from None
    sys.stdout.write(text + "\n")


def _strict(value) -> bool:
    """Whether value is strict JSON, with no NaN or infinity in it."""
    try:
        json.dumps(value, allow_nan=False)
    except ValueError:
        return False
    return True


def _eval_errors(fn):
    """Map domain errors of wrapped operations to exit code 1.

    ValueError also covers an output out of the float range, which `_emit`
    names, and an F1 series point too close to the unit circle.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
            sys.exit(1)

    return wrapper


@click.group()
def main():
    """Derivative quads, F1 values, moduli transforms, identity suites."""


def run() -> None:
    """The script's entry point: `main`, then `gc.freeze()` as the process
    exits, so that shutdown skips collecting the objects left alive."""
    try:
        main(prog_name="gl3schwarz")
    finally:
        gc.freeze()


@main.command()
@click.argument("suites", nargs=-1)
@click.option("--seed", default=42, show_default=True, type=int, help="suite seed")
@click.option("--samples", type=click.IntRange(1), default=None, help="per-check sample override")
@click.option(
    "--tol",
    "tols",
    multiple=True,
    metavar="CHECK=VALUE",
    help="per-check tolerance override (repeatable)",
)
@click.option(
    "--format",
    "fmt",
    default="json",
    show_default=True,
    type=click.Choice(["json", "text"]),
)
def verify(suites, seed, samples, tols, fmt):
    """Run verification suites (names or 'all'; default all)."""
    from . import report

    overrides = {}
    for item in tols:
        name, sep, value = item.partition("=")
        if not sep:
            raise click.UsageError(f"--tol expects CHECK=VALUE, got {item!r}")
        try:
            overrides[name] = float(value)
        except ValueError:
            raise click.UsageError(f"--tol value {value!r} is not a number")
    try:
        rep = report.run_suites(
            suites or ("all",), seed=seed, samples=samples, tol_overrides=overrides
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    sys.stdout.write(report.render_report(rep, fmt))
    if rep["summary"]["failed"]:
        sys.exit(1)


@main.command()
@click.option("--a", required=True, help="rational like 1/3, or a complex number like 0.3+0.1j")
@click.option("--b", required=True)
@click.option("--bp", required=True, help="second upper parameter")
@click.option("--c", required=True)
@click.option("--x", required=True, type=COMPLEX)
@click.option("--y", required=True, type=COMPLEX)
@click.option(
    "--method",
    default="series",
    show_default=True,
    type=click.Choice(["series", "euler", "both"]),
)
@_eval_errors
def f1(a, b, bp, c, x, y, method):
    """Evaluate the two-variable hypergeometric function."""
    from .appell import F1Params, f1_euler, f1_series

    try:
        params = F1Params(a, b, bp, c)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    out = {"a": a, "b": b, "bp": bp, "c": c, "x": _cj(x), "y": _cj(y)}
    if method in ("series", "both"):
        out["series"] = _cj(f1_series(params, x, y))
    if method in ("euler", "both"):
        out["euler"] = _cj(f1_euler(params, x, y))
    _emit(out)


def _coefficient(val) -> complex:
    """A map coefficient: a JSON number or a [re, im] pair of numbers."""
    parts = val if isinstance(val, list) and len(val) == 2 else (val, 0)
    if not all(type(p) in (int, float) for p in parts):
        raise ValueError(f"malformed map file: coefficient {val!r} is not a number or [re, im]")
    return complex(*parts)


def _poly_jet(coeffs: dict, base) -> Jet:
    """The polynomial of a map file's coefficient table, as an order-3 jet at base."""
    x, y = Jet.variables(2, 3, base)
    out = Jet.constant(2, 3, 0.0)
    for key in sorted(coeffs):
        try:
            e1, e2 = (int(p) for p in key.split(","))
        except ValueError:
            raise ValueError(
                f"malformed map file: exponent key {key!r} is not two integers 'e1,e2'"
            ) from None
        if e1 < 0 or e2 < 0:
            raise ValueError(f"negative exponent in key {key!r}")
        out = out + _coefficient(coeffs[key]) * x**e1 * y**e2
    return out


@main.command()
@click.option(
    "--map",
    "map_file",
    required=True,
    type=click.Path(exists=True, dir_okay=False),
    help="polynomial map as JSON: dim, u1, u2 keyed by 'e1,e2' exponents",
)
@click.option("--at", required=True, type=CPAIR, metavar="X,Y")
@_eval_errors
def deriv(map_file, at):
    """Evaluate the four derivatives of a polynomial map at a point."""
    from .derivs import MapJet2, deriv_quad

    with open(map_file, encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed map file: {exc}")
    if not isinstance(spec, dict):
        raise ValueError("malformed map file: expected a JSON object")
    if spec.get("dim", 2) != 2:
        raise ValueError("map file must have dim 2")
    if not all(isinstance(spec.get(k), dict) for k in ("u1", "u2")):
        raise ValueError("malformed map file: u1 and u2 must be coefficient tables")
    # an overflow leaves a non-finite jet coefficient, which is named here
    # rather than warned about along the way
    with np.errstate(all="ignore"):
        m = MapJet2(_poly_jet(spec["u1"], at), _poly_jet(spec["u2"], at))
        for name, u in (("u1", m.u1), ("u2", m.u2)):
            if not math.isfinite(u.max_abs()):
                raise ValueError(f"map component {name} overflows at the point")
        quad = deriv_quad(m).value
    if not np.isfinite(quad).all():
        raise ValueError("the derivatives overflow at the point")
    brace_x, brace_y, bracket_x, bracket_y = quad
    _emit(
        {
            "map": {"u1": spec["u1"], "u2": spec["u2"]},
            "at": [_cj(at[0]), _cj(at[1])],
            "brace_x": _cj(brace_x),
            "brace_y": _cj(brace_y),
            "bracket_x": _cj(bracket_x),
            "bracket_y": _cj(bracket_y),
        }
    )


@main.group()
def picard():
    """Moduli invariants, the order-five transform, period integrals."""


@picard.command("j")
@click.option("--l", "moduli", required=True, type=CPAIR, metavar="L1,L2")
@_eval_errors
def picard_j(moduli):
    """The two rational moduli invariants."""
    from .picard import j_invariants

    j1, j2 = j_invariants(*moduli)
    _emit({"l": [_cj(moduli[0]), _cj(moduli[1])], "J1": _cj(j1), "J2": _cj(j2)})


@picard.command("modular-solve")
@click.option("--u", required=True, type=CPAIR, metavar="U1,U2")
@click.option("--v2", required=True, type=COMPLEX)
@_eval_errors
def picard_modular_solve(u, v2):
    """Both v1 roots pairing (v1, v2) with the source moduli."""
    from .picard import modular_residual, modular_solve

    roots = modular_solve(u, v2)
    _emit(
        {
            "u": [_cj(u[0]), _cj(u[1])],
            "v2": _cj(v2),
            "roots": [_cj(r) for r in roots],
            "residuals": [abs(modular_residual(u, (r, v2))) for r in roots],
        }
    )


@picard.command("transform")
@click.option("--u", required=True, type=CPAIR, metavar="U1,U2")
@click.option("--v", required=True, type=CPAIR, metavar="V1,V2")
@click.option("--t", type=CPAIR, default=None, metavar="T1,T2")
@_eval_errors
def picard_transform(u, v, t):
    """Transform coefficients for a moduli pair; optionally map a point."""
    from .picard import order5_map, transform_abg

    abg = transform_abg(u, v)
    out = {
        "u": [_cj(u[0]), _cj(u[1])],
        "v": [_cj(v[0]), _cj(v[1])],
        "alpha": _cj(abg.alpha),
        "beta": _cj(abg.beta),
        "gamma": _cj(abg.gamma),
        "constraint_residual": abs(abg.constraint_residual()),
    }
    if t is not None:
        w1, w2 = order5_map(abg, *t)
        out["t"] = [_cj(t[0]), _cj(t[1])]
        out["w"] = [_cj(w1), _cj(w2)]
    _emit(out)


@picard.command("integral")
@click.option("--x", required=True, type=COMPLEX)
@click.option("--y", required=True, type=COMPLEX)
@_eval_errors
def picard_integral_cmd(x, y):
    """Period integral and its hypergeometric closed form."""
    from .appell import picard_f1_identity_rhs, picard_integral

    value = picard_integral(x, y)
    rhs = picard_f1_identity_rhs(x, y)
    cube = rhs**3
    if not cube:
        raise ValueError("output 'cubed_relative_gap' is 0/0: the cubes underflow the float range")
    _emit(
        {
            "x": _cj(x),
            "y": _cj(y),
            "value": _cj(value),
            "f1_form": _cj(rhs),
            "cubed_relative_gap": abs(value**3 - cube) / abs(cube),
        }
    )


@main.command()
@click.option("--ki", required=True, type=COMPLEX)
@click.option("--kj", required=True, type=COMPLEX)
@_eval_errors
def k(ki, kj):
    """Two-moduli period integral, direct and substituted routes."""
    from .appell import k_integral, k_integral_substituted

    value = k_integral(ki, kj)
    sub = k_integral_substituted(ki, kj)
    _emit(
        {
            "ki": _cj(ki),
            "kj": _cj(kj),
            "value": _cj(value),
            "substituted": _cj(sub),
            "gap": abs(value - sub),
        }
    )


@main.command()
@click.option(
    "--alpha", required=True, metavar="A,B", help="Eisenstein integer a + b*omega"
)
@click.option("--q", required=True, type=int, help="sqrt(-3) coefficient of 2*beta")
@_eval_errors
def heis(alpha, q):
    """Decompose a lattice translation into generator powers."""
    from .lft import Eis, HeisenbergElem, decompose_heisenberg

    try:
        a, b = (int(p) for p in alpha.split(","))
    except ValueError:
        raise click.UsageError(f"--alpha expects two integers, got {alpha!r}")
    elem = HeisenbergElem(Eis(a, b), q)
    m, n, ell = decompose_heisenberg(elem)
    _emit(
        {
            "alpha": [a, b],
            "q": q,
            "m": m,
            "n": n,
            "l": ell,
            "word": [["T1", m], ["T2", n], ["commutator", -ell - m - n - m * n]],
        }
    )


@main.command()
@click.option("--dim", default=2, show_default=True, type=click.IntRange(1, 4))
@click.option("--order", default=3, show_default=True, type=click.IntRange(0, 3))
@click.option("--reps", default=20000, show_default=True, type=click.IntRange(1))
def bench(dim, order, reps):
    """Time `Jet * Jet` on two fixed dense jets of the given dim and order."""
    k = np.arange(1, len(monomials(dim, order)) + 1)
    a, b = (Jet(dim, order, np.exp(1j * turn * k) / k) for turn in (1.0, 2.0))
    start = time.perf_counter()
    for _ in range(reps):
        a * b
    seconds = time.perf_counter() - start
    result = {
        "dim": dim,
        "order": order,
        "reps": reps,
        "terms": int(len(_mul_table(dim, order)[0])),
        "seconds": {"pure": seconds},
        "active_backend": BACKEND,
    }
    _emit(result)


if __name__ == "__main__":
    run()
