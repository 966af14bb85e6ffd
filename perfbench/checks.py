"""Output checks, written apart from the program and run outside timed operations.

Each check returns a list of problems; an empty list means the output is
right. References come from mpmath or from arithmetic written here, never
from gl3schwarz itself.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import mpmath

SUITE_CHECKS = {
    "group": ["group-algebra"],
    "derivs": ["invariance", "vanishing", "chain-rule", "cocycle", "cocycle-u",
               "second-argument", "jacobian-deformation", "exp-oracle"],
    "pde": ["MT1", "MT1-branch", "MT2-first", "MT2-second", "MT2-picard", "MT2-picard-modular"],
    "f1": ["F1-euler", "F1-pde", "F1-picard-gamma", "F1-k3", "F1-beta"],
    "picard": ["MT3", "MT3-constraint", "J-orbit", "param-table", "sign-tables"],
    "eta": ["P4.1", "P4.2", "P4.3", "P4.4", "P4.5", "P4.6", "eta-ledger", "eta36"],
    "evolution": ["MT4", "MT4-galilean", "MT4-invariance"],
}
EXACT_CHECKS = {"group-algebra", "P4.1", "P4.2", "P4.3", "P4.4", "P4.5", "P4.6", "eta-ledger"}


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    return json.loads(text, parse_constant=_reject_constant)


# ---------------------------------------------------------------------------
# verify reports


def check_report(raw: bytes, code: int, seed: int, suites: list[str]) -> list[str]:
    if code != 0:
        return [f"verify --seed {seed} exited {code}"]
    try:
        rep = strict_json(raw.decode())
    except ValueError as exc:
        return [f"verify --seed {seed}: report is not JSON ({exc})"]
    names = suites or list(SUITE_CHECKS)
    expected = {c for s in names for c in SUITE_CHECKS[s]}
    problems = []
    if rep.get("schema") != "gl3schwarz-report/1" or rep.get("seed") != seed:
        problems.append(f"seed {seed}: wrong schema or seed in report")
    ids = [e["id"] for e in rep.get("checks", [])]
    if sorted(ids) != sorted(expected):
        problems.append(f"seed {seed}: check ids {sorted(ids)} != {sorted(expected)}")
    summary = rep.get("summary", {})
    if summary != {"total": len(expected), "passed": len(expected), "failed": 0}:
        problems.append(f"seed {seed}: summary {summary}")
    for e in rep.get("checks", []):
        r, tol = e["residual"], e["tolerance"]
        if e["id"] in EXACT_CHECKS and (r != 0.0 or tol != 0.0):
            problems.append(f"seed {seed}: exact check {e['id']} residual {r}")
        if not (e["pass"] is True and math.isfinite(r) and r <= tol):
            problems.append(f"seed {seed}: {e['id']} residual {r} tolerance {tol}")
    return problems


# ---------------------------------------------------------------------------
# evaluator commands


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _close(got: complex, want, rel: float) -> bool:
    want = complex(want)
    return abs(got - want) <= rel * max(1.0, abs(want))


def _frac(s: str):
    return mpmath.mpf(Fraction(s).numerator) / Fraction(s).denominator


def f1_reference(params, x, y) -> complex:
    a, b, bp, c = (_frac(p) for p in params)
    with mpmath.workdps(15):
        return complex(mpmath.appellf1(a, b, bp, c, x, y))


def k_reference(ki, kj) -> complex:
    third = mpmath.mpf(1) / 3
    with mpmath.workdps(15):
        f = mpmath.appellf1(third, third, third, 1, ki, kj)
        return complex(mpmath.gamma(third) * mpmath.gamma(2 * third) * f)


def picard_integral_reference(x, y) -> complex:
    """int_0^1 (t (t-1) (t-x) (t-y))^(-1/3) dt, principal branch of each factor."""
    e = -mpmath.mpf(1) / 3

    def integrand(t):
        return (mpmath.power(mpmath.mpc(t), e) * mpmath.power(mpmath.mpc(t - 1), e)
                * mpmath.power(t - x, e) * mpmath.power(t - y, e))

    with mpmath.workdps(20):
        return complex(mpmath.quad(integrand, [0, 1]))


# Q(omega) numbers as (a, b) = a + b*omega with Fraction parts; omega^2 = -1 - omega.
def _emul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0] - p[1] * q[1])


def _eadd(p, q):
    return (p[0] + q[0], p[1] + q[1])


def _mat_mul(a, b):
    zero = (Fraction(0), Fraction(0))
    out = []
    for i in range(3):
        row = []
        for j in range(3):
            acc = zero
            for k in range(3):
                acc = _eadd(acc, _emul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def _unitri(alpha, beta):
    """[[1, alpha, beta], [0, 1, conj(alpha)], [0, 0, 1]]."""
    one, zero = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))
    conj = (alpha[0] - alpha[1], -alpha[1])
    return [[one, alpha, beta], [zero, one, conj], [zero, zero, one]]


def _unitri_inv(m):
    """(I + N)^-1 = I - N + N^2 for strictly upper triangular N."""
    one, zero = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))
    n = [[zero if i >= j else m[i][j] for j in range(3)] for i in range(3)]
    n2 = _mat_mul(n, n)
    return [[_eadd(one if i == j else zero,
                   _eadd((-n[i][j][0], -n[i][j][1]), n2[i][j])) for j in range(3)] for i in range(3)]


def _mat_pow(m, k):
    if k < 0:
        m, k = _unitri_inv(m), -k
    out = _unitri((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
    while k:
        if k & 1:
            out = _mat_mul(out, m)
        m = _mat_mul(m, m)
        k >>= 1
    return out


_OMEGA = (Fraction(0), Fraction(1))
T1 = _unitri((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1)))  # [1, -omega]
T2 = _unitri(_OMEGA, (Fraction(0), Fraction(-1)))  # [omega, -omega]
COMMUTATOR = _mat_mul(_mat_mul(T1, T2), _mat_mul(_unitri_inv(T1), _unitri_inv(T2)))
_GENS = {"T1": T1, "T2": T2, "commutator": COMMUTATOR}


def heis_element(a: int, b: int, q: int):
    """[alpha, beta] with alpha = a + b*omega, beta = (N(alpha) + q sqrt(-3))/2."""
    p = a * a - a * b + b * b
    # sqrt(-3) = 1 + 2 omega
    beta = (Fraction(p + q, 2), Fraction(q))
    return _unitri((Fraction(a), Fraction(b)), beta)


def word_matrix(word):
    out = _mat_pow(T1, 0)
    for name, k in word:
        out = _mat_mul(out, _mat_pow(_GENS[name], int(k)))
    return out


def _modular_form(u1, u2):
    return (u1 - 1) * (u2 - 1) * (u1 - u2)


def _parse_cpair(s: str):
    a, b = s.split(",")
    return complex(a), complex(b)


def _arg(op, flag):
    return op["args"][op["args"].index(flag) + 1]


class EvalChecker:
    """Checks one round of evaluator outputs; mpmath references are cached per input."""

    def __init__(self):
        self._cache = {}

    def _ref(self, key, fn, *args):
        if key not in self._cache:
            self._cache[key] = fn(*args)
        return self._cache[key]

    def check_round(self, plan, outputs) -> tuple[list[int], list[str]]:
        """outputs[i] is (exit code, stdout, stderr) of plan[i].

        Returns the indices of failed operations (non-zero exit) and the
        problems found in the outputs of the others.
        """
        failed, problems, parsed = [], [], []
        for i, (op, (code, out, err)) in enumerate(zip(plan, outputs)):
            parsed.append(None)
            if code != 0:
                failed.append(i)
                continue
            try:
                parsed[i] = strict_json(out)
            except ValueError as exc:
                problems.append(f"{' '.join(op['args'])}: {exc}")
        for i, (op, res) in enumerate(zip(plan, parsed)):
            if res is None:
                continue
            try:
                ok = getattr(self, f"_check_{op['cmd']}")(op, res, plan, parsed)
            except (KeyError, IndexError, TypeError, ValueError, StopIteration) as exc:
                ok = False
                res = {"error": repr(exc)}
            if not ok:
                problems.append(f"{' '.join(op['args'])}: wrong output {json.dumps(res)[:300]}")
        return failed, problems

    def _f1(self, op) -> complex:
        key = ("f1", *op["params"], *op["x"], *op["y"])
        return self._ref(key, f1_reference, op["params"], _c(op["x"]), _c(op["y"]))

    def _check_f1_series(self, op, res, *_):
        return _close(_c(res["series"]), self._f1(op), 1e-9)

    def _check_f1_euler(self, op, res, *_):
        return _close(_c(res["euler"]), self._f1(op), 1e-8)

    def _check_k(self, op, res, *_):
        ki, kj = complex(_arg(op, "--ki")), complex(_arg(op, "--kj"))
        want = self._ref(("k", ki, kj), k_reference, ki, kj)
        return _close(_c(res["value"]), want, 1e-8) and _close(_c(res["substituted"]), want, 1e-8)

    def _check_picard_integral(self, op, res, *_):
        x, y = complex(_arg(op, "--x")), complex(_arg(op, "--y"))
        want = self._ref(("pi", x, y), picard_integral_reference, x, y)
        return _close(_c(res["value"]), want, 1e-8)

    def _check_picard_modular_solve(self, op, res, *_):
        u1, u2 = _parse_cpair(_arg(op, "--u"))
        v2 = complex(_arg(op, "--v2"))
        k = _modular_form(u1, u2)
        roots = [_c(r) for r in res["roots"]]
        return len(roots) == 2 and all(
            abs(_modular_form(r, v2) - k) <= 1e-9 * max(1.0, abs(k)) for r in roots
        )

    def _check_picard_transform(self, op, res, *_):
        a, b, g = _c(res["alpha"]), _c(res["beta"]), _c(res["gamma"])
        t1, t2 = _parse_cpair(_arg(op, "--t"))
        num, den = (b + g) * t1 + a, b * t1 + (a + g)
        w1, w2 = num / den, t1 * num * num * den / t2**5
        return (
            abs((a + b + g) * g - 1) <= 1e-8
            and _close(_c(res["w"][0]), w1, 1e-9)
            and _close(_c(res["w"][1]), w2, 1e-9)
        )

    def _check_picard_j(self, op, res, plan, parsed):
        """J1 is constant on the T and S1 images, J2 on the T and S2 images."""
        base = next(parsed[j] for j, o in enumerate(plan)
                    if o["cmd"] == "picard_j" and o["group"] == op["group"] and o["image"] == "id")
        keys = {"id": ("J1", "J2"), "T": ("J1", "J2"), "S1": ("J1",), "S2": ("J2",)}[op["image"]]
        return all(_close(_c(res[k]), _c(base[k]), 1e-9) for k in keys)

    def _check_deriv(self, op, res, plan, parsed):
        quad = [_c(res[k]) for k in ("brace_x", "brace_y", "bracket_x", "bracket_y")]
        if op["role"] == "affine":
            return max(abs(q) for q in quad) <= 1e-12
        if op["role"] == "map":
            return all(math.isfinite(abs(q)) for q in quad)
        base = next(parsed[j] for j, o in enumerate(plan)
                    if o["cmd"] == "deriv" and o["group"] == op["group"] and o["role"] == "map")
        return all(_close(q, _c(base[k]), 1e-9) for q, k in
                   zip(quad, ("brace_x", "brace_y", "bracket_x", "bracket_y")))

    def _check_heis(self, op, res, *_):
        a, b = (int(v) for v in _arg(op, "--alpha").split(","))
        q = int(_arg(op, "--q"))
        return word_matrix(res["word"]) == heis_element(a, b, q)


def negative_controls(checker: EvalChecker | None = None, plan=None, outputs=None,
                      report: bytes | None = None, seed: int = 0, suites=None) -> list[str]:
    """Perturb right outputs and confirm that the checks reject them."""
    missed = []
    if report is not None:
        rep = json.loads(report)
        entry = rep["checks"][0]
        entry["residual"] = entry["tolerance"] * 2 + 1e-3
        if not check_report(json.dumps(rep).encode(), 0, seed, suites):
            missed.append("a report with a residual over its tolerance was accepted")
    if checker is not None:
        for cmd in ("f1_series", "heis"):
            i = next(j for j, op in enumerate(plan) if op["cmd"] == cmd and outputs[j][0] == 0)
            res = json.loads(outputs[i][1])
            if cmd == "heis":
                res["word"][2][1] += 1
            else:
                res["series"][0] *= 1 + 1e-6
            bad = list(outputs)
            bad[i] = (0, json.dumps(res), "")
            if not checker.check_round(plan, bad)[1]:
                missed.append(f"a perturbed {cmd} output was accepted")
    return missed
