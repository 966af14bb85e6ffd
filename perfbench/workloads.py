"""Inputs of the three workloads, derived from the workload seed alone.

The same seed gives the same report seeds, the same evaluator command list
and the same map files. Nothing here imports the program under test.
"""

from __future__ import annotations

import cmath
import hashlib
import json
from pathlib import Path

import numpy as np

VERIFY_SUITES = {
    "verify-all": [],
    "verify-numeric": ["derivs", "pde", "f1", "picard", "evolution"],
}

# F1 parameter sets (a, b, b', c); every one satisfies Re(c) > Re(a) > 0, so
# both the series and the Euler route accept it.
F1_PARAMS = (
    ("1/3", "1/3", "1/3", "1"),
    ("2/3", "1/3", "1/3", "4/3"),
    ("1/4", "1/4", "1/4", "1"),
)
# |x| of the series points; |y| is 0.8 |x|. The series settles only up to
# about |x| = 0.85 today, and its cost rises about 60x across this range.
# The radii are fixed so that every seed costs the same; the seed picks the
# phases.
SERIES_RADII = (0.1, 0.25, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85)
EULER_RADII = (0.3, 0.4, 0.5, 0.6)

# Lattice elements (alpha = a + b*omega, q) for `heis`. They are fixed
# because its cost grows with the word's exponents; each satisfies the
# lattice parity condition q - a - b - ab even.
HEIS_ELEMENTS = ((2, 1, 3), (-4, 3, 9), (5, -2, -11))

# Commands whose operation time decides op_s.p50 are the cheap ones (below
# about 1 ms): picard j, modular-solve, transform, k and f1 --method euler.
COMMANDS = (
    "f1_series",
    "f1_euler",
    "deriv",
    "picard_j",
    "picard_modular_solve",
    "picard_transform",
    "picard_integral",
    "k",
    "heis",
)


def sub_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


# Report seeds for which `verify` runs to its end with every check passed,
# screened with full reports over seeds 1-26. Two faults make some seeds
# unusable as steady operations (CHANGES.md, FOUND lines): seed 6 fails
# MT3-constraint by roundoff, and for a few seeds (35, 1877093852) a point
# sampled by MT2-first or MT2-second needs more than the series' 10,000
# terms, so `verify` dies with a RuntimeError.
REPORT_SEEDS = (1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17)


def verify_seed(seed: int, op_index: int) -> int:
    """Report seed of the op_index-th report: each seed is used twice in a row."""
    start = sub_seed(seed, "verify")
    return REPORT_SEEDS[(start + op_index // 2) % len(REPORT_SEEDS)]


def cstr(z: complex) -> str:
    """A complex number as the CLI parses it, with every digit kept."""
    z = complex(z)
    return f"{z.real!r}{z.imag:+.17g}j"


def pair(a, b) -> str:
    return f"{cstr(a)},{cstr(b)}"


def _phase(rng) -> complex:
    return cmath.exp(1j * rng.uniform(-np.pi, np.pi))


def _off_axis(rng, radius: float) -> complex:
    """A modulus of the given size at least 0.3 rad off the real axis."""
    theta = rng.uniform(0.3, np.pi - 0.3) * (1 if rng.uniform() < 0.5 else -1)
    return radius * cmath.exp(1j * theta)


def _moduli(rng) -> tuple[complex, complex]:
    """A pair off {0, 1} and apart from each other by at least 0.3."""
    while True:
        u1 = complex(*rng.uniform(-2.5, 2.5, 2))
        u2 = complex(*rng.uniform(-2.5, 2.5, 2))
        if min(abs(u1), abs(u2), abs(u1 - 1), abs(u2 - 1), abs(u1 - u2)) >= 0.3:
            return u1, u2


def modular_root(u, v2) -> complex:
    """A root v1 of (v1-1)(v2-1)(v1-v2) = (u1-1)(u2-1)(u1-u2), by Newton-polished numpy roots."""
    k = (u[0] - 1) * (u[1] - 1) * (u[0] - u[1])
    coeffs = [v2 - 1, -(1 + v2) * (v2 - 1), v2 * (v2 - 1) - k]
    v1 = complex(np.roots(coeffs)[0])
    for _ in range(3):
        f = (v1 - 1) * (v2 - 1) * (v1 - v2) - k
        df = (v2 - 1) * (2 * v1 - 1 - v2)
        v1 -= f / df
    return v1


def _poly_map(rng) -> dict:
    """A cubic map close to the identity: near the origin its Jacobian is about 1."""
    def coeffs(linear):
        out = {linear: [1.0, 0.0]}
        for key in ("0,0", "2,0", "1,1", "0,2", "3,0", "2,1", "0,3"):
            re, im = rng.uniform(-0.15, 0.15, 2)
            out[key] = [float(re), float(im)]
        return out

    return {"dim": 2, "u1": coeffs("1,0"), "u2": coeffs("0,1")}


def affine_image(spec: dict, a, c) -> dict:
    """The map A u + c, with A a 2x2 complex matrix and c a vector."""
    keys = sorted(set(spec["u1"]) | set(spec["u2"]) | {"0,0"})

    def get(comp, key):
        v = spec[comp].get(key, [0.0, 0.0])
        return complex(v[0], v[1])

    out = {"dim": 2, "u1": {}, "u2": {}}
    for i, comp in enumerate(("u1", "u2")):
        for key in keys:
            z = a[i][0] * get("u1", key) + a[i][1] * get("u2", key)
            if key == "0,0":
                z += c[i]
            out[comp][key] = [z.real, z.imag]
    return out


def _affine_map(rng) -> dict:
    m = rng.uniform(-1, 1, (2, 3)) + 1j * rng.uniform(-1, 1, (2, 3))
    m[0, 1] += 2.0  # keeps the linear part invertible
    m[1, 2] += 2.0
    return {
        "dim": 2,
        "u1": {k: [m[0, i].real, m[0, i].imag] for i, k in enumerate(("0,0", "1,0", "0,1"))},
        "u2": {k: [m[1, i].real, m[1, i].imag] for i, k in enumerate(("0,0", "1,0", "0,1"))},
    }


def eval_batch(seed: int, map_dir: Path) -> list[dict]:
    """One round of evaluator commands; map files for `deriv` go to map_dir.

    Each entry has `cmd` (a name from COMMANDS), `args` (the CLI arguments)
    and the facts the checker needs. 30 of the 49 commands are cheap.
    """
    rng = np.random.default_rng(sub_seed(seed, "eval"))
    ops = []

    def add(cmd, args, **facts):
        ops.append({"cmd": cmd, "args": [str(a) for a in args], **facts})

    for i, r in enumerate(SERIES_RADII):
        p = F1_PARAMS[i % len(F1_PARAMS)]
        x, y = r * _phase(rng), 0.8 * r * _phase(rng)
        add("f1_series", ["f1", "--a", p[0], "--b", p[1], "--bp", p[2], "--c", p[3],
                          "--x", cstr(x), "--y", cstr(y)], params=p, x=[x.real, x.imag], y=[y.real, y.imag])
    for i, r in enumerate(EULER_RADII):
        p = F1_PARAMS[i % len(F1_PARAMS)]
        x, y = r * _phase(rng), r * _phase(rng)
        add("f1_euler", ["f1", "--a", p[0], "--b", p[1], "--bp", p[2], "--c", p[3],
                         "--x", cstr(x), "--y", cstr(y), "--method", "euler"],
            params=p, x=[x.real, x.imag], y=[y.real, y.imag])

    map_dir.mkdir(parents=True, exist_ok=True)
    for i in range(2):
        spec = _poly_map(rng)
        a = 2 * np.eye(2) + 0.5 * (rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2)))
        c = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
        at = pair(*(complex(*rng.uniform(-0.2, 0.2, 2)) for _ in range(2)))
        for role, body in (("map", spec), ("affine_image", affine_image(spec, a, c)),
                           ("affine", _affine_map(rng))):
            path = map_dir / f"map{i}-{role}.json"
            path.write_text(json.dumps(body, sort_keys=True))
            add("deriv", ["deriv", "--map", str(path), "--at", at], group=i, role=role)

    for i in range(3):
        l1, l2 = _moduli(rng)
        images = {
            "id": (l1, l2),
            "T": (1 - l1, 1 - l2),
            "S1": (l1 / l2, 1 / l2),
            "S2": (1 / l1, l2 / l1),
        }
        for name, (a, b) in images.items():
            add("picard_j", ["picard", "j", "--l", pair(a, b)], group=i, image=name)

    for _ in range(6):
        u, (v2, _) = _moduli(rng), _moduli(rng)
        add("picard_modular_solve", ["picard", "modular-solve", "--u", pair(*u), "--v2", cstr(v2)])
    for _ in range(4):
        while True:
            u, (v2, _) = _moduli(rng), _moduli(rng)
            v1 = modular_root(u, v2)
            if min(abs(v1), abs(v1 - 1), abs(v1 - v2)) >= 0.3:
                break
        t = complex(*rng.uniform(0.2, 0.9, 2)), complex(*rng.uniform(0.8, 1.5, 2))
        add("picard_transform", ["picard", "transform", "--u", pair(*u), "--v", pair(v1, v2),
                                 "--t", pair(*t)])
    for _ in range(2):
        add("picard_integral", ["picard", "integral", "--x", cstr(_off_axis(rng, 2.0)),
                                "--y", cstr(_off_axis(rng, 3.0))])
    for _ in range(4):
        ki, kj = 0.45 * _phase(rng) * rng.uniform(0.2, 1), 0.45 * _phase(rng) * rng.uniform(0.2, 1)
        add("k", ["k", "--ki", cstr(ki), "--kj", cstr(kj)])
    for a, b, q in HEIS_ELEMENTS:
        add("heis", ["heis", "--alpha", f"{a},{b}", "--q", q])
    return ops
