"""Seeded verification suites with deterministic, schema-versioned reports.

Every identity the package implements is re-checked here as a named check
with a fixed tolerance and sample budget.  All randomness derives from one
64-bit seed: each check owns a SHA-256-split subseed, which seeds its own
stdlib Mersenne Twister (`random.Random`), so reports are byte-identical for
identical (suites, seed, samples, tolerance) inputs and suites can run in any
order or in parallel without changing the output.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .appell import (
    F1Params,
    f1_euler,
    f1_pde_residual,
    f1_series,
    k_integral,
    picard_f1_identity_rhs,
    picard_integral,
)
from .derivs import (
    EXP_MIN_DET,
    MapJet2,
    chain_rule_rhs,
    compose_maps,
    deriv_quad,
    exp_solution_map,
    exp_system_oracle,
    exponent_rows,
    extended_transport,
    jacobian_deformation,
    lft_map,
    second_arg_transform,
    transport_matrix,
    transported_pair,
)
from .evolution import (
    EvoFields,
    consistency_residual,
    evo_quotients,
    galilean_covariance_check,
    mt4_residuals,
)
from .jets import Jet, _wrap, monomials
from .lft import (
    DECOMPOSITION_WORDS,
    OMEGA,
    EisMatrix,
    act,
    denominator,
    generators,
    jacobian_factor,
    word_product,
)
from .pde_verify import (
    PICARD,
    PICARD_MODULAR,
    ParamTriple,
    _modulus,
    _pole_gap,
    mt1_branch_residuals,
    mt1_residuals,
    mt1_relative_residual,
    mt2_field_recovery_gap,
    mt2_solution_residuals,
    picard_modular_form_residuals,
)
from .picard import (
    corollary52_gaps,
    f_sign_relations,
    j_invariants,
    modular_solve,
    p_transform_relations,
    param_table_check,
    pullback_gaps,
    s3_orbit,
    transform_abg,
)
from .worst import worst_of

SCHEMA = "gl3schwarz-report/1"
TOL_ENV = "GL3SCHWARZ_TOL"

_GEN_NAMES = ("T1", "T2", "S", "U1", "g4", "g5")
_LEDGER_EXPECTED = {
    "eta3(g1)": Fraction(7, 27),
    "eta1(g1)": Fraction(-5, 27),
    "eta3(g2)": Fraction(1, 27),
    "eta1(g2)": Fraction(-23, 27),
    "eta1(g3)": Fraction(26, 27),
    "eta4(g4)": Fraction(19, 27),
    "eta1(T1)": Fraction(2, 9),
    "eta(U1)": Fraction(13, 54),
    "eta(U2)": Fraction(2, 27),
}


try:  # the interpreter's own SHA-256: hashlib would load OpenSSL for it
    from _sha2 import sha256  # CPython 3.12 on
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


def split_seed(seed: int, label: str) -> int:
    """Counted splitting: an independent 64-bit stream id per check."""
    digest = sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class _Draws:
    """The draws the runners make, from one stdlib Mersenne Twister.

    A double is (u64 >> 11) 2^-53, u64 read little-endian from randbytes: the
    words of getrandbits(64) calls, so n numbers drawn at once equal n drawn
    one by one, and a draw of n numbers is the first n of any longer draw.
    """

    __slots__ = ("generator",)

    def __init__(self, generator: random.Random):
        self.generator = generator

    def random(self, size=()):
        """Doubles in [0, 1) of shape size."""
        words = np.frombuffer(self.generator.randbytes(8 * int(np.prod(size))), "<u8")
        return ((words >> 11) * 2.0**-53).reshape(size)

    def uniform(self, low, high, size=()):
        return _scaled(self.random(size), low, high)


def _rng(seed: int, label: str):
    sub = split_seed(seed, label)
    return _Draws(random.Random(sub)), sub


def _scaled(u, low, high):
    """Unit draws u as numbers from low to high (per column, for arrays of bounds)."""
    return low + (high - low) * u


def kept(rng, n, width, candidates):
    """The inputs of the first n accepted candidate rows, as a loop drawing sample after sample keeps them.

    Each round draws one row of width unit draws per missing sample, so none
    draws past the n-th kept row, and the first n kept rows of a longer draw
    are these.  candidates(rows) returns the rows' acceptance and
    a tuple of arrays built from them.  The acceptance is a mask (rows,), or
    (rows, C) with one column per choice that cycles by sample: the row that
    would fill sample k is kept when its column k mod C holds.  100
    rejections in a row are a RuntimeError.
    """
    out, have, misses = None, 0, 0
    while have < n:
        rows = rng.random((n - have, width))
        ok, inputs = candidates(rows)
        take = []
        for i, columns in enumerate(ok.reshape(len(rows), -1).tolist()):
            if columns[(have + len(take)) % len(columns)]:
                take.append(i)
                misses = 0
            else:
                misses += 1
                if misses == 100:
                    raise RuntimeError("100 candidate draws in a row were rejected")
        if out is None:
            out = tuple(np.empty((n, *x.shape[1:]), x.dtype) for x in inputs)
        for o, x in zip(out, inputs):
            o[have : have + len(take)] = x[take]
        have += len(take)
    return out


# ---------------------------------------------------------------------------
# candidates for kept (margins match the frozen test suites)


def _rows(width, candidates):
    """The draw of n samples, each the first accepted candidate of width unit draws."""
    return lambda rng, n: kept(rng, n, width, candidates)


def _cycled(choices, draw):
    """draw, after the choice of each sample: sample k takes choices[k mod len(choices)]."""
    return lambda rng, n: (choices[np.arange(n) % len(choices)], *draw(rng, n))


def _safe_pairs(rows):
    # the box |Re|, |Im| < 2, 0.1 off the poles
    x, y = _scaled(rows, -2.0, 2.0).view(np.complex128).T
    return _pole_gap(x, y) >= 0.1, (x, y)


_draw_pairs = _rows(4, _safe_pairs)


def _mt2_draw(region):
    # numpy builds each number as Python's complex arithmetic does: a product
    # by an imaginary constant is exact in both
    def candidates(rows):
        a1, b1, a2, b2 = _scaled(rows, -0.9, 0.9).T
        if region == "first":
            v1, v2 = (0.85 * a + 0.85j * (0.4 * b) for a, b in ((a1, b1), (a2, b2)))
            ok = np.maximum(_modulus(v1), _modulus(v2)) < 0.9
        elif region == "second":
            v1, v2 = (1 - 0.4 * _modulus(a + 0.4j * b) - 0.2 + 0.2j * b for a, b in ((a1, b1), (a2, b2)))
            ok = np.maximum(_modulus(1 - v1), _modulus(1 - v2)) < 0.9
        else:  # lens: both series branches converge here
            v1, v2 = (0.5 + 0.2 * a + 0.12j * b for a, b in ((a1, b1), (a2, b2)))
            ok = np.maximum.reduce([_modulus(v) for v in (v1, v2, 1 - v1, 1 - v2)]) < 0.72
        return ok & (_pole_gap(v1, v2) >= 0.1), (v1, v2)

    return _rows(4, candidates)


def _eta_domain_points(rows):
    z1, z2 = _scaled(rows, np.array((0.8, -1, -0.7, -0.7)), np.array((2.2, 1, 0.7, 0.7))).view(np.complex128).T
    return _modulus(z2) >= 0.1, (z1, z2)


def _moduli_instances(rows):
    """Moduli pairs (u, v) satisfying the modular equation, all roots safe.

    u is 0.1 off the poles, and v1 is the first root of modular_solve, on
    Python numbers, 1e-3 off 0, 1 and v2.
    """
    u1, u2, v2 = _scaled(rows, -2.0, 2.0).view(np.complex128).T
    v1 = np.full(len(rows), np.nan, np.complex128)
    for i in np.flatnonzero(_pole_gap(u1, u2) >= 0.1).tolist():
        a, b, c = u1[i].item(), u2[i].item(), v2[i].item()
        try:
            roots = modular_solve((a, b), c)
        except ValueError:
            continue
        v1[i] = next((r for r in roots if min(abs(r), abs(r - 1), abs(r - c)) > 1e-3), np.nan)
    return ~np.isnan(v1), (u1, u2, v1, v2)


_draw_moduli = _rows(6, _moduli_instances)  # rows (u1, u2, v1, v2)


# the map draw: order-3 jets in two variables with coefficients in a disc of
# radius MAP_RADIUS around the identity map, and |Jacobian| >= MAP_MIN_JAC at
# the base point; a candidate map takes MAP_WIDTH unit draws
MAP_ORDER = 3
MAP_RADIUS = 0.3
MAP_MIN_JAC = 0.1
MAP_WIDTH = 4 * len(monomials(2, MAP_ORDER))


def map_candidates(rows):
    """Candidate maps: |Jacobian| >= MAP_MIN_JAC, and (u1's coefficients, u2's).

    Per component and monomial of a row a modulus draw, then a phase draw.
    """
    monos = monomials(2, MAP_ORDER)
    ix, iy = monos.index((1, 0)), monos.index((0, 1))
    u = rows.reshape(len(rows), 2, len(monos), 2)
    c = MAP_RADIUS * np.sqrt(u[..., 0]) * np.exp(1j * (2 * np.pi * u[..., 1]))
    c[:, (0, 1), (ix, iy)] += 1.0
    ok = abs(c[:, 0, ix] * c[:, 1, iy] - c[:, 1, ix] * c[:, 0, iy]) >= MAP_MIN_JAC
    return ok, (c[:, 0], c[:, 1])


def coefficient_map(c1, c2) -> MapJet2:
    """The map of order-MAP_ORDER jets in two variables with coefficients c1 and c2 (stacked on leading axes)."""
    return MapJet2(_wrap(2, MAP_ORDER, c1), _wrap(2, MAP_ORDER, c2))


# ---------------------------------------------------------------------------
# check runners.  A drawing check's draw(rng, n) makes all the draws and
# rejections of n samples and returns their inputs: arrays with one row per
# residual first, each choice made per sample (generator, parameter row,
# coefficient set, field family, matrix) among them.  A draw of n samples is
# the first n samples of any longer draw.  A map is drawn as two coefficient
# arrays, u1's and u2's, which evaluate wraps with coefficient_map.  Every
# rejection goes through kept: candidate rows of unit draws in, each tested
# once, accepted rows out in the order of a loop over samples.  A choice that
# cycles by sample is _cycled's: sample k takes choice k mod C, and a test
# under such a choice (generator, MT4 matrix) gives one acceptance column per
# choice, of which kept reads column k mod C.  evaluate(*inputs) returns one
# residual per row and never touches the rng, and row k replays as
# evaluate(*(x[k:k + 1] for x in inputs)).  _reduce draws and evaluates a
# chunk of at most CHUNK samples at a time.  A layer's refusal fails the
# check, with the layer's message.  The exact checks and F1-beta draw nothing
# and yield their residuals.


def _exact(ok: bool) -> float:
    """Residual of an exact comparison: 0 when it holds, 1 when it fails."""
    return 0.0 if ok else 1.0


def _check_group_algebra(rng, n):
    g = generators()
    yield _exact(word_product((("T1", 1), ("T2", 1), ("T1", -1), ("T2", -1))) == g["commutator"])
    yield _exact((g["S"] * g["T1"]) ** 4 == EisMatrix.identity().scale(OMEGA))
    yield _exact((g["S"] * g["T2"]) ** 4 == EisMatrix.identity().scale(OMEGA))
    form = g["J"]
    for name in sorted(g):
        if name != "J":
            m = g[name]
            yield _exact(m.conj_transpose() * form * m == form)
    for name, w in DECOMPOSITION_WORDS.items():
        yield _exact(word_product(w) == g[name])


_GEN_MATS = np.stack([generators()[name].to_numpy() for name in _GEN_NAMES], -1)


def _scaled_gap(gap, reference):
    """Per sample k, the largest |gap[k]| over max(1, the largest |reference[k]|)."""
    return np.abs(gap).reshape(len(gap), -1).max(-1) / np.maximum(1.0, np.abs(reference).max(-1))


# the choices of the checks that cycle through the generators: their tests
# take one acceptance column per generator, and sample k acts by generator k mod 6
_GENS = np.arange(_GEN_MATS.shape[-1])


def _denominators(mats, z1, z2):
    """|denominator| of each point under each matrix of the stack mats (3, 3, C), one column per matrix."""
    return _modulus(denominator(mats, (z1[:, None], z2[:, None])))


def _invariance_maps(rows):
    # a map whose denominator at its base point is at least 0.2
    good, (c1, c2) = map_candidates(rows)
    return good[:, None] & (_denominators(_GEN_MATS, c1[:, 0], c2[:, 0]) >= 0.2), (c1, c2)


def _check_invariance(gen, c1, c2):
    u = coefficient_map(c1, c2)
    base = deriv_quad(u).value
    moved = deriv_quad(MapJet2(*act(_GEN_MATS[..., gen].copy(), (u.u1, u.u2)))).value
    return _scaled_gap(moved - base, base)


def _lft_points(rows):
    # a point whose denominator is above 0.2
    low, high = np.array((0.5, -0.5, -0.5, -0.5)), np.array((1.5, 0.5, 0.5, 0.5))
    z1, z2 = _scaled(rows, low, high).view(np.complex128).T
    return _denominators(_GEN_MATS, z1, z2) > 0.2, (z1, z2)


def _lft_points_and_maps(rows):
    # a point as _lft_points draws it, then a map
    ok, z = _lft_points(rows[:, :4])
    good, c = map_candidates(rows[:, 4:])
    return ok & good[:, None], (*z, *c)


def _check_vanishing(gen, z1, z2):
    # every coefficient of the order-1 quad jet, not its values alone
    quad = deriv_quad(lft_map(_GEN_MATS[..., gen].copy(), (z1, z2)))
    return np.abs(quad._c).max((-2, -1))


def _map_draws(per_sample):
    """The draw of n samples of per_sample maps each: per map, u1's coefficients and u2's."""

    def draw(rng, n):
        c1, c2 = kept(rng, per_sample * n, MAP_WIDTH, map_candidates)
        return tuple(c[k::per_sample] for k in range(per_sample) for c in (c1, c2))

    return draw


def _check_chain_rule(w1, w2, u1, u2):
    w, u = coefficient_map(w1, w2), coefficient_map(u1, u2)
    lhs = deriv_quad(compose_maps(u, w)).value
    return np.abs(lhs - chain_rule_rhs(deriv_quad(u).value, w)).max(-1)


def _check_cocycle(w1, w2, u1, u2):
    w, u = coefficient_map(w1, w2), coefficient_map(u1, u2)
    lhs = np.einsum("...ij,...jk->...ik", transport_matrix(w), transport_matrix(u))
    return np.abs(lhs - transport_matrix(compose_maps(u, w))).max((-2, -1))


def _check_cocycle_u(c, w1, w2, u1, u2):
    w, u = coefficient_map(w1, w2), coefficient_map(u1, u2)
    lhs = np.einsum("...ij,...jk->...ik", extended_transport(w, c), extended_transport(u, c))
    return np.abs(lhs - extended_transport(compose_maps(u, w), c)).max((-2, -1))


def _check_second_argument(gen, z1, z2, c1, c2):
    u = coefficient_map(c1, c2)
    m = _GEN_MATS[..., gen].copy()
    lhs = deriv_quad(compose_maps(u, lft_map(m, (z1, z2)))).value
    return np.abs(lhs - second_arg_transform(deriv_quad(u).value, m, (z1, z2))).max(-1)


def _check_jacobian_deformation(z1, z2, f1, _, __, f2):
    # the fields are u1 of the second map and u2 of the third
    zm = coefficient_map(z1, z2)
    f1h, f2h = (_wrap(2, MAP_ORDER, f) for f in (f1, f2))
    lhs = jacobian_deformation(f1h, f2h, zm)
    return abs(lhs - MapJet2(*transported_pair(f1h, f2h, zm)).jacobian_value() / zm.jacobian_value())


def _exp_pairs(rows):
    # three exponent pairs: the six real parts, then the six imaginary ones
    u = _scaled(rows, -1, 1)
    pairs = (u[:, :6] + 1j * u[:, 6:]).reshape(-1, 3, 2)
    return abs(exponent_rows(pairs)[3]) >= EXP_MIN_DET, (pairs,)


def _check_exp_oracle(pairs):
    # the family's quad is constant: its whole order-1 jet against the prediction, relative to its size
    predicted = exp_system_oracle(pairs)[3]
    quad = deriv_quad(exp_solution_map(pairs, base=(0.05, -0.03)))
    return _scaled_gap((quad - Jet.constant(quad.dim, quad.order, predicted))._c, predicted)


def _check_mt1(c1, c2):
    return mt1_relative_residual(coefficient_map(c1, c2))


def _check_mt1_branch(c1, c2):
    m = coefficient_map(c1, c2)
    r0 = mt1_residuals(m)
    parts = []
    for branch in (1, 2):
        rb, cube = mt1_branch_residuals(m, branch)
        phase = cmath.exp(2j * cmath.pi * branch / 3)
        parts += [abs(b - phase * a) for a, b in zip(r0, rb)] + [cube]
    return worst_of(parts)


def _mt2_branch_check(which):
    def evaluate(v1, v2):
        parts = []
        for p in (PICARD, PICARD_MODULAR):
            wr, zr = mt2_solution_residuals(p, (v1, v2), which)
            parts += [abs(r) for r in (*wr, *zr)]
        return worst_of(parts)

    return evaluate


def _check_mt2_picard(v1, v2):
    return worst_of(mt2_field_recovery_gap(p, (v1, v2)) for p in (PICARD, PICARD_MODULAR))


_MT2_COEFF_SETS = np.array(((1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (2.0, -0.7 + 0.3j)))


def _check_mt2_picard_modular(coeffs, v1, v2):
    return worst_of(abs(r) for r in picard_modular_form_residuals((v1, v2), coeffs.T))


def _per_choice(choice, residuals):
    """One residual per sample: residuals(c, k) gives those of the samples k that chose c."""
    out = np.empty(len(choice))
    for c in sorted(set(choice.tolist())):  # np.unique would import numpy.ma, 1.1 MB
        k = choice == c
        out[k] = residuals(c, k)
    return out


_F1_CHECK_PARAMS = tuple(
    F1Params(*p) for p in (("1/3", "1/3", "1/3", 1), ("1/4", "1/4", "1/4", 1), ("2/3", "1/3", "1/3", "4/3"))
)


def _draw_f1_points(rng, n):
    """n points (x, y), each number from two unit draws (real, imaginary) in [-0.45, 0.45), as two arrays."""
    return tuple(rng.uniform(-0.45, 0.45, (n, 4)).view(np.complex128).T)


_draw_f1_rows = _cycled(np.arange(len(_F1_CHECK_PARAMS)), _draw_f1_points)  # row k mod 3 of _F1_CHECK_PARAMS


def _check_f1_euler(row, x, y):
    p = _F1_CHECK_PARAMS
    return _per_choice(row, lambda r, k: abs(f1_series(p[r], x[k], y[k]) - f1_euler(p[r], x[k], y[k])))


def _check_f1_pde(row, x, y):
    return _per_choice(row, lambda r, k: worst_of(map(abs, f1_pde_residual(_F1_CHECK_PARAMS[r], x[k], y[k]))))


def _gamma_moduli(rows):
    # two moduli (x, y) of four draws each, off the unit disc for the reciprocal-
    # argument series: with draw 0 below 0.4 a real value > 1 (draw 1), else a
    # nonreal one off the cut (draw 1 its sign, draws 2 and 3 its parts)
    u = rows.reshape(len(rows), 2, 4)
    real = u[..., 0] < 0.4
    sign = np.where(u[..., 1] < 0.5, 1.0, -1.0)
    nonreal = _scaled(u[..., 2], -6, 6) + 1j * sign * _scaled(u[..., 3], 0.5, 3.5)
    x = np.where(real, _scaled(u[..., 1], 1.5, 7), nonreal)
    return (real | (_modulus(x) >= 1.5)).all(-1), tuple(x.T)


def _check_f1_picard_gamma(x, y):
    # cubed comparison: off the reals the principal branch drifts by a cube
    # root of unity, and cubing both sides removes it
    lhs = picard_integral(x, y) ** 3
    rhs = picard_f1_identity_rhs(x, y) ** 3
    return abs(lhs - rhs) / abs(rhs)


def _check_f1_k3(ki, kj):
    pref = math.gamma(1 / 3) * math.gamma(2 / 3)
    return abs(k_integral(ki, kj) - pref * f1_series(F1Params("1/3", "1/3", "1/3", 1), ki, kj))


def _check_f1_beta(rng, n):
    yield abs(k_integral(0.0, 0.0) - 2 * math.pi / math.sqrt(3))


def _mt3_instances(rows):
    # a moduli instance (u, v) as MT3-constraint draws it, then ten points
    # (t1, t2) of four draws each, every t1 0.05 off the instance's zeros
    # 0, 1, 1/u1 and 1/u2
    ok, (u1, u2, v1, v2) = _moduli_instances(rows[:, :6])
    r1, a1, r2, a2 = rows[:, 6:].reshape(len(rows), 10, 4).transpose(2, 0, 1)
    t1, t2 = (_scaled(r, 0.3, 2) * np.exp(1j * _scaled(a, 0, 2 * math.pi)) for r, a in ((r1, a1), (r2, a2)))
    zeros = np.stack((np.zeros_like(u1), np.ones_like(u1), 1 / u1, 1 / u2), -1)
    gap = _modulus(t1[..., None] - zeros[:, None]).min(-1)
    return ok & (gap >= 0.05).all(-1), (u1, u2, v1, v2, t1, t2)


def _draw_mt3(rng, n):
    # a row per point, with its instance's moduli
    u1, u2, v1, v2, t1, t2 = kept(rng, n, 46, _mt3_instances)
    return (*(np.repeat(u, 10) for u in (u1, u2, v1, v2)), t1.ravel(), t2.ravel())


def _check_mt3(u1, u2, v1, v2, t1, t2):
    # the same points in root coordinates, by Python's complex power
    x = tuple(np.array([z ** (1 / 3) for z in t.tolist()], np.complex128) for t in (t1, t2))
    return worst_of((pullback_gaps((u1, u2), (v1, v2), (t1, t2)), corollary52_gaps((u1, u2), (v1, v2), x)))


def _check_mt3_constraint(u1, u2, v1, v2):
    return abs(transform_abg((u1, u2), (v1, v2)).constraint_residual())


def _check_j_orbit(l1, l2):
    fam1 = ("T", "S1", "S1T", "TS1", "S1TS1")
    fam2 = ("T", "S2", "S2T", "TS2", "S2TS2")
    j1, j2 = j_invariants(l1, l2)
    parts = [abs(j_invariants(*s3_orbit(name, l1, l2))[0] - j1) / abs(j1) for name in fam1]
    parts += [abs(j_invariants(*s3_orbit(name, l1, l2))[1] - j2) / abs(j2) for name in fam2]
    return worst_of(parts)


_PARAM_ROWS = np.arange(1, 6)  # sample k takes table row k mod 5 + 1


def _check_param_table(row, x, y):
    p = ParamTriple(0.3 + 0.1j, -0.8, 1.1)
    return _per_choice(row, lambda r, k: param_table_check(r, p, (x[k], y[k])))


def _check_sign_tables(x, y):
    return worst_of((f_sign_relations(x, y), p_transform_relations(0.3 + 0.1j, -0.8, 1.1, x, y)))


# The eta checks import the exact eta layer when they run, so a report
# without them does not build its tables.
def _p4_runner(section):
    def run(rng, n):
        from .eta import eta_variant_identities

        for ok in eta_variant_identities()[section].values():
            yield _exact(ok)

    return run


def _check_eta_ledger(rng, n):
    from .eta import ledger_multipliers

    got = ledger_multipliers()
    for key in sorted(got.keys() | _LEDGER_EXPECTED.keys()):
        yield _exact(got.get(key) == _LEDGER_EXPECTED.get(key))


def _check_eta36(z1, z2):
    from .eta import eta36_transform_check, s_invariant_map, translation_invariant_map

    cell = word_product((("commutator", 3),))
    return worst_of(
        (
            eta36_transform_check(generators()["S"], s_invariant_map, (z1, z2)),
            eta36_transform_check(cell, translation_invariant_map, (z1, z2)),
        )
    )


def _draw_mt4_numbers(rng, n):
    """Four numbers per sample, each from two unit draws (real, imaginary) in [-1, 1); a shear takes the first three."""
    return (rng.uniform(-1, 1, (n, 8)).view(np.complex128),)


_MT4_SHEAR = np.array((False, True))  # sample k is a constant field when k is even, a shear when k is odd


def _check_mt4(shear, c):
    def worst(is_shear, k):
        f = EvoFields.shear(*c[k, :3].T) if is_shear else EvoFields.constant(*c[k].T)
        r1, r2 = mt4_residuals(f)
        return worst_of((abs(r1), abs(r2)))

    return _per_choice(shear, worst)


def _draw_mt4_galilean(rng, n):
    # per sample the unit draws of order-3 fields (two per field and
    # monomial), then those of rng.uniform(-1.5, 1.5, 4) for the shift, all
    # from one block
    return (rng.random((n, 8 * len(monomials(4, 3)) + 4)),)


def _check_mt4_galilean(u):
    f = _evo_fields(u[:, :-4])
    shift = _scaled(u[:, -4:], -1.5, 1.5)
    # the mixed-partial identity holds for any order >= 2 u: f.v1 draws nothing
    return worst_of((galilean_covariance_check(f, *shift.T), consistency_residual(f, f.v1)))


_MT4_MATS = np.stack(
    ([[2, 1, 0], [1, 1, 1], [1, 0, 3]], [[1, 0, 1j], [0.5, 2, 0], [0, 0.3, 2]]), -1, dtype=np.complex128
)


def _evo_fields(u):
    """Dense order-3 fields in (x, y, t1, t2) of unit rows u (..., 8 m), m the number of monomials.

    Per field and monomial, the real and the imaginary part are u - 0.5;
    leading axes of u give stacked fields.  Such fields are generically not
    a solution.
    """
    coeffs = (u - 0.5).reshape(*u.shape[:-1], 4, -1, 2).view(np.complex128)[..., 0]
    return EvoFields(*(Jet(4, 3, coeffs[..., k, :]) for k in range(4)))


def _evo_pairs(u):
    """The pairs (u1, u2) of order-3 jets in (x, y, t1, t2) of unit rows u (n, 32), as one map.

    Per pair the base point in [-0.8, 0.8)^4, then the seven coefficients of
    u1's polynomial and the seven of u2's, each from two unit draws (real,
    imaginary) in [-0.6, 0.6): u_i = x_i + 0.3 (c0 + c1 x + c2 y + c3 t1 +
    c4 t2 + c5 x y + c6 y t2).
    """
    xs = Jet.variables(4, 3, tuple(_scaled(u[:, :4], -0.8, 0.8).T))
    c = _scaled(u[:, 4:], -0.6, 0.6).view(np.complex128).T

    def poly(c):
        out = Jet.constant(4, 3, c[0])
        for v, ck in zip(xs, c[1:5]):
            out = out + ck * v
        return out + c[5] * xs[0] * xs[1] + c[6] * xs[1] * xs[3]

    return MapJet2(xs[0] + 0.3 * poly(c[:7]), xs[1] + 0.3 * poly(c[7:]))


# MT4-invariance's choices: sample k takes matrix k mod 2, and its test one column per matrix
_MT4S = np.arange(_MT4_MATS.shape[-1])


def _mt4_pairs(rows):
    # per matrix, its denominator and Jacobian factor at the base point are
    # drawn values, as is the pair's spatial Jacobian: all rejected at draw
    # time.  Only the unit rows stay: evaluate builds the jets again
    pairs = _evo_pairs(rows)
    z1, z2, jac = pairs.u1.value, pairs.u2.value, pairs.jacobian_value()[:, None]
    ok = (_denominators(_MT4_MATS, z1, z2) >= 1e-10) & (_modulus(jac) >= 1e-14)
    i, j = np.nonzero(ok)
    factor = np.zeros(ok.shape, np.complex128)
    factor[i, j] = jacobian_factor(_MT4_MATS[..., j], (z1[i], z2[i]))
    return ok & (_modulus(factor * jac) >= 1e-14), (rows,)


def _check_mt4_invariance(mat, rows):
    u = _evo_pairs(rows)
    ut = act(_MT4_MATS[..., mat].copy(), (u.u1, u.u2))
    parts = []
    for which in ("t1", "t2"):
        qa, qb = evo_quotients((u.u1, u.u2), which), evo_quotients(ut, which)
        parts += [abs(qa[0] - qb[0]), abs(qa[1] - qb[1])]
    quads = np.abs(deriv_quad(u).value - deriv_quad(MapJet2(*ut)).value)
    return worst_of(parts + [quads.max(-1)])


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class CheckDef:
    id: str
    suite: str
    anchor: str
    tolerance: float  # 0.0 marks an exact (integer/rational arithmetic) check
    samples: int
    run: object  # (rng, samples) -> (worst residual, samples used)


# samples per chunk that a report draws and evaluates: at least 100, so a
# default report takes one chunk per check, and a multiple of 60, the least
# common multiple of the cycle lengths (2, 3, 4, 5, 6), so every chunk
# starts at the first choice of each cycle
CHUNK = 1020


def _reduce(draw, evaluate):
    """The check's run: the worst of its residuals, and their number.

    With evaluate None, draw is a runner that yields the residuals.  Else
    each chunk of at most CHUNK samples is drawn and evaluated in turn; a
    refusal past the first chunk names the residual row where its chunk starts.
    """

    def run(rng, n):
        if evaluate is None:
            residuals = np.fromiter(draw(rng, n), float)
            return worst_of(residuals), residuals.size
        worst, used = [], 0
        for start in range(0, n, CHUNK):
            inputs = draw(rng, min(CHUNK, n - start))
            try:
                residuals = evaluate(*inputs)
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise type(exc)(f"{exc}, in the chunk from sample {used}") if used else exc
            worst.append(worst_of(residuals))
            used += residuals.size
        return worst_of(worst), used

    return run


# (id, suite, anchor, tolerance, samples, draw, evaluate or None for a runner)
_TABLE = (
    ("group-algebra", "group", "generator word and unitarity identities", 0.0, 0, _check_group_algebra, None),
    ("invariance", "derivs", "quad invariance under linear fractional maps", 1e-10, 50, _cycled(_GENS, _rows(MAP_WIDTH, _invariance_maps)), _check_invariance),
    ("vanishing", "derivs", "quad vanishes on linear fractional pairs", 1e-10, 50, _cycled(_GENS, _rows(4, _lft_points)), _check_vanishing),
    ("chain-rule", "derivs", "composition chain rule for the quad", 1e-9, 20, _map_draws(2), _check_chain_rule),
    ("cocycle", "derivs", "transport matrix multiplicativity", 1e-9, 20, _map_draws(2), _check_cocycle),
    ("cocycle-u", "derivs", "extended transport multiplicativity", 1e-9, 20, _cycled(np.array((0.0, 1.0, 2.5)), _map_draws(2)), _check_cocycle_u),
    ("second-argument", "derivs", "base-change transform of the quad", 1e-9, 20, _cycled(_GENS, _rows(4 + MAP_WIDTH, _lft_points_and_maps)), _check_second_argument),
    ("jacobian-deformation", "derivs", "determinant transport of pair fields", 1e-9, 20, _map_draws(3), _check_jacobian_deformation),
    ("exp-oracle", "derivs", "exponential solution family oracle", 1e-10, 10, _rows(12, _exp_pairs), _check_exp_oracle),
    ("MT1", "pde", "cube-root-of-Jacobian linear system", 1e-8, 20, _map_draws(1), _check_mt1),
    ("MT1-branch", "pde", "branch covariance of the residuals", 1e-12, 5, _map_draws(1), _check_mt1_branch),
    ("MT2-first", "pde", "first-branch closed-form solutions", 1e-8, 10, _mt2_draw("first"), _mt2_branch_check("first")),
    ("MT2-second", "pde", "second-branch closed-form solutions", 1e-8, 10, _mt2_draw("second"), _mt2_branch_check("second")),
    ("MT2-picard", "pde", "field recovery from solution gradients", 1e-7, 5, _mt2_draw("lens"), _check_mt2_picard),
    ("MT2-picard-modular", "pde", "power-product form rebuilt from F1", 1e-8, 5, _cycled(_MT2_COEFF_SETS, _mt2_draw("lens")), _check_mt2_picard_modular),
    ("F1-euler", "f1", "double series vs Euler integral", 1e-8, 50, _draw_f1_rows, _check_f1_euler),
    ("F1-pde", "f1", "hypergeometric system residuals", 1e-8, 20, _draw_f1_rows, _check_f1_pde),
    ("F1-picard-gamma", "f1", "period integral Gamma-factor identity", 1e-6, 10, _rows(8, _gamma_moduli), _check_f1_picard_gamma),
    ("F1-k3", "f1", "K-integral as an F1 value", 1e-6, 10, _draw_f1_points, _check_f1_k3),
    ("F1-beta", "f1", "Beta special value 2*pi/sqrt(3)", 1e-10, 1, _check_f1_beta, None),
    ("MT3", "picard", "order-5 pullback identity, cubed form", 1e-10, 10, _draw_mt3, _check_mt3),
    ("MT3-constraint", "picard", "coefficient normalization constraint", 1e-12, 50, _draw_moduli, _check_mt3_constraint),
    ("J-orbit", "picard", "moduli invariants constant on orbits", 1e-10, 50, _draw_pairs, _check_j_orbit),
    ("param-table", "picard", "parameter rows under moduli swaps", 1e-10, 50, _cycled(_PARAM_ROWS, _draw_pairs), _check_param_table),
    ("sign-tables", "picard", "sign and prefactor relations", 1e-12, 100, _draw_pairs, _check_sign_tables),
    ("P4.1", "eta", "variant identities: translations", 0.0, 0, _p4_runner("P4.1"), None),
    ("P4.2", "eta", "variant identities: lattice generators", 0.0, 0, _p4_runner("P4.2"), None),
    ("P4.3", "eta", "variant identities: scaled conjugates", 0.0, 0, _p4_runner("P4.3"), None),
    ("P4.4", "eta", "quotient transformation laws", 0.0, 0, _p4_runner("P4.4"), None),
    ("P4.5", "eta", "quotient translation laws", 0.0, 0, _p4_runner("P4.5"), None),
    ("P4.6", "eta", "quotient cube laws", 0.0, 0, _p4_runner("P4.6"), None),
    ("eta-ledger", "eta", "phase multiplier table as exact rationals", 0.0, 0, _check_eta_ledger, None),
    ("eta36", "eta", "transformation law of the 36th power", 1e-9, 10, _rows(4, _eta_domain_points), _check_eta36),
    ("MT4", "evolution", "field equations on solution families", 1e-12, 10, _cycled(_MT4_SHEAR, _draw_mt4_numbers), _check_mt4),
    ("MT4-galilean", "evolution", "drift covariance on arbitrary fields", 1e-10, 10, _draw_mt4_galilean, _check_mt4_galilean),
    ("MT4-invariance", "evolution", "quotients invariant under the group", 1e-10, 10, _cycled(_MT4S, _rows(32, _mt4_pairs)), _check_mt4_invariance),
)
CHECKS = tuple(CheckDef(*row[:5], _reduce(*row[5:])) for row in _TABLE)

SUITES = {}
for _c in CHECKS:
    SUITES.setdefault(_c.suite, []).append(_c.id)


def _tolerance(value, source: str) -> float:
    """A tolerance override as a float; it must be a finite number >= 0."""
    try:
        tol = float(value)
    except (TypeError, ValueError):
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance {value!r} for {source} must be finite and >= 0")
    return tol


def run_suites(suites=("all",), seed: int = 42, samples=None, tol_overrides=None) -> dict:
    """Run the selected suites and assemble the deterministic report.

    A bad argument is a ValueError before any check runs.  A check whose
    run raises ValueError, ZeroDivisionError or OverflowError fails with
    the message under "error"; the other checks still run.
    """
    names = list(suites) if suites else ["all"]
    if "all" in names:
        chosen = {c.id for c in CHECKS}
    else:
        chosen = set()
        for s in names:
            if s not in SUITES:
                raise ValueError(
                    f"unknown suite {s!r}; available: {', '.join(sorted(SUITES))}, all"
                )
            chosen.update(SUITES[s])

    if samples is not None and int(samples) < 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")
    env_tol = os.environ.get(TOL_ENV)
    env_tol = _tolerance(env_tol, TOL_ENV) if env_tol else None
    overrides = {k: _tolerance(v, k) for k, v in (tol_overrides or {}).items()}
    unknown = set(overrides) - {c.id for c in CHECKS}
    if unknown:
        raise ValueError(f"tolerance override for unknown check(s): {sorted(unknown)}")
    # an exact check's residual is 0 or 1: a tolerance could only let a failure pass
    exact = sorted(c.id for c in CHECKS if c.id in overrides and c.tolerance == 0.0)
    if exact:
        raise ValueError(f"tolerance override for exact check(s): {exact}; their tolerance is 0")

    # Import the eta layer before any check runs: compiled after the numeric
    # checks have grown the heap, it raised a fresh report's peak RSS by 0.9 MB.
    if any(c.suite == "eta" for c in CHECKS if c.id in chosen):
        from . import eta  # noqa: F401

    entries = []
    for c in sorted(CHECKS, key=lambda c: c.id):
        if c.id not in chosen:
            continue
        tol = c.tolerance
        if env_tol is not None and tol > 0:
            tol = env_tol
        if c.id in overrides:
            tol = overrides[c.id]
        n = c.samples
        if samples is not None and c.tolerance > 0:
            n = int(samples)
        rng, sub = _rng(seed, c.id)
        error = {}
        try:
            residual, used = c.run(rng, n)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            # a layer that refuses a drawn point fails this check, and only it
            residual, used, error = math.nan, n, {"error": str(exc)}
        residual = float(residual)
        finite = math.isfinite(residual)
        entries.append(
            {
                "id": c.id,
                "anchor": c.anchor,
                # strict JSON has no NaN or inf: a non-finite residual is null
                "residual": residual if finite else None,
                "tolerance": float(tol),
                "pass": finite and residual <= tol,
                "samples": int(used),
                "seed": sub,
                **error,
            }
        )

    passed = sum(1 for e in entries if e["pass"])
    return {
        "schema": SCHEMA,
        "seed": int(seed),
        "suites": sorted(set(names)),
        "checks": entries,
        "summary": {
            "total": len(entries),
            "passed": passed,
            "failed": len(entries) - passed,
        },
    }


def render_report(report: dict, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = []
    for e in report["checks"]:
        status = "PASS" if e["pass"] else "FAIL"
        residual = "non-finite" if e["residual"] is None else f"{e['residual']:.3e}"
        error = f"  error: {e['error']}" if "error" in e else ""
        lines.append(
            f"{status}  {e['id']:<20} residual {residual}  "
            f"tol {e['tolerance']:.1e}  n={e['samples']}{error}"
        )
    s = report["summary"]
    lines.append(f"{s['passed']}/{s['total']} checks passed (seed {report['seed']})")
    return "\n".join(lines) + "\n"
