"""The whole-sample checks against their one-sample-at-a-time references.

The derivs runners, MT1, MT1-branch, MT2-first, MT2-second, MT2-picard,
MT2-picard-modular, F1-euler, F1-pde, F1-picard-gamma, F1-k3,
MT3-constraint, J-orbit, param-table, sign-tables, eta36, MT4,
MT4-galilean and MT4-invariance draw all samples first and evaluate them in
one stacked pass: one stack of jets or points, one stacked F1 series and one
stacked quadrature per parameter set (param-table: one stack per table row,
MT4: one per field family); MT3 evaluates each moduli instance's ten
points as one stack.  The runners below are the loops they replaced:
one map, one point, one series per sample.  They stay here as references
only, and the stacked runners must match them sample by sample.  Any other
layer that refuses one sample of a stack names it: the message of a single
point, followed by " (sample k)".
"""

import cmath
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from gl3schwarz import appell, derivs, eta, evolution, lft, pde_verify, picard, report
from gl3schwarz.appell import (
    F1Params,
    f1_euler,
    f1_pde_residual,
    f1_series,
    k_integral,
    picard_f1_identity_rhs,
    picard_integral,
)
from gl3schwarz.derivs import (
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
    random_map,
    second_arg_transform,
    transport_matrix,
    transported_pair,
)
from gl3schwarz.eta import (
    eta36,
    eta36_transform_check,
    s_invariant_map,
    translation_invariant_map,
)
from gl3schwarz.evolution import (
    EvoFields,
    consistency_residual,
    evo_quotients,
    galilean_covariance_check,
)
from gl3schwarz.jets import Jet, JetError, _wrap, jet_powq
from gl3schwarz.lft import act, denominator, generators, jacobian_factor, word_product
from gl3schwarz.pde_verify import (
    PICARD,
    PICARD_MODULAR,
    mt1_branch_residuals,
    mt1_relative_residual,
    mt1_residuals,
    mt2_field_recovery_gap,
    mt2_solution_residuals,
    picard_modular_form_residuals,
)
from gl3schwarz.pde_verify import ParamTriple, _pole_gap
from gl3schwarz.picard import (
    corollary52_gaps,
    f_sign_relations,
    j_invariants,
    modular_solve,
    order5_map,
    p_transform_relations,
    param_table_check,
    pullback_gaps,
    s3_orbit,
    transform_abg,
)
from gl3schwarz.report import (
    _F1_CHECK_PARAMS,
    _GEN_NAMES,
    _MT4_MATS,
    _cpx,
    _eta_domain_point,
    _gamma_modulus,
    _moduli_instance,
    _mt2_point,
    _order5_point,
    _safe_lft_point,
    _safe_pair,
    run_suites,
)
from gl3schwarz.worst import worst_of
from oracles import random_fields


def _ref_invariance(rng, n):
    gens = generators()
    done = 0
    while done < n:
        u = random_map(rng)
        m = gens[_GEN_NAMES[rng.integers(len(_GEN_NAMES))]].to_numpy()
        z = (u.u1, u.u2)
        if abs(denominator(m, z).value) < 0.2:
            continue
        base = deriv_quad(u).value
        diff = np.abs(deriv_quad(MapJet2(*act(m, z))).value - base).max()
        yield diff / max(1.0, np.abs(base).max())
        done += 1


def _ref_vanishing(rng, n):
    gens = generators()
    for k in range(n):
        g = gens[_GEN_NAMES[k % len(_GEN_NAMES)]]
        z = _safe_lft_point(rng, g)
        yield worst_of(np.abs(deriv_quad(lft_map(g, z)).value))


def _ref_chain_rule(rng, n):
    for _ in range(n):
        w, u = random_map(rng), random_map(rng)
        lhs = deriv_quad(compose_maps(u, w)).value
        rhs = chain_rule_rhs(deriv_quad(u).value, w)
        yield np.abs(lhs - rhs).max()


def _ref_cocycle(rng, n):
    for _ in range(n):
        w, u = random_map(rng), random_map(rng)
        lhs = transport_matrix(w) @ transport_matrix(u)
        yield np.abs(lhs - transport_matrix(compose_maps(u, w))).max()


def _ref_cocycle_u(rng, n):
    cs = (0.0, 1.0, 2.5)
    for k in range(n):
        c = cs[k % 3]
        w, u = random_map(rng), random_map(rng)
        lhs = extended_transport(w, c) @ extended_transport(u, c)
        rhs = extended_transport(compose_maps(u, w), c)
        yield np.abs(lhs - rhs).max()


def _ref_second_argument(rng, n):
    gens = generators()
    for k in range(n):
        g = gens[_GEN_NAMES[k % len(_GEN_NAMES)]]
        z = _safe_lft_point(rng, g)
        u = random_map(rng)
        lhs = deriv_quad(compose_maps(u, lft_map(g, z))).value
        rhs = second_arg_transform(deriv_quad(u).value, g, z)
        yield np.abs(lhs - rhs).max()


def _ref_jacobian_deformation(rng, n):
    for _ in range(n):
        zm = random_map(rng)
        f1h, f2h = random_map(rng).u1, random_map(rng).u2
        lhs = jacobian_deformation(f1h, f2h, zm)
        rhs = MapJet2(*transported_pair(f1h, f2h, zm)).jacobian_value() / zm.jacobian_value()
        yield abs(lhs - rhs)


def _ref_exp_oracle(rng, n):
    done = 0
    while done < n:
        pts = rng.uniform(-1, 1, size=(3, 2)) + 1j * rng.uniform(-1, 1, size=(3, 2))
        pairs = [tuple(row) for row in pts]
        try:
            _, _, _, predicted = exp_system_oracle(pairs)
        except ValueError:
            continue
        m = exp_solution_map(pairs, base=(0.05, -0.03))
        yield np.abs(deriv_quad(m).value - predicted).max()
        done += 1


def _ref_mt1(rng, n):
    for _ in range(n):
        yield mt1_relative_residual(random_map(rng))


def _ref_mt1_branch(rng, n):
    for _ in range(n):
        m = random_map(rng)
        r0 = mt1_residuals(m)
        parts = []
        for branch in (1, 2):
            rb, cube = mt1_branch_residuals(m, branch)
            phase = cmath.exp(2j * cmath.pi * branch / 3)
            parts += [abs(b - phase * a) for a, b in zip(r0, rb)] + [cube]
        yield worst_of(parts)


def _ref_mt4(rng, n):
    half = max(1, n // 2)
    for k in range(n):
        if k < half:
            f = EvoFields.constant(_cpx(rng), _cpx(rng), _cpx(rng), _cpx(rng))
        else:
            f = EvoFields.shear(_cpx(rng), _cpx(rng), _cpx(rng))
        r1, r2 = evolution.mt4_residuals(f)
        yield worst_of((abs(r1), abs(r2)))


def _ref_mt4_galilean(rng, n):
    for _ in range(n):
        f = random_fields(rng, order=3)
        shift = rng.uniform(-1.5, 1.5, 4)
        yield worst_of((galilean_covariance_check(f, *shift), consistency_residual(f, f.v1)))


def _ref_mt2_branch(which):
    def run(rng, n):
        for _ in range(n):
            v = _mt2_point(rng, which)
            parts = []
            for p in (PICARD, PICARD_MODULAR):
                wr, zr = mt2_solution_residuals(p, v, which)
                parts += [abs(r) for r in (*wr, *zr)]
            yield worst_of(parts)

    return run


def _ref_mt2_picard(rng, n):
    for _ in range(n):
        v = _mt2_point(rng, "lens")
        yield worst_of(mt2_field_recovery_gap(p, v) for p in (PICARD, PICARD_MODULAR))


def _ref_mt2_picard_modular(rng, n):
    coeff_sets = ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (2.0, -0.7 + 0.3j))
    for k in range(n):
        v = _mt2_point(rng, "lens")
        res = picard_modular_form_residuals(v, coeff_sets[k % len(coeff_sets)])
        yield worst_of(abs(r) for r in res)


def _ref_f1_euler(rng, n):
    for k in range(n):
        p = F1Params(*_F1_CHECK_PARAMS[k % len(_F1_CHECK_PARAMS)])
        x, y = _cpx(rng, 0.45), _cpx(rng, 0.45)
        yield abs(f1_series(p, x, y) - f1_euler(p, x, y))


def _ref_f1_pde(rng, n):
    for k in range(n):
        p = F1Params(*_F1_CHECK_PARAMS[k % len(_F1_CHECK_PARAMS)])
        r1, r2 = f1_pde_residual(p, _cpx(rng, 0.45), _cpx(rng, 0.45))
        yield worst_of((abs(r1), abs(r2)))


def _ref_f1_k3(rng, n):
    pref = math.gamma(1 / 3) * math.gamma(2 / 3)
    p = F1Params("1/3", "1/3", "1/3", 1)
    for _ in range(n):
        ki, kj = _cpx(rng, 0.45), _cpx(rng, 0.45)
        yield abs(k_integral(ki, kj) - pref * f1_series(p, ki, kj))


def _ref_mt3(rng, n):
    per_instance = 10
    for _ in range(n):
        u, v = _moduli_instance(rng)
        for _ in range(per_instance):
            t = _order5_point(rng, u)
            x = [ti ** (1 / 3) for ti in t]  # the same point in root coordinates
            # each point and its moduli a stack of one: a single point rounds
            # in Python's complex arithmetic, and a residual that is all
            # roundoff (about 1e-13 here) moves by its own size with the last bits
            uv = [tuple(np.array([c]) for c in pair) for pair in (u, v)]
            gap_t = pullback_gaps(*uv, tuple(np.array([c]) for c in t))
            gap_x = corollary52_gaps(*uv, tuple(np.array([c]) for c in x))
            yield worst_of((gap_t[0], gap_x[0]))


def _ref_f1_picard_gamma(rng, n):
    for _ in range(n):
        x, y = _gamma_modulus(rng), _gamma_modulus(rng)
        lhs = picard_integral(x, y) ** 3
        rhs = picard_f1_identity_rhs(x, y) ** 3
        yield abs(lhs - rhs) / abs(rhs)


def _ref_mt3_constraint(rng, n):
    for _ in range(n):
        u, v = _moduli_instance(rng)
        yield abs(transform_abg(u, v).constraint_residual())


def _ref_j_orbit(rng, n):
    fam1 = ("T", "S1", "S1T", "TS1", "S1TS1")
    fam2 = ("T", "S2", "S2T", "TS2", "S2TS2")
    for _ in range(n):
        l1, l2 = _safe_pair(rng)
        j1, j2 = j_invariants(l1, l2)
        parts = [abs(j_invariants(*s3_orbit(name, l1, l2))[0] - j1) / abs(j1) for name in fam1]
        parts += [abs(j_invariants(*s3_orbit(name, l1, l2))[1] - j2) / abs(j2) for name in fam2]
        yield worst_of(parts)


def _ref_param_table(rng, n):
    p = ParamTriple(0.3 + 0.1j, -0.8, 1.1)
    per_row = max(1, n // 5)
    for row in (1, 2, 3, 4, 5):
        for _ in range(per_row):
            yield param_table_check(row, p, _safe_pair(rng))


def _ref_sign_tables(rng, n):
    for _ in range(n):
        x, y = _safe_pair(rng)
        yield worst_of((f_sign_relations(x, y), p_transform_relations(0.3 + 0.1j, -0.8, 1.1, x, y)))


def _random_evo_pair(rng, order=3):
    xs = Jet.variables(4, order, rng.uniform(-0.8, 0.8, 4))

    def poly():
        out = Jet.constant(4, order, _cpx(rng, 0.6))
        for v in xs:
            out = out + _cpx(rng, 0.6) * v
        return out + _cpx(rng, 0.6) * xs[0] * xs[1] + _cpx(rng, 0.6) * xs[1] * xs[3]

    return (xs[0] + 0.3 * poly(), xs[1] + 0.3 * poly())


def _ref_mt4_invariance(rng, n):
    done = 0
    while done < n:
        u = _random_evo_pair(rng)
        m = _MT4_MATS[done % 2]
        if abs(denominator(m, (u[0].value, u[1].value))) < 1e-10:
            continue
        try:
            ut = act(m, u)
            parts = []
            for which in ("t1", "t2"):
                qa, qb = evo_quotients(u, which), evo_quotients(ut, which)
                parts += [abs(qa[0] - qb[0]), abs(qa[1] - qb[1])]
            va = deriv_quad(MapJet2(u[0], u[1])).value
            vb = deriv_quad(MapJet2(ut[0], ut[1])).value
        except ZeroDivisionError:
            continue
        yield worst_of(parts + list(np.abs(va - vb)))
        done += 1


def _ref_eta36(rng, n):
    cell = word_product((("commutator", 3),))
    for _ in range(n):
        z = _eta_domain_point(rng)
        yield worst_of(
            (
                eta36_transform_check(generators()["S"], s_invariant_map, z),
                eta36_transform_check(cell, translation_invariant_map, z),
            )
        )


REFERENCES = {
    "invariance": _ref_invariance,
    "vanishing": _ref_vanishing,
    "chain-rule": _ref_chain_rule,
    "cocycle": _ref_cocycle,
    "cocycle-u": _ref_cocycle_u,
    "second-argument": _ref_second_argument,
    "jacobian-deformation": _ref_jacobian_deformation,
    "exp-oracle": _ref_exp_oracle,
    "MT1": _ref_mt1,
    "MT1-branch": _ref_mt1_branch,
    "MT4": _ref_mt4,
    "MT4-galilean": _ref_mt4_galilean,
    "MT2-first": _ref_mt2_branch("first"),
    "MT2-second": _ref_mt2_branch("second"),
    "MT2-picard": _ref_mt2_picard,
    "MT2-picard-modular": _ref_mt2_picard_modular,
    "F1-euler": _ref_f1_euler,
    "F1-pde": _ref_f1_pde,
    "F1-picard-gamma": _ref_f1_picard_gamma,
    "F1-k3": _ref_f1_k3,
    "MT3": _ref_mt3,
    "MT3-constraint": _ref_mt3_constraint,
    "J-orbit": _ref_j_orbit,
    "param-table": _ref_param_table,
    "sign-tables": _ref_sign_tables,
    "eta36": _ref_eta36,
    "MT4-invariance": _ref_mt4_invariance,
}
STACKED = {c.id: c for c in report.CHECKS if c.id in REFERENCES}
RUNNERS = {
    "invariance": report._check_invariance,
    "vanishing": report._check_vanishing,
    "chain-rule": report._check_chain_rule,
    "cocycle": report._check_cocycle,
    "cocycle-u": report._check_cocycle_u,
    "second-argument": report._check_second_argument,
    "jacobian-deformation": report._check_jacobian_deformation,
    "exp-oracle": report._check_exp_oracle,
    "MT1": report._check_mt1,
    "MT1-branch": report._check_mt1_branch,
    "MT4": report._check_mt4,
    "MT4-galilean": report._check_mt4_galilean,
    "MT2-first": report._mt2_branch_runner("first"),
    "MT2-second": report._mt2_branch_runner("second"),
    "MT2-picard": report._check_mt2_picard,
    "MT2-picard-modular": report._check_mt2_picard_modular,
    "F1-euler": report._check_f1_euler,
    "F1-pde": report._check_f1_pde,
    "F1-picard-gamma": report._check_f1_picard_gamma,
    "F1-k3": report._check_f1_k3,
    "MT3": report._check_mt3,
    "MT3-constraint": report._check_mt3_constraint,
    "J-orbit": report._check_j_orbit,
    "param-table": report._check_param_table,
    "sign-tables": report._check_sign_tables,
    "eta36": report._check_eta36,
    "MT4-invariance": report._check_mt4_invariance,
}


def _residuals(runner, seed, cid, n, rng=None):
    rng = report._rng(seed, cid)[0] if rng is None else rng
    return [float(r) for r in runner(rng, n)]


def _count(cid, n):
    """Residuals a run of n samples yields: an MT3 sample is a moduli
    instance with ten points, and param-table takes max(1, n // 5) points
    for each of its five rows."""
    if cid == "MT3":
        return 10 * n
    if cid == "param-table":
        return 5 * max(1, n // 5)
    return n


def test_every_stacked_check_has_a_reference():
    assert set(STACKED) == set(REFERENCES) == set(RUNNERS) == set(FAULTS)
    assert set(MISALIGNED) == {c for c in STACKED if c[:3] in ("MT2", "F1-", "MT3")} | {
        "J-orbit",
        "param-table",
        "sign-tables",
        "MT4-invariance",
    }


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 42])
@pytest.mark.parametrize("cid", sorted(REFERENCES))
def test_stacked_residuals_match_the_per_sample_reference(cid, seed):
    n = STACKED[cid].samples
    rngs = [report._rng(seed, cid)[0] for _ in range(2)]
    got = _residuals(RUNNERS[cid], seed, cid, n, rngs[0])
    ref = _residuals(REFERENCES[cid], seed, cid, n, rngs[1])
    assert len(got) == len(ref) == _count(cid, n)
    assert all(math.isfinite(g) for g in got)
    assert max(abs(g - r) for g, r in zip(got, ref)) <= 1e-13
    # both drew the same numbers: the stream ends in the same state
    assert rngs[0].generator.getstate() == rngs[1].generator.getstate()


def _ref_safe_pair(rng, margin=0.1, box=2.0):
    while True:
        x, y = _cpx(rng, box), _cpx(rng, box)
        if _pole_gap(x, y) >= margin:
            return x, y


def _ref_moduli_instance(rng):
    while True:
        u = (_cpx(rng, 2.0), _cpx(rng, 2.0))
        v2 = _cpx(rng, 2.0)
        if _pole_gap(*u) < 0.1:
            continue
        try:
            roots = picard.modular_solve(u, v2)
        except ValueError:
            continue
        for v1 in roots:
            if min(abs(v1), abs(v1 - 1), abs(v1 - v2)) > 1e-3:
                return u, (v1, v2)


# (a source of draws for a seed, its state): the report's and numpy's
SOURCES = {
    "report": (lambda seed: report._rng(seed, "candidates")[0], lambda rng: rng.generator.getstate()),
    "numpy": (np.random.default_rng, lambda rng: rng.bit_generator.state),
}


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 42])
@pytest.mark.parametrize(
    "drawn, ref", [(_safe_pair, _ref_safe_pair), (_moduli_instance, _ref_moduli_instance)]
)
def test_whole_candidate_draws_match_the_per_number_loop(drawn, ref, seed, source):
    # one rng.uniform call per candidate draws the numbers of one _cpx call each
    make, state = SOURCES[source]
    rngs = [make(seed) for _ in range(2)]
    got = [drawn(rngs[0]) for _ in range(50)]
    assert got == [ref(rngs[1]) for _ in range(50)]
    numbers = [z for draw in got for part in draw for z in (part if type(part) is tuple else (part,))]
    assert all(type(z) is complex for z in numbers)
    assert state(rngs[0]) == state(rngs[1])


def test_a_moduli_candidate_builds_one_pair(monkeypatch):
    built, solved = [], []
    post_init = picard.ModuliPair.__post_init__
    monkeypatch.setattr(picard.ModuliPair, "__post_init__", lambda p: built.append(post_init(p)))
    real = report.modular_solve
    monkeypatch.setattr(report, "modular_solve", lambda u, v2: solved.append(1) or real(u, v2))
    rng = np.random.default_rng(42)
    for _ in range(20):
        _moduli_instance(rng)
    assert len(solved) >= 20 and len(built) == len(solved)


# The residuals of a sound check sit at roundoff, so matching them says
# little about which samples were paired.  Under a planted fault each check's
# residual becomes a sizable function of its own sample: matching it then
# shows that the stack draws the same samples, in the same order and pairing.


def _swap_a_det_pair(monkeypatch):
    dets = derivs._DETS.copy()
    dets[:, 0] = dets[::-1, 0]
    monkeypatch.setattr(derivs, "_DETS", dets)


def _flip_a_transport_sign(monkeypatch):
    real = derivs._transport_from_partials

    def flipped(*partials):
        m = real(*partials)
        m[..., 0, 1] *= -1
        return m

    monkeypatch.setattr(derivs, "_transport_from_partials", flipped)


def _add_in_det2(monkeypatch):
    monkeypatch.setattr(derivs, "_det2", lambda p, q, r, s: p * s + q * r)


def _bend_the_action(monkeypatch):
    # act divides by c.z + z1^2 / 1000: no longer a linear fractional map
    real = lft.denominator
    monkeypatch.setattr(lft, "denominator", lambda m, z: real(m, z) + 1e-3 * z[0] * z[0])


def _offset_the_z_system(monkeypatch):
    # an offset that does not scale with z breaks the branch covariance
    real = pde_verify._z_system

    def offset(z, fields):
        (r1, r2, r3), scale = real(z, fields)
        return (r1 + 1e-3 * fields.value[..., 0], r2, r3), scale

    monkeypatch.setattr(pde_verify, "_z_system", offset)


def _offset_r1(monkeypatch):
    # by v1_t1, which the shift moves by -a1 v1_x
    real = evolution.mt4_residuals

    def offset(f):
        r1, r2 = real(f)
        return r1 + 1e-3 * f.v1.partial((0, 0, 1, 0)), r2

    monkeypatch.setattr(evolution, "mt4_residuals", offset)


def _offset_r1_by_v1(monkeypatch):
    # MT4's v1 is constant, so _offset_r1 shows nothing there: offset by its
    # value, which each sample draws
    real = evolution.mt4_residuals

    def offset(f):
        r1, r2 = real(f)
        return r1 + 1e-3 * f.v1.value, r2

    for module in (evolution, report):
        monkeypatch.setattr(module, "mt4_residuals", offset)


def _offset_by_z(monkeypatch):
    # an offset by z's value follows each sample's coefficient set
    real = pde_verify._z_system

    def offset(z, fields):
        (r1, r2, r3), scale = real(z, fields)
        return (r1 + 1e-3 * z.value * fields.value[..., 0], r2, r3), scale

    monkeypatch.setattr(pde_verify, "_z_system", offset)


def _bend_the_euler_exponents(monkeypatch):
    # the quadrature side only: the series takes no principal powers
    real = appell._ppow
    monkeypatch.setattr(appell, "_ppow", lambda base, p: real(base, p * (1 + 1e-3)))


def _misweight_the_partials(monkeypatch):
    # the Taylor factors of the shifted sums: values stay, partials move
    real = appell._rising
    monkeypatch.setattr(appell, "_rising", lambda z, n: real(z, n) * (1 + 1e-3 * n))


def _bend_the_pole_shapes(monkeypatch):
    # picard's brace and bracket shapes only: the closed-form fields that
    # param-table transports keep pde_verify's
    for name in ("pole_quotient", "pole_sum"):
        real = getattr(picard, name)
        monkeypatch.setattr(picard, name, lambda *a, real=real: real(*a) * (1 + 1e-3 * a[-2]))


def _bend_alpha(monkeypatch):
    # (a + b + g) g - 1 then moves by 1e-3 a g
    real = picard._abg_unchecked

    def bent(pu, pv):
        abg = real(pu, pv)
        return replace(abg, alpha=abg.alpha * (1 + 1e-3))

    monkeypatch.setattr(picard, "_abg_unchecked", bent)


def _perturb_the_cube_root(monkeypatch):
    real = picard.jet_powq
    monkeypatch.setattr(picard, "jet_powq", lambda a, q: real(a, float(Fraction(q)) * (1 + 1e-4)))


def _bend_the_eta_factor(monkeypatch):
    # eta36_factor's (c.z)^12 only: the action on the point keeps lft's
    real = eta.denominator
    monkeypatch.setattr(eta, "denominator", lambda m, z: real(m, z) + 1e-3 * z[0] * z[0])


FAULTS = {
    "invariance": _bend_the_action,
    "vanishing": _bend_the_action,
    "chain-rule": _swap_a_det_pair,
    "cocycle": _flip_a_transport_sign,
    "cocycle-u": _flip_a_transport_sign,
    "second-argument": _swap_a_det_pair,
    "jacobian-deformation": _add_in_det2,
    "exp-oracle": _swap_a_det_pair,
    "MT1": _swap_a_det_pair,
    "MT1-branch": _offset_the_z_system,
    "MT4": _offset_r1_by_v1,
    "MT4-galilean": _offset_r1,
    "MT2-first": _offset_the_z_system,
    "MT2-second": _offset_the_z_system,
    "MT2-picard": _swap_a_det_pair,
    "MT2-picard-modular": _offset_by_z,
    "F1-euler": _bend_the_euler_exponents,
    "F1-pde": _misweight_the_partials,
    "F1-picard-gamma": _bend_the_euler_exponents,
    "F1-k3": _bend_the_euler_exponents,
    "MT3": _perturb_the_cube_root,
    "MT3-constraint": _bend_alpha,
    "J-orbit": _bend_the_pole_shapes,
    "param-table": _bend_the_pole_shapes,
    "sign-tables": _bend_the_pole_shapes,
    "eta36": _bend_the_eta_factor,
    "MT4-invariance": _bend_the_action,
}


@pytest.mark.parametrize("seed", [1, 42])
@pytest.mark.parametrize("n", [2, 11])
def test_mt4_splits_any_sample_count_as_the_loop_does(n, seed):
    # max(1, n // 2) constant fields, the rest shears: odd n has one more shear
    rngs = [report._rng(seed, "MT4")[0] for _ in range(2)]
    got = _residuals(report._check_mt4, seed, "MT4", n, rngs[0])
    assert got == _residuals(_ref_mt4, seed, "MT4", n, rngs[1])
    assert rngs[0].generator.getstate() == rngs[1].generator.getstate()


@pytest.mark.parametrize("seed", [1, 42])
@pytest.mark.parametrize("cid", sorted(FAULTS))
def test_faulted_residuals_match_sample_by_sample(monkeypatch, cid, seed):
    FAULTS[cid](monkeypatch)
    n = STACKED[cid].samples
    got = np.array(_residuals(RUNNERS[cid], seed, cid, n))
    ref = np.array(_residuals(REFERENCES[cid], seed, cid, n))
    assert ref.max() > 1e-5, "the fault must show in the residuals"
    assert len(got) == len(ref) and np.abs(got - ref).max() <= 1e-9 * ref.max()


@pytest.mark.parametrize("cid", sorted(REFERENCES))
def test_a_stack_of_one_matches_the_reference(cid):
    # --samples 1: every stacked pass runs on arrays with one sample
    got = _residuals(RUNNERS[cid], 42, cid, 1)
    ref = _residuals(REFERENCES[cid], 42, cid, 1)
    assert len(got) == len(ref) == _count(cid, 1)
    assert max(abs(g - r) for g, r in zip(got, ref)) <= 1e-13


def test_samples_one_report_passes():
    rep = run_suites(("derivs", "pde", "f1", "picard", "eta", "evolution"), seed=42, samples=1)
    by_id = {e["id"]: e for e in rep["checks"]}
    for cid in REFERENCES:
        assert by_id[cid]["samples"] == _count(cid, 1) and by_id[cid]["pass"], cid
    assert rep["summary"]["failed"] == 0


def _poison_one_draw(monkeypatch, index):
    """random_map as the report calls it, with one NaN in stacked map `index`."""
    real = derivs.random_map

    def poisoned(rng, *args, size=None, **kwargs):
        m = real(rng, *args, size=size, **kwargs)
        if size is not None:
            m.u1._c[index, 1] = float("nan")  # the coefficient of y
        return m

    monkeypatch.setattr(report, "random_map", poisoned)


@pytest.mark.parametrize(
    "cid, index, sample",
    [
        ("chain-rule", 7, 3),  # maps are drawn w, u per sample: map 7 is u of sample 3
        ("cocycle", 4, 2),
        ("cocycle-u", 1, 0),
        ("jacobian-deformation", 13, 4),  # zm, f1, f2 per sample: map 13 is f1 of sample 4
        ("MT1", 11, 11),
        ("MT1-branch", 2, 2),
    ],
)
def test_a_nan_in_one_sample_fails_its_check(monkeypatch, cid, index, sample):
    _poison_one_draw(monkeypatch, index)
    n = STACKED[cid].samples
    # numpy's complex division flags a NaN divisor as an invalid operation;
    # what is tested here is where the NaN ends up
    with np.errstate(invalid="ignore"):
        got = _residuals(RUNNERS[cid], 42, cid, n)
        # through _reduce, as run_suites calls it: a NaN worst, which fails
        residual, used = STACKED[cid].run(report._rng(42, cid)[0], n)
    assert len(got) == n
    assert [k for k, r in enumerate(got) if not math.isfinite(r)] == [sample]
    assert math.isnan(residual) and used == n


def test_misaligned_samples_fail_the_report(monkeypatch):
    # negative control: compose w[k] with u[k + 1], so the two sides of
    # each identity pair different maps
    real = report.compose_maps

    def shifted(u, w):
        return real(u[np.roll(np.arange(len(u.u1._c)), -1)], w)

    monkeypatch.setattr(report, "compose_maps", shifted)
    failed = {e["id"] for e in run_suites(("derivs",), seed=42)["checks"] if not e["pass"]}
    assert {"chain-rule", "cocycle"} <= failed


def _rolled(x):
    """x with its samples moved on by one, so that a stack pairs each
    sample with its neighbour's data; single values pass through."""
    if isinstance(x, Jet):
        return _wrap(x.dim, x.order, np.roll(x._c, 1, axis=0)) if x._c.ndim > 1 else x
    if isinstance(x, np.ndarray):
        return np.roll(x, 1, axis=0) if x.ndim else x
    if isinstance(x, tuple):
        return tuple(map(_rolled, x))
    return x


def _roll_results(module, name):
    def patch(monkeypatch):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: _rolled(real(*args)))

    return patch


def _roll_gamma(monkeypatch):
    # each pair's (a + b + g) g - 1 then takes its neighbour's g
    real = picard._abg_unchecked

    def rolled(pu, pv):
        abg = real(pu, pv)
        return replace(abg, gamma=_rolled(abg.gamma))

    monkeypatch.setattr(picard, "_abg_unchecked", rolled)


# negative controls for the checks stacked over series, quadrature and
# refusals (the derivs checks have test_misaligned_samples_fail_the_report):
# one side of each identity takes its neighbour sample's data
MISALIGNED = {
    "MT2-first": _roll_results(pde_verify, "field_quad"),
    "MT2-second": _roll_results(pde_verify, "field_quad"),
    "MT2-picard": _roll_results(pde_verify, "field_quad"),
    "MT2-picard-modular": _roll_results(pde_verify, "field_quad"),
    "F1-euler": _roll_results(report, "f1_series"),
    "F1-pde": _roll_results(appell, "f1_series"),
    "F1-picard-gamma": _roll_results(report, "picard_f1_identity_rhs"),
    "F1-k3": _roll_results(report, "f1_series"),
    "MT3": _roll_results(picard, "_radicand"),
    "MT3-constraint": _roll_gamma,
    "J-orbit": _roll_results(report, "s3_orbit"),
    "param-table": _roll_results(picard, "s3_orbit"),
    "sign-tables": _roll_results(picard, "s3_orbit"),
    "MT4-invariance": _roll_results(report, "act"),
}


@pytest.mark.parametrize("cid", sorted(MISALIGNED))
def test_a_misaligned_stack_fails_its_check(monkeypatch, cid):
    MISALIGNED[cid](monkeypatch)
    check = STACKED[cid]
    with np.errstate(all="ignore"):
        residual, _ = check.run(report._rng(42, cid)[0], check.samples)
    assert not residual <= check.tolerance


def _with_bad_middle(bad):
    """A stack of three points (v1 array, v2 array) whose sample 1 is bad."""
    return tuple(np.array(v) for v in zip((0.3 + 0.1j, 0.2), bad, (0.6 - 0.1j, 0.4 + 0.2j)))


# the Jacobian of _with_jacobian for a stack of three maps whose map 1 is bad
_JAC_BAD_MIDDLE = np.array([1.0, 0.0, 1.0])
# c.z = z1: vanishes at the points z1 = 0
_SWAP = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=np.complex128)


def _with_jacobian(jac, dim=2, order=2):
    """The map (x, jac y + x^2) as jets about (0.2, 0.1, ...): its Jacobian
    is jac, one number, or an array for a stack of maps."""
    x, y, *_ = Jet.variables(dim, order, [b + 0 * jac for b in (0.2, 0.1, 0.3, 0.4)[:dim]])
    return x, y * jac + x * x


def _chain_rule(jac):
    return chain_rule_rhs(deriv_quad(MapJet2(*_with_jacobian(jac + 1))).value, MapJet2(*_with_jacobian(jac)))


def _deformation(jac):
    u = _with_jacobian(jac)
    return jacobian_deformation(*u, MapJet2(*u))


def _identity_map(z):
    return Jet.variables(2, 1, z)


# the message of each refusal for a single point; a stack adds " (sample 1)"
MESSAGES = {
    "pole hit": "pole hit: point within 0.05 of {0, 1, v_other}",
    "outside the first branch": "first branch needs |v1|, |v2| < 1",
    "outside the second branch": "second branch needs |1-v1|, |1-v2| < 1",
    "vanishing denominator": "vanishing denominator",
    "vanishing denominator of an anharmonic action": "vanishing denominator",
    "degenerate moduli": "degenerate moduli",
    "J invariants overflow, quoting the moduli": (
        "J invariants overflow the float range at moduli ((1e+200+0j), (2+0j))"
    ),
    "period modulus near the contour": "modulus too near the contour [0, 1] for the quadrature rule",
    "zero constant term": "jet_powq requires nonzero constant term",
    "zero Jacobian of the quad": "zero Jacobian at base point",
    "zero Jacobian of the inner map of a chain rule": "zero Jacobian at base point",
    "vanishing denominator of a second-argument transform": "vanishing denominator or determinant",
    "zero Jacobian of a deformation": "zero Jacobian at base point",
    "degenerate exponent pairs": "degenerate exponent pairs: singular linear system",
    "zero spatial Jacobian of an evolution map": "spatial Jacobian vanishes",
    "both sides of the pullback identity vanish": "both sides of the cubed identity vanish",
    "both sides of the root-coordinate identity vanish": "both sides of the cubed identity vanish",
    "vanishing denominator of the action": "linear fractional action: vanishing denominator",
    "vanishing denominator of the Jacobian factor": "vanishing denominator",
    "a zero of the eta product": "eta36 hit a zero or pole of the defining product",
    "a map not invariant under S": "map is not invariant under g at this point",
    "a pole of the S-invariant map": "map has a pole at w1 = 0",
    "a modular-equation modulus at 1": "v2 must avoid {0, 1}",
    "a period modulus inside the unit disc": "the F1 closed form needs |x|, |y| > 1",
}


@pytest.mark.parametrize(
    "name, one, stack, error",
    [
        (
            "pole hit",
            lambda: mt2_solution_residuals(PICARD, (0.3, 0.3)),
            lambda: mt2_solution_residuals(PICARD, _with_bad_middle((0.3, 0.3))),
            ValueError,
        ),
        (
            "outside the first branch",
            lambda: mt2_solution_residuals(PICARD, (1.2 + 0.3j, 0.2)),
            lambda: mt2_solution_residuals(PICARD, _with_bad_middle((1.2 + 0.3j, 0.2))),
            ValueError,
        ),
        (
            "outside the second branch",
            lambda: mt2_field_recovery_gap(PICARD, (-0.1 + 0.3j, 0.5)),
            lambda: mt2_field_recovery_gap(PICARD, _with_bad_middle((-0.1 + 0.3j, 0.5))),
            ValueError,
        ),
        (
            "vanishing denominator",
            lambda: order5_map(picard.TransformABG(0, 0, 1), 0.7, 0.0),
            lambda: order5_map(picard.TransformABG(0, 0, 1), *_with_bad_middle((0.7, 0.0))),
            ZeroDivisionError,
        ),
        (
            "vanishing denominator of an anharmonic action",
            lambda: s3_orbit("S1", 2.0, 0.0),
            lambda: s3_orbit("S1", *_with_bad_middle((2.0, 0.0))),
            ZeroDivisionError,
        ),
        (
            "degenerate moduli",
            lambda: j_invariants(2.0, 2.0),
            lambda: j_invariants(*_with_bad_middle((2.0, 2.0))),
            ValueError,
        ),
        (
            "J invariants overflow, quoting the moduli",
            lambda: j_invariants(1e200, 2.0),
            lambda: j_invariants(*_with_bad_middle((1e200, 2.0))),
            OverflowError,
        ),
        (
            "period modulus near the contour",
            lambda: picard_integral(0.5 + 0.01j, 3.0),
            lambda: picard_integral(*_with_bad_middle((0.5 + 0.01j, 3.0))),
            ValueError,
        ),
        (
            "zero constant term",
            lambda: jet_powq(Jet.constant(2, 1, 0.0), "1/3"),
            lambda: jet_powq(Jet.constant(2, 1, np.array([1.0, 0.0, 2.0])), "1/3"),
            JetError,
        ),
        (
            "zero Jacobian of the quad",
            lambda: deriv_quad(MapJet2(*_with_jacobian(0.0))),
            lambda: deriv_quad(MapJet2(*_with_jacobian(_JAC_BAD_MIDDLE))),
            JetError,
        ),
        (
            "zero Jacobian of the inner map of a chain rule",
            lambda: _chain_rule(0.0),
            lambda: _chain_rule(_JAC_BAD_MIDDLE),
            JetError,
        ),
        (
            "vanishing denominator of a second-argument transform",
            lambda: second_arg_transform(deriv_quad(MapJet2(*_with_jacobian(1.0))).value, _SWAP, (0.0, 0.2)),
            lambda: second_arg_transform(
                deriv_quad(MapJet2(*_with_jacobian(1.0))).value, _SWAP, _with_bad_middle((0.0, 0.2))
            ),
            ZeroDivisionError,
        ),
        (
            "zero Jacobian of a deformation",
            lambda: _deformation(0.0),
            lambda: _deformation(_JAC_BAD_MIDDLE),
            JetError,
        ),
        (
            "degenerate exponent pairs",
            lambda: exponent_rows(((1, 0), (1, 0), (0, 1))),
            lambda: exponent_rows(
                (((1, 0), (0, 1), (1, 1)), ((1, 0), (1, 0), (0, 1)), ((1, 0), (0, 1), (1, 1)))
            ),
            ValueError,
        ),
        (
            "zero spatial Jacobian of an evolution map",
            lambda: evo_quotients(_with_jacobian(0.0, 4, 1), "t1"),
            lambda: evo_quotients(_with_jacobian(_JAC_BAD_MIDDLE, 4, 1), "t1"),
            ZeroDivisionError,
        ),
        (
            # t1 = 1 under the identity transform zeroes both radicands
            "both sides of the pullback identity vanish",
            lambda: pullback_gaps((2, 3), (2, 3), (1.0, 1.3)),
            lambda: pullback_gaps((2, 3), (2, 3), _with_bad_middle((1.0, 1.3))),
            ZeroDivisionError,
        ),
        (
            "both sides of the root-coordinate identity vanish",
            lambda: corollary52_gaps((2, 3), (2, 3), (1.0, 1.3)),
            lambda: corollary52_gaps((2, 3), (2, 3), _with_bad_middle((1.0, 1.3))),
            ZeroDivisionError,
        ),
        (
            "vanishing denominator of the action",
            lambda: act(_SWAP, (0.0, 0.2)),
            lambda: act(_SWAP, _with_bad_middle((0.0, 0.2))),
            ZeroDivisionError,
        ),
        (
            "vanishing denominator of the Jacobian factor",
            lambda: jacobian_factor(_SWAP, (0.0, 0.2)),
            lambda: jacobian_factor(_SWAP, _with_bad_middle((0.0, 0.2))),
            ZeroDivisionError,
        ),
        (
            "a zero of the eta product",
            lambda: eta36(_identity_map((0.0, 0.2))),
            lambda: eta36(_identity_map(_with_bad_middle((0.0, 0.2)))),
            ValueError,
        ),
        (
            # S fixes the points (-1, w2), and no other point of the stack
            "a map not invariant under S",
            lambda: eta36_transform_check(generators()["S"], _identity_map, (0.5, 0.3)),
            lambda: eta36_transform_check(
                generators()["S"], _identity_map, (np.array([-1, 0.5, -1]), np.array([0.3, 0.3, 0.2]))
            ),
            ValueError,
        ),
        (
            "a pole of the S-invariant map",
            lambda: s_invariant_map((0.0, 0.2)),
            lambda: s_invariant_map(_with_bad_middle((0.0, 0.2))),
            ValueError,
        ),
        (
            "a modular-equation modulus at 1",
            lambda: modular_solve((2, 3), 1.0),
            lambda: modular_solve((2, 3), np.array([4.0, 1.0, 5.0])),
            ValueError,
        ),
        (
            # the domain of the closed form, not that of the series it sums
            "a period modulus inside the unit disc",
            lambda: picard_f1_identity_rhs(1e-2j, 5.0),
            lambda: picard_f1_identity_rhs(np.array([2.0, 1e-2j, 3.0]), np.full(3, 5.0)),
            ValueError,
        ),
    ],
)
def test_a_refused_sample_in_a_stack_is_named(name, one, stack, error):
    with pytest.raises(error) as single:
        one()
    with pytest.raises(error) as stacked:
        stack()
    assert type(stacked.value) is type(single.value)
    assert str(single.value) == MESSAGES[name]
    assert str(stacked.value) == f"{MESSAGES[name]} (sample 1)"


# the two forms of the order-five pullback identity
GAPS = {f.__name__: f for f in (pullback_gaps, corollary52_gaps)}


@pytest.mark.parametrize("gaps", GAPS.values(), ids=GAPS)
@pytest.mark.parametrize("point", [(0.3 + 0.1j, 0.2), (0.6 - 0.1j, 0.4 + 0.2j), (1.2, 0.9 + 0.4j)])
def test_a_single_point_is_a_stack_of_one(gaps, point):
    # one form for both: at these points a single point's residual is its
    # stack of one's within a few ulps (a residual that is all roundoff
    # moves by its own size, as _ref_mt3 notes)
    u = (2, 3)
    v = (modular_solve(u, 4)[0], 4)
    gap = gaps(u, v, point)
    stack_gap = gaps(u, v, tuple(np.array([c]) for c in point))
    assert abs(gap - stack_gap[0]) <= 4e-15


def test_modular_solve_on_a_stack_matches_point_by_point():
    u, v2 = ((2.0, 3.0 + 1j), (0.5, -2.0)), np.array([4.0, 2.5 - 1j])
    roots = modular_solve(tuple(np.array(c) for c in zip(*u)), v2)
    for k in range(2):
        assert np.abs(np.array(modular_solve(u[k], v2[k])) - [r[k] for r in roots]).max() <= 1e-14


# the quad of a stack of maps is one jet of sample shape (n, 4); each row
# is its map's quad, bit for bit
def test_the_quad_of_a_stack_is_its_maps_quads():
    maps = random_map(np.random.default_rng(7), size=3)
    quad = deriv_quad(maps).value
    assert quad.shape == (3, 4)
    for k in range(3):
        assert np.array_equal(quad[k], deriv_quad(maps[k]).value)


def test_extended_transport_on_a_stack_matches_its_maps():
    # within a few ulps: a single map's cubes are numpy scalar powers
    maps = random_map(np.random.default_rng(8), size=3)
    c = np.array([0.0, 1.0, 2.5])
    got = extended_transport(maps, c)
    assert got.shape == (3, 5, 5)
    for k in range(3):
        one = extended_transport(maps[k], c[k])
        assert np.all(np.abs(got[k] - one) <= 1e-15 * np.maximum(np.abs(one), 1.0))


@pytest.mark.parametrize("p", [PICARD, PICARD_MODULAR], ids=["picard", "picard-modular"])
def test_field_quad_of_jets_has_the_values_of_numbers(p):
    # the jet fields divide by the inverse's series, the number fields by
    # division: the four values agree to a few ulps, in the same order
    v = (np.array([0.3 + 0.1j, 0.6 - 0.1j, 0.2]), np.array([0.2, 0.4 + 0.2j, 0.7j]))
    jets = pde_verify.field_quad(p, Jet.variables(2, 2, v))
    numbers = pde_verify.field_quad(p, v)
    assert jets.order == 2 and jets.value.shape == numbers.shape == (3, 4)
    assert np.all(np.abs(jets.value - numbers) <= 1e-15 * np.abs(numbers))
