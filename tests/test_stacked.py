"""The whole-sample checks against their one-sample-at-a-time references.

The derivs runners, MT1, MT1-branch and MT4-galilean draw all samples first
and evaluate them as one stack of jets.  The runners below are the loops
they replaced: one map, one point, one quad per sample.  They stay here as
references only, and the stacked runners must match them sample by sample.
"""

import cmath
import math

import numpy as np
import pytest

from gl3schwarz import derivs, evolution, lft, pde_verify, report
from gl3schwarz.derivs import (
    ExtendedTransport,
    MapJet2,
    chain_rule_rhs,
    compose_maps,
    deriv_quad,
    exp_solution_map,
    exp_system_oracle,
    jacobian_deformation,
    lft_map,
    random_map,
    second_arg_transform,
    transport_matrix,
    transported_pair,
)
from gl3schwarz.evolution import EvoFields, consistency_residual, galilean_covariance_check
from gl3schwarz.lft import act, denominator, generators
from gl3schwarz.pde_verify import mt1_relative_residual, mt1_residuals
from gl3schwarz.report import _GEN_NAMES, _safe_lft_point, run_suites
from gl3schwarz.worst import worst_of


def _ref_invariance(rng, n):
    gens = generators()
    done = 0
    while done < n:
        u = random_map(rng)
        m = gens[_GEN_NAMES[rng.integers(len(_GEN_NAMES))]].to_numpy()
        z = (u.u1, u.u2)
        if abs(denominator(m, z).value) < 0.2:
            continue
        base = deriv_quad(u).vector()
        diff = np.abs(deriv_quad(MapJet2(*act(m, z))).vector() - base).max()
        yield diff / max(1.0, np.abs(base).max())
        done += 1


def _ref_vanishing(rng, n):
    gens = generators()
    for k in range(n):
        g = gens[_GEN_NAMES[k % len(_GEN_NAMES)]]
        z = _safe_lft_point(rng, g)
        yield deriv_quad(lft_map(g, z)).max_abs()


def _ref_chain_rule(rng, n):
    for _ in range(n):
        w, u = random_map(rng), random_map(rng)
        lhs = deriv_quad(compose_maps(u, w)).vector()
        rhs = chain_rule_rhs(deriv_quad(u), w).vector()
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
        lhs = ExtendedTransport(w, c).matrix() @ ExtendedTransport(u, c).matrix()
        rhs = ExtendedTransport(compose_maps(u, w), c).matrix()
        yield np.abs(lhs - rhs).max()


def _ref_second_argument(rng, n):
    gens = generators()
    for k in range(n):
        g = gens[_GEN_NAMES[k % len(_GEN_NAMES)]]
        z = _safe_lft_point(rng, g)
        u = random_map(rng)
        lhs = deriv_quad(compose_maps(u, lft_map(g, z))).vector()
        rhs = second_arg_transform(deriv_quad(u), g, z).vector()
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
        yield np.abs(deriv_quad(m).vector() - predicted.vector()).max()
        done += 1


def _ref_mt1(rng, n):
    for _ in range(n):
        yield mt1_relative_residual(random_map(rng, order=3))


def _ref_mt1_branch(rng, n):
    for _ in range(n):
        m = random_map(rng, order=3)
        r0 = mt1_residuals(m)
        parts = []
        for branch in (1, 2):
            rb = mt1_residuals(m, branch=branch)
            phase = cmath.exp(2j * cmath.pi * branch / 3)
            parts += [abs(b - phase * a) for a, b in zip(r0, rb)]
        yield worst_of(parts)


def _ref_mt4_galilean(rng, n):
    for _ in range(n):
        f = EvoFields.random(rng, order=3)
        shift = rng.uniform(-1.5, 1.5, 4)
        yield worst_of((galilean_covariance_check(f, *shift), consistency_residual(f, f.v1)))


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
    "MT4-galilean": _ref_mt4_galilean,
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
    "MT4-galilean": report._check_mt4_galilean,
}


def _residuals(runner, seed, cid, n):
    return [float(r) for r in runner(report._rng(seed, cid)[0], n)]


def test_every_stacked_check_has_a_reference():
    assert set(STACKED) == set(REFERENCES) == set(RUNNERS) == set(FAULTS)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 42])
@pytest.mark.parametrize("cid", sorted(REFERENCES))
def test_stacked_residuals_match_the_per_sample_reference(cid, seed):
    n = STACKED[cid].samples
    got = _residuals(RUNNERS[cid], seed, cid, n)
    ref = _residuals(REFERENCES[cid], seed, cid, n)
    assert len(got) == len(ref) == n
    assert all(math.isfinite(g) for g in got)
    assert max(abs(g - r) for g, r in zip(got, ref)) <= 1e-13


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
        return (r1 + 1e-3 * fields.brace_x.value, r2, r3), scale

    monkeypatch.setattr(pde_verify, "_z_system", offset)


def _offset_r1(monkeypatch):
    # by v1_t1, which the shift moves by -a1 v1_x
    real = evolution.mt4_residuals

    def offset(f):
        r1, r2 = real(f)
        return r1 + 1e-3 * f.v1.partial((0, 0, 1, 0)), r2

    monkeypatch.setattr(evolution, "mt4_residuals", offset)


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
    "MT4-galilean": _offset_r1,
}


@pytest.mark.parametrize("seed", [1, 42])
@pytest.mark.parametrize("cid", sorted(FAULTS))
def test_faulted_residuals_match_sample_by_sample(monkeypatch, cid, seed):
    FAULTS[cid](monkeypatch)
    n = STACKED[cid].samples
    got = np.array(_residuals(RUNNERS[cid], seed, cid, n))
    ref = np.array(_residuals(REFERENCES[cid], seed, cid, n))
    assert ref.max() > 1e-5, "the fault must show in the residuals"
    assert np.abs(got - ref).max() <= 1e-9 * ref.max()


@pytest.mark.parametrize("cid", sorted(REFERENCES))
def test_a_stack_of_one_matches_the_reference(cid):
    # --samples 1: every stacked pass runs on arrays with one sample
    got = _residuals(RUNNERS[cid], 42, cid, 1)
    ref = _residuals(REFERENCES[cid], 42, cid, 1)
    assert len(got) == 1 and abs(got[0] - ref[0]) <= 1e-13


def test_samples_one_report_passes():
    rep = run_suites(("derivs", "pde", "evolution"), seed=42, samples=1)
    by_id = {e["id"]: e for e in rep["checks"]}
    for cid in REFERENCES:
        assert by_id[cid]["samples"] == 1 and by_id[cid]["pass"], cid
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
