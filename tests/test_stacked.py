"""Every sampled check is a draw and an evaluate, and a stack is its samples.

A drawing check's draw(rng, n) makes all of its draws and rejections and
returns its inputs, one row per residual along their first axis, each
choice made per sample among them; evaluate(*inputs) gives one residual
per row and never touches the rng, and the report draws and evaluates one
chunk of at most report.CHUNK samples at a time.  The tests here hold that:
- each row evaluated alone, as a stack of one, is bit-equal to its row of
  the whole stack, for sound layers and under a planted fault per check,
  so a row carries every input of its sample;
- a draw of n samples is the first n samples of any longer draw, and ends
  its stream where that draw's n-th sample does; every cycle of choices
  divides a chunk;
- chunks of 60 samples give the residuals and the stream end of one whole
  draw, bit for bit, and a run never draws more than a chunk at once;
- a refusal in a later chunk names its row there and the chunk's start;
- each draw leaves its stream where pinned values say, so no draw's count
  or order moves;
- the whole-candidate draws take the numbers of the per-number loops;
- a NaN in one sample stays in that sample, a misaligned stack fails its
  check, and a layer that refuses one sample of a stack names it: the
  message of a single point, followed by " (sample k)";
- a layer given a single point (a Python complex, a single jet or map)
  agrees with the same point as a stack of one.
"""

import inspect
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from gl3schwarz import appell, derivs, eta, evolution, lft, pde_verify, picard, report
from gl3schwarz.appell import picard_f1_identity_rhs, picard_integral
from gl3schwarz.derivs import (
    MapJet2,
    chain_rule_rhs,
    deriv_quad,
    exp_system_oracle,
    extended_transport,
    jacobian_deformation,
    second_arg_transform,
    transport_matrix,
)
from gl3schwarz.eta import eta36, eta36_transform_check, s_invariant_map, translation_invariant_map
from gl3schwarz.evolution import evo_quotients, galilean_covariance_check
from gl3schwarz.jets import Jet, JetError, _wrap, jet_powq
from gl3schwarz.lft import act, generators, jacobian_factor, word_product
from gl3schwarz.pde_verify import (
    PICARD,
    PICARD_MODULAR,
    ParamTriple,
    _pole_gap,
    mt1_branch_residuals,
    mt1_relative_residual,
    mt2_field_recovery_gap,
    mt2_solution_residuals,
    picard_modular_form_residuals,
)
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
from gl3schwarz.report import run_suites
from oracles import random_map

# each drawing check's (draw, evaluate), and its entry
SAMPLED = {row[0]: row[5:] for row in report._TABLE if row[6] is not None}
STACKED = {c.id: c for c in report.CHECKS if c.id in SAMPLED}


def _drawn(cid, seed):
    """The check's inputs at its default count, and its residuals over the whole stack."""
    draw, evaluate = SAMPLED[cid]
    inputs = draw(report._rng(seed, cid)[0], STACKED[cid].samples)
    return inputs, evaluate(*inputs)


def _alone(cid, inputs):
    """The residual of each row of inputs, evaluated as a stack of one."""
    evaluate = SAMPLED[cid][1]
    return np.concatenate([evaluate(*(x[k : k + 1] for x in inputs)) for k in range(len(inputs[0]))])


def test_every_drawing_check_has_a_fault_and_the_stacked_ones_a_misalignment():
    assert len(SAMPLED) == 27 and set(SAMPLED) == set(FAULTS)
    assert set(MISALIGNED) == {c for c in SAMPLED if c[:3] in ("MT2", "F1-", "MT3")} | {
        "J-orbit",
        "param-table",
        "sign-tables",
        "MT4-invariance",
    }


# the per-sample reference of a row is its evaluate on that row alone
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 42])
@pytest.mark.parametrize("cid", sorted(SAMPLED))
def test_stacked_residuals_match_the_per_sample_reference(cid, seed):
    inputs, whole = _drawn(cid, seed)
    # an MT3 sample is a moduli instance with ten points, one row each
    assert whole.shape == (STACKED[cid].samples * {"MT3": 10}.get(cid, 1),)
    assert np.isfinite(whole).all()
    assert _alone(cid, inputs).tolist() == whole.tolist()


@pytest.mark.parametrize("default", [False, True], ids=["1", "default"])
@pytest.mark.parametrize("seed", [1, 42])
@pytest.mark.parametrize("cid", sorted(SAMPLED))
def test_a_draw_is_arrays_of_one_row_per_residual(cid, seed, default):
    # maps too are drawn as coefficient arrays: every input is an ndarray
    # whose first axis is the check's residual count
    draw, evaluate = SAMPLED[cid]
    inputs = draw(report._rng(seed, cid)[0], STACKED[cid].samples if default else 1)
    assert type(inputs) is tuple and all(type(x) is np.ndarray for x in inputs)
    assert {len(x) for x in inputs} == {len(evaluate(*inputs))}


# Under a planted fault each check's residual becomes a sizable function of
# its own sample, so a stack of one that keeps its row's bits shows that the
# row carries every input of its sample: its generator, parameter row,
# coefficient set, field family or matrix as well as its numbers.


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
@pytest.mark.parametrize("cid", sorted(FAULTS))
def test_faulted_residuals_match_sample_by_sample(monkeypatch, cid, seed):
    FAULTS[cid](monkeypatch)
    inputs, whole = _drawn(cid, seed)
    assert whole.max() > 1e-5, "the fault must show in the residuals"
    assert _alone(cid, inputs).tolist() == whole.tolist()


@pytest.mark.parametrize("seed", [1, 42])
@pytest.mark.parametrize("cid", sorted(SAMPLED))
def test_a_draw_of_n_samples_begins_every_longer_draw(cid, seed):
    # 60 samples and then 7 on one stream are the 67 of one draw on a fresh
    # stream, and end where it does
    draw = SAMPLED[cid][0]
    parts, whole = (report._rng(seed, cid)[0] for _ in range(2))
    got = [np.concatenate(x) for x in zip(draw(parts, 60), draw(parts, 7))]
    assert [x.tolist() for x in got] == [x.tolist() for x in draw(whole, 67)]
    assert parts.generator.getrandbits(64) == whole.generator.getrandbits(64)


def test_every_cycle_divides_a_chunk():
    # so sample k of every chunk takes the choice of its place in the whole draw
    cycles = {
        row[0]: len(inspect.getclosurevars(row[5]).nonlocals["choices"])
        for row in report._TABLE
        if row[5].__qualname__.startswith("_cycled.")
    }
    assert cycles == {
        "invariance": 6, "vanishing": 6, "cocycle-u": 3, "second-argument": 6, "MT2-picard-modular": 4,
        "F1-euler": 3, "F1-pde": 3, "param-table": 5, "MT4": 2, "MT4-invariance": 2,
    }
    assert [c for c in cycles.values() if report.CHUNK % c] == []


@pytest.mark.parametrize("cid", sorted(SAMPLED))
def test_a_run_draws_at_most_a_chunk_at_a_time(monkeypatch, cid):
    draw, evaluate = SAMPLED[cid]
    sizes = []
    monkeypatch.setattr(report, "CHUNK", 60)
    report._reduce(lambda rng, n: sizes.append(n) or draw(rng, n), evaluate)(report._rng(42, cid)[0], 130)
    assert sizes == [60, 60, 10]


@pytest.mark.parametrize("seed", [1, 42])
@pytest.mark.parametrize("cid", sorted(SAMPLED))
def test_chunks_of_three_rows_are_the_whole_stack(monkeypatch, cid, seed):
    # chunks of 60 samples, the least chunk that every cycle divides: 150
    # samples in three chunks give the residuals of one whole draw
    draw, evaluate = SAMPLED[cid]
    whole_rng = report._rng(seed, cid)[0]
    whole = evaluate(*draw(whole_rng, 150))
    chunks = []

    def recorded(*rows):
        chunks.append(evaluate(*rows))
        return chunks[-1]

    monkeypatch.setattr(report, "CHUNK", 60)
    rng = report._rng(seed, cid)[0]
    worst, used = report._reduce(draw, recorded)(rng, 150)
    rows = len(whole) // 150  # ten an MT3 sample
    assert [len(c) for c in chunks] == [60 * rows, 60 * rows, 30 * rows]
    assert np.concatenate(chunks).tolist() == whole.tolist()
    assert (worst, used) == (whole.max(), len(whole))
    # the draws, chunk by chunk, took the same numbers
    assert rng.generator.getrandbits(64) == whole_rng.generator.getrandbits(64)


def test_a_refusal_in_a_later_chunk_names_its_row_and_the_chunk(monkeypatch):
    # 70 MT3 instances in chunks of 60: the second chunk starts at residual
    # row 600, ten rows an instance, and its row 23 becomes the identity
    # transform at t1 = 1, where both sides of the pullback identity vanish
    draw, evaluate = SAMPLED["MT3"]
    calls = []

    def poisoned(rng, n):
        inputs = draw(rng, n)
        calls.append(n)
        if len(calls) == 2:
            for x, bad in zip(inputs, (2, 3, 2, 3, 1.0, 1.3)):
                x[23] = bad
        return inputs

    monkeypatch.setattr(report, "CHUNK", 60)
    monkeypatch.setattr(report, "CHECKS", (replace(STACKED["MT3"], run=report._reduce(poisoned, evaluate)),))
    (entry,) = run_suites(("picard",), seed=42, samples=70)["checks"]
    assert calls == [60, 10] and entry["pass"] is False and entry["residual"] is None
    assert entry["error"] == "both sides of the cubed identity vanish (sample 23), in the chunk from sample 600"


# The next 64 bits of each check's stream after its draw at seeds 1 and 42,
# pinned: a draw that takes one number more or fewer, or rejects its
# candidates in another order, moves them.  Four rows were recorded again
# when every rejection moved onto `kept`, whose candidates have fixed
# widths: invariance (one map of 40 draws, its generator cycling by sample)
# and F1-picard-gamma (two moduli of four draws each) moved;
# second-argument (point and map as one candidate) and MT3 (an instance and
# its ten points as one) reject nothing at these seeds, so they end where
# they did.  MT4 was recorded again when its samples began to alternate
# constant fields and shears, each of four numbers (a shear took three);
# its residual is exactly 0.0 in both forms.
NEXT_BITS = {
    "F1-euler": (0x2f6d809ce1160e76, 0x17ee0a7c92e7ea3a),
    "F1-k3": (0xdb13fcfba3fa7a32, 0x3fe44af46ec3c768),
    "F1-pde": (0xe5447813a252ee02, 0xd09bb02e6dc719b4),
    "F1-picard-gamma": (0x476a46b20141c0b2, 0xe550f44ac8e47772),
    "J-orbit": (0x8966b9b3121874ce, 0xb10b306b72e2de01),
    "MT1": (0x99fc03be9a746146, 0x29c8a9e17e2702ef),
    "MT1-branch": (0xb7a725b2e73d1b36, 0x70d6e5c0e7ae3dd0),
    "MT2-first": (0x5d23adc763da9b5f, 0xafba116ed34445ed),
    "MT2-picard": (0xd51b4b8f0edf37a0, 0x39983cf4d27d059a),
    "MT2-picard-modular": (0x5b3a1a810d48befa, 0xae56b0605cda5033),
    "MT2-second": (0x57e1e746e94fa96e, 0x3994b24754df1f77),
    "MT3": (0xe8f3c0aa65ae98ff, 0x5559b3877f079b02),
    "MT3-constraint": (0x7b76cae2a16d79d9, 0xe153674ea7ef07de),
    "MT4": (0xeb4cc7e0ee50c733, 0xa5d7b701d8779d66),
    "MT4-galilean": (0x3b4894e4e589d320, 0xf84a5f3accb2a2fb),
    "MT4-invariance": (0xb5f365b0d4537650, 0xb443a0784536beb7),
    "chain-rule": (0x4e31552e341551a0, 0xc69eb53a3307e8d0),
    "cocycle": (0x9a243228e34b15ed, 0x71eedbdb5583d972),
    "cocycle-u": (0x47693f99620aa442, 0xcfb1d1553616eb3b),
    "eta36": (0x6f6dab1a0cb011ad, 0xcf6f80c53ef000d6),
    "exp-oracle": (0x361ae3322e0f4575, 0xae0087c7e6e5590d),
    "invariance": (0x75df82455a60b44b, 0x0f783ebb97ea8b6e),
    "jacobian-deformation": (0x85c94b87ecb8afd5, 0x4f3d09e7b3f1ab82),
    "param-table": (0xf3edf415d7907207, 0x04738d7840d25061),
    "second-argument": (0xf2a627f9aca1aafc, 0x1cb414bb87f83466),
    "sign-tables": (0x11f06459c51df8a9, 0x8ac6039fde0a211a),
    "vanishing": (0x525e9a9713bae626, 0xfb0be1488ed554c0),
}


@pytest.mark.parametrize("cid", sorted(SAMPLED))
def test_each_draw_leaves_its_stream_at_the_pinned_place(cid):
    got = []
    for seed in (1, 42):
        rng = report._rng(seed, cid)[0]
        SAMPLED[cid][0](rng, STACKED[cid].samples)
        got.append(rng.generator.getrandbits(64))
    assert tuple(got) == NEXT_BITS[cid]


def _samples(cid, deep):
    return 2000 if deep else STACKED[cid].samples


@pytest.mark.parametrize("deep", [False, True], ids=["default", "2000"])
@pytest.mark.parametrize("seed", [1, 42])
def test_each_drawn_row_is_tested_once(monkeypatch, seed, deep):
    # every kept draw, its rows counted as the rng hands them out and as
    # its candidates test them
    real = report.kept
    drawn, tested = [], []

    class Counted:
        def __init__(self, rng):
            self.rng = rng

        def random(self, size):
            drawn.append(size[0])
            return self.rng.random(size)

    def counted(rng, n, width, candidates):
        return real(Counted(rng), n, width, lambda rows: tested.append(len(rows)) or candidates(rows))

    monkeypatch.setattr(report, "kept", counted)
    for cid, (draw, _) in SAMPLED.items():
        draw(report._rng(seed, cid)[0], _samples(cid, deep))
    assert tested == drawn and sum(drawn) > 0


def _gen_margins(gen, z1, z2):
    """|denominator| of each point under its own generator, as Python numbers."""
    m = report._GEN_MATS
    return [abs(m[2, 0, g] * a + m[2, 1, g] * b + m[2, 2, g]) for g, a, b in zip(gen.tolist(), z1.tolist(), z2.tolist())]


@pytest.mark.parametrize("deep", [False, True], ids=["default", "2000"])
@pytest.mark.parametrize("seed", [1, 42])
@pytest.mark.parametrize("cid", ["invariance", "vanishing", "second-argument", "MT4-invariance"])
def test_each_sample_passes_the_test_of_its_own_choice(cid, seed, deep):
    # sample k carries choice k mod C, and its margin under that choice,
    # computed again from its inputs, holds
    n = _samples(cid, deep)
    choice, *inputs = SAMPLED[cid][0](report._rng(seed, cid)[0], n)
    if cid == "invariance":
        c1, c2 = inputs
        assert min(_gen_margins(choice, c1[:, 0], c2[:, 0])) >= 0.2
    elif cid == "MT4-invariance":
        u = report._evo_pairs(inputs[0])
        z, jac = (u.u1.value, u.u2.value), u.jacobian_value()
        m = report._MT4_MATS[..., choice]
        assert np.abs(m[2, 0] * z[0] + m[2, 1] * z[1] + m[2, 2]).min() >= 1e-10
        assert np.abs(jac).min() >= 1e-14 and np.abs(jacobian_factor(m, z) * jac).min() >= 1e-14
    else:
        assert min(_gen_margins(choice, *inputs[:2])) > 0.2
    assert choice.tolist() == [k % {"MT4-invariance": 2}.get(cid, 6) for k in range(n)]


@pytest.mark.parametrize("seed", [1, 42])
@pytest.mark.parametrize("n", [1, 2, 11])
def test_mt4_splits_any_sample_count_as_the_loop_does(n, seed):
    # four numbers a sample: a constant field of them when k is even, a
    # shear of the first three when k is odd
    shear, c = SAMPLED["MT4"][0](report._rng(seed, "MT4")[0], n)
    assert shear.tolist() == [k % 2 == 1 for k in range(n)]
    loop = report._rng(seed, "MT4")[0]
    assert c.tolist() == [[_cpx(loop) for _ in range(4)] for _ in range(n)]


@pytest.mark.parametrize("cid", sorted(SAMPLED))
def test_a_stack_of_one_matches_the_reference(cid):
    # --samples 1: the draw of one sample takes the first numbers of the
    # default draw, the reference here, and evaluates as a stack of one
    draw, evaluate = SAMPLED[cid]
    one = draw(report._rng(42, cid)[0], 1)
    rows = {"MT3": 10}.get(cid, 1)
    ref = [x[:rows] for x in draw(report._rng(42, cid)[0], STACKED[cid].samples)]
    assert [x.tolist() for x in one] == [x.tolist() for x in ref]
    assert evaluate(*one).tolist() == evaluate(*ref).tolist()


def test_samples_one_report_passes():
    rep = run_suites(("derivs", "pde", "f1", "picard", "eta", "evolution"), seed=42, samples=1)
    by_id = {e["id"]: e for e in rep["checks"]}
    # an MT3 sample is a moduli instance with ten points
    for cid in SAMPLED:
        assert by_id[cid]["samples"] == {"MT3": 10}.get(cid, 1), cid
        assert by_id[cid]["pass"], cid
    assert rep["summary"]["failed"] == 0


def _cpx(rng, radius=1.0):
    return complex(*rng.uniform(-radius, radius, 2))


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


def _safe_pair(rng, n):
    """n drawn pairs (x, y), as Python numbers."""
    return list(zip(*(x.tolist() for x in report._draw_pairs(rng, n))))


def _moduli_instance(rng, n):
    """n drawn moduli instances ((u1, u2), (v1, v2)), as Python numbers."""
    return [((u1, u2), (v1, v2)) for u1, u2, v1, v2 in zip(*(x.tolist() for x in report._draw_moduli(rng, n)))]


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 42])
@pytest.mark.parametrize("drawn, ref", [(_safe_pair, _ref_safe_pair), (_moduli_instance, _ref_moduli_instance)])
def test_whole_candidate_draws_match_the_per_number_loop(drawn, ref, seed, source):
    # a candidate row of unit draws takes the numbers of one _cpx call each
    make, state = SOURCES[source]
    rngs = [make(seed) for _ in range(2)]
    got = drawn(rngs[0], 50)
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
    report._draw_moduli(np.random.default_rng(42), 20)
    assert len(solved) >= 20 and len(built) == len(solved)


def _poison_one_draw(monkeypatch, index):
    """The report's map draw, with one NaN in drawn map `index`."""
    real = report.kept

    def poisoned(rng, n, width, candidates):
        c1, *rest = real(rng, n, width, candidates)
        if candidates is report.map_candidates:
            c1[index, 1] = float("nan")  # u1's coefficient of y
        return (c1, *rest)

    monkeypatch.setattr(report, "kept", poisoned)


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
        got = _drawn(cid, 42)[1].tolist()
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
        return real(MapJet2(*(_wrap(x.dim, x.order, np.roll(x._c, -1, 0)) for x in (u.u1, u.u2))), w)

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
            lambda: exp_system_oracle(((1, 0), (1, 0), (0, 1))),
            lambda: exp_system_oracle(
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
    # moves by its own size with the last bits of the numbers it cancels)
    u = (2, 3)
    v = (modular_solve(u, 4)[0], 4)
    gap = gaps(u, v, point)
    stack_gap = gaps(u, v, tuple(np.array([c]) for c in point))
    assert abs(gap - stack_gap[0]) <= 4e-15


def _one(x):
    """x as a stack of one: a number or an array gains a sample axis, and so
    does a jet or a map."""
    if isinstance(x, tuple):
        return tuple(map(_one, x))
    if isinstance(x, MapJet2):
        return MapJet2(*map(_one, (x.u1, x.u2)))
    if isinstance(x, Jet):
        return _wrap(x.dim, x.order, x._c[None])
    return np.array([x])


def _numbers(out):
    """A layer's result as a flat list of arrays."""
    if isinstance(out, (tuple, list)):
        return [a for part in out for a in _numbers(part)]
    return [out._c if isinstance(out, Jet) else np.asarray(out)]


_RNG = report._rng(0, "single points")[0]
_MAPS = [random_map(_RNG) for _ in range(3)]
_EVO_ROW = report._evo_pairs(_RNG.random((1, 32)))
_EVO = MapJet2(*(_wrap(4, 3, u._c[0]) for u in (_EVO_ROW.u1, _EVO_ROW.u2)))
_FIELDS = _RNG.random(8 * 35)
_EXPONENTS = _RNG.uniform(-1, 1, (3, 2)) + 1j * _RNG.uniform(-1, 1, (3, 2))
_MODULI = _moduli_instance(_RNG, 1)[0]
_PAIR = _safe_pair(_RNG, 1)[0]
_TRIPLE = ParamTriple(0.3 + 0.1j, -0.8, 1.1)

# Layers on one point, a Python complex number or a single jet or map, which
# takes the number forks (jets._base, _col and _constant, appell._points,
# modular_solve's cmath.sqrt), and on the same point as a stack of one, given
# `s`, which stacks its argument or passes it through.  Layers with a test of
# their own elsewhere: deriv_quad (bit for bit, above), extended_transport
# and chain_rule_rhs (through transport_matrix, here), the F1 series, Euler
# integral, k_integral and picard_integral (bit for bit, test_appell.py),
# picard_f1_identity_rhs (within 4 ulps there), the jet kernels (bit for
# bit, test_jets.py), pullback_gaps and corollary52_gaps (above).  Known
# last-bit gaps: transport_matrix (a single map's complex products round as
# numpy scalars), picard_f1_identity_rhs (Python complex division) and the
# pullback residuals.
LAYERS = {
    "mt1_relative_residual": lambda s: mt1_relative_residual(s(_MAPS[0])),
    "mt1_branch_residuals": lambda s: mt1_branch_residuals(s(_MAPS[0]), 2),
    "mt2_solution_residuals first": lambda s: mt2_solution_residuals(PICARD, s((0.3 + 0.1j, 0.2 - 0.1j)), "first"),
    "mt2_solution_residuals second": lambda s: mt2_solution_residuals(
        PICARD_MODULAR, s((0.75 + 0.05j, 0.6 - 0.1j)), "second"
    ),
    "mt2_field_recovery_gap": lambda s: mt2_field_recovery_gap(PICARD, s((0.55 + 0.05j, 0.4 - 0.04j))),
    "picard_modular_form_residuals": lambda s: picard_modular_form_residuals(
        s((0.55 + 0.05j, 0.4 - 0.04j)), s((2.0, -0.7 + 0.3j))
    ),
    "s3_orbit": lambda s: s3_orbit("S1TS1", *s(_PAIR)),
    "j_invariants": lambda s: j_invariants(*s(_PAIR)),
    "param_table_check": lambda s: [param_table_check(row, _TRIPLE, s(_PAIR)) for row in (1, 2, 3, 4, 5)],
    "f_sign_relations": lambda s: f_sign_relations(*s(_PAIR)),
    "p_transform_relations": lambda s: p_transform_relations(0.3 + 0.1j, -0.8, 1.1, *s(_PAIR)),
    "eta36_transform_check": lambda s: [
        eta36_transform_check(g, vmap, s((1.5 + 0.2j, 0.3 - 0.2j)))
        for g, vmap in (
            (generators()["S"], s_invariant_map),
            (word_product((("commutator", 3),)), translation_invariant_map),
        )
    ],
    "evo_quotients": lambda s: [evo_quotients(s((_EVO.u1, _EVO.u2)), which) for which in ("t1", "t2")],
    "galilean_covariance_check": lambda s: galilean_covariance_check(
        report._evo_fields(s(_FIELDS)), *s((0.5, -0.3, 0.2, 0.7))
    ),
    "jacobian_deformation": lambda s: jacobian_deformation(s(_MAPS[1].u1), s(_MAPS[2].u2), s(_MAPS[0])),
    "exp_system_oracle": lambda s: exp_system_oracle(s(_EXPONENTS)),
    "constraint_residual": lambda s: transform_abg(*s(_MODULI)).constraint_residual(),
    "transport_matrix": lambda s: transport_matrix(s(_MAPS[1])),
}


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_a_layer_on_a_single_point_is_its_stack_of_one(name):
    single = _numbers(LAYERS[name](lambda x: x))
    stack = _numbers(LAYERS[name](_one))
    assert len(single) == len(stack)
    for a, b in zip(single, stack):
        assert b.shape == (1, *a.shape)
        assert np.abs(b[0] - a).max() <= 1e-13 * max(1.0, np.abs(a).max())


def test_a_quadrature_stack_past_numpys_temporary_reuse_keeps_each_points_bits():
    # 110 moduli pairs on 160 nodes: numpy reuses temporaries of 256 KiB
    # (16,384 complex numbers) or more in place, and a product it reorders
    # there rounds differently from the same product on a smaller stack
    x, y = SAMPLED["F1-picard-gamma"][0](report._rng(42, "F1-picard-gamma")[0], 110)
    alone = [picard_integral(x[k : k + 1], y[k : k + 1])[0] for k in range(110)]
    assert picard_integral(x, y).tolist() == alone


def test_modular_solve_on_a_stack_matches_point_by_point():
    u, v2 = ((2.0, 3.0 + 1j), (0.5, -2.0)), np.array([4.0, 2.5 - 1j])
    roots = modular_solve(tuple(np.array(c) for c in zip(*u)), v2)
    for k in range(2):
        assert np.abs(np.array(modular_solve(u[k], v2[k])) - [r[k] for r in roots]).max() <= 1e-14


def _drawn_maps(seed):
    """Three maps as the report draws them: u1's coefficients and u2's."""
    return report.kept(np.random.default_rng(seed), 3, report.MAP_WIDTH, report.map_candidates)


# the quad of a stack of maps is one jet of sample shape (n, 4); each row
# is its map's quad, bit for bit
def test_the_quad_of_a_stack_is_its_maps_quads():
    c1, c2 = _drawn_maps(7)
    quad = deriv_quad(report.coefficient_map(c1, c2)).value
    assert quad.shape == (3, 4)
    for k in range(3):
        assert np.array_equal(quad[k], deriv_quad(report.coefficient_map(c1[k], c2[k])).value)


def test_extended_transport_on_a_stack_matches_its_maps():
    # within a few ulps: a single map's cubes are numpy scalar powers
    c1, c2 = _drawn_maps(8)
    c = np.array([0.0, 1.0, 2.5])
    got = extended_transport(report.coefficient_map(c1, c2), c)
    assert got.shape == (3, 5, 5)
    for k in range(3):
        one = extended_transport(report.coefficient_map(c1[k], c2[k]), c[k])
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
