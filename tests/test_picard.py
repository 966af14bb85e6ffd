import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from gl3schwarz import picard, report
from gl3schwarz.jets import Jet, jet_powq
from gl3schwarz.pde_verify import ParamTriple, pole_quotient
from gl3schwarz.picard import (
    S3_MATRICES,
    ModuliPair,
    TransformABG,
    corollary52_gaps,
    f_sign_relations,
    j_invariants,
    modular_form_value,
    modular_residual,
    modular_solve,
    order5_map,
    p_transform_relations,
    param_table_check,
    pullback_gaps,
    s3_orbit,
    transform_abg,
)
from oracles import S3_FORMS

S1_FAMILY = ("T", "S1", "S1T", "TS1", "S1TS1")
S2_FAMILY = ("T", "S2", "S2T", "TS2", "S2TS2")


def safe_pairs(seed, n, margin=0.2, box=2.0):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        x = complex(*rng.uniform(-box, box, 2))
        y = complex(*rng.uniform(-box, box, 2))
        if min(abs(x), abs(y), abs(x - 1), abs(y - 1), abs(x - y)) < margin:
            continue
        out.append((x, y))
    return out


class TestJInvariants:
    def test_frozen_value(self):
        assert j_invariants(2, -1)[0] == pytest.approx(1 / 9)

    def test_t_instance(self):
        # T(2, -1) = (-1, 2)
        assert j_invariants(-1, 2)[0] == pytest.approx(1 / 9)

    def test_swap_symmetry(self):
        l1, l2 = 0.7 + 0.3j, -1.2
        assert j_invariants(l1, l2)[1] == j_invariants(l2, l1)[0]

    @pytest.mark.parametrize("bad", [(0, 2), (1, 2), (2, 2)])
    def test_degenerate(self, bad):
        with pytest.raises(ValueError):
            j_invariants(*bad)

    def test_overflow_is_named(self):
        # J2 is about 2.5e399; complex division alone would return NaN
        with pytest.raises(OverflowError, match="overflow"):
            j_invariants(1e200, 2)

    def test_orbit_invariance_fifty_moduli(self):
        for l1, l2 in safe_pairs(3, 50, margin=0.1):
            J1, J2 = j_invariants(l1, l2)
            for name in S1_FAMILY:
                got = j_invariants(*s3_orbit(name, l1, l2))[0]
                assert abs(got - J1) / abs(J1) < 1e-10
            for name in S2_FAMILY:
                got = j_invariants(*s3_orbit(name, l1, l2))[1]
                assert abs(got - J2) / abs(J2) < 1e-10


class TestS3Orbit:
    def test_t_involution(self):
        x, y = 0.3 + 0.2j, -1.7
        assert s3_orbit("T", *s3_orbit("T", x, y)) == pytest.approx((x, y))

    def test_s1_printed_value(self):
        assert s3_orbit("S1", 2, 4) == (0.5, 0.25)

    def test_matches_matrix_action(self):
        # the matrix action on a stack has the bits of the printed forms
        x, y = (np.array(c) for c in zip(*safe_pairs(8, 2000)))
        assert sorted(S3_FORMS) == sorted(S3_MATRICES)
        for name, form in S3_FORMS.items():
            got, want = s3_orbit(name, x, y), form(x, y)
            assert np.all(got[0] == want[0]) and np.all(got[1] == want[1])

    def test_vanishing_denominator(self):
        with pytest.raises(ZeroDivisionError):
            s3_orbit("S1", 2.0, 0.0)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            s3_orbit("S3", 1.0, 2.0)


class TestSignAndPrefactorTables:
    def test_sign_table_hundred_points(self):
        for x, y in safe_pairs(17, 100, margin=0.15):
            assert f_sign_relations(x, y) < 1e-12

    def test_prefactor_table_hundred_points(self):
        p = (0.3 + 0.1j, -0.8, 1.1)
        for x, y in safe_pairs(18, 100, margin=0.15):
            assert p_transform_relations(*p, x, y) < 1e-12

    def test_sign_relations_keep_a_late_nan(self, monkeypatch):
        # only the last five identities (those of f2) see the NaN: the first
        # ten calls of the brace shape are the f1 block
        calls = []

        def late_nan(x, y):
            calls.append((x, y))
            return float("nan") if len(calls) > 10 else pole_quotient(x, y)

        monkeypatch.setattr(picard, "pole_quotient", late_nan)
        assert math.isnan(f_sign_relations(0.3 + 0.4j, -0.7 + 0.2j))


class TestModularSolve:
    def test_identity_root(self):
        roots = modular_solve((2, 3), 3)
        assert min(abs(r - 2) for r in roots) < 1e-12

    def test_frozen_example(self):
        # (v1-1)*3*(v1-4) = -2  ->  3 v1^2 - 15 v1 + 14 = 0
        r1, r2 = modular_solve((2, 3), 4)
        s = math.sqrt(57)
        assert {round(r.real, 12) for r in (r1, r2)} == {
            round((15 + s) / 6, 12),
            round((15 - s) / 6, 12),
        }
        for r in (r1, r2):
            assert abs(modular_residual((2, 3), (r, 4))) < 1e-12

    def test_swap_antisymmetry(self):
        u = ModuliPair(2, 3)
        (v1, _) = modular_solve(u, 4)
        assert abs(modular_form_value((4, v1)) + modular_form_value((v1, 4))) < 1e-12
        # the swapped pair solves the equation only if the form vanishes
        assert abs(modular_residual(u, (4, v1))) > 1

    def test_bad_v2(self):
        with pytest.raises(ValueError):
            modular_solve((2, 3), 1.0)


class TestTransformABG:
    def test_identity_moduli(self):
        abg = transform_abg((2, 3), (2, 3))
        assert (abg.alpha, abg.beta, abg.gamma) == (0, 0, 1)

    def test_gamma_formula_exact(self):
        u, v2 = (2, 3), 4
        v1 = modular_solve(u, v2)[0]
        abg = transform_abg(u, (v1, v2))
        assert abg.gamma == (v1 - 1) * (v2 - 1) / ((2 - 1) * (3 - 1))

    def test_constraint_on_companion(self):
        u = (2, 3)
        for v1 in modular_solve(u, 4):
            abg = transform_abg(u, (v1, 4))
            assert abs(abg.constraint_residual()) < 1e-12

    def test_constraint_is_relative_to_the_largest_term(self):
        # on shell (a+b+g)g is 1, but here a g, b g and g^2 are near 1e4
        abg = TransformABG(
            -8.876256042491205 - 38.29241777115593j,
            -9.65025621840444 - 73.98931170884362j,
            18.527943153140992 + 112.27305875773908j,
        )
        raw = (abg.alpha + abg.beta + abg.gamma) * abg.gamma - 1
        scale = max(abs(abg.alpha * abg.gamma), abs(abg.beta * abg.gamma), abs(abg.gamma) ** 2)
        assert scale > 1e4
        assert abg.constraint_residual() == pytest.approx(raw / scale, rel=1e-12)
        assert abs(abg.constraint_residual()) < 1e-15

    def test_perturbed_gamma_fails_the_check(self, monkeypatch):
        # negative control: the scale must not hide gamma off by 1e-9 relative
        check = next(c for c in report.CHECKS if c.id == "MT3-constraint")
        residual, _ = check.run(report._rng(6, check.id)[0], check.samples)
        assert residual < check.tolerance

        def perturbed(u, v):
            abg = transform_abg(u, v)
            return TransformABG(abg.alpha, abg.beta, abg.gamma * (1 + 1e-9))

        monkeypatch.setattr(report, "transform_abg", perturbed)
        residual, _ = check.run(report._rng(6, check.id)[0], check.samples)
        assert residual > check.tolerance

    def test_constraint_fifty_instances(self):
        rng = np.random.default_rng(31)
        done = 0
        while done < 50:
            u1 = complex(*rng.uniform(-2, 2, 2))
            u2 = complex(*rng.uniform(-2, 2, 2))
            v2 = complex(*rng.uniform(-2, 2, 2))
            try:
                roots = modular_solve((u1, u2), v2)
            except ValueError:
                continue
            for v1 in roots:
                if min(abs(v1), abs(v1 - 1), abs(v1 - v2)) < 1e-6:
                    continue
                abg = transform_abg((u1, u2), (v1, v2))
                assert abs(abg.constraint_residual()) < 1e-10
                done += 1

    def test_violated_equation_rejected(self):
        v1 = modular_solve((2, 3), 4)[0]
        with pytest.raises(ValueError):
            transform_abg((2, 3), (v1 + 0.1, 4))


class TestOrder5Map:
    def test_identity_coefficients(self):
        abg = TransformABG(0, 0, 1)
        w1, w2 = order5_map(abg, 0.7, 1.2)
        assert w1 == pytest.approx(0.7)
        assert w2 == pytest.approx(0.7**3 / 1.2**5)

    def test_degree_five_shape(self):
        abg = transform_abg((2, 3), (modular_solve((2, 3), 4)[0], 4))
        t2 = 1.3
        # t2 enters only through t2^5
        w2a = order5_map(abg, 0.7, t2)[1]
        w2b = order5_map(abg, 0.7, 2 * t2)[1]
        assert w2b == pytest.approx(w2a / 32)
        # w1 does not involve t2
        assert order5_map(abg, 0.7, t2)[0] == order5_map(abg, 0.7, 9.0)[0]
        # numerator of w2 is a quartic polynomial in t1
        nodes = [order5_map(abg, 0.4 + 0.3 * k, 1.0)[1] for k in range(7)]
        diffs = np.array(nodes)
        for _ in range(5):
            diffs = diffs[1:] - diffs[:-1]
        assert abs(diffs[0]) < 1e-10 * max(abs(n) for n in nodes)
        quartic = np.array(nodes[:6])
        for _ in range(4):
            quartic = quartic[1:] - quartic[:-1]
        assert abs(quartic[0]) > 1e-6

    def test_jet_matches_pointwise(self):
        abg = transform_abg((2, 3), (modular_solve((2, 3), 4)[0], 4))
        t = (0.7 + 0.2j, 1.1)
        T1 = Jet.variable(2, 2, 0, base=t[0])
        T2 = Jet.variable(2, 2, 1, base=t[1])
        jw1, jw2 = order5_map(abg, T1, T2)
        w1, w2 = order5_map(abg, *t)
        assert jw1.value == pytest.approx(w1)
        assert jw2.value == pytest.approx(w2)

    def test_vanishing_denominators(self):
        abg = TransformABG(0, 0, 1)
        with pytest.raises(ZeroDivisionError):
            order5_map(abg, 0.7, 0.0)
        abg2 = transform_abg((2, 3), (modular_solve((2, 3), 4)[0], 4))
        bad_t1 = -(abg2.alpha + abg2.gamma) / abg2.beta
        with pytest.raises(ZeroDivisionError):
            order5_map(abg2, bad_t1, 1.0)


def safe_t_points(seed, n, u, v):
    """|t_i| in [0.3, 2], away from both radicand zero sets."""
    rng = np.random.default_rng(seed)
    zeros = [0, 1, 1 / u[0], 1 / u[1]]
    out = []
    while len(out) < n:
        t1 = rng.uniform(0.3, 2) * cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
        t2 = rng.uniform(0.3, 2) * cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
        if min(abs(t1 - z) for z in zeros) < 0.05:
            continue
        out.append((t1, t2))
    return out


class TestPullbackIdentity:
    def test_identity_case_jacobian(self):
        # v = u: w2 = t1^3/t2^5 and the jet Jacobian is -5 t1^3/t2^6
        abg = TransformABG(0, 0, 1)
        t1, t2 = 0.7 + 0.2j, 1.3
        T1 = Jet.variable(2, 1, 0, base=t1)
        T2 = Jet.variable(2, 1, 1, base=t2)
        w1, w2 = order5_map(abg, T1, T2)
        jac = w1.partial((1, 0)) * w2.partial((0, 1)) - w1.partial((0, 1)) * w2.partial((1, 0))
        assert jac == pytest.approx(-5 * t1**3 / t2**6)

    @pytest.mark.parametrize("t", [(0.4, 1.3), (0.7 + 0.2j, -0.9), (1.4, 0.5 - 0.3j)])
    def test_identity_case_residual(self, t):
        assert pullback_gaps((2, 3), (2, 3), t) < 1e-14

    def test_companion_ten_points(self):
        u = (2, 3)
        v = (modular_solve(u, 4)[0], 4)
        for t in safe_t_points(12, 10, u, v):
            assert pullback_gaps(u, v, t) < 1e-10

    def test_negative_control(self, monkeypatch):
        u = (2, 3)
        v_bad = (modular_solve(u, 4)[0] + 0.1, 4)
        with pytest.raises(ValueError):
            pullback_gaps(u, v_bad, (0.7, 1.1))
        monkeypatch.setattr(picard, "transform_abg", picard._abg_unchecked)
        assert pullback_gaps(u, v_bad, (0.7, 1.1)) > 1e-3

    def test_radicand_zero(self):
        # t1 = 1, and so x1 = 1, zeroes the source radicand, and under the
        # identity transform the image radicand too: a relative residual of
        # two zeros is undefined, and refused
        for gaps in (pullback_gaps, corollary52_gaps):
            with pytest.raises(ZeroDivisionError, match="both sides"):
                gaps((2, 3), (2, 3), (1.0, 1.3))

    def test_a_small_image_radicand_is_checked(self):
        # MT3's seed-130 draw: |f_w| is below the 1e-12 under which points
        # were once refused, and the identity holds there to roundoff
        u = (1.6960011118614147 - 1.5365294931969369j, -1.204432324929646 + 1.5202230998385104j)
        v = (0.06288564498085991 + 1.2463342240665651j, -1.940873789037063 - 1.7222578088965155j)
        t = (-1.0659619601403314 + 0.5039115193297957j, -1.6028740013321614 - 0.2951097093017692j)
        w1, w2 = order5_map(transform_abg(u, v), *t)
        assert abs(w1 * w1 * w2 * w2 * picard._radicand(ModuliPair(*v), w1)) < 1e-12
        assert pullback_gaps(u, v, t) < 1e-15


class TestCorollary52:
    def test_mt3_fails_on_a_perturbed_cube_root(self, monkeypatch):
        # negative control: MT3 checks the root form too, and only that form
        # takes cube roots of jets
        check = next(c for c in report.CHECKS if c.id == "MT3")
        residual, _ = check.run(report._rng(42, check.id)[0], check.samples)
        assert residual < check.tolerance

        def perturbed(a, q):
            return jet_powq(a, float(Fraction(q)) * (1 + 1e-6))

        monkeypatch.setattr(picard, "jet_powq", perturbed)
        residual, samples = check.run(report._rng(42, check.id)[0], check.samples)
        assert residual > check.tolerance
        assert samples == 100

    @pytest.mark.parametrize("x", [(0.8, 1.1), (0.6 + 0.3j, -1.2), (1.2, 0.9 + 0.4j)])
    def test_identity_case(self, x):
        assert corollary52_gaps((2, 3), (2, 3), x) < 1e-14

    def test_consistency_with_order5_pullback(self):
        u = (2, 3)
        v = (modular_solve(u, 4)[0], 4)
        rng = np.random.default_rng(9)
        for _ in range(5):
            x1 = rng.uniform(0.5, 1.3) * cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
            x2 = rng.uniform(0.5, 1.3) * cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
            assert corollary52_gaps(u, v, (x1, x2)) < 1e-10
            assert pullback_gaps(u, v, (x1**3, x2**3)) < 1e-10

    def test_printed_factor_identity_case(self):
        # Jac_y^3 g_x / g_y must equal exactly (-5 x1^3/x2^6)^3 when v = u
        u = ModuliPair(2, 3)
        x1, x2 = 0.8, 1.1
        X1 = Jet.variable(2, 1, 0, base=x1)
        X2 = Jet.variable(2, 1, 1, base=x2)
        t1, t2 = X1 * X1 * X1, X2 * X2 * X2
        w1, w2 = order5_map(TransformABG(0, 0, 1), t1, t2)
        y1, y2 = jet_powq(w1, "1/3"), jet_powq(w2, "1/3")
        jac = y1.partial((1, 0)) * y2.partial((0, 1)) - y1.partial((0, 1)) * y2.partial((1, 0))
        gx = (1 - x1**3) * (1 - 2 * x1**3) * (1 - 3 * x1**3)
        w1v = w1.value
        gy = (1 - w1v) * (1 - 2 * w1v) * (1 - 3 * w1v)
        factor = (-5 * x1**3 / x2**6) ** 3
        assert jac**3 * gx / gy == pytest.approx(factor, rel=1e-12)


class TestParamTable:
    @pytest.mark.parametrize("row", [1, 2, 3, 4, 5])
    def test_rows_at_ten_points(self, row):
        p = ParamTriple(0.3 + 0.1j, -0.8, 1.1)
        for v in safe_pairs(40 + row, 10):
            assert param_table_check(row, p, v) < 1e-10

    def test_row1_bracket_swap(self):
        # T row: brackets pick up the (beta, alpha, gamma) permutation
        p = ParamTriple(0.4, -0.2, 0.9)
        assert param_table_check(1, p, (1.7, -0.6)) < 1e-10

    def test_invalid_row(self):
        with pytest.raises(ValueError):
            param_table_check(6, ParamTriple(1, 1, 1), (2, 3))
