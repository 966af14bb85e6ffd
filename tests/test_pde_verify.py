import cmath
import math

import numpy as np
import pytest

from gl3schwarz import lft, pde_verify
from gl3schwarz.derivs import MapJet2, deriv_quad, lft_map
from gl3schwarz.jets import Jet, JetError
from gl3schwarz.pde_verify import (
    BASE_MARGIN,
    PICARD,
    PICARD_MODULAR,
    ParamTriple,
    field_quad,
    mt1_branch_residuals,
    mt1_relative_residual,
    mt1_residuals,
    mt2_field_recovery_gap,
    mt2_solution_residuals,
    pfaffian_jet,
    picard_modular_form_residuals,
    w_system_residuals,
    z_system_residuals,
)
from oracles import random_map


def max_abs(residuals):
    return max(abs(r) for r in residuals)


def sample_points(seed, n, region):
    """Deterministic pole-safe points; region selects the series domain."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        v = rng.uniform(-0.9, 0.9, 4)
        v1 = complex(v[0], 0.4 * v[1])
        v2 = complex(v[2], 0.4 * v[3])
        if region == "first":
            v1, v2 = 0.85 * v1, 0.85 * v2
            if max(abs(v1), abs(v2)) >= 0.9:
                continue
        elif region == "second":
            v1, v2 = 1 - 0.4 * abs(v1) - 0.2, 1 - 0.4 * abs(v2) - 0.2
            v1 += 0.2j * v[1]
            v2 += 0.2j * v[3]
            if max(abs(1 - v1), abs(1 - v2)) >= 0.9:
                continue
        elif region == "lens":
            v1 = 0.5 + 0.2 * v[0] + 0.12j * v[1]
            v2 = 0.5 + 0.2 * v[2] + 0.12j * v[3]
            # keep both series branches well inside their discs
            if max(abs(v1), abs(v2), abs(1 - v1), abs(1 - v2)) >= 0.72:
                continue
        gap = min(abs(v1), abs(v2), abs(v1 - 1), abs(v2 - 1), abs(v1 - v2))
        if gap < 2 * BASE_MARGIN:
            continue
        pts.append((v1, v2))
    return pts


class TestParamTriple:
    def test_branch_parameters(self):
        p = PICARD_MODULAR.f1_params("first")
        assert (p.a, p.b, p.bprime, p.c) == (0.25, 0.25, 0.25, 1.0)
        q = PICARD_MODULAR.f1_params("second")
        assert q.c == 0.75
        assert PICARD.f1_params("first").c == pytest.approx(1.0)
        assert PICARD.f1_params("second").c == pytest.approx(1.0)

    def test_unknown_branch(self):
        with pytest.raises(ValueError):
            PICARD.f1_params("third")

    def test_degenerate_c_rejected(self):
        # alpha - gamma = 0 puts the first branch at a forbidden c
        with pytest.raises(ValueError):
            ParamTriple(1, 1, 1).f1_params("first")


class TestFieldQuad:
    def test_frozen_value(self):
        fq = field_quad(PICARD, (2, 3))
        assert fq[0] == pytest.approx(-1.0, abs=1e-14)

    def test_gamma_zero_kills_f(self):
        fq = field_quad(ParamTriple(0.5, 0.25, 0), (1.7, -0.4))
        assert fq[0] == 0
        assert fq[1] == 0

    def test_mixed_partial_symmetry(self):
        p = ParamTriple(0.3, -0.8, 1.1)
        v1, v2 = 1.3 + 0.2j, -0.7
        V1 = Jet.variable(2, 2, 0, base=v1)
        V2 = Jet.variable(2, 2, 1, base=v2)
        fq = field_quad(p, (V1, V2))
        target = p.gamma / (v1 - v2) ** 2
        assert abs(fq.partial((0, 1))[2] - target) < 1e-12
        assert abs(fq.partial((1, 0))[3] - target) < 1e-12

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            field_quad(PICARD, (0.5, 0.5))

class TestMT1:
    def test_identity_map(self):
        res = mt1_residuals(MapJet2(*Jet.variables(2, 3, (0.4 + 0.1j, -0.3))))
        assert res == (0, 0, 0)

    @pytest.mark.parametrize("name", ["T1", "T2", "g1", "g4", "g5"])
    def test_lft_reduces_to_flat_cube_root(self, name):
        g = lft.generators()[name]
        m = lft_map(g, (0.37 + 0.21j, -0.4 + 0.55j))
        assert max_abs(mt1_residuals(m)) < 1e-9

    def test_cubic_perturbation_at_spec_point(self):
        base = (0.4 + 0.1j, -0.3)
        rng = np.random.default_rng(11)
        ident = MapJet2(*Jet.variables(2, 3, base))
        eps = 0.05 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
        bump1 = Jet(2, 3, {(3, 0): eps[0], (2, 1): eps[1], (1, 2): eps[2], (0, 3): eps[3]})
        bump2 = Jet(2, 3, {(3, 0): eps[4], (2, 1): eps[5], (1, 2): eps[6], (0, 3): eps[7]})
        m = MapJet2(ident.u1 + bump1, ident.u2 + bump2)
        assert max_abs(mt1_residuals(m)) < 1e-8

    def test_random_maps_relative(self):
        rng = np.random.default_rng(2026)
        for _ in range(20):
            m = random_map(rng)
            assert mt1_relative_residual(m) < 1e-8

    @pytest.mark.parametrize("branch", [1, 2])
    def test_branch_covariance(self, branch):
        rng = np.random.default_rng(5)
        m = random_map(rng)
        r0 = mt1_residuals(m)
        rb, cube = mt1_branch_residuals(m, branch)
        for a, b in zip(r0, rb):
            assert abs(a) == pytest.approx(abs(b), abs=1e-12)
        phase = cmath.exp(2j * cmath.pi * branch / 3)
        for a, b in zip(r0, rb):
            assert abs(b - phase * a) < 1e-12
        assert cube < 1e-13

    @pytest.mark.parametrize("branch", [1, 2])
    def test_a_phase_off_the_cube_roots_shows_only_in_the_cube(self, monkeypatch, branch):
        # the system is homogeneous in z: a phase 2i/pi in place of 2i pi
        # keeps the residuals covariant, and only z^3 det Dw - 1 sees it
        real = pde_verify._mt1_system

        def off_phase(w, b):
            z, quad = real(w, 0)
            return (cmath.exp(2j / cmath.pi * (b % 3) / 3) * z if b % 3 else z), quad

        monkeypatch.setattr(pde_verify, "_mt1_system", off_phase)
        m = random_map(np.random.default_rng(5))
        r0 = mt1_residuals(m)
        rb, cube = mt1_branch_residuals(m, branch)
        phase = cmath.exp(2j / cmath.pi * branch / 3)
        assert max(abs(b - phase * a) for a, b in zip(r0, rb)) < 1e-12
        assert cube > 0.1

    def test_order_too_low(self):
        with pytest.raises(JetError):
            mt1_residuals(MapJet2(*Jet.variables(2, 2, (0.4, -0.3))))

    def test_singular_jacobian(self):
        u = Jet.variable(2, 3, 0, base=0.3)
        with pytest.raises(JetError):
            mt1_residuals(MapJet2(u, 2 * u))

    def test_relative_residual_keeps_a_late_nan(self, monkeypatch):
        monkeypatch.setattr(
            pde_verify, "_z_system", lambda z, quad: ((0.0, float("nan"), 0.0), 1.0)
        )
        assert math.isnan(mt1_relative_residual(MapJet2(*Jet.variables(2, 3, (0.4 + 0.1j, -0.3)))))


class TestPfaffianBasis:
    def test_prescribed_jet_solves_w_system(self):
        p = ParamTriple(0.3 + 0.1j, -0.8, 1.1)
        v = (0.45 + 0.2j, -0.35)
        s = pfaffian_jet(p, v, (1.0, 0.3, -0.2))
        assert s.value == 1.0
        assert s.partial((1, 0)) == 0.3
        assert max_abs(w_system_residuals(s, p, v)) < 1e-14

    @pytest.mark.parametrize(
        "p",
        [PICARD, PICARD_MODULAR, ParamTriple(0.3 + 0.1j, -0.8, 1.1)],
        ids=["picard", "modular", "complex"],
    )
    def test_ratio_map_recovers_fields(self, p):
        # the ratio map of any basis of the local solution space must
        # reproduce the closed-form fields, which it never reads
        v = (0.45 + 0.2j, -0.35)
        data = ((1.0, 0.3, -0.2), (0.1, 1.0, 0.4), (1.0, -0.5, 0.9))
        s1, s2, s3 = (pfaffian_jet(p, v, d) for d in data)
        got = deriv_quad(MapJet2(s1 / s3, s2 / s3)).value
        want = field_quad(p, v)
        assert np.abs(got - want).max() < 1e-12


class TestMT2:
    @pytest.mark.parametrize(
        "p,v,which",
        [
            (PICARD_MODULAR, (0.2, -0.15), "first"),
            (PICARD, (0.2, 0.1j), "first"),
            (PICARD_MODULAR, (0.7, 0.75), "second"),
            (PICARD, (0.7, 0.75), "second"),
        ],
        ids=["modular-first", "picard-first", "modular-second", "picard-second"],
    )
    def test_spec_points(self, p, v, which):
        wr, zr = mt2_solution_residuals(p, v, which)
        assert max_abs(wr) < 1e-8
        assert max_abs(zr) < 1e-8

    @pytest.mark.parametrize("p", [PICARD, PICARD_MODULAR], ids=["picard", "modular"])
    @pytest.mark.parametrize("which", ["first", "second"])
    def test_ten_points_each(self, p, which):
        for v in sample_points(404, 10, which):
            wr, zr = mt2_solution_residuals(p, v, which)
            assert max_abs(wr) < 1e-8
            assert max_abs(zr) < 1e-8

    @pytest.mark.parametrize("p", [PICARD, PICARD_MODULAR], ids=["picard", "modular"])
    def test_cross_oracle_field_recovery(self, p):
        for v in sample_points(77, 3, "lens"):
            assert mt2_field_recovery_gap(p, v) < 1e-7

    def test_series_domain_enforced(self):
        with pytest.raises(ValueError):
            mt2_solution_residuals(PICARD, (1.2, 0.3), "first")
        with pytest.raises(ValueError):
            mt2_solution_residuals(PICARD, (0.2, -0.15), "second")

    def test_margin_enforced(self):
        with pytest.raises(ValueError):
            mt2_solution_residuals(PICARD, (0.3, 0.3 + 0.01j), "first")

    def test_z_scale_homogeneous(self):
        # multiplying z by any constant scales residuals linearly
        v = (0.2, -0.15)
        V1 = Jet.variable(2, 2, 0, base=v[0])
        V2 = Jet.variable(2, 2, 1, base=v[1])
        fq = field_quad(PICARD, (V1, V2))
        z = pfaffian_jet(PICARD, v, (1.0, 0.2, 0.1))
        r0 = z_system_residuals(z, fq)
        r1 = z_system_residuals((2 - 1j) * z, fq)
        for a, b in zip(r0, r1):
            assert abs(b - (2 - 1j) * a) < 1e-12


class TestPicardModularRebuild:
    @pytest.mark.parametrize(
        "coeffs",
        [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (2.0, -0.7 + 0.3j)],
        ids=["sum", "first-only", "second-only", "mixed"],
    )
    def test_rebuild_satisfies_system(self, coeffs):
        for v in sample_points(9, 3, "lens"):
            assert max_abs(picard_modular_form_residuals(v, coeffs)) < 1e-8

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            picard_modular_form_residuals((1.5, 0.3))
