"""Evolution system: determinant quotients, field equations, covariance."""

import math

import numpy as np
import pytest

from gl3schwarz import evolution, report
from gl3schwarz.derivs import MapJet2, deriv_quad
from gl3schwarz.evolution import (
    EvoFields,
    consistency_residual,
    evo_quotients,
    galilean_covariance_check,
    galilean_shift,
    mt4_residuals,
)
from gl3schwarz.jets import Jet, JetError, monomials
from gl3schwarz.lft import act
from oracles import random_fields


def vars4(order, base=(0.0, 0.0, 0.0, 0.0)):
    return [Jet.variable(4, order, k, base=base[k]) for k in range(4)]


def random_poly(rng, xs, scale=0.6):
    c = lambda: complex(*rng.uniform(-scale, scale, 2))
    out = Jet.constant(4, xs[0].order, c())
    for v in xs:
        out = out + c() * v
    out = out + c() * xs[0] * xs[1] + c() * xs[0] * xs[2] + c() * xs[1] * xs[3]
    return out


def random_pair(rng, order=3):
    # near-identity in (x, y) so the spatial Jacobian stays invertible
    xs = vars4(order, rng.uniform(-0.8, 0.8, 4))
    return (xs[0] + 0.3 * random_poly(rng, xs), xs[1] + 0.3 * random_poly(rng, xs))


class TestEvoQuotients:
    def test_hand_oracle(self):
        # u1 = x + t1 x^2, u2 = y at (0.2, 0.3, 0, 0):
        # u1_t1 = x^2 = 0.04, det(u_y; u_x) = -1, so the bracket quotient
        # is 0.04 / -1 and the brace quotient vanishes.
        x, y, t1, t2 = vars4(3, (0.2, 0.3, 0.0, 0.0))
        u = (x + t1 * x * x, y)
        q = evo_quotients(u, "t1")
        assert q[0] == pytest.approx(0.0, abs=1e-15)
        assert q[1] == pytest.approx(-0.04, abs=1e-15)
        assert evo_quotients(u, "t2") == (0.0, 0.0)

    def test_time_independent_map_has_zero_quotients(self):
        x, y, t1, t2 = vars4(3, (0.4, -0.1, 0.0, 0.0))
        u = (x + 0.3 * x * x * y, y - 0.2 * y * y)
        for which in ("t1", "t2"):
            q = evo_quotients(u, which)
            assert abs(q[0]) == 0.0 and abs(q[1]) == 0.0

    def test_zero_spatial_jacobian_raises(self):
        x, y, t1, t2 = vars4(2, (0.1, 0.2, 0.0, 0.0))
        with pytest.raises(ZeroDivisionError):
            evo_quotients((x + t1, 2.0 * x + t2), "t1")

    def test_unknown_time_variable_raises(self):
        x, y, t1, t2 = vars4(2, (0.1, 0.2, 0.0, 0.0))
        with pytest.raises(ValueError):
            evo_quotients((x, y), "t3")


class TestFieldEquations:
    def test_constant_fields_solve(self):
        r1, r2 = mt4_residuals(EvoFields.constant(0.3 + 0.1j, -0.7, 1.2, 0.9j))
        assert r1 == 0 and r2 == 0

    def test_shear_fields_solve(self):
        # v2 = -lam t1 and w1 = lam t2 cancel inside w1_t2 + v2_t1
        r1, r2 = mt4_residuals(EvoFields.shear(0.8 - 0.3j, 1.1, -0.4))
        assert r1 == 0 and r2 == 0

    def test_random_fields_do_not_solve(self):
        rng = np.random.default_rng(7)
        r1, r2 = mt4_residuals(random_fields(rng, order=2))
        assert abs(r1) > 1e-3 and abs(r2) > 1e-3

    def test_field_validation(self):
        with pytest.raises(JetError):
            EvoFields(
                Jet.constant(2, 1, 0.0),
                Jet.constant(4, 1, 0.0),
                Jet.constant(4, 1, 0.0),
                Jet.constant(4, 1, 0.0),
            )
        with pytest.raises(JetError):
            EvoFields(*(Jet.constant(4, 0, c) for c in (1.0, 2.0, 3.0, 4.0)))


class TestGalilean:
    def test_zero_offsets_are_identity(self):
        rng = np.random.default_rng(11)
        f = random_fields(rng, order=2)
        assert galilean_covariance_check(f, 0.0, 0.0, 0.0, 0.0) == 0.0

    def test_check_keeps_a_late_nan(self, monkeypatch):
        monkeypatch.setattr(evolution, "mt4_residuals", lambda f: (0.0, float("nan")))
        f = random_fields(np.random.default_rng(11), order=2)
        assert math.isnan(galilean_covariance_check(f, 0.5, 0.25, -0.3, 0.7))

    def test_shift_semantics(self):
        rng = np.random.default_rng(3)
        f = random_fields(rng, order=2)
        g = galilean_shift(f, 0.5, 0.25, -0.3, 0.7)
        # values at the base: only the bracket offsets appear
        assert g.v1.value == pytest.approx(f.v1.value, abs=1e-15)
        assert g.v2.value == pytest.approx(f.v2.value, abs=1e-15)
        assert g.w1.value == pytest.approx(f.w1.value + 0.25, abs=1e-15)
        assert g.w2.value == pytest.approx(f.w2.value - 0.3, abs=1e-15)
        # spatial partials are untouched, time partials pick up drift terms
        assert g.v1.partial((1, 0, 0, 0)) == pytest.approx(
            f.v1.partial((1, 0, 0, 0)), abs=1e-15
        )
        assert g.v1.partial((0, 0, 1, 0)) == pytest.approx(
            f.v1.partial((0, 0, 1, 0)) - 0.5 * f.v1.partial((1, 0, 0, 0)), abs=1e-14
        )

    def test_pure_transport_covariance(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            f = random_fields(rng, order=3)
            a1, b2 = rng.uniform(-1.5, 1.5, 2)
            assert galilean_covariance_check(f, a1, 0.0, 0.0, b2) < 1e-12

    def test_full_covariance_on_arbitrary_fields(self):
        # holds for non-solutions too: offsets cancel between the time
        # partials and the constant shifts of w1, w2
        rng = np.random.default_rng(23)
        for _ in range(10):
            f = random_fields(rng, order=3)
            offs = rng.uniform(-1.5, 1.5, 4)
            assert galilean_covariance_check(f, *offs) < 1e-10

    def test_solutions_stay_solutions(self):
        f = EvoFields.shear(0.8 - 0.3j, 1.1, -0.4)
        g = galilean_shift(f, 0.6, -0.2, 0.9, 0.3)
        r1, r2 = mt4_residuals(g)
        assert abs(r1) < 1e-14 and abs(r2) < 1e-14


class TestConsistency:
    def test_identity_on_arbitrary_data(self):
        # the two mixed-partial expansions differ by R1 u_x - R2 u_y for any
        # fields and any u, solution or not
        rng = np.random.default_rng(29)
        for _ in range(20):
            f = random_fields(rng, order=2)
            u = Jet(
                4, 2, {a: complex(*rng.uniform(-0.5, 0.5, 2)) for a in monomials(4, 2)}
            )
            assert consistency_residual(f, u) < 1e-12

    def test_low_order_u_rejected(self):
        f = EvoFields.constant(1.0, 2.0, 3.0, 4.0)
        with pytest.raises(JetError):
            consistency_residual(f, Jet.constant(4, 1, 0.5))

    def test_mt4_galilean_fails_on_an_offset_r1(self, monkeypatch):
        # negative control: the covariance difference cancels a constant
        # offset in R1, the mixed-partial identity in the same check does not
        check = next(c for c in report.CHECKS if c.id == "MT4-galilean")
        residual, _ = check.run(report._rng(42, check.id)[0], check.samples)
        assert residual < check.tolerance
        exact = evolution.mt4_residuals

        def offset(f):
            r1, r2 = exact(f)
            return r1 + 1e-6, r2

        monkeypatch.setattr(evolution, "mt4_residuals", offset)
        residual, samples = check.run(report._rng(42, check.id)[0], check.samples)
        assert residual > check.tolerance
        assert samples == 10


class TestGl3Invariance:
    MATS = [
        np.array([[2, 1, 0], [1, 1, 1], [1, 0, 3]], dtype=np.complex128),
        np.array([[1, 0, 1j], [0.5, 2, 0], [0, 0.3, 2]], dtype=np.complex128),
    ]

    def test_quotients_and_quad_invariant(self):
        rng = np.random.default_rng(31)
        checked = 0
        for k in range(20):
            u = random_pair(rng)
            m = self.MATS[k % 2]
            try:
                ut = act(m, u)
            except ZeroDivisionError:
                continue
            for which in ("t1", "t2"):
                qa = evo_quotients(u, which)
                qb = evo_quotients(ut, which)
                assert abs(qa[0] - qb[0]) < 1e-10
                assert abs(qa[1] - qb[1]) < 1e-10
            va = deriv_quad(MapJet2(u[0], u[1])).value
            vb = deriv_quad(MapJet2(ut[0], ut[1])).value
            assert np.abs(va - vb).max() < 1e-10
            checked += 1
        assert checked >= 15
