"""Four derivatives, transport matrices, cocycles, deformation identity."""

import cmath
import math

import numpy as np
import pytest

from gl3schwarz.derivs import (
    DerivQuad,
    ExtendedTransport,
    MapJet2,
    chain_rule_rhs,
    compose_maps,
    deriv_quad,
    exp_solution_map,
    exp_system_oracle,
    identity_map,
    jacobian_deformation,
    lft_map,
    random_map,
    second_arg_transform,
    transport_matrix,
    transported_pair,
    z0_bracket_coeffs,
)
from gl3schwarz.jets import Jet, JetError, compose, invert_map2, monomials
from gl3schwarz.lft import generators

G = generators()


def det_of_pair(f1, f2):
    return f1.partial((1, 0)) * f2.partial((0, 1)) - f2.partial((1, 0)) * f1.partial((0, 1))


class TestDerivQuad:
    def test_identity_map_vanishes(self):
        assert deriv_quad(identity_map()).max_abs() < 1e-15

    def test_lft_vanishes(self):
        z = (1 + 0.2j, 0.3 - 0.1j)
        for name in ("T1", "T2", "S", "U1", "g4", "g5"):
            q = deriv_quad(lft_map(G[name], z))
            assert q.max_abs() < 1e-12, name

    def test_exponential_pair(self):
        # u = (e^{-y}, e^{-x}) solves the constant system with quad (0,0,1,1)
        m = exp_solution_map([(1, 0), (0, 1), (1, 1)], base=(0.3, -0.2))
        assert abs(m.u1.value - cmath.exp(0.2)) < 1e-12
        assert abs(m.u2.value - cmath.exp(-0.3)) < 1e-12
        assert np.allclose(deriv_quad(m).vector(), [0, 0, 1, 1], atol=1e-12)

    def test_zero_jacobian_rejected(self):
        u = Jet.variable(2, 3, 0)
        with pytest.raises(JetError):
            deriv_quad(MapJet2(u, 2 * u))

    def test_order_drop(self):
        m = random_map(np.random.default_rng(0))
        q = deriv_quad(m)
        assert all(c.order == 1 for c in q.components())

    def test_gl3_invariance(self):
        # quad(gamma o u) == quad(u) for linear fractional gamma
        rng = np.random.default_rng(5)
        names = ("T1", "T2", "S", "U1", "g4")
        done = 0
        while done < 50:
            u = random_map(rng)
            g = G[names[rng.integers(len(names))]].to_numpy()
            den = g[2, 0] * u.u1 + g[2, 1] * u.u2 + g[2, 2]
            if abs(den.value) < 0.2:
                continue
            v1 = (g[0, 0] * u.u1 + g[0, 1] * u.u2 + g[0, 2]) / den
            v2 = (g[1, 0] * u.u1 + g[1, 1] * u.u2 + g[1, 2]) / den
            diff = deriv_quad(MapJet2(v1, v2)).vector() - deriv_quad(u).vector()
            scale = max(1.0, np.abs(deriv_quad(u).vector()).max())
            assert np.abs(diff).max() < 1e-10 * scale
            done += 1

    def test_max_abs_keeps_a_late_nan(self):
        # max() would return 0.0 here: it drops a NaN that is not first
        assert math.isnan(DerivQuad(0.0, float("nan"), 0.0, 0.0).max_abs())


class TestExpSystemOracle:
    def test_unit_pairs(self):
        a, b, c, quad = exp_system_oracle([(1, 0), (0, 1), (1, 1)])
        assert np.allclose(a, [1, 0, 0])
        assert np.allclose(b, [1, 1, -1])
        assert np.allclose(c, [0, 1, 0])
        assert np.allclose(quad.vector(), [0, 0, 1, 1])

    @pytest.mark.parametrize(
        "pairs",
        [
            [(2, 0), (0, 2), (2, 2)],
            [(1 + 0.5j, -0.3), (0.2, 1.1j), (-0.7, 0.4 + 0.2j)],
        ],
    )
    def test_predicted_quad_matches_map(self, pairs):
        _, _, _, predicted = exp_system_oracle(pairs)
        m = exp_solution_map(pairs, base=(0.1, 0.07))
        assert np.allclose(deriv_quad(m).vector(), predicted.vector(), atol=1e-10)

    def test_degenerate_pairs(self):
        with pytest.raises(ValueError):
            exp_system_oracle([(1, 0), (2, 0), (3, 0)])

    def test_random_triples(self):
        rng = np.random.default_rng(21)
        done = 0
        while done < 10:
            pts = rng.uniform(-1, 1, size=(3, 2)) + 1j * rng.uniform(-1, 1, size=(3, 2))
            pairs = [tuple(row) for row in pts]
            try:
                _, _, _, predicted = exp_system_oracle(pairs)
            except ValueError:
                continue
            m = exp_solution_map(pairs, base=(0.05, -0.03))
            assert np.allclose(deriv_quad(m).vector(), predicted.vector(), atol=1e-10)
            done += 1


class TestTransportMatrix:
    def test_identity(self):
        assert np.allclose(transport_matrix(identity_map()), np.eye(4))

    def test_composition(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            w, u = random_map(rng), random_map(rng)
            comp = compose_maps(u, w)
            lhs = transport_matrix(w) @ transport_matrix(u)
            assert np.abs(lhs - transport_matrix(comp)).max() < 1e-10

    def test_inverse_map(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            w = random_map(rng)
            inv = MapJet2(*invert_map2(w.u1, w.u2))
            lhs = np.linalg.inv(transport_matrix(w))
            assert np.abs(lhs - transport_matrix(inv)).max() < 1e-10


class TestChainRule:
    def test_identity_outer(self):
        rng = np.random.default_rng(12)
        w = random_map(rng)
        zero = DerivQuad(0, 0, 0, 0)
        assert np.allclose(chain_rule_rhs(zero, w).vector(), deriv_quad(w).vector())

    def test_random_composites(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            w, u = random_map(rng), random_map(rng)
            comp = compose_maps(u, w)
            lhs = deriv_quad(comp).vector()
            rhs = chain_rule_rhs(deriv_quad(u), w).vector()
            assert np.abs(lhs - rhs).max() < 1e-9

    def test_exchange_of_arguments(self):
        # quad(w) + M/J quad(w^{-1}) = quad(identity) = 0
        rng = np.random.default_rng(14)
        for _ in range(10):
            w = random_map(rng)
            inv = MapJet2(*invert_map2(w.u1, w.u2))
            resid = chain_rule_rhs(deriv_quad(inv), w).vector()
            assert np.abs(resid).max() < 1e-9


class TestExtendedTransport:
    @pytest.mark.parametrize("c", [0.0, 1.0, 2.5])
    def test_cocycle(self, c):
        rng = np.random.default_rng(15)
        for _ in range(10):
            w, u = random_map(rng), random_map(rng)
            comp = compose_maps(u, w)
            lhs = ExtendedTransport(w, c).matrix() @ ExtendedTransport(u, c).matrix()
            rhs = ExtendedTransport(comp, c).matrix()
            assert np.abs(lhs - rhs).max() < 1e-9

    def test_block_shape(self):
        m = ExtendedTransport(identity_map(), 1.0).matrix()
        assert np.allclose(m, np.eye(5))


class TestSecondArgTransform:
    def test_identity_matrix(self):
        rng = np.random.default_rng(16)
        u = random_map(rng)
        q = deriv_quad(u)
        out = second_arg_transform(q, np.eye(3), (0.3, 0.4))
        assert np.abs(out.vector() - q.vector()).max() < 1e-12

    def test_lft_input_stays_zero(self):
        q = deriv_quad(lft_map(G["g4"], (1 + 0.1j, 0.2)))
        out = second_arg_transform(q, G["T1"], (1 + 0.1j, 0.2))
        assert np.abs(out.vector()).max() < 1e-12

    @pytest.mark.parametrize("name", ["T1", "T2", "S", "U1", "g4", "g5"])
    def test_against_compose_oracle(self, name):
        rng = np.random.default_rng(17)
        g = G[name]
        z = (1 + 0.21j, 0.33 - 0.12j)
        u = random_map(rng)
        comp = compose_maps(u, lft_map(g, z))
        lhs = deriv_quad(comp).vector()
        rhs = second_arg_transform(deriv_quad(u), g, z).vector()
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_vanishing_denominator(self):
        q = DerivQuad(1, 0, 0, 0)
        with pytest.raises(ZeroDivisionError):
            second_arg_transform(q, G["S"], (0.0, 0.1))


class TestJacobianDeformation:
    @staticmethod
    def oracle_direct(f1h, f2h, zm):
        f1w, f2w = transported_pair(f1h, f2h, zm)
        return det_of_pair(f1w, f2w) / zm.jacobian_value()

    @staticmethod
    def oracle_inverse_jets(f1h, f2h, zm):
        # push the pair to the z-chart explicitly and differentiate there
        f1w, f2w = transported_pair(f1h, f2h, zm)
        i1, i2 = invert_map2(zm.u1, zm.u2)
        f1z = compose(f1w, [i1.truncate(2), i2.truncate(2)])
        f2z = compose(f2w, [i1.truncate(2), i2.truncate(2)])
        return det_of_pair(f1z, f2z)

    def test_constant_fields_identity_map(self):
        one = Jet.constant(2, 3, 1.0)
        zero = Jet.constant(2, 3, 0.0)
        assert abs(jacobian_deformation(one, zero, identity_map())) < 1e-15

    def test_lft_map(self):
        rng = np.random.default_rng(18)
        zm = lft_map(G["g4"], (1 + 0.2j, 0.4 - 0.3j))
        f1h, f2h = random_map(rng).u1, random_map(rng).u2
        lhs = jacobian_deformation(f1h, f2h, zm)
        assert abs(lhs - self.oracle_direct(f1h, f2h, zm)) < 1e-10

    def test_random_maps_both_oracles(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            zm = random_map(rng)
            f1h, f2h = random_map(rng).u1, random_map(rng).u2
            lhs = jacobian_deformation(f1h, f2h, zm)
            assert abs(lhs - self.oracle_direct(f1h, f2h, zm)) < 1e-9
            assert abs(lhs - self.oracle_inverse_jets(f1h, f2h, zm)) < 1e-9


class TestZ0Bracket:
    def test_constants(self):
        c = Jet.constant(2, 3, 2.0)
        b1, b2 = z0_bracket_coeffs(c, c)
        assert b1.max_abs() < 1e-15 and b2.max_abs() < 1e-15

    def test_hand_expansion(self):
        # f1 = t2, f2 = 0 -> (t2, 0)
        t2 = Jet.variable(2, 3, 1)
        b1, b2 = z0_bracket_coeffs(t2, Jet.constant(2, 3, 0.0))
        assert b1.allclose(t2.truncate(2), 1e-15)
        assert b2.max_abs() < 1e-15

    def test_swap_antisymmetry(self):
        def swap(j):
            return Jet(j.dim, j.order, {(a2, a1): v for (a1, a2), v in j.coeffs().items()})

        rng = np.random.default_rng(20)
        f1, f2 = random_map(rng).u1, random_map(rng).u2
        b1, b2 = z0_bracket_coeffs(f1, f2)
        s1, s2 = z0_bracket_coeffs(swap(f2), swap(f1))
        assert s2.allclose(swap(b1), 1e-12)
        assert s1.allclose(swap(b2), 1e-12)


def _scalar_draw_map(rng, order=3, radius=0.3, min_jac=0.1):
    """random_map as it drew before: one scalar uniform() per modulus and phase."""
    monos = monomials(2, order)
    for _ in range(100):
        jets = []
        for var in (0, 1):
            coeffs = {
                alpha: radius
                * np.sqrt(rng.uniform())
                * np.exp(1j * rng.uniform(0, 2 * np.pi))
                for alpha in monos
            }
            lin = (1, 0) if var == 0 else (0, 1)
            coeffs[lin] += 1.0
            jets.append(Jet(2, order, coeffs))
        m = MapJet2(*jets)
        if abs(m.jacobian_value()) >= min_jac:
            return m
    raise RuntimeError("failed to sample a well-conditioned map")


@pytest.mark.parametrize("order, radius, min_jac", [(3, 0.3, 0.1), (2, 0.3, 0.1), (3, 0.9, 0.5)])
def test_random_map_draws_as_scalar_calls_did(order, radius, min_jac):
    # the last case redraws: the draws after a rejected map line up too
    for seed in range(1, 21):
        old = _scalar_draw_map(np.random.default_rng(seed), order, radius, min_jac)
        new = random_map(np.random.default_rng(seed), order, radius, min_jac)
        assert new.u1._c.tobytes() == old.u1._c.tobytes()
        assert new.u2._c.tobytes() == old.u2._c.tobytes()
