"""Four derivatives, transport matrices, cocycles, deformation identity."""

import cmath
import math

import numpy as np
import pytest

from gl3schwarz import report
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
    second_arg_transform,
    transport_matrix,
    transported_pair,
)
from gl3schwarz.jets import Jet, JetError, compose, monomials
from gl3schwarz.lft import generators
from oracles import invert_map2, random_map

G = generators()


def det_of_pair(f1, f2):
    return f1.partial((1, 0)) * f2.partial((0, 1)) - f2.partial((1, 0)) * f1.partial((0, 1))


class TestDerivQuad:
    def test_identity_map_vanishes(self):
        assert np.abs(deriv_quad(MapJet2(*Jet.variables(2, 3, (0.0, 0.0)))).value).max() < 1e-15

    def test_lft_vanishes(self):
        z = (1 + 0.2j, 0.3 - 0.1j)
        for name in ("T1", "T2", "S", "U1", "g4", "g5"):
            q = deriv_quad(lft_map(G[name], z))
            assert np.abs(q.value).max() < 1e-12, name

    def test_exponential_pair(self):
        # u = (e^{-y}, e^{-x}) solves the constant system with quad (0,0,1,1)
        m = exp_solution_map([(1, 0), (0, 1), (1, 1)], base=(0.3, -0.2))
        assert abs(m.u1.value - cmath.exp(0.2)) < 1e-12
        assert abs(m.u2.value - cmath.exp(-0.3)) < 1e-12
        assert np.allclose(deriv_quad(m).value, [0, 0, 1, 1], atol=1e-12)

    def test_zero_jacobian_rejected(self):
        u = Jet.variable(2, 3, 0)
        with pytest.raises(JetError):
            deriv_quad(MapJet2(u, 2 * u))

    def test_one_variable_map_rejected(self):
        # a map acts in its jets' first two variables
        x = Jet.variable(1, 3, 0)
        with pytest.raises(JetError):
            MapJet2(x, 2 * x)

    def test_order_drop(self):
        m = random_map(np.random.default_rng(0))
        q = deriv_quad(m)
        assert q.order == 1 and q.value.shape == (4,)

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
            diff = deriv_quad(MapJet2(v1, v2)).value - deriv_quad(u).value
            scale = max(1.0, np.abs(deriv_quad(u).value).max())
            assert np.abs(diff).max() < 1e-10 * scale
            done += 1

    def test_vanishing_check_keeps_a_late_nan(self, monkeypatch):
        # max() would drop this NaN: it is the second of its sample's values
        real = report.deriv_quad

        def poisoned(m):
            q = real(m)
            q._c[2, 1, 0] = float("nan")
            return q

        monkeypatch.setattr(report, "deriv_quad", poisoned)
        draw = next(row[5] for row in report._TABLE if row[0] == "vanishing")
        got = list(report._check_vanishing(*draw(report._rng(42, "vanishing")[0], 4)))
        assert [k for k, r in enumerate(got) if math.isnan(r)] == [2]


class TestExpSystemOracle:
    def test_unit_pairs(self):
        a, b, c, quad = exp_system_oracle([(1, 0), (0, 1), (1, 1)])
        assert np.allclose(a, [1, 0, 0])
        assert np.allclose(b, [1, 1, -1])
        assert np.allclose(c, [0, 1, 0])
        assert np.allclose(quad, [0, 0, 1, 1])

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
        assert np.allclose(deriv_quad(m).value, predicted, atol=1e-10)

    def test_degenerate_pairs(self):
        with pytest.raises(ValueError, match=r"^degenerate exponent pairs: singular linear system$"):
            exp_system_oracle([(1, 0), (2, 0), (3, 0)])

    def test_closed_forms_match_numpy_linalg(self):
        # the cofactor determinant and the three adjugate solves, on random
        # exponent triples, against LAPACK's LU
        rng = np.random.default_rng(33)
        pairs = rng.uniform(-1, 1, (200, 3, 2)) + 1j * rng.uniform(-1, 1, (200, 3, 2))
        lam, mu, _, det = exponent_rows(pairs)
        rows = np.stack([lam, mu, np.ones_like(lam)], -1)
        assert np.all(np.abs(det - np.linalg.det(rows)) <= 1e-13 * np.abs(det))
        for got, rhs in zip(exp_system_oracle(pairs), (lam**2, lam * mu, mu**2)):
            ref = np.linalg.solve(rows, rhs[..., None])[..., 0]
            assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))

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
            assert np.allclose(deriv_quad(m).value, predicted, atol=1e-10)
            done += 1


    def test_the_worst_of_fifty_thousand_seed_4_samples_passes_alone(self):
        # exp-oracle's worst sample of `verify derivs --seed 4 --samples 50000`:
        # its rows' |det| is 6.1e-4 and its prediction reaches 2.3e3, so both
        # sides carry float error of that size.  The gap in the values alone
        # is 5.4e-10, over the 1e-10 tolerance; relative to max(1, |predicted|)
        # the whole order-1 jet's gap is 2.5e-13.
        pairs = np.array(
            [
                [-0.020623739534209484 - 0.1342281210783487j, 0.3511323499986114 - 0.9549719850021876j],
                [0.2727312293689286 + 0.32991892128721423j, 0.7252326468007544 + 0.4273590879321796j],
                [-0.011852321921221654 + 0.31440242705017996j, 0.027558889075173232 + 0.16877561822785103j],
            ]
        )
        predicted = exp_system_oracle(pairs)[3]
        quad = deriv_quad(exp_solution_map(pairs, base=(0.05, -0.03)))
        assert np.abs(quad.value - predicted).max() > 5e-10
        (residual,) = report._check_exp_oracle(pairs[None])
        assert residual < 1e-12


class TestTransportMatrix:
    def test_identity(self):
        assert np.allclose(transport_matrix(MapJet2(*Jet.variables(2, 3, (0.0, 0.0)))), np.eye(4))

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
        assert np.allclose(chain_rule_rhs(np.zeros(4), w), deriv_quad(w).value)

    def test_random_composites(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            w, u = random_map(rng), random_map(rng)
            comp = compose_maps(u, w)
            lhs = deriv_quad(comp).value
            rhs = chain_rule_rhs(deriv_quad(u).value, w)
            assert np.abs(lhs - rhs).max() < 1e-9

    def test_exchange_of_arguments(self):
        # quad(w) + M/J quad(w^{-1}) = quad(identity) = 0
        rng = np.random.default_rng(14)
        for _ in range(10):
            w = random_map(rng)
            inv = MapJet2(*invert_map2(w.u1, w.u2))
            resid = chain_rule_rhs(deriv_quad(inv).value, w)
            assert np.abs(resid).max() < 1e-9


class TestExtendedTransport:
    @pytest.mark.parametrize("c", [0.0, 1.0, 2.5])
    def test_cocycle(self, c):
        rng = np.random.default_rng(15)
        for _ in range(10):
            w, u = random_map(rng), random_map(rng)
            comp = compose_maps(u, w)
            lhs = extended_transport(w, c) @ extended_transport(u, c)
            rhs = extended_transport(comp, c)
            assert np.abs(lhs - rhs).max() < 1e-9

    def test_block_shape(self):
        m = extended_transport(MapJet2(*Jet.variables(2, 3, (0.0, 0.0))), 1.0)
        assert np.allclose(m, np.eye(5))


class TestSecondArgTransform:
    def test_identity_matrix(self):
        rng = np.random.default_rng(16)
        u = random_map(rng)
        q = deriv_quad(u).value
        out = second_arg_transform(q, np.eye(3), (0.3, 0.4))
        assert np.abs(out - q).max() < 1e-12

    def test_lft_input_stays_zero(self):
        q = deriv_quad(lft_map(G["g4"], (1 + 0.1j, 0.2))).value
        out = second_arg_transform(q, G["T1"], (1 + 0.1j, 0.2))
        assert np.abs(out).max() < 1e-12

    @pytest.mark.parametrize("name", ["T1", "T2", "S", "U1", "g4", "g5"])
    def test_against_compose_oracle(self, name):
        rng = np.random.default_rng(17)
        g = G[name]
        z = (1 + 0.21j, 0.33 - 0.12j)
        u = random_map(rng)
        comp = compose_maps(u, lft_map(g, z))
        lhs = deriv_quad(comp).value
        rhs = second_arg_transform(deriv_quad(u).value, g, z)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_vanishing_denominator(self):
        q = np.array([1, 0, 0, 0])
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
        assert abs(jacobian_deformation(one, zero, MapJet2(*Jet.variables(2, 3, (0.0, 0.0))))) < 1e-15

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


def _scalar_draw_map(rng, order=3, radius=0.3, min_jac=0.1):
    """The map draw as it was made before: one scalar uniform() per modulus and phase."""
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


# the report's map draw constants, and a wider disc with a stricter Jacobian bound
# that rejects many draws
MAP_DRAWS = [(3, 0.3, 0.1), (3, 0.9, 0.5)]


@pytest.fixture
def map_draws(monkeypatch, order, radius, min_jac):
    assert order == report.MAP_ORDER
    monkeypatch.setattr(report, "MAP_RADIUS", radius)
    monkeypatch.setattr(report, "MAP_MIN_JAC", min_jac)


@pytest.mark.parametrize("order, radius, min_jac", MAP_DRAWS)
def test_random_map_draws_as_scalar_calls_did(order, radius, min_jac, map_draws):
    # the last case redraws: the draws after a rejected map line up too
    for seed in range(1, 21):
        old = _scalar_draw_map(np.random.default_rng(seed), order, radius, min_jac)
        new = random_map(np.random.default_rng(seed))
        assert new.u1._c.tobytes() == old.u1._c.tobytes()
        assert new.u2._c.tobytes() == old.u2._c.tobytes()


@pytest.mark.parametrize("order, radius, min_jac", MAP_DRAWS)
@pytest.mark.parametrize("size", [1, 7, 40])
def test_batched_random_maps_draw_as_scalar_calls_did(order, radius, min_jac, size, map_draws):
    # one block of draws per round, the rejected maps redrawn in the next:
    # map k of the stack is the k-th of size sequential calls, bit for bit
    for seed in range(1, 21):
        rng_old, rng_new = np.random.default_rng(seed), np.random.default_rng(seed)
        old = [_scalar_draw_map(rng_old, order, radius, min_jac) for _ in range(size)]
        new = random_map(rng_new, size=size)
        assert new.u1._c.shape == (size, len(monomials(2, order)))
        for k, m in enumerate(old):
            assert new.u1._c[k].tobytes() == m.u1._c.tobytes()
            assert new.u2._c[k].tobytes() == m.u2._c.tobytes()
        # and the stream is left where the sequential calls left it
        assert rng_new.random() == rng_old.random()


def _loop_kept(rng, n, width, candidates):
    """report.kept as a plain loop: for sample after sample k, one candidate
    row at a time until its column k mod C holds; the inputs of the kept rows."""
    inputs = []
    for k in range(n):
        while True:
            ok, built = candidates(rng.random((1, width)))
            columns = ok.reshape(-1)
            if columns[k % len(columns)]:
                inputs.append([x[0].tolist() for x in built])
                break
    return [list(x) for x in zip(*inputs)]


def _about_half(rows):
    # about half the rows pass each of three columns, and the columns differ,
    # so a row tested under the wrong column is kept or dropped wrongly
    return (rows[:, :1] + (0.0, 0.3, 0.6)) % 1 < 0.5, (rows, rows[:, 1])


@pytest.mark.parametrize("n", [1, 7, 2500])
def test_kept_draws_as_a_loop_over_samples_does(n):
    # a round draws one row per missing sample and keeps about half of them:
    # 2,500 samples take over a dozen rounds, each shorter than the last
    new, old = (report._rng(n, "kept")[0] for _ in range(2))
    got = report.kept(new, n, 3, _about_half)
    want = _loop_kept(old, n, 3, _about_half)
    assert [x.tolist() for x in got] == want
    assert new.generator.getrandbits(64) == old.generator.getrandbits(64)


def test_kept_refuses_after_a_hundred_rejections_in_a_row():
    rng, fresh = (report._rng(1, "kept")[0] for _ in range(2))
    with pytest.raises(RuntimeError, match="100 candidate draws in a row were rejected"):
        report.kept(rng, 5, 2, lambda rows: (np.zeros(len(rows), bool), (rows,)))
    # twenty rounds of five rows
    fresh.random((100, 2))
    assert rng.generator.getrandbits(64) == fresh.generator.getrandbits(64)
