"""Exact Eisenstein algebra, generator zoo, Heisenberg lattice, LFT action."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gl3schwarz.eta import D1
from gl3schwarz.lft import (
    DECOMPOSITION_WORDS,
    OMEGA,
    OMEGA_BAR,
    OMEGA_C,
    Eis,
    EisMatrix,
    HeisenbergElem,
    act,
    decompose_heisenberg,
    det_and_matrix,
    generator_power,
    generators,
    jacobian_factor,
    word_product,
)
from gl3schwarz.jets import Jet

G = generators()
I3 = EisMatrix.identity()
UNITARY = ["T1", "T2", "S", "U1", "U2", "g1", "g2", "g3", "g4", "g5"]


class TestEis:
    def test_ring_relations(self):
        w = OMEGA
        assert w * w == -1 - w
        assert w * w * w == Eis(1, 0)
        assert w.conj() == OMEGA_BAR
        assert Eis(3, 5).conj() == Eis(3 - 5, -5)

    def test_norm_and_division(self):
        x = Eis(2, -1)
        assert x.norm() == Fraction(7)
        assert x / x == Eis(1, 0)
        y = (1 - OMEGA) / 3
        assert y * 3 == 1 - OMEGA
        assert y == 1 / (1 - OMEGA_BAR)

    def test_to_complex(self):
        assert abs(OMEGA.to_complex() - OMEGA_C) < 1e-15
        assert abs(Eis(1, 2).to_complex() - (1 + 2 * OMEGA_C)) < 1e-15

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Eis(1, 0) / Eis(0, 0)


def _parts(m: EisMatrix):
    return [p for row in m.m for x in row for p in (x.a, x.b)]


class TestIntegerParts:
    """Integral parts are plain ints; Fraction only where a value is rational."""

    def test_integral_fraction_becomes_int(self):
        x = Eis(Fraction(4, 2), Fraction(-6, 3))
        assert type(x.a) is int and type(x.b) is int
        assert (x.a, x.b) == (2, -2)

    def test_int_and_fraction_parts_agree(self):
        assert Eis(2, 0) == Eis(Fraction(2), 0)
        assert hash(Eis(2, 0)) == hash(Eis(Fraction(2), 0))
        assert len({Eis(2, 0), Eis(Fraction(2), 0)}) == 1

    def test_division_is_exact(self):
        q = Eis(1) / Eis(2)
        assert type(q.a) is Fraction and q.a == Fraction(1, 2)
        assert type(q.b) is int and q.b == 0
        u = Eis(2, 1) / OMEGA  # division by a unit stays integral
        assert all(type(p) is int for p in (u.a, u.b))
        assert u * OMEGA == Eis(2, 1)

    def test_non_unit_inverse(self):
        inv = D1.inv()  # det 3(1 - omega) is not a unit
        assert not inv.is_integral()
        assert D1 * inv == I3
        assert inv * D1 == I3
        assert all(type(p) is int for p in _parts(D1 * inv))

    def test_products_of_generators_stay_int(self):
        for m in list(G.values()) + [word_product(w) for w in DECOMPOSITION_WORDS.values()]:
            assert all(type(p) is int for p in _parts(m))


_small = st.integers(-9, 9)
_eis_matrix = st.lists(st.tuples(_small, _small), min_size=9, max_size=9).map(
    lambda e: EisMatrix([[Eis(*e[3 * i + j]) for j in range(3)] for i in range(3)])
)
_word = st.lists(
    st.tuples(st.sampled_from(UNITARY + ["commutator"]), st.integers(-3, 3)),
    min_size=1,
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(_eis_matrix, _eis_matrix)
def test_product_matches_complex_product(a, b):
    ab = a * b
    assert ab.is_integral()
    assert all(type(p) is int for p in _parts(ab))
    assert np.allclose(ab.to_numpy(), a.to_numpy() @ b.to_numpy(), rtol=0, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(_word)
def test_word_times_inverse_is_identity(word):
    g = word_product(word)
    inv = g.inv()
    assert g * inv == I3
    assert all(type(p) is int for p in _parts(g) + _parts(inv) + _parts(g * inv))


class TestEisMatrix:
    def test_inverse_round_trip(self):
        for name in UNITARY:
            g = G[name]
            assert g * g.inv() == I3
            assert g.inv() * g == I3

    def test_det_multiplicative(self):
        a, b = G["g4"], G["T2"]
        assert (a * b).det() == a.det() * b.det()

    def test_pow_negative(self):
        t = G["T1"]
        assert t**-2 == t.inv() * t.inv()
        assert t**0 == I3

    def test_embedding(self):
        m = G["S"].to_numpy()
        wb = OMEGA_C.conjugate()
        assert np.allclose(m, [[0, 0, -wb], [0, wb, 0], [-wb, 0, 0]])


class TestGenerators:
    def test_commutator_value(self):
        wb, w = OMEGA_BAR, OMEGA
        assert G["commutator"] == EisMatrix([[1, 0, wb - w], [0, 1, 0], [0, 0, 1]])

    def test_J_antidiagonal(self):
        assert G["J"] == EisMatrix([[0, 0, 1], [0, -1, 0], [1, 0, 0]])

    def test_g3_diagonal(self):
        assert G["g3"] == EisMatrix.diag(1, OMEGA, 1)

    def test_unitarity(self):
        # g* J g = J, exactly
        J = G["J"]
        for name in UNITARY:
            g = G[name]
            assert g.conj_transpose() * J * g == J, name

    def test_scalar_identities(self):
        w = OMEGA
        assert G["S"] ** 2 == I3.scale(w)
        assert G["S"] ** 6 == I3
        assert (G["S"] * G["T1"]) ** 4 == I3.scale(w)
        assert (G["S"] * G["T2"]) ** 4 == I3.scale(w)
        assert G["U2"] ** 3 == I3.scale(-1)
        assert (G["U1"] * G["U2"]) ** 3 == EisMatrix.diag(-1, 1, -1)

    def test_diagonal_scalar_table(self):
        # every unit-diagonal case is a word in S, U1, U2
        w, wb = OMEGA, OMEGA_BAR
        S, U1 = G["S"], G["U1"]
        table = {
            (1, 1, 1): S**6,
            (w, 1, w): S**2 * U1**2,
            (wb, 1, wb): (S**2 * U1**2) ** 2,
            (1, w, 1): U1**4,
            (w, w, w): S**2,
            (wb, w, wb): S**4 * U1**2,
            (1, wb, 1): U1**2,
            (w, wb, w): (S**4 * U1**2) ** 2,
            (wb, wb, wb): S**4,
        }
        for (d1, d2, d3), word in table.items():
            assert EisMatrix.diag(d1, d2, d3) == word
        assert G["U1"] ** 4 == G["U2"] ** 4
        assert G["U1"] ** 2 == G["U2"] ** 2
        assert G["U1"] ** 2 * G["U2"] ** 3 * G["S"] ** 2 == EisMatrix.diag(-w, -1, -w)


class TestWords:
    def test_g1_g2_g3(self):
        assert word_product([("U1", -4), ("T1", -1), ("T2", -2)]) == G["g1"]
        assert word_product([("U1", -4), ("T1", -2), ("T2", -1)]) == G["g2"]
        assert word_product([("U1", 4)]) == G["g3"]

    def test_g4_g5(self):
        S3 = G["S"] ** 3
        c = G["commutator"]
        tail = (G["S"] ** 4 * G["U2"]).inv()
        assert S3 * c * S3 * tail * c == G["g4"]
        assert S3 * word_product([("U1", -4), ("T1", -1), ("T2", 1)]) * S3 == G["g5"]

    def test_mismatch_is_false(self):
        assert word_product([("T2", 1)]) != G["T1"]

    def test_s3_conjugations(self):
        # S^3 swaps the upper and lower unipotent one-parameter subgroups
        wb, w = OMEGA_BAR, OMEGA
        S3 = G["S"] ** 3
        assert S3 == EisMatrix([[0, 0, -1], [0, 1, 0], [-1, 0, 0]])
        for k in (1, 2, 3, -1):
            lower = EisMatrix([[1, 0, 0], [0, 1, 0], [k * (wb - w), 0, 1]])
            assert S3 * G["commutator"] ** k * S3 == lower
        assert S3 * G["T1"] ** -1 * S3 == EisMatrix([[1, 0, 0], [1, 1, 0], [-wb, 1, 1]])


@pytest.mark.parametrize("name", sorted(G))
def test_memoised_powers_match_repeated_products(name):
    # covers EisMatrix.__pow__ too, which the memo calls once per power
    g, g_inv = G[name], G[name].inv()
    up = down = I3
    for k in range(1, 10):
        up, down = up * g, down * g_inv
        assert generator_power(name, k) == g**k == up
        assert generator_power(name, -k) == g**-k == down
        assert generator_power(name, -k) * generator_power(name, k) == I3
        assert generator_power(name, k) is generator_power(name, k)


class TestAction:
    def test_identity(self):
        z = (0.3 + 0.1j, -0.2 + 0.7j)
        assert act(np.eye(3), z) == z

    def test_printed_actions(self):
        z = (0.37 + 0.21j, -0.44 + 0.93j)
        w = OMEGA_C
        assert np.allclose(act(G["S"], z), (1 / z[0], -z[1] / z[0]))
        assert np.allclose(act(G["T1"], z), (z[0] + z[1] - w, z[1] + 1))
        assert np.allclose(act(G["T2"], z), (z[0] + w * z[1] - w, z[1] + w.conjugate()))
        assert np.allclose(act(G["U1"], z), (z[0], -w * z[1]))
        assert np.allclose(act(G["U2"], z), (z[0], w * z[1]))

    def test_group_action_property(self):
        rng = np.random.default_rng(7)
        names = list(G)
        for _ in range(100):
            g1 = G[names[rng.integers(len(names))]]
            g2 = G[names[rng.integers(len(names))]]
            z = (
                complex(1 + rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)),
                complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)),
            )
            lhs = act(g1 * g2, z)
            rhs = act(g1, act(g2, z))
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_vanishing_denominator(self):
        with pytest.raises(ZeroDivisionError):
            act(G["S"], (0.0, 0.5))


class TestDetAndMatrix:
    @pytest.mark.parametrize("n", [1, 4, 200])
    def test_stack_matches_numpy_linalg(self, n):
        rng = np.random.default_rng(300 + n)
        m = rng.standard_normal((3, 3, n)) + 1j * rng.standard_normal((3, 3, n))
        got = det_and_matrix(m)[0]
        ref = np.linalg.det(np.moveaxis(m, -1, 0))
        assert got.shape == (n,)
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))

    def test_one_matrix_matches_numpy_linalg(self):
        m = np.array([[2, 1j, 0.5], [0.3, 1, -1], [1 - 1j, 0.2, 3]])
        got = det_and_matrix(m)[0]
        assert isinstance(got, complex)
        assert abs(got - np.linalg.det(m)) <= 1e-13 * abs(got)


class TestJacobianFactor:
    def test_identity(self):
        assert jacobian_factor(np.eye(3), (0.4, 0.1j)) == 1

    def test_constant_diagonal(self):
        d = EisMatrix.diag(3, 1 - OMEGA, 1)
        expect = 3 * (1 - OMEGA_C)
        assert abs(jacobian_factor(d, (0.2, 0.3)) - expect) < 1e-14

    def test_matches_jet_jacobian(self):
        rng = np.random.default_rng(11)
        names = ["T1", "S", "g4", "g5", "g1"]
        for name in names:
            z = (
                complex(1 + rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)),
                complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)),
            )
            a1, a2 = act(G[name], Jet.variables(2, 3, z))
            jac = a1.partial((1, 0)) * a2.partial((0, 1)) - a1.partial((0, 1)) * a2.partial((1, 0))
            assert abs(jac - jacobian_factor(G[name], z)) < 1e-12

    def test_cocycle(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            names = list(G)
            g1 = G[names[rng.integers(len(names))]]
            g2 = G[names[rng.integers(len(names))]]
            z = (
                complex(1 + rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)),
                complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)),
            )
            lhs = jacobian_factor(g1 * g2, z)
            rhs = jacobian_factor(g1, act(g2, z)) * jacobian_factor(g2, z)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    # det over the matrix axes of a (3, 3, n) stack: n = 3 once raised
    # TypeError and n = 4 LinAlgError, np.linalg.det reading the last two axes
    @pytest.mark.parametrize("n", [1, 3, 4, 7])
    def test_stack_matches_single_matrices_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        mats = [G[name].to_numpy() + 0.1 * rng.standard_normal((3, 3)) for name in G][:n]
        mats += [np.eye(3) + 0.2 * rng.standard_normal((3, 3)) for _ in range(n - len(mats))]
        z1 = 1 + rng.uniform(-0.3, 0.3, n) + 1j * rng.uniform(-0.3, 0.3, n)
        z2 = rng.uniform(-0.3, 0.3, n) + 1j * rng.uniform(-0.3, 0.3, n)
        got = jacobian_factor(np.stack(mats, -1), (z1, z2))
        dets = det_and_matrix(np.stack(mats, -1))[0]
        assert got.shape == dets.shape == (n,)
        # each matrix alone gives a complex scalar with the bits of its sample
        for k, m in enumerate(mats):
            for one, stacked in (
                (jacobian_factor(m, (complex(z1[k]), complex(z2[k]))), got[k]),
                (det_and_matrix(m)[0], dets[k]),
            ):
                assert isinstance(one, complex) and np.complex128(one).tobytes() == stacked.tobytes()

    def test_stack_names_its_vanishing_denominator(self):
        swap = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
        mats = np.stack([np.eye(3), swap, swap, np.eye(3)], -1)
        z1 = np.array([0.0, 0.5, 0.0, 0.0])
        with pytest.raises(ZeroDivisionError, match=r"^vanishing denominator \(sample 2\)$"):
            jacobian_factor(mats, (z1, np.full(4, 0.2)))


class TestHeisenberg:
    def test_condition_enforced(self):
        # beta + conj(beta) = alpha conj(alpha) holds by construction
        for alpha, q in ((Eis(2, 1), 3), (Eis(-3, 5), -4), (OMEGA, 0)):
            beta = HeisenbergElem(alpha, q).beta()
            assert beta + beta.conj() == alpha * alpha.conj()
        with pytest.raises(ValueError):
            HeisenbergElem(Eis(Fraction(1, 2), 0), 0)  # alpha not integral

    def test_t1_decomposition(self):
        t1 = HeisenbergElem(Eis(1, 0), -1)
        assert t1.beta() == -OMEGA
        assert t1.to_matrix() == G["T1"]
        assert decompose_heisenberg(t1) == (1, 0, -1)

    def test_t2_decomposition(self):
        t2 = HeisenbergElem(OMEGA, -1)
        assert t2.beta() == -OMEGA
        assert t2.to_matrix() == G["T2"]
        assert decompose_heisenberg(t2) == (0, 1, -1)

    def test_central_element(self):
        center = HeisenbergElem(Eis(0, 0), -2)  # beta = omegabar - omega
        assert center.beta() == OMEGA_BAR - OMEGA
        m, n, l = decompose_heisenberg(center)
        assert (m, n) == (0, 0)
        assert -l - m - n - m * n == 1

    def test_round_trips(self):
        for m0, n0, l0 in itertools.product(range(-5, 6, 2), range(-5, 6, 2), range(-5, 6, 2)):
            word = [("T1", m0), ("T2", n0), ("commutator", -l0 - m0 - n0 - m0 * n0)]
            target = word_product(word)
            beta = target.m[0][2]
            elem = HeisenbergElem(Eis(m0, n0), int(beta.b))
            assert elem.to_matrix() == target
            assert decompose_heisenberg(elem) == (m0, n0, l0)
