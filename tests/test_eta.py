from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from gl3schwarz import eta, lft
from gl3schwarz.eta import (
    _word_factor,
    AutomorphyFactor,
    eta36,
    eta36_factor,
    eta36_transform_check,
    eta_variant_identities,
    ledger_multipliers,
    s_invariant_map,
    translation_invariant_map,
    word_factor,
)
from gl3schwarz.jets import Jet
from gl3schwarz.report import run_suites
from oracles import factor_value36

GENS = lft.generators()


def domain_points(seed, n):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        z1 = complex(rng.uniform(0.8, 2.2), rng.uniform(-1, 1))
        z2 = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        if abs(z2) < 0.1:
            continue
        out.append((z1, z2))
    return out


class TestPhaseLedger:
    def test_generator_phases(self):
        assert word_factor([("T1", 1)]).phase == Fraction(2, 9)
        assert word_factor([("T2", 1)]).phase == Fraction(2, 9)
        assert word_factor([("U1", 1)]).phase == Fraction(13, 54)
        assert word_factor([("U2", 1)]).phase == Fraction(2, 27)
        assert word_factor([("commutator", 1)]).phase == 0

    def test_commutator_word_vanishes(self):
        word = [("T1", 1), ("T2", 1), ("T1", -1), ("T2", -1)]
        assert word_factor(word).phase == 0

    def test_stated_composites(self):
        assert word_factor([("U1", 2), ("T2", -1)]).phase == Fraction(7, 27)
        assert word_factor([("U1", 2), ("T2", -3)]).phase == Fraction(-5, 27)
        assert word_factor([("U1", 2), ("T1", -1), ("T2", -1)]).phase == Fraction(1, 27)
        assert word_factor(
            [("U1", 2), ("T1", -3), ("T2", -3), ("commutator", -3)]
        ).phase == Fraction(-23, 27)
        assert word_factor([("U1", 4)]).phase == Fraction(26, 27)
        assert word_factor([("U1", 2), ("U2", 3), ("S", 2)]).phase == Fraction(19, 27)

    def test_even_s_powers_are_silent(self):
        assert word_factor([("S", 2)]).phase == 0
        assert word_factor([("S", -4), ("T1", 1)]).phase == Fraction(2, 9)

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            word_factor([("g1", 1)])

    def test_multiplier_table(self):
        got = set(ledger_multipliers().values())
        expected = {
            Fraction(7, 27),
            Fraction(-5, 27),
            Fraction(1, 27),
            Fraction(-23, 27),
            Fraction(26, 27),
            Fraction(19, 27),
            Fraction(2, 9),
            Fraction(13, 54),
            Fraction(2, 27),
        }
        assert got == expected


class TestAutomorphyFactor:
    def test_phase_compared_mod_one(self):
        a = AutomorphyFactor(Fraction(-5, 27))
        b = AutomorphyFactor(Fraction(22, 27))
        assert a.same_as(b)
        assert not a.same_as(AutomorphyFactor(Fraction(1, 27)))

    def test_cross_multiplied_forms(self):
        # w1/3 written two ways
        a = AutomorphyFactor(Fraction(0), ((1, 0, 0),), ((0, 0, 3),))
        b = AutomorphyFactor(Fraction(0), ((Fraction(1, 3), 0, 0),))
        assert a.same_as(b)

    def test_mul_and_div(self):
        a = AutomorphyFactor(Fraction(1, 9), ((1, 0, 1),))
        b = AutomorphyFactor(Fraction(2, 9), (), ((0, 1, 1),))
        ab = a * b
        assert ab.phase == Fraction(3, 9)
        assert (ab / b).same_as(a)

    def test_composition_is_associative(self):
        a = AutomorphyFactor(Fraction(1, 9), ((1, 0, 1),))
        b = AutomorphyFactor(Fraction(2, 27), ((0, 1, 2),), ((1, 1, 1),))
        c = AutomorphyFactor(Fraction(-1, 3), (), ((2, 0, 1),))
        assert ((a * b) * c).same_as(a * (b * c))

    def test_word_split_composition(self):
        # factor(w1 w2, Z) = factor(w1, w2 Z) factor(w2, Z)
        full = [("S", 1), ("T1", -2), ("U1", 1), ("S", 3)]
        for cut in range(len(full) + 1):
            left, right = full[:cut], full[cut:]
            base_right = lft.word_product(right)
            split = _word_factor(left, base_right)[0] * word_factor(right)
            assert word_factor(full).same_as(split)

    def test_value36_matches_direct_factor(self):
        rng = np.random.default_rng(23)
        names = ["T1", "T2", "S", "U1", "U2", "commutator"]
        checked = 0
        while checked < 50:
            k = int(rng.integers(1, 4))
            word = [
                (names[rng.integers(0, len(names))], int(rng.integers(-3, 4)))
                for _ in range(k)
            ]
            z = domain_points(int(rng.integers(0, 10**6)), 1)[0]
            try:
                direct = eta36_factor(lft.word_product(word), z)
            except ZeroDivisionError:
                continue
            engine = factor_value36(word_factor(word), z)
            assert abs(direct - engine) <= 1e-10 * max(abs(direct), abs(engine))
            checked += 1


@pytest.fixture(scope="module")
def report():
    return eta_variant_identities()


class TestVariantIdentities:
    def test_all_sections_pass(self, report):
        assert set(report) == {"P4.1", "P4.2", "P4.3", "P4.4", "P4.5", "P4.6"}
        for key, section in report.items():
            assert all(section.values()), (key, [l for l, ok in section.items() if not ok])

    def test_every_row_passes(self):
        # _R_AUX rows are reached in the report only as quotient sub-rows
        tables = (eta._R41, eta._R42, eta._R418, eta._R43, eta._R_AUX,
                  eta._R44, eta._R45, eta._R46)
        for table in tables:
            for row in table.values():
                assert row.holds(), row.label

    def test_row_counts(self, report):
        counts = {k: len(v) for k, v in report.items()}
        assert counts == {
            "P4.1": 6,
            "P4.2": 11,
            "P4.3": 9,
            "P4.4": 5,
            "P4.5": 3,
            "P4.6": 4,
        }

    def test_conjugation_identity_exact(self, report):
        # the first stated conjugation: D1 T1 D1^-1 = T1^2 T2 [T1,T2]^-1
        from gl3schwarz.eta import D1

        lhs = D1 * GENS["T1"] * D1.inv()
        rhs = lft.word_product([("T1", 2), ("T2", 1), ("commutator", -1)])
        assert lhs == rhs

    def test_commutator_strip_identity(self, report):
        # eta1 absorbs one commutator via three on the plain function
        from gl3schwarz.eta import D1

        assert D1 * GENS["commutator"] ** -1 == GENS["commutator"] ** -3 * D1


def _p41_phase(mp):
    row = eta._R41["T1"]
    mp.setitem(eta._R41, "T1", replace(row, phase=row.phase + Fraction(1, 3)))


def _p42_word(mp):
    row = eta._R42["g1a"]
    mp.setitem(eta._R42, "g1a", replace(row, word=(("U1", 2), ("T2", 1))))


def _p43_explicit_matrix(mp):
    mp.setattr(eta, "M4", eta.M4 * GENS["T1"])


def _p44_target(mp):
    mp.setitem(eta._R44, "g3", replace(eta._R44["g3"], target="phi1"))


def _p45_aux_word(mp):
    row = eta._R45["phi1"]
    assert row.num_row is eta._R_AUX["eta1_c"]
    sub = replace(row.num_row, word=(("commutator", 2),))
    mp.setitem(eta._R45, "phi1", replace(row, num_row=sub))


def _p46_aux_claim(mp):
    # the quotient claim moves with the sub-row, so only the sub-row can fail
    row = eta._R46["phi2"]
    assert row.den_row is eta._R_AUX["eta2_s3c-3s3"]
    sub = replace(row.den_row, phase=row.den_row.phase + Fraction(1, 3))
    mp.setitem(eta._R46, "phi2", replace(row, den_row=sub, phase=row.phase - Fraction(1, 3)))


@pytest.fixture
def fresh_identities():
    # torn down before monkeypatch: the mutated table must not stay cached
    yield
    eta_variant_identities.cache_clear()


# negative controls: one mutated table entry fails its own check and no other
@pytest.mark.parametrize(
    "check, mutate",
    [
        ("P4.1", _p41_phase),
        ("P4.2", _p42_word),
        ("P4.3", _p43_explicit_matrix),
        ("P4.4", _p44_target),
        ("P4.5", _p45_aux_word),
        ("P4.6", _p46_aux_claim),
    ],
)
def test_a_mutated_identity_fails_its_check_only(monkeypatch, fresh_identities, check, mutate):
    mutate(monkeypatch)
    eta_variant_identities.cache_clear()
    failed = {c["id"] for c in run_suites(("eta",), seed=42)["checks"] if not c["pass"]}
    assert failed == {check}


class TestEta36:
    def test_identity_map_direct_arithmetic(self):
        def vmap(z):
            return (
                Jet.variable(2, 1, 0, base=z[0]),
                Jet.variable(2, 1, 1, base=z[1]),
            )

        z1, z2 = 2 + 1j, 0.5
        expected = (
            z1**-3 * z2**-3 * (1 - z1) ** -2 * (1 - z2) ** -2 * (z1 - z2) ** -2
        )
        assert eta36(vmap((z1, z2))) == pytest.approx(expected)

    def test_constant_rescaling(self):
        c = 2.0
        z = (2 + 1j, 0.5)

        def scaled(zz):
            v1, v2 = s_invariant_map(zz)
            return c * v1, c * v2

        v1, v2 = [j.value for j in s_invariant_map(z)]
        ratio = ((1 - v1) * (1 - v2) / ((1 - c * v1) * (1 - c * v2))) ** 2
        assert eta36(scaled(z)) == pytest.approx(eta36(s_invariant_map(z)) * ratio)

    def test_s_map_finite_at_spec_point(self):
        value = eta36(s_invariant_map((2 + 1j, 0.5)))
        assert value == pytest.approx(-0.07475915771899114 - 0.04842857645244865j)

    def test_hand_recomputation(self):
        z1, z2 = 1.3 - 0.4j, 0.6 + 0.2j
        v1 = z1 + 1 / z1
        v2 = z2**2 / z1
        jac = (1 - z1**-2) * (2 * z2 / z1)
        expected = (
            v1**-3 * v2**-3 * (1 - v1) ** -2 * (1 - v2) ** -2 * (v1 - v2) ** -2 * jac**4
        )
        assert eta36(s_invariant_map((z1, z2))) == pytest.approx(expected)

    def test_pole_rejection(self):
        with pytest.raises(ValueError):
            eta36(s_invariant_map((2 + 1j, 0.0)))  # Jacobian vanishes
        with pytest.raises(ValueError):
            eta36(s_invariant_map((1.0, 2**0.5)))  # v1 = v2


class TestTransformChecks:
    def test_s_at_spec_point(self):
        assert eta36_transform_check(GENS["S"], s_invariant_map, (2 + 1j, 0.5)) < 1e-9

    def test_identity_matrix(self):
        r = eta36_transform_check(
            lft.EisMatrix.identity(), s_invariant_map, (2 + 1j, 0.5)
        )
        assert r == 0.0

    def test_translation_cell(self):
        g = GENS["commutator"] ** 3
        assert eta36_transform_check(g, translation_invariant_map, (2 + 1j, 0.5)) < 1e-9

    def test_ten_domain_points(self):
        g3 = GENS["commutator"] ** 3
        for z in domain_points(7, 10):
            assert eta36_transform_check(GENS["S"], s_invariant_map, z) < 1e-9
            assert eta36_transform_check(g3, translation_invariant_map, z) < 1e-9

    def test_s_factor_is_w1_12(self):
        z = (2 + 1j, 0.5)
        assert eta36_factor(GENS["S"], z) == pytest.approx(z[0] ** 12)

    def test_builds_each_maps_jets_once(self):
        # the jets at z and at g z serve both the invariance refusal and eta36
        calls = []

        def counted(z):
            calls.append(z)
            return s_invariant_map(z)

        z = (np.array([2 + 1j, 1.3 - 0.4j]), np.array([0.5, 0.6 + 0.2j]))
        assert (eta36_transform_check(GENS["S"], counted, z) < 1e-9).all()
        assert len(calls) == 2

    def test_non_invariant_map_rejected(self):
        with pytest.raises(ValueError):
            eta36_transform_check(GENS["S"], translation_invariant_map, (2 + 1j, 0.5))
