"""Acceptance gate: the thirteen verification criteria, one test each.

The seeded report is computed once and shared; every criterion asserts that
its checks ran at the stated tolerance and sample count and passed, then
prints a single line. Run with -s (or rely on pytest -v) for the lines.
"""

import time
from fractions import Fraction

import pytest

from gl3schwarz import picard
from gl3schwarz.eta import ledger_multipliers
from gl3schwarz.picard import modular_solve, pullback_gaps
from gl3schwarz.report import render_report, run_suites

SEED = 42


@pytest.fixture(scope="module")
def timed_report():
    t0 = time.perf_counter()
    rep = run_suites(("all",), seed=SEED)
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def entries(timed_report):
    rep, _ = timed_report
    return {e["id"]: e for e in rep["checks"]}


def require(entries, cid, tolerance, samples=None):
    e = entries[cid]
    assert e["tolerance"] == tolerance, f"{cid}: tolerance drifted"
    if samples is not None:
        assert e["samples"] == samples, f"{cid}: sample count drifted"
    assert e["pass"], f"{cid}: residual {e['residual']} exceeds {tolerance}"
    return e


def passed(num, text):
    print(f"criterion {num:2d} PASS: {text}")


def test_c01_exact_group_algebra(entries):
    e = require(entries, "group-algebra", 0.0, samples=19)
    assert e["residual"] == 0.0
    passed(1, "generator decompositions, commutator, fourth powers, unitarity "
              "hold exactly over Eisenstein integers")


def test_c02_phase_ledger_rationals(entries):
    require(entries, "eta-ledger", 0.0, samples=9)
    got = set(ledger_multipliers().values())
    want = {
        Fraction(7, 27), Fraction(-5, 27), Fraction(1, 27), Fraction(-23, 27),
        Fraction(26, 27), Fraction(19, 27), Fraction(2, 9), Fraction(13, 54),
        Fraction(2, 27),
    }
    assert got == want
    passed(2, "all nine ledger multipliers reproduced as exact rationals")


def test_c03_invariance_and_vanishing(entries):
    require(entries, "invariance", 1e-10, samples=50)
    require(entries, "vanishing", 1e-10, samples=50)
    passed(3, "matrix invariance and vanishing characterization, "
              "50 seeded instances each, residual < 1e-10")


def test_c04_identity_families(entries):
    for cid in ("chain-rule", "cocycle", "cocycle-u", "second-argument",
                "jacobian-deformation"):
        require(entries, cid, 1e-9, samples=20)
    passed(4, "chain rule, both cocycles, second-argument transform and "
              "Jacobian deformation on 20 map chains each, residual < 1e-9")


def test_c05_exponential_oracle(entries):
    require(entries, "exp-oracle", 1e-10, samples=10)
    passed(5, "exponential-solution systems match the closed-form quad "
              "for 10 random triples, residual < 1e-10")


def test_c06_mt1(entries):
    require(entries, "MT1", 1e-8, samples=20)
    require(entries, "MT1-branch", 1e-12, samples=5)
    passed(6, "cube-root linear system residuals < 1e-8 on 20 maps; "
              "branch rotation shifts them by < 1e-12")


def test_c07_mt2(entries):
    # each branch check covers both parameter sets at every sampled point
    require(entries, "MT2-first", 1e-8, samples=10)
    require(entries, "MT2-second", 1e-8, samples=10)
    passed(7, "closed-form solutions satisfy the system on both branches "
              "and both parameter sets, residual < 1e-8")


def test_c08_f1_stack(entries):
    require(entries, "F1-euler", 1e-8, samples=50)
    require(entries, "F1-pde", 1e-8)
    require(entries, "F1-picard-gamma", 1e-6)
    require(entries, "F1-k3", 1e-6)
    e = require(entries, "F1-beta", 1e-10)
    assert e["residual"] < 1e-10
    passed(8, "series vs integral, system residuals, Gamma identity, "
              "quartic-surface identity and the Beta special value all hold")


def test_c09_mt3(entries, monkeypatch):
    require(entries, "MT3", 1e-10, samples=100)
    require(entries, "MT3-constraint", 1e-12, samples=50)
    # identity moduli: exact by construction
    assert pullback_gaps((2, 3), (2, 3), (0.7, 1.1)) < 1e-14
    # negative control: break the modular relation and the identity dies
    u = (2, 3)
    v_bad = (modular_solve(u, 4)[0] + 0.1, 4)
    with pytest.raises(ValueError):
        pullback_gaps(u, v_bad, (0.7, 1.1))
    # with the modular-equation gate replaced by the bare coefficient formulas
    monkeypatch.setattr(picard, "transform_abg", picard._abg_unchecked)
    assert pullback_gaps(u, v_bad, (0.7, 1.1)) > 1e-3
    passed(9, "cubed pullback identity < 1e-10, parameter constraint < 1e-12, "
              "identity case exact, perturbed moduli rejected")


def test_c10_j_orbit_and_tables(entries):
    require(entries, "J-orbit", 1e-10, samples=50)
    require(entries, "param-table", 1e-10, samples=50)
    require(entries, "sign-tables", 1e-12, samples=100)
    passed(10, "orbit invariance of both invariants, the five parameter "
               "rows and the sign/weight identities all hold")


def test_c11_eta36(entries):
    require(entries, "eta36", 1e-9, samples=10)
    passed(11, "36th-power transformation law on the symmetric and "
               "commutator-invariant test maps, residual < 1e-9")


def test_c12_mt4(entries):
    require(entries, "MT4", 1e-12, samples=10)
    require(entries, "MT4-galilean", 1e-10, samples=10)
    require(entries, "MT4-invariance", 1e-10, samples=10)
    passed(12, "field equations vanish on both solution families; Galilean "
               "covariance and matrix invariance hold on random data")


def test_c13_determinism_and_speed(timed_report):
    rep, elapsed = timed_report
    assert rep["summary"]["failed"] == 0
    again = run_suites(("all",), seed=SEED)
    assert render_report(rep).encode() == render_report(again).encode()
    assert elapsed < 60.0
    passed(13, f"full report byte-identical across runs, {elapsed:.1f}s wall")
