"""Suite runner: determinism, filtering, overrides, schema."""

import hashlib
import json
import math
from dataclasses import replace

import pytest

from gl3schwarz import report
from gl3schwarz.report import (
    CHECKS,
    SCHEMA,
    render_report,
    run_suites,
    split_seed,
)
from gl3schwarz.worst import worst_of

ALL_IDS = sorted(c.id for c in CHECKS)


class TestSplitSeed:
    def test_counted_scheme(self):
        digest = hashlib.sha256(b"42:MT1").digest()
        assert split_seed(42, "MT1") == int.from_bytes(digest[:8], "big")

    def test_distinct_labels(self):
        assert split_seed(42, "MT1") != split_seed(42, "MT2-first")
        assert split_seed(42, "MT1") != split_seed(43, "MT1")


class TestStream:
    # each check draws from random.Random(split_seed(seed, id)), whose
    # stream is the same on every CPython: these numbers are pinned
    def test_pinned_first_draws(self):
        assert split_seed(42, "MT1") == 16935737738768230787
        first = [0.214891615016211, 0.010603520986217863]
        assert report._rng(42, "MT1")[0].random(2).tolist() == first
        rng = report._rng(42, "MT1")[0]
        assert [rng.random(), rng.random()] == first

    def test_a_stacked_draw_is_single_draws_in_order(self):
        stacked, single = report._rng(7, "MT4")[0], report._rng(7, "MT4")[0]
        block = stacked.uniform(-1.5, 2.0, (3, 4))
        assert block.shape == (3, 4)
        assert block.ravel().tolist() == [single.uniform(-1.5, 2.0) for _ in range(12)]
        assert stacked.generator.getstate() == single.generator.getstate()

    def test_draws_stay_in_range(self):
        rng = report._rng(1, "range")[0]
        u = rng.uniform(-0.5, 0.25, 1000)
        assert ((-0.5 <= u) & (u < 0.25)).all()


class TestSelection:
    def test_suites_cover_all_checks(self):
        listed = sorted(i for ids in report.SUITES.values() for i in ids)
        assert listed == ALL_IDS

    def test_eta_suite_composition(self):
        rep = run_suites(("eta",), seed=7)
        assert [e["id"] for e in rep["checks"]] == [
            "P4.1", "P4.2", "P4.3", "P4.4", "P4.5", "P4.6", "eta-ledger", "eta36",
        ]

    def test_multiple_suites_union(self):
        rep = run_suites(("group", "evolution"), seed=7, samples=2)
        assert [e["id"] for e in rep["checks"]] == [
            "MT4", "MT4-galilean", "MT4-invariance", "group-algebra",
        ]

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suites(("nope",), seed=1)

    def test_unknown_override(self):
        with pytest.raises(ValueError, match="unknown check"):
            run_suites(("group",), seed=1, tol_overrides={"nope": 1.0})


class TestDeterminism:
    def test_byte_identical(self):
        a = render_report(run_suites(("derivs",), seed=42, samples=3))
        b = render_report(run_suites(("derivs",), seed=42, samples=3))
        assert a.encode() == b.encode()

    def test_byte_identical_with_cached_eta_table(self):
        # the second run reads the eta identity table the first one computed
        a = render_report(run_suites(("eta", "group"), seed=42))
        b = render_report(run_suites(("eta", "group"), seed=42))
        assert a.encode() == b.encode()

    def test_seed_changes_residuals(self):
        a = run_suites(("derivs",), seed=42, samples=3)
        b = run_suites(("derivs",), seed=43, samples=3)
        ra = [e["residual"] for e in a["checks"]]
        rb = [e["residual"] for e in b["checks"]]
        assert ra != rb


@pytest.fixture(scope="module")
def rep():
    return run_suites(("eta", "group"), seed=11)


class TestSchema:
    def test_top_level(self, rep):
        assert rep["schema"] == SCHEMA
        assert rep["seed"] == 11
        assert rep["suites"] == ["eta", "group"]
        assert rep["summary"] == {"total": 9, "passed": 9, "failed": 0}

    def test_check_fields(self, rep):
        for e in rep["checks"]:
            assert set(e) == {
                "id", "anchor", "residual", "tolerance", "pass", "samples", "seed",
            }
            assert e["seed"] == split_seed(11, e["id"])

    def test_sorted_by_id(self, rep):
        ids = [e["id"] for e in rep["checks"]]
        assert ids == sorted(ids)

    def test_render_text(self, rep):
        text = render_report(rep, "text")
        assert text.count("PASS") == 9
        assert "9/9 checks passed (seed 11)" in text

    def test_render_unknown_format(self, rep):
        with pytest.raises(ValueError):
            render_report(rep, "yaml")

    def test_json_round_trip(self, rep):
        assert json.loads(render_report(rep, "json")) == rep


class TestOverrides:
    def test_samples_leave_exact_checks_alone(self):
        rep = run_suites(("eta", "derivs"), seed=3, samples=2)
        by_id = {e["id"]: e for e in rep["checks"]}
        assert by_id["chain-rule"]["samples"] == 2
        assert by_id["P4.2"]["samples"] == 11
        assert by_id["eta-ledger"]["samples"] == 9

    @pytest.mark.parametrize("samples", [0, -4])
    def test_samples_below_one_are_refused(self, samples):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            run_suites(("derivs",), seed=3, samples=samples)

    def test_tolerance_override_fails_check(self):
        rep = run_suites(("derivs",), seed=3, samples=2, tol_overrides={"cocycle": 0.0})
        by_id = {e["id"]: e for e in rep["checks"]}
        assert not by_id["cocycle"]["pass"]
        assert by_id["chain-rule"]["pass"]
        assert rep["summary"]["failed"] == 1

    def test_exact_checks_refuse_a_tolerance_override(self):
        with pytest.raises(ValueError, match=r"exact check\(s\): \['P4.1', 'group-algebra'\]"):
            overrides = {"group-algebra": 1.0, "P4.1": 0.0, "eta36": 1e-6}
            run_suites(("group",), seed=3, tol_overrides=overrides)

    def test_env_tolerance(self, monkeypatch):
        monkeypatch.setenv("GL3SCHWARZ_TOL", "1e-20")
        rep = run_suites(("eta",), seed=3, samples=2)
        by_id = {e["id"]: e for e in rep["checks"]}
        # sampled checks now fail, exact rational checks are untouched
        assert not by_id["eta36"]["pass"]
        assert by_id["eta36"]["tolerance"] == 1e-20
        assert by_id["P4.1"]["pass"] and by_id["P4.1"]["tolerance"] == 0.0

    def test_explicit_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("GL3SCHWARZ_TOL", "1e-20")
        rep = run_suites(
            ("eta",), seed=3, samples=2, tol_overrides={"eta36": 1e-6}
        )
        by_id = {e["id"]: e for e in rep["checks"]}
        assert by_id["eta36"]["pass"]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _run_samples(monkeypatch, samples):
    """Report of one synthetic check whose runner yields `samples`."""

    def runner(rng, n):
        yield from samples

    run = report._reduce(runner, None)
    fake = report.CheckDef("fake-check", "fake", "synthetic samples", 1e-10, len(samples), run)
    monkeypatch.setattr(report, "CHECKS", CHECKS + (fake,))
    monkeypatch.setitem(report.SUITES, "fake", [fake.id])
    return run_suites(("fake",), seed=42)


def _refusing(check_id, error):
    """CHECKS with the named check's run raising error."""

    def run(rng, n):
        raise error

    return tuple(replace(c, run=run) if c.id == check_id else c for c in CHECKS)


class TestRefusedCheck:
    # a refusal raised inside one check fails that check, with its message,
    # and the rest of the report still runs
    @pytest.mark.parametrize(
        "error",
        [
            ValueError("zero Jacobian at base point (sample 3)"),
            ZeroDivisionError("vanishing denominator (sample 0)"),
            OverflowError("J invariants overflow"),
        ],
        ids=lambda e: type(e).__name__,
    )
    def test_a_raising_check_fails_with_its_message(self, monkeypatch, error):
        monkeypatch.setattr(report, "CHECKS", _refusing("cocycle", error))
        rep = run_suites(("derivs",), seed=42, samples=3)
        by_id = {e["id"]: e for e in rep["checks"]}
        entry = by_id.pop("cocycle")
        assert entry["residual"] is None and entry["pass"] is False
        assert entry["samples"] == 3 and entry["error"] == str(error)
        assert all(e["pass"] and "error" not in e for e in by_id.values())
        assert rep["summary"] == {"total": 8, "passed": 7, "failed": 1}
        assert json.loads(render_report(rep), parse_constant=_reject_constant) == rep
        assert f"n=3  error: {error}" in render_report(rep, "text")


# Sample counts of every check at seed 42 with the default budgets; each is
# the number of residuals its runner yields, so a runner that skips or
# repeats samples shows up here.
SAMPLES_AT_SEED_42 = {
    "F1-beta": 1, "F1-euler": 50, "F1-k3": 10, "F1-pde": 20, "F1-picard-gamma": 10,
    "J-orbit": 50, "MT1": 20, "MT1-branch": 5, "MT2-first": 10, "MT2-picard": 5,
    "MT2-picard-modular": 5, "MT2-second": 10, "MT3": 100, "MT3-constraint": 50,
    "MT4": 10, "MT4-galilean": 10, "MT4-invariance": 10, "P4.1": 6, "P4.2": 11,
    "P4.3": 9, "P4.4": 5, "P4.5": 3, "P4.6": 4, "chain-rule": 20, "cocycle": 20,
    "cocycle-u": 20, "eta-ledger": 9, "eta36": 10, "exp-oracle": 10,
    "group-algebra": 19, "invariance": 50, "jacobian-deformation": 20,
    "param-table": 50, "second-argument": 20, "sign-tables": 100, "vanishing": 50,
}


class TestSampleCounts:
    def test_counts_at_seed_42(self):
        rep = run_suites(seed=42)
        assert {e["id"]: e["samples"] for e in rep["checks"]} == SAMPLES_AT_SEED_42
        assert rep["summary"]["failed"] == 0


# Test-only ceilings on the residual of every sampled check: 100 times its
# worst over seeds 1-50, rounded up to two digits, measured on numpy's
# PCG64 streams, which the report drew from before random.Random.  The pde,
# picard and f1 rows were measured on the row-by-row series engine before
# the factored convolution; the derivs, evolution and eta36 rows on the
# per-term jet algorithms before the whole-array kernels.  The exp-oracle
# row was measured again on the report's Mersenne Twister streams once its
# residual became the whole order-1 jet's gap over max(1, |predicted|).  On
# those streams no check's worst over seeds 1-50 exceeds 7% of its ceiling
# (vanishing, over its whole order-1 jet, 6.7%; eta36 5.7%; the others 2.0%
# or less).  The
# report's tolerances stay the contract; they are 1 (MT3) to 1e7 (F1-k3)
# times looser than these ceilings, so a precision regression fails here
# long before it fails there.
CEILINGS = {
    "F1-beta": 8.9e-14, "F1-euler": 1.6e-11, "F1-k3": 6.4e-11, "F1-pde": 1.8e-12,
    "F1-picard-gamma": 7.2e-11, "J-orbit": 6.3e-13, "MT1": 1.4e-13, "MT1-branch": 2.0e-13,
    "MT2-first": 4.9e-11, "MT2-picard": 4.4e-11, "MT2-picard-modular": 9.1e-12,
    "MT2-second": 9.9e-12, "MT3": 1.1e-10, "MT3-constraint": 1.4e-13,
    "param-table": 7.1e-12, "sign-tables": 6.1e-12,
    "chain-rule": 1.0e-13, "cocycle": 2.7e-13, "cocycle-u": 3.0e-13, "exp-oracle": 8.2e-13,
    "invariance": 4.5e-12, "jacobian-deformation": 9.0e-14, "second-argument": 3.4e-13,
    "vanishing": 2.9e-13, "eta36": 1.3e-12, "MT4-galilean": 6.7e-14, "MT4-invariance": 8.6e-14,
    # exactly 0.0 on every seed: both MT4 field families have zero spatial
    # partials, so every product term of the residual vanishes
    "MT4": 0.0,
}


def _over_the_ceiling(rep):
    """(id, residual) of each check that fails or passes its ceiling.

    A check without a ceiling (the exact ones) is held to its tolerance.
    """
    return [
        (e["id"], e["residual"])
        for e in rep["checks"]
        if not (e["pass"] and e["residual"] <= CEILINGS.get(e["id"], e["tolerance"]))
    ]


class TestSeedSweep:
    # Full sample counts on purpose: the draws that strain a check are rare
    # and need not come early.  With samples=3, seed 20 would skip its
    # fourth MT3-constraint sample, whose product terms reach 1.8e4, the
    # largest of seeds 1..50.
    @pytest.mark.parametrize("seed", range(1, 51))
    def test_pde_and_picard_pass(self, seed):
        assert _over_the_ceiling(run_suites(("pde", "picard"), seed=seed)) == []

    @pytest.mark.parametrize("seed", range(1, 51))
    def test_f1_stays_under_its_ceilings(self, seed):
        assert _over_the_ceiling(run_suites(("f1",), seed=seed)) == []

    @pytest.mark.parametrize("seed", range(1, 51))
    def test_derivs_evolution_and_eta_stay_under_their_ceilings(self, seed):
        assert _over_the_ceiling(run_suites(("derivs", "evolution", "eta"), seed=seed)) == []

    def test_every_check_has_a_ceiling(self):
        assert {c.id for c in CHECKS if c.samples} == set(CEILINGS)


class TestNonFinite:
    @pytest.mark.parametrize(
        "samples",
        [[0.0, float("nan"), 0.0], [0.0, float("inf"), 0.0], [1e-20, float("inf"), float("nan")]],
    )
    def test_non_finite_sample_fails(self, monkeypatch, samples):
        rep = _run_samples(monkeypatch, samples)
        (entry,) = rep["checks"]
        assert entry["residual"] is None
        assert entry["pass"] is False
        assert rep["summary"] == {"total": 1, "passed": 0, "failed": 1}
        text = render_report(rep)
        assert json.loads(text, parse_constant=_reject_constant) == rep
        assert "FAIL  fake-check" in render_report(rep, "text")

    def test_shared_reduction_counts_and_keeps_a_late_nan(self, monkeypatch):
        rep = _run_samples(monkeypatch, [0.0, float("nan"), 0.0])
        (entry,) = rep["checks"]
        assert entry["samples"] == 3
        assert entry["residual"] is None and entry["pass"] is False
        residual, used = report._reduce(lambda rng, n: iter([0.0, float("nan"), 0.0]), None)(None, 0)
        assert math.isnan(residual) and used == 3

    def test_finite_samples_keep_their_maximum(self, monkeypatch):
        (entry,) = _run_samples(monkeypatch, [1e-12, 3e-11, 2e-11])["checks"]
        assert entry["residual"] == 3e-11 and entry["pass"] is True

    def test_worst_of_keeps_a_late_nan(self):
        assert max([0.0, float("nan")]) == 0.0
        assert math.isnan(worst_of([0.0, float("nan"), 1.0]))
        assert worst_of([1e-3, float("inf")]) == float("inf")
        assert math.isnan(worst_of([1.0, float("inf"), 2.0, float("nan")]))
        assert worst_of(v for v in (2.0, 3.0, 1.0)) == 3.0

    def test_nan_in_report_is_rejected(self):
        rep = run_suites(("group",), seed=42)
        rep["checks"][0]["residual"] = float("nan")
        with pytest.raises(ValueError):
            render_report(rep)
