"""F1 series vs Euler integral, PDE residuals, Picard and K integrals."""

import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from gl3schwarz import appell
from gl3schwarz.appell import (
    F1Params,
    _diagonal_budget,
    _jacobi_rule,
    _shifted_sums,
    f1_euler,
    f1_pde_residual,
    f1_series,
    gamma,
    k_integral,
    k_integral_substituted,
    picard_f1_identity_rhs,
    picard_integral,
)
from gl3schwarz.jets import Jet, monomials
from gl3schwarz.report import run_suites

mpmath.mp.dps = 30

PARAM_SETS = [
    ("1/3", "1/3", "1/3", 1),
    ("1/4", "1/4", "1/4", 1),
    ("2/3", "1/3", "1/3", "4/3"),
]


class TestGamma:
    def test_basic_values(self):
        assert abs(gamma(1) - 1) < 1e-14
        assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-14

    def test_reflection(self):
        assert abs(gamma(1 / 3) * gamma(2 / 3) - 2 * math.pi / math.sqrt(3)) < 1e-12

    def test_recurrence(self):
        assert abs(gamma(4 / 3) - gamma(1 / 3) / 3) < 1e-12

    def test_pole(self):
        with pytest.raises(ValueError):
            gamma(-2)

    def test_complex_strip(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            z = complex(rng.uniform(0.2, 3), rng.uniform(-2, 2))
            ref = complex(mpmath.gamma(z))
            assert abs(gamma(z) - ref) <= 1e-12 * abs(ref)

    def test_real_axis_matches_mpmath(self):
        # negative non-integers included: math.gamma takes them directly
        for x in np.linspace(-4.95, 9.95, 150):
            ref = float(mpmath.gamma(x))
            assert abs(gamma(x) - ref) <= 1e-14 * abs(ref)

    def test_off_axis_matches_mpmath(self):
        # left of Re z = 1/2 the Lanczos sum goes through the reflection formula
        for re in np.linspace(-5, 10, 31):
            for im in (-5.0, -1.3, -0.01, 0.01, 0.7, 5.0):
                z = complex(re, im)
                ref = complex(mpmath.gamma(z))
                assert abs(gamma(z) - ref) <= 1e-13 * abs(ref)


class TestJacobiRule:
    # (-1/4, -3/4) has alpha + beta = -1, where the generic first
    # off-diagonal of the Jacobi matrix is 0/0; (1/2, -1/2) has alpha + beta
    # = 0, the same for the first diagonal entry; (198 2/3, -2/3) is the
    # rule behind f1_euler at a = 1/3, c = 200
    @pytest.mark.parametrize(
        "n, alpha, beta",
        [
            (160, -1 / 3, -1 / 3),
            (160, -1 / 3, -2 / 3),
            (160, -1 / 3, 0.0),
            (160, -1 / 4, -3 / 4),
            (40, -0.9, -0.1),
            (8, 1 / 2, -1 / 2),
            (160, 198 + 2 / 3, -2 / 3),
        ],
    )
    def test_beta_moments_are_exact(self, n, alpha, beta):
        # int_0^1 t^(beta+k) (1-t)^alpha dt = B(beta+k+1, alpha+1), k <= 2n-1
        t, w = _jacobi_rule(n, alpha, beta)
        assert np.all(np.diff(t) > 0) and 0 < t[0] and t[-1] < 1
        for k in range(2 * n):
            ref = float(mpmath.beta(mpmath.mpf(beta) + k + 1, mpmath.mpf(alpha) + 1))
            assert abs(np.sum(w * t**k) - ref) <= 1e-11 * ref, k


class TestF1Series:
    def test_at_origin(self):
        p = F1Params("1/3", "1/2", "1/4", 2)
        assert abs(f1_series(p, 0.0, 0.0) - 1) < 1e-15

    def test_gauss_collapse(self):
        p = F1Params("1/3", "1/3", "1/3", 1)
        assert abs(f1_series(p, 0.3, 0.0) - float(mpmath.hyp2f1(1 / 3, 1 / 3, 1, 0.3))) < 1e-12

    def test_against_mpmath(self):
        rng = np.random.default_rng(3)
        for a, b, bp, c in PARAM_SETS:
            p = F1Params(a, b, bp, c)
            for _ in range(5):
                x = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45))
                y = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45))
                ref = complex(
                    mpmath.appellf1(complex(p.a), complex(p.b), complex(p.bprime), complex(p.c), x, y)
                )
                assert abs(f1_series(p, x, y) - ref) < 1e-10

    def test_jet_partials_match_finite_differences(self):
        p = F1Params("1/3", "1/3", "1/3", 1)
        X = Jet.variable(2, 2, 0, base=0.2)
        Y = Jet.variable(2, 2, 1, base=-0.1)
        F = f1_series(p, X, Y)
        h = 1e-6
        fdx = (f1_series(p, 0.2 + h, -0.1) - f1_series(p, 0.2 - h, -0.1)) / (2 * h)
        fdy = (f1_series(p, 0.2, -0.1 + h) - f1_series(p, 0.2, -0.1 - h)) / (2 * h)
        assert abs(F.partial((1, 0)) - fdx) < 1e-7
        assert abs(F.partial((0, 1)) - fdy) < 1e-7

    def test_domain_errors(self):
        p = F1Params("1/3", "1/3", "1/3", 1)
        with pytest.raises(ValueError):
            f1_series(p, 1.2, 0.0)
        with pytest.raises(ValueError):
            f1_series(F1Params(1, 1, 1, 0), 0.1, 0.1)


# Near the unit circle: one point with |x| = 0.95 and one with |y| = 0.95.
EDGE_POINTS = [(0.95 * cmath.exp(2.1j), 0.6j), (0.4 - 0.3j, 0.95 * cmath.exp(-2.4j))]
PARTIALS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
_H = mpmath.mpf("1e-8")


def _mp_f1(params, x, y):
    """mpmath.appellf1 with the larger argument first.

    F1(a; b, b'; c; x, y) = F1(a; b', b; c; y, x).  mpmath is fast when its
    second argument is the smaller one and the first has a negative real
    part, as at EDGE_POINTS.
    """
    a, b, bp, c = (mpmath.mpf(Fraction(v).numerator) / Fraction(v).denominator for v in params)
    if abs(y) > abs(x):
        x, y, b, bp = y, x, bp, b
    return mpmath.appellf1(a, b, bp, c, x, y)


def _mp_partials(params, x, y):
    """Value, first and second partials from central differences of mpmath.appellf1.

    mpmath.diff works at about three times the precision for a second
    partial and takes seconds per point here; at 30 digits a step of 1e-8
    leaves errors near 1e-14 relative.
    """
    v = {(i, j): _mp_f1(params, x + i * _H, y + j * _H) for i in (-1, 0, 1) for j in (-1, 0, 1)}
    return {
        (0, 0): v[0, 0],
        (1, 0): (v[1, 0] - v[-1, 0]) / (2 * _H),
        (0, 1): (v[0, 1] - v[0, -1]) / (2 * _H),
        (2, 0): (v[1, 0] - 2 * v[0, 0] + v[-1, 0]) / _H**2,
        (1, 1): (v[1, 1] - v[1, -1] - v[-1, 1] + v[-1, -1]) / (4 * _H**2),
        (0, 2): (v[0, 1] - 2 * v[0, 0] + v[0, -1]) / _H**2,
    }


class TestF1NearUnitCircle:
    @pytest.mark.parametrize("x, y", EDGE_POINTS, ids=["x-edge", "y-edge"])
    @pytest.mark.parametrize("params", PARAM_SETS + [("1/3", "1/2", "1/4", "3/2")])
    def test_value_and_partials_match_mpmath(self, params, x, y):
        p = F1Params(*params)
        ref = {k: complex(v) for k, v in _mp_partials(params, x, y).items()}
        assert abs(f1_series(p, x, y) - ref[0, 0]) <= 1e-11 * abs(ref[0, 0])
        F = f1_series(p, Jet.variable(2, 2, 0, base=x), Jet.variable(2, 2, 1, base=y))
        for alpha in PARTIALS:
            assert abs(F.partial(alpha) - ref[alpha]) <= 1e-11 * abs(ref[alpha]), alpha

    def test_past_the_diagonal_budget_is_a_domain_error(self):
        p = F1Params(*PARAM_SETS[0])
        with pytest.raises(ValueError, match="unit circle"):
            f1_series(p, 0.999, 0.1)
        with pytest.raises(ValueError, match="unit circle"):
            f1_series(p, Jet.variable(2, 2, 0, base=0.1), Jet.variable(2, 2, 1, base=-0.999j))


def _loop_shifted_sums(p, shifts, x, y, tol):
    """The shifted sums one anti-diagonal per Python step, and the diagonal they stopped on.

    The series engine before slabs, kept as the reference for _shifted_sums.
    """
    i, j = np.asarray(shifts, dtype=float).T
    r = max(abs(x), abs(y))
    growth = max(0.0, (p.a + p.b + p.bprime - p.c).real - 1.0 + float(np.max(i + j)))
    budget = _diagonal_budget(r, growth, tol)
    quiet_tol = tol * (1.0 - r)
    k = np.arange(budget)
    step = (p.a + (i + j)[:, None] + k) / (p.c + (i + j)[:, None] + k)
    col_x = (p.b + i[:, None] + k) / (k + 1) * x
    col_y = (p.bprime + j[:, None] + k) / (k + 1) * y
    row = np.ones((len(i), 1), dtype=np.complex128)
    total = row[:, 0].copy()
    quiet = 0
    for d in range(1, budget + 1):
        new = np.empty((len(i), d + 1), dtype=np.complex128)
        new[:, 0] = row[:, 0] * step[:, d - 1] * col_y[:, d - 1]
        new[:, 1:] = row * step[:, d - 1 : d] * col_x[:, :d]
        row = new
        block = row.sum(axis=1)
        total += block
        quiet = quiet + 1 if np.all(np.abs(block) <= quiet_tol * np.abs(total)) else 0
        if quiet == 3:
            return total, d
    raise ValueError(f"series did not settle within {budget} anti-diagonals")


def _assert_matches_loop(p, shifts, x, y, tol=1e-12):
    """Slab sums within 1e-13 relative of the loop's, or the loop's ValueError.

    Returns the diagonal the loop stopped on (None where it raised).
    """
    try:
        want, stop = _loop_shifted_sums(p, shifts, x, y, tol)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _shifted_sums(p, shifts, x, y, tol)
        assert str(got.value) == str(exc)
        return None
    got = _shifted_sums(p, shifts, x, y, tol)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
    return stop


LOOP_PARAMS = {
    "thirds": ("1/3", "1/3", "1/3", 1),
    "picard": ("2/3", "1/3", "1/3", "4/3"),
    "complex-a": ("0.3+0.2j", "1/3", "1/4", "3/2"),
    "terminating": (-3, "1/3", "1/2", "3/2"),  # (a)_d = 0 from d = 4 on
}
# (x, y) / r, with r = max(|x|, |y|)
LOOP_SHAPES = {
    "x-major": (cmath.exp(0.3j), 0.4),
    "y-major": (0.3 - 0.2j, cmath.exp(-1.2j)),
    "x-zero": (0.0, cmath.exp(1.0j)),
    "y-zero": (cmath.exp(-0.7j), 0.0),
}


class TestShiftedSumsMatchTheLoop:
    @pytest.mark.parametrize("shape", LOOP_SHAPES)
    @pytest.mark.parametrize("r", [0.1, 0.5, 0.85])
    @pytest.mark.parametrize("order", [0, 2, 3])
    @pytest.mark.parametrize("params", LOOP_PARAMS)
    def test_inside(self, params, order, r, shape):
        u, v = LOOP_SHAPES[shape]
        _assert_matches_loop(F1Params(*LOOP_PARAMS[params]), monomials(2, order), r * u, r * v)

    # near the unit circle, where rows are long and slabs narrow; at order 3
    # and past these points the sums of higher shifts lose their digits to
    # cancellation (TestSeriesConditioning)
    @pytest.mark.parametrize(
        "order, r, shape",
        [(0, 0.95, "y-major"), (0, 0.985, "x-major"), (0, 0.985, "x-zero"),
         (2, 0.95, "x-major"), (2, 0.985, "x-major"), (2, 0.985, "y-zero"),
         (3, 0.95, "x-major")],
    )
    @pytest.mark.parametrize("params", ["thirds", "complex-a"])
    def test_near_the_unit_circle(self, params, order, r, shape):
        u, v = LOOP_SHAPES[shape]
        _assert_matches_loop(F1Params(*LOOP_PARAMS[params]), monomials(2, order), r * u, r * v)

    def test_past_the_budget_raises_the_same_error(self):
        _assert_matches_loop(F1Params(*LOOP_PARAMS["thirds"]), monomials(2, 2), 0.995, 0.1)

    # slabs of a fixed width: the stopping test runs on across slab edges
    @pytest.mark.parametrize("width", [2, 3, 5])
    @pytest.mark.parametrize("order", [0, 2])
    def test_stopping_at_a_slab_edge(self, monkeypatch, order, width):
        ends = []

        def fixed(shifts, d, budget):
            w = min(width, budget - d)
            ends.append(d + w)
            return w

        monkeypatch.setattr(appell, "_slab_width", fixed)
        p, shifts = F1Params(*LOOP_PARAMS["thirds"]), monomials(2, order)
        offsets = set()
        for t in np.linspace(0.2, 0.8, 25):
            x, y = t * cmath.exp(0.3j), 0.4 * t
            ends.clear()
            stop = _assert_matches_loop(p, shifts, x, y)
            offsets |= {stop - e for e in ends if abs(stop - e) <= 1}
        # the diagonal before a slab's last, its last, the next slab's first
        assert offsets == {-1, 0, 1}

    @pytest.mark.parametrize("n_shifts", [1, 6, 10])
    @pytest.mark.parametrize("budget", [40, 100, 6000])
    def test_slab_widths(self, n_shifts, budget):
        # the widest slab whose buffer fits SLAB_SIZE, at least MIN_SLAB,
        # ending at the settling estimate budget // 2 - 4 and at the budget
        reach = budget // 2 - 4
        fits = lambda w, d: (w + 1) * n_shifts * (d + w + 1) <= appell.SLAB_SIZE  # noqa: E731
        for d in range(budget):
            w = appell._slab_width(n_shifts, d, budget)
            assert 1 <= w <= min(budget - d, math.isqrt(appell.SLAB_SIZE))
            if d < reach:
                assert d + w <= reach
            capped = d + w in (reach, budget)
            assert capped or w == appell.MIN_SLAB or (fits(w, d) and not fits(w + 1, d))
            assert capped or w >= appell.MIN_SLAB


class TestSeriesConditioning:
    # the series once returned -8.0e57 here, where mpmath gives +8.0e51
    def test_cancelled_digits_are_refused(self):
        p = F1Params(90, 90, 90, "1/2")
        with pytest.raises(ValueError, match="terms cancel"):
            f1_series(p, 0.3, -0.15)
        # a high shift of a jet near the unit circle: F1(a+3; ...) cancels
        # where the value itself does not
        x, y = 0.985 * (0.3 - 0.2j), 0.985 * cmath.exp(-1.2j)
        assert abs(f1_series(F1Params(*LOOP_PARAMS["thirds"]), x, y)) > 0
        with pytest.raises(ValueError, match="terms cancel"):
            _shifted_sums(F1Params(*LOOP_PARAMS["thirds"]), monomials(2, 3), x, y, 1e-12)

    @staticmethod
    def _record_conditioning(monkeypatch):
        worst = []
        conditioned = appell._conditioned

        def record(total, abs_total, tol):
            worst.append(float(np.max(abs_total / np.abs(total))))
            return conditioned(total, abs_total, tol)

        monkeypatch.setattr(appell, "_conditioned", record)
        return worst

    # the refusal sits at a ratio of tol / eps, about 4,500 at tol = 1e-12;
    # over seeds 1-50 the report's worst is 88 (seed 36)
    def test_report_points_keep_a_wide_margin(self, monkeypatch):
        worst = self._record_conditioning(monkeypatch)
        for seed in range(1, 11):
            run_suites(("pde", "f1", "picard"), seed=seed)
        assert 0 < len(worst) and max(worst) < 450

    def test_evaluator_points_are_well_conditioned(self, monkeypatch):
        worst = self._record_conditioning(monkeypatch)
        rng = np.random.default_rng(11)
        for r in (0.1, 0.25, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85):
            for params in PARAM_SETS:
                x = r * cmath.exp(1j * rng.uniform(-np.pi, np.pi))
                y = 0.8 * r * cmath.exp(1j * rng.uniform(-np.pi, np.pi))
                f1_series(F1Params(*params), x, y)
        assert max(worst) < 10


class TestF1Euler:
    def test_frozen_log_value(self):
        # (1,1,0,2) at x=1/2: integrand (1-t/2)^{-1}, value -2 ln(1/2)
        v = f1_euler(F1Params(1, 1, 0, 2), 0.5, 0.0)
        assert abs(v - 2 * math.log(2)) < 1e-12

    def test_reduces_to_gauss_at_y0(self):
        p = F1Params("1/3", "1/2", "1/4", "3/2")
        v = f1_euler(p, 0.25, 0.0)
        assert abs(v - float(mpmath.hyp2f1(1 / 3, 1 / 2, 3 / 2, 0.25))) < 1e-10

    # Gamma(c) alone overflows here; the prefactor once came out inf/inf = nan
    @pytest.mark.parametrize("a, c", [("1/3", 200), ("170", 400)])
    def test_large_c_matches_mpmath(self, a, c):
        v = f1_euler(F1Params(a, "1/3", "1/3", c), 0.2, 0.1)
        third = mpmath.mpf("1/3")
        ref = complex(mpmath.appellf1(mpmath.mpf(a), third, third, c, 0.2, 0.1))
        assert abs(v - ref) <= 1e-11 * abs(ref)

    def test_matches_series(self):
        rng = np.random.default_rng(4)
        for a, b, bp, c in PARAM_SETS:
            p = F1Params(a, b, bp, c)
            for _ in range(7):
                x = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45))
                y = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45))
                assert abs(f1_series(p, x, y) - f1_euler(p, x, y)) < 1e-8

    def test_domain_error(self):
        with pytest.raises(ValueError):
            f1_euler(F1Params(2, 1, 1, 1), 0.1, 0.1)  # c <= a

    # the rule once returned values 8e-3 and 4e-5 away from the series here
    @pytest.mark.parametrize("params", [("0.3+0.1j", "1/3", "1/3", 1), ("1/3", "1/3", "1/3", "1+0.1j")])
    def test_non_real_a_or_c_is_a_domain_error(self, params):
        with pytest.raises(ValueError, match="real a and c"):
            f1_euler(F1Params(*params), 0.2, 0.1)

    # from an endpoint exponent of about 1e16 on, the rule's nodes crowd into
    # t = 0: numpy warned on stderr and the value came out nan
    def test_endpoint_exponent_bound(self):
        v = f1_euler(F1Params("1/3", "1/3", "1/3", 10**14), 0.2, 0.1)
        third = mpmath.mpf("1/3")
        ref = float(mpmath.appellf1(third, third, third, mpmath.mpf(10) ** 14, 0.2, 0.1))
        assert abs(v - ref) <= 1e-14
        for params in (("1/3", "1/3", "1/3", "1e15"), ("1e15", "1/3", "1/3", "2e15")):
            with pytest.raises(ValueError, match="endpoint exponents"):
                f1_euler(F1Params(*params), 0.2, 0.1)


class TestPdeResiduals:
    @pytest.mark.parametrize(
        "params,pt",
        [
            (("1/3", "1/3", "1/3", 1), (0.2, -0.1)),
            (("1/4", "1/4", "1/4", 1), (0.15, 0.1j)),
        ],
    )
    def test_solution_sets(self, params, pt):
        r1, r2 = f1_pde_residual(F1Params(*params), *pt)
        assert abs(r1) < 1e-8 and abs(r2) < 1e-8

    def test_equal_arguments_stay_finite(self):
        # no 1/(x-y) term in the system
        r1, r2 = f1_pde_residual(F1Params("1/3", "1/3", "1/3", 1), 0.17, 0.17)
        assert abs(r1) < 1e-8 and abs(r2) < 1e-8


class TestPicardIntegral:
    def test_symmetry(self):
        a = picard_integral(3.0, 5.5)
        b = picard_integral(5.5, 3.0)
        assert abs(a - b) < 1e-10

    def test_gamma_identity_real_moduli(self):
        # uncubed comparison is branch-safe for real moduli > 1
        for x, y in [(3.0, 3.0), (2.5, 7.0), (4.0, 9.0)]:
            lhs = picard_integral(x, y)
            rhs = picard_f1_identity_rhs(x, y)
            assert abs(lhs - rhs) < 1e-10, (x, y)

    def test_gamma_identity_complex_moduli_cubed(self):
        # off the real ray the principal branch drifts by a cube root of
        # unity; cubing both sides removes the ambiguity
        for x, y in [(5.0, -4 + 1j), (4 - 2j, 6 + 3j), (-3.0, -5.0), (1.5 + 2j, -2 - 3j)]:
            lhs = picard_integral(x, y) ** 3
            rhs = picard_f1_identity_rhs(x, y) ** 3
            assert abs(lhs - rhs) < 1e-6 * abs(rhs), (x, y)

    def test_branch_point_rejected(self):
        with pytest.raises(ValueError):
            picard_integral(0.5, 3.0)


class TestKIntegral:
    def test_beta_value(self):
        assert abs(k_integral(0, 0) - 2 * math.pi / math.sqrt(3)) < 1e-10

    def test_f1_identity(self):
        lhs = k_integral(0.3, -0.2)
        rhs = gamma(1 / 3) * gamma(2 / 3) * f1_series(F1Params("1/3", "1/3", "1/3", 1), 0.3, -0.2)
        assert abs(lhs - rhs) < 1e-6

    def test_substituted_form_agrees(self):
        for ki, kj in [(0.3, -0.2), (0.1 + 0.2j, -0.4), (0.0, 0.6)]:
            a = k_integral(ki, kj)
            b = k_integral_substituted(ki, kj)
            assert abs(a - b) < 1e-8, (ki, kj)

    def test_symmetry(self):
        assert abs(k_integral(0.3, -0.2) - k_integral(-0.2, 0.3)) < 1e-12

    def test_cut_rejected(self):
        with pytest.raises(ValueError):
            k_integral(1.5, 0.0)
