"""F1 series vs Euler integral, PDE residuals, Picard and K integrals."""

import cmath
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from gl3schwarz import appell
from gl3schwarz.appell import (
    F1Params,
    _diagonal_budget,
    _jacobi_ratios,
    _jacobi_rule,
    _shifted_sums,
    f1_euler,
    f1_pde_residual,
    f1_series,
    k_integral,
    k_integral_substituted,
    picard_f1_identity_rhs,
    picard_integral,
)
from gl3schwarz.jets import Jet, monomials
from gl3schwarz.report import run_suites
from oracles import jacobi_ratios as per_term_jacobi_ratios

mpmath.mp.dps = 30

PARAM_SETS = [
    ("1/3", "1/3", "1/3", 1),
    ("1/4", "1/4", "1/4", 1),
    ("2/3", "1/3", "1/3", "4/3"),
]


class TestGamma:
    # the identities take Gamma from math.gamma, at 1/3, 2/3 and 4/3 only
    def test_basic_values(self):
        assert abs(math.gamma(1) - 1) < 1e-14
        assert abs(math.gamma(0.5) - math.sqrt(math.pi)) < 1e-14

    def test_reflection(self):
        assert abs(math.gamma(1 / 3) * math.gamma(2 / 3) - 2 * math.pi / math.sqrt(3)) < 1e-12

    def test_recurrence(self):
        assert abs(math.gamma(4 / 3) - math.gamma(1 / 3) / 3) < 1e-12

    def test_pole(self):
        with pytest.raises(ValueError):
            math.gamma(-2)

    def test_real_axis_matches_mpmath(self):
        # negative non-integers included: math.gamma takes them directly
        for x in np.linspace(-4.95, 9.95, 150):
            ref = float(mpmath.gamma(x))
            assert abs(math.gamma(x) - ref) <= 1e-14 * abs(ref)


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


class TestJacobiNodes:
    # (1e14 - 4/3, -2/3) is the rule behind f1_euler at a = 1/3, c = 1e14,
    # the largest exponent taken: its smallest node was once -5.55e-16,
    # with weight -3.03e-10
    @pytest.mark.parametrize(
        "alpha, beta",
        [(1e14 - 4 / 3, -2 / 3), (1e8, -2 / 3), (-1 / 3, -2 / 3), (198 + 2 / 3, -2 / 3), (1 / 2, -1 / 2)],
    )
    def test_inside_ascending_and_positive(self, alpha, beta):
        t, w = _jacobi_rule(appell.QUAD_NODES, alpha, beta)
        assert 0 < t[0] and t[-1] < 1 and np.all(np.diff(t) > 0)
        assert np.all(w > 0)

    @pytest.mark.parametrize("alpha, beta", [(-1 / 3, -2 / 3), (-1 / 4, -3 / 4), (-1 / 3, -1 / 3)])
    def test_a_report_rule_takes_three_passes(self, monkeypatch, alpha, beta):
        passes = []
        real = appell._jacobi_ratios
        monkeypatch.setattr(appell, "_jacobi_ratios", lambda *args: passes.append(1) or real(*args))
        _jacobi_rule.__wrapped__(appell.QUAD_NODES, alpha, beta)
        assert len(passes) == 3

    def test_a_rule_that_does_not_converge_is_refused(self):
        # both exponents within 1e-6 of -1: the recurrence places the end
        # nodes to about 1e-6 of their size only, short of the step the
        # iteration must reach
        with pytest.raises(
            ValueError,
            match=r"^no Gauss-Jacobi rule for the exponents \(-0\.999999, -0\.999999\): "
            r"the nodes did not converge in 20 passes$",
        ):
            _jacobi_rule(appell.QUAD_NODES, -0.999999, -0.999999)


class TestJacobiRecurrence:
    """The coefficient-array recurrence against the per-term loop it replaced."""

    @pytest.mark.parametrize(
        "alpha, beta",
        [
            (-1 / 3, -2 / 3),
            (-1 / 4, -3 / 4),
            (-1 / 3, -1 / 3),
            (30.0, 1 / 2),
            (229.0, 169.0),
            (1e14 - 4 / 3, -2 / 3),
        ],
    )
    def test_matches_the_per_term_loop(self, alpha, beta):
        # the same operations in the same order: equal bits, at the rule's
        # nodes (where P_n' sets the weights) and between them (where P_n
        # peaks; a third of the way, as the midpoint of a symmetric rule is
        # a root of P_1), measured from t = 0 and, for the mirror, from t = 1
        n = appell.QUAD_NODES
        t = _jacobi_rule(n, alpha, beta)[0]
        t = np.concatenate([t, t[:-1] + (t[1:] - t[:-1]) / 3.0])
        for u, m, exponents in ((2.0 * t, t.size, (alpha, beta)), (2.0 - 2.0 * t, 0, (beta, alpha))):
            got = _jacobi_ratios(n, alpha + 1.0, beta + 1.0, u, m)[0]
            ref = per_term_jacobi_ratios(n, *exponents, u)
            assert np.all(np.isfinite(ref))
            assert np.array_equal(got, ref)


class TestRuleSharing:
    def test_rounded_exponents_share_one_rule(self):
        # f1_euler at a = 1/3, c = 1 spells the exponents c - a - 1 and a - 1;
        # k_integral spells them -1/3 and -2/3
        a, c = 1 / 3, 1.0
        spelled = (c - a - 1, a - 1)
        assert spelled != (-1 / 3, -2 / 3)
        g = lambda t: np.ones_like(t)  # noqa: E731
        appell._jacobi_rule.cache_clear()
        assert appell._quad(g, *spelled) == appell._quad(g, -1 / 3, -2 / 3)
        assert appell._jacobi_rule.cache_info().currsize == 1
        appell._jacobi_rule.cache_clear()

    @pytest.mark.parametrize("e", [0.1234567, math.pi - 4, 198 + 2 / 3 + 1e-9, -1 / 3 + 1e-12])
    def test_other_exponents_are_untouched(self, e):
        assert appell._snap(e) == e

    def test_a_report_builds_one_rule_per_exponent_pair(self):
        appell._jacobi_rule.cache_clear()
        run_suites(("f1",), seed=42)
        # (-1/3, -2/3), (-1/4, -3/4) and (-1/3, -1/3), which f1_euler,
        # k_integral and picard_integral spell five ways
        assert appell._jacobi_rule.cache_info().currsize == 3


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


LOOP_PARAMS_COMPLEX_A = ("0.3+0.2j", "1/3", "1/4", "3/2")

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


# (theta, phi) of x = r e^(i theta), y = 0.8 r e^(i phi); mpmath takes about
# 0.1 s per point here, and seconds at other phases
STOP_PHASES = [(2.0, 0.7), (-2.5, 2.9)]
STOP_RADII = [0.9, 0.95, 0.98]


def _stop_point(r, phases):
    theta, phi = phases
    return r * cmath.exp(1j * theta), 0.8 * r * cmath.exp(1j * phi)


class TestStoppingRule:
    # the stop after three diagonals that each add at most tol (1 - r)
    # relative keeps these within 4e-14; a stop at tol / (1 - r) stays inside
    # every report ceiling but is 4e-12 to 3e-11 off here
    @pytest.mark.parametrize("phases", STOP_PHASES)
    @pytest.mark.parametrize("r", STOP_RADII)
    def test_value_matches_mpmath_near_the_unit_circle(self, r, phases):
        x, y = _stop_point(r, phases)
        ref = complex(_mp_f1(PARAM_SETS[0], x, y))
        assert abs(f1_series(F1Params(*PARAM_SETS[0]), x, y) - ref) <= 1e-12 * abs(ref)

    def test_every_point_of_a_stack_stops_on_its_own(self):
        # one stack across the radii: each point keeps its own budget and stop
        points = [_stop_point(r, ph) for r in STOP_RADII for ph in STOP_PHASES]
        x, y = (np.array(v) for v in zip(*points))
        got = f1_series(F1Params(*PARAM_SETS[0]), x, y)
        for g, (xk, yk) in zip(got, points):
            assert g == f1_series(F1Params(*PARAM_SETS[0]), xk, yk)


class TestStacks:
    # (x, y) pairs from r = 0.05 to 0.9: budgets from 28 to over 500 in one stack
    POINTS = [(0.05, 0.02j), (0.3 - 0.4j, 0.2), (0.85j, -0.5), (-0.6 + 0.1j, 0.9), (0.0, 0.0), (0.7, 0.7)]

    @pytest.mark.parametrize("params", PARAM_SETS + [LOOP_PARAMS_COMPLEX_A])
    def test_a_stack_of_points_matches_one_point_at_a_time(self, params):
        p = F1Params(*params)
        x, y = (np.array(v) for v in zip(*self.POINTS))
        one = [f1_series(p, xk, yk) for xk, yk in self.POINTS]
        assert list(f1_series(p, x, y)) == one
        if p.a.imag == 0:
            assert list(f1_euler(p, x, y)) == [f1_euler(p, xk, yk) for xk, yk in self.POINTS]

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_a_stack_of_jets_matches_one_jet_at_a_time(self, order):
        p = F1Params(*PARAM_SETS[2])
        x, y = (np.array(v) for v in zip(*self.POINTS))
        got = f1_series(p, *Jet.variables(2, order, (x, y)))
        for k, (xk, yk) in enumerate(self.POINTS):
            one = f1_series(p, *Jet.variables(2, order, (xk, yk)))
            assert np.abs(got._c[k] - one._c).max() <= 1e-15 * np.abs(one._c).max()

    def test_a_stack_of_one_is_a_point(self):
        # a single point is a complex scalar with the bits of sample 0 of a
        # stack of one, but for picard_f1_identity_rhs: its point takes 1/x
        # and 1/y in Python complex division (jets._base keeps a number a
        # Python complex), which rounds differently from numpy's, so the two
        # may differ in the last bit (at 2 of 3 random points, by up to 2 eps)
        p = F1Params(*PARAM_SETS[0])
        for f, x, y, ulps in (
            (lambda x, y: f1_series(p, x, y), 0.3 + 0.1j, -0.2, 0),
            (lambda x, y: f1_euler(p, x, y), 0.3 + 0.1j, -0.2, 0),
            (k_integral, 0.2, 0.1j, 0),
            (picard_integral, 4 - 2j, 6 + 3j, 0),
            (picard_f1_identity_rhs, 4 - 2j, 6 + 3j, 4),
        ):
            one = f(x, y)
            got = f(np.array([x]), np.array([y]))
            assert isinstance(one, complex) and got.shape == (1,)
            if ulps:
                assert abs(got[0] - one) <= ulps * np.finfo(float).eps * abs(one)
            else:
                assert np.complex128(one).tobytes() == got[0].tobytes(), f

    # each refusal of one point, at sample 2 of a stack whose other points are
    # fine: the stack raises the one point's message with the index appended
    @pytest.mark.parametrize(
        "call, bad",
        [
            ("series", (1.2, 0.0)),  # outside the unit disc
            ("series", (0.999, 0.1)),  # past the diagonal budget
            ("series", (0.3, float("nan"))),
            ("euler", (2.0, 0.1)),  # on the cut
            ("euler", (2.0 + 0.01j, 0.1)),  # too near it
            ("k", (0.1, 1.5)),
        ],
    )
    def test_a_refused_point_is_named(self, call, bad):
        p = F1Params(*PARAM_SETS[0])
        f = {
            "series": lambda x, y: f1_series(p, x, y),
            "euler": lambda x, y: f1_euler(p, x, y),
            "k": k_integral,
        }[call]
        with pytest.raises(ValueError) as one:
            f(*bad)
        x, y = (np.array(v) for v in zip((0.1, 0.2), (0.3j, -0.1), bad, (0.2, 0.2)))
        with pytest.raises(ValueError) as stack:
            f(x, y)
        assert str(stack.value) == f"{one.value} (sample 2)"

    def test_cancelled_sums_are_named(self):
        # the conditioning refusal of TestSeriesConditioning, at sample 1
        x, y = 0.985 * (0.3 - 0.2j), 0.985 * cmath.exp(-1.2j)
        shifts = monomials(2, 3)
        p = F1Params(*LOOP_PARAMS["thirds"])
        with pytest.raises(ValueError) as one:
            _shifted_sums(p, shifts, x, y, 1e-12)
        with pytest.raises(ValueError) as stack:
            _shifted_sums(p, shifts, np.array([0.2, x]), np.array([0.1, y]), 1e-12)
        assert str(stack.value) == f"{one.value} (sample 1)"

    # each point's rows run to its own budget: one point near the unit circle
    # once made every point of its stack carry rows to that point's budget
    def test_series_memory_does_not_follow_the_farthest_point(self):
        p = F1Params(*PARAM_SETS[0])

        def peak(n):
            x, y = np.full(n, 0.1 + 0j), np.full(n, 0.05j)
            x[0] = 0.95
            jets = Jet.variables(2, 2, (x, y))
            tracemalloc.start()
            try:
                f1_series(p, *jets)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(400) <= 2 * peak(10)

    def test_stacks_with_more_axes_name_the_index(self):
        x = np.array([[0.1, 0.2], [0.3, 1.5]])
        with pytest.raises(ValueError, match=r"\(sample \(1, 1\)\)$"):
            f1_series(F1Params(*PARAM_SETS[0]), x, 0.1)
        assert f1_series(F1Params(*PARAM_SETS[0]), x[:1], 0.1).shape == (1, 2)


def _loop_shifted_sums(p, shifts, x, y, tol):
    """The shifted sums one anti-diagonal per Python step, and the diagonal they stopped on.

    Each term is its left neighbour times two ratios, summed row by row: the
    engine before the factored convolution, kept as the reference for
    _shifted_sums.
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
    """Convolved sums within 1e-13 relative of the loop's, or the loop's ValueError.

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
    "complex-a": LOOP_PARAMS_COMPLEX_A,
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

    # near the unit circle, where the sums run to thousands of diagonals; at order 3
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

    # the convolution runs to budget // 2 first and widens while the sums have
    # not settled: the loop comparisons stop on both sides of that step
    def test_stops_on_both_sides_of_the_widening(self, monkeypatch):
        budgets = []

        def recorded(*args):
            budgets.append(_diagonal_budget(*args))
            return budgets[-1]

        monkeypatch.setattr(appell, "_diagonal_budget", recorded)
        sides = []
        # order 2 at r = 0.985 on the y-zero shape stops on 2,426 of 4,700
        for r, shape in ((0.5, "x-major"), (0.985, "y-zero")):
            u, v = LOOP_SHAPES[shape]
            stop = _assert_matches_loop(F1Params(*LOOP_PARAMS["thirds"]), monomials(2, 2), r * u, r * v)
            sides.append(stop > budgets[-1] // 2)
        assert sides == [False, True]


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

    # numpy once warned five times here, then named the wrong cause
    # at a = 1e308 the budget estimate itself reached inf
    @pytest.mark.parametrize("a, c", [("-1e308", 1), ("1e308", 1), ("1/3", "5e-324")])
    def test_overflowing_terms_are_named(self, a, c):
        with pytest.raises(ValueError, match="terms overflow"):
            f1_series(F1Params(a, "1/3", "1/3", c), 0.2, 0.1)

    def test_an_infinite_sum_is_never_returned(self):
        inf = np.array([complex(math.inf, 0.0)])
        with pytest.raises(ValueError, match="terms overflow"):
            appell._conditioned(inf, np.array([math.inf]), 1e-12)

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

    # a real x or y >= 1 puts the branch point 1/x inside (0, 1): the rule
    # once returned 1.0762 - 0.3929i at x = 2, where F1 is 1.0852 - 0.3945i
    @pytest.mark.parametrize("x, y", [(2.0, 0.1), (0.1, 1.0), (1.5, 3.0)])
    def test_cut_rejected(self, x, y):
        with pytest.raises(ValueError, match="modulus on the cut"):
            f1_euler(F1Params("1/3", "1/3", "1/3", 1), x, y)

    # 1/x near the interval (0, 1): the rule was 2.2e-3 off mpmath at
    # x = 2 + 0.01i and 1.4e-9 at 2 + 0.1i; just beyond the interval's ends
    # (1/x = -0.01, or 1.01 - 0.01i) it stays within 1e-14
    @pytest.mark.parametrize("x, y", [(2 + 0.01j, 0.1), (0.1, 2 - 0.1j), (1.25 + 0.02j, 0.3)])
    def test_near_the_cut_rejected(self, x, y):
        with pytest.raises(ValueError, match="modulus too near the cut"):
            f1_euler(F1Params("1/3", "1/3", "1/3", 1), x, y)

    @pytest.mark.parametrize("x", [-100.0, 0.99 + 0.01j])
    def test_beyond_the_ellipse_accepted(self, x):
        with mpmath.workdps(30):
            third = mpmath.mpf("1/3")
            ref = complex(mpmath.appellf1(third, third, third, 1, mpmath.mpc(x), 0.1))
        got = f1_euler(F1Params("1/3", "1/3", "1/3", 1), x, 0.1)
        assert abs(got - ref) <= 1e-12 * abs(ref)

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

    # as a or c - a nears 0 the rule loses digits: at a = 1e-12 it gave
    # 1.00412 for 1.0000000000001, and from 1e-13 on numpy warned and gave nan
    @pytest.mark.parametrize(
        "a, c, a_below, c_below",
        [(1e-6, 1, 9e-7, 1), (1, 1 + 2.0**-19, 1, 1 + 2.0**-21)],
        ids=["a", "c-a"],
    )
    def test_endpoint_exponent_floor(self, a, c, a_below, c_below):
        third = mpmath.mpf(1) / 3
        for x, y in ((0.6, 0.6), (-0.6, -0.6), (0.42 + 0.42j, -0.6j)):
            v = f1_euler(F1Params(a, "1/3", "1/3", c), x, y)
            ref = complex(mpmath.appellf1(a, third, third, c, x, y))
            assert abs(v - ref) <= 1e-10 * abs(ref)
        for a_, c_ in ((a_below, c_below), (5e-324, 1)):
            with pytest.raises(ValueError, match="a and c - a of at least"):
                f1_euler(F1Params(a_, "1/3", "1/3", c_), 0.2, 0.1)


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

    # the rule lost 1% relative at 0.5 + 1e-4i and 2.6e-5 at 0.5 + 0.01i
    # against an mpmath quadrature before these were refused
    @pytest.mark.parametrize("x", [0.5 + 1e-4j, 0.5 + 0.01j])
    def test_near_the_contour_rejected(self, x):
        for pair in ((x, 3.0), (3.0, x)):
            with pytest.raises(ValueError, match="modulus too near the contour"):
                picard_integral(*pair)

    def test_a_stack_is_its_points(self):
        x = np.array([3.0, 4 - 2j, -3.0])
        y = np.array([5.5, 6 + 3j, 1.5 + 2j])
        got = picard_integral(x, y)
        assert got.shape == (3,)
        for k in range(3):
            assert abs(got[k] - picard_integral(x[k], y[k])) < 1e-15 * abs(got[k])
            assert abs(picard_f1_identity_rhs(x, y)[k] - picard_f1_identity_rhs(x[k], y[k])) < 1e-14


class TestKIntegral:
    def test_beta_value(self):
        assert abs(k_integral(0, 0) - 2 * math.pi / math.sqrt(3)) < 1e-10

    def test_f1_identity(self):
        lhs = k_integral(0.3, -0.2)
        rhs = math.gamma(1 / 3) * math.gamma(2 / 3) * f1_series(F1Params("1/3", "1/3", "1/3", 1), 0.3, -0.2)
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

    def test_near_the_cut_rejected(self):
        for integral in (k_integral, k_integral_substituted):
            with pytest.raises(ValueError, match="modulus too near the cut"):
                integral(0.2, 2 + 0.01j)
