import cmath
import math
import sys
import time

import numpy as np
import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gl3schwarz import derivs, jets, pde_verify
from gl3schwarz.derivs import MapJet2, deriv_quad
from gl3schwarz.jets import (
    Jet,
    JetError,
    _index,
    _series,
    _wrap,
    compose,
    jet_powq,
    monomials,
)
from gl3schwarz.report import run_suites
from oracles import invert_map2


def rand_jet(rng, dim, order, const_floor=0.0):
    j = Jet(dim, order)
    j._c[:] = [
        complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        for _ in range(len(j._c))
    ]
    if const_floor and abs(j.value) < const_floor:
        j._c[0] += const_floor + 0.1
    return j


class TestArith:
    def test_polynomial_product(self):
        x = Jet.variable(2, 2, 0)
        y = Jet.variable(2, 2, 1)
        p = (1 + x) * (1 + y)
        assert p.coeffs()[(0, 0)] == 1
        assert p.coeffs()[(1, 0)] == 1
        assert p.coeffs()[(0, 1)] == 1
        assert p.coeffs()[(1, 1)] == 1
        assert p.coeffs()[(2, 0)] == 0

    def test_div_identity(self):
        x = Jet.variable(1, 3, 0)
        q = (1 + x) / (1 + x)
        assert q.allclose(Jet.constant(1, 3, 1.0))

    def test_geometric_series(self):
        # frozen oracle: 1/(1-x) = 1 + x + x^2 + x^3 + O(x^4)
        x = Jet.variable(1, 3, 0)
        g = Jet.constant(1, 3, 1.0) / (1 - x)
        assert g.allclose(Jet(1, 3, {(0,): 1, (1,): 1, (2,): 1, (3,): 1}))

    def test_mismatch_errors(self):
        a = Jet.variable(1, 2, 0)
        b = Jet.variable(2, 2, 0)
        with pytest.raises(JetError):
            a + b
        with pytest.raises(JetError):
            a * a.truncate(1)

    def test_div_zero_const(self):
        x = Jet.variable(1, 2, 0)
        with pytest.raises(JetError):
            (1 + x) / x


class TestIntegerPower:
    def test_small_powers_match_the_product_loop(self):
        x, y = Jet.variables(2, 3, (0.3 + 0.2j, -0.4))
        f = 1 + x * y - 2 * y
        for n in range(4):
            loop = Jet.constant(2, 3, 1.0)
            for _ in range(n):
                loop = loop * f
            assert (f**n - loop).max_abs() <= 1e-15 * loop.max_abs()

    def test_negative_power_inverts_first(self):
        x, y = Jet.variables(2, 3, (0.3 + 0.2j, -0.4))
        f = 1 + x * y - 2 * y
        assert (f**-3).allclose(1 / (f * f * f), tol=1e-13)

    def test_huge_exponent_is_quick(self):
        # a product per step took 14.6 s at n = 3,000,000
        x, y = Jet.variables(2, 3, (0.1, 0.2))
        start = time.perf_counter()
        out = (x + y) ** 10**9
        assert time.perf_counter() - start < 1.0
        assert out.max_abs() == 0.0  # 0.3 ** (10**9 - 3) underflows


class TestPowq:
    def test_binomial_third(self):
        # frozen oracle: (1+x)^(1/3) = 1 + x/3 - x^2/9 + 5x^3/81
        x = Jet.variable(1, 3, 0)
        r = jet_powq(1 + x, Fraction(1, 3))
        expect = Jet(1, 3, {(0,): 1, (1,): 1 / 3, (2,): -1 / 9, (3,): 5 / 81})
        assert r.allclose(expect, tol=1e-14)

    def test_constant(self):
        c = Jet.constant(2, 2, 1.0)
        assert jet_powq(c, Fraction(7, 5)).allclose(c)

    def test_cube_root_round_trip(self):
        x = Jet.variable(1, 3, 0)
        r = jet_powq((1 + x) ** 3, Fraction(1, 3))
        assert r.allclose(1 + x, tol=1e-13)

    @pytest.mark.parametrize("q", [Fraction(1, 3), Fraction(1, 9), Fraction(4), Fraction(36)])
    def test_round_trip_rationals(self, q):
        # positive-real constant terms: the integer-power cases wind the
        # argument, so the principal branch only round-trips in a sector
        import random

        rng = random.Random(1234)
        for _ in range(5):
            a = rand_jet(rng, 2, 3)
            a._c[0] = rng.uniform(0.5, 1.5)
            back = jet_powq(jet_powq(a, q), 1 / q)
            scale = max(a.max_abs(), 1.0)
            assert all(
                abs(u - v) <= 1e-12 * scale
                for u, v in zip(back._c, a._c)
            )

    def test_derivative_relation(self):
        # d/dx a^q = q a^(q-1) a'
        import random

        rng = random.Random(7)
        a = rand_jet(rng, 1, 3, const_floor=0.6)
        q = Fraction(2, 3)
        lhs = jet_powq(a, q).deriv(0)
        rhs = (jet_powq(a, q - 1) * float(q)).truncate(2) * a.deriv(0)
        assert lhs.allclose(rhs, tol=1e-12)


class TestStackOfOne:
    # a single jet's numbers are complex scalars with the bits of sample 0 of
    # the same jet as a stack of one
    @pytest.mark.parametrize(
        "number",
        [
            lambda j, alpha: j.value,
            lambda j, alpha: j.partial(alpha),
            lambda j, alpha: jet_powq(j, Fraction(1, 3)).value,
            lambda j, alpha: jet_powq(j, Fraction(-2, 3)).partial(alpha),
        ],
        ids=["value", "partial", "jet_powq-value", "jet_powq-partial"],
    )
    @pytest.mark.parametrize("dim, order", [(1, 0), (2, 3), (4, 2)])
    def test_a_stack_of_one_is_a_jet(self, number, dim, order):
        import random

        rng = random.Random(600 + 10 * dim + order)
        one = rand_jet(rng, dim, order, const_floor=0.4)
        stack = _wrap(dim, order, one._c[None].copy())
        alpha = monomials(dim, order)[-1]
        single, got = number(one, alpha), number(stack, alpha)
        assert isinstance(single, complex) and got.shape == (1,)
        assert np.complex128(single).tobytes() == got[0].tobytes()


class TestCompose:
    def test_linear(self):
        w1 = Jet.variable(2, 2, 0)
        w2 = Jet.variable(2, 2, 1)
        x = Jet.variable(2, 2, 0)
        y = Jet.variable(2, 2, 1)
        assert compose(w1 + w2, [x, y]).allclose(x + y)

    def test_product_consistency(self):
        w1 = Jet.variable(2, 2, 0, base=1.0)
        w2 = Jet.variable(2, 2, 1, base=1.0)
        x = Jet.variable(2, 2, 0)
        y = Jet.variable(2, 2, 1)
        assert compose(w1 * w2, [1 + x, 1 + y]).allclose((1 + x) * (1 + y))

    def test_square_expansion(self):
        # frozen oracle: w1^2 at w1 = x + x^2 -> x^2 + 2x^3
        w1 = Jet.variable(2, 3, 0)
        x = Jet.variable(2, 3, 0)
        y = Jet.variable(2, 3, 1)
        r = compose(w1 * w1, [x + x * x, y])
        assert r.allclose(Jet(2, 3, {(2, 0): 1, (3, 0): 2}))

    def test_recentering(self):
        # h expanded at the image point: h = w1^2 at w1 = 2 + x
        w1 = Jet.variable(2, 2, 0, base=2.0)
        x = Jet.variable(2, 2, 0)
        y = Jet.variable(2, 2, 1)
        r = compose(w1 * w1, [2 + x, y])
        assert r.allclose(Jet(2, 2, {(0, 0): 4, (1, 0): 4, (2, 0): 1}))


class TestInvert:
    def test_linear(self):
        x = Jet.variable(2, 2, 0)
        y = Jet.variable(2, 2, 1)
        h1, h2 = invert_map2(x + 2 * y, 3 * x + 4 * y)
        # inverse of [[1,2],[3,4]] is [[-2,1],[1.5,-0.5]]
        assert h1.allclose(-2 * x + y)
        assert h2.allclose(1.5 * x - 0.5 * y)

    def test_series_reversion(self):
        # frozen oracle: (x + x^2, y) inverts to (x - x^2, y) at order 2
        x = Jet.variable(2, 2, 0)
        y = Jet.variable(2, 2, 1)
        h1, h2 = invert_map2(x + x * x, y)
        assert h1.allclose(x - x * x)
        assert h2.allclose(y)

    def test_round_trip_random_cubic(self):
        import random

        rng = random.Random(42)
        x = Jet.variable(2, 3, 0)
        y = Jet.variable(2, 3, 1)
        for _ in range(5):
            g1 = x + 0.2 * rand_jet(rng, 2, 3)
            g2 = y + 0.2 * rand_jet(rng, 2, 3)
            # keep the linear part dominant
            h1, h2 = invert_map2(g1, h2_in := g2)
            c1 = compose(g1 - g1.value, [h1, h2])
            c2 = compose(h2_in - h2_in.value, [h1, h2])
            assert c1.allclose(x, tol=1e-12)
            assert c2.allclose(y, tol=1e-12)

    def test_singular(self):
        x = Jet.variable(2, 2, 0)
        with pytest.raises(JetError):
            invert_map2(x, x)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mul_commutes_and_associates(seed):
    import random

    rng = random.Random(seed)
    a = rand_jet(rng, 2, 3)
    b = rand_jet(rng, 2, 3)
    c = rand_jet(rng, 2, 3)
    assert (a * b).allclose(b * a, tol=1e-13)
    assert ((a * b) * c).allclose(a * (b * c), tol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_div_mul_round_trip(seed):
    import random

    rng = random.Random(seed)
    a = rand_jet(rng, 3, 2)
    b = rand_jet(rng, 3, 2, const_floor=0.4)
    assert ((a / b) * b).allclose(a, tol=1e-11)


def test_product_rule():
    import random

    rng = random.Random(5)
    f = rand_jet(rng, 2, 3)
    g = rand_jet(rng, 2, 3)
    lhs = (f * g).deriv(0)
    rhs = f.deriv(0) * g.truncate(2) + f.truncate(2) * g.deriv(0)
    assert lhs.allclose(rhs, tol=1e-13)


def test_monomial_count():
    assert len(monomials(4, 3)) == 35
    assert len(monomials(1, 3)) == 4


DIM_ORDERS = [(dim, order) for dim in range(1, 5) for order in range(4)]


def _dict_deriv(j, var):
    """deriv by monomial lookup, the definition before the gather table."""
    out = Jet(j.dim, j.order - 1)
    src = _index(j.dim, j.order)
    for m, i in _index(j.dim, j.order - 1).items():
        up = tuple(e + 1 if k == var else e for k, e in enumerate(m))
        out._c[i] = j._c[src[up]] * (m[var] + 1)
    return out


def _dict_truncate(j, order):
    """truncate by monomial lookup, the definition before the prefix slice."""
    out = Jet(j.dim, order)
    src = _index(j.dim, j.order)
    for m, i in _index(j.dim, order).items():
        out._c[i] = j._c[src[m]]
    return out


class TestCoefficientLayout:
    @pytest.mark.parametrize("dim, order", DIM_ORDERS)
    def test_lower_orders_are_prefixes(self, dim, order):
        # truncate relies on it: monomials sort by (degree, lex)
        monos = monomials(dim, order)
        assert list(monos) == sorted(monos, key=lambda m: (sum(m), m))
        for lower in range(order + 1):
            assert monos[: len(monomials(dim, lower))] == monomials(dim, lower)

    @pytest.mark.parametrize("dim, order", DIM_ORDERS)
    def test_deriv_and_truncate_match_the_dict_definitions(self, dim, order):
        import random

        j = rand_jet(random.Random(dim * 10 + order), dim, order)
        for var in range(dim if order else 0):
            assert j.deriv(var)._c.tobytes() == _dict_deriv(j, var)._c.tobytes()
        for lower in range(order + 1):
            assert j.truncate(lower)._c.tobytes() == _dict_truncate(j, lower)._c.tobytes()

    def test_constructor_copies(self):
        arr = np.arange(6, dtype=np.complex128)
        j = Jet(2, 2, arr)
        arr[:] = -1
        assert j.value == 0 and j.coeff((2, 0)) == 5

    def test_results_never_alias_an_operand(self):
        import random

        rng = random.Random(3)
        a = rand_jet(rng, 2, 3)
        b = rand_jet(rng, 2, 3, const_floor=0.4)
        g1, g2 = rand_jet(rng, 2, 2), rand_jet(rng, 2, 2)
        results = [
            a + b, a - b, -a, a * b, a / b, a + 1, 1 + a, a - 1, 1 - a, 2 * a, a * 2,
            a / 2, 2 / b, 1 / b, a**0, a**1, b**-1, b**-2, a.copy(), a.deriv(0),
            a.truncate(3), a.truncate(1), b._inverse(), jet_powq(b, Fraction(1, 3)),
            jet_powq(b, -2.5), compose(a, [Jet.variable(2, 3, 0), Jet.variable(2, 3, 1)]),
            compose(a, [g1, g2]),
            *invert_map2(Jet.variable(2, 3, 0) + 0.1 * a, Jet.variable(2, 3, 1)),
        ]
        for r in results:
            assert not np.shares_memory(r._c, a._c) and not np.shares_memory(r._c, b._c)
        assert len({id(r._c) for r in results}) == len(results)

    def test_quad_components_are_separate_arrays(self):
        import random

        rng = random.Random(4)
        m = MapJet2(Jet.variable(2, 3, 0) + 0.2 * rand_jet(rng, 2, 3), Jet.variable(2, 3, 1))
        quad = deriv_quad(m)._c
        parts = [quad[..., i, :] for i in range(4)]
        for i, p in enumerate(parts):
            assert not np.shares_memory(p, m.u1._c) and not np.shares_memory(p, m.u2._c)
            assert not any(np.shares_memory(p, q) for q in parts[i + 1:])


# The per-term algorithms that the whole-array kernels replaced: one Jet per
# term, one Jet.__mul__ per product.  They stay here as references only.


def _ref_inverse(a):
    c0 = a.value
    nil = Jet(a.dim, a.order, a._nilpotent(c0))
    out = Jet.constant(a.dim, a.order, 1.0)
    term = Jet.constant(a.dim, a.order, 1.0)
    for k in range(1, a.order + 1):
        term = term * nil
        out = out + (-1) ** k * term
    return Jet(a.dim, a.order, out._c / c0)


def _ref_powq(a, q):
    c0 = a.value
    qf = float(Fraction(q))
    head = cmath.exp(qf * cmath.log(c0))
    nil = Jet(a.dim, a.order, a._nilpotent(c0))
    out = Jet.constant(a.dim, a.order, 1.0)
    term = Jet.constant(a.dim, a.order, 1.0)
    binom = 1.0
    for k in range(1, a.order + 1):
        binom *= (qf - (k - 1)) / k
        term = term * nil
        out = out + binom * term
    return head * out


def _ref_exp(a):
    head = cmath.exp(a.value)
    nil = a - a.value
    out = Jet.constant(a.dim, a.order, 1.0)
    term = Jet.constant(a.dim, a.order, 1.0)
    for k in range(1, a.order + 1):
        term = term * nil
        out = out + term / math.factorial(k)
    return head * out


def _ref_compose(h, gs):
    dim, order = gs[0].dim, gs[0].order
    deltas = []
    for g in gs:
        d = g.copy()
        d._c[0] = 0.0
        deltas.append(d)
    pows = []
    for d in deltas:
        p = [Jet.constant(dim, order, 1.0)]
        for _ in range(order):
            p.append(p[-1] * d)
        pows.append(p)
    out = Jet(dim, order)
    for alpha, c in zip(monomials(h.dim, h.order), h._c):
        if c == 0 or sum(alpha) > order:
            continue
        term = Jet.constant(dim, order, c)
        for i, e in enumerate(alpha):
            if e:
                term = term * pows[i][e]
        out = out + term
    return out


def _ref_deriv_quad(m):
    def det2(p, q, r, s):
        return p * s - q * r

    k = m.order - 2
    u1x, u1y = m.u1.deriv(0), m.u1.deriv(1)
    u2x, u2y = m.u2.deriv(0), m.u2.deriv(1)
    u1xx, u1xy, u1yy = u1x.deriv(0), u1x.deriv(1), u1y.deriv(1)
    u2xx, u2xy, u2yy = u2x.deriv(0), u2x.deriv(1), u2y.deriv(1)
    u1x, u1y, u2x, u2y = (j.truncate(k) for j in (u1x, u1y, u2x, u2y))
    jac = det2(u1x, u2x, u1y, u2y)
    neg = -jac
    return (
        det2(u1x, u2x, u1xx, u2xx) / jac,
        det2(u1y, u2y, u1yy, u2yy) / neg,
        (det2(u1y, u2y, u1xx, u2xx) + 2 * det2(u1x, u2x, u1xy, u2xy)) / jac,
        (det2(u1x, u2x, u1yy, u2yy) + 2 * det2(u1y, u2y, u1xy, u2xy)) / neg,
    )


def assert_close(got, ref, rel=1e-13):
    assert (got.dim, got.order) == (ref.dim, ref.order)
    scale = max(ref.max_abs(), 1.0)
    assert np.max(np.abs(got._c - ref._c)) <= rel * scale


class TestArrayKernelsMatchThePerTermReferences:
    @pytest.mark.parametrize("dim, order", DIM_ORDERS)
    def test_inverse_and_division(self, dim, order):
        import random

        rng = random.Random(100 + dim * 10 + order)
        for _ in range(5):
            a = rand_jet(rng, dim, order)
            b = rand_jet(rng, dim, order, const_floor=0.4)
            assert_close(b._inverse(), _ref_inverse(b))
            assert_close(1 / b, _ref_inverse(b))
            assert_close(a / b, a * _ref_inverse(b))

    @pytest.mark.parametrize("dim, order", DIM_ORDERS)
    @pytest.mark.parametrize("q", [Fraction(1, 3), Fraction(-2, 3), Fraction(5, 2)])
    def test_powq(self, dim, order, q):
        import random

        rng = random.Random(200 + dim * 10 + order)
        for _ in range(5):
            a = rand_jet(rng, dim, order, const_floor=0.4)
            assert_close(jet_powq(a, q), _ref_powq(a, q))

    @pytest.mark.parametrize("dim, order", DIM_ORDERS)
    def test_exp(self, dim, order):
        import random

        rng = random.Random(500 + dim * 10 + order)
        for _ in range(5):
            a = rand_jet(rng, dim, order)
            assert_close(derivs._jet_exp(a), _ref_exp(a))

    @pytest.mark.parametrize("dim, order", DIM_ORDERS)
    @pytest.mark.parametrize("hdim", [1, 2, 4])
    def test_compose(self, dim, order, hdim):
        # h at the arguments' order and above it, whose extra terms vanish
        import random

        rng = random.Random(300 + dim * 10 + order + 1000 * hdim)
        for h_order in range(order, 4):
            h = rand_jet(rng, hdim, h_order)
            gs = [rand_jet(rng, dim, order) for _ in range(hdim)]
            assert_close(compose(h, gs), _ref_compose(h, gs))

    @pytest.mark.parametrize("dim, order", [(d, o) for d, o in DIM_ORDERS if d >= 2 and o >= 2])
    def test_deriv_quad(self, dim, order):
        import random

        rng = random.Random(400 + dim * 10 + order)
        base = [Jet.variable(dim, order, v) for v in (0, 1)]
        m = MapJet2(*(v + 0.3 * rand_jet(rng, dim, order) for v in base))
        quad = deriv_quad(m)
        for i, ref in enumerate(_ref_deriv_quad(m)):
            assert_close(_wrap(quad.dim, quad.order, quad._c[..., i, :]), ref)


# Negative controls for the array kernels: each row plants one plausible
# slip in a kernel, by monkeypatching, and the seed-42 report must fail.


def _inverse_without_alternation(self):
    dim, order = self.dim, self.order
    signs = (1.0, 1.0, 1.0)[:order]  # (-1.0, 1.0, -1.0) in the kernel
    c0 = self.value
    return _wrap(dim, order, _series(dim, order, self._nilpotent(c0), signs) / jets._col(c0))


def _powq_dropping_the_k(a, q):
    c0 = a.value
    qf = q if isinstance(q, (float, complex)) else float(Fraction(q))
    binoms, binom = [], 1.0
    for k in range(1, a.order + 1):
        binom *= qf - (k - 1)  # the / k of the binomial coefficient dropped
        binoms.append(binom)
    head = np.exp(qf * np.log(c0)) if isinstance(c0, np.ndarray) else cmath.exp(qf * cmath.log(c0))
    return _wrap(a.dim, a.order, _series(a.dim, a.order, a._nilpotent(c0), binoms) * jets._col(head))


def _fault_inverse_sign(monkeypatch):
    monkeypatch.setattr(Jet, "_inverse", _inverse_without_alternation)


def _fault_powq_binomial(monkeypatch):
    # every module that imported it by name
    for name, mod in list(sys.modules.items()):
        if name.startswith("gl3schwarz") and getattr(mod, "jet_powq", None) is jet_powq:
            monkeypatch.setattr(mod, "jet_powq", _powq_dropping_the_k)


def _fault_power_table_swap(monkeypatch):
    original = jets._power_table

    def swapped(dim, order):
        units, levels = original(dim, order)
        if dim < 2:
            return units, levels
        swap = {units[0]: units[1], units[1]: units[0]}
        return units, tuple(
            (lo, hi, parents, np.array([swap.get(int(f), f) for f in factors]))
            for lo, hi, parents, factors in levels
        )

    monkeypatch.setattr(jets, "_power_table", swapped)


def _fault_det_pair_swap(monkeypatch):
    dets = derivs._DETS.copy()
    dets[:, 0] = dets[::-1, 0]  # |u_xx; u_x| in place of |u_x; u_xx|
    monkeypatch.setattr(derivs, "_DETS", dets)


def _fault_branch_phase(monkeypatch):
    # exp(2i / pi * b / 3) in place of exp(2i pi * b / 3): not a cube root of unity
    real = pde_verify._mt1_system

    def off_phase(w, branch):
        z, quad = real(w, 0)
        return (cmath.exp(2j / cmath.pi * (branch % 3) / 3) * z if branch % 3 else z), quad

    monkeypatch.setattr(pde_verify, "_mt1_system", off_phase)


def _fault_jet_exp_sixth(monkeypatch):
    # 6 in place of 1/6: only the third partials of exp(jet) move
    def sixth(a):
        nil = a._c.copy()
        nil[..., 0] = 0.0
        series = _series(a.dim, a.order, nil, (1.0, 1 / 2, 6.0)[: a.order])
        return _wrap(a.dim, a.order, series * jets._col(np.exp(a.value)))

    monkeypatch.setattr(derivs, "_jet_exp", sixth)


def _fault_series_cube(monkeypatch):
    # the cube coefficient of every power series doubled: the values stay,
    # the third-order coefficients move
    def doubled(dim, order, nil, coeffs):
        return _series(dim, order, nil, [2 * c if k == 2 else c for k, c in enumerate(coeffs)])

    # every module that imported it by name
    for name, mod in list(sys.modules.items()):
        if name.startswith("gl3schwarz") and getattr(mod, "_series", None) is _series:
            monkeypatch.setattr(mod, "_series", doubled)


@pytest.mark.parametrize(
    "fault",
    [
        _fault_inverse_sign,
        _fault_powq_binomial,
        _fault_power_table_swap,
        _fault_det_pair_swap,
        _fault_branch_phase,
        _fault_jet_exp_sixth,
        _fault_series_cube,
    ],
    ids=[
        "inverse-sign",
        "powq-binomial",
        "power-table-swap",
        "det-pair-swap",
        "branch-phase",
        "jet-exp-sixth",
        "series-cube",
    ],
)
def test_a_kernel_fault_fails_the_report(monkeypatch, fault):
    fault(monkeypatch)
    assert run_suites(seed=42)["summary"]["failed"] > 0


def _ref_mul_table(dim, order):
    """_mul_table as a loop over every target and source monomial."""
    monos = monomials(dim, order)
    ti, tj, starts = [], [], []
    for mk in monos:
        starts.append(len(ti))
        for i, mi in enumerate(monos):
            mj = tuple(a - b for a, b in zip(mk, mi))
            if min(mj) >= 0:
                ti.append(i)
                tj.append(_index(dim, order)[mj])
    return ti, tj, starts


@pytest.mark.parametrize("dim, order", DIM_ORDERS)
def test_mul_table_matches_the_loop(dim, order):
    for got, ref in zip(jets._mul_table(dim, order), _ref_mul_table(dim, order)):
        assert got.dtype == np.intp and got.tolist() == ref
