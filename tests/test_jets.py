import numpy as np
import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gl3schwarz.jets import (
    Jet,
    JetError,
    compose,
    invert_map2,
    jet_powq,
    monomials,
)


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
