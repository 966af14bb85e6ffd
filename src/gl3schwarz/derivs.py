"""The four GL(3) derivatives and their transport identities.

A map is a pair of jets (u1, u2); the four derivatives are determinant
ratios in its first and second partials. Composition transports the
quadruple by a 4x4 matrix of cubic monomials in first partials, extended
to a 5x5 cocycle with one free constant.
"""

from __future__ import annotations

import cmath

import numpy as np

from .jets import Jet, JetError, compose, monomials
from .lft import _as_numpy, act_jets, denominator
from .worst import worst_of

_TINY = 1e-14


class MapJet2:
    """Pair of jets acting in two active variables at a common base point."""

    __slots__ = ("u1", "u2", "ix", "iy")

    def __init__(self, u1: Jet, u2: Jet, active=(0, 1)):
        if u1.dim != u2.dim or u1.order != u2.order:
            raise JetError("map components need matching dim and order")
        ix, iy = active
        if ix == iy or not (0 <= ix < u1.dim and 0 <= iy < u1.dim):
            raise JetError("active variables must be two distinct indices")
        self.u1 = u1
        self.u2 = u2
        self.ix = ix
        self.iy = iy

    @property
    def dim(self) -> int:
        return self.u1.dim

    @property
    def order(self) -> int:
        return self.u1.order

    def first_partials(self) -> tuple[complex, complex, complex, complex]:
        """(u1x, u1y, u2x, u2y) at the base point."""
        ex = _unit(self.dim, self.ix)
        ey = _unit(self.dim, self.iy)
        return (
            self.u1.partial(ex),
            self.u1.partial(ey),
            self.u2.partial(ex),
            self.u2.partial(ey),
        )

    def jacobian_value(self) -> complex:
        u1x, u1y, u2x, u2y = self.first_partials()
        return u1x * u2y - u2x * u1y

    def jacobian_jet(self) -> Jet:
        """Jacobian determinant as a jet of order n-1."""
        u1x = self.u1.deriv(self.ix)
        u1y = self.u1.deriv(self.iy)
        u2x = self.u2.deriv(self.ix)
        u2y = self.u2.deriv(self.iy)
        return u1x * u2y - u2x * u1y


def _unit(dim: int, var: int) -> tuple:
    e = [0] * dim
    e[var] = 1
    return tuple(e)


def identity_map(order: int = 3, base=(0.0, 0.0)) -> MapJet2:
    return MapJet2(*Jet.variables(2, order, base))


def lft_map(g, z, order: int = 3) -> MapJet2:
    """Jets of the linear fractional action of g at the point z."""
    return MapJet2(*act_jets(g, z, order))


class DerivQuad:
    """The quadruple ({.}_x, {.}_y, [.]_x, [.]_y); entries complex or low-order jets."""

    __slots__ = ("brace_x", "brace_y", "bracket_x", "bracket_y")

    def __init__(self, brace_x, brace_y, bracket_x, bracket_y):
        self.brace_x = brace_x
        self.brace_y = brace_y
        self.bracket_x = bracket_x
        self.bracket_y = bracket_y

    def components(self) -> tuple:
        return (self.brace_x, self.brace_y, self.bracket_x, self.bracket_y)

    def values(self) -> tuple[complex, complex, complex, complex]:
        return tuple(c.value if isinstance(c, Jet) else complex(c) for c in self.components())

    def vector(self) -> np.ndarray:
        return np.array(self.values(), dtype=np.complex128)

    def max_abs(self) -> float:
        return worst_of(abs(v) for v in self.values())

    def __repr__(self):
        return f"DerivQuad{self.values()!r}"


def _det2(p, q, r, s):
    return p * s - q * r


def deriv_quad(m: MapJet2) -> DerivQuad:
    """Four derivatives of the map; jets of order (input order - 2).

    brace_x = |u_x; u_xx| / J, brace_y = |u_y; u_yy| / (-J),
    bracket_x = (|u_y; u_xx| + 2|u_x; u_xy|) / J and the y-mirror,
    with J = u1_x u2_y - u2_x u1_y; rows are (u1, u2) pairs.
    """
    if m.order < 2:
        raise JetError("deriv_quad needs jets of order >= 2")
    k = m.order - 2
    u1x = m.u1.deriv(m.ix)
    u1y = m.u1.deriv(m.iy)
    u2x = m.u2.deriv(m.ix)
    u2y = m.u2.deriv(m.iy)
    u1xx = u1x.deriv(m.ix)
    u1xy = u1x.deriv(m.iy)
    u1yy = u1y.deriv(m.iy)
    u2xx = u2x.deriv(m.ix)
    u2xy = u2x.deriv(m.iy)
    u2yy = u2y.deriv(m.iy)
    u1x, u1y, u2x, u2y = (j.truncate(k) for j in (u1x, u1y, u2x, u2y))

    jac = _det2(u1x, u2x, u1y, u2y)
    if abs(jac.value) < _TINY:
        raise JetError("zero Jacobian at base point")
    neg = -jac
    return DerivQuad(
        _det2(u1x, u2x, u1xx, u2xx) / jac,
        _det2(u1y, u2y, u1yy, u2yy) / neg,
        (_det2(u1y, u2y, u1xx, u2xx) + 2 * _det2(u1x, u2x, u1xy, u2xy)) / jac,
        (_det2(u1x, u2x, u1yy, u2yy) + 2 * _det2(u1y, u2y, u1xy, u2xy)) / neg,
    )


def _transport_from_partials(w1x, w1y, w2x, w2y) -> np.ndarray:
    return np.array(
        [
            [w1x**3, -(w2x**3), w1x**2 * w2x, -w1x * w2x**2],
            [-(w1y**3), w2y**3, -(w1y**2) * w2y, w1y * w2y**2],
            [
                3 * w1x**2 * w1y,
                -3 * w2x**2 * w2y,
                w1x**2 * w2y + 2 * w1x * w2x * w1y,
                -(w2x**2) * w1y - 2 * w1x * w2x * w2y,
            ],
            [
                -3 * w1x * w1y**2,
                3 * w2x * w2y**2,
                -w2x * w1y**2 - 2 * w1x * w1y * w2y,
                w1x * w2y**2 + 2 * w2x * w1y * w2y,
            ],
        ],
        dtype=np.complex128,
    )


def transport_matrix(w: MapJet2) -> np.ndarray:
    """4x4 matrix of cubic monomials in the first partials of the map."""
    w1x, w1y, w2x, w2y = w.first_partials()
    return _transport_from_partials(w1x, w1y, w2x, w2y)


def chain_rule_rhs(u_quad: DerivQuad, w: MapJet2) -> DerivQuad:
    """Quad of the composite u(w(x, y)): M(w)/J_w applied to u's quad, plus w's quad.

    u_quad must be taken at the image point w(base).
    """
    jac = w.jacobian_value()
    if abs(jac) < _TINY:
        raise JetError("zero Jacobian at base point")
    vec = transport_matrix(w) @ u_quad.vector() / jac + deriv_quad(w).vector()
    return DerivQuad(*vec)


class ExtendedTransport:
    """5x5 block cocycle: |M  c*J*quad; 0  J| for a free constant c."""

    __slots__ = ("m", "jac", "quad", "c")

    def __init__(self, w: MapJet2, c=0.0):
        self.m = transport_matrix(w)
        self.jac = w.jacobian_value()
        self.quad = deriv_quad(w)
        self.c = complex(c)

    def matrix(self) -> np.ndarray:
        out = np.zeros((5, 5), dtype=np.complex128)
        out[:4, :4] = self.m
        out[:4, 4] = self.c * self.jac * self.quad.vector()
        out[4, 4] = self.jac
        return out


def second_arg_transform(u_quad: DerivQuad, g, z) -> DerivQuad:
    """Quad of u composed with the action of g, from u's quad at g(z).

    Uses the closed-form first partials of the action: with rows (a; b; c)
    of g, A1 = (a1c2 - a2c1) y + (a1c3 - a3c1), A2 = (a2c1 - a1c2) x +
    (a2c3 - a3c2), similarly B from the b-row, each over (c.z)^2.
    """
    m = _as_numpy(g)
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = m
    x, y = z
    cz = denominator(m, z)
    delta = complex(np.linalg.det(m))
    if abs(cz) < _TINY or abs(delta) < _TINY:
        raise ZeroDivisionError("vanishing denominator or determinant")
    A1 = (a1 * c2 - a2 * c1) * y + (a1 * c3 - a3 * c1)
    A2 = (a2 * c1 - a1 * c2) * x + (a2 * c3 - a3 * c2)
    B1 = (b1 * c2 - b2 * c1) * y + (b1 * c3 - b3 * c1)
    B2 = (b2 * c1 - b1 * c2) * x + (b2 * c3 - b3 * c2)
    mat = _transport_from_partials(A1 / cz**2, A2 / cz**2, B1 / cz**2, B2 / cz**2)
    jac = delta / cz**3
    return DerivQuad(*(mat @ u_quad.vector() / jac))


def jacobian_deformation(fhat1: Jet, fhat2: Jet, z: MapJet2) -> complex:
    """Jacobian of the transported field pair, from data in the source chart.

    Evaluates the ten-term expansion of d(f1, f2)/d(z1, z2) where
    (f1, f2) = (fhat1, fhat2) . Dz; every correction term is a ratio of
    second-partial determinants of the map z against its Jacobian.
    """
    e1, e2 = (1, 0), (0, 1)
    f1, f2 = fhat1.value, fhat2.value
    f1_1, f1_2 = fhat1.partial(e1), fhat1.partial(e2)
    f2_1, f2_2 = fhat2.partial(e1), fhat2.partial(e2)

    z1, z2 = z.u1, z.u2
    z1w1, z1w2 = z1.partial(e1), z1.partial(e2)
    z2w1, z2w2 = z2.partial(e1), z2.partial(e2)
    z1_11, z1_12, z1_22 = z1.partial((2, 0)), z1.partial((1, 1)), z1.partial((0, 2))
    z2_11, z2_12, z2_22 = z2.partial((2, 0)), z2.partial((1, 1)), z2.partial((0, 2))

    jac = z1w1 * z2w2 - z2w1 * z1w2
    if abs(jac) < _TINY:
        raise JetError("zero Jacobian at base point")

    return (
        (f1_1 * f2_2 - f2_1 * f1_2)
        - f1 * f1_2 * _det2(z1w1, z2w1, z1_11, z2_11) / jac
        - f2 * f2_1 * _det2(z1w2, z2w2, z1_22, z2_22) / (-jac)
        - f1 * f2_2 * _det2(z1w2, z2w2, z1_11, z2_11) / jac
        - (f2 * f1_2 - f1 * f1_1) * _det2(z1w1, z2w1, z1_12, z2_12) / jac
        - f2 * f1_1 * _det2(z1w1, z2w1, z1_22, z2_22) / (-jac)
        - (f1 * f2_1 - f2 * f2_2) * _det2(z1w2, z2w2, z1_12, z2_12) / (-jac)
        + f1**2 * _det2(z1_11, z2_11, z1_12, z2_12) / jac
        + f2**2 * _det2(z1_22, z2_22, z1_12, z2_12) / (-jac)
        + f1 * f2 * _det2(z1_11, z2_11, z1_22, z2_22) / jac
    )


def transported_pair(fhat1: Jet, fhat2: Jet, z: MapJet2) -> tuple[Jet, Jet]:
    """(f1, f2) = (fhat1, fhat2) . Dz as jets one order below the inputs."""
    k = z.order - 1
    h1, h2 = fhat1.truncate(k), fhat2.truncate(k)
    return (
        h1 * z.u1.deriv(0) + h2 * z.u1.deriv(1),
        h1 * z.u2.deriv(0) + h2 * z.u2.deriv(1),
    )


def z0_bracket_coeffs(f1: Jet, f2: Jet) -> tuple[Jet, Jet]:
    """First-order part of the deformed bracket of f1 d1 x d2 and f2 d1 x d2.

    Returns the coefficients of d/dt1 and d/dt2:
    (f1+f2) df1/dt2 + f1 (df2/dt2 - df1/dt1) and
    (f1+f2) df2/dt1 + f2 (df1/dt1 - df2/dt2).
    The double-integral central term is excluded.
    """
    k = f1.order - 1
    a, b = f1.truncate(k), f2.truncate(k)
    f1_1, f1_2 = f1.deriv(0), f1.deriv(1)
    f2_1, f2_2 = f2.deriv(0), f2.deriv(1)
    return (
        (a + b) * f1_2 + a * (f2_2 - f1_1),
        (a + b) * f2_1 + b * (f1_1 - f2_2),
    )


def exp_system_oracle(pairs):
    """Constant-coefficient system solved by three exponentials, and its quad.

    Each (lambda, mu) pair gives z = exp(lambda x + mu y); the linear solves
    impose z_xx = a.(z_x, z_y, z), z_xy = b.(...), z_yy = c.(...). The map
    (z1/z3, z2/z3) then has quad (a2, c1, 2 b2 - a1, 2 b1 - c2).
    """
    lam = np.array([p[0] for p in pairs], dtype=np.complex128)
    mu = np.array([p[1] for p in pairs], dtype=np.complex128)
    if lam.shape != (3,):
        raise ValueError("need exactly three exponent pairs")
    rows = np.column_stack([lam, mu, np.ones(3, dtype=np.complex128)])
    if abs(np.linalg.det(rows)) < 1e-12:
        raise ValueError("degenerate exponent pairs: singular linear system")
    a = np.linalg.solve(rows, lam**2)
    b = np.linalg.solve(rows, lam * mu)
    c = np.linalg.solve(rows, mu**2)
    quad = DerivQuad(a[1], c[0], 2 * b[1] - a[0], 2 * b[0] - c[1])
    return a, b, c, quad


def _jet_exp(a: Jet) -> Jet:
    """exp of a jet: exp(const) times the truncated series in the nilpotent part."""
    n = a - a.value
    out = Jet.constant(a.dim, a.order, 1.0)
    term = Jet.constant(a.dim, a.order, 1.0)
    for k in range(1, a.order + 1):
        term = term * n / k
        out = out + term
    return cmath.exp(a.value) * out


def exp_solution_map(pairs, base=(0.0, 0.0), order: int = 3) -> MapJet2:
    """(z1/z3, z2/z3) for z_i = exp(lambda_i x + mu_i y), as jets at base."""
    x, y = Jet.variables(2, order, base)
    zs = [_jet_exp(lam * x + mu * y) for lam, mu in pairs]
    return MapJet2(zs[0] / zs[2], zs[1] / zs[2])


def random_map(rng, order: int = 3, radius: float = 0.3, min_jac: float = 0.1) -> MapJet2:
    """Polynomial map near the identity with a well-conditioned Jacobian.

    Coefficients live in a disc of the given radius around the identity map;
    draws are repeated until |Jacobian| >= min_jac at the base point.
    """
    monos = monomials(2, order)
    for _ in range(100):
        jets = []
        for lin in ((1, 0), (0, 1)):
            # per monomial a modulus draw, then a phase draw: the order of
            # one scalar uniform() and one uniform(0, 2 pi) per coefficient
            u = rng.uniform(size=(len(monos), 2))
            coeffs = radius * np.sqrt(u[:, 0]) * np.exp(1j * (2 * np.pi * u[:, 1]))
            coeffs[monos.index(lin)] += 1.0
            jets.append(Jet(2, order, coeffs))
        m = MapJet2(*jets)
        if abs(m.jacobian_value()) >= min_jac:
            return m
    raise RuntimeError("failed to sample a well-conditioned map")


def compose_maps(u: MapJet2, w: MapJet2) -> MapJet2:
    """Jets of u(w(x, y)); u must be centered at w's image point."""
    return MapJet2(compose(u.u1, [w.u1, w.u2]), compose(u.u2, [w.u1, w.u2]))
