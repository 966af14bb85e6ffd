"""The four GL(3) derivatives and their transport identities.

A map is a pair of jets (u1, u2); the four derivatives are determinant
ratios in its first and second partials.  The quadruple is one jet whose
last sample axis holds the four derivatives, so its value has shape
(..., 4).  Composition transports these values by a 4x4 matrix of cubic
monomials in first partials, extended to a 5x5 cocycle with one free
constant.

Every function here takes stacks of jets as well (see `jets`): a map whose
jets stack n samples gives a quad of sample shape (n, 4), and transport
matrices of shape (n, 4, 4).  Matrices acting by linear fractional maps
stack their samples on the last axis, (3, 3, n), so that m[i, j] is entry
(i, j) of every sample.  A refused sample of a stack (a zero Jacobian, a
vanishing denominator or determinant) is named by its index (`jets._refuse`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .jets import (
    Jet,
    JetError,
    _col,
    _compose_each,
    _deriv_table,
    _product,
    _refuse,
    _series,
    _wrap,
    monomials,
)
from .lft import act, denominator, det_and_matrix

_TINY = 1e-14


class MapJet2:
    """Pair of jets acting in their first two variables at a common base point."""

    __slots__ = ("u1", "u2")

    def __init__(self, u1: Jet, u2: Jet):
        if u1.dim != u2.dim or u1.order != u2.order or u1._c.shape != u2._c.shape:
            raise JetError("map components need matching dim, order and samples")
        if u1.dim < 2:
            raise JetError("a map acts in two variables: its jets need dim >= 2")
        self.u1 = u1
        self.u2 = u2

    @property
    def dim(self) -> int:
        return self.u1.dim

    @property
    def order(self) -> int:
        return self.u1.order

    def first_partials(self) -> tuple[complex, complex, complex, complex]:
        """(u1x, u1y, u2x, u2y) at the base point."""
        ex = _unit(self.dim, 0)
        ey = _unit(self.dim, 1)
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
        u1x = self.u1.deriv(0)
        u1y = self.u1.deriv(1)
        u2x = self.u2.deriv(0)
        u2y = self.u2.deriv(1)
        return u1x * u2y - u2x * u1y


def _unit(dim: int, var: int) -> tuple:
    e = [0] * dim
    e[var] = 1
    return tuple(e)


def lft_map(g, z) -> MapJet2:
    """Order-3 jets of the linear fractional action of g at the point z.

    A stack of matrices (3, 3, n) with points z = (z1, z2) of n entries each
    gives the stack of the n maps.
    """
    return MapJet2(*act(g, Jet.variables(2, 3, z)))


def _apply(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Matrix times vector for every sample of (..., k, k) and (..., k)."""
    return np.einsum("...ij,...j->...i", mat, vec)


def _det2(p, q, r, s):
    return p * s - q * r


@lru_cache(maxsize=None)
def _partials_table(dim: int, order: int):
    """Gather of the partials x, y, xx, 2xy, -2xy, -yy of a map, at order - 2.

    Returns (src, f1, f2), each of shape (6, n): coefficient j of partial p
    of a component u is u[src[p, j]] * f1[p, j] * f2[p, j], the factors of
    the two derivative steps applied in turn (f2 is 1 for first partials).
    """
    n = len(monomials(dim, order - 2))
    sx, fx = _deriv_table(dim, order, 0)
    sy, fy = _deriv_table(dim, order, 1)
    tx, gx = _deriv_table(dim, order - 1, 0)
    ty, gy = _deriv_table(dim, order - 1, 1)
    ones = np.ones(n)
    src = np.array([sx[:n], sy[:n], sx[tx], sx[ty], sx[ty], sy[ty]])
    f1 = np.array([fx[:n], fy[:n], fx[tx], fx[ty], fx[ty], fy[ty]])
    f2 = np.array([ones, ones, gx, 2 * gy, -2 * gy, -gy])
    return src, f1, f2


# The determinants of deriv_quad as pairs (a, b) of rows of _partials_table
# (0 = x, 1 = y, 2 = xx, 3 = 2xy, 4 = -2xy, 5 = -yy), each read as
# |a; b| = a1 b2 - a2 b1 over the map's components (u1, u2).  Summed in the
# groups that start at _NUMERATORS, they give the four numerators over J
# and then J itself.
_DETS = np.array([[0, 1, 1, 0, 0, 1, 0], [2, 5, 2, 3, 5, 4, 1]])
_NUMERATORS = np.array([0, 1, 2, 4, 6])


def deriv_quad(m: MapJet2) -> Jet:
    """The quad ({.}_x, {.}_y, [.]_x, [.]_y) of the map as one jet of order
    (input order - 2) whose last sample axis holds the four derivatives, so
    its value has shape (..., 4).

    brace_x = |u_x; u_xx| / J, brace_y = |u_y; u_yy| / (-J),
    bracket_x = (|u_y; u_xx| + 2|u_x; u_xy|) / J and the y-mirror,
    with J = u1_x u2_y - u2_x u1_y; rows are (u1, u2) pairs.  The seven
    determinants are one stacked product of coefficient arrays, and the
    four numerators share one inverse of J: x / (-J) is -x * J^-1 exactly,
    so the y-side numerators are taken with -u_yy and -2 u_xy.
    """
    if m.order < 2:
        raise JetError("deriv_quad needs jets of order >= 2")
    dim, k = m.dim, m.order - 2
    src, f1, f2 = _partials_table(dim, m.order)
    # (component, ..., partial, coefficient)
    partials = np.array((m.u1._c, m.u2._c)).take(src, -1) * f1 * f2
    a, b = _DETS
    prods = _product(dim, k, partials[..., a, :], partials[::-1, ..., b, :])
    sums = np.add.reduceat(prods[0] - prods[1], _NUMERATORS, -2)
    jac = _wrap(dim, k, sums[..., 4, :])
    _refuse(abs(jac.value) < _TINY, "zero Jacobian at base point", JetError)
    return _wrap(dim, k, _product(dim, k, sums[..., :4, :], jac._inverse()._c[..., None, :]))


def _transport_from_partials(w1x, w1y, w2x, w2y) -> np.ndarray:
    m = np.array(
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
    return np.moveaxis(m, (0, 1), (-2, -1))


def transport_matrix(w: MapJet2) -> np.ndarray:
    """4x4 matrix of cubic monomials in the first partials of the map."""
    w1x, w1y, w2x, w2y = w.first_partials()
    return _transport_from_partials(w1x, w1y, w2x, w2y)


def chain_rule_rhs(u_quad: np.ndarray, w: MapJet2) -> np.ndarray:
    """Quad values (..., 4) of the composite u(w(x, y)): M(w)/J_w applied to
    u's quad values, plus w's.

    u_quad must be taken at the image point w(base).
    """
    jac = w.jacobian_value()
    _refuse(abs(jac) < _TINY, "zero Jacobian at base point", JetError)
    return _apply(transport_matrix(w), u_quad) / _col(jac) + deriv_quad(w).value


def extended_transport(w: MapJet2, c) -> np.ndarray:
    """5x5 block cocycle |M  c*J*quad; 0  J| for a free constant c.

    For a stacked map c may be an array with one constant per sample.
    """
    jac = w.jacobian_value()
    out = np.zeros(np.shape(jac) + (5, 5), dtype=np.complex128)
    out[..., :4, :4] = transport_matrix(w)
    out[..., :4, 4] = _col(c * jac) * deriv_quad(w).value
    out[..., 4, 4] = jac
    return out


def second_arg_transform(u_quad: np.ndarray, g, z) -> np.ndarray:
    """Quad values (..., 4) of u composed with the action of g, from u's quad
    values at g(z).

    Uses the closed-form first partials of the action: with rows (a; b; c)
    of g, A1 = (a1c2 - a2c1) y + (a1c3 - a3c1), A2 = (a2c1 - a1c2) x +
    (a2c3 - a3c2), similarly B from the b-row, each over (c.z)^2.
    """
    delta, m = det_and_matrix(g)
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = m
    x, y = z
    cz = denominator(m, z)
    vanishing = (abs(cz) < _TINY) | (abs(delta) < _TINY)
    _refuse(vanishing, "vanishing denominator or determinant", ZeroDivisionError)
    A1 = (a1 * c2 - a2 * c1) * y + (a1 * c3 - a3 * c1)
    A2 = (a2 * c1 - a1 * c2) * x + (a2 * c3 - a3 * c2)
    B1 = (b1 * c2 - b2 * c1) * y + (b1 * c3 - b3 * c1)
    B2 = (b2 * c1 - b1 * c2) * x + (b2 * c3 - b3 * c2)
    mat = _transport_from_partials(A1 / cz**2, A2 / cz**2, B1 / cz**2, B2 / cz**2)
    jac = delta / cz**3
    return _apply(mat, u_quad) / _col(jac)


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
    _refuse(abs(jac) < _TINY, "zero Jacobian at base point", JetError)

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


def exponent_rows(pairs):
    """(lambda, mu, cofactors, det) of the rows r_i = (lambda_i, mu_i, 1) of three exponent pairs.

    pairs has shape (3, 2), or (..., 3, 2) for a stack of triples.  Row i of
    the cofactors (shape (..., 3, 3)) is r_j x r_k for (i, j, k) a cyclic
    order of (0, 1, 2), so column i of the inverse of the row matrix is
    cofactors[..., i, :] / det, and det = r_0 . (r_1 x r_2).
    """
    pairs = np.asarray(pairs, dtype=np.complex128)
    if pairs.shape[-2:] != (3, 2):
        raise ValueError("need exactly three exponent pairs")
    lam, mu = pairs[..., 0], pairs[..., 1]
    (lj, mj), (lk, mk) = ((np.roll(lam, -i, -1), np.roll(mu, -i, -1)) for i in (1, 2))
    cof = np.stack([mj - mk, lk - lj, lj * mk - mj * lk], -1)
    det = lam[..., 0] * cof[..., 0, 0] + mu[..., 0] * cof[..., 0, 1] + cof[..., 0, 2]
    return lam, mu, cof, det


EXP_MIN_DET = 1e-12  # exponent pairs with a smaller |det| are degenerate


def exp_system_oracle(pairs):
    """Constant-coefficient system solved by three exponentials, and its quad values.

    Each (lambda, mu) pair gives z = exp(lambda x + mu y); the linear solves
    impose z_xx = a.(z_x, z_y, z), z_xy = b.(...), z_yy = c.(...), each
    solution sum_i rhs_i cofactors_i / det for its right-hand side rhs.  The
    map (z1/z3, z2/z3) then has quad (a2, c1, 2 b2 - a1, 2 b1 - c2).  A stack
    of triples (..., 3, 2) gives a, b, c of shape (..., 3) and quad values
    of shape (..., 4).  Degenerate pairs, in any sample, are a ValueError.
    """
    lam, mu, cof, det = exponent_rows(pairs)
    _refuse(abs(det) < EXP_MIN_DET, "degenerate exponent pairs: singular linear system")
    a, b, c = (
        (rhs[..., :, None] * cof).sum(-2) / det[..., None] for rhs in (lam**2, lam * mu, mu**2)
    )
    (a0, a1, _), (b0, b1, _), (c0, c1, _) = (np.moveaxis(v, -1, 0) for v in (a, b, c))
    return a, b, c, np.stack((a1, c0, 2 * b1 - a0, 2 * b0 - c1), -1)


def _jet_exp(a: Jet) -> Jet:
    """exp of a jet: exp(const) times the truncated series in the nilpotent part."""
    nil = a._c.copy()
    nil[..., 0] = 0.0
    inv_factorials = (1.0, 1 / 2, 1 / 6)[: a.order]
    return _wrap(a.dim, a.order, _series(a.dim, a.order, nil, inv_factorials) * _col(np.exp(a.value)))


def exp_solution_map(pairs, base) -> MapJet2:
    """(z1/z3, z2/z3) for z_i = exp(lambda_i x + mu_i y), as order-3 jets at base.

    pairs has shape (3, 2), or (..., 3, 2) for a stacked map.
    """
    x, y = Jet.variables(2, 3, base)
    pairs = np.moveaxis(np.asarray(pairs, dtype=np.complex128), (-2, -1), (0, 1))
    zs = [_jet_exp(lam * x + mu * y) for lam, mu in pairs]
    return MapJet2(zs[0] / zs[2], zs[1] / zs[2])


def compose_maps(u: MapJet2, w: MapJet2) -> MapJet2:
    """Jets of u(w(x, y)); u must be centered at w's image point."""
    return MapJet2(*_compose_each((u.u1, u.u2), [w.u1, w.u2]))
