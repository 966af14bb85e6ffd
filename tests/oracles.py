"""Oracles the tests hold the package to, and draws they share; the program itself does not use them."""

import cmath

import numpy as np

from gl3schwarz import report
from gl3schwarz.derivs import MapJet2
from gl3schwarz.evolution import EvoFields
from gl3schwarz.jets import Jet, JetError, _compose_each, _index, monomials


def invert_map2(g1: Jet, g2: Jet) -> tuple[Jet, Jet]:
    """Jets of the inverse of the 2-variable map (g1, g2) around its image.

    Constant terms of the result are zero: the inverse is expanded in offsets
    from the image point.  Degree-by-degree fixed point iteration.
    """
    if g1.dim != 2 or g2.dim != 2:
        raise JetError("invert_map2 needs 2-variable jets")
    g1._check(g2)
    order = g1.order
    e10, e01 = (1, 0), (0, 1)
    A = np.array(
        [[g1.coeff(e10), g1.coeff(e01)], [g2.coeff(e10), g2.coeff(e01)]],
        dtype=np.complex128,
    )
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    if abs(det) < 1e-14:
        raise JetError("singular Jacobian: map not invertible at base")
    B = np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]]) / det
    # strip constants and linear part: g = const + A*delta + N(delta)
    n1, n2 = g1.copy(), g2.copy()
    for n, row in ((n1, 0), (n2, 1)):
        n._c[0] = 0.0
        idx = _index(2, order)
        n._c[idx[e10]] -= A[row, 0]
        n._c[idx[e01]] -= A[row, 1]
    w1, w2 = Jet.variables(2, order, (0.0, 0.0))
    h1 = B[0, 0] * w1 + B[0, 1] * w2
    h2 = B[1, 0] * w1 + B[1, 1] * w2
    for _ in range(max(order - 1, 0)):
        c1, c2 = _compose_each((n1, n2), [h1, h2])
        r1 = w1 - c1
        r2 = w2 - c2
        h1 = B[0, 0] * r1 + B[0, 1] * r2
        h2 = B[1, 0] * r1 + B[1, 1] * r2
    return h1, h2


def jacobi_ratios(n: int, alpha: float, beta: float, u: np.ndarray):
    """rho_k = P_k / P_{k-1} of P_k^(alpha, beta)(u - 1), k = 1..n, one recurrence term at a time.

    The same recurrence as `appell._jacobi_ratios`, with every coefficient
    formed inside the loop.
    """
    a1, b1 = alpha + 1.0, beta + 1.0
    g = a1 + b1
    rho = [g * u / 2.0 - b1]
    for k in range(2, n + 1):
        s = 2.0 * k - 2.0 + g
        d = 2.0 * k * (k - 2.0 + g) * (s - 2.0)
        q = -4.0 * (k - 1.0) * (k - 2.0) - 4.0 * a1 * (k - 1.0) - 4.0 * b1 * (k - 2.0) - 2.0 * b1 * g
        e = 2.0 * (k - 2.0 + a1) * (k - 2.0 + b1) * s / d
        rho.append((s - 1.0) * s / (2.0 * k * (k - 2.0 + g)) * u + (s - 1.0) * q / d - e / rho[-1])
    return np.array(rho)


# the anharmonic actions of `picard.S3_MATRICES` in their printed coordinate forms
S3_FORMS = {
    "T": lambda x, y: (1 - x, 1 - y),
    "S1": lambda x, y: (x / y, 1 / y),
    "S1T": lambda x, y: ((1 - x) / (1 - y), 1 / (1 - y)),
    "TS1": lambda x, y: ((y - x) / y, (y - 1) / y),
    "S1TS1": lambda x, y: ((y - x) / (y - 1), y / (y - 1)),
    "S2": lambda x, y: (1 / x, y / x),
    "S2T": lambda x, y: (1 / (1 - x), (1 - y) / (1 - x)),
    "TS2": lambda x, y: ((x - 1) / x, (x - y) / x),
    "S2TS2": lambda x, y: (x / (x - 1), (x - y) / (x - 1)),
}


def random_fields(rng, order: int = 2) -> EvoFields:
    """Dense random polynomial fields of the given order; generically not a solution.

    Per field and monomial, the real and the imaginary part are a unit draw
    less 0.5, as in the report's MT4-galilean fields.
    """
    parts = (rng.random(8 * len(monomials(4, order))) - 0.5).reshape(4, -1, 2)
    return EvoFields(*(Jet(4, order, c) for c in parts.view(np.complex128)[..., 0]))


def random_map(rng, size=None) -> MapJet2:
    """Maps as the report draws them (`report.map_candidates`): size=n gives
    a stack of n, and no size one map, the stack of one's only sample."""
    c1, c2 = report.kept(rng, 1 if size is None else size, report.MAP_WIDTH, report.map_candidates)
    return report.coefficient_map(c1[0], c2[0]) if size is None else report.coefficient_map(c1, c2)


def factor_value36(factor, z) -> complex:
    """36th power of the exact multiplier `eta.AutomorphyFactor` at z.

    Each affine row (c1, c2, c3) enters as (c1 w1 + c2 w2 + c3)^12, so the
    value is branch-free by construction.
    """
    w1, w2 = z
    out = cmath.exp(2j * cmath.pi * 36 * factor.phase)
    for c1, c2, c3 in factor.num:
        out *= (c1.to_complex() * w1 + c2.to_complex() * w2 + c3.to_complex()) ** 12
    for c1, c2, c3 in factor.den:
        out /= (c1.to_complex() * w1 + c2.to_complex() * w2 + c3.to_complex()) ** 12
    return out
