"""Residual checks for the rank-three linear systems attached to a planar map.

Two directions are covered.  Given a map (w1, w2) of (v1, v2), the cube
root of the inverse Jacobian must satisfy three linear second-order
equations whose coefficients are built from the map's derivative
quadruple (``mt1_residuals``).  Conversely, when the quadruple has the
three-pole rational shape parametrized by (alpha, beta, gamma), the
system has closed-form solutions: an Appell series times an algebraic
prefactor (``mt2_solution_residuals``).  Everything is evaluated on
truncated jets, so residuals of a true identity sit at rounding level.
Points may be arrays over a stack of samples: the jets then stack them
(see `jets`), each Appell branch is one stacked series, and the residuals
are arrays over the samples.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .appell import F1Params, f1_series
from .derivs import MapJet2, deriv_quad
from .jets import Jet, JetError, _base, _refuse, _wrap, jet_powq
from .worst import worst_of

# Sample points must keep this distance from the poles {0, 1, v_other}.
BASE_MARGIN = 0.05


@dataclass(frozen=True)
class ParamTriple:
    """Exponent triple (alpha, beta, gamma) of the three-pole fields."""

    alpha: complex
    beta: complex
    gamma: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        object.__setattr__(self, "gamma", complex(self.gamma))

    def f1_params(self, which: str = "first") -> F1Params:
        """Appell parameters of the solution branch.

        first:  (alpha+beta-1; -gamma, -gamma; alpha-gamma) in (v1, v2)
        second: (alpha+beta-1; -gamma, -gamma; beta-gamma) in (1-v1, 1-v2)
        """
        a = self.alpha + self.beta - 1
        b = -self.gamma
        if which == "first":
            c = self.alpha - self.gamma
        elif which == "second":
            c = self.beta - self.gamma
        else:
            raise ValueError(f"unknown branch {which!r}")
        p = F1Params(a, b, b, c)
        p.require_series_ok()
        return p


# The two parameter sets realized by period maps of the cubic-curve
# families: the generic one and the one attached to the modular form.
PICARD = ParamTriple(Fraction(2, 3), Fraction(2, 3), Fraction(-1, 3))
PICARD_MODULAR = ParamTriple(Fraction(3, 4), Fraction(1, 2), Fraction(-1, 4))


def _modulus(z):
    """|z| as Python's abs takes it: a number's by abs, which refuses an overflow, and an
    array's by the hypot of its parts, which numpy's complex abs rounds otherwise."""
    return np.hypot(z.real, z.imag) if isinstance(z, np.ndarray) else abs(z)


def _pole_gap(v1: complex, v2: complex) -> float:
    """Distance of the point from the poles: min |v1|, |v2|, |v1-1|, |v2-1|, |v1-v2|.

    Arrays of points give the distance of each.
    """
    return reduce(np.minimum, map(_modulus, (v1, v2, v1 - 1, v2 - 1, v1 - v2)))


def _check_poles(v1, v2, margin: float):
    gap = _pole_gap(_base(v1), _base(v2))
    _refuse(gap < margin, f"pole hit: point within {margin} of {{0, 1, v_other}}")


def pole_quotient(x, y):
    """y(y-1)/(x(x-1)(x-y)): the brace shape; pole_quotient(y, x) is its mirror."""
    return y * (y - 1) / (x * (x - 1) * (x - y))


def pole_sum(a, b, g, x, y):
    """a/x + b/(x-1) + g/(x-y): the bracket shape; swap x and y for its mirror."""
    return a / x + b / (x - 1) + g / (x - y)


def field_quad(p: ParamTriple, v):
    """Closed-form coefficient fields, shaped as deriv_quad's quad.

    Entries of v that are jets give one jet whose last sample axis holds
    the four fields; numbers give their values, of shape (..., 4).
    """
    v1, v2 = v
    _check_poles(v1, v2, 1e-12)
    a, b, g = p.alpha, p.beta, p.gamma
    f1, f2 = -g * pole_quotient(v1, v2), -g * pole_quotient(v2, v1)
    quad = (f1, f2, pole_sum(a, b, g, v1, v2), pole_sum(a, b, g, v2, v1))
    if isinstance(f1, Jet):
        return _wrap(f1.dim, f1.order, np.stack([f._c for f in quad], -2))
    return np.stack(quad, -1)


def _field_data(fields):
    """Values and first partials of the four fields, a quad jet of order >= 1."""
    if not isinstance(fields, Jet):
        raise JetError("fields must be jets of order >= 1")
    data = (fields.value, fields.partial((1, 0)), fields.partial((0, 1)))
    return zip(*(np.moveaxis(d, -1, 0) for d in data))


def _z_system(z: Jet, fields):
    """Residuals and term scale of the three linear equations.

    On stacked jets both are arrays over the samples.  The rational
    coefficients are floats: a Fraction times a complex is the float times
    it, and a Fraction times an array would be an object array.
    """
    (f1, f1_1, f1_2), (f2, f2_1, f2_2), (p1, p1_1, p1_2), (p2, p2_1, p2_2) = (
        _field_data(fields)
    )
    z0 = z.value
    z1, z2 = z.partial((1, 0)), z.partial((0, 1))
    z11, z12, z22 = z.partial((2, 0)), z.partial((1, 1)), z.partial((0, 2))
    third = 1 / 3
    eqs = (
        (z11, third * p1 * z1, -f1 * z2,
         (f1_2 - third * p1_1 - 2 / 9 * p1 * p1
          - 2 / 3 * f1 * p2) * z0),
        (z12, -third * p2 * z1, -third * p1 * z2,
         (third * p2_1 + third * p1_2 + 1 / 9 * p1 * p2
          - f1 * f2) * z0),
        (z22, third * p2 * z2, -f2 * z1,
         (f2_1 - third * p2_2 - 2 / 9 * p2 * p2
          - 2 / 3 * f2 * p1) * z0),
    )
    residuals = tuple(sum(terms) for terms in eqs)
    scale = worst_of(abs(t) for terms in eqs for t in terms)
    return residuals, scale


def z_system_residuals(z: Jet, fields) -> tuple[complex, complex, complex]:
    """Three equation residuals for a candidate z (jet of order >= 2).

    ``fields`` is a quad jet (see ``deriv_quad``); its first partials enter the
    zeroth-order coefficients.  Each equation is homogeneous in z, so the
    branch constant of a cube root drops out.
    """
    return _z_system(z, fields)[0]


def _mt1_system(w: MapJet2, branch: int):
    """(1/det Dw)^(1/3), times a cube root of unity, and the quad of w."""
    if w.order < 3:
        raise JetError("map jets must have order >= 3")
    quad = deriv_quad(w)
    delta = 1 / w.jacobian_jet()
    z = jet_powq(delta, Fraction(1, 3))
    if branch % 3:
        z = cmath.exp(2j * cmath.pi * (branch % 3) / 3) * z
    return z, quad


def mt1_residuals(w) -> tuple[complex, complex, complex]:
    """Residuals of the linear system satisfied by (1/det Dw)^(1/3).

    ``w`` is a MapJet2 of order >= 3; the coefficient
    fields are its derivative quadruple.  A stacked map gives residuals
    over its samples.
    """
    return z_system_residuals(*_mt1_system(w, 0))


def mt1_branch_residuals(w, branch: int):
    """The residuals for z on another branch, and how far z^3 det Dw is from 1.

    ``branch`` multiplies z by a cube root of unity.  The residuals are
    homogeneous in z, so they scale by that root, and so they would by any
    other constant; the second part, the worst coefficient of the order-1
    jet z^3 det Dw - 1, vanishes only for a cube root of unity.  A stacked
    map gives both over its samples.
    """
    z, quad = _mt1_system(w, branch)
    cube = (z**3 * w.jacobian_jet()).truncate(1) - 1.0
    return z_system_residuals(z, quad), np.abs(cube._c).max(-1)


def mt1_relative_residual(w) -> float:
    """max residual / max term, over the three equations."""
    residuals, scale = _z_system(*_mt1_system(w, 0))
    return worst_of(abs(r) for r in residuals) / scale


def w_system_residuals(w: Jet, p: ParamTriple, v) -> tuple[complex, complex, complex]:
    """Residuals of the three equations for the prefactor-stripped w.

    w_v1v1 + (a/v1 + b/(v1-1) - g/(v1-v2)) w_v1
           + (g v2(v2-1)/(v1(v1-1)(v1-v2))) w_v2
           + ((1-a-b) g/(v1(v1-1))) w = 0,
    its v1 <-> v2 mirror, and
    w_v1v2 + (g/(v1-v2)) w_v1 - (g/(v1-v2)) w_v2 = 0.
    """
    (A1, B1, C1), (A2, B2, C2), h = _w_coefficients(p, _base(v[0]), _base(v[1]))
    w0 = w.value
    w1, w2 = w.partial((1, 0)), w.partial((0, 1))
    w11, w12, w22 = w.partial((2, 0)), w.partial((1, 1)), w.partial((0, 2))
    r1 = w11 + A1 * w1 + B1 * w2 + C1 * w0
    r2 = w22 + A2 * w2 + B2 * w1 + C2 * w0
    r3 = w12 + h * w1 - h * w2
    return (r1, r2, r3)


def _w_coefficients(p: ParamTriple, v1: complex, v2: complex):
    """((A1, B1, C1), (A2, B2, C2), h) of the w-system at (v1, v2).

    The equations read w_vivi + Ai w_vi + Bi w_vj + Ci w = 0 ({i, j} =
    {1, 2}) and w_v1v2 + h w_v1 - h w_v2 = 0.
    """
    a, b, g = p.alpha, p.beta, p.gamma
    row1, row2 = (
        (pole_sum(a, b, -g, s, t), g * pole_quotient(s, t), (1 - a - b) * g / (s * (s - 1)))
        for s, t in ((v1, v2), (v2, v1))
    )
    return row1, row2, g / (v1 - v2)


def _z_prefactor(p: ParamTriple, V1: Jet, V2: Jet) -> Jet:
    """v1^(a/3) v2^(a/3) (v1-1)^(b/3) (v2-1)^(b/3) (v1-v2)^(-2g/3)."""
    a3 = p.alpha / 3
    b3 = p.beta / 3
    g3 = -2 * p.gamma / 3
    return (
        jet_powq(V1, a3)
        * jet_powq(V2, a3)
        * jet_powq(V1 - 1, b3)
        * jet_powq(V2 - 1, b3)
        * jet_powq(V1 - V2, g3)
    )


def _series_domain(v1: complex, v2: complex, which: str):
    if which == "first":
        _refuse((abs(v1) >= 1) | (abs(v2) >= 1), "first branch needs |v1|, |v2| < 1")
    else:
        _refuse((abs(1 - v1) >= 1) | (abs(1 - v2) >= 1), "second branch needs |1-v1|, |1-v2| < 1")


def _series_point(v, branches):
    """(v1, v2) and their order-2 variable jets, checked against the poles
    and the series domain of each branch.

    Arrays of points give stacked jets; the first point refused is named.
    """
    v1, v2 = _base(v[0]), _base(v[1])
    _check_poles(v1, v2, BASE_MARGIN)
    for which in branches:
        _series_domain(v1, v2, which)
    return (v1, v2), Jet.variables(2, 2, (v1, v2))


def _branch_solution(p: ParamTriple, V1: Jet, V2: Jet, which: str) -> Jet:
    params = p.f1_params(which)
    if which == "first":
        return f1_series(params, V1, V2)
    return f1_series(params, 1 - V1, 1 - V2)


def mt2_solution_residuals(p: ParamTriple, v, which: str = "first") -> tuple:
    """Residuals of the closed-form solution on both levels.

    Builds w from the Appell series branch, checks the three w-equations,
    then rebuilds z = prefactor * w and checks the three z-equations with
    the closed-form fields.  Returns (w_residuals, z_residuals), three
    residuals each; arrays of points give arrays of residuals, from one
    stacked series per branch.
    """
    v, (V1, V2) = _series_point(v, (which,))
    w = _branch_solution(p, V1, V2, which)
    wr = w_system_residuals(w, p, v)
    z = _z_prefactor(p, V1, V2) * w
    zr = z_system_residuals(z, field_quad(p, (V1, V2)))
    return wr, zr


def pfaffian_jet(p: ParamTriple, v, data) -> Jet:
    """Order-2 jet of the w-system solution with value and gradient ``data``.

    The three equations express every second partial through (w, w_v1,
    w_v2), so a local solution jet is determined by that triple alone.
    Arrays of points give a stack of jets, one per point.
    """
    v1, v2 = _base(v[0]), _base(v[1])
    _check_poles(v1, v2, 1e-12)
    (A1, B1, C1), (A2, B2, C2), h = _w_coefficients(p, v1, v2)
    w0, w1, w2 = (_base(t) for t in data)
    w11 = -(A1 * w1 + B1 * w2 + C1 * w0)
    w22 = -(A2 * w2 + B2 * w1 + C2 * w0)
    w12 = -h * w1 + h * w2
    return Jet(
        2,
        2,
        {
            (0, 0): w0,
            (1, 0): w1,
            (0, 1): w2,
            (2, 0): w11 / 2,
            (1, 1): w12,
            (0, 2): w22 / 2,
        },
    )


def mt2_field_recovery_gap(p: ParamTriple, v) -> float:
    """Cross-check: series solutions feed the map-side field extraction.

    Takes the two series branches as s1, s2, completes the basis with the
    solution jet s3 of value 1 and gradient (-0.5, 0.9), and compares the
    derivative quadruple of (s1/s3, s2/s3) against the closed-form fields.
    Needs a point where both branches converge.  Arrays of points give the
    gap at each.
    """
    v, (V1, V2) = _series_point(v, ("first", "second"))
    s1 = _branch_solution(p, V1, V2, "first")
    s2 = _branch_solution(p, V1, V2, "second")
    s3 = pfaffian_jet(p, v, (1.0, -0.5, 0.9))
    quad = deriv_quad(MapJet2(s1 / s3, s2 / s3)).value
    return np.abs(quad - field_quad(p, v)).max(-1)


def picard_modular_form_residuals(v, coeffs=(1.0, 1.0)) -> tuple:
    """Residuals of the rebuilt cube-root-of-Jacobian at the modular set.

    z = v1^(1/4) v2^(1/4) (v1-1)^(1/6) (v2-1)^(1/6) (v1-v2)^(1/6)
        * [c1 * F1(1/4; 1/4, 1/4; 1; v1, v2)
           + c2 * F1(1/4; 1/4, 1/4; 3/4; 1-v1, 1-v2)]
    checked against the system with (alpha, beta, gamma) = (3/4, 1/2, -1/4).
    Arrays of points, and of coefficients c1, c2 over the same points, give
    the residuals at each point.
    """
    _, (V1, V2) = _series_point(v, ("first", "second"))
    c1, c2 = coeffs
    p = PICARD_MODULAR
    head = _z_prefactor(p, V1, V2)
    sA = _branch_solution(p, V1, V2, "first")
    sB = _branch_solution(p, V1, V2, "second")
    z = head * (c1 * sA + c2 * sB)
    return z_system_residuals(z, field_quad(p, (V1, V2)))
