"""Evolution system driven by the four derivative fields.

Maps (u1, u2)(x, y, t1, t2) belong to the system when the determinant
quotients of their time and space partials reproduce the two brace and two
bracket fields of the spatial map.  The fields of any member then satisfy a
pair of first-order equations; this module evaluates those residuals, the
Galilean covariance of the equations, and the mixed-partial consistency
identity behind them, all on truncated Taylor data.

Variable order of every jet here is (x, y, t1, t2).  Fields may be stacks
of jets (see `jets`); the residuals are then arrays over their samples, and
a refused sample of a stack is named by its index (`jets._refuse`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .derivs import MapJet2, _det2
from .jets import Jet, JetError, _refuse, compose
from .worst import worst_of

IT1, IT2 = 2, 3  # indices of t1 and t2 in (x, y, t1, t2)
_DX = (1, 0, 0, 0)
_DY = (0, 1, 0, 0)
_DT1 = (0, 0, 1, 0)
_DT2 = (0, 0, 0, 1)


def evo_quotients(u, which: str):
    """The two determinant quotients of the chosen time variable.

    u: pair of jets in (x, y, t1, t2), order >= 1 in the time direction and
    >= 1 spatially.  Returned in the displayed order: for t1 the brace and
    bracket quotients over det(u_y; u_x), for t2 the bracket and brace
    quotients over det(u_x; u_y).  Membership in the evolution system means
    these match (brace_x, bracket_x) resp. (bracket_y, brace_y) of the
    spatial quad.
    """
    if which not in ("t1", "t2"):
        raise ValueError(f"time variable must be 't1' or 't2', got {which!r}")
    u1, u2 = u
    jac = MapJet2(u1, u2).jacobian_value()
    _refuse(abs(jac) < 1e-14, "spatial Jacobian vanishes", ZeroDivisionError)
    dt, den = (_DT1, -jac) if which == "t1" else (_DT2, jac)
    ut = (u1.partial(dt), u2.partial(dt))
    ux = (u1.partial(_DX), u2.partial(_DX))
    uy = (u1.partial(_DY), u2.partial(_DY))
    return _det2(*ut, *ux) / den, _det2(*ut, *uy) / den


@dataclass(frozen=True)
class EvoFields:
    """The four fields as jets in (x, y, t1, t2) at a common base point."""

    v1: Jet
    v2: Jet
    w1: Jet
    w2: Jet

    def __post_init__(self):
        for f in (self.v1, self.v2, self.w1, self.w2):
            if f.dim != 4 or f.order < 1:
                raise JetError("fields must be order >= 1 jets in 4 variables")

    @classmethod
    def constant(cls, c1, c2, c3, c4) -> "EvoFields":
        """Four constant fields, as order-1 jets: an exact solution."""
        return cls(*(Jet.constant(4, 1, c) for c in (c1, c2, c3, c4)))

    @classmethod
    def shear(cls, lam, c1, c2) -> "EvoFields":
        """v1 = c1, v2 = -lam t1, w1 = lam t2, w2 = c2, as order-1 jets: an exact solution."""
        t1 = Jet.variable(4, 1, IT1)
        t2 = Jet.variable(4, 1, IT2)
        return cls(Jet.constant(4, 1, c1), -lam * t1, lam * t2, Jet.constant(4, 1, c2))


def mt4_residuals(f: EvoFields):
    """Left sides of the two field equations at the base point."""
    r1 = (
        f.w1.partial(_DT2)
        + f.v2.partial(_DT1)
        - f.v1.value * f.v2.partial(_DY)
        - f.v2.value * f.w1.partial(_DX)
        + f.w1.value * f.v2.partial(_DX)
        + f.w2.value * f.w1.partial(_DY)
    )
    r2 = (
        f.w2.partial(_DT1)
        + f.v1.partial(_DT2)
        - f.v1.value * f.w2.partial(_DY)
        - f.v2.value * f.v1.partial(_DX)
        + f.w1.value * f.w2.partial(_DX)
        + f.w2.value * f.v1.partial(_DY)
    )
    return r1, r2


def _shifted(field: Jet, a, b) -> Jet:
    """field(x - a t1, y - b t2, t1, t2) as a jet at the same base point.

    Valid when the base has t1 = t2 = 0, so the shift fixes it.
    """
    x, y, t1, t2 = Jet.variables(4, field.order, (0.0, 0.0, 0.0, 0.0))
    return compose(field, [x - a * t1, y - b * t2, t1, t2])


def galilean_shift(f: EvoFields, a1, a2, b1, b2) -> EvoFields:
    """The drift action: spatial arguments slide with time, brackets offset.

    Field jets must be taken at a base point with t1 = t2 = 0.  (x, y) shifts
    by (a1 t1, b1 t2) in v1 and w1, by (a2 t1, b2 t2) in v2 and w2; then a2 is
    added to w1 and b1 to w2.
    """
    return EvoFields(
        _shifted(f.v1, a1, b1),
        _shifted(f.v2, a2, b2),
        _shifted(f.w1, a1, b1) + a2,
        _shifted(f.w2, a2, b2) + b1,
    )


def galilean_covariance_check(f: EvoFields, a1, a2, b1, b2) -> float:
    """Residual of R_i(shifted fields) = R_i(fields) at a base with t = 0.

    The offsets entering through the time partials cancel against the
    constant bracket offsets, so this holds for arbitrary fields, not only
    solutions of the system.  The residuals read values and first partials
    only, which the shift takes from values and first partials: the fields
    are shifted as order-1 jets.
    """
    r = mt4_residuals(f)
    first = EvoFields(*(g.truncate(1) for g in (f.v1, f.v2, f.w1, f.w2)))
    rs = mt4_residuals(galilean_shift(first, a1, a2, b1, b2))
    return worst_of((abs(rs[0] - r[0]), abs(rs[1] - r[1])))


def consistency_residual(f: EvoFields, u: Jet) -> float:
    """Mixed-partial identity linking the transport relations to R1, R2.

    For any u carried by u_t1 = v1 u_y - w1 u_x and u_t2 = v2 u_x - w2 u_y,
    the two expansions of the t1 t2 mixed partial differ by exactly
    R1 u_x - R2 u_y; the combination below therefore vanishes identically in
    the jet coefficients of the fields and of u.
    """
    if u.dim != 4 or u.order < 2:
        raise JetError("u must be an order >= 2 jet in 4 variables")
    ux, uy = u.partial(_DX), u.partial(_DY)
    uxx, uxy, uyy = u.partial((2, 0, 0, 0)), u.partial((1, 1, 0, 0)), u.partial((0, 2, 0, 0))
    v1, v2, w1, w2 = f.v1, f.v2, f.w1, f.w2
    a = (
        v1.partial(_DT2) * uy
        - w1.partial(_DT2) * ux
        + v1.value * (v2.partial(_DY) * ux + v2.value * uxy - w2.partial(_DY) * uy - w2.value * uyy)
        - w1.value * (v2.partial(_DX) * ux + v2.value * uxx - w2.partial(_DX) * uy - w2.value * uxy)
    )
    b = (
        v2.partial(_DT1) * ux
        - w2.partial(_DT1) * uy
        + v2.value * (v1.partial(_DX) * uy + v1.value * uxy - w1.partial(_DX) * ux - w1.value * uxx)
        - w2.value * (v1.partial(_DY) * uy + v1.value * uyy - w1.partial(_DY) * ux - w1.value * uxy)
    )
    r1, r2 = mt4_residuals(f)
    return abs(a - b + r1 * ux - r2 * uy)

