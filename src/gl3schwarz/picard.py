"""Moduli arithmetic for the plane quartic-cover family y^3 = x(x-1)(x-l1)(x-l2).

Covers the two absolute invariants and their sixfold symmetry, the
degree-three modular equation between two moduli pairs, the order-five
rational transform with its differential-form pullback identity (checked
in cubed, branch-free shape), and the parameter-permutation table for
the three-pole coefficient fields under the anharmonic actions.
The anharmonic actions are `lft.act` of their matrices.  The invariants,
the actions, the tables, the transform and the pullback residuals also
take arrays over a stack of points.  Each refuses a point by raising, and
a stack's refusal names the point by its index (see `jets._refuse`).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .derivs import MapJet2, second_arg_transform
from .jets import Jet, _base, _refuse, jet_powq
from .lft import act, denominator
from .pde_verify import ParamTriple, _pole_gap, field_quad, pole_quotient, pole_sum
from .worst import worst_of

_TINY = 1e-12


def _degenerate(u1: complex, u2: complex) -> bool:
    return _pole_gap(u1, u2) < _TINY


@dataclass(frozen=True)
class ModuliPair:
    """A pair of cubed moduli, or arrays of them; degenerate pairs are rejected."""

    u1: complex
    u2: complex

    def __post_init__(self):
        object.__setattr__(self, "u1", _base(self.u1))
        object.__setattr__(self, "u2", _base(self.u2))
        _refuse(_degenerate(self.u1, self.u2), "degenerate moduli: need u1, u2 off {0, 1} and distinct")

    def as_tuple(self) -> tuple[complex, complex]:
        return (self.u1, self.u2)


def _as_pair(u) -> ModuliPair:
    return u if isinstance(u, ModuliPair) else ModuliPair(*u)


# ---------------------------------------------------------------------------
# absolute invariants


# an overflow is refused below, by name
@np.errstate(over="ignore", invalid="ignore")
def j_invariants(l1, l2) -> tuple[complex, complex]:
    """(J1, J2) of the branch configuration {0, 1, l1, l2, inf}.

    Arrays of moduli give the invariants of every pair of a stack.
    """
    l1, l2 = _base(l1), _base(l2)
    _refuse(_degenerate(l1, l2), "degenerate moduli")
    # the squared brace shape: squaring l (l - 1) first would overflow from
    # moduli of about 1e77 on, where J itself is still finite
    j1 = pole_quotient(l1, l2) ** 2
    j2 = pole_quotient(l2, l1) ** 2
    # complex division and squaring turn an overflowing part into NaN
    _refuse(
        ~(np.isfinite(j1) & np.isfinite(j2)),
        lambda k: "J invariants overflow the float range at moduli ({}, {})".format(
            *(complex(np.ravel(v)[k]) for v in (l1, l2))
        ),
        OverflowError,
    )
    return (j1, j2)


# ---------------------------------------------------------------------------
# the anharmonic S3 x S3 actions on (x, y)

_T = np.array([[-1, 0, 1], [0, -1, 1], [0, 0, 1]], dtype=np.complex128)
_S1 = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=np.complex128)
_S2 = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=np.complex128)

S3_MATRICES = {
    "T": _T,
    "S1": _S1,
    "S2": _S2,
    "S1T": np.einsum("ij,jk->ik", _S1, _T),
    "TS1": np.einsum("ij,jk->ik", _T, _S1),
    "S1TS1": np.einsum("ij,jk,kl->il", _S1, _T, _S1),
    "S2T": np.einsum("ij,jk->ik", _S2, _T),
    "TS2": np.einsum("ij,jk->ik", _T, _S2),
    "S2TS2": np.einsum("ij,jk,kl->il", _S2, _T, _S2),
}

def s3_orbit(name: str, x, y) -> tuple[complex, complex]:
    """Image of (x, y) under the named action: `act` of its matrix.

    Arrays of points give the image of each point.
    """
    if name not in S3_MATRICES:
        raise ValueError(f"unknown action {name!r}")
    x, y = _base(x), _base(y)
    _refuse(abs(denominator(S3_MATRICES[name], (x, y))) < _TINY, "vanishing denominator", ZeroDivisionError)
    return act(S3_MATRICES[name], (x, y))


# ---------------------------------------------------------------------------
# the pole-functions and their transformation tables


def f_sign_relations(x, y) -> float:
    """Largest error in the ten sign identities of f1 and f2 on the orbit.

    Arrays of points give the error at each point.
    """
    errs = []
    for name, sign in [("T", -1), ("S1", -1), ("S1T", 1), ("TS1", 1), ("S1TS1", -1)]:
        errs.append(abs(pole_quotient(*s3_orbit(name, x, y)) - sign * pole_quotient(x, y)))
    for name, sign in [("T", -1), ("S2", -1), ("S2T", 1), ("TS2", 1), ("S2TS2", -1)]:
        gx, gy = s3_orbit(name, x, y)
        errs.append(abs(pole_quotient(gy, gx) - sign * pole_quotient(y, x)))
    return worst_of(errs)


def p_transform_relations(a, b, g, x, y) -> float:
    """Largest error in the ten prefactor-permutation identities of P1, P2.

    Arrays of points give the error at each point.
    """
    rows1 = [
        ("T", -1, (b, a, g)),
        ("S1", y, (a, g, b)),
        ("S1T", y - 1, (g, a, b)),
        ("TS1", -y, (b, g, a)),
        ("S1TS1", 1 - y, (g, b, a)),
    ]
    rows2 = [
        ("T", -1, (b, a, g)),
        ("S2", x, (a, g, b)),
        ("S2T", x - 1, (g, a, b)),
        ("TS2", -x, (b, g, a)),
        ("S2TS2", 1 - x, (g, b, a)),
    ]
    errs = []
    for name, pref, perm in rows1:
        lhs = pole_sum(a, b, g, *s3_orbit(name, x, y))
        errs.append(abs(lhs - pref * pole_sum(*perm, x, y)))
    for name, pref, perm in rows2:
        gx, gy = s3_orbit(name, x, y)
        errs.append(abs(pole_sum(a, b, g, gy, gx) - pref * pole_sum(*perm, y, x)))
    return worst_of(errs)


# ---------------------------------------------------------------------------
# modular equation and the order-five transform


def modular_form_value(u) -> complex:
    """(u1-1)(u2-1)(u1-u2), the invariant matched by the modular equation."""
    p = _as_pair(u)
    return (p.u1 - 1) * (p.u2 - 1) * (p.u1 - p.u2)


def modular_residual(u, v) -> complex:
    return modular_form_value(v) - modular_form_value(u)


def modular_solve(u, v2) -> tuple[complex, complex]:
    """Both roots v1 of (v1-1)(v2-1)(v1-v2) = (u1-1)(u2-1)(u1-u2).

    A double root is returned twice; callers filter by extra constraints.
    Arrays u, v2 give both roots at every point of a stack.
    """
    p = _as_pair(u)
    v2 = _base(v2)
    _refuse(np.minimum(abs(v2), abs(v2 - 1)) < _TINY, "v2 must avoid {0, 1}")
    k = modular_form_value(p)
    # (v2-1) v1^2 - (1+v2)(v2-1) v1 + v2(v2-1) - k = 0
    a = v2 - 1
    b = -(1 + v2) * (v2 - 1)
    c = v2 * (v2 - 1) - k
    d = b * b - 4 * a * c
    # kept fork: np.sqrt for a single point, too, changed picard output digits
    disc = np.sqrt(d) if isinstance(d, np.ndarray) else cmath.sqrt(d)
    return ((-b + disc) / (2 * a), (-b - disc) / (2 * a))


@dataclass(frozen=True)
class TransformABG:
    """Coefficients of the order-five transform; (a+b+g)g = 1 on-shell."""

    alpha: complex
    beta: complex
    gamma: complex

    def constraint_residual(self) -> complex:
        """(a+b+g)g - 1 relative to its largest product term (at least 1).

        On shell the sum stays near 1 while a g, b g and g^2 can be large
        and cancel; their size, not the sum, sets the roundoff.
        """
        a, b, g = self.alpha, self.beta, self.gamma
        scale = worst_of((abs(a * g), abs(b * g), abs(g * g), 1.0))
        return ((a + b + g) * g - 1) / scale


def _abg_unchecked(pu: ModuliPair, pv: ModuliPair) -> TransformABG:
    """Coefficient formulas without the modular-equation gate."""
    u1, u2 = pu.as_tuple()
    v1, v2 = pv.as_tuple()
    du = (u1 - 1) * (u2 - 1)
    dv = (v1 - 1) * (v2 - 1)
    return TransformABG(
        (dv * (v1 + v2 - 2) - du * (u1 + u2 - 2)) / (2 * du * dv),
        (-dv * (2 * v1 * v2 - v1 - v2) + du * (2 * u1 * u2 - u1 - u2))
        / (2 * du * dv),
        dv / du,
    )


def transform_abg(u, v) -> TransformABG:
    """(alpha, beta, gamma) of the transform taking moduli u to v.

    Requires the modular equation to hold within 1e-10 of the form scale.
    Pairs of arrays u, v give the coefficients of every pair of a stack.
    """
    pu, pv = _as_pair(u), _as_pair(v)
    ku, kv = modular_form_value(pu), modular_form_value(pv)
    _refuse(abs(kv - ku) > 1e-10 * worst_of((1.0, abs(ku), abs(kv))), "modular equation violated")
    return _abg_unchecked(pu, pv)


def order5_map(abg: TransformABG, t1, t2) -> tuple:
    """(w1, w2) of the order-five transform; t1, t2 may be jets.

    w1 = ((b+g) t1 + a)/(b t1 + (a+g)),
    w2 = t1 ((b+g) t1 + a)^2 (b t1 + (a+g)) / t2^5.
    Arrays of points, or stacked jets, give the map at each point.  Where
    b t1 + (a+g) or t2 is below _TINY it refuses before it divides: a
    ZeroDivisionError naming the first such point.
    """
    a, b, g = abg.alpha, abg.beta, abg.gamma
    num = (b + g) * t1 + a
    den = b * t1 + (a + g)
    vanishing = (abs(_base(den)) < _TINY) | (abs(_base(t2)) < _TINY)
    _refuse(vanishing, "vanishing denominator", ZeroDivisionError)
    t2_5 = t2 * t2 * t2 * t2 * t2
    return num / den, t1 * num * num * den / t2_5


def _radicand(p: ModuliPair, s):
    """(1 - s)(1 - u1 s)(1 - u2 s), the moduli part of the quintic radicands."""
    return (1 - s) * (1 - p.u1 * s) * (1 - p.u2 * s)


def _cubed_gap(jac, f_src, k, f_img):
    """Relative residual of jac^3 f_src = k^3 f_img.

    Where both sides vanish the relative residual is undefined: a
    ZeroDivisionError naming the first such point.
    """
    lhs = jac**3 * f_src
    rhs = k**3 * f_img
    scale = np.maximum(abs(lhs), abs(rhs))
    _refuse(scale == 0, "both sides of the cubed identity vanish", ZeroDivisionError)
    return abs(lhs - rhs) / scale


def pullback_gaps(u, v, t):
    """Relative residual of the cubed differential-form identity.

    Jac^3 f_t(t1, t2) = (-5 t1/t2^2)^3 f_w(w1, w2), with Jac the jet
    Jacobian of the order-five map, f_t, f_w the two quintic radicands.
    Cubing removes every cube-root branch choice.  t is one point or a pair
    of arrays over a stack.  A point where a denominator of the transform
    vanishes (see order5_map), or where both sides vanish, is a
    ZeroDivisionError naming it.
    """
    pu, pv = _as_pair(u), _as_pair(v)
    t1, t2 = _base(t[0]), _base(t[1])
    w1, w2 = order5_map(transform_abg(pu, pv), *Jet.variables(2, 1, (t1, t2)))
    jac = MapJet2(w1, w2).jacobian_value()
    w1v, w2v = w1.value, w2.value
    ft = t1 * t1 * t2 * t2 * _radicand(pu, t1)
    fw = w1v * w1v * w2v * w2v * _radicand(pv, w1v)
    return _cubed_gap(jac, ft, -5 * t1 / (t2 * t2), fw)


def corollary52_gaps(u, v, x):
    """Relative residual of the cubed identity in the root coordinates.

    With t_i = x_i^3 and y_i = w_i^(1/3), checks
    Jac_y^3 g_x = (-5 x1^3/x2^6)^3 g_y for the sextic-free radicands
    g_x = (1-x1^3)(1-u1 x1^3)(1-u2 x1^3), g_y the same in (v, y1^3).
    x is one point or a pair of arrays; a point is refused as in
    pullback_gaps.
    """
    pu, pv = _as_pair(u), _as_pair(v)
    x1, x2 = _base(x[0]), _base(x[1])
    X1, X2 = Jet.variables(2, 1, (x1, x2))
    w1, w2 = order5_map(transform_abg(pu, pv), X1 * X1 * X1, X2 * X2 * X2)
    jac = MapJet2(jet_powq(w1, "1/3"), jet_powq(w2, "1/3")).jacobian_value()
    x1c = x1**3
    return _cubed_gap(jac, _radicand(pu, x1c), -5 * x1c / x2**6, _radicand(pv, w1.value))


# ---------------------------------------------------------------------------
# parameter-permutation table under the anharmonic actions

# row -> (S1-family element, S2-family element, bracket parameters)
_TABLE_ROWS = {
    1: ("T", "T", lambda a, b, g: (b, a, g)),
    2: ("S1", "S2", lambda a, b, g: (a, -2 * g, b + 3 * g)),
    3: ("S1T", "S2T", lambda a, b, g: (-2 * g, a, b + 3 * g)),
    4: ("TS1", "TS2", lambda a, b, g: (b, -2 * g, a + 3 * g)),
    5: ("S1TS1", "S2TS2", lambda a, b, g: (-2 * g, b, a + 3 * g)),
}


def _transported_quad(p: ParamTriple, name: str, v) -> np.ndarray:
    """The four quad values of the composite (fields at g(v), carried back
    through g), on the first axis."""
    quad = field_quad(p, s3_orbit(name, *v))
    return np.moveaxis(second_arg_transform(quad, S3_MATRICES[name], v), -1, 0)


def param_table_check(row: int, p: ParamTriple, v) -> float:
    """Largest error in one row of the transformation table, checked by transport.

    The composite's quad is computed from the closed-form fields at the
    image point via the second-argument transport, then compared with
    the row's claim: braces keep F(gamma), brackets take the permuted
    and shifted parameters.  Rows 2-5 claim the v1-components for the
    S1-family element and the v2-components for the S2-family element.
    A pair of arrays v gives the error at each point of a stack.
    """
    if row not in _TABLE_ROWS:
        raise ValueError("row must be 1..5")
    name1, name2, perm = _TABLE_ROWS[row]
    a, b, g = p.alpha, p.beta, p.gamma
    v1, v2 = _base(v[0]), _base(v[1])
    pa, pb, pg = perm(a, b, g)
    got1 = _transported_quad(p, name1, (v1, v2))
    got2 = got1 if name2 == name1 else _transported_quad(p, name2, (v1, v2))
    return worst_of((
        abs(got1[0] + g * pole_quotient(v1, v2)),
        abs(got1[2] - pole_sum(pa, pb, pg, v1, v2)),
        abs(got2[1] + g * pole_quotient(v2, v1)),
        abs(got2[3] - pole_sum(pa, pb, pg, v2, v1)),
    ))
