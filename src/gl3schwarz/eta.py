"""Transformation calculus for the ball-lattice eta function.

The function itself is a product of fractional powers
eta = v1^(-1/12) v2^(-1/12) (1-v1)^(-1/18) (1-v2)^(-1/18) (v1-v2)^(-1/18) Jac^(1/9)
and transforms under the lattice with the factor det^(-1/9) (c1 w1 + c2 w2 + c3)^(1/3).
Nothing numeric in this module ever picks a cube-root branch: all floating point
runs on the 36th power (integral exponents only), and all multiplier bookkeeping
is exact, with phases kept as Fractions under the convention 1**s = e^{2 pi i s}
and affine form factors kept as rows over Q(omega).  The 36th-power law takes
arrays over a stack of points, and a refused sample of a stack is named by its
index (`jets._refuse`).
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .derivs import MapJet2, _jet_exp
from .jets import Jet, _refuse
from .lft import (
    DECOMPOSITION_WORDS,
    OMEGA,
    OMEGA_BAR,
    SQRTM3,
    Eis,
    EisMatrix,
    act,
    denominator,
    det_and_matrix,
    generator_power,
    generators,
    word_product,
)
from .worst import worst_of

_GEN = generators()
_TINY = 1e-12

#: defining matrices of the scaled variants: eta_i(Z) = eta(VARIANT[i] Z)
D1 = EisMatrix.diag(3, 1 - OMEGA, 1)
D2 = EisMatrix.diag(1, 1 - OMEGA, 3)
M3 = D2 * generator_power("commutator", -1)
M4 = D1 * word_product([("S", 3), ("commutator", -1), ("S", 3)])
M5 = D2 * word_product(
    [("commutator", -1), ("S", 3), ("commutator", -1), ("S", 3)]
)

VARIANTS = {
    "eta": EisMatrix.identity(),
    "eta1": D1,
    "eta2": D2,
    "eta3": M3,
    "eta4": M4,
    "eta5": M5,
}

#: net multiplier of each S-free generator, phases of 1 under 1**s = e^{2 pi i s};
#: each combines det^(-1/9) with the constant form (c.z)^(1/3) as displayed
GENERATOR_PHASES = {
    "T1": Fraction(2, 9),
    "T2": Fraction(2, 9),
    "U1": Fraction(13, 54),
    "U2": Fraction(2, 27),
    "commutator": Fraction(0),
}


def ledger_multipliers() -> dict[str, Fraction]:
    """Multipliers of the decomposition words behind each stated identity."""
    words = {
        "eta3(g1)": (("U1", 2), ("T2", -1)),
        "eta1(g1)": (("U1", 2), ("T2", -3)),
        "eta3(g2)": (("U1", 2), ("T1", -1), ("T2", -1)),
        "eta1(g2)": (("U1", 2), ("T1", -3), ("T2", -3), ("commutator", -3)),
        "eta1(g3)": (("U1", 4),),
        "eta4(g4)": (("U1", 2), ("U2", 3), ("S", 2)),
        "eta1(T1)": (("T1", 1),),
        "eta(U1)": (("U1", 1),),
        "eta(U2)": (("U2", 1),),
    }
    return {k: word_factor(w).phase for k, w in words.items()}


# ---------------------------------------------------------------------------
# exact factor algebra


Row = tuple[Eis, Eis, Eis]


def _as_row(row) -> Row:
    c1, c2, c3 = row
    lift = lambda x: x if isinstance(x, Eis) else Eis(x, 0)
    return (lift(c1), lift(c2), lift(c3))


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (i, j), a in p.items():
        for (k, l), b in q.items():
            key = (i + k, j + l)
            out[key] = out.get(key, Eis()) + a * b
    return out


def _rows_poly(rows) -> dict:
    out = {(0, 0): Eis(1, 0)}
    for c1, c2, c3 in rows:
        out = _poly_mul(out, {(1, 0): c1, (0, 1): c2, (0, 0): c3})
    return out


def _poly_eq(p: dict, q: dict) -> bool:
    keys = set(p) | set(q)
    return all((p.get(k, Eis()) - q.get(k, Eis())).is_zero() for k in keys)


@dataclass(frozen=True)
class AutomorphyFactor:
    """Exact multiplier e^{2 pi i phase} * (prod num / prod den)^(1/3).

    num and den are tuples of affine rows (c1, c2, c3) standing for
    c1 w1 + c2 w2 + c3; empty tuples mean the trivial form 1.
    """

    phase: Fraction
    num: tuple = ()
    den: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "num", tuple(_as_row(r) for r in self.num))
        object.__setattr__(self, "den", tuple(_as_row(r) for r in self.den))

    def __mul__(self, other: "AutomorphyFactor") -> "AutomorphyFactor":
        return AutomorphyFactor(
            self.phase + other.phase, self.num + other.num, self.den + other.den
        )

    def __truediv__(self, other: "AutomorphyFactor") -> "AutomorphyFactor":
        return AutomorphyFactor(
            self.phase - other.phase, self.num + other.den, self.den + other.num
        )

    def same_as(self, other: "AutomorphyFactor") -> bool:
        """Phase equality mod 1; forms compared by cross-multiplication."""
        if (self.phase - other.phase) % 1 != 0:
            return False
        lhs = _rows_poly(self.num + other.den)
        rhs = _rows_poly(other.num + self.den)
        return _poly_eq(lhs, rhs)


def _word_factor(word, base: EisMatrix):
    """Walk a word right to left over base, collecting the exact multiplier.

    Returns (factor, matrix) with eta(matrix Z) = factor(Z) eta(base Z) and
    matrix = word_product(word) * base.  S-free generators contribute ledger
    phases; an odd power of S contributes the cube root of the first
    coordinate of the point below it, read off as a ratio of affine rows.
    """
    m = base
    phase = Fraction(0)
    num, den = [], []
    for name, exp in reversed(list(word)):
        if name in GENERATOR_PHASES:
            phase += exp * GENERATOR_PHASES[name]
            m = generator_power(name, exp) * m
        elif name == "S":
            e = exp % 6
            if e % 2:
                num.append(m.m[0])
                den.append(m.m[2])
            m = generator_power("S", e) * m
        else:
            raise ValueError(f"no factor rule for generator {name!r}")
    return AutomorphyFactor(phase, tuple(num), tuple(den)), m


def word_factor(word) -> AutomorphyFactor:
    """Exact automorphy multiplier of eta along a word."""
    return _word_factor(word, EisMatrix.identity())[0]


# ---------------------------------------------------------------------------
# the stated variant identities

_S3C3 = (("S", 3), ("commutator", 1), ("S", 3))


def _claim(row) -> AutomorphyFactor:
    return AutomorphyFactor(row.phase, row.num, row.den)


@dataclass(frozen=True)
class VariantRow:
    label: str
    lhs: str                  # variant on the left, applied to g
    g_word: tuple             # group element as a word
    rhs: str                  # variant on the right
    word: tuple               # decomposition carrying the multiplier
    phase: Fraction = Fraction(0)
    num: tuple = ()
    den: tuple = ()

    def holds(self) -> bool:
        factor, matrix = _word_factor(self.word, VARIANTS[self.rhs])
        target = VARIANTS[self.lhs] * word_product(self.g_word)
        return matrix == target and factor.same_as(_claim(self))


@dataclass(frozen=True)
class QuotientRow:
    """num_row / den_row, landing on target with the claimed multiplier.

    Once both sub-rows hold, each word factor agrees with its claim under
    same_as.  same_as is a congruence under division and no table row is the
    zero form, so comparing the quotient of the claims with the claim here
    also settles the quotient of the word factors.
    """

    label: str
    num_row: VariantRow
    den_row: VariantRow
    target: str               # which quotient the right side lands on
    phase: Fraction = Fraction(0)
    num: tuple = ()
    den: tuple = ()

    def holds(self) -> bool:
        top, bottom = self.num_row, self.den_row
        return (
            top.holds()
            and bottom.holds()
            and top.g_word == bottom.g_word
            and _PHI_NAMES.get((top.rhs, bottom.rhs)) == self.target
            and (_claim(top) / _claim(bottom)).same_as(_claim(self))
        )


_PHI_NAMES = {
    ("eta1", "eta2"): "phi0",
    ("eta1", "eta3"): "phi1",
    ("eta4", "eta2"): "phi2",
    ("eta4", "eta5"): "phi3",
}

_W = OMEGA
_WB = OMEGA_BAR

_R41 = {
    "T1": VariantRow(
        "eta1(T1 w) = 1^(2/3) eta1(w)", "eta1", (("T1", 1),), "eta1",
        (("T1", 2), ("T2", 1), ("commutator", -1)), Fraction(2, 3)),
    "T1^3": VariantRow(
        "eta2(T1^3 w) = 1^(2/3) eta2(w)", "eta2", (("T1", 3),), "eta2",
        (("T1", 2), ("T2", 1), ("commutator", -2)), Fraction(2, 3)),
    "T2": VariantRow(
        "eta1(T2 w) = eta1(w)", "eta1", (("T2", 1),), "eta1",
        (("T1", -1), ("T2", 1), ("commutator", 2))),
    "T2^3": VariantRow(
        "eta2(T2^3 w) = eta2(w)", "eta2", (("T2", 3),), "eta2",
        (("T1", -1), ("T2", 1), ("commutator", 1))),
    "S": VariantRow(
        "eta1(S w) = (w1/3)^(1/3) eta2(w)", "eta1", (("S", 1),), "eta2",
        (("S", 1),), Fraction(0), ((1, 0, 0),), ((0, 0, 3),)),
}

_R42 = {
    "g1a": VariantRow(
        "eta3(g1 w) = 1^(7/27) eta2(w)", "eta3", (("g1", 1),), "eta2",
        (("U1", 2), ("T2", -1)), Fraction(7, 27)),
    "g1b": VariantRow(
        "eta1(g1 w) = 1^(-5/27) eta1(w)", "eta1", (("g1", 1),), "eta1",
        (("U1", 2), ("T2", -3)), Fraction(-5, 27)),
    "g2a": VariantRow(
        "eta3(g2 w) = 1^(1/27) eta2(w)", "eta3", (("g2", 1),), "eta2",
        (("U1", 2), ("T1", -1), ("T2", -1)), Fraction(1, 27)),
    "g2b": VariantRow(
        "eta1(g2 w) = 1^(-23/27) eta1(w)", "eta1", (("g2", 1),), "eta1",
        (("U1", 2), ("T1", -3), ("T2", -3), ("commutator", -3)), Fraction(-23, 27)),
    "g3a": VariantRow(
        "eta1(g3 w) = 1^(26/27) eta1(w)", "eta1", (("g3", 1),), "eta1",
        (("U1", 4),), Fraction(26, 27)),
    "g3b": VariantRow(
        "eta2(g3 w) = 1^(26/27) eta2(w)", "eta2", (("g3", 1),), "eta2",
        (("U1", 4),), Fraction(26, 27)),
    "g4a": VariantRow(
        "eta4(g4 w) = 1^(19/27) eta1(w)", "eta4", (("g4", 1),), "eta1",
        (("U1", 2), ("U2", 3), ("S", 2), ("commutator", 3)), Fraction(19, 27)),
    "g4b": VariantRow(
        "eta5(g4 w) = 1^(19/27) eta2(w)", "eta5", (("g4", 1),), "eta2",
        (("U1", 2), ("U2", 3), ("S", 2)), Fraction(19, 27)),
    "g5a": VariantRow(
        "eta4(g5 w) = 1^(7/27) (-3 wbar w1 + (1-w) w2 + 1)^(1/3) eta1(w)",
        "eta4", (("g5", 1),), "eta1",
        (("U1", 2), ("S", 3), ("T1", -1), ("S", 3)), Fraction(7, 27),
        ((-3 * _WB, 1 - _W, 1),)),
    "g5b": VariantRow(
        "eta2(g5 w) = 1^(-5/27) ((1-wbar) w1 + (1-w) w2 + 1)^(1/3) eta2(w)",
        "eta2", (("g5", 1),), "eta2",
        (("U1", 2), ("S", 3), ("T1", -3), ("S", 3)), Fraction(-5, 27),
        ((1 - _WB, 1 - _W, 1),)),
}

_R418 = {
    "c": VariantRow(
        "eta3([T1,T2] w) = eta2(w)", "eta3", (("commutator", 1),), "eta2", ()),
    "s3cs3": VariantRow(
        "eta4(S^3 [T1,T2] S^3 w) = eta1(w)", "eta4", _S3C3, "eta1", ()),
    "s3cs3c": VariantRow(
        "eta5(S^3 [T1,T2] S^3 [T1,T2] w) = eta2(w)", "eta5",
        _S3C3 + (("commutator", 1),), "eta2", ()),
}

_R43 = {
    "eta1": VariantRow(
        "eta1([T1,T2]^-1 w) = eta1(w)", "eta1", (("commutator", -1),), "eta1",
        (("commutator", -3),)),
    "eta2": VariantRow(
        "eta2([T1,T2]^-3 w) = eta2(w)", "eta2", (("commutator", -3),), "eta2",
        (("commutator", -1),)),
    "eta3": VariantRow(
        "eta3([T1,T2]^-3 w) = eta3(w)", "eta3", (("commutator", -3),), "eta3",
        (("commutator", -1),)),
    "eta4": VariantRow(
        "eta4(S^3 [T1,T2]^-3 S^3 w) = ((4 r w1 + 1)/(r w1 + 1))^(1/3) eta4(w), r = w - wbar",
        "eta4", (("S", 3), ("commutator", -3), ("S", 3)), "eta4",
        (("S", 3), ("commutator", -1), ("S", 3)), Fraction(0),
        ((4 * SQRTM3, 0, 1),), ((SQRTM3, 0, 1),)),
    "eta5": VariantRow(
        "eta5(S^3 [T1,T2] S^3 [T1,T2]^-3 S^3 [T1,T2]^-1 S^3 w) = eta5(w)",
        "eta5",
        _S3C3 + (("commutator", -3), ("S", 3), ("commutator", -1), ("S", 3)),
        "eta5", (("commutator", -1),)),
}

# extra eta rows feeding the quotient identities
_R_AUX = {
    "eta1_c": VariantRow(
        "eta1([T1,T2] w) = eta1(w)", "eta1", (("commutator", 1),), "eta1",
        (("commutator", 3),)),
    "eta1_c3": VariantRow(
        "eta1([T1,T2]^-3 w) = eta1(w)", "eta1", (("commutator", -3),), "eta1",
        (("commutator", -9),)),
    "eta2_s3cs3": VariantRow(
        "eta2(S^3 [T1,T2] S^3 w) = ((wbar-w) w1 + 1)^(1/3) eta2(w)",
        "eta2", _S3C3, "eta2",
        (("S", 3), ("commutator", 3), ("S", 3)), Fraction(0),
        ((-SQRTM3, 0, 1),)),
    "eta2_s3c-3s3": VariantRow(
        "eta2(S^3 [T1,T2]^-3 S^3 w) = (3 (w-wbar) w1 + 1)^(1/3) eta2(w)",
        "eta2", (("S", 3), ("commutator", -3), ("S", 3)), "eta2",
        (("S", 3), ("commutator", -9), ("S", 3)), Fraction(0),
        ((3 * SQRTM3, 0, 1),)),
    "eta4_s3cs3c": VariantRow(
        "eta4(S^3 [T1,T2] S^3 [T1,T2] w) = eta1(w)", "eta4",
        _S3C3 + (("commutator", 1),), "eta1", (("commutator", 3),)),
    "eta4_45": VariantRow(
        "eta4(S^3 [T1,T2] S^3 [T1,T2]^-3 S^3 [T1,T2]^-1 S^3 w) = eta4(w)",
        "eta4",
        _S3C3 + (("commutator", -3), ("S", 3), ("commutator", -1), ("S", 3)),
        "eta4", (("commutator", -9),)),
}

_R44 = {
    "g1": QuotientRow(
        "phi1(g1 w) = 1^(-4/9) phi0(w)", _R42["g1b"], _R42["g1a"], "phi0",
        Fraction(-4, 9)),
    "g2": QuotientRow(
        "phi1(g2 w) = 1^(-8/9) phi0(w)", _R42["g2b"], _R42["g2a"], "phi0",
        Fraction(-8, 9)),
    "g3": QuotientRow(
        "phi0(g3 w) = phi0(w)", _R42["g3a"], _R42["g3b"], "phi0"),
    "g4": QuotientRow(
        "phi3(g4 w) = phi0(w)", _R42["g4a"], _R42["g4b"], "phi0"),
    "g5": QuotientRow(
        "phi2(g5 w) = 1^(4/9) ((-3 wbar w1 + (1-w) w2 + 1)/((1-wbar) w1 + (1-w) w2 + 1))^(1/3) phi0(w)",
        _R42["g5a"], _R42["g5b"], "phi0", Fraction(4, 9),
        ((-3 * _WB, 1 - _W, 1),), ((1 - _WB, 1 - _W, 1),)),
}

_R45 = {
    "phi1": QuotientRow(
        "phi1([T1,T2] w) = phi0(w)", _R_AUX["eta1_c"], _R418["c"], "phi0"),
    "phi2": QuotientRow(
        "phi2(S^3 [T1,T2] S^3 w) = ((wbar-w) w1 + 1)^(-1/3) phi0(w)",
        _R418["s3cs3"], _R_AUX["eta2_s3cs3"], "phi0", Fraction(0),
        (), ((-SQRTM3, 0, 1),)),
    "phi3": QuotientRow(
        "phi3(S^3 [T1,T2] S^3 [T1,T2] w) = phi0(w)",
        _R_AUX["eta4_s3cs3c"], _R418["s3cs3c"], "phi0"),
}

_R46 = {
    "phi0": QuotientRow(
        "phi0([T1,T2]^-3 w) = phi0(w)", _R_AUX["eta1_c3"], _R43["eta2"], "phi0"),
    "phi1": QuotientRow(
        "phi1([T1,T2]^-3 w) = phi1(w)", _R_AUX["eta1_c3"], _R43["eta3"], "phi1"),
    "phi2": QuotientRow(
        "phi2(S^3 [T1,T2]^-3 S^3 w) = ((4 r w1 + 1)/((r w1 + 1)(3 r w1 + 1)))^(1/3) phi2(w), r = w - wbar",
        _R43["eta4"], _R_AUX["eta2_s3c-3s3"], "phi2", Fraction(0),
        ((4 * SQRTM3, 0, 1),), ((SQRTM3, 0, 1), (3 * SQRTM3, 0, 1))),
    "phi3": QuotientRow(
        "phi3(S^3 [T1,T2] S^3 [T1,T2]^-3 S^3 [T1,T2]^-1 S^3 w) = phi3(w)",
        _R_AUX["eta4_45"], _R43["eta5"], "phi3"),
}


def _scalar_bookkeeping() -> bool:
    """The diagonal-unit identities behind the nine scalar classes."""
    g = _GEN
    w, wb = OMEGA, OMEGA_BAR
    return (
        g["commutator"] == EisMatrix([[1, 0, wb - w], [0, 1, 0], [0, 0, 1]])
        and g["S"] ** 2 == EisMatrix.diag(w, w, w)
        and g["S"] ** 4 == EisMatrix.diag(wb, wb, wb)
        and g["S"] ** 6 == EisMatrix.identity()
        and g["U1"] ** 2 == EisMatrix.diag(1, wb, 1)
        and g["U1"] ** 3 == EisMatrix.diag(1, -1, 1)
        and g["U1"] ** 4 == EisMatrix.diag(1, w, 1)
        and g["U1"] ** 6 == EisMatrix.identity()
        and g["U2"] ** 6 == EisMatrix.identity()
        and (g["U1"] * g["U2"]) ** 3 == EisMatrix.diag(-1, 1, -1)
        and g["S"] ** 2 * g["U1"] ** 2 == EisMatrix.diag(w, 1, w)
        and (g["S"] ** 2 * g["U1"] ** 2) ** 2 == EisMatrix.diag(wb, 1, wb)
        and g["S"] ** 4 * g["U1"] ** 2 == EisMatrix.diag(wb, w, wb)
        and (g["S"] ** 4 * g["U1"] ** 2) ** 2 == EisMatrix.diag(w, wb, w)
    )


def _generator_decompositions() -> bool:
    """The five lattice generators in terms of T1, T2, S, U1, U2."""
    return all(word_product(w) == _GEN[name] for name, w in DECOMPOSITION_WORDS.items())


def _variant_matrix_forms() -> bool:
    """Explicit matrices of the shifted and conjugated variants."""
    r = SQRTM3
    return (
        M3 == EisMatrix([[1, 0, r], [0, 1 - OMEGA, 0], [0, 0, 3]])
        and M4 == EisMatrix([[3, 0, 0], [0, 1 - OMEGA, 0], [r, 0, 1]])
        and M5 == EisMatrix([[-2, 0, r], [0, 1 - OMEGA, 0], [3 * r, 0, 3]])
    )


@functools.cache
def eta_variant_identities() -> dict[str, dict[str, bool]]:
    """Verify every variant identity exactly: {proposition: {label: verdict}}.

    Computed once per process: the table takes no input, and callers only
    read it.
    """

    def verdicts(*tables) -> dict[str, bool]:
        return {row.label: row.holds() for table in tables for row in table.values()}

    return {
        "P4.1": {"scalar and commutator bookkeeping": _scalar_bookkeeping(), **verdicts(_R41)},
        "P4.2": {
            "lattice generators decompose over T1, T2, S, U1, U2": _generator_decompositions(),
            **verdicts(_R42),
        },
        "P4.3": {
            "explicit matrices of eta3, eta4, eta5": _variant_matrix_forms(),
            **verdicts(_R418, _R43),
        },
        "P4.4": verdicts(_R44),
        "P4.5": verdicts(_R45),
        "P4.6": verdicts(_R46),
    }


# ---------------------------------------------------------------------------
# numeric checks on the 36th power


def eta36(v) -> complex:
    """36th power of the eta product of a map, from its jets v = vmap(z).

    v holds the order-1 jets (v1, v2) of the map at a point; every exponent
    in the 36th power is integral, so the value needs no branch choice.
    """
    v1, v2 = v
    a, b = v1.value, v2.value
    jac = MapJet2(v1, v2).jacobian_value()
    nearest = functools.reduce(np.minimum, map(abs, (a, b, 1 - a, 1 - b, a - b, jac)))
    _refuse(nearest < _TINY, "eta36 hit a zero or pole of the defining product")
    return a**-3 * b**-3 * (1 - a) ** -2 * (1 - b) ** -2 * (a - b) ** -2 * jac**4


def eta36_factor(g, z) -> complex:
    """det^(-4) (c1 w1 + c2 w2 + c3)^12, the 36th power of the stated factor."""
    delta, m = det_and_matrix(g)
    return delta**-4 * denominator(m, z) ** 12


def eta36_transform_check(g, vmap, z) -> float:
    """Relative residual of eta36(g z) = eta36_factor(g, z) eta36(z).

    The map must actually be invariant under g; that is verified first at
    both z and g z and a ValueError names the offending map otherwise.
    Arrays z = (z1, z2) over a stack give one residual per point.
    """
    here, there = vmap(z), vmap(act(g, z))
    v_here = [j.value for j in here]
    v_there = [j.value for j in there]
    scale = worst_of((1.0, *map(abs, v_here)))
    moved = worst_of(abs(p - q) for p, q in zip(v_here, v_there))
    _refuse(moved > 1e-10 * scale, "map is not invariant under g at this point")
    lhs = eta36(there)
    rhs = eta36_factor(g, z) * eta36(here)
    return abs(lhs - rhs) / np.maximum(abs(lhs), abs(rhs))


def s_invariant_map(z):
    """(w1 + 1/w1, w2^2/w1) as order-1 jets: unchanged by S acting as (1/w1, -w2/w1)."""
    w1, w2 = Jet.variables(2, 1, z)
    _refuse(abs(z[0]) < _TINY, "map has a pole at w1 = 0")
    return w1 + 1 / w1, w2 * w2 / w1


def translation_invariant_map(z):
    """(exp(2 pi i w1 / (3 (wbar - w))), w2) as order-1 jets: period cell of [T1,T2]^3."""
    w1, w2 = Jet.variables(2, 1, z)
    c = 2j * cmath.pi / (3 * (OMEGA_BAR - OMEGA).to_complex())
    return _jet_exp(c * w1), w2
