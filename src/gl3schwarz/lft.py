"""GL(3, C) linear fractional action on C^2 and exact Eisenstein-integer algebra.

The exact layer (Eis, EisMatrix) carries the generator zoo, word
products, and the Heisenberg-lattice decomposition; the numeric layer
(act on numbers or jets, and its denominator) drives everything downstream
that samples points.  jacobian_factor is the closed form of the action's
Jacobian, Delta (c.z)^-3, which the tests hold the jet Jacobian to and
MT4-invariance rejects its draws by.  Both take stacks of points, and a
vanishing denominator names the refused sample (`jets._refuse`).
Exact parts are Python ints whenever they are integral, which covers every
lattice element; a part is a Fraction only where the value really is
rational (Heisenberg half-integers, inverses with a non-unit determinant).

omega = e^{2 pi i/3} = (-1+sqrt(-3))/2 throughout; conj(a+b*omega) =
(a-b) - b*omega; omegabar - omega = -sqrt(-3).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .jets import _base, _refuse

OMEGA_C = complex(-0.5, 3**0.5 / 2)


def _part(x):
    """An exact coordinate: int when integral, otherwise a reduced Fraction."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class Eis:
    """a + b*omega with exact a, b: int when integral, Fraction otherwise."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = _part(a)
        self.b = _part(b)

    def __add__(self, other):
        other = _lift(other)
        return Eis(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = _lift(other)
        return Eis(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return _lift(other) - self

    def __neg__(self):
        return Eis(-self.a, -self.b)

    def __mul__(self, other):
        other = _lift(other)
        # omega^2 = -1 - omega
        return Eis(
            self.a * other.a - self.b * other.b,
            self.a * other.b + self.b * other.a - self.b * other.b,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _lift(other)
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero Eisenstein number")
        num = self * other.conj()
        # Fraction first: int / int would be a float
        return Eis(Fraction(num.a) / n, Fraction(num.b) / n)

    def __rtruediv__(self, other):
        return _lift(other) / self

    def __eq__(self, other):
        try:
            other = _lift(other)
        except TypeError:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def conj(self) -> "Eis":
        return Eis(self.a - self.b, -self.b)

    def norm(self) -> int | Fraction:
        return self.a * self.a - self.a * self.b + self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_integral(self) -> bool:
        return self.a.denominator == 1 and self.b.denominator == 1

    def to_complex(self) -> complex:
        return complex(self.a) + complex(self.b) * OMEGA_C

    def __repr__(self):
        return f"Eis({self.a}, {self.b})"


def _lift(x) -> Eis:
    if isinstance(x, Eis):
        return x
    if isinstance(x, (int, Fraction)):
        return Eis(x, 0)
    raise TypeError(f"cannot coerce {type(x).__name__} to Eis")


OMEGA = Eis(0, 1)
OMEGA_BAR = Eis(-1, -1)
SQRTM3 = Eis(1, 2)  # omega - omegabar = sqrt(-3)


class EisMatrix:
    """3x3 matrix over Q(omega), exact; entries are Eis (int parts when integral)."""

    __slots__ = ("m",)

    def __init__(self, rows):
        self.m = tuple(tuple(_lift(x) for x in row) for row in rows)
        if len(self.m) != 3 or any(len(r) != 3 for r in self.m):
            raise ValueError("EisMatrix needs 3x3 entries")

    @classmethod
    def diag(cls, d1, d2, d3):
        return cls([[d1, 0, 0], [0, d2, 0], [0, 0, d3]])

    @classmethod
    def identity(cls):
        return cls.diag(1, 1, 1)

    def __mul__(self, other):
        if not isinstance(other, EisMatrix):
            return NotImplemented
        cols = [[(x.a, x.b) for x in col] for col in zip(*other.m)]
        rows = []
        for entries in self.m:
            row = [(x.a, x.b) for x in entries]
            out = []
            for col in cols:
                re = im = 0
                for (p, q), (r, s) in zip(row, col):
                    # (p + q w)(r + s w) = pr - qs + (ps + qr - qs) w, as w^2 = -1 - w
                    qs = q * s
                    re += p * r - qs
                    im += p * s + q * r - qs
                out.append(Eis(re, im))
            rows.append(out)
        return EisMatrix(rows)

    def scale(self, c) -> "EisMatrix":
        c = _lift(c)
        return EisMatrix([[c * x for x in row] for row in self.m])

    def __eq__(self, other):
        if not isinstance(other, EisMatrix):
            return NotImplemented
        return self.m == other.m

    def __hash__(self):
        return hash(self.m)

    def det(self) -> Eis:
        m = self.m
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    def inv(self) -> "EisMatrix":
        d = self.det()
        if d.is_zero():
            raise ZeroDivisionError("singular matrix")
        m = self.m
        cof = [
            [
                m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
                - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3]
                for j in range(3)
            ]
            for i in range(3)
        ]
        # adjugate = transpose of cofactors
        return EisMatrix([[cof[j][i] / d for j in range(3)] for i in range(3)])

    def __pow__(self, n: int) -> "EisMatrix":
        if n < 0:
            return self.inv() ** (-n)
        out, base = None, self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:  # no square past the top bit
                base = base * base
        return EisMatrix.identity() if out is None else out

    def conj_transpose(self) -> "EisMatrix":
        return EisMatrix([[self.m[j][i].conj() for j in range(3)] for i in range(3)])

    def is_integral(self) -> bool:
        return all(x.is_integral() for row in self.m for x in row)

    def to_numpy(self) -> np.ndarray:
        return np.array(
            [[x.to_complex() for x in row] for row in self.m], dtype=np.complex128
        )

    def __repr__(self):
        return f"EisMatrix({[[repr(x) for x in row] for row in self.m]})"


def _build_generators() -> dict[str, EisMatrix]:
    w, wb = OMEGA, OMEGA_BAR
    T1 = EisMatrix([[1, 1, -w], [0, 1, 1], [0, 0, 1]])
    T2 = EisMatrix([[1, w, -w], [0, 1, wb], [0, 0, 1]])
    S = EisMatrix([[0, 0, -wb], [0, wb, 0], [-wb, 0, 0]])
    U1 = EisMatrix.diag(1, -w, 1)
    U2 = EisMatrix.diag(-1, -w, -1)
    J = EisMatrix([[0, 0, 1], [0, -1, 0], [1, 0, 0]])
    comm = T1 * T2 * T1.inv() * T2.inv()
    g1 = EisMatrix([[1, wb - w, 1 - wb], [0, wb, 1 - w], [0, 0, 1]])
    g2 = EisMatrix([[1, wb - 1, 1 - wb], [0, wb, 1 - wb], [0, 0, 1]])
    g3 = EisMatrix.diag(1, w, 1)
    g4 = EisMatrix([[-w, 0, wb - 1], [0, -1, 0], [wb - 1, 0, 2 * w]])
    g5 = EisMatrix([[1, 0, 0], [wb - w, wb, 0], [1 - wb, 1 - w, 1]])
    return {
        "T1": T1,
        "T2": T2,
        "S": S,
        "U1": U1,
        "U2": U2,
        "J": J,
        "commutator": comm,
        "g1": g1,
        "g2": g2,
        "g3": g3,
        "g4": g4,
        "g5": g5,
    }


_GENERATORS = _build_generators()


def generators() -> dict[str, EisMatrix]:
    return dict(_GENERATORS)


@lru_cache(maxsize=1024)
def generator_power(name: str, exp: int) -> EisMatrix:
    """The named generator to the power exp, computed once per process.

    Words repeat a few dozen powers many times over, and a negative power
    inverts in Fraction arithmetic; EisMatrix is immutable, so callers share
    the one matrix.
    """
    return _GENERATORS[name] ** exp


def word_product(word) -> EisMatrix:
    """Product of (generator name, integer exponent) pairs."""
    factors = [generator_power(gen, exp) for gen, exp in word]
    return reduce(operator.mul, factors) if factors else EisMatrix.identity()


#: The lattice generators as words in T1, T2, S, U1, U2; g4 is
#: S^3 [T1,T2] S^3 (S^4 U2)^-1 [T1,T2] with the inverse written out.
DECOMPOSITION_WORDS = {
    "g1": (("U1", -4), ("T1", -1), ("T2", -2)),
    "g2": (("U1", -4), ("T1", -2), ("T2", -1)),
    "g3": (("U1", 4),),
    "g4": (("S", 3), ("commutator", 1), ("S", 3), ("U2", -1), ("S", -4), ("commutator", 1)),
    "g5": (("S", 3), ("U1", -4), ("T1", -1), ("T2", 1), ("S", 3)),
}


def _as_numpy(g) -> np.ndarray:
    if isinstance(g, EisMatrix):
        return g.to_numpy()
    return np.asarray(g, dtype=np.complex128)


def denominator(m, z):
    """c.z = c1 z1 + c2 z2 + c3 for the bottom row of the numpy matrix m.

    z1, z2 may be numbers or jets; callers apply their own rejection margin.
    A stack of matrices carries its samples on the last axes, (3, 3, ...),
    and pairs with z1, z2 over the same samples.
    """
    return m[2, 0] * z[0] + m[2, 1] * z[1] + m[2, 2]


def act(g, z):
    """((a.z)/(c.z), (b.z)/(c.z)) with rows of g as affine forms on (z1, z2, 1).

    z1, z2 may be numbers or jets (then the result is the pair of jets), and
    g a stack of matrices (3, 3, ...) acting sample by sample, as in
    `denominator`.
    """
    m = _as_numpy(g)
    z1, z2 = z
    den = denominator(m, z)
    _refuse(_base(den) == 0, "linear fractional action: vanishing denominator", ZeroDivisionError)
    return (
        (m[0, 0] * z1 + m[0, 1] * z2 + m[0, 2]) / den,
        (m[1, 0] * z1 + m[1, 1] * z2 + m[1, 2]) / den,
    )


def det_and_matrix(g) -> tuple[complex, np.ndarray]:
    """(det g, g as a numpy matrix); the det is exact for an EisMatrix.

    A stack of matrices (3, 3, ...), as in `denominator`, gives the det of
    each over the sample axes, by cofactors along the first row.  A single
    matrix is taken as a stack of one: numpy rounds a complex product of
    scalars differently from one of arrays, and so its det has the bits of
    the same matrix in a stack.
    """
    if isinstance(g, EisMatrix):
        return g.det().to_complex(), g.to_numpy()
    m = _as_numpy(g)
    (a, b, c), (d, e, f), (p, q, r) = m if m.ndim > 2 else m[..., None]
    det = a * (e * r - f * q) - b * (d * r - f * p) + c * (d * q - e * p)
    return (det if m.ndim > 2 else det[0]), m


def jacobian_factor(g, z) -> complex:
    """det of the 2x2 Jacobian of the action at z: Delta * (c.z)^{-3}.

    A stack of matrices, or of points, gives the factor sample by sample.
    """
    delta, m = det_and_matrix(g)
    den = denominator(m, z)
    _refuse(den == 0, "vanishing denominator", ZeroDivisionError)
    return delta / den**3


class HeisenbergElem:
    """[alpha, beta] with beta = (N(alpha) + q*sqrt(-3))/2 exactly.

    Then beta + conj(beta) = alpha*conj(alpha) by construction.
    """

    __slots__ = ("alpha", "q")

    def __init__(self, alpha: Eis, q: int):
        alpha = _lift(alpha)
        if not alpha.is_integral():
            raise ValueError("alpha must be an Eisenstein integer")
        self.alpha = alpha
        self.q = int(q)

    def beta(self) -> Eis:
        # sqrt(-3) = 1 + 2*omega, so (N + q*sqrt(-3))/2 = (N + q)/2 + q*omega
        return Eis(Fraction(self.alpha.norm() + self.q, 2), self.q)

    def to_matrix(self) -> EisMatrix:
        return EisMatrix(
            [[1, self.alpha, self.beta()], [0, 1, self.alpha.conj()], [0, 0, 1]]
        )

    def __repr__(self):
        return f"HeisenbergElem(alpha={self.alpha!r}, q={self.q})"


def decompose_heisenberg(elem: HeisenbergElem) -> tuple[int, int, int]:
    """(m, n, l) with T1^m T2^n [T1,T2]^{-l-m-n-mn} equal to elem, exactly."""
    m, n = elem.alpha.a, elem.alpha.b
    num = elem.q - m - n - m * n
    if num % 2 != 0:
        raise ValueError("element not in the T1, T2 lattice (parity obstruction)")
    l = num // 2
    word = [("T1", m), ("T2", n), ("commutator", -l - m - n - m * n)]
    if word_product(word) != elem.to_matrix():
        raise AssertionError("decomposition failed to reproduce the element")
    return m, n, l

