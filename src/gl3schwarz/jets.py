"""Truncated multivariate Taylor (jet) arithmetic over complex coefficients.

A Jet is an expansion  sum_alpha c_alpha * delta^alpha  in local offsets
delta = (x - x0), truncated at a fixed total degree.  Coefficients are
Taylor-normalized (mixed partial divided by the multi-factorial), which makes
multiplication and composition plain polynomial algebra.  Jets do not carry
their base point; callers that need one (map objects) track it themselves.

Dimensions 1-4 and orders 0-3 are supported.  Mixing (dim, order) in
arithmetic is an error, never a silent truncation.
"""

from __future__ import annotations

import math
import cmath
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

# Name of the jet multiply kernel, reported by `gl3schwarz bench`.  There is
# one, in numpy; the name stays for tools that record which kernel ran.
BACKEND = "pure"

MAX_DIM = 4
MAX_ORDER = 3


class JetError(ValueError):
    pass


@lru_cache(maxsize=None)
def monomials(dim: int, order: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples with total degree <= order, sorted by (degree, lex)."""
    if not (1 <= dim <= MAX_DIM):
        raise JetError(f"dim must be 1..{MAX_DIM}, got {dim}")
    if not (0 <= order <= MAX_ORDER):
        raise JetError(f"order must be 0..{MAX_ORDER}, got {order}")
    monos = [m for m in product(range(order + 1), repeat=dim) if sum(m) <= order]
    monos.sort(key=lambda m: (sum(m), m))
    return tuple(monos)


@lru_cache(maxsize=None)
def _index(dim: int, order: int) -> dict[tuple[int, ...], int]:
    return {m: i for i, m in enumerate(monomials(dim, order))}


@lru_cache(maxsize=None)
def _deriv_table(dim: int, order: int, var: int):
    """Gather index and factor of d/dx_var from order to order - 1.

    Coefficient m of the derivative is (m[var] + 1) times coefficient
    m + e_var of the jet.
    """
    src = _index(dim, order)
    lower = monomials(dim, order - 1)
    up = [tuple(e + (k == var) for k, e in enumerate(m)) for m in lower]
    return np.array([src[u] for u in up]), np.array([m[var] + 1.0 for m in lower])


@lru_cache(maxsize=None)
def _mul_table(dim: int, order: int):
    """Index pairs of the truncated product, grouped by target coefficient.

    Returns (ti, tj, starts): coefficient k of a*b is the sum of
    a[ti] * b[tj] over the k-th group, which begins at starts[k].  No group
    is empty (the constant times the target is always in it), and within a
    group i ascends, the order the terms have always been summed in.
    """
    monos = monomials(dim, order)
    idx = _index(dim, order)
    ti, tj, starts = [], [], []
    for mk in monos:
        starts.append(len(ti))
        for i, mi in enumerate(monos):
            mj = tuple(a - b for a, b in zip(mk, mi))
            if min(mj) >= 0:
                ti.append(i)
                tj.append(idx[mj])
    return np.asarray(ti), np.asarray(tj), np.asarray(starts)


def _multifactorial(alpha) -> int:
    out = 1
    for e in alpha:
        out *= math.factorial(e)
    return out


def _wrap(dim: int, order: int, c: np.ndarray) -> "Jet":
    """A Jet owning c, a fresh complex128 coefficient array of the right length.

    Arithmetic results go through here; only the public constructor checks
    and copies.
    """
    j = object.__new__(Jet)
    j.dim = dim
    j.order = order
    j._c = c
    return j


class Jet:
    """Truncated Taylor expansion; immutable by convention."""

    __slots__ = ("dim", "order", "_c")

    def __init__(self, dim: int, order: int, coeffs=None):
        monos = monomials(dim, order)
        self.dim = dim
        self.order = order
        if coeffs is None:
            self._c = np.zeros(len(monos), dtype=np.complex128)
        elif isinstance(coeffs, np.ndarray):
            if coeffs.shape != (len(monos),):
                raise JetError("coefficient array has wrong length")
            self._c = coeffs.astype(np.complex128, copy=True)
        else:
            self._c = np.zeros(len(monos), dtype=np.complex128)
            idx = _index(dim, order)
            for alpha, v in dict(coeffs).items():
                key = tuple(alpha)
                if key not in idx:
                    raise JetError(f"monomial {key} invalid for dim={dim} order={order}")
                self._c[idx[key]] = v

    @classmethod
    def constant(cls, dim: int, order: int, value) -> "Jet":
        c = np.zeros(len(monomials(dim, order)), dtype=np.complex128)
        c[0] = value
        return _wrap(dim, order, c)

    @classmethod
    def variable(cls, dim: int, order: int, var: int, base=0.0) -> "Jet":
        """Jet of the coordinate function x_var expanded at base."""
        if not (0 <= var < dim):
            raise JetError(f"variable index {var} out of range for dim {dim}")
        j = cls(dim, order)
        j._c[0] = base
        if order >= 1:
            e = tuple(1 if k == var else 0 for k in range(dim))
            j._c[_index(dim, order)[e]] = 1.0
        return j

    @classmethod
    def variables(cls, dim: int, order: int, base) -> "list[Jet]":
        return [cls.variable(dim, order, k, base[k]) for k in range(dim)]

    @property
    def value(self) -> complex:
        return complex(self._c[0])

    def coeff(self, alpha) -> complex:
        return complex(self._c[_index(self.dim, self.order)[tuple(alpha)]])

    def partial(self, alpha) -> complex:
        """Mixed partial derivative value at the base point."""
        return self.coeff(alpha) * _multifactorial(alpha)

    def coeffs(self) -> dict[tuple[int, ...], complex]:
        return {m: complex(c) for m, c in zip(monomials(self.dim, self.order), self._c)}

    def copy(self) -> "Jet":
        return _wrap(self.dim, self.order, self._c.copy())

    def _check(self, other: "Jet"):
        if self.dim != other.dim or self.order != other.order:
            raise JetError(
                f"(dim, order) mismatch: ({self.dim},{self.order}) vs "
                f"({other.dim},{other.order})"
            )

    def _lift(self, other) -> np.ndarray:
        """Coefficients of other: a jet of the same (dim, order), or a constant."""
        if isinstance(other, Jet):
            self._check(other)
            return other._c
        c = np.zeros(len(self._c), dtype=np.complex128)
        c[0] = other
        return c

    def __add__(self, other):
        return _wrap(self.dim, self.order, self._c + self._lift(other))

    __radd__ = __add__

    def __sub__(self, other):
        return _wrap(self.dim, self.order, self._c - self._lift(other))

    def __rsub__(self, other):
        return _wrap(self.dim, self.order, self._lift(other) - self._c)

    def __neg__(self):
        return _wrap(self.dim, self.order, -self._c)

    def __mul__(self, other):
        dim, order = self.dim, self.order
        if not isinstance(other, Jet):
            return _wrap(dim, order, self._c * other)
        if other.dim != dim or other.order != order:
            self._check(other)
        ti, tj, starts = _mul_table(dim, order)
        return _wrap(dim, order, np.add.reduceat(self._c[ti] * other._c[tj], starts))

    def __rmul__(self, other):
        return self * other

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return _wrap(self.dim, self.order, self._c / other)
        return self * other._inverse()

    def __rtruediv__(self, other):
        return _wrap(self.dim, self.order, self._lift(other)) * self._inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            raise JetError("use jet_powq for non-integer exponents")
        if n < 0:
            return self._inverse() ** (-n)
        out = Jet.constant(self.dim, self.order, 1.0)
        for _ in range(n):
            out = out * self
        return out

    def _nilpotent(self, c0) -> "Jet":
        """self / c0 with the constant term removed."""
        c = self._c / c0
        c[0] = 0.0
        return _wrap(self.dim, self.order, c)

    def _inverse(self) -> "Jet":
        c0 = self.value
        if c0 == 0:
            raise JetError("division by jet with zero constant term")
        # 1/(c0(1+n)) via the Neumann series in the nilpotent part n
        nil = self._nilpotent(c0)
        out = Jet.constant(self.dim, self.order, 1.0)
        term = Jet.constant(self.dim, self.order, 1.0)
        for k in range(1, self.order + 1):
            term = term * nil
            out = out + (-1) ** k * term
        return _wrap(self.dim, self.order, out._c / c0)

    def deriv(self, var: int) -> "Jet":
        """Partial derivative; the result order drops by one."""
        if self.order == 0:
            raise JetError("cannot differentiate an order-0 jet")
        if not (0 <= var < self.dim):
            raise JetError(f"variable index {var} out of range")
        src, factor = _deriv_table(self.dim, self.order, var)
        return _wrap(self.dim, self.order - 1, self._c[src] * factor)

    def truncate(self, order: int) -> "Jet":
        """The jet at a lower order: monomials sort by degree, so a prefix."""
        if order > self.order:
            raise JetError("cannot raise truncation order")
        return _wrap(self.dim, order, self._c[: len(monomials(self.dim, order))].copy())

    def max_abs(self) -> float:
        return float(np.max(np.abs(self._c)))

    def allclose(self, other: "Jet", tol: float = 1e-12) -> bool:
        self._check(other)
        return bool(np.allclose(self._c, other._c, rtol=0, atol=tol))

    def __repr__(self):
        terms = ", ".join(
            f"{m}: {c:.6g}" for m, c in self.coeffs().items() if c != 0
        )
        return f"Jet(dim={self.dim}, order={self.order}, {{{terms}}})"


def jet_powq(a: Jet, q) -> Jet:
    """a**q for rational q, principal branch of the constant term.

    Generalized binomial series in the nilpotent part; exact at truncation.
    """
    c0 = a.value
    if c0 == 0:
        raise JetError("jet_powq requires nonzero constant term")
    qf = q if isinstance(q, (float, complex)) else float(Fraction(q))
    head = cmath.exp(qf * cmath.log(c0))
    nil = a._nilpotent(c0)
    out = Jet.constant(a.dim, a.order, 1.0)
    term = Jet.constant(a.dim, a.order, 1.0)
    binom = 1.0
    for k in range(1, a.order + 1):
        binom *= (qf - (k - 1)) / k
        term = term * nil
        out = out + binom * term
    return head * out


def compose(h: Jet, gs: "list[Jet]") -> Jet:
    """Substitute the jets gs into h, recentering h at their constant terms.

    h must have order >= the gs' (shared) order, so no h-coefficient that
    could contribute is missing.
    """
    if h.dim != len(gs):
        raise JetError(f"h has dim {h.dim} but {len(gs)} arguments given")
    dim, order = gs[0].dim, gs[0].order
    for g in gs[1:]:
        gs[0]._check(g)
    if h.order < order:
        raise JetError("h order too low for requested composition")
    deltas = []
    for g in gs:
        d = g.copy()
        d._c[0] = 0.0
        deltas.append(d)
    # cache delta powers up to the truncation order
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
        r1 = w1 - compose(n1, [h1, h2])
        r2 = w2 - compose(n2, [h1, h2])
        h1 = B[0, 0] * r1 + B[0, 1] * r2
        h2 = B[1, 0] * r1 + B[1, 1] * r2
    return h1, h2
