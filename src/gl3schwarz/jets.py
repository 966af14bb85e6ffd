"""Truncated multivariate Taylor (jet) arithmetic over complex coefficients.

A Jet is an expansion  sum_alpha c_alpha * delta^alpha  in local offsets
delta = (x - x0), truncated at a fixed total degree.  Coefficients are
Taylor-normalized (mixed partial divided by the multi-factorial), which makes
multiplication and composition plain polynomial algebra.  Jets do not carry
their base point; callers that need one (map objects) track it themselves.

Dimensions 1-4 and orders 0-3 are supported.  Mixing (dim, order) in
arithmetic is an error, never a silent truncation.

A Jet's coefficient array may carry leading sample axes, shape (..., N):
a stack of jets, one per sample, that arithmetic, powers, derivatives and
`compose` carry through at once (the vector forward mode of Taylor
arithmetic).  A single jet is the stack of shape ().  Numbers that vary by
sample are arrays over the same leading axes: `value`, `coeff` and
`partial` return such arrays for a stack and complex scalars for a single
jet, and a jet times an array of shape (...) scales each sample by
its own number.  A refusal for one sample of a stack names its index
(`_refuse`).

Every product is one kernel, `_product`: a gather-multiply-`reduceat` over
coefficient arrays, for one jet or a whole stack of them.  Inverses and
rational powers are one power-series pass over raw arrays (`_series`), and
`compose` builds the monomials of its deltas with one stacked product per
degree; none of them builds a Jet per term.
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
    # monomials sort by degree: those of degree <= d are a prefix
    upto = [len(monomials(dim, d)) for d in range(order + 1)]
    groups = [[] for _ in monos]
    for i, mi in enumerate(monos):
        for j in range(upto[order - sum(mi)]):
            groups[idx[tuple(a + b for a, b in zip(mi, monos[j]))]].append((i, j))
    starts = np.cumsum([0] + [len(g) for g in groups[:-1]])
    ti, tj = zip(*(pair for g in groups for pair in g))
    return np.asarray(ti), np.asarray(tj), starts


def _col(x):
    """x as a factor of coefficient arrays: a per-sample array gets an axis."""
    # kept fork: x[..., None] on numbers too made evaluator commands 1.7% slower
    return x[..., None] if isinstance(x, np.ndarray) else x


def _any(mask) -> bool:
    """Whether a per-sample test holds for any sample (or for the one)."""
    # kept fork: np.any on a single point made evaluator commands 6% slower
    return bool(mask.any()) if isinstance(mask, np.ndarray) else mask


def _base(x):
    """The base point of x: a jet's value, an array of points, or a complex number."""
    # kept fork: numpy scalars here changed the last digits of MT3 and picard outputs
    return x.value if isinstance(x, Jet) else x if isinstance(x, np.ndarray) else complex(x)


def _sample(shape, k: int) -> str:
    """' (sample k)' for flat sample k of a stack of the given shape; '' for one."""
    if not shape:
        return ""
    index = tuple(int(i) for i in np.unravel_index(k, shape))
    return f" (sample {index[0] if len(index) == 1 else index})"


def _refuse(bad, message, error=ValueError):
    """Raise error(message) for the first sample where the mask bad holds.

    bad is a per-sample test over a stack's sample axes, or one bool for a
    single point, whose message stays as it is; a stack's message names the
    sample.  message may be a function of the flat sample index, for a
    message that quotes the sample's own numbers.
    """
    if _any(bad):
        bad = np.asarray(bad)
        k = int(np.argmax(bad.ravel()))
        raise error((message(k) if callable(message) else message) + _sample(bad.shape, k))


def _constant(value, n: int) -> np.ndarray:
    """n coefficients of a constant: a number, or an array of them per sample."""
    # kept fork: np.shape(value) for numbers too made evaluator commands 0.5-1.6% slower
    if isinstance(value, np.ndarray):
        c = np.zeros(value.shape + (n,), dtype=np.complex128)
        c[..., 0] = value
    else:
        c = np.zeros(n, dtype=np.complex128)
        c[0] = value
    return c


def _entry(c: np.ndarray, i: int):
    """Coefficient i: a complex scalar for one jet, an array over a stack's samples."""
    return c[..., i][()]


def _product(dim: int, order: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated product of coefficient arrays, the one multiply kernel.

    a and b hold coefficients along their last axis and broadcast over the
    others, so one call multiplies a whole stack of jets.
    """
    ti, tj, starts = _mul_table(dim, order)
    # take(.., -1), not a[..., ti]: the Ellipsis index costs about five
    # times more on arrays of 3 to 35 coefficients
    return np.add.reduceat(a.take(ti, -1) * b.take(tj, -1), starts, -1)


def _series(dim: int, order: int, nil: np.ndarray, coeffs) -> np.ndarray:
    """1 + sum_k coeffs[k-1] nil**k over k = 1..order, as a coefficient array.

    nil has a zero constant term, so its powers past the order vanish at
    truncation: the power series of a function at 1 + nil is exact here.
    """
    out = np.zeros_like(nil)
    out[..., 0] = 1.0
    term = nil
    for k, c in enumerate(coeffs):
        if k:
            term = _product(dim, order, term, nil)
        out += term * c
    return out


@lru_cache(maxsize=None)
def _power_table(dim: int, order: int):
    """How compose builds every monomial of its deltas from lower ones.

    Returns (units, levels).  units[v] is the index of the monomial x_v.
    Each level (lo, hi, parents, factors) covers one degree d >= 2, whose
    monomials are the contiguous block lo:hi; monomial lo + k is monomial
    parents[k] (degree d - 1) times monomial factors[k] (degree 1).
    """
    if order == 0:
        return (), ()
    monos = monomials(dim, order)
    idx = _index(dim, order)
    units = [idx[tuple(int(k == v) for k in range(dim))] for v in range(dim)]
    levels = []
    for d in range(2, order + 1):
        block = [k for k, m in enumerate(monos) if sum(m) == d]
        parents, factors = [], []
        for k in block:
            v = next(i for i, e in enumerate(monos[k]) if e)
            parents.append(idx[tuple(e - (i == v) for i, e in enumerate(monos[k]))])
            factors.append(units[v])
        levels.append((block[0], block[-1] + 1, np.array(parents), np.array(factors)))
    return units, tuple(levels)


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
    """Truncated Taylor expansion, or a stack of them; immutable by convention."""

    __slots__ = ("dim", "order", "_c")

    # numpy operands defer to Jet's reflected operators: an array of
    # per-sample numbers times a jet is a jet, not an object array
    __array_ufunc__ = None

    def __init__(self, dim: int, order: int, coeffs=None):
        monos = monomials(dim, order)
        self.dim = dim
        self.order = order
        if coeffs is None:
            self._c = np.zeros(len(monos), dtype=np.complex128)
        elif isinstance(coeffs, np.ndarray):
            if coeffs.shape[-1:] != (len(monos),):
                raise JetError("coefficient array has wrong length")
            self._c = coeffs.astype(np.complex128, copy=True)
        else:
            # coefficients may be arrays over a stack's samples
            coeffs = dict(coeffs)
            shape = np.broadcast_shapes(*map(np.shape, coeffs.values()))
            self._c = np.zeros(shape + (len(monos),), dtype=np.complex128)
            idx = _index(dim, order)
            for alpha, v in coeffs.items():
                key = tuple(alpha)
                if key not in idx:
                    raise JetError(f"monomial {key} invalid for dim={dim} order={order}")
                self._c[..., idx[key]] = v

    @classmethod
    def constant(cls, dim: int, order: int, value) -> "Jet":
        """The constant value; an array of values gives a stack of constants."""
        return _wrap(dim, order, _constant(value, len(monomials(dim, order))))

    @classmethod
    def variable(cls, dim: int, order: int, var: int, base=0.0) -> "Jet":
        """Jet of the coordinate function x_var expanded at base (or at each base)."""
        if not (0 <= var < dim):
            raise JetError(f"variable index {var} out of range for dim {dim}")
        j = cls.constant(dim, order, base)
        if order >= 1:
            e = tuple(1 if k == var else 0 for k in range(dim))
            j._c[..., _index(dim, order)[e]] = 1.0
        return j

    @classmethod
    def variables(cls, dim: int, order: int, base) -> "list[Jet]":
        return [cls.variable(dim, order, k, base[k]) for k in range(dim)]

    @property
    def value(self) -> complex:
        return _entry(self._c, 0)

    def coeff(self, alpha) -> complex:
        return _entry(self._c, _index(self.dim, self.order)[tuple(alpha)])

    def partial(self, alpha) -> complex:
        """Mixed partial derivative value at the base point."""
        return self.coeff(alpha) * _multifactorial(alpha)

    def coeffs(self) -> dict[tuple[int, ...], complex]:
        return {m: _entry(self._c, i) for i, m in enumerate(monomials(self.dim, self.order))}

    def copy(self) -> "Jet":
        return _wrap(self.dim, self.order, self._c.copy())

    def _check(self, other: "Jet"):
        if self.dim != other.dim or self.order != other.order:
            raise JetError(
                f"(dim, order) mismatch: ({self.dim},{self.order}) vs "
                f"({other.dim},{other.order})"
            )

    def _lift(self, other) -> np.ndarray:
        """Coefficients of other: a jet of the same (dim, order), or a constant
        (a number, or an array of them over the sample axes)."""
        if isinstance(other, Jet):
            self._check(other)
            return other._c
        return _constant(other, self._c.shape[-1])

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
            return _wrap(dim, order, self._c * _col(other))
        if other.dim != dim or other.order != order:
            self._check(other)
        return _wrap(dim, order, _product(dim, order, self._c, other._c))

    def __rmul__(self, other):
        return self * other

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return _wrap(self.dim, self.order, self._c / _col(other))
        return self * other._inverse()

    def __rtruediv__(self, other):
        return self._inverse() * other

    def __pow__(self, n):
        if not isinstance(n, int):
            raise JetError("use jet_powq for non-integer exponents")
        if n < 0:
            return self._inverse() ** (-n)
        if n == 0:
            return Jet.constant(self.dim, self.order, 1.0)
        out, base = None, self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return out.copy() if out is self else out  # never the operand itself

    def _nilpotent(self, c0) -> np.ndarray:
        """Coefficients of self / c0 with the constant term removed."""
        c = self._c / _col(c0)
        c[..., 0] = 0.0
        return c

    def _inverse(self) -> "Jet":
        """1/self = (1/c0) sum_k (-n)^k, the Neumann series in n = self/c0 - 1.

        One pass over coefficient arrays: order - 1 products, no jet per term.
        """
        c0 = self.value
        _refuse(c0 == 0, "division by jet with zero constant term", JetError)
        dim, order = self.dim, self.order
        signs = (-1.0, 1.0, -1.0)[:order]
        return _wrap(dim, order, _series(dim, order, self._nilpotent(c0), signs) / _col(c0))

    def deriv(self, var: int) -> "Jet":
        """Partial derivative; the result order drops by one."""
        if self.order == 0:
            raise JetError("cannot differentiate an order-0 jet")
        if not (0 <= var < self.dim):
            raise JetError(f"variable index {var} out of range")
        src, factor = _deriv_table(self.dim, self.order, var)
        return _wrap(self.dim, self.order - 1, self._c.take(src, -1) * factor)

    def truncate(self, order: int) -> "Jet":
        """The jet at a lower order: monomials sort by degree, so a prefix."""
        if order > self.order:
            raise JetError("cannot raise truncation order")
        return _wrap(self.dim, order, self._c[..., : len(monomials(self.dim, order))].copy())

    def max_abs(self) -> float:
        return float(np.max(np.abs(self._c)))

    def allclose(self, other: "Jet", tol: float = 1e-12) -> bool:
        self._check(other)
        return bool(np.allclose(self._c, other._c, rtol=0, atol=tol))

    def __repr__(self):
        if self._c.ndim > 1:
            return f"Jet(dim={self.dim}, order={self.order}, stack of shape {self._c.shape[:-1]})"
        terms = ", ".join(
            f"{m}: {c:.6g}" for m, c in self.coeffs().items() if c != 0
        )
        return f"Jet(dim={self.dim}, order={self.order}, {{{terms}}})"


def jet_powq(a: Jet, q) -> Jet:
    """a**q for rational q, principal branch of the constant term.

    Generalized binomial series in the nilpotent part, summed in one pass
    over coefficient arrays; exact at truncation.
    """
    c0 = a.value
    _refuse(c0 == 0, "jet_powq requires nonzero constant term", JetError)
    qf = q if isinstance(q, (float, complex)) else float(Fraction(q))
    # cmath for every sample: numpy's complex log and exp round differently,
    # and a stack's samples match the single jets bit for bit
    head = np.reshape([cmath.exp(qf * cmath.log(c)) for c in np.ravel(c0).tolist()], np.shape(c0))
    binoms, binom = [], 1.0
    for k in range(1, a.order + 1):
        binom *= (qf - (k - 1)) / k
        binoms.append(binom)
    return _wrap(a.dim, a.order, _series(a.dim, a.order, a._nilpotent(c0), binoms) * _col(head))


def _compose_each(hs, gs: "list[Jet]") -> "list[Jet]":
    """compose(h, gs) for every h in hs, sharing the monomials of the deltas.

    Row k of the monomial matrix is the coefficient array of delta^alpha_k,
    alpha_k the k-th monomial of (len(gs), order): one batched product per
    degree builds them, and each composite is h's coefficient prefix times
    the matrix.  Stacks of jets among hs and gs broadcast over their
    sample axes, one monomial matrix per sample.
    """
    for h in hs:
        if h.dim != len(gs):
            raise JetError(f"h has dim {h.dim} but {len(gs)} arguments given")
    dim, order = gs[0].dim, gs[0].order
    for g in gs[1:]:
        gs[0]._check(g)
    if any(h.order < order for h in hs):
        raise JetError("h order too low for requested composition")
    units, levels = _power_table(len(gs), order)
    shapes = {g._c.shape for g in gs}
    shape = shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)
    m = len(monomials(len(gs), order))
    rows = np.zeros(shape[:-1] + (m, shape[-1]), dtype=np.complex128)
    rows[..., 0, 0] = 1.0
    for u, g in zip(units, gs):
        rows[..., u, 1:] = g._c[..., 1:]
    for lo, hi, parents, factors in levels:
        rows[..., lo:hi, :] = _product(dim, order, rows.take(parents, -2), rows.take(factors, -2))
    return [_wrap(dim, order, np.einsum("...j,...jk->...k", h._c[..., :m], rows)) for h in hs]


def compose(h: Jet, gs: "list[Jet]") -> Jet:
    """Substitute the jets gs into h, recentering h at their constant terms.

    h must have order >= the gs' (shared) order, so no h-coefficient that
    could contribute is missing; its coefficients past that order multiply
    monomials that vanish at truncation.  The monomials of the deltas
    g - g(0) come from one batched product per degree (see _compose_each).
    """
    return _compose_each((h,), gs)[0]
