"""Appell F1 by double series and Euler integral, with the Picard and K integrals.

Two independent evaluation routes are kept deliberately separate.

The series route sums F1 one anti-diagonal at a time.  For jet arguments it
needs no jet arithmetic inside the series: every partial of F1 is again an
F1 with shifted parameters (DLMF 16.13),

    d^i/dx^i d^j/dy^j F1(a; b, b'; c; x, y)
        = (a)_{i+j} (b)_i (b')_j / (c)_{i+j} * F1(a+i+j; b+i, b'+j; c+i+j; x, y),

so the Taylor jet at the base point comes from a batch of scalar sums, which
is then composed with the argument jets.  The series converges for
|x|, |y| < 1; points so close to the unit circle that it would need more than
DIAGONAL_LIMIT anti-diagonals are refused with ValueError.

The quadrature route integrates the Euler representation with Gauss-Jacobi
rules whose endpoint exponents match the integrand exactly.  A rule is built
with numpy alone: Golub-Welsch nodes (eigenvalues of the Jacobi matrix),
each polished by one Newton step on P_n^(alpha, beta), and weights from
P_n' at the polished nodes rather than from eigenvector squares, which
Hale & Townsend (SIAM J. Sci. Comput. 35, 2013) show to be more accurate.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .jets import Jet, compose, monomials

# Most anti-diagonals a series may be budgeted; a point that needs more is a
# domain error.  The budget reaches it at max(|x|, |y|) of about 0.986-0.991,
# depending on the parameters and the jet order.
DIAGONAL_LIMIT = 6000


# Lanczos approximation, g = 7 with 9 terms: about 1e-14 relative off the
# real axis for Re z in [-5, 10], |Im z| <= 5
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma(z) -> complex:
    """Complex gamma; rejects the poles explicitly.

    Real arguments go to math.gamma, others to the Lanczos sum, with the
    reflection formula for Re z < 1/2.
    """
    z = complex(z)
    if z.imag == 0:
        if z.real <= 0 and z.real == int(z.real):
            raise ValueError(f"gamma pole at {z}")
        return complex(math.gamma(z.real))
    if z.real < 0.5:
        return cmath.pi / (cmath.sin(cmath.pi * z) * gamma(1 - z))
    z -= 1
    s = _LANCZOS[0] + sum(c / (z + k) for k, c in enumerate(_LANCZOS[1:], 1))
    t = z + _LANCZOS_G + 0.5
    return cmath.sqrt(2 * cmath.pi) * t ** (z + 0.5) * cmath.exp(-t) * s


def _parameter(v) -> complex:
    """One F1 parameter as a finite complex number.

    A string is read as a Fraction literal ('1/3', '0.25') first, else as a
    complex literal ('0.3+0.1j').  '1/0', nan, inf and junk raise ValueError.
    """
    error = ValueError(f"F1 parameter {v!r} is not a rational or a finite complex number")
    try:
        if isinstance(v, str):
            try:
                return complex(Fraction(v))
            except ValueError:
                pass  # not a rational literal
        z = complex(v)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise error from None
    if not cmath.isfinite(z):
        raise error
    return z


class F1Params:
    """Parameters (a; b, b'; c); rationals accepted as int, Fraction or 'p/q'."""

    __slots__ = ("a", "b", "bprime", "c")

    def __init__(self, a, b, bprime, c):
        self.a, self.b, self.bprime, self.c = (_parameter(v) for v in (a, b, bprime, c))

    def require_series_ok(self):
        c = self.c
        if c.imag == 0 and c.real <= 0 and c.real == int(c.real):
            raise ValueError("c must not be a nonpositive integer")

    def require_euler_ok(self):
        # the rules take real endpoint exponents; a non-real a or c leaves
        # t^(i Im a) or (1-t)^(i Im(c-a)) in the integrand, which is not
        # smooth at the endpoint and costs the rule most of its digits
        if self.a.imag or self.c.imag:
            raise ValueError("Euler integral needs real a and c")
        if not (self.c.real > self.a.real > 0):
            raise ValueError("Euler integral needs c > a > 0")

    def __repr__(self):
        return f"F1Params(a={self.a}, b={self.b}, bprime={self.bprime}, c={self.c})"


class QuadratureSpec:
    """Gauss-Jacobi rule on (0, 1): exponents (alpha at t=1, beta at t=0)."""

    __slots__ = ("nodes", "tol", "exponents")

    def __init__(self, nodes: int = 160, tol: float = 1e-9, exponents=None):
        if nodes < 8:
            raise ValueError("node count must be >= 8")
        if exponents is not None:
            alpha, beta = exponents
            if alpha <= -1 or beta <= -1:
                raise ValueError("endpoint exponents must exceed -1")
        self.nodes = int(nodes)
        self.tol = float(tol)
        self.exponents = exponents


def _jacobi_p(n: int, alpha: float, beta: float, x: np.ndarray):
    """P_n^(alpha, beta)(x) and its derivative, from one recurrence pass.

    The pass gives P_n and P_{n-1}; the derivative follows from
    (2n+alpha+beta)(1-x^2) P_n' = n[(alpha-beta) - (2n+alpha+beta)x] P_n
                                  + 2(n+alpha)(n+beta) P_{n-1}.
    """
    ab = alpha + beta
    prev, p = np.ones_like(x), ((alpha - beta) + (ab + 2.0) * x) / 2.0
    for k in range(2, n + 1):
        s = 2.0 * k + ab
        prev, p = p, (
            (s - 1.0) * ((s - 2.0) * s * x + alpha * alpha - beta * beta) * p
            - 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * s * prev
        ) / (2.0 * k * (k + ab) * (s - 2.0))
    s = 2.0 * n + ab
    dp = (n * ((alpha - beta) - s * x) * p + 2.0 * (n + alpha) * (n + beta) * prev) / (
        s * (1.0 - x) * (1.0 + x)
    )
    return p, dp


@lru_cache(maxsize=64)
def _jacobi_rule(n: int, alpha: float, beta: float):
    """Gauss-Jacobi nodes on (0,1) and weights for t^beta (1-t)^alpha.

    Golub-Welsch nodes on (-1, 1), one Newton step each, then weights
    proportional to 1/((1-x^2) P_n'(x)^2), scaled to sum to
    B(alpha+1, beta+1), the integral of the weight over (0, 1).
    """
    ab = alpha + beta
    k = np.arange(1.0, n)
    s = 2.0 * k + ab
    # the k = 0 diagonal and k = 1 off-diagonal in closed form: the generic
    # expressions are 0/0 at alpha + beta = 0 and alpha + beta = -1
    diag = np.empty(n)
    diag[0] = (beta - alpha) / (ab + 2.0)
    diag[1:] = (beta * beta - alpha * alpha) / (s * (s + 2.0))
    off = np.empty(n - 1)
    off[0] = 2.0 / (ab + 2.0) * math.sqrt((1.0 + alpha) * (1.0 + beta) / (ab + 3.0))
    k, s = k[1:], s[1:]
    off[1:] = 2.0 / s * np.sqrt(k * (k + alpha) * (k + beta) * (k + ab) / ((s - 1.0) * (s + 1.0)))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    p, dp = _jacobi_p(n, alpha, beta, x)
    x = x - p / dp
    _, dp = _jacobi_p(n, alpha, beta, x)
    # P_n' can pass 1e100 at large alpha: square mantissas only, and shift
    # the binary exponents so the largest weight is of order one
    mant, expo = np.frexp(dp)
    w = np.ldexp(1.0 / ((1.0 - x) * (1.0 + x) * mant * mant), 2 * (expo.min() - expo))
    mass = math.exp(math.lgamma(alpha + 1.0) + math.lgamma(beta + 1.0) - math.lgamma(ab + 2.0))
    return (1.0 + x) / 2.0, w * (mass / w.sum())


def _quad(g, alpha: float, beta: float, spec: QuadratureSpec | None) -> complex:
    """Integral over (0,1) of t^beta (1-t)^alpha g(t)."""
    spec = spec or QuadratureSpec()
    if spec.exponents is not None:
        alpha, beta = spec.exponents
    t, w = _jacobi_rule(spec.nodes, float(alpha), float(beta))
    return complex(np.sum(w * g(t)))


def _ppow(base, p):
    """Principal branch base**p for array or scalar complex base."""
    return np.exp(p * np.log(np.asarray(base, dtype=np.complex128)))


def _diagonal_budget(r: float, growth: float, tol: float) -> int:
    """Anti-diagonals the series gets to settle in, at radius r = max(|x|, |y|).

    Diagonal d of the series is of order d**growth * r**d.  The budget is
    twice the d where that bound falls to tol, plus a margin for its
    constant; a budget above DIAGONAL_LIMIT is refused up front.
    """
    d = 0.0
    if r > 0:
        for _ in range(8):  # fixed point of d = (log tol - growth log d) / log r
            d = max((math.log(tol) - growth * math.log(max(d, 1.0))) / math.log(r), 0.0)
    budget = 2 * math.ceil(d) + 16
    if budget > DIAGONAL_LIMIT:
        raise ValueError(
            f"series would need about {budget} anti-diagonals at max(|x|, |y|) = "
            f"{r:.6g}, more than {DIAGONAL_LIMIT}: too close to the unit circle "
            "for these parameters"
        )
    return budget


def _shifted_sums(p: F1Params, shifts, x: complex, y: complex, tol: float) -> np.ndarray:
    """F1(a+i+j; b+i, b'+j; c+i+j; x, y) for every shift (i, j), in one pass.

    Row k of the running anti-diagonal holds the terms T(m, d-m) of shift k,
    T(m, n) = (a)_{m+n} (b)_m (b')_n / ((c)_{m+n} m! n!) x^m y^n, advanced by
        T(m, n) = T(m-1, n) (a+d-1)(b+m-1) / ((c+d-1) m) x,
        T(0, d) = T(0, d-1) (a+d-1)(b'+d-1) / ((c+d-1) d) y.
    Summation stops once three consecutive anti-diagonals each add at most
    tol * (1 - r) relative to every shift's partial sum, r = max(|x|, |y|):
    the geometric tail after such a diagonal is then about tol relative.
    """
    i, j = np.asarray(shifts, dtype=float).T
    r = max(abs(x), abs(y))
    growth = max(0.0, (p.a + p.b + p.bprime - p.c).real - 1.0 + float(np.max(i + j)))
    budget = _diagonal_budget(r, growth, tol)
    quiet_tol = tol * (1.0 - r)
    k = np.arange(budget)
    # per-diagonal and per-column factors, rows indexed by shift
    step = (p.a + (i + j)[:, None] + k) / (p.c + (i + j)[:, None] + k)
    col_x = (p.b + i[:, None] + k) / (k + 1) * x
    col_y = (p.bprime + j[:, None] + k) / (k + 1) * y
    row = np.ones((len(i), 1), dtype=np.complex128)
    total = row[:, 0].copy()
    quiet = 0
    for d in range(1, budget + 1):
        new = np.empty((len(i), d + 1), dtype=np.complex128)
        new[:, 0] = row[:, 0] * step[:, d - 1] * col_y[:, d - 1]
        new[:, 1:] = row * step[:, d - 1 : d] * col_x[:, :d]
        row = new
        block = row.sum(axis=1)
        total += block
        quiet = quiet + 1 if np.all(np.abs(block) <= quiet_tol * np.abs(total)) else 0
        if quiet == 3:
            return total
    raise ValueError(f"series did not settle within {budget} anti-diagonals")


def _rising(z: complex, n: int) -> complex:
    out = 1.0 + 0.0j
    for k in range(n):
        out *= z + k
    return out


def f1_series(p: F1Params, x, y, tol: float = 1e-12):
    """Double series sum_{m,n} (a)_{m+n} (b)_m (b')_n / ((c)_{m+n} m! n!) x^m y^n.

    x, y may be complex numbers or jets (one of each is fine) with
    |constant term| < 1; in the jet case the result is a jet carrying all
    partials up to the jets' order.  Those come from the shifted-parameter
    sums F1(a+i+j; b+i, b'+j; c+i+j) at the base point, all taken in one
    pass, which form the Taylor jet of F1 there; it is composed with (x, y).
    Raises ValueError outside |x|, |y| < 1 and where the series would need
    more than DIAGONAL_LIMIT anti-diagonals.
    """
    p.require_series_ok()
    proto = x if isinstance(x, Jet) else y if isinstance(y, Jet) else None
    if proto is not None:
        x, y = (
            v if isinstance(v, Jet) else Jet.constant(proto.dim, proto.order, v) for v in (x, y)
        )
    x0, y0 = (v.value if isinstance(v, Jet) else complex(v) for v in (x, y))
    if not (abs(x0) < 1 and abs(y0) < 1):
        raise ValueError("series needs |x|, |y| < 1 at the base point")
    if proto is None:
        return complex(_shifted_sums(p, ((0, 0),), x0, y0, tol)[0])
    shifts = monomials(2, proto.order)
    sums = _shifted_sums(p, shifts, x0, y0, tol)
    taylor = [
        _rising(p.a, i + j) * _rising(p.b, i) * _rising(p.bprime, j)
        / (_rising(p.c, i + j) * math.factorial(i) * math.factorial(j)) * s
        for (i, j), s in zip(shifts, sums)
    ]
    return compose(Jet(2, proto.order, np.array(taylor)), [x, y])


def f1_euler(p: F1Params, x, y, spec: QuadratureSpec | None = None) -> complex:
    """Euler integral Gamma(c)/(Gamma(a)Gamma(c-a)) int_0^1 t^{a-1}(1-t)^{c-a-1}(1-tx)^{-b}(1-ty)^{-b'} dt.

    The prefactor is taken through lgamma: c > a > 0 are real, and Gamma(c)
    alone overflows from c of about 171.6.
    """
    p.require_euler_ok()
    a, b, bp, c = p.a.real, p.b, p.bprime, p.c.real

    def g(t):
        return _ppow(1 - t * x, -b) * _ppow(1 - t * y, -bp)

    pref = math.exp(math.lgamma(c) - math.lgamma(a) - math.lgamma(c - a))
    return pref * _quad(g, c - a - 1, a - 1, spec)


def f1_pde_residual(p: F1Params, x, y) -> tuple[complex, complex]:
    """Residuals of the two second-order equations satisfied by F1.

    x(1-x) z_xx + y(1-x) z_xy + [c-(a+b+1)x] z_x - b y z_y - a b z and the
    (y, b') mirror; both stay finite at x = y.
    """
    a, b, bp, c = p.a, p.b, p.bprime, p.c
    F = f1_series(p, *Jet.variables(2, 2, (x, y)))
    z = F.value
    zx, zy = F.partial((1, 0)), F.partial((0, 1))
    zxx, zxy, zyy = F.partial((2, 0)), F.partial((1, 1)), F.partial((0, 2))
    r1 = x * (1 - x) * zxx + y * (1 - x) * zxy + (c - (a + b + 1) * x) * zx - b * y * zy - a * b * z
    r2 = (
        y * (1 - y) * zyy
        + x * (1 - y) * zxy
        + (c - (a + bp + 1) * y) * zy
        - bp * x * zx
        - a * bp * z
    )
    return r1, r2


def picard_integral(x, y, spec: QuadratureSpec | None = None) -> complex:
    """int_0^1 dt / cbrt(t (t-1) (t-x) (t-y)), principal branch per factor.

    On (0, 1) the factor (t-1)^{-1/3} contributes a constant phase
    exp(-i pi/3) times (1-t)^{-1/3}; endpoint exponents are (-1/3, -1/3).
    """
    for v in (x, y):
        v = complex(v)
        if v.imag == 0 and 0 <= v.real <= 1:
            raise ValueError("branch point on the contour: modulus in [0, 1]")

    phase = cmath.exp(-1j * cmath.pi / 3)

    def g(t):
        return phase * _ppow(t - x, -1.0 / 3.0) * _ppow(t - y, -1.0 / 3.0)

    return _quad(g, -1.0 / 3.0, -1.0 / 3.0, spec)


def picard_f1_identity_rhs(x, y) -> complex:
    """-Gamma(2/3)^2/Gamma(4/3) x^{-1/3} y^{-1/3} F1(2/3; 1/3, 1/3; 4/3; 1/x, 1/y)."""
    pref = -gamma(Fraction(2, 3)) ** 2 / gamma(Fraction(4, 3))
    params = F1Params("2/3", "1/3", "1/3", "4/3")
    xr = complex(_ppow(complex(x), -1.0 / 3.0))
    yr = complex(_ppow(complex(y), -1.0 / 3.0))
    return pref * xr * yr * f1_series(params, 1 / x, 1 / y)


def k_integral(ki, kj, spec: QuadratureSpec | None = None) -> complex:
    """int_0^1 dx / cbrt(x^2 (1-x) (1-ki x) (1-kj x)); exponents (-1/3, -2/3)."""
    for v in (ki, kj):
        v = complex(v)
        if v.imag == 0 and v.real >= 1:
            raise ValueError("modulus on the cut [1, inf)")

    def g(t):
        return _ppow(1 - ki * t, -1.0 / 3.0) * _ppow(1 - kj * t, -1.0 / 3.0)

    return _quad(g, -1.0 / 3.0, -2.0 / 3.0, spec)


def k_integral_substituted(ki, kj, spec: QuadratureSpec | None = None) -> complex:
    """Same integral after x = t^3: 3 int_0^1 dt / cbrt((1-t^3)(1-ki t^3)(1-kj t^3))."""
    for v in (ki, kj):
        v = complex(v)
        if v.imag == 0 and v.real >= 1:
            raise ValueError("modulus on the cut [1, inf)")

    def g(t):
        t3 = t**3
        return (
            3.0
            * _ppow(1 + t + t * t, -1.0 / 3.0)
            * _ppow(1 - ki * t3, -1.0 / 3.0)
            * _ppow(1 - kj * t3, -1.0 / 3.0)
        )

    return _quad(g, -1.0 / 3.0, 0.0, spec)
