"""Appell F1 by double series and Euler integral, with the Picard and K integrals.

Two independent evaluation routes are kept deliberately separate.

The series route sums F1 by anti-diagonals.  Its terms factor as
T(m, n) = A[m+n] B[m] C[n], with A[d] = (a)_d/(c)_d and B, C the rows
(b)_m/m! x^m and (b')_n/n! y^n, so every anti-diagonal sum is one entry of
the convolution of B with C, times A.  For jet arguments it needs no
jet arithmetic inside the series: every partial of F1 is again an F1 with
shifted parameters (DLMF 16.13),

    d^i/dx^i d^j/dy^j F1(a; b, b'; c; x, y)
        = (a)_{i+j} (b)_i (b')_j / (c)_{i+j} * F1(a+i+j; b+i, b'+j; c+i+j; x, y),

so the Taylor jet at the base point comes from a batch of scalar sums, which
is then composed with the argument jets.  The series converges for
|x|, |y| < 1.  Two cases are refused with ValueError: points so close to the
unit circle that the series would need more than DIAGONAL_LIMIT
anti-diagonals, and sums whose terms cancel so far that roundoff exceeds the
tolerance.

The quadrature route integrates the Euler representation with Gauss-Jacobi
rules whose endpoint exponents match the integrand exactly; exponents above
MAX_EXPONENT, and a or c - a below MIN_EXPONENT_GAP, are refused with
ValueError.  A rule needs no linear algebra: its nodes are the roots of
P_n^(alpha, beta), found all at once by Aberth-Ehrlich iteration from the
phase of the polynomial's WKB approximation, each pass one three-term
recurrence in ratios P_k / P_{k-1}, and its weights come from P_n' at the
nodes, as Hale & Townsend (SIAM J. Sci. Comput. 35, 2013) recommend.  A
node is kept as its distance from the nearer endpoint, so the rules stay
exact where their nodes crowd into t = 0.  A rule whose iteration does not
converge is refused with ValueError; with n = 160 that is when both a and
c - a are below about 1e-5.  Rules are cached per exponent pair, and
exponents that are roundings of one small-denominator rational share its
rule.

Both routes take stacks: arrays of points, or jets with leading sample
axes (see `jets`).  The series builds its ratio rows once per call and sums
the points one after another, each with its own rows, budget, stop and
refusals; the quadrature evaluates its integrand on one (points, nodes)
array.  A single point is a stack of one, and a refused point of a stack is
named by its index in the error.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .jets import Jet, _base, _col, _refuse, _sample, _wrap, compose, monomials

# Most anti-diagonals a series may be budgeted; a point that needs more is a
# domain error.  The budget reaches it at max(|x|, |y|) of about 0.986-0.991,
# depending on the parameters and the jet order.
DIAGONAL_LIMIT = 6000

# Nodes of every Gauss-Jacobi rule, and the largest endpoint exponent a rule
# takes: at 1e14 the nodes lie within 1e-11 of t = 0, every one positive with
# a positive weight, and from about 1e16 on the iteration no longer resolves
# them and the rule is refused.
QUAD_NODES = 160
MAX_EXPONENT = 1e14

# The smallest a and c - a the Euler route takes.  As an endpoint exponent
# nears -1 the rule loses digits: on |x|, |y| <= 0.6 the worst error against
# mpmath is 3e-11 relative at 1e-6 and 5e-10 at 1e-7, and at 1e-13 the
# weights overflow.
MIN_EXPONENT_GAP = 1e-6

# Relative tolerance every F1 series is summed to: the stopping rule and the
# cancellation refusal of _shifted_sums both read it.
SERIES_TOL = 1e-12


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
        if min(self.a.real, self.c.real - self.a.real) < MIN_EXPONENT_GAP:
            raise ValueError(f"Euler integral needs a and c - a of at least {MIN_EXPONENT_GAP:g}")
        if max(self.a.real, self.c.real - self.a.real) - 1 > MAX_EXPONENT:
            raise ValueError(
                f"Euler integral needs endpoint exponents a - 1 and c - a - 1 of at most {MAX_EXPONENT:g}"
            )

    def __repr__(self):
        return f"F1Params(a={self.a}, b={self.b}, bprime={self.bprime}, c={self.c})"


def _jacobi_ratios(n: int, a1: float, b1: float, w: np.ndarray, m: int):
    """Ratios rho_k = P_k / P_{k-1}, k = 1..n, from one recurrence pass, and its e_k.

    The polynomials are P_k^(a1-1, b1-1)(w - 1) in the first m columns of w
    and their mirror P_k^(b1-1, a1-1)(w - 1) in the others, so that w is a
    node's distance u = 1 + x from its nearer endpoint and keeps its relative
    precision there.  In u, with g = a1 + b1 = alpha + beta + 2, s = 2k - 2 + g
    and d_k = 2k(k - 2 + g)(s - 2), each step is
        rho_k = (s-1)s/(2k(k-2+g)) u + (s-1) q_k / d_k - e_k / rho_{k-1},
        q_k = -4(k-1)(k-2) - 4 a1 (k-1) - 4 b1 (k-2) - 2 b1 g,
        e_k = 2(k-2+a1)(k-2+b1) s / d_k,
    from rho_1 = P_1 = g u/2 - b1: the three-term recurrence divided by
    P_{k-1}, with no term that cancels as alpha or beta nears -1 or grows
    large.  A ratio cannot overflow where P_k would (at alpha = 1e14), and an
    exact zero of P_{k-1} makes rho_k infinite, which the next step absorbs.
    The rows are built as arrays over k and each operation rounds as in the
    per-term loop (`tests/oracles.py`), so the values are that loop's bit for
    bit.
    """
    g = a1 + b1
    k = np.arange(2.0, n + 1.0)
    s = 2.0 * k - 2.0 + g
    d = 2.0 * k * (k - 2.0 + g) * (s - 2.0)
    rho = np.empty((n, w.size))
    np.multiply.outer((s - 1.0) * s / (2.0 * k * (k - 2.0 + g)), w, out=rho[1:])
    for cols, near, far in ((slice(None, m), b1, a1), (slice(m, None), a1, b1)):
        rho[0, cols] = g * w[cols] / 2.0 - near
        q = -4.0 * (k - 1.0) * (k - 2.0) - 4.0 * far * (k - 1.0) - 4.0 * near * (k - 2.0) - 2.0 * near * g
        rho[1:, cols] += ((s - 1.0) * q / d)[:, None]
    e = 2.0 * (k - 2.0 + a1) * (k - 2.0 + b1) * s / d
    prev = rho[0]
    for row, ek in zip(rho[1:], e.tolist()):
        row -= ek / prev
        prev = row
    return rho, e


def _rule_start(n: int, alpha: float, beta: float):
    """Starting nodes of the rule, as distances w from the nearer endpoint in
    u = 1 + x, and the count m of nodes nearer u = 0.

    With Langer's modification, the Liouville-Green phase of P_n^(alpha,
    beta) grows at the rate N sqrt((u - p)(q - u)) / (u (2 - u)), with
    N = n + (alpha + beta + 1)/2, between turning points p and q whose product
    is beta^2 / N^2 (the equilibrium density of Moak, Saff & Varga, J. Approx.
    Theory 25 (1979), with n + 1/2 for n).  On u = p + (q - p) sin^2(phi/2)
    it is
        Phi(phi) = N phi - |beta| atan(sqrt(q/p) tan(phi/2))
                   - |alpha| atan(sqrt((2-q)/(2-p)) tan(phi/2)),
    and node j sits where Phi = (j - 1/4 + min(beta, 0)) pi: McMahon's
    phase for the Bessel zeros at a hard edge, Airy's at a soft one.
    p and 2 - q are written as 4 e^2 / (...) to spare them the cancellation
    of the quadratic formula.
    """
    big_n = n + (alpha + beta + 1.0) / 2.0
    root = math.sqrt((2 * n + 1.0) * (2 * n + 2 * alpha + 1.0)) * math.sqrt(
        (2 * n + 2 * beta + 1.0) * (2 * n + 2 * alpha + 2 * beta + 1.0)
    )
    lo, hi = (
        4.0 * e * e / ((2 * n + e + 1.0) * (2 * n + 2 * f + e + 1.0) + e * e + root)
        for e, f in ((beta, alpha), (alpha, beta))
    )
    phi = np.linspace(0.0, math.pi, 4 * n + 1)
    cos, sin = np.cos(phi / 2.0), np.sin(phi / 2.0)
    phase = (
        big_n * phi
        - abs(beta) * np.arctan2(math.sqrt(2.0 - hi) * sin, math.sqrt(lo) * cos)
        - abs(alpha) * np.arctan2(math.sqrt(hi) * sin, math.sqrt(2.0 - lo) * cos)
    )
    half = np.interp(math.pi * (np.arange(1.0, n + 1.0) - 0.25 + min(beta, 0.0)), phase, phi) / 2.0
    width = 2.0 - lo - hi
    u, v = lo + width * np.sin(half) ** 2, hi + width * np.cos(half) ** 2
    m = int(np.count_nonzero(u < 1.0))
    return np.concatenate([u[:m], v[m:]]), m


# A rule has converged once a Newton step moves no node by more than
# _RULE_TOL of its distance from its nearer endpoint: three passes for the
# rules a report builds, four at the exponent bounds.
_RULE_TOL = 1e-8
_RULE_STEPS = 20


@lru_cache(maxsize=64)
def _jacobi_rule(n: int, alpha: float, beta: float):
    """Gauss-Jacobi nodes on (0,1) and weights for t^beta (1-t)^alpha.

    The nodes are the roots of P_n^(alpha, beta), found by Aberth-Ehrlich
    iteration (Aberth, Math. Comp. 27 (1973)) on all of them at once from
    `_rule_start`, each pass one `_jacobi_ratios` recurrence.  A node is
    kept as its distance from the nearer endpoint, so one near t = 0 or
    t = 1 keeps its relative precision.  The pass that finds every step
    below _RULE_TOL also gives P_n' there: the weights are proportional to
    1/((1-x^2) P_n'(x)^2) (Hale & Townsend, SIAM J. Sci. Comput. 35
    (2013)), P_n' taken one Newton step on to first order in that step and
    scaled to sum to B(alpha+1, beta+1), the integral of the weight over
    (0, 1).  A rule that has not converged in _RULE_STEPS passes, or whose
    weights come out non-finite or negative or nodes out of order, is
    refused with ValueError.
    """
    a1, b1 = alpha + 1.0, beta + 1.0
    g = a1 + b1
    s = 2.0 * n - 2.0 + g
    w, m = _rule_start(n, alpha, beta)
    lower = np.arange(n) < m
    near, far = np.where(lower, b1, a1), np.where(lower, a1, b1)
    # non-finite values are refused below, not warned about per pass
    with np.errstate(all="ignore"):
        for _ in range(_RULE_STEPS):
            rho, e = _jacobi_ratios(n, a1, b1, w, m)
            # P_n / P_n' from P_n / P_{n-1} and the derivative identity
            # s (2-u) u P_n' = n (2 alpha + 2n - s u) P_n + 2 (n+alpha)(n+beta) P_{n-1}
            newton = s * (2.0 - w) * w / (
                n * (2.0 * far + 2.0 * n - 2.0 - s * w) + 2.0 * (n - 1.0 + a1) * (n - 1.0 + b1) / rho[-1]
            )
            if np.all(np.abs(newton) <= _RULE_TOL * w):
                break
            del rho
            # Aberth: each Newton step repelled by the other nodes, in u
            y = np.where(lower, w, -w)
            gaps = np.subtract.outer(y, y)
            gaps[:m, m:] -= 2.0
            gaps[m:, :m] += 2.0
            np.fill_diagonal(gaps, np.inf)
            pull = np.reciprocal(gaps, out=gaps).sum(1)
            del gaps
            pull[m:] *= -1.0
            w = w - newton / (1.0 - newton * pull)
        else:
            raise _no_rule(alpha, beta, f"the nodes did not converge in {_RULE_STEPS} passes")
        # P_{n-1} = rho_1 ... rho_{n-1} as a product of mantissas times a power
        # of two; an exact zero rho_j makes rho_{j+1} infinite, and their
        # product is P_{j+1} / P_{j-1} = -e_{j+1}
        head = rho[:-1]
        j, i = np.nonzero(head[:-1] == 0.0)
        head[j, i] = 1.0
        head[j + 1, i] = -e[j]
        expo = np.empty(head.shape, dtype=np.intc)
        np.frexp(head, out=(head, expo))
        dp = np.multiply.reduce(head, axis=0) * (
            n * (2.0 * far + 2.0 * n - 2.0 - s * w) * rho[-1] + 2.0 * (n - 1.0 + a1) * (n - 1.0 + b1)
        ) / (s * (2.0 - w) * w)
        # P_n' one Newton step on, from P_n'' / P_n' of Jacobi's equation
        dp *= 1.0 + newton * (2.0 * near - g * w + n * (n + g - 1.0) * newton) / ((2.0 - w) * w)
        w = w - newton
        # P_n' can pass the float range at large alpha: square mantissas only,
        # and shift the binary exponents so the largest weight is of order one
        mant, shift = np.frexp(dp)
        shift += expo.sum(axis=0)
        weight = np.ldexp(1.0 / ((2.0 - w) * w * mant * mant), 2 * (shift.min() - shift))
        t = np.where(lower, w / 2.0, 1.0 - w / 2.0)
        weight *= math.exp(math.lgamma(a1) + math.lgamma(b1) - math.lgamma(g)) / weight.sum()
    # a node within an ulp of t = 1 rounds to 1, and a weight past the float
    # range of its largest rounds to 0: both cost the integral nothing
    if not (np.all(weight >= 0.0) and np.all(weight < np.inf) and np.all(np.diff(t) >= 0.0)):
        raise _no_rule(alpha, beta, "its weights came out non-finite or its nodes out of order")
    return t, weight


def _no_rule(alpha: float, beta: float, why: str) -> ValueError:
    return ValueError(f"no Gauss-Jacobi rule for the exponents ({alpha:g}, {beta:g}): {why}")


# An endpoint exponent within _SNAP_ULPS units in the last place of a
# rational with denominator at most _SNAP_DENOMINATOR is taken as that
# rational's float, so spellings such as c - a - 1 and -1/3 share one rule.
_SNAP_DENOMINATOR = 1000
_SNAP_ULPS = 4


@lru_cache(maxsize=256)
def _snap(e: float) -> float:
    """e, or the nearest small-denominator rational when e is a rounding of it."""
    r = float(Fraction(e).limit_denominator(_SNAP_DENOMINATOR))
    return r if abs(r - e) <= _SNAP_ULPS * math.ulp(e) else e


def _quad(g, alpha: float, beta: float):
    """Integral over (0,1) of t^beta (1-t)^alpha g(t).

    g may return an array (..., nodes) for a stack of integrands, one row
    per sample; the result is then an array over the samples.
    """
    t, w = _jacobi_rule(QUAD_NODES, _snap(float(alpha)), _snap(float(beta)))
    return np.sum(w * g(t), axis=-1)


def _ppow(base, p):
    """Principal branch base**p for array or scalar complex base."""
    return np.exp(p * np.log(np.asarray(base, dtype=np.complex128)))


def _diagonal_budget(r: float, growth: float, tol: float, sample: str = "") -> int:
    """Anti-diagonals the series gets to settle in, at radius r = max(|x|, |y|).

    Diagonal d of the series is of order d**growth * r**d.  The budget is
    twice the d where that bound falls to tol, plus a margin for its
    constant; a budget above DIAGONAL_LIMIT is refused up front, and so is a
    growth exponent so large that the estimate itself overflows.  sample
    names the point of a stack in these errors.
    """
    d = 0.0
    if r > 0:
        for _ in range(8):  # fixed point of d = (log tol - growth log d) / log r
            d = max((math.log(tol) - growth * math.log(max(d, 1.0))) / math.log(r), 0.0)
    _refuse(not math.isfinite(d), _OVERFLOW + sample)
    budget = 2 * math.ceil(d) + 16
    if budget > DIAGONAL_LIMIT:
        raise ValueError(
            f"series would need about {budget} anti-diagonals at max(|x|, |y|) = "
            f"{r:.6g}, more than {DIAGONAL_LIMIT}: too close to the unit circle "
            f"for these parameters{sample}"
        )
    return budget


def _points(x, y):
    """The stack shape of x and y, and their points as pairs of Python complex numbers."""
    # kept fork: broadcasting single points as arrays made f1_series 3.4% slower
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=np.complex128), np.asarray(y, dtype=np.complex128))
        return x.shape, list(zip(x.ravel().tolist(), y.ravel().tolist()))
    return (), [(complex(x), complex(y))]


def _convolved(row_x: np.ndarray, row_y: np.ndarray, i, j, n: int) -> np.ndarray:
    """The first n entries of conv(row_x[i], row_y[j]) for every shift (i, j)."""
    return np.array([np.convolve(row_x[a, :n], row_y[b, :n])[:n] for a, b in zip(i, j)])


_OVERFLOW = "series terms overflow the float range for these parameters"


# overflowing or NaN terms are refused at the exits, not warned about per row
@np.errstate(all="ignore")
def _shifted_sums(p: F1Params, shifts, x, y, tol: float) -> np.ndarray:
    """F1(a+i+j; b+i, b'+j; c+i+j; x, y) for every shift (i, j), in one pass.

    x and y are numbers, or arrays over a stack of points; the sums have
    shape (..., len(shifts)), one row per point.  Each term factors as
    T(m, n) = A[m+n] B[m] C[n], with r = max(|x|, |y|),
        A[d] = (a+i+j)_d / (c+i+j)_d r^d,
        B[m] = (b+i)_m / m! (x/r)^m,    C[n] = (b'+j)_n / n! (y/r)^n,
    running products of ratio rows, one row each for every value a shift
    takes (A's row i + j, B's row i and C's row j).  B and C grow at most
    polynomially, the decay is all in A, and the sum of anti-diagonal d is
    A[d] * conv(B, C)[d]: one convolution per shift gives every diagonal.

    Summation stops once three consecutive anti-diagonals each add at most
    tol * (1 - r) relative to every shift's partial sum: the geometric tail
    after such a diagonal is then about tol relative.  Sums settle near half
    the budget, so a point's convolution first runs to its budget // 2 and
    widens by a quarter of its budget while it has not settled.  Terms that
    cancel to below tol relative are refused (see _conditioned);
    sqrt(2) |A[d]| conv(|B|, |C|)[d] bounds each diagonal's sum of
    |Re T| + |Im T|.

    The points of a stack are summed one after another, each with rows to
    its own budget only; the ratio rows, which do not depend on the point,
    are built once, to the largest budget.  A refused point of a stack
    raises its error with the point's index appended.  Every budget is taken
    before any sum, so the error names the lowest-index point whose budget
    is refused, else the lowest-index point that does not settle, else the
    lowest-index point whose sums _conditioned refuses.
    """
    shape, points = _points(x, y)
    i, j = (list(c) for c in zip(*shifts))
    ij = [a + b for a, b in zip(i, j)]
    growth = max(0.0, (p.a + p.b + p.bprime - p.c).real - 1.0 + max(ij))
    # r and every budget in Python arithmetic (numpy's complex abs and
    # division round differently), before any point is summed
    radii = [max(abs(xs), abs(ys)) for xs, ys in points]
    budget = [_diagonal_budget(r, growth, tol, _sample(shape, s)) for s, r in enumerate(radii)]
    # ratio rows (a+e+k)/(c+e+k), (b+e+k)/(k+1) and (b'+e+k)/(k+1) for every
    # shift value e = 0 .. max(i + j); a point's running products of them
    # times (r, x/r, y/r) are the rows of A, B and C
    k = np.arange(max(budget))
    e = np.arange(max(ij) + 1)[:, None]
    ratios = np.array([(p.a + e + k) / (p.c + e + k), (p.b + e + k) / (k + 1), (p.bprime + e + k) / (k + 1)])

    total = np.empty((len(points), len(ij)), dtype=np.complex128)
    abs_total = np.empty(total.shape)
    for s, ((xs, ys), r, b) in enumerate(zip(points, radii, budget)):
        z = np.array([r, xs / (r or 1.0), ys / (r or 1.0)])[:, None, None]
        products = np.ones((3, len(e), b + 1), dtype=np.complex128)
        (ratios[..., :b] * z).cumprod(axis=-1, out=products[..., 1:])
        diag, row_x, row_y = products[0].take(ij, 0), products[1], products[2]
        quiet_tol = tol * (1.0 - r)
        # sum to diagonal b // 2, then b // 2 + b // 4, ... up to the budget
        n = b // 2
        while True:
            m = min(n, b) + 1
            terms = diag[:, :m] * _convolved(row_x, row_y, i, j, m)
            sums = terms.cumsum(axis=-1)
            quiet = (np.abs(terms) <= quiet_tol * np.abs(sums)).all(axis=0)
            quiet[0] = False  # diagonal 0 starts the sum; it does not add to it
            ends = (quiet[:-2] & quiet[1:-1] & quiet[2:]).nonzero()[0]
            if ends.size:
                break
            if m > b:
                where = _sample(shape, s)
                _refuse(not np.isfinite(sums[:, -1]).all(), _OVERFLOW + where)
                raise ValueError(f"series did not settle within {b} anti-diagonals{where}")
            n += b // 4
        stop = int(ends[0]) + 2  # the last of the three quiet diagonals
        total[s] = sums[:, stop]
        upto = stop + 1
        abs_conv = _convolved(np.abs(row_x[:, :upto]), np.abs(row_y[:, :upto]), i, j, upto)
        abs_total[s] = math.sqrt(2.0) * (np.abs(diag[:, :upto]) * abs_conv).sum(axis=1)
    rows = shape + total.shape[-1:]
    return _conditioned(total.reshape(rows), abs_total.reshape(rows), tol)


def _conditioned(total: np.ndarray, abs_total: np.ndarray, tol: float) -> np.ndarray:
    """total, unless its terms cancel so far that roundoff exceeds tol relative.

    total and abs_total have shape (..., shifts), a row per point of a
    stack.  abs_total bounds sum(|Re T| + |Im T|) over each shift's terms.
    Real and imaginary parts are summed separately, so roundoff in the sum
    is of order eps * abs_total; a sum with eps * abs_total > tol * |total|
    (at tol = 1e-12, terms about 4,500 times larger than the sum) has no
    digits left to trust and is refused with ValueError, and so is a sum
    whose terms overflow; a refused point of a stack is named.
    """
    _refuse(~np.isfinite(total + abs_total).all(axis=-1), _OVERFLOW)
    lost = np.finfo(float).eps * abs_total > tol * np.abs(total)

    def message(k):
        # the worst ratio of absolute sum to sum over the refused shifts of point k
        a, t, bad = (v.reshape(-1, lost.shape[-1])[k] for v in (abs_total, total, lost))
        kappa = max(float(v / abs(w)) if w else math.inf for v, w in zip(a[bad], t[bad]))
        return (
            f"series terms cancel: their absolute sum is {kappa:.3g} times the sum, "
            f"so roundoff exceeds the tolerance {tol:g}"
        )

    _refuse(lost.any(axis=-1), message)
    return total


def _rising(z: complex, n: int) -> complex:
    out = 1.0 + 0.0j
    for k in range(n):
        out *= z + k
    return out


def f1_series(p: F1Params, x, y):
    """Double series sum_{m,n} (a)_{m+n} (b)_m (b')_n / ((c)_{m+n} m! n!) x^m y^n.

    x, y may be complex numbers or jets (one of each is fine) with
    |constant term| < 1; in the jet case the result is a jet carrying all
    partials up to the jets' order.  Those come from the shifted-parameter
    sums F1(a+i+j; b+i, b'+j; c+i+j) at the base point, all taken in one
    pass, which form the Taylor jet of F1 there; it is composed with (x, y).
    Arrays of points, or stacked jets, give F1 at every point of the stack
    in one pass.  Raises ValueError outside |x|, |y| < 1, where the series
    would need more than DIAGONAL_LIMIT anti-diagonals, and where its terms
    cancel so far that roundoff exceeds SERIES_TOL.  For a stack the error
    names the lowest-index point refused by the first of these tests to
    refuse one: the budget, then settling within it, then cancellation.
    """
    p.require_series_ok()
    proto = x if isinstance(x, Jet) else y if isinstance(y, Jet) else None
    if proto is not None:
        x, y = (
            v if isinstance(v, Jet) else Jet.constant(proto.dim, proto.order, v) for v in (x, y)
        )
    x0, y0 = _base(x), _base(y)
    inside = (abs(x0) < 1) & (abs(y0) < 1)  # False at NaN too
    _refuse(~np.asarray(inside), "series needs |x|, |y| < 1 at the base point")
    if proto is None:
        return _shifted_sums(p, ((0, 0),), x0, y0, SERIES_TOL)[..., 0][()]
    shifts = monomials(2, proto.order)
    factors = np.array([
        _rising(p.a, i + j) * _rising(p.b, i) * _rising(p.bprime, j)
        / (_rising(p.c, i + j) * math.factorial(i) * math.factorial(j))
        for i, j in shifts
    ])
    taylor = _shifted_sums(p, shifts, x0, y0, SERIES_TOL) * factors
    return compose(_wrap(2, proto.order, taylor), [x, y])


# (1 - v t)^(-p) branches at t = 1/v, and the Gauss-Jacobi rule on [0, 1]
# loses digits as that point nears the interval: its error falls like
# rho^(-2N) for the Bernstein ellipse |t| + |t - 1| = (rho + 1/rho) / 2
# through t = 1/v.  Against mpmath.appellf1 (a = b = b' = 1/3, c = 1) the
# worst relative error was 1e-13 at rho = 1.083, 2e-14 from rho = 1.096 on,
# and 3e-11 to 2e-5 at rho <= 1.064; moduli inside rho = 1.1 are refused.
_CUT_ELLIPSE = (1.1 + 1 / 1.1) / 2


def _near_unit_interval(num, den=1.0):
    """Whether num / den lies inside _CUT_ELLIPSE around [0, 1].

    |t| + |t - 1| < E with t = num / den, multiplied through by |den|:
    |num| + |num - den| < E |den|, which holds no division.
    """
    return abs(num) + abs(num - den) < _CUT_ELLIPSE * abs(den)


def _require_off_cut(*moduli):
    """Refuse a modulus v on the cut [1, inf) or with 1/v inside _CUT_ELLIPSE.

    On the cut (1 - v t)^(-p) branches inside (0, 1); near it the rule is
    imprecise.  Moduli may be arrays over a stack, whose first refused
    point is named.
    """
    for v in map(_base, moduli):
        on_cut = (v.imag == 0) & (v.real >= 1)
        near = _near_unit_interval(1.0, v)
        _refuse(on_cut, "modulus on the cut [1, inf)")
        _refuse(near, "modulus too near the cut [1, inf) for the quadrature rule")


def f1_euler(p: F1Params, x, y):
    """Euler integral Gamma(c)/(Gamma(a)Gamma(c-a)) int_0^1 t^{a-1}(1-t)^{c-a-1}(1-tx)^{-b}(1-ty)^{-b'} dt.

    The prefactor is taken through lgamma: c > a > 0 are real, and Gamma(c)
    alone overflows from c of about 171.6.  Arrays of points x, y give the
    integral at every point, the integrand evaluated on one (points, nodes)
    array.
    """
    p.require_euler_ok()
    _require_off_cut(x, y)
    a, b, bp, c = p.a.real, p.b, p.bprime, p.c.real
    x, y = _col(x), _col(y)  # a stack's points before the nodes

    def g(t):
        return _ppow(1 - t * x, -b) * _ppow(1 - t * y, -bp)

    pref = math.exp(math.lgamma(c) - math.lgamma(a) - math.lgamma(c - a))
    # an integrand past the float range leaves a non-finite value for the
    # caller to refuse by name, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        return pref * _quad(g, c - a - 1, a - 1)


def f1_pde_residual(p: F1Params, x, y) -> tuple[complex, complex]:
    """Residuals of the two second-order equations satisfied by F1.

    x(1-x) z_xx + y(1-x) z_xy + [c-(a+b+1)x] z_x - b y z_y - a b z and the
    (y, b') mirror; both stay finite at x = y.  Arrays of points give the
    residuals at every point, from one stacked series.
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


def picard_integral(x, y) -> complex:
    """int_0^1 dt / cbrt(t (t-1) (t-x) (t-y)), principal branch per factor.

    On (0, 1) the factor (t-1)^{-1/3} contributes a constant phase
    exp(-i pi/3) times (1-t)^{-1/3}; endpoint exponents are (-1/3, -1/3).
    (t - v)^{-1/3} branches at t = v, so a modulus on [0, 1] is refused, and
    so is one inside _CUT_ELLIPSE around it, where the rule is imprecise.
    Arrays of moduli give the integral for every pair of a stack, whose
    first refused point is named.
    """
    for v in map(_base, (x, y)):
        on_contour = (v.imag == 0) & (v.real >= 0) & (v.real <= 1)
        near = _near_unit_interval(v)
        _refuse(on_contour, "branch point on the contour: modulus in [0, 1]")
        _refuse(near, "modulus too near the contour [0, 1] for the quadrature rule")
    x, y = _col(x), _col(y)
    phase = cmath.exp(-1j * cmath.pi / 3)

    def g(t):
        # not phase * ...: numpy reuses a temporary of 256 KiB or more in place, swapping
        # the factors, and its complex product rounds them differently in that order
        return np.multiply(phase, _ppow(t - x, -1.0 / 3.0)) * _ppow(t - y, -1.0 / 3.0)

    return _quad(g, -1.0 / 3.0, -1.0 / 3.0)


def picard_f1_identity_rhs(x, y) -> complex:
    """-Gamma(2/3)^2/Gamma(4/3) x^{-1/3} y^{-1/3} F1(2/3; 1/3, 1/3; 4/3; 1/x, 1/y).

    It needs |x|, |y| > 1, where the series at (1/x, 1/y) converges.  Arrays
    of moduli give the value for every pair of a stack, from one stacked
    series.
    """
    pref = -math.gamma(2 / 3) ** 2 / math.gamma(4 / 3)
    params = F1Params("2/3", "1/3", "1/3", "4/3")
    x, y = _base(x), _base(y)
    outside = (abs(x) > 1) & (abs(y) > 1)  # False at NaN too
    _refuse(~np.asarray(outside), "the F1 closed form needs |x|, |y| > 1")
    return pref * _ppow(x, -1.0 / 3.0) * _ppow(y, -1.0 / 3.0) * f1_series(params, 1 / x, 1 / y)


def k_integral(ki, kj):
    """int_0^1 dx / cbrt(x^2 (1-x) (1-ki x) (1-kj x)); exponents (-1/3, -2/3).

    Arrays of moduli give the integral for every pair of a stack.
    """
    _require_off_cut(ki, kj)
    ki, kj = _col(ki), _col(kj)

    def g(t):
        return _ppow(1 - ki * t, -1.0 / 3.0) * _ppow(1 - kj * t, -1.0 / 3.0)

    return _quad(g, -1.0 / 3.0, -2.0 / 3.0)


def k_integral_substituted(ki, kj) -> complex:
    """Same integral after x = t^3: 3 int_0^1 dt / cbrt((1-t^3)(1-ki t^3)(1-kj t^3))."""
    _require_off_cut(ki, kj)

    def g(t):
        t3 = t**3
        return (
            3.0
            * _ppow(1 + t + t * t, -1.0 / 3.0)
            * _ppow(1 - ki * t3, -1.0 / 3.0)
            * _ppow(1 - kj * t3, -1.0 / 3.0)
        )

    return _quad(g, -1.0 / 3.0, 0.0)
