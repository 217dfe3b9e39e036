"""Order-2 truncated Taylor arithmetic in complex coordinates and their conjugates.

A Wirtinger jet stores the value and all partial derivatives through total
order 2 of a smooth function with respect to the 2n formally independent
variables (z^1..z^n, zbar^1..zbar^n).  The coefficient attached to the
multi-index (a_1..a_n, b_1..b_n) is

    1/(a! b!) * d^{|a|+|b|} f / (dz^a dzbar^b)

evaluated at the base point, so jets multiply like truncated polynomials.
Truncation is graded: the degree-k coefficient of any product, quotient or
composition depends only on input coefficients of degree <= k, which is what
makes it safe to keep differentiating results whose top coefficients are no
longer meaningful.  Each jet carries the order through which its coefficients
are trustworthy (``order``); differentiation lowers it by one and zeroes the
slots above.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

JET_ORDER = 2

# Per-coefficient tolerance for jet equality, scaled by the dominant
# coefficient magnitude (never below an absolute scale of 1).
EQ_TOL = 1e-12


@lru_cache(maxsize=None)
def multi_indices(n_vars: int) -> tuple[tuple[int, ...], ...]:
    """Canonical ordering of the exponent tuples with total degree <= 2.

    Sorted by total degree, then lexicographically, so index 0 is always the
    constant term and indices 1..2n are the first-order slots.
    """
    idx = [
        m
        for m in itertools.product(range(JET_ORDER + 1), repeat=2 * n_vars)
        if sum(m) <= JET_ORDER
    ]
    idx.sort(key=lambda m: (sum(m), m))
    return tuple(idx)


@lru_cache(maxsize=None)
def _positions(n_vars: int) -> dict[tuple[int, ...], int]:
    return {m: i for i, m in enumerate(multi_indices(n_vars))}


@lru_cache(maxsize=None)
def _degrees(n_vars: int) -> np.ndarray:
    return np.array([sum(m) for m in multi_indices(n_vars)])


@lru_cache(maxsize=None)
def _mul_table(n_vars: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index triples (ia, ib, iout) with coeff[iout] += a[ia]*b[ib]."""
    idx = multi_indices(n_vars)
    pos = _positions(n_vars)
    ia, ib, iout = [], [], []
    for i, mi in enumerate(idx):
        di = sum(mi)
        for j, mj in enumerate(idx):
            if di + sum(mj) <= JET_ORDER:
                ia.append(i)
                ib.append(j)
                iout.append(pos[tuple(x + y for x, y in zip(mi, mj))])
    return np.array(ia), np.array(ib), np.array(iout)


@lru_cache(maxsize=None)
def _conj_perm(n_vars: int) -> np.ndarray:
    """Permutation sending the (a, b) slot to the (b, a) slot."""
    pos = _positions(n_vars)
    return np.array(
        [pos[m[n_vars:] + m[:n_vars]] for m in multi_indices(n_vars)]
    )


@lru_cache(maxsize=None)
def _deriv_table(n_vars: int, slot: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(src, dst, factor) triples for d/d(variable at `slot`)."""
    idx = multi_indices(n_vars)
    pos = _positions(n_vars)
    src, dst, fac = [], [], []
    for t, mt in enumerate(idx):
        if sum(mt) <= JET_ORDER - 1:
            shifted = list(mt)
            shifted[slot] += 1
            src.append(pos[tuple(shifted)])
            dst.append(t)
            fac.append(mt[slot] + 1)
    return np.array(src), np.array(dst), np.array(fac, dtype=np.float64)


@lru_cache(maxsize=None)
def _partial_tables(n_vars: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slots of the first and second partials, and the factorials they lost."""
    pos = _positions(n_vars)
    unit = np.eye(2 * n_vars, dtype=int)
    grad = np.array([pos[tuple(u)] for u in unit])
    hess = np.array([[pos[tuple(u + v)] for v in unit] for u in unit])
    return grad, hess, 1.0 + np.eye(2 * n_vars)


class WJet:
    """Truncated Wirtinger-Taylor polynomial at a point.

    Parameters
    ----------
    n_vars : int
        Number of complex variables.
    coeffs : array_like
        Coefficient vector in the `multi_indices(n_vars)` ordering.
    order : int
        Degree through which the coefficients are meaningful (0..2).
        Slots above `order` are zeroed on construction.
    """

    __slots__ = ("n_vars", "coeffs", "order")

    def __init__(self, n_vars: int, coeffs, order: int = JET_ORDER):
        self.n_vars = n_vars
        c = np.array(coeffs, dtype=np.complex128)
        if c.shape != (len(multi_indices(n_vars)),):
            raise ValueError(
                f"expected {len(multi_indices(n_vars))} coefficients for "
                f"n_vars={n_vars}, got shape {c.shape}"
            )
        if order < JET_ORDER:
            c[_degrees(n_vars) > order] = 0.0
        self.n_vars = n_vars
        self.coeffs = c
        self.order = order

    # -- accessors ---------------------------------------------------------

    @property
    def value(self) -> complex:
        return complex(self.coeffs[0])

    def coeff(self, multi: Sequence[int]) -> complex:
        """Coefficient for exponent tuple (a_1..a_n, b_1..b_n)."""
        return complex(self.coeffs[_positions(self.n_vars)[tuple(multi)]])

    def deriv_value(self, holo: Sequence[int], anti: Sequence[int]) -> complex:
        """Actual mixed partial d^{|a|+|b|} f / dz^a dzbar^b (factorials restored)."""
        m = tuple(holo) + tuple(anti)
        scale = 1.0
        for e in m:
            scale *= math.factorial(e)
        return self.coeff(m) * scale

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def __repr__(self) -> str:
        return f"WJet(n_vars={self.n_vars}, order={self.order}, value={self.value:.6g})"

    # -- ring operations ---------------------------------------------------

    def _lift(self, other) -> "WJet":
        if isinstance(other, WJet):
            if other.n_vars != self.n_vars:
                raise ValueError("jets have different n_vars")
            return other
        return jet_const(other, self.n_vars)

    def __add__(self, other):
        o = self._lift(other)
        return WJet(self.n_vars, self.coeffs + o.coeffs, min(self.order, o.order))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return WJet(self.n_vars, self.coeffs - o.coeffs, min(self.order, o.order))

    def __rsub__(self, other):
        o = self._lift(other)
        return WJet(self.n_vars, o.coeffs - self.coeffs, min(self.order, o.order))

    def __neg__(self):
        return WJet(self.n_vars, -self.coeffs, self.order)

    def __mul__(self, other):
        if not isinstance(other, WJet):
            return WJet(self.n_vars, self.coeffs * other, self.order)
        return mul(self, other)

    def __rmul__(self, other):
        return WJet(self.n_vars, self.coeffs * other, self.order)

    def __truediv__(self, other):
        if not isinstance(other, WJet):
            return WJet(self.n_vars, self.coeffs / other, self.order)
        return div(self, other)

    def __rtruediv__(self, other):
        return div(jet_const(other, self.n_vars), self)

    def __pow__(self, p):
        return pow_real(self, p)

    def conj(self) -> "WJet":
        return conj(self)

    def d(self, i: int) -> "WJet":
        return d_dz(self, i)

    def dbar(self, i: int) -> "WJet":
        return d_dzbar(self, i)


@dataclass(frozen=True)
class Point:
    """Chart coordinates of an evaluation point."""

    coords: tuple[complex, ...]

    @property
    def n(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i: int) -> complex:
        return self.coords[i]

    def __len__(self) -> int:
        return len(self.coords)


# -- constructors ------------------------------------------------------------


def jet_const(value: complex, n_vars: int) -> WJet:
    c = np.zeros(len(multi_indices(n_vars)), dtype=np.complex128)
    c[0] = value
    return WJet(n_vars, c)


def _seed(slot: int, value: complex, n_vars: int) -> WJet:
    c = np.zeros(len(multi_indices(n_vars)), dtype=np.complex128)
    c[0] = value
    unit = tuple(1 if k == slot else 0 for k in range(2 * n_vars))
    c[_positions(n_vars)[unit]] = 1.0
    return WJet(n_vars, c)


def jet_var(i: int, value: complex, n_vars: int) -> WJet:
    """Jet of the coordinate function z^i at a point where z^i = value (i is 1-based)."""
    if not 1 <= i <= n_vars:
        raise ValueError(f"variable index {i} out of range 1..{n_vars}")
    return _seed(i - 1, value, n_vars)


def jet_conj_var(i: int, value: complex, n_vars: int) -> WJet:
    """Jet of zbar^i at a point where zbar^i = value (i is 1-based)."""
    if not 1 <= i <= n_vars:
        raise ValueError(f"variable index {i} out of range 1..{n_vars}")
    return _seed(n_vars + i - 1, value, n_vars)


# -- arithmetic ---------------------------------------------------------------


def add(a: WJet, b: WJet) -> WJet:
    return a + b


def neg(a: WJet) -> WJet:
    return -a


def mul(a: WJet, b: WJet) -> WJet:
    if a.n_vars != b.n_vars:
        raise ValueError("jets have different n_vars")
    ia, ib, iout = _mul_table(a.n_vars)
    out = np.zeros_like(a.coeffs)
    np.add.at(out, iout, a.coeffs[ia] * b.coeffs[ib])
    return WJet(a.n_vars, out, min(a.order, b.order))


def div(a: WJet, b: WJet) -> WJet:
    """Truncated quotient a/b via series inversion of b."""
    if a.n_vars != b.n_vars:
        raise ValueError("jets have different n_vars")
    c = b.value
    if c == 0:
        raise ZeroDivisionError("division by jet with zero constant term")
    # b = c (1 + e) with e nilpotent to order 2, so 1/b = (1 - e + e^2)/c.
    e = WJet(b.n_vars, b.coeffs / c, b.order)
    e.coeffs[0] = 0.0
    e2 = mul(e, e)
    inv = WJet(b.n_vars, (-e.coeffs + e2.coeffs) / c, b.order)
    inv.coeffs[0] += 1.0 / c
    return mul(a, inv)


def conj(a: WJet) -> WJet:
    """Complex conjugate: swaps the z and zbar exponents and conjugates values."""
    return WJet(a.n_vars, np.conj(a.coeffs[_conj_perm(a.n_vars)]), a.order)


def _compose(a: WJet, f0: complex, f1: complex, f2: complex) -> WJet:
    """f(a) through order 2: f0 + f1*(a - a0) + (f2/2)*(a - a0)^2."""
    e = WJet(a.n_vars, a.coeffs, a.order)
    e.coeffs[0] = 0.0
    e2 = mul(e, e)
    out = f1 * e.coeffs + 0.5 * f2 * e2.coeffs
    out[0] += f0
    return WJet(a.n_vars, out, a.order)


def _derivatives(name: str, c: complex, fn: Callable[[], tuple]) -> tuple:
    """fn() = (f, f′, f″) at c, or ValueError when one is not a finite number
    (an overflow, or a NaN such as Python's inf**−2), so that no jet carries
    inf or NaN into later results."""
    try:
        f = fn()
    except (OverflowError, ZeroDivisionError):
        f = (math.nan,)
    if not all(cmath.isfinite(x) for x in f):
        raise ValueError(f"{name} is outside the floating-point range at {c:.6g}")
    return f


def exp(a: WJet) -> WJet:
    c = a.value
    (f0,) = _derivatives("exp", c, lambda: (cmath.exp(c),))
    return _compose(a, f0, f0, f0)


def log(a: WJet) -> WJet:
    c = a.value
    if c == 0:
        raise ValueError("log of jet whose constant term is zero")
    f = _derivatives("log", c, lambda: (np.log(complex(c)), 1.0 / c, -1.0 / (c * c)))
    return _compose(a, *f)


def pow_real(a: WJet, p: float) -> WJet:
    c = a.value
    if c == 0:
        raise ValueError("pow of jet whose constant term is zero")
    c = complex(c)
    f = _derivatives(
        f"power {p:.6g}", c, lambda: (c**p, p * c ** (p - 1), p * (p - 1) * c ** (p - 2))
    )
    return _compose(a, *f)


def d_dz(a: WJet, i: int) -> WJet:
    """Jet of df/dz^i (i is 1-based); meaningful through order a.order - 1."""
    if not 1 <= i <= a.n_vars:
        raise ValueError(f"variable index {i} out of range 1..{a.n_vars}")
    if a.order < 1:
        raise ValueError("cannot differentiate an order-0 jet")
    src, dst, fac = _deriv_table(a.n_vars, i - 1)
    out = np.zeros_like(a.coeffs)
    out[dst] = fac * a.coeffs[src]
    return WJet(a.n_vars, out, a.order - 1)


def d_dzbar(a: WJet, i: int) -> WJet:
    """Jet of df/dzbar^i (i is 1-based); meaningful through order a.order - 1."""
    if not 1 <= i <= a.n_vars:
        raise ValueError(f"variable index {i} out of range 1..{a.n_vars}")
    if a.order < 1:
        raise ValueError("cannot differentiate an order-0 jet")
    src, dst, fac = _deriv_table(a.n_vars, a.n_vars + i - 1)
    out = np.zeros_like(a.coeffs)
    out[dst] = fac * a.coeffs[src]
    return WJet(a.n_vars, out, a.order - 1)


# -- partial-derivative arrays --------------------------------------------------


def partials(jets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value, Wirtinger gradient and Hessian of an array of jets.

    `jets` is one jet or a nested sequence of jets of shape S, all with the
    same n_vars.  Returns arrays of shapes S, S + (2n,) and S + (2n, 2n) with
    the factorials restored: gradient slot s < n is d/dz^{s+1} and slot n + s
    is d/dzbar^{s+1}; the Hessian holds the second partials in those slots.
    """
    arr = np.asarray(jets, dtype=object)
    c = np.array([j.coeffs for j in arr.flat]).reshape(arr.shape + (-1,))
    grad, hess, fac = _partial_tables(arr.flat[0].n_vars)
    return c[..., 0], c[..., grad], c[..., hess] * fac


def jet_from_partials(value: complex, grad, hess) -> WJet:
    """The jet with this value, Wirtinger gradient [2n] and symmetric Hessian
    [2n, 2n], in the slot layout of `partials` (its inverse for one jet)."""
    n_vars = len(grad) // 2
    g, h, fac = _partial_tables(n_vars)
    c = np.empty(len(multi_indices(n_vars)), dtype=np.complex128)
    c[0] = value
    c[g] = grad
    c[h] = hess / fac
    return WJet(n_vars, c)


# -- predicates ---------------------------------------------------------------


def is_real_valued(a: WJet, tol: float = EQ_TOL) -> bool:
    """True iff coeff(a, b) = conj(coeff(b, a)) for every index pair."""
    mirrored = np.conj(a.coeffs[_conj_perm(a.n_vars)])
    scale = max(1.0, float(np.max(np.abs(a.coeffs))))
    return bool(np.max(np.abs(a.coeffs - mirrored)) <= tol * scale)


def jets_close(a: WJet, b: WJet, tol: float = EQ_TOL) -> bool:
    """Coefficientwise comparison through the common valid order."""
    if a.n_vars != b.n_vars:
        return False
    mask = _degrees(a.n_vars) <= min(a.order, b.order)
    ca, cb = a.coeffs[mask], b.coeffs[mask]
    scale = max(1.0, float(np.max(np.abs(ca))), float(np.max(np.abs(cb))))
    return bool(np.max(np.abs(ca - cb)) <= tol * scale)


# -- implicit function solver -------------------------------------------------


def solve_scalar_root(
    f: Callable[[float], float],
    seed: float,
    tol: float,
    max_bracket: int = 80,
    max_iter: int = 200,
) -> float:
    """Safeguarded Newton for a scalar root of a monotone-ish function.

    Brackets the root by geometric expansion around `seed`, then runs Newton
    steps (finite-difference slope) confined to the bracket with bisection
    fallback, until |f| <= tol.
    """
    t = float(seed)
    ft = f(t)
    if abs(ft) <= tol:
        return t
    # Bracket by geometric expansion.
    step = 1.0
    lo = hi = t
    flo = fhi = ft
    for _ in range(max_bracket):
        lo, hi = t - step, t + step
        flo, fhi = f(lo), f(hi)
        if flo == 0.0:
            return lo
        if fhi == 0.0:
            return hi
        if np.sign(flo) != np.sign(fhi):
            break
        step *= 2.0
    else:
        raise ValueError(
            "failed to bracket a root (is the function monotone with a sign change?)"
        )
    for _ in range(max_iter):
        ft = f(t)
        if abs(ft) <= tol:
            return t
        # Keep the bracket tight.
        if np.sign(ft) == np.sign(flo):
            lo, flo = t, ft
        else:
            hi, fhi = t, ft
        h = 1e-6 * (1.0 + abs(t))
        slope = (f(t + h) - f(t - h)) / (2.0 * h)
        tn = t - ft / slope if slope != 0.0 else 0.5 * (lo + hi)
        if not np.isfinite(tn) or not (min(lo, hi) < tn < max(lo, hi)):
            tn = 0.5 * (lo + hi)
        t = tn
    raise ValueError(f"scalar root iteration failed to reach |f| <= {tol}")


def implicit_solve(
    F: Callable[[WJet], WJet],
    theta_seed: float,
    tol: float,
    n_vars: int,
) -> WJet:
    """Order-2 jet of theta(z, zbar) defined implicitly by F(theta) = 0.

    F maps a theta-jet to the jet of F(z, zbar, theta(z, zbar)); the point
    dependence is baked into F (built from coordinate jets).  The constant
    term t* is found by safeguarded Newton with bisection fallback (a seed
    that already solves F returns after one evaluation).  The derivative
    coefficients follow from chord steps in the jet ring,

        theta <- theta - F(theta) / F'(t*),

    with the scalar slope F'(t*) taken once, exactly, from one extra
    evaluation.  Writing theta = theta* + e, a step maps the error e to
    (1 - F'(theta*)/F'(t*)) e + O(e^2), and that factor has no constant term:
    it lies in the nilpotent truncation ideal.  So each step fixes one more
    degree: after two steps the jet is exact to rounding, and the loop ends
    on the third (rarely the fourth), whose correction is below tolerance.
    A step costs one F evaluation and a scalar divide.

    Parameters
    ----------
    F : callable
        Jet-valued function of the theta-jet.
    theta_seed : float
        Starting guess for the constant term.
    tol : float
        Residual bound |F| for the scalar stage (> 0).
    n_vars : int
        Number of complex variables of the surrounding jets.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")

    t_star = solve_scalar_root(
        lambda t: F(jet_const(t, n_vars)).value.real, theta_seed, tol
    )

    theta = jet_const(t_star, n_vars)
    Fj = F(theta)
    # theta = t* + (z^1 - z^1_0) moves F's z^1 slot by exactly F'(t*): the
    # truncated chain rule is exact at first order.
    unit = (1,) + (0,) * (2 * n_vars - 1)
    slope = F(jet_var(1, t_star, n_vars)).coeff(unit) - Fj.coeff(unit)
    if abs(slope) <= 1e-8 * (1.0 + Fj.max_abs()):
        raise ValueError("dF/dtheta vanishes at the solution")
    for _ in range(40):
        delta = Fj / slope
        theta = theta - delta
        if delta.max_abs() <= 1e-14 * (1.0 + theta.max_abs()):
            break
        Fj = F(theta)
    residual = F(theta).max_abs()
    if residual > 1e-10 * (1.0 + theta.max_abs()):
        raise ValueError(
            f"implicit jet iteration failed to converge (residual {residual:.3g})"
        )
    return theta
