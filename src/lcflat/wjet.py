"""Order-2 truncated Taylor arithmetic in complex coordinates and their conjugates.

A Wirtinger jet holds the value, the gradient and the Hessian at one point of
a smooth function of the 2n formally independent variables (z^1..z^n,
zbar^1..zbar^n).  Gradient slot s < n is d/dz^{s+1} and slot n + s is
d/dzbar^{s+1}; the symmetric Hessian holds the second partials in those slots.
Products follow the Leibniz rule and compositions the chain rule, truncated at
order 2 (Taylor-mode arithmetic: Griewank & Walther, Evaluating Derivatives,
ch. 13).  Truncation is graded: the order-k part of any product, quotient or
composition depends only on input parts of order <= k, so arithmetic on a
jet whose Hessian is unknown (a derivative from `d_dz`) still gives exact
values and gradients.

A jet keeps the three in one flat array, so that ± and scalar × are one
numpy call each.  The magnitude checks (`WJet.max_abs`, `jets_close`,
`is_real_valued`) read Taylor coefficients, f_ss/2 on the Hessian's
diagonal, so that their bounds do not depend on the factorials.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

import numpy as np

from .metrics import EQ_TOL, all_real_valued


class WJet:
    """Order-2 Wirtinger jet of a function at a point.

    Parameters
    ----------
    value : complex
        The function's value.
    grad : array_like, shape (2n,)
        Wirtinger gradient: slot s < n is d/dz^{s+1}, slot n + s is d/dzbar^{s+1}.
    hess : array_like, shape (2n, 2n)
        Symmetric matrix of the second partials in the same slots.

    The jet keeps one flat array, ``data`` = [value, grad, hess.ravel()],
    which `value`, `grad` and `hess` read.  Jets are values: no operation
    writes into an existing jet's array, so treat ``data`` and its views as
    read-only.
    """

    __slots__ = ("n_vars", "data")

    def __init__(self, value, grad, hess):
        grad = np.asarray(grad, dtype=np.complex128)
        hess = np.asarray(hess, dtype=np.complex128)
        m = grad.size
        if grad.ndim != 1 or m == 0 or m % 2 or hess.shape != (m, m):
            raise ValueError(
                "expected a gradient of shape (2n,) and a Hessian of shape (2n, 2n), "
                f"got {grad.shape} and {hess.shape}"
            )
        data = np.empty(1 + m + m * m, dtype=np.complex128)
        data[0] = value
        data[1 : m + 1] = grad
        data[m + 1 :] = hess.reshape(-1)
        self.n_vars = m // 2
        self.data = data

    @property
    def value(self) -> complex:
        return complex(self.data[0])

    @property
    def grad(self) -> np.ndarray:
        return self.data[1 : 2 * self.n_vars + 1]

    @property
    def hess(self) -> np.ndarray:
        m = 2 * self.n_vars
        return self.data[m + 1 :].reshape(m, m)

    def max_abs(self) -> float:
        """Largest Taylor coefficient magnitude."""
        return float(np.abs(_coefficients(self)).max())

    def __repr__(self) -> str:
        return f"WJet(n_vars={self.n_vars}, value={self.value:.6g})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, WJet):
            data = self.data.copy()
            data[0] += other
            return _jet(data, self.n_vars)
        _check_vars(self, other)
        return _jet(self.data + other.data, self.n_vars)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, WJet):
            data = self.data.copy()
            data[0] -= other
            return _jet(data, self.n_vars)
        _check_vars(self, other)
        return _jet(self.data - other.data, self.n_vars)

    def __rsub__(self, other):
        data = -self.data
        data[0] += other
        return _jet(data, self.n_vars)

    def __neg__(self):
        return _jet(-self.data, self.n_vars)

    def __mul__(self, other):
        if not isinstance(other, WJet):
            return _jet(self.data * other, self.n_vars)
        return mul(self, other)

    def __rmul__(self, other):
        return _jet(self.data * other, self.n_vars)

    def __truediv__(self, other):
        if not isinstance(other, WJet):
            return _jet(self.data / other, self.n_vars)
        return div(self, other)

    def __rtruediv__(self, other):
        return other * _reciprocal(self)

    def __pow__(self, p):
        return pow_real(self, p)

    def conj(self) -> "WJet":
        return conj(self)

    conjugate = conj  # the name Python's numbers use, so closed forms take either


def _jet(data: np.ndarray, n_vars: int) -> WJet:
    """The jet whose flat array is `data`, taken without a copy: arithmetic
    hands over each new result this way."""
    jet = WJet.__new__(WJet)
    jet.n_vars = n_vars
    jet.data = data
    return jet


def _check_vars(a: WJet, b: WJet) -> None:
    if a.n_vars != b.n_vars:
        raise ValueError("jets have different n_vars")


def _coefficients(a: WJet) -> np.ndarray:
    """The Taylor coefficients of `a`, flattened: the value, the gradient and
    the Hessian with its diagonal halved (each off-diagonal coefficient
    appears twice)."""
    m = 2 * a.n_vars
    c = a.data.copy()
    c[1 + m :: m + 1] *= 0.5  # the Hessian's diagonal
    return c


# -- constructors ------------------------------------------------------------


def jet_const(value: complex, n_vars: int) -> WJet:
    m = 2 * n_vars
    data = np.zeros(1 + m + m * m, dtype=np.complex128)
    data[0] = value
    return _jet(data, n_vars)


def _seed(slot: int, value: complex, n_vars: int) -> WJet:
    jet = jet_const(value, n_vars)
    jet.data[1 + slot] = 1.0
    return jet


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


def mul(a: WJet, b: WJet) -> WJet:
    """Leibniz rule: (ab)' = a'b + ab', (ab)'' = a''b + a'⊗b' + b'⊗a' + ab''."""
    _check_vars(a, b)
    a0, b0 = a.data[0], b.data[0]
    cross = a.grad[:, None] * b.grad
    data = a0 * b.data
    data[2 * a.n_vars + 1 :] += (cross + cross.T).reshape(-1)
    data += b0 * a.data
    data[0] = a0 * b0
    return _jet(data, a.n_vars)


def div(a: WJet, b: WJet) -> WJet:
    """Truncated quotient a/b = a · (1/b)."""
    _check_vars(a, b)
    return mul(a, _reciprocal(b))


def _reciprocal(b: WJet) -> WJet:
    c = b.data[0]
    if c == 0:
        raise ZeroDivisionError("division by jet with zero constant term")
    # b = c(1 + e) with e = b/c − 1, whose value is 0, so 1/b = (1 − e + e²)/c.
    e = b.data / c
    data = e / -c
    data[0] = 1.0 / c
    g = e[1 : 2 * b.n_vars + 1]
    data[2 * b.n_vars + 1 :] += (g[:, None] * g).reshape(-1) * (2.0 / c)
    return _jet(data, b.n_vars)


def conj(a: WJet) -> WJet:
    """Complex conjugate: swaps the z and zbar halves and conjugates values."""
    n, m = a.n_vars, 2 * a.n_vars
    data = np.empty_like(a.data)
    data[0] = a.data[0]
    data[1 : m + 1].reshape(2, n)[...] = a.grad.reshape(2, n)[::-1]
    data[m + 1 :].reshape(2, n, 2, n)[...] = a.hess.reshape(2, n, 2, n)[::-1, :, ::-1]
    return _jet(np.conjugate(data, out=data), n)


def _compose(a: WJet, f0: complex, f1: complex, f2: complex) -> WJet:
    """f(a) by the chain rule, from f, f′ and f″ at a's value."""
    data = f1 * a.data
    data[0] = f0
    data[2 * a.n_vars + 1 :] += (f2 * a.grad[:, None] * a.grad).reshape(-1)
    return _jet(data, a.n_vars)


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
    """log a = log c + log(a/c) for c = a's value: the relative jet a/c has
    value 1, so no power of c is formed and a tiny or huge c stays in range."""
    c = a.value
    if c == 0:
        raise ValueError("log of jet whose constant term is zero")
    m = 2 * a.n_vars
    with np.errstate(over="ignore", invalid="ignore"):
        data = a.data / c
        g = data[1 : m + 1]
        data[m + 1 :] -= (g[:, None] * g).reshape(-1)
    if not np.isfinite(data).all():
        raise ValueError(f"log is outside the floating-point range at {c:.6g}")
    data[0] = cmath.log(c)
    return _jet(data, a.n_vars)


def pow_real(a: WJet, p: float) -> WJet:
    c = a.value
    if c == 0:
        raise ValueError("pow of jet whose constant term is zero")
    f = _derivatives(
        f"power {p:.6g}", c, lambda: (c**p, p * c ** (p - 1), p * (p - 1) * c ** (p - 2))
    )
    return _compose(a, *f)


def _derivative(a: WJet, slot: int) -> WJet:
    m = 2 * a.n_vars
    data = np.zeros_like(a.data)
    data[0] = a.data[1 + slot]
    data[1 : m + 1] = a.hess[slot]
    return _jet(data, a.n_vars)


def d_dz(a: WJet, i: int) -> WJet:
    """Jet of df/dz^i (i is 1-based): the derivative's value and gradient, and
    a zero Hessian, since that would need third derivatives of f."""
    if not 1 <= i <= a.n_vars:
        raise ValueError(f"variable index {i} out of range 1..{a.n_vars}")
    return _derivative(a, i - 1)


def d_dzbar(a: WJet, i: int) -> WJet:
    """Jet of df/dzbar^i (i is 1-based); its Hessian is zero, as in `d_dz`."""
    if not 1 <= i <= a.n_vars:
        raise ValueError(f"variable index {i} out of range 1..{a.n_vars}")
    return _derivative(a, a.n_vars + i - 1)


# -- partial-derivative arrays --------------------------------------------------


def partials(jets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value, Wirtinger gradient and Hessian of an array of jets.

    `jets` is one jet or a nested sequence of jets of shape S, all with the
    same n_vars.  Returns arrays of shapes S, S + (2n,) and S + (2n, 2n),
    read from one new stack of the jets' flat arrays.
    """
    arr = np.asarray(jets, dtype=object)
    data = np.array([j.data for j in arr.flat])
    m = 2 * arr.flat[0].n_vars
    return (
        data[:, 0].reshape(arr.shape),
        data[:, 1 : m + 1].reshape(arr.shape + (m,)),
        data[:, m + 1 :].reshape(arr.shape + (m, m)),
    )


# -- predicates ---------------------------------------------------------------


def is_real_valued(a: WJet) -> bool:
    """True iff a = conj(a), Taylor coefficient by coefficient, to EQ_TOL."""
    return all_real_valued(a.data)


def jets_close(a: WJet, b: WJet, tol: float = EQ_TOL) -> bool:
    """Coefficientwise comparison."""
    if a.n_vars != b.n_vars:
        return False
    ca, cb = _coefficients(a), _coefficients(b)
    scale = max(1.0, float(np.max(np.abs(ca))), float(np.max(np.abs(cb))))
    return bool(np.max(np.abs(ca - cb)) <= tol * scale)


# -- implicit function solver -------------------------------------------------


def solve_scalar_root(f: Callable[[float], float], seed: float, tol: float) -> float:
    """Safeguarded Newton for a scalar root of a monotone-ish function.

    Brackets the root by geometric expansion around `seed` (at most 80
    doublings), then runs Newton steps (finite-difference slope) confined to
    the bracket with bisection fallback, until |f| <= tol (at most 200 steps).
    """
    t = float(seed)
    ft = f(t)
    if abs(ft) <= tol:
        return t
    # Bracket by geometric expansion.
    step = 1.0
    lo = hi = t
    flo = fhi = ft
    for _ in range(80):
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
    for _ in range(200):
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
    slope = F(jet_var(1, t_star, n_vars)).grad[0] - Fj.grad[0]
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
