"""Pointwise Hermitian geometry of a metric jet.

Everything here consumes a `MetricJet` — the order-2 Wirtinger jet of a
Hermitian metric h_{ij̄} at one point, or at each point of a sample — and
produces connection coefficients, curvature tensors, adjoint forms and scalar
invariants.  Two independent computation paths to the Levi-Civita Ricci form
are provided:

* `lc_ricci`: trace of the (1,1)-part of the Levi-Civita curvature tensor,
  built from the mixed connection symbols;
* `lc_ricci_via_relation`: Chern-Ricci form minus half the d-adjoint defect
  ½(∂∂*ω + ∂̄∂̄*ω).

Their agreement on arbitrary metrics is the central identity this package
verifies; the engineered `debug_corruption` context breaks it on purpose so
the test harness can prove the comparison has teeth.

Array layout: a metric jet is three arrays — value H[i, j] = h_{ij̄},
Wirtinger gradient dH[i, j, s] and Hessian ddH[i, j, s, t] — where slot s < n
is ∂/∂z^{s+1} and slot n + s is ∂/∂z̄^{s+1}.  The connection layer is
Taylor-mode differentiation truncated at order 1: each symbol is a (value,
gradient) pair of arrays built by einsums, and curvature reads slices of the
gradients.  The Chern-Ricci form is the h^{kℓ̄}-trace of the Chern curvature
(Jacobi's formula for −∂∂̄ log det h), with its own inversion of H: it reads
neither `MetricJet.inverse` nor the connection, so the second Ricci path shares
no code with the first beyond the metric itself.

Batch axis: every array may carry leading batch axes, one point per index,
in front of the per-point axes described here.  Every function is written in
the gufunc style (`...` in the einsums, transposes relative to the last axes,
reductions per point, n = H.shape[-1]), so one call serves a point and a
whole sample: a scalar invariant is one value per point, a 0-d value for a
point with no batch axes.

Forms and tensors are returned as plain arrays: a (1,1)-form
√−1 A_{ij̄} dz^i ∧ dz̄^j as the matrix A, a (1,0)- or (0,1)-form as its
component vector, a curvature tensor R_{ij̄kℓ̄} as R[i, j, k, l].

Index conventions: the inverse tensor h^{kℓ̄} is `A[ℓ, k]` where `A` is the
plain matrix inverse of `H` (so that h^{kℓ̄} h_{iℓ̄} = δ^k_i).  Connection
arrays are indexed with the upper index first: `hol[k, i, j]` is Γ^k_{ij},
`anti[k, i, j]` is Γ^k_{īj} (first lower slot barred).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Toggled by `debug_corruption`; flips the sign of the mixed Levi-Civita
# symbols so that the two Ricci paths disagree (mutation test hook).
_CORRUPT_ANTI_SIGN = False


@contextmanager
def debug_corruption():
    """Deliberately corrupt the mixed connection symbols (testing only)."""
    global _CORRUPT_ANTI_SIGN
    _CORRUPT_ANTI_SIGN = True
    try:
        yield
    finally:
        _CORRUPT_ANTI_SIGN = False


# -- types ---------------------------------------------------------------------


def is_hermitian(H: np.ndarray) -> bool:
    """|H − Hᴴ| ≤ atol + 1e-5·|Hᴴ| entrywise, atol = 1e-10·(1 + max|H|), at
    every point of a stack H[..., i, j] (max|H| taken per point).

    This is the test of `np.allclose(H, Hᴴ, atol=atol)` on a finite H, written
    out because `allclose` costs about ten times as much on a 2×2 matrix.
    """
    Hh = H.conj().swapaxes(-1, -2)
    aH = np.abs(H)
    atol = 1e-10 * (1 + aH.max(axis=(-2, -1), keepdims=True))
    return bool((np.abs(H - Hh) <= atol + 1e-5 * aH.swapaxes(-1, -2)).all())


class PointFailure(ValueError):
    """A number the engine cannot form at a point: out of the double range, a
    singular matrix, not positive definite, a root or an eigenvalue solve that
    does not converge.
    `verify.run_check` charges it to its point; any other error aborts the check."""


class NotPositiveDefinite(PointFailure):
    """A metric value matrix with an eigenvalue ≤ 0; `index` is the flat
    batch index of the first such point (0 for one point)."""

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


@dataclass(eq=False)
class MetricJet:
    """Order-2 jet of a Hermitian metric at a point, or at each point of a
    sample, as three arrays.

    H[..., i, j] = h_{ij̄}, its Wirtinger gradient dH[..., i, j, s] and its
    Hessian ddH[..., i, j, s, t] in the slots s, t of (z¹…zⁿ, z̄¹…z̄ⁿ); the
    leading axes, if any, index the points.  H must be finite and Hermitian
    positive definite at every point, which is checked when the metric is
    built.  The inverse, the connection and the Chern-Ricci form are built
    once per metric; read the last two through `christoffels` and `chern_ricci`.
    """

    H: np.ndarray
    dH: np.ndarray
    ddH: np.ndarray

    def __post_init__(self):
        H = self.H
        _check_finite("the metric", H)
        if not is_hermitian(H):
            raise PointFailure("metric value matrix is not Hermitian")
        try:
            low = np.linalg.eigvalsh(H)[..., 0]  # ascending: each point's least eigenvalue
        except np.linalg.LinAlgError:
            raise PointFailure("the metric value matrix's eigenvalues did not converge "
                               "at this point") from None
        bad = low <= 0
        if np.count_nonzero(bad):
            k = int(bad.argmax())
            raise NotPositiveDefinite(
                f"metric value matrix is not positive definite (min eigenvalue {low.flat[k]:.3g})", k
            )

    @property
    def n(self) -> int:
        return self.H.shape[-1]

    @cached_property
    def inverse(self) -> np.ndarray:
        """Plain matrix inverse A of H, so that h^{kℓ̄} = A[ℓ, k]; raises
        PointFailure where H is singular or A leaves the double range."""
        with np.errstate(over="ignore", invalid="ignore"):
            A = _inv(self.H, "the metric value matrix")
        _check_finite("the inverse metric", A)
        return A

    @cached_property
    def connection(self) -> Christoffels:
        return _connection(self)

    @cached_property
    def chern_ricci(self) -> np.ndarray:
        # H is inverted here, not read from `inverse`, so that the second Ricci
        # path shares no inversion with the connection.
        with np.errstate(over="ignore", invalid="ignore"):
            A = _inv(self.H, "the metric value matrix")
            ric = np.einsum("...lk,...ijkl->...ij", A, chern_curvature(self, A))  # h^{kℓ̄} = A[ℓ, k]
        _check_finite("the Chern-Ricci form", ric)
        return ric


class Christoffels:
    """Connection symbols and their first derivatives at the point, as views
    of one value array `value[t, ..., k, i, j]` and one gradient array
    `grad[t, ..., k, i, j, s]` (the batch axes, if any, after t):

    chern[k, i, j]   = value[0] = Γ^k_{ij}  of the Chern connection (h^{kℓ̄} ∂_i h_{jℓ̄})
    lc_hol[k, i, j]  = value[1] = Γ^k_{ij}  of the Levi-Civita connection (symmetric in ij)
    lc_anti[k, i, j] = value[2] = Γ^k_{īj}  mixed Levi-Civita symbols

    Each `*_grad` array is the matching slice of `grad`, which appends the
    Wirtinger slot s of the derivative: `lc_anti_grad[k, i, j, s]` is
    ∂Γ^k_{īj}/∂z^{s+1} for s < n and ∂Γ^k_{īj}/∂z̄^{s−n+1} for s ≥ n.
    """

    def __init__(self, value: np.ndarray, grad: np.ndarray):
        self.value, self.grad = value, grad
        self.chern, self.lc_hol, self.lc_anti = value
        self.chern_grad, self.lc_hol_grad, self.lc_anti_grad = grad


class Scalars:
    """Scalar invariants of a metric, one value per point (a 0-d value for a
    single point), each formed on its first read and kept.

    s_C          Chern scalar curvature
    s_LC         Levi-Civita scalar curvature (h^{ij̄} 𝔯ic_{ij̄}, the double trace of 𝔯R_{ij̄kℓ̄})
    s            Riemannian scalar curvature of the background real metric
    torsion_sq   |T|²
    delstar_sq   |∂*ω|²
    ddstar_pairing       ⟨∂∂*ω + ∂̄∂̄*ω, ω⟩  (real)

    The forms they trace are kept as well, so that a residual reading a form
    and its scalar forms it once:

    lc_ric        𝔯ic, from `lc_ricci`
    del_stars     (∂*ω, ∂̄*ω), from `del_star`
    ddstar_parts  (∂∂*ω, ∂̄∂̄*ω), from `d_del_star_parts`

    Everything is read through the module-level functions (`chern_scalar`,
    `lc_ricci`, `riemannian_scalar`, `torsion`, `del_star`,
    `d_del_star_parts`), and only what a caller reads is formed: a point
    where s cannot be formed fails only a residual that reads s.  An object
    belongs to one metric and is kept by nothing in this module.
    """

    def __init__(self, m: MetricJet):
        self.m = m

    @cached_property
    def lc_ric(self) -> np.ndarray:
        return lc_ricci(self.m)

    @cached_property
    def del_stars(self) -> tuple[np.ndarray, np.ndarray]:
        return del_star(self.m)

    @cached_property
    def ddstar_parts(self) -> tuple[np.ndarray, np.ndarray]:
        return d_del_star_parts(self.m)

    @cached_property
    def s_C(self) -> np.ndarray:
        return chern_scalar(self.m)

    @cached_property
    def s_LC(self) -> np.ndarray:
        # h^{kℓ̄} h_{sℓ̄} = δ^k_s: the double trace of 𝔯R_{ij̄kℓ̄} is h^{ij̄} 𝔯ic_{ij̄}
        return _pairing(self.m.inverse, self.lc_ric).real

    @cached_property
    def s(self) -> np.ndarray:
        return riemannian_scalar(self.m)

    @cached_property
    def torsion_sq(self) -> np.ndarray:
        return torsion(self.m)[1]

    @cached_property
    def delstar_sq(self) -> np.ndarray:
        return form01_norm_sq(self.del_stars[0], self.m)

    @cached_property
    def ddstar_pairing(self) -> np.ndarray:
        p1, p2 = self.ddstar_parts
        return _pairing(self.m.inverse, p1 + p2).real


# -- connections ---------------------------------------------------------------


def _inv(a: np.ndarray, what: str) -> np.ndarray:
    """`np.linalg.inv`, a singular matrix raised as a PointFailure naming it (`what`)."""
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise PointFailure(f"{what} is singular at this point") from None


def _check_finite(what: str, a: np.ndarray) -> None:
    """Raise PointFailure if any entry of the array is inf or NaN."""
    if not np.isfinite(a).all():
        raise PointFailure(f"{what} is outside the floating-point range at this point")


def _flip_anti(a: np.ndarray) -> np.ndarray:
    """The stacked symbols a[t, ...] with the mixed ones (t = 2) negated."""
    a = a.copy()
    a[2] *= -1.0
    return a


def christoffels(m: MetricJet) -> Christoffels:
    """Chern and Levi-Civita connection symbols with their first derivatives.

    Γ^k_{ij}(Chern) = h^{kℓ̄} ∂h_{jℓ̄}/∂z^i
    Γ^k_{ij}(LC)    = ½ h^{kℓ̄} (∂h_{jℓ̄}/∂z^i + ∂h_{iℓ̄}/∂z^j)
    Γ^k_{īj}(LC)    = ½ h^{kℓ̄} (∂h_{jℓ̄}/∂z̄^i − ∂h_{jī}/∂z̄^ℓ)

    They are built once per metric (`MetricJet.connection`); while
    `debug_corruption` is active the mixed symbols are read with their sign
    flipped, and the cached ones stay correct.
    """
    ch = m.connection
    if _CORRUPT_ANTI_SIGN:
        return Christoffels(_flip_anti(ch.value), _flip_anti(ch.grad))
    return ch


def _connection(m: MetricJet) -> Christoffels:
    """The symbols of `christoffels`.  The inverse metric is carried to
    order 1, ∂A = −A (∂H) A.  The Chern and mixed symbols are one raised
    index h^{kℓ̄} T[t, j, ℓ, i] over the stack T = (∂h_{jℓ̄}/∂z^i, B), with
    its gradient by the product rule; the holomorphic Levi-Civita symbols are
    the symmetric part of the Chern ones.  Raises PointFailure when a symbol
    leaves the double range at any point."""
    bs, n = m.H.shape[:-2], m.n  # the batch shape, and the dimension
    b, p = range(len(bs)), len(bs)  # the batch axes, and the first per-point axis
    At, dH, ddH = m.inverse.swapaxes(-1, -2), m.dH, m.ddH  # At[..., k, ℓ] = h^{kℓ̄}
    # T[t, ..., j, ℓ, i] and dT[t, ..., j, ℓ, i, s] are stored as Tl[..., ℓ, t, j, i]
    # and dTl[..., ℓ, t, j, i, s], so that raising ℓ is one matrix product per point
    Tl, dTl = np.empty(bs + (n, 2, n, n), complex), np.empty(bs + (n, 2, n, n, 2 * n), complex)
    T = Tl.transpose(p + 1, *b, p + 2, p, p + 3)
    dT = dTl.transpose(p + 1, *b, p + 2, p, p + 3, p + 4)
    value = np.empty((3,) + bs + (n, n, n), complex)  # [t, ..., k, i, j]
    grad = np.empty((3,) + bs + (n, n, n, 2 * n), complex)  # [t, ..., k, i, j, s]
    with np.errstate(over="ignore", invalid="ignore"):
        T[0], dT[0] = dH[..., :n], ddH[..., :n, :]
        # B[j, ℓ, i] = ∂h_{jℓ̄}/∂z̄^i − ∂h_{jī}/∂z̄^ℓ
        T[1] = dH[..., n:] - dH[..., n:].swapaxes(-1, -2)
        dT[1] = ddH[..., n:, :] - ddH[..., n:, :].swapaxes(-2, -3)
        Tl, dTl = Tl.reshape(bs + (n, -1)), dTl.reshape(bs + (n, -1))
        # ∂_s h^{kℓ̄} = −h^{kc̄} ∂_s h_{ac̄} h^{aℓ̄}, as [..., (s k), ℓ]: one product per point
        dAt = np.einsum("...kc,...acs->...ska", At, dH).reshape(bs + (-1, n)) @ -At
        # slots 0 and 2: h^{kℓ̄} T[t, j, ℓ, i] and its gradient, each product
        # transposed from [..., k, t, j, i, (s)] or [..., s, k, t, j, i] to
        # [t, ..., k, i, j, (s)]
        value[::2] = (At @ Tl).reshape(bs + (n, 2, n, n)).transpose(p + 1, *b, p, p + 3, p + 2)
        np.add((dAt @ Tl).reshape(bs + (2 * n, n, 2, n, n)).transpose(p + 2, *b, p + 1, p + 4, p + 3, p),
               (At @ dTl).reshape(bs + (n, 2, n, n, 2 * n)).transpose(p + 1, *b, p, p + 3, p + 2, p + 4),
               out=grad[::2])
        for raised in (value, grad):  # (Γ_C, ·, Γ_B) -> (Γ_C, ½(Γ_C + Γ_Cᵀ), ½Γ_B)
            np.add(raised[0], raised[0].swapaxes(p + 1, p + 2), out=raised[1])
            raised[1:] *= 0.5
    _check_finite("the connection", value)
    _check_finite("the connection", grad)
    return Christoffels(value, grad)


# -- Chern curvature ------------------------------------------------------------


def chern_curvature(m: MetricJet, A: np.ndarray) -> np.ndarray:
    """R_{ij̄kℓ̄} = −∂²h_{kℓ̄}/∂z^i∂z̄^j + h^{pq̄} (∂h_{kq̄}/∂z^i)(∂h_{pℓ̄}/∂z̄^j),
    as R[..., i, j, k, l], where h^{pq̄} = A[..., q, p] for A the matrix
    inverse of H."""
    n, dH, ddH = m.n, m.dH, m.ddH
    sec = ddH[..., :n, n:].swapaxes(-4, -2).swapaxes(-3, -1)  # [..., i, j, k, l]
    quad = np.einsum("...qp,...kqi,...plj->...ijkl", A, dH[..., :n], dH[..., n:])
    return -sec + quad


def chern_ricci(m: MetricJet) -> np.ndarray:
    """Chern-Ricci form R_{ij̄} = −∂² log det(h) / ∂z^i ∂z̄^j, taken as the trace
    h^{kℓ̄} R_{ij̄kℓ̄} of `chern_curvature` and built once per metric
    (`MetricJet.chern_ricci`).  Raises PointFailure when it leaves the double
    range."""
    return m.chern_ricci


def _pairing(A: np.ndarray, form: np.ndarray) -> np.ndarray:
    """h^{ij̄} F_{ij̄} of a (1,1)-form F at each point, for A the inverse of H."""
    return np.einsum("...ij,...ij->...", A.swapaxes(-1, -2), form)  # h^{ij̄} = A[j, i]


def chern_scalar(m: MetricJet) -> np.ndarray:
    return _pairing(m.inverse, chern_ricci(m)).real


# -- Levi-Civita curvature -------------------------------------------------------


def lc_curvature(m: MetricJet) -> np.ndarray:
    """(1,1)-part of the Levi-Civita curvature on the holomorphic tangent bundle,
    as R[..., l, i, j, k]:

    𝔯R^ℓ_{ij̄k} = −(∂Γ^ℓ_{ik}/∂z̄^j − ∂Γ^ℓ_{j̄k}/∂z^i + Γ^s_{ik} Γ^ℓ_{j̄s} − Γ^s_{j̄k} Γ^ℓ_{si})
    """
    n = m.n
    ch = christoffels(m)
    hol_v, anti_v = ch.lc_hol, ch.lc_anti
    d_hol = ch.lc_hol_grad[..., n:].swapaxes(-1, -2)  # [..., l, i, j, k] = ∂Γ^ℓ_{ik}/∂z̄^j
    # [..., l, i, j, k] = ∂Γ^ℓ_{j̄k}/∂z^i
    d_anti = ch.lc_anti_grad[..., :n].swapaxes(-1, -3).swapaxes(-1, -2)
    quad1 = np.einsum("...sik,...ljs->...lijk", hol_v, anti_v)
    quad2 = np.einsum("...sjk,...lsi->...lijk", anti_v, hol_v)
    return -(d_hol - d_anti + quad1 - quad2)


def lc_ricci(m: MetricJet) -> np.ndarray:
    """First Levi-Civita Ricci form 𝔯R^{(1)}_{ij̄} = 𝔯R^k_{ij̄k}."""
    return np.einsum("...kijk->...ij", lc_curvature(m))


# -- adjoint forms ---------------------------------------------------------------


def del_star(m: MetricJet) -> tuple[np.ndarray, np.ndarray]:
    """Components of the adjoint forms  ∂*ω = −2√−1 Γ^k_{j̄k} dz̄^j  and
    ∂̄*ω = 2√−1 conj(Γ^k_{īk}) dz^i, in that order."""
    traces = np.einsum("...kjk->...j", christoffels(m).lc_anti)  # Γ^k_{j̄k}
    return -2j * traces, 2j * traces.conj()


def d_del_star_parts(m: MetricJet) -> tuple[np.ndarray, np.ndarray]:
    """The (1,1)-forms ∂∂*ω and ∂̄∂̄*ω (in the √−1 A_{ij̄} dz^i∧dz̄^j convention)."""
    grad = np.einsum("...kjks->...js", christoffels(m).lc_anti_grad)  # ∂_s Γ^k_{j̄k}
    dz_traces = grad[..., : m.n].swapaxes(-1, -2)  # [..., i, j] = ∂_i Γ^k_{j̄k}
    return -2.0 * dz_traces, -2.0 * dz_traces.conj().swapaxes(-1, -2)


def d_del_star(m: MetricJet) -> np.ndarray:
    """½(∂∂*ω + ∂̄∂̄*ω); Hermitian by construction."""
    p1, p2 = d_del_star_parts(m)
    return 0.5 * (p1 + p2)


def lc_ricci_via_relation(m: MetricJet) -> np.ndarray:
    """Second path to the Levi-Civita Ricci form: Ric(ω) − ½(∂∂*ω + ∂̄∂̄*ω)."""
    return chern_ricci(m) - d_del_star(m)


# -- torsion and scalars ----------------------------------------------------------


def torsion(m: MetricJet) -> tuple[np.ndarray, np.ndarray]:
    """Torsion T^k_{ij} = Γ^k_{ij} − Γ^k_{ji} of the Chern connection and its
    squared norm at each point.

    |T|² = h_{kℓ̄} h^{ip̄} h^{jq̄} T^k_{ij} conj(T^ℓ_{pq}), summed over all (i, j).
    """
    chern = m.connection.chern
    T = chern - chern.swapaxes(-1, -2)
    G = m.inverse.swapaxes(-1, -2)  # G[..., i, p] = h^{ip̄}
    tsq = np.einsum("...kl,...ip,...jq,...kij,...lpq->...", m.H, G, G, T, T.conj())
    return T, tsq.real


def form01_norm_sq(a: np.ndarray, m: MetricJet) -> np.ndarray:
    """|a|² for a (0,1)-form a_ī dz̄^i at each point:  Σ a_ī conj(a_j̄) h^{jī}."""
    # h^{jī} = A[i, j]
    return np.einsum("...i,...j,...ij->...", a, a.conj(), m.inverse).real


def scalars(m: MetricJet) -> Scalars:
    """The scalar invariants of m, each formed when it is first read; see
    `Scalars`."""
    return Scalars(m)


def kahler_defect(m: MetricJet) -> np.ndarray:
    """max |∂_i h_{jℓ̄} − ∂_j h_{iℓ̄}| at each point (0 iff Kähler there)."""
    dval = m.dH[..., : m.n]  # [..., j, l, i] = ∂h_{jℓ̄}/∂z^i
    return np.abs(dval - dval.swapaxes(-3, -1)).max(axis=(-3, -2, -1))


# -- background Riemannian scalar --------------------------------------------------


def riemannian_scalar(m: MetricJet) -> np.ndarray:
    """Scalar curvature s = gᵃᵇ R_ab of the background Riemannian metric, at
    each point.

    The real metric is fixed by g(∂/∂z^i, ∂/∂z̄^j) = h_{ij̄} under ℂ-bilinear
    extension.  The Christoffel formula holds in any holonomic frame, so s is
    taken on the 2n Wirtinger slots, where the complexified metric is
    G = [[0, H], [Hᵀ, 0]] and its derivatives are the same placement of dH
    and ddH.  G has its own inversion, independent of `MetricJet.inverse`.
    ∂G and ∂∂G are one stack, so the brackets of Γ and their derivatives are
    formed in one pass and raised by one matrix product.  Of

        ∂_cΓ^l_{mn} = ∂_c g^{lr} Γ_{r,mn} + ½ g^{lr} ∂_c bracket_{rmn},

    with Γ_{r,mn} = ½ bracket_{rmn} and ∂_c g^{lr} = −g^{la} ∂_c g_ab g^{br}
    (so that the first term is −g^{la} ∂_c g_ab Γ^b_{mn}), only the two traces
    that R_mn reads are formed.  A point whose G or ∂_c g^{lr} leaves the
    double range gets a non-finite s, without a warning; a singular G fails it.
    """
    bs, n = m.H.shape[:-2], m.n
    N = 2 * n
    # G[..., a, b] and E[..., a, b, c, x]: ∂_c G_ab at x = 0 and ∂_c ∂_e G_ab at x = 1 + e
    G = np.zeros(bs + (N, N), complex)
    E = np.zeros(bs + (N, N, N, N + 1), complex)
    G[..., :n, n:] = m.H
    E[..., :n, n:, :, 0] = m.dH
    E[..., :n, n:, :, 1:] = m.ddH
    G[..., n:, :n] = m.H.swapaxes(-1, -2)
    E[..., n:, :n, :, :] = E[..., :n, n:, :, :].swapaxes(-3, -4)

    with np.errstate(over="ignore", invalid="ignore"):
        Ginv = _inv(G, "the complexified metric G")
        # bracket[..., r, m, n, x] = E[r, n, m, x] + E[r, m, n, x] − E[m, n, r, x]: at x = 0
        # ∂_m g_rn + ∂_n g_rm − ∂_r g_mn, and at x = 1 + c its derivative ∂_c
        bracket = E + E.swapaxes(-2, -3)
        bracket -= E.swapaxes(-2, -3).swapaxes(-3, -4)
        # K[..., l, m, n, 0] = Γ^l_mn and K[..., l, m, n, 1 + c] = ½ g^{lr} ∂_c bracket_rmn
        K = ((0.5 * Ginv) @ bracket.reshape(bs + (N, -1))).reshape(bs + (N, N, N, N + 1))
        Gamma, dK = K[..., 0], K[..., 1:]
        # ∂_c g^{lr} = −g^{la} ∂_c g_ab g^{br} as dGinv[..., l, c, r], from W[..., l, c, b] = g^{la} ∂_c g_ab
        W = Ginv @ E[..., 0].swapaxes(-1, -2).reshape(bs + (N, -1))
        dGinv = (W.reshape(bs + (-1, N)) @ -Ginv).reshape(bs + (N, N, N))
        # Q[..., l, r', c] = (∂_c g^{lr} | Γ^l_cr) and P[..., m, n, r'] = (Γ_{r,mn} | Γ^r_mn):
        # Q·P over r' is the first term of ∂_cΓ^l_mn plus Γ^l_cr Γ^r_mn
        Q = np.concatenate((dGinv, Gamma), axis=-1).swapaxes(-1, -2)
        P = np.concatenate((0.5 * bracket[..., 0], Gamma), axis=-3).swapaxes(-3, -2).swapaxes(-2, -1)

        # R_{mn} = tr_l − tr_n: tr_l = ∂_l Γ^l_{mn} + Γ^l_{lr} Γ^r_{mn} and tr_n = ∂_n Γ^l_{ml} + Γ^l_{nr} Γ^r_{ml}
        # are two traces of ∂_cΓ^l_{mn} + Γ^l_{cr} Γ^r_{mn} = dK[l, m, n, c] + Q[l, ·, c]·P[m, n, ·]
        q_l = np.einsum("...lrl->...r", Q)
        tr_l = np.einsum("...lmnl->...mn", dK) + np.einsum("...r,...mnr->...mn", q_l, P)
        tr_n = np.einsum("...lmln->...mn", dK) + P.reshape(bs + (N, -1)) @ Q.reshape(bs + (-1, N))
        return np.einsum("...mn,...mn->...", Ginv, tr_l - tr_n).real
