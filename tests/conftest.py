"""Shared helpers for building metric jets in tests."""

import math
import sys

import numpy as np
from hypothesis import settings

from lcflat import geometry as geo
from lcflat.geometry import MetricJet
from lcflat.wjet import WJet, conj, exp, jet_conj_var, jet_const, jet_var, log, partials

# Every run draws the same Hypothesis examples: each property test is seeded
# from its own source, and no saved example is replayed (derandomize implies no
# database).  A test's own max_examples and deadline still apply.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def coordinate_jets(n, pt):
    zs = [jet_var(i + 1, pt[i], n) for i in range(n)]
    zbs = [jet_conj_var(i + 1, np.conj(pt[i]), n) for i in range(n)]
    return zs, zbs


def metric_from_fn(n, fn, pt):
    """MetricJet at `pt` from a callable fn(z_jets, zbar_jets) -> nested h list."""
    zs, zbs = coordinate_jets(n, pt)
    return MetricJet(*partials(fn(zs, zbs)))


def entry_jets(m):
    """The entry jets h_{ij̄} of a MetricJet, rebuilt from its arrays."""
    return [[WJet(m.H[i, j], m.dH[i, j], m.ddH[i, j]) for j in range(m.n)] for i in range(m.n)]


def hermitian_jet_residual(m):
    """Largest Taylor coefficient of h_{ij̄} − conj(h_{jī}) over all entries
    of a MetricJet at one point."""
    n = m.n
    swap = np.r_[n : 2 * n, :n]  # conjugation trades the z and z̄ slots
    dH = m.dH - m.dH.transpose(1, 0, 2).conj()[..., swap]
    ddH = m.ddH - m.ddH.transpose(1, 0, 2, 3).conj()[..., swap, :][..., swap]
    ddH *= 1.0 - 0.5 * np.eye(2 * n)  # Taylor coefficients: f_ss/2 on the diagonal
    gap = m.H - m.H.conj().T
    return float(max(np.max(np.abs(gap)), np.max(np.abs(dH)), np.max(np.abs(ddH))))


def flat_jets(n):
    return [[jet_const(1.0 if i == j else 0.0, n) for j in range(n)] for i in range(n)]


def poly_coefficients(n, rng):
    """Six complex normals per entry i <= j, drawn in the order `metrics` draws them."""
    return {(i, j): rng.standard_normal(6) + 1j * rng.standard_normal(6)
            for i in range(n) for j in range(i, n)}


def poly_metric_jets(z, zb, coeffs, eps):
    """h = I + eps*(perturbation) by jet products, Hermitian by construction."""
    n = len(z)
    h = flat_jets(n)
    for (i, j), c in coeffs.items():
        p = (
            c[0] * z[i] * zb[j]
            + c[1] * z[0] * z[n - 1]
            + c[2] * zb[0] * zb[n - 1]
            + c[3] * z[i]
            + c[4] * zb[j]
            + c[5] * z[0] * zb[0]
        )
        if i == j:
            h[i][j] = h[i][j] + eps * (p + conj(p))
        else:
            h[i][j] = h[i][j] + eps * p
    for i in range(n):
        for j in range(i):
            h[i][j] = conj(h[j][i])
    return h


def random_poly_metric_fn(n, rng, eps=0.08):
    """A reusable metric function h = I + eps*(perturbation), Hermitian by construction.

    Returns a closure pt -> MetricJet so the same metric can be evaluated at
    several points (needed for finite-difference checks across points).
    """
    coeffs = poly_coefficients(n, rng)
    return lambda pt: metric_from_fn(n, lambda z, zb: poly_metric_jets(z, zb, coeffs, eps), pt)


# -- Leibniz oracles for the coefficient tables of `metrics` -------------------------


def poly_field_jet(pt, n, seed, amp):
    """The poly conformal factor by jet products, drawing as `metrics` draws."""
    rng = np.random.default_rng(seed)
    zs, zbs = coordinate_jets(n, pt)
    m = max(8, 2 * n + 2)
    c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    q = jet_const(0.0, n)
    for i in range(n):
        q = q + c[i] * zs[i] + c[n + i] * zs[i] * zbs[(i + 1) % n]
    q = q + c[2 * n] * zs[0] * zs[n - 1] + c[2 * n + 1] * zs[0] * zbs[0]
    return amp * (q + conj(q))


def field_jet(f, p, hp, n=2):
    """(value, gradient, Hessian) of a conformal factor at the point p or at
    each point of an array p[..., n]: the views of its rows."""
    from lcflat import metrics as mz

    return mz._row_arrays(mz._field_rows(f, np.asarray(p, dtype=complex), hp, n))


def leibniz_metric_arrays(spec, pt):
    """(H, dH, ddH) of a metric of any kind, or of a conformal rescaling of
    one, from entry jets multiplied one by one."""
    from lcflat import metrics as mz

    n = spec.dim
    zs, zbs = coordinate_jets(n, pt)
    if spec.kind == "flat":
        return partials(flat_jets(n))
    if spec.kind == "kahler-test":  # δ_ij + z^i z̄^j
        return partials([[h + zs[i] * zbs[j] for j, h in enumerate(row)]
                         for i, row in enumerate(flat_jets(n))])
    if spec.kind == "user-polynomial":
        coeffs = poly_coefficients(n, np.random.default_rng(spec.seed_value))
        amp = spec.amp if spec.amp is not None else mz._POLY_AMP
        return partials(poly_metric_jets(zs, zbs, coeffs, amp))
    if spec.kind in ("hopf-lc-flat", "hopf-omega-lambda"):
        return hopf_metric_oracle(spec, pt)
    if spec.kind == "hopf-standard":
        return partials(hopf_standard_jets(pt))
    if spec.kind == "conformal":
        H, dH, ddH = leibniz_metric_arrays(spec.base, pt)
        if spec.f.kind == "poly":
            f = poly_field_jet(pt, n, spec.f.seed, spec.f.amp)
        elif spec.f.kind in ("log-phi", "log-delta"):
            f = hopf_field_oracle(spec.f, pt, spec.hopf_params())
        else:
            f = WJet(*field_jet(spec.f, pt, spec.hopf_params(), n=n))
        ef = exp(f)
        return partials([[ef * WJet(H[i, j], dH[i, j], ddH[i, j]) for j in range(n)]
                         for i in range(n)])
    raise ValueError(f"no jet oracle for {spec.kind}")  # pragma: no cover


# -- the Hopf metrics by jet products: the oracles of their closed forms --------------


def hopf_standard_jets(p):
    """The entry jets of hopf-standard, δ_ij/(|z|² + |w|²), by jet products:
    the build that the closed form of `metrics` replaced, and its bit-for-bit
    oracle."""
    zs, zbs = coordinate_jets(2, p)
    S = zs[0] * zbs[0] + zs[1] * zbs[1]
    inv = 1.0 / S
    zero = jet_const(0.0, 2)
    return [[inv, zero], [zero, inv]]


def hopf_jets(p, hp):
    """The Hopf frame at p ≠ 0 as order-2 jets, the build that
    `metrics.hopf_rows` replaced: θ's jet from its closed-form partials
    (θᵢ = −Fᵢ/F_θ, θᵢⱼ = −(Fᵢⱼ + F_{iθ}θⱼ + F_{jθ}θᵢ + F_{θθ}θᵢθⱼ)/F_θ for
    F = |z|²e^{−c₁θ} + |w|²e^{−c₂θ} − 1), then e₁ = exp(−c₁θ), e₂ = exp(−c₂θ),
    u = z·z̄·e₁, v = w·w̄·e₂, Δ = αu + (2−α)v, z·z̄, w·w̄ and z̄·w by jet
    arithmetic."""
    from lcflat import metrics as mz

    hv = mz.hopf_values(p, hp)
    c1, c2 = hp.c1, hp.c2
    e1, e2, u0, v0 = hv.e1, hv.e2, hv.u, hv.v
    c = np.array([c1, c2, c1, c2])
    Fx = np.array([hv.zb * e1, hv.wb * e2, hv.z * e1, hv.w * e2])
    Fxx = np.array([[0.0, 0.0, e1, 0.0], [0.0, 0.0, 0.0, e2],
                    [e1, 0.0, 0.0, 0.0], [0.0, e2, 0.0, 0.0]], dtype=complex)
    Ft = -(c1 * u0 + c2 * v0)
    Ftt = c1 * c1 * u0 + c2 * c2 * v0
    tx = -Fx / Ft
    cross = (-c * Fx)[:, None] * tx
    theta = WJet(hv.theta, tx, -(Fxx + cross + cross.T + Ftt * (tx[:, None] * tx)) / Ft)

    (z, w), (zb, wb) = coordinate_jets(2, p)
    e1j, e2j = exp(-c1 * theta), exp(-c2 * theta)
    u, v = z * zb * e1j, w * wb * e2j
    assert (u + v - 1.0).max_abs() <= 1e-10 * (1.0 + theta.max_abs())
    return mz.HopfFrame(z, w, zb, wb, theta, exp(hp.k * theta), e1j, e2j, u, v,
                        hp.alpha * u + (2.0 - hp.alpha) * v, z * zb, w * wb, zb * w)


def hopf_metric_oracle(spec, pt):
    """(H, dH, ddH) of a hopf-lc-flat or hopf-omega-lambda metric: the closed
    form `metrics.hopf_metric` evaluated on the jets of `hopf_jets`."""
    from lcflat import metrics as mz

    return partials(mz.hopf_metric(spec, hopf_jets(pt, spec.hopf_params())))


def hopf_field_oracle(f, pt, hp):
    """The log-phi field (scale·kθ) or log-delta field (scale·log Δ) as a jet
    of `hopf_jets`."""
    hj = hopf_jets(pt, hp)
    if f.kind == "log-phi":
        return (f.scale * hp.k) * hj.theta
    return f.scale * log(hj.delta)


def phi_jets(pt, hp):
    """(Φ, θ, Δ) jets at pt from the arrays of `metrics.phi_field`, on the
    scalar frame at pt."""
    from lcflat import metrics as mz

    return tuple(WJet(*arrays) for arrays in mz.phi_field(mz.hopf_values(pt, hp), hp))


def plant_batch_broadcast_error(monkeypatch):
    """Plant, in the hopf-standard rows, a numpy broadcasting error that
    only a sample of more than two points raises: the batch axis added
    against a per-point axis of the rows."""
    from lcflat import metrics as mz

    build = mz._hopf_standard_rows

    def planted(pts):
        return build(pts) + np.zeros(pts.shape[:-1] + (1,))

    monkeypatch.setattr(mz, "_hopf_standard_rows", planted)


def count_prefixes(monkeypatch) -> list:
    """A list that records the k of every `MetricJet.prefix(k)` taken."""
    taken, prefix = [], MetricJet.prefix
    monkeypatch.setattr(MetricJet, "prefix", lambda m, k: taken.append(k) or prefix(m, k))
    return taken


def random_small_point(n, rng, scale=0.3):
    return tuple(scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))


def hopf_theta_equation(z0, w0, k1, k2):
    """F(θ) = |z|²e^{−k₁θ/π} + |w|²e^{−k₂θ/π} − 1 on jets at (z0, w0), for
    `implicit_solve`."""
    z, w = jet_var(1, z0, 2), jet_var(2, w0, 2)
    zz, ww = z * conj(z), w * conj(w)

    def F(theta):
        return zz * exp(theta * (-k1 / math.pi)) + ww * exp(theta * (-k2 / math.pi)) - 1.0

    return F


def theta_root_oracle(p, hp):
    """θ at p by the sorted-list Newton loop that `metrics._theta_root` replaced,
    kept as the bit-for-bit oracle of its two-term rewrite."""
    try:
        zz, ww = abs(p[0]) ** 2, abs(p[1]) ** 2
    except OverflowError:
        raise ValueError("|z|² or |w|² is outside the floating-point range at this point") from None
    terms = [(math.log(x), c) for x, c in ((zz, hp.k1 / math.pi), (ww, hp.k2 / math.pi))
             if x > 0.0]
    if not terms:
        raise ValueError("Φ is undefined at the origin")
    theta = max(lx / c for lx, c in terms)
    for _ in range(100):
        expo = sorted(((lx - c * theta, c) for lx, c in terms), reverse=True)
        g = math.expm1(expo[0][0]) + sum(math.exp(e) for e, _ in expo[1:])
        dg = -sum(c * math.exp(e) for e, c in expo)
        step = g / dg
        theta -= step
        if abs(step) <= 1e-14 * (abs(theta) - 1.0 / dg):
            break
    else:
        raise ValueError("Φ root iteration did not converge")
    if abs(hp.k * theta) > math.log(sys.float_info.max):
        raise ValueError("Φ is outside the floating-point range at this point")
    return theta


# -- oracles for the geometry: the derivations they replaced --------------------------


def jet_det(h):
    """Determinant of a small jet matrix by Laplace expansion."""
    n = len(h)
    if n == 1:
        return h[0][0]
    if n == 2:
        return h[0][0] * h[1][1] - h[0][1] * h[1][0]
    det = jet_const(0.0, h[0][0].n_vars)
    for j in range(n):
        minor = [[h[r][c] for c in range(n) if c != j] for r in range(1, n)]
        det = det + ((-1) ** j) * h[0][j] * jet_det(minor)
    return det


def chern_ricci_oracle(m):
    """R_{ij̄} = −∂²log det h/∂z^i∂z̄^j from the jet of log det over the entry
    jets rebuilt from the arrays."""
    _, _, hess = partials(log(jet_det(entry_jets(m))))
    return -hess[: m.n, m.n :]


def lowered_lc_curvature(m):
    """𝔯R_{ij̄kℓ̄} = h_{sℓ̄} 𝔯R^s_{ij̄k}, as [i, j, k, l]."""
    return np.einsum("sl,sijk->ijkl", m.H, geo.lc_curvature(m))


def lc_scalar_oracle(m):
    """s_LC as the double trace h^{ij̄} h^{kℓ̄} 𝔯R_{ij̄kℓ̄} of the lowered tensor."""
    G = m.inverse.T
    return float(np.einsum("ij,kl,ijkl->", G, G, lowered_lc_curvature(m)).real)


def torsion_oracle(m):
    """T^k_{ij} = h^{kℓ̄}(∂h_{jℓ̄}/∂z^i − ∂h_{iℓ̄}/∂z^j), raised from the metric's gradient."""
    dval = m.dH[:, :, : m.n].transpose(2, 0, 1)  # [i, j, l] = ∂h_{jℓ̄}/∂z^i
    return np.einsum("lk,ijl->kij", m.inverse, dval - dval.transpose(1, 0, 2))


def _real_blocks(M):
    """Real block matrices [[2Re M, 2Im M], [−2Im M, 2Re M]] over the last two axes."""
    A = 2.0 * M.real
    B = 2.0 * M.imag
    return np.block([[A, B], [-B, A]])


def riemannian_scalar_oracle(m):
    """The Riemannian scalar on the real coordinates z^k = x^k + √−1 y^k, where
    g_xx = g_yy = 2 Re h and g_xy = 2 Im h, from the real partials of the jets."""
    n = m.n
    # ∂/∂x^k = ∂_k + ∂̄_k and ∂/∂y^k = √−1 (∂_k − ∂̄_k), as rows over Wirtinger slots
    eye = np.eye(n)
    W = np.block([[eye, eye], [1j * eye, -1j * eye]])

    Gv = _real_blocks(m.H)
    Gd = _real_blocks(np.einsum("cs,ijs->cij", W, m.dH))  # [c, a, b] = ∂_c g_ab
    Gdd = _real_blocks(np.einsum("cs,et,ijst->ceij", W, W, m.ddH))  # [c, e, a, b]

    Ginv = np.linalg.inv(Gv)
    dGinv = -np.einsum("la,cab,br->clr", Ginv, Gd, Ginv)

    # Γ^l_{mn} = ½ g^{lr} (∂_m g_rn + ∂_n g_rm − ∂_r g_mn)
    bracket = (
        np.einsum("mrn->rmn", Gd)
        + np.einsum("nrm->rmn", Gd)
        - np.einsum("rmn->rmn", Gd)
    )
    Gamma = 0.5 * np.einsum("lr,rmn->lmn", Ginv, bracket)

    dbracket = (
        np.einsum("cmrn->crmn", Gdd)
        + np.einsum("cnrm->crmn", Gdd)
        - np.einsum("crmn->crmn", Gdd)
    )
    dGamma = 0.5 * (
        np.einsum("clr,rmn->clmn", dGinv, bracket)
        + np.einsum("lr,crmn->clmn", Ginv, dbracket)
    )

    # R_{mn} = ∂_l Γ^l_{mn} − ∂_n Γ^l_{ml} + Γ^l_{lr} Γ^r_{mn} − Γ^l_{nr} Γ^r_{ml}
    ric = (
        np.einsum("llmn->mn", dGamma)
        - np.einsum("nlml->mn", dGamma)
        + np.einsum("llr,rmn->mn", Gamma, Gamma)
        - np.einsum("lnr,rml->mn", Gamma, Gamma)
    )
    return float(np.einsum("mn,mn->", Ginv, ric))


def riemannian_scalar_full_oracle(m):
    """The Riemannian scalar on the Wirtinger slots, as `geometry` took it
    before contracting early: the whole (2n)⁴ tensor ∂_c Γ^l_{mn} is built and
    R_mn reads two of its traces."""
    n = m.n
    G, dG, ddG = (np.zeros((2 * n, 2 * n) + A.shape[2:], complex) for A in (m.H, m.dH, m.ddH))
    for B, A in ((G, m.H), (dG, m.dH), (ddG, m.ddH)):
        B[:n, n:] = A
        B[n:, :n] = A.swapaxes(0, 1)

    Ginv = np.linalg.inv(G)
    dGinv = -np.einsum("la,abc,br->lrc", Ginv, dG, Ginv)
    bracket = dG.transpose(0, 2, 1) + dG - dG.transpose(2, 0, 1)
    Gamma = 0.5 * np.einsum("lr,rmn->lmn", Ginv, bracket)
    dbracket = ddG.transpose(0, 2, 1, 3) + ddG - ddG.transpose(2, 0, 1, 3)
    dGamma = 0.5 * (
        np.einsum("lrc,rmn->lmnc", dGinv, bracket)
        + np.einsum("lr,rmnc->lmnc", Ginv, dbracket)
    )
    ric = (
        np.einsum("lmnl->mn", dGamma)
        - np.einsum("lmln->mn", dGamma)
        + np.einsum("llr,rmn->mn", Gamma, Gamma)
        - np.einsum("lnr,rml->mn", Gamma, Gamma)
    )
    return float(np.einsum("mn,mn->", Ginv, ric).real)


def connection_oracle(m):
    """The six connection arrays (chern, lc_hol, lc_anti and their gradients)
    raised symbol by symbol, as `geometry` built them before stacking:
    ∂A = −A(∂H)A in one contraction, then each h^{kℓ̄} T[j, ℓ, i] with its
    gradient by the product rule."""
    n = m.n
    A, dH, ddH = m.inverse, m.dH, m.ddH
    dA = -np.einsum("ab,bcs,cd->ads", A, dH, A)

    def raise_index(T, dT):
        val = np.einsum("lk,jli->kij", A, T)
        grad = np.einsum("lks,jli->kijs", dA, T) + np.einsum("lk,jlis->kijs", A, dT)
        return val, grad

    chern, chern_grad = raise_index(dH[:, :, :n], ddH[:, :, :n])
    B = dH[:, :, n:] - dH[:, :, n:].transpose(0, 2, 1)
    dB = ddH[:, :, n:] - ddH[:, :, n:].transpose(0, 2, 1, 3)
    anti, anti_grad = raise_index(B, dB)
    return (chern, 0.5 * (chern + chern.transpose(0, 2, 1)), 0.5 * anti,
            chern_grad, 0.5 * (chern_grad + chern_grad.transpose(0, 2, 1, 3)), 0.5 * anti_grad)


# -- finite-difference oracle ---------------------------------------------------------

# Central-difference steps of `fd_jet`, as fractions of each coordinate's
# length scale: first derivatives, second derivatives.
FD_STEP, FD_STEP2 = 1e-3, 1e-2


def hopf_flatness(hp):
    """The `fd_jet` flatness of a function of the Hopf potential: 1 in z and
    2 − α in w, where Φ ∝ |w|^{2/(2−α)} changes by about itself over
    |w|(2 − α)/2."""
    return (1.0, 2.0 - hp.alpha)


def _central_differences(fn, pt, h1, h2):
    """Gradient and Hessian in the real coordinates (x, y) of pt by central
    differences, with steps h1[a] (first derivatives) and h2[a] (second)."""
    nv, d = len(pt), len(h1)

    def shift(tvec):
        return fn(tuple(pt + tvec[:nv] + 1j * tvec[nv:]))

    f0 = complex(shift(np.zeros(d)))
    grad = np.zeros(d, dtype=complex)
    for a in range(d):
        e = np.zeros(d)
        e[a] = h1[a]
        grad[a] = (shift(e) - shift(-e)) / (2 * h1[a])
    hess = np.zeros((d, d), dtype=complex)
    for a in range(d):
        ea = np.zeros(d)
        ea[a] = h2[a]
        hess[a, a] = (shift(ea) - 2 * f0 + shift(-ea)) / h2[a] ** 2
        for b in range(a + 1, d):
            eb = np.zeros(d)
            eb[b] = h2[b]
            mixed = (
                shift(ea + eb) - shift(ea - eb) - shift(-ea + eb) + shift(-ea - eb)
            ) / (4 * h2[a] * h2[b])
            hess[a, b] = hess[b, a] = mixed
    return f0, grad, hess


def fd_jet(fn, p, n_vars, flatness=1.0):
    """Finite-difference estimate of a function's (value, gradient, Hessian) at p.

    `fn` maps a coordinate tuple to a complex value.  Derivatives are taken in
    the 2·n_vars real coordinates and converted to Wirtinger derivatives via
    ∂_{z^k} = ½(∂_{x^k} − i∂_{y^k}), ∂_{z̄^k} = ½(∂_{x^k} + i∂_{y^k}), in the
    slots of WJet's gradient [2n] and Hessian [2n, 2n].

    Coordinate k's steps are FD_STEP and FD_STEP2 times its length scale
    max|p|·flatness[k] (a scalar flatness serves every coordinate; Hopf
    callers pass `hopf_flatness`).  Central differences at h and h/2 are
    combined by one Richardson step, (4D(h/2) − D(h))/3, whose truncation
    error is O(h⁴).  That allows steps large enough to keep the roundoff of
    the function's values small: where α → 2, Φ itself carries a relative
    roundoff of about 4e-14, and a plain second-order stencil cannot get the
    Hessian's small entries to 1e-6 at any step.
    """
    pt = np.array(p, dtype=complex)
    length = float(np.max(np.abs(pt))) * np.broadcast_to(np.asarray(flatness, float), (n_vars,))
    h1, h2 = FD_STEP * np.tile(length, 2), FD_STEP2 * np.tile(length, 2)
    f0, grad, hess = _central_differences(fn, pt, h1, h2)
    _, grad_half, hess_half = _central_differences(fn, pt, h1 / 2, h2 / 2)
    grad, hess = (4 * grad_half - grad) / 3, (4 * hess_half - hess) / 3

    # complex direction vectors: columns are real-coordinate weights
    nv, d = n_vars, 2 * n_vars
    dirs = np.zeros((2 * nv, d), dtype=complex)  # row = formal variable slot
    for k in range(nv):
        dirs[k, k] = 0.5
        dirs[k, nv + k] = -0.5j  # ∂_{z^k}
        dirs[nv + k, k] = 0.5
        dirs[nv + k, nv + k] = 0.5j  # ∂_{z̄^k}
    return f0, dirs @ grad, dirs @ hess @ dirs.T


def fd_oracle(spec, p):
    """FD (value, gradient, Hessian) of every metric entry, keyed by (i, j);
    a spec with Hopf parameters takes the Hopf flatness."""
    from lcflat import metrics as mz

    n = spec.dim
    hp = spec.hopf_params()
    flatness = hopf_flatness(hp) if hp is not None and n == 2 else 1.0

    def entry_fn(i, j):
        return lambda q: mz.build_metric(spec, q).H[i, j]

    return {(i, j): fd_jet(entry_fn(i, j), p, n, flatness) for i in range(n) for j in range(n)}
