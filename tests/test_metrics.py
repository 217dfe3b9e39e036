"""Metric zoo tests: potential solve, closed-form derivative jets, metric
assembly, deck invariance, conformal scaling, and the MetricSpec grammar."""

import math
import sys
from decimal import Context, Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    coordinate_jets,
    count_prefixes,
    entry_jets,
    fd_jet,
    field_jet,
    hopf_flatness,
    hopf_field_oracle,
    hopf_jets,
    hopf_metric_oracle,
    hopf_standard_jets,
    hopf_theta_equation,
    leibniz_metric_arrays,
    phi_jets,
    poly_field_jet,
    theta_root_oracle,
)
from lcflat import cli
from lcflat import geometry as geo
from lcflat import metrics as M
from lcflat import verify as V
from lcflat import wjet
from lcflat.wjet import d_dz, d_dzbar, log, pow_real

E = math.e

HOPF_GRID = [
    M.HopfParams(E, E),
    M.HopfParams(E**2, E),
    M.HopfParams(E**1.5, E**1.1),
]

POINTS = [
    (0.8 + 0.3j, -0.5 + 1.1j),
    (1.3 - 0.2j, 0.4 + 0.9j),
    (-0.7 + 0.8j, 1.2 - 0.3j),
    (0.05 + 0.02j, 1.0 - 0.4j),
]


# -- potential ---------------------------------------------------------------


@pytest.mark.parametrize("hp", HOPF_GRID, ids=["a=b", "a=e2", "a=e1.5"])
@pytest.mark.parametrize("pt", POINTS)
def test_constraint_jet_is_identically_one(hp, pt):
    """|z|²Φ^{−α} + |w|²Φ^{α−2} = 1 must hold through second order, not just in value."""
    Phi, _, _ = phi_jets(pt, hp)
    zs, zbs = coordinate_jets(2, pt)
    c = zs[0] * zbs[0] * pow_real(Phi, -hp.alpha) + zs[1] * zbs[1] * pow_real(
        Phi, hp.alpha - 2.0
    )
    assert (c - 1.0).max_abs() < 1e-12


def test_phi_deck_scaling_and_delta_invariance():
    hp = M.HopfParams(E**2, E)
    pt = POINTS[0]
    Phi, _, Delta = phi_jets(pt, hp)
    Phi2, _, Delta2 = phi_jets((hp.a * pt[0], hp.b * pt[1]), hp)
    assert abs(Phi2.value / (abs(hp.a) * abs(hp.b) * Phi.value) - 1) < 1e-10
    assert abs(Delta2.value - Delta.value) < 1e-12
    # |z|²Φ^{−α} is itself deck-invariant
    u1 = abs(pt[0]) ** 2 * Phi.value.real ** (-hp.alpha)
    u2 = abs(hp.a * pt[0]) ** 2 * Phi2.value.real ** (-hp.alpha)
    assert abs(u1 - u2) < 1e-12


def test_equal_multipliers_degeneration():
    """a=b collapses to α=1, Δ≡1, Φ=|z|²+|w|² as full jets."""
    hp = M.HopfParams(E, E)
    assert hp.alpha == 1.0
    pt = POINTS[1]
    Phi, _, Delta = phi_jets(pt, hp)
    zs, zbs = coordinate_jets(2, pt)
    S = zs[0] * zbs[0] + zs[1] * zbs[1]
    assert (Phi - S).max_abs() < 1e-12
    assert (Delta - 1.0).max_abs() < 1e-12


def test_phi_at_unit_point_on_axis():
    hp = M.HopfParams(E**2, E)
    Phi, _, Delta = phi_jets((1.0, 0.0), hp)
    assert abs(Phi.value - 1.0) < 1e-12
    assert abs(Delta.value - hp.alpha) < 1e-12


def test_phi_rejects_origin():
    with pytest.raises(ValueError, match="origin"):
        phi_jets((0.0, 0.0), M.HopfParams(E, E))
    with pytest.raises(ValueError, match="origin"):
        M.phi_value((0.0, 0.0), M.HopfParams(E, E))


def test_phi_value_matches_jet_constant_term():
    hp = M.HopfParams(E**1.5, E**1.1)
    for pt in POINTS:
        Phi, _, _ = phi_jets(pt, hp)
        assert abs(M.phi_value(pt, hp) - Phi.value.real) < 1e-11


# The chord solve and the closed form each sit within about 2e-11 and 4e-11
# of a 50-digit implicit-function solution at (1e6, 1.0001), where both are
# limited by conditioning; elsewhere they agree to roundoff.
THETA_CASES = [(hp, 1e-12) for hp in HOPF_GRID + [M.HopfParams(1e3, 1.01)]]
THETA_CASES.append((M.HopfParams(1e6, 1.0001), 1e-10))


@pytest.mark.parametrize("hp, rel", THETA_CASES, ids=["a=b", "a=e2", "a=e1.5", "1e3", "1e6"])
def test_phi_field_solves_theta_in_closed_form(hp, rel, monkeypatch):
    """phi_field never calls implicit_solve, and its θ jet matches the chord
    solve of the same equation coefficient by coefficient."""
    solve = wjet.implicit_solve
    calls = []

    def counting_solve(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(wjet, "implicit_solve", counting_solve)
    monkeypatch.setattr(M, "implicit_solve", counting_solve, raising=False)
    pts = V.sample_points("hopf-fundamental", 24, 3, hp=hp)
    thetas = [phi_jets(pt, hp)[1] for pt in pts]
    assert calls == []

    for pt, theta in zip(pts, thetas):
        F = hopf_theta_equation(pt[0], pt[1], hp.k1, hp.k2)
        want = solve(F, theta.value.real, 1e-13, 2)
        assert (theta - want).max_abs() <= rel * want.max_abs()


@pytest.mark.parametrize("hp", HOPF_GRID + [M.HopfParams(1e3, 1.01)],
                         ids=["a=b", "a=e2", "a=e1.5", "a=1e3,b=1.01"])
def test_phi_and_delta_jets_match_finite_differences(hp):
    """Φ and Δ from the closed-form θ jet against central differences of
    phi_value and of the defining Δ = α|z|²Φ^{−α} + (2−α)|w|²Φ^{α−2}, with
    the steps scaled to 2 − α (2.9e-3 at (1e3, 1.01), where Φ is steep)."""
    al = hp.alpha

    def delta(q):
        phi = M.phi_value(q, hp)
        return al * abs(q[0]) ** 2 * phi**-al + (2.0 - al) * abs(q[1]) ** 2 * phi ** (al - 2.0)

    for pt in V.sample_points("hopf-fundamental", 3, 5, hp=hp):
        Phi, _, Delta = phi_jets(pt, hp)
        for jet, fn in ((Phi, lambda q: M.phi_value(q, hp)), (Delta, delta)):
            _, grad, hess = fd_jet(fn, pt, 2, hopf_flatness(hp))
            assert np.max(np.abs(grad - jet.grad) / (1.0 + np.abs(jet.grad))) < 1e-8
            assert np.max(np.abs(hess - jet.hess) / (1.0 + np.abs(jet.hess))) < 1e-6


def test_phi_field_rejects_a_theta_jet_that_misses_its_equation(monkeypatch):
    """θ's row is checked against F through order 2: a wrong Hessian fails."""
    row = M._theta_row

    def bent(hv, hp):
        r = row(hv, hp)
        r[5:] += 1e-6
        return r

    monkeypatch.setattr(M, "_theta_row", bent)
    with pytest.raises(ValueError, match="failed to converge"):
        phi_jets(POINTS[0], HOPF_GRID[1])


# (|a|, |b|) log-spaced over [1.0001, 1e6] with |a| >= |b|, and |z|², |w|² over
# 1e-12 .. 1e12 plus zero: from Φ-equation terms of equal weight (α = 1) to
# α → 2, where Φ^{α−2} is nearly flat and Φ leaves the float range.
_MODULI = [1.0001, 31.6, 1000.0, 31623.0, 1e6]
_ORACLE_GRID = [(a, b) for a in _MODULI for b in _MODULI if b <= a]
_SQUARES = [0.0, 1e-12, 1e-6, 1.0, 1e6, 1e12]


def _log_phi_bisection(z: float, w: float, hp) -> Decimal:
    """log Φ at (z, w) by bisection on |z|²Φ^{−α} + |w|²Φ^{α−2} = 1 in
    40-digit decimal arithmetic, independent of the float solver."""
    ctx = Context(prec=40, Emax=10**9, Emin=-(10**9))
    k1, k2 = Decimal(hp.k1), Decimal(hp.k2)
    al = ctx.divide(2 * k1, k1 + k2)
    terms = [(ctx.multiply(Decimal(x), Decimal(x)), beta)
             for x, beta in ((z, al), (w, 2 - al)) if x != 0.0]

    def excess(u):
        return sum(ctx.multiply(xx, ctx.exp(-beta * u)) for xx, beta in terms) - 1

    # At lo one term is 1, so excess >= 0; at hi every term is <= e^{-1}.
    lo = max(ctx.divide(xx.ln(ctx), beta) for xx, beta in terms)
    hi = lo + 1 / min(beta for _, beta in terms)
    for _ in range(90):
        mid = (lo + hi) / 2
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@pytest.mark.parametrize("a,b", _ORACLE_GRID)
def test_phi_value_matches_bisection_oracle_over_wide_range(a, b):
    hp = M.HopfParams(a, b)
    for zz in _SQUARES:
        for ww in _SQUARES:
            if zz == ww == 0.0:
                continue
            z, w = math.sqrt(zz), math.sqrt(ww)
            u = _log_phi_bisection(z, w, hp)
            if abs(u) > math.log(sys.float_info.max):
                with pytest.raises(ValueError, match="floating-point range"):
                    M.phi_value((z, w), hp)
            else:
                assert M.phi_value((z, w), hp) == pytest.approx(math.exp(u), rel=1e-12)


def test_hopf_params_validation():
    with pytest.raises(ValueError, match=r"\|a\| >= \|b\| > 1"):
        M.HopfParams(2.0, 3.0)
    with pytest.raises(ValueError, match=r"\|a\| >= \|b\| > 1"):
        M.HopfParams(3.0, 1.0)
    # complex multipliers are fine as long as the moduli are admissible
    M.HopfParams(3.0 * np.exp(1j), 2.0 * np.exp(-2j))


# -- closed-form matrices versus derivatives of the Φ jet --------------------------


@pytest.mark.parametrize("hp", HOPF_GRID, ids=["a=b", "a=e2", "a=e1.5"])
def test_closed_form_gradient_matches_jet_derivatives(hp):
    """The closed-form P of `hessian_forms` is ∂Φ ⊗ ∂̄Φ read off the Φ jet."""
    for pt in POINTS[:2]:
        _, P = M.hessian_forms(M.hopf_values(pt, hp), hp)
        _, dPhi, _ = wjet.partials(phi_jets(pt, hp)[0])
        want = np.outer(dPhi[:2], dPhi[2:])
        assert np.all(np.abs(P - want) < 1e-12 * (1 + np.abs(P)))


def test_outer_product_matrix_is_gradient_outer_product():
    """Entry by entry, P[i][j] = ∂_iΦ · ∂̄_jΦ with the gradient of the Φ jet."""
    hp = M.HopfParams(E**2, E)
    pt = POINTS[1]
    _, P = M.hessian_forms(M.hopf_values(pt, hp), hp)
    _, dPhi, _ = wjet.partials(phi_jets(pt, hp)[0])
    holo, anti = dPhi[:2], dPhi[2:]
    for i in range(2):
        for j in range(2):
            want = holo[i] * anti[j]
            assert abs(P[i, j] - want) < 1e-12 * (1 + abs(want))


@pytest.mark.parametrize("hp", HOPF_GRID, ids=["a=b", "a=e2", "a=e1.5"])
def test_closed_form_hessian_matches_log_phi_jet(hp):
    pt = POINTS[2]
    Phi, _, _ = phi_jets(pt, hp)
    lp = log(Phi)
    L = M.hessian_forms(M.hopf_values(pt, hp), hp)[0]
    for i in range(2):
        for j in range(2):
            want = lp.hess[i, 2 + j]
            assert abs(L[i, j] - want) < 1e-10 * (1 + abs(want))


# -- hessian form matrices ------------------------------------------------------


def test_hessian_forms_closed_form_entries_and_rank():
    hp = M.HopfParams(E**2, E)
    pt = POINTS[0]
    L, P = M.hessian_forms(M.hopf_values(pt, hp), hp)
    Phi, _, Delta = phi_jets(pt, hp)
    phi, dl, al = Phi.value.real, Delta.value.real, hp.alpha
    z, w = pt
    assert abs(L[0, 0] - (al - 2) ** 2 * abs(w) ** 2 / (dl**3 * phi**2)) < 1e-10
    assert abs(L[1, 1] - al**2 * abs(z) ** 2 / (dl**3 * phi**2)) < 1e-10
    # both matrices are rank one
    assert abs(np.linalg.det(L)) < 1e-12
    assert abs(np.linalg.det(P)) < 1e-12
    assert np.max(np.abs(L - L.conj().T)) < 1e-14
    assert np.max(np.abs(P - P.conj().T)) < 1e-14
    assert np.linalg.eigvalsh(L).max() > 0
    assert np.linalg.eigvalsh(L).min() > -1e-14


@pytest.mark.parametrize("hp", [M.HopfParams(E**2, E), M.HopfParams(1e3, 1.01),
                                M.HopfParams(3.3, 2.9), M.HopfParams(1e6, 1.0001)],
                         ids=["e2-e", "1e3", "3.3-2.9", "1e6"])
def test_hessian_forms_of_a_sample_equal_those_of_each_point_bit_for_bit(hp):
    """L and P over a stacked frame of 300 points equal, row by row, L and P
    on each point's scalar frame: numpy's ufuncs round a scalar as they
    round an array."""
    pts = V.sample_points("hopf-fundamental", 300, 17, hp=hp)
    L, P = M.hessian_forms(M.hopf_frames(np.asarray(pts), hp), hp)
    for k, p in enumerate(pts):
        one_L, one_P = M.hessian_forms(M.hopf_values(p, hp), hp)
        assert L[k].tobytes() == one_L.tobytes() and P[k].tobytes() == one_P.tobytes(), p


@pytest.mark.parametrize("hp", [M.HopfParams(E**2, E), M.HopfParams(1e3, 1.01),
                                M.HopfParams(complex(E**2 * np.exp(0.4j)), complex(E * np.exp(-1.1j))),
                                M.HopfParams(1e6, 1.0001)],
                         ids=["e2-e", "1e3", "complex", "1e6"])
def test_frame_products_equal_complex_product_bit_for_bit(hp):
    """The frame's z·z̄, w·w̄ and z̄·w, the values of the rows of |z|², |w|²
    and z̄w, equal `complex_product` of its coordinates bit for bit: on a
    stacked frame of 300 points, and on each point's scalar frame.  Every
    field of the stacked frame is the scalar frames' field, with the
    coordinates and products complex and the rest real."""
    pts = V.sample_points("hopf-fundamental", 300, 17, hp=hp)
    hv = M.hopf_frames(np.asarray(pts), hp)
    for got, a, b in ((hv.zz, hv.z, hv.zb), (hv.ww, hv.w, hv.wb), (hv.zbw, hv.zb, hv.w)):
        assert got.dtype == complex and got.tobytes() == M.complex_product(a, b).tobytes()
    frames = [M.hopf_values(p, hp) for p in pts]
    for name in M.HopfFrame._fields:
        want = np.array([getattr(f, name) for f in frames])
        got = getattr(hv, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    for f in frames:
        for got, a, b in ((f.zz, f.z, f.zb), (f.ww, f.w, f.wb), (f.zbw, f.zb, f.w)):
            want = M.complex_product(a, b)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_hessian_form_equal_multipliers_at_symmetric_point():
    """a=b at (1,1): ∂∂̄log(|z|²+|w|²) = ¼[[1,−1],[−1,1]]."""
    hp = M.HopfParams(E, E)
    L, _ = M.hessian_forms(M.hopf_values((1.0, 1.0), hp), hp)
    assert np.max(np.abs(L - 0.25 * np.array([[1, -1], [-1, 1]]))) < 1e-12


@pytest.mark.parametrize("hp, rel", [(hp, 1e-14) for hp in HOPF_GRID] + [
    (M.HopfParams(1e3, 1.01), 1e-12), (M.HopfParams(1e6, 1.0001), 1e-10),
], ids=["a=b", "a=e2", "a=e1.5", "1e3", "1e6"])
def test_hopf_metrics_equal_the_closed_forms_of_L_and_P(hp, rel):
    """The metric jets, built from θ's jets alone, have the values
    ω_λ = (1+λ)L + P/Φ² and Δ³ω_{−1/2} = Δ³(½L + P/Φ²), with L and P from
    `hessian_forms`."""
    for pt in V.sample_points("hopf-fundamental", 10, 7, hp=hp):
        L, P = M.hessian_forms(M.hopf_values(pt, hp), hp)
        hv = M.hopf_values(pt, hp)
        Phi, Delta = math.exp(hp.k * hv.theta), hv.delta
        cases = [(M.MetricSpec(kind="hopf-omega-lambda", a=hp.a, b=hp.b, lam=lam),
                  (1 + lam) * L + P / Phi**2) for lam in (-0.5, 0.0, 1.0)]
        cases.append((M.MetricSpec(kind="hopf-lc-flat", a=hp.a, b=hp.b),
                      Delta**3 * (0.5 * L + P / Phi**2)))
        for spec, want in cases:
            got = M.build_metric(spec, pt).H
            assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


# -- metric assembly --------------------------------------------------------------


@pytest.mark.parametrize("lam", [-0.5, 0.0, 1.0])
@pytest.mark.parametrize("hp", HOPF_GRID, ids=["a=b", "a=e2", "a=e1.5"])
def test_omega_lambda_determinant_formula(hp, lam):
    spec = M.MetricSpec(kind="hopf-omega-lambda", a=hp.a, b=hp.b, lam=lam)
    for pt in POINTS:
        m = M.build_metric(spec, pt)
        Phi, _, Delta = phi_jets(pt, hp)
        expect = (1 + lam) / (Delta.value.real**3 * Phi.value.real**2)
        det = np.linalg.det(m.H)
        assert abs(det - expect) / abs(expect) < 1e-10
        assert np.linalg.eigvalsh(m.H).min() > 0


def test_omega_lambda_matches_direct_phi_derivative_assembly():
    """h_{ij̄} = (1+λ)Φ_{ij̄}/Φ − λ Φ_iΦ_j̄/Φ², with Φ derivatives read off the solved jet."""
    hp = M.HopfParams(E**1.5, E**1.1)
    lam = 0.7
    pt = POINTS[3]
    m = M.build_metric(M.MetricSpec(kind="hopf-omega-lambda", a=hp.a, b=hp.b, lam=lam), pt)
    Phi, _, _ = phi_jets(pt, hp)
    phi = Phi.value
    for i in range(2):
        for j in range(2):
            phi_ij = Phi.hess[i, 2 + j]
            phi_i = Phi.grad[i]
            phi_jb = Phi.grad[2 + j]
            want = (1 + lam) * phi_ij / phi - lam * phi_i * phi_jb / phi**2
            assert abs(m.H[i, j] - want) < 1e-10 * (1 + abs(want))


def test_lc_flat_is_delta_cubed_times_omega_minus_half():
    hp = M.HopfParams(E**2, E)
    pt = POINTS[0]
    mf = M.build_metric(M.MetricSpec(kind="hopf-lc-flat", a=hp.a, b=hp.b), pt)
    mh = M.build_metric(M.MetricSpec(kind="hopf-omega-lambda", a=hp.a, b=hp.b, lam=-0.5), pt)
    _, _, Delta = phi_jets(pt, hp)
    D3 = Delta * Delta * Delta
    hf, hh = entry_jets(mf), entry_jets(mh)
    for i in range(2):
        for j in range(2):
            want = D3 * hh[i][j]
            assert (hf[i][j] - want).max_abs() < 1e-12 * (1 + want.max_abs())


def test_lc_flat_equals_conformal_scaling_of_omega_minus_half():
    """Same metric expressed through the conformal pathway e^{3logΔ}·ω_{−1/2}."""
    hp = M.HopfParams(E**2, E)
    conf = M.MetricSpec(
        kind="conformal",
        base=M.MetricSpec(kind="hopf-omega-lambda", a=hp.a, b=hp.b, lam=-0.5),
        f=M.FieldSpec(kind="log-delta", scale=3.0),
    )
    direct = M.MetricSpec(kind="hopf-lc-flat", a=hp.a, b=hp.b)
    for pt in POINTS[:2]:
        hc = entry_jets(M.build_metric(conf, pt))
        hd = entry_jets(M.build_metric(direct, pt))
        for i in range(2):
            for j in range(2):
                assert (hc[i][j] - hd[i][j]).max_abs() < 1e-12


def test_flat_and_kahler_test_metrics():
    m = M.build_metric(M.MetricSpec(kind="flat"), (0.4 + 0.1j, -0.2j))
    assert np.allclose(m.H, np.eye(2))
    mk = M.build_metric(M.MetricSpec(kind="kahler-test"), (0.4 + 0.1j, -0.2j))
    assert geo.kahler_defect(mk) < 1e-14
    assert np.linalg.eigvalsh(mk.H).min() >= 1.0 - 1e-12
    mk3 = M.build_metric(M.MetricSpec(kind="kahler-test", n=3), (0.1, 0.2j, 0.3))
    assert mk3.n == 3
    assert geo.kahler_defect(mk3) < 1e-14


def test_hopf_standard_metric_has_torsion():
    m = M.build_metric(M.MetricSpec(kind="hopf-standard", a=E, b=E), POINTS[0])
    _, tsq = geo.torsion(m)
    assert tsq > 1e-3


def test_user_polynomial_determinism_and_pd_guard():
    spec = M.MetricSpec(kind="user-polynomial", seed=12, amp=0.05)
    pt = (0.3 - 0.2j, 0.5 + 0.4j)
    m1 = M.build_metric(spec, pt)
    m2 = M.build_metric(spec, pt)
    for a, b in zip((m1.H, m1.dH, m1.ddH), (m2.H, m2.dH, m2.ddH)):
        assert np.array_equal(a, b)
    other = M.build_metric(M.MetricSpec(kind="user-polynomial", seed=13, amp=0.05), pt)
    assert any(not np.array_equal(a, b)
               for a, b in zip((m1.H, m1.dH, m1.ddH), (other.H, other.dH, other.ddH)))
    with pytest.raises(ValueError, match="positive definite"):
        M.build_metric(M.MetricSpec(kind="user-polynomial", seed=12, amp=50.0), pt)


# -- deck invariance ----------------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        M.MetricSpec(kind="hopf-lc-flat", a=E, b=E),
        M.MetricSpec(kind="hopf-lc-flat", a=E**2, b=E),
        M.MetricSpec(kind="hopf-omega-lambda", a=E**2, b=E, lam=0.0),
        M.MetricSpec(kind="hopf-omega-lambda", a=E**1.5, b=E**1.1, lam=1.0),
        M.MetricSpec(kind="hopf-standard", a=E, b=E),
        M.MetricSpec(
            kind="conformal",
            base=M.MetricSpec(kind="hopf-omega-lambda", a=E**2, b=E, lam=-0.5),
            f=M.FieldSpec(kind="log-delta", scale=3.0),
        ),
    ],
    ids=["lc-flat-eq", "lc-flat", "omega0", "omega1", "standard-eq", "conformal-log-delta"],
)
def test_deck_invariance_of_hopf_metrics(spec):
    for pt in POINTS[:3]:
        assert M.deck_invariance_residual(spec, pt) < 1e-10


def test_deck_invariance_with_phased_multipliers():
    spec = M.MetricSpec(kind="hopf-lc-flat", a=E**2 * np.exp(0.7j), b=E * np.exp(-1.1j))
    assert M.deck_invariance_residual(spec, POINTS[0]) < 1e-10


@pytest.mark.parametrize("spec", [
    M.MetricSpec(kind="hopf-lc-flat", a=E**2, b=E),
    # entries of 4e3 to 1.5e5 on this shell
    M.MetricSpec(kind="hopf-omega-lambda", a=1e3 * np.exp(0.4j), b=1.01, lam=2.0),
], ids=["lc-flat", "omega-large"])
def test_deck_residual_catches_wrong_multipliers(spec):
    hp = spec.hopf_params()
    wrong = M.HopfParams(hp.a * 1.001, hp.b)
    for pt in V.sample_points("hopf-fundamental", 5, 2, hp=hp):
        assert M.deck_invariance_residual(spec, pt) < 1e-10
        assert M.deck_invariance_residual(spec, pt, hp=wrong) > 1e-6


def test_deck_flat_negative_control():
    spec = M.MetricSpec(kind="flat", a=E, b=E)
    res = M.deck_invariance_residual(spec, (1.0, 0.0))
    # J I J† − I = (e² − 1)I, normalised by 1 + max|I|
    assert abs(res - (E**2 - 1.0) / 2.0) < 1e-12
    with pytest.raises(ValueError, match="Hopf parameters"):
        M.deck_invariance_residual(M.MetricSpec(kind="flat"), (1.0, 0.0))


# -- the scalar frame -----------------------------------------------------------------


@pytest.mark.parametrize("hp", HOPF_GRID + [M.HopfParams(1e3, 1.01), M.HopfParams(1e6, 1.0001)],
                         ids=["a=b", "a=e2", "a=e1.5", "1e3", "1e6"])
def test_metric_values_equal_the_metric_jets_values_bit_for_bit(hp):
    """The Hopf metrics' closed form on the scalar frame gives the values of
    their rows exactly, and a conformal metric's values, e^f times its base's,
    give the value of its arrays exactly, here and at the deck image."""
    specs = [M.MetricSpec(kind="hopf-omega-lambda", a=hp.a, b=hp.b, lam=lam)
             for lam in (-0.5, 0.0, 1.0)]
    specs.append(M.MetricSpec(kind="hopf-lc-flat", a=hp.a, b=hp.b))
    fields = [M.FieldSpec(kind="log-delta", scale=3.0), M.FieldSpec(kind="log-phi", scale=-0.5),
              M.FieldSpec(kind="zero")]
    specs += [M.MetricSpec(kind="conformal", base=base, f=f)
              for base in (specs[0], specs[3]) for f in fields]
    # The poly field grows with |z|², so it is read at the sampled points only.
    poly = [M.MetricSpec(kind="conformal", base=base, f=M.FieldSpec(kind="poly", seed=5, amp=0.01))
            for base in (specs[0], specs[3])]
    for pt in V.sample_points("hopf-fundamental", 8, 4, hp=hp):
        image = (hp.a * pt[0], hp.b * pt[1])
        for q, spec in [(pt, s) for s in specs + poly] + [(image, s) for s in specs]:
            assert np.array_equal(M.metric_values(spec, q), M.build_metric(spec, q).H)


def test_value_only_identities_build_no_jets(monkeypatch):
    def no_jets(*args):
        raise AssertionError("an order-2 frame or jet was built")

    for owner, name in ((M, "hopf_rows"), (wjet.WJet, "__init__"), (wjet, "_jet")):
        monkeypatch.setattr(owner, name, no_jets)
    omega = M.MetricSpec(kind="hopf-omega-lambda", a=E**2, b=E * np.exp(0.3j), lam=0.5)
    checks = [("det-formula", omega), ("deck-invariance", omega),
              ("deck-invariance", M.MetricSpec(kind="hopf-lc-flat", a=E**2, b=E)),
              ("deck-invariance", M.MetricSpec(kind="hopf-standard", a=E, b=E))]
    for identity, spec in checks:
        rep = V.run_check(V.CheckSpec(identity=identity, metric=spec, n_points=10, seed=3))
        assert rep.verdict == "pass" and not rep.failures


def test_det_and_deck_read_the_values_of_a_sample_in_one_stack(monkeypatch):
    """det-formula stacks the value matrices of its whole sample for one
    determinant, and deck-invariance reads the values at its points and at
    their images in one `metric_values` call."""
    stacks = []
    for name in ("hopf_metric_values", "metric_values"):
        fn = getattr(M, name)
        monkeypatch.setattr(M, name, lambda spec, p, fn=fn, name=name:
                            stacks.append((name, len(p))) or fn(spec, p))
    spec = M.MetricSpec(kind="hopf-omega-lambda", a=E**2, b=E * np.exp(0.3j), lam=0.5)
    for identity, want in (("det-formula", [("hopf_metric_values", 7)]),
                           ("deck-invariance", [("metric_values", 14), ("hopf_metric_values", 14)])):
        stacks.clear()
        rep = V.run_check(V.CheckSpec(identity=identity, metric=spec, n_points=7, seed=3))
        assert rep.verdict == "pass" and len(rep.per_point) == 7
        assert stacks == want, identity


def _hopf_field_value(f, hv, hp):
    """A Hopf field's value on the scalar frame hv: scale·kθ or scale·log Δ."""
    return (f.scale * hp.k) * hv.theta if f.kind == "log-phi" else f.scale * np.log(hv.delta)


VALUE_SPECS = [
    "hopf-omega-lambda{a=12.1+3.2j,b=-2.5+1.1j,lambda=0.5}",
    "hopf-lc-flat{a=12.1+3.2j,b=-2.5+1.1j}",
    "hopf-standard",
    "flat{a=2.718281828459045,b=2.718281828459045}",
    "conformal{base=hopf-omega-lambda{lambda=-0.5},f=log-delta{scale=3.0}}",
    "conformal{base=hopf-lc-flat{a=7.38905609893065},f=log-phi{scale=-1.5}}",
    "conformal{base=flat{a=2.718281828459045,b=2.718281828459045},f=poly{seed=3,amp=0.1}}",
    "conformal{base=hopf-standard,f=zero}",
]


@pytest.mark.parametrize("text", VALUE_SPECS)
def test_values_of_a_sample_equal_the_values_of_each_point(text):
    """`metric_values`, `deck_invariance_residual` and a field's jet take a
    point or a sample p[..., 2] alike: the sample's batch axes lead the
    result, and each entry equals the value at that point alone bit for
    bit, and a Hopf field's value is scale·kθ or scale·log Δ on the point's
    scalar frame."""
    spec = M.parse_metric_spec(text)
    hp = spec.hopf_params()
    pts = np.array(V.sample_points("hopf-fundamental", 6, 11, hp=hp)).reshape(2, 3, 2)
    H, r = M.metric_values(spec, pts), M.deck_invariance_residual(spec, pts)
    assert H.shape == (2, 3, 2, 2) and r.shape == (2, 3)
    f = spec.f if spec.kind == "conformal" else M.FieldSpec(kind="log-delta", scale=3.0)
    fv = field_jet(f, pts, hp)[0]
    assert fv.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        p = tuple(pts[idx].tolist())
        one, r_one = M.metric_values(spec, p), M.deck_invariance_residual(spec, p)
        assert one.shape == (2, 2) and np.shape(r_one) == ()
        assert H[idx].tobytes() == one.tobytes(), p
        assert r[idx].tobytes() == np.float64(r_one).tobytes(), p
        assert fv[idx].tobytes() == field_jet(f, p, hp)[0].tobytes(), p
        if f.kind in ("log-phi", "log-delta"):
            want = _hopf_field_value(f, M.hopf_values(p, hp), hp)
            assert fv[idx].real.tobytes() == np.float64(want).tobytes() and fv[idx].imag == 0, p


def test_det_formula_solves_one_theta_root_per_point(monkeypatch):
    calls = []
    root = M._theta_root
    monkeypatch.setattr(M, "_theta_root", lambda p, hp: calls.append(p) or root(p, hp))
    spec = M.MetricSpec(kind="hopf-omega-lambda", a=E**2, b=E, lam=0.5)
    rep = V.run_check(V.CheckSpec(identity="det-formula", metric=spec, n_points=10, seed=3))
    assert rep.verdict == "pass" and len(rep.per_point) == 10
    assert len(calls) == 10


@pytest.mark.parametrize("identity, budget", [
    ("det-formula", 1), ("deck-invariance", 2), ("hessian-matrices", 1), ("tw-formula", 1)])
def test_theta_root_budget_per_point(identity, budget, monkeypatch):
    """θ roots per point over run_check: det-formula reads one scalar frame,
    deck-invariance one at the point and one at its image,
    hessian-matrices one for the closed forms and the Φ jet alike, and
    tw-formula one for the metric's rows and both closed forms."""
    calls = []
    root = M._theta_root
    monkeypatch.setattr(M, "_theta_root", lambda p, hp: calls.append(p) or root(p, hp))
    spec = M.MetricSpec(kind="hopf-omega-lambda", a=E**2 * np.exp(0.4j), b=E, lam=0.5)
    rep = V.run_check(V.CheckSpec(identity=identity, metric=spec, n_points=10, seed=3))
    assert rep.verdict == "pass" and len(rep.per_point) == 10
    assert len(calls) <= budget * 10


def test_tw_formula_builds_one_jet_frame_per_sample(monkeypatch):
    """The metric's arrays need the rows, built once over the whole sample; the
    closed forms and the ∂̄ log Φ target read the frame."""
    calls = []
    rows = M.hopf_rows
    monkeypatch.setattr(M, "hopf_rows", lambda hv, hp: calls.append(hv) or rows(hv, hp))
    spec = M.MetricSpec(kind="hopf-omega-lambda", a=E**2 * np.exp(0.4j), b=E, lam=0.5)
    rep = V.run_check(V.CheckSpec(identity="tw-formula", metric=spec, n_points=10, seed=3))
    assert rep.verdict == "pass" and len(rep.per_point) == 10
    assert len(calls) == 1 and np.shape(calls[0].theta) == (10,)


def _count_theta_roots_and_rows(monkeypatch) -> tuple[list, list]:
    """Lists that record each `_theta_root` call and each `hopf_rows` build."""
    roots, rows = [], []
    root, build_rows = M._theta_root, M.hopf_rows
    monkeypatch.setattr(M, "_theta_root", lambda p, hp: roots.append(p) or root(p, hp))
    monkeypatch.setattr(M, "hopf_rows", lambda hv, hp: rows.append(hv) or build_rows(hv, hp))
    return roots, rows


def _hopf_conformal_check(identity: str) -> None:
    (cell,) = [c for c in cli._suite_cells()
               if c["identity"] == identity and c["metric"].startswith("conformal{base=hopf")]
    rep = V.run_check(V.CheckSpec(identity=identity, metric=M.parse_metric_spec(cell["metric"]),
                                  n_points=10, seed=3))
    assert rep.verdict == "pass" and len(rep.per_point) == 10


def test_conformal_law_builds_its_hopf_base_and_field_once_per_point(monkeypatch):
    """The base's arrays and the field's jet are built once and shared by
    both metrics, and a Hopf base and a Hopf field read one frame: one θ
    root per point and one set of rows per check."""
    roots, rows = _count_theta_roots_and_rows(monkeypatch)
    _hopf_conformal_check("conformal-law")
    assert len(roots) == 10 and len(rows) == 1


def test_conformal_deck_invariance_reads_one_frame_over_its_points_and_images(monkeypatch):
    """The field's values and the base's values are read off one frame over
    the points and their images: one θ root at each point and one at its
    image, and one set of rows per check."""
    roots, rows = _count_theta_roots_and_rows(monkeypatch)
    _hopf_conformal_check("deck-invariance")
    assert len(roots) == 2 * 10 and len(rows) == 1


def test_suite_cells_solve_theta_once_per_point_and_build_rows_once_per_check(monkeypatch):
    """Over every suite cell and seed: at most one θ root per evaluated point
    (deck-invariance: one at each point and one at its image) and at most
    one `hopf_rows` build per check."""
    roots, rows = _count_theta_roots_and_rows(monkeypatch)
    for cell in cli._suite_cells():
        spec = M.parse_metric_spec(cell["metric"])
        per_point = 2 if cell["identity"] == "deck-invariance" else 1
        for seed in cli.SUITE_SEEDS:
            roots.clear()
            rows.clear()
            rep = V.run_check(V.CheckSpec(identity=cell["identity"], metric=spec,
                                          n_points=cell["n_points"], seed=seed))
            assert not rep.failures, cell
            assert len(roots) <= per_point * cell["n_points"], (cell, seed, len(roots))
            assert len(rows) <= 1, (cell, seed, len(rows))


def test_conformal_metrics_reject_a_user_polynomial_by_its_seed():
    """The shared build keeps `build_metric`'s message for a base that is not
    a metric at the point."""
    spec = M.parse_metric_spec("conformal{base=user-polynomial{seed=5,amp=4},f=zero}")
    bad = [p for p in V.sample_points("box", 40, 1, dim=2)
           if np.linalg.eigvalsh(spec.base.poly_table.rows(p)[..., 0]).min() <= 0]
    assert bad
    for build in (lambda p: M.build_metric(spec, p), lambda p: M.build_conformal_metrics(spec, p)):
        with pytest.raises(ValueError, match=r"user polynomial metric \(seed=5\) is not positive definite"):
            build(bad[0])


@pytest.mark.parametrize("hp, tol", [(hp, 1e-14) for hp in HOPF_GRID] + [
    (M.HopfParams(E**2 * np.exp(0.4j), E * np.exp(-1.1j)), 1e-14),
    (M.HopfParams(1e3, 1.01), 1e-12),
    (M.HopfParams(1e6, 1.0001), 1e-10),
], ids=["a=b", "a=e2", "a=e1.5", "complex", "1e3", "1e6"])
def test_dbar_log_phi_closed_form_matches_the_theta_jet(hp, tol):
    """(z e₁, w e₂)/Δ on the scalar frame against k·∂̄θ of θ's row."""
    for p in V.sample_points("hopf-fundamental", 20, 5, hp=hp):
        hv = M.hopf_values(p, hp)
        want = hp.k * M.hopf_rows(hv, hp).theta[3:5]  # the z̄, w̄ slots
        got = M.dbar_log_phi(hv)
        assert np.abs(got - want).max() <= tol * np.abs(want).max(), p


# -- the row algebra against the jet engine ----------------------------------------------

ROW_DIMS = [1, 2, 3, 8]
# unbatched rows, and samples of 1, 3 and 40 points
ROW_BATCHES = [(), (1,), (3,), (40,)]


def _random_rows(rng, n, batch, scale=1.0):
    """Rows of 1 + m + m² slots (m = 2n) over the batch axes, with complex
    values, gradients and symmetric Hessians of size about `scale`."""
    m = 2 * n
    rows = scale * (rng.standard_normal(batch + (1 + m + m * m,))
                    + 1j * rng.standard_normal(batch + (1 + m + m * m,)))
    hess = M._row_arrays(rows)[2]
    hess[...] = hess + hess.swapaxes(-1, -2)
    return rows


def _jets(rows):
    """The `WJet` of each row, in the order of the rows' batch axes."""
    n = M._slots(rows) // 2
    return [wjet._jet(np.array(row), n) for row in rows.reshape(-1, rows.shape[-1])]


@pytest.mark.parametrize("batch", ROW_BATCHES, ids=str)
@pytest.mark.parametrize("n", ROW_DIMS)
def test_leibniz_rows_equal_jet_products_bit_for_bit(n, batch):
    """`_leibniz` is `wjet.mul` row by row, at any n; a row that broadcasts
    against a stack multiplies each of its rows.  The gradient and Hessian
    slots are the same array arithmetic, bit for bit.  The value slot is an
    array product here and a product of two numpy scalars in `wjet.mul`,
    which may round differently (numpy's array loop may fuse a multiply and
    an add), so it agrees to 2ε|a₀||b₀| (ε the machine epsilon of a double)."""
    rng = np.random.default_rng(100 + n)
    a, b = _random_rows(rng, n, batch), _random_rows(rng, n, batch)
    one = a.reshape(-1, a.shape[-1])[0]  # one row, against the stack b
    b_jets = _jets(b)
    for x, got in ((a, M._leibniz(a, b)), (one, M._leibniz(one, b))):
        assert got.shape == b.shape
        for row, xj, yj in zip(got.reshape(-1, b.shape[-1]), _jets(np.broadcast_to(x, b.shape)), b_jets):
            want = wjet.mul(xj, yj).data
            assert np.array_equal(row[1:], want[1:])
            assert abs(row[0] - want[0]) <= 2 * np.finfo(float).eps * abs(xj.value) * abs(yj.value)


@pytest.mark.parametrize("batch", ROW_BATCHES, ids=str)
@pytest.mark.parametrize("n", ROW_DIMS)
def test_exp_rows_equal_the_jet_exponential_bit_for_bit(n, batch):
    """`_exp_rows` at rate 1, with e^x's value formed as `wjet.exp` forms it
    (`cmath.exp`), is `wjet.exp` row by row, bit for bit."""
    import cmath

    rng = np.random.default_rng(200 + n)
    x = _random_rows(rng, n, batch, scale=0.5)
    e0 = np.array([cmath.exp(c) for c in x[..., 0].ravel().tolist()]).reshape(batch)
    got = M._exp_rows(e0, x)
    for row, jet in zip(got.reshape(-1, x.shape[-1]), _jets(x)):
        assert np.array_equal(row, wjet.exp(jet).data)


@pytest.mark.parametrize("batch", ROW_BATCHES, ids=str)
@pytest.mark.parametrize("n", ROW_DIMS)
def test_reciprocal_rows_equal_the_jet_reciprocal_bit_for_bit(n, batch):
    rng = np.random.default_rng(300 + n)
    b = _random_rows(rng, n, batch)
    got = M._reciprocal(b)
    for row, jet in zip(got.reshape(-1, b.shape[-1]), _jets(b)):
        assert np.array_equal(row, wjet._reciprocal(jet).data)


@pytest.mark.parametrize("batch", ROW_BATCHES, ids=str)
@pytest.mark.parametrize("n", ROW_DIMS)
def test_conjugation_permutation_is_the_jet_conjugate(n, batch):
    """rows[..., _conj_perm(2n)].conj() is `wjet.conj` row by row, exactly
    (a permutation and a conjugation); `_CONJ` is the permutation at n = 2,
    and real-valued rows (a jet plus its conjugate) pass `all_real_valued`
    where a complex row does not."""
    rng = np.random.default_rng(400 + n)
    rows = _random_rows(rng, n, batch)
    got = rows[..., M._conj_perm(2 * n)].conj()
    for row, jet in zip(got.reshape(-1, rows.shape[-1]), _jets(rows)):
        assert np.array_equal(row, wjet.conj(jet).data)
    assert np.array_equal(M._conj_perm(4), M._CONJ)
    assert M.all_real_valued(rows + got) and not M.all_real_valued(rows)


@pytest.mark.parametrize("batch", ROW_BATCHES, ids=str)
@pytest.mark.parametrize("n", ROW_DIMS)
def test_taylor_max_is_the_jet_max_abs(n, batch):
    """`_taylor_max` reads each row's Taylor coefficients (halving the
    Hessian's diagonal) as `WJet.max_abs` does; halving a complex number
    before or after its modulus gives the same double, so the two agree bit
    for bit."""
    rng = np.random.default_rng(500 + n)
    rows = _random_rows(rng, n, batch)
    rows[..., -1] *= 1e3  # the Hessian's last diagonal entry is the largest coefficient
    got = M._taylor_max(rows)
    assert got.shape == batch
    for value, jet in zip(got.ravel().tolist(), _jets(rows)):
        assert value == jet.max_abs()


# -- the rows against the jet-product oracle ------------------------------------------

FRAME_PARAMS = HOPF_GRID + [M.HopfParams(E**2 * np.exp(0.4j), E * np.exp(-1.1j)),
                            M.HopfParams(1e3, 1.01), M.HopfParams(1e6, 1.0001)]
FRAME_IDS = ["a=b", "a=e2", "a=e1.5", "complex", "1e3", "1e6"]


@pytest.mark.parametrize("hp", FRAME_PARAMS, ids=FRAME_IDS)
def test_hopf_metric_arrays_match_the_jet_product_oracle(hp):
    """H, dH and ddH from the rows equal the closed form on the jets of the
    oracle `hopf_jets` to 1e-15 relative, at sampled points and their deck
    images; so do the Φ, θ and Δ jets of `phi_field`."""
    specs = [M.MetricSpec(kind="hopf-omega-lambda", a=hp.a, b=hp.b, lam=lam)
             for lam in (-0.5, 0.0, 1.0)]
    specs.append(M.MetricSpec(kind="hopf-lc-flat", a=hp.a, b=hp.b))
    for pt in V.sample_points("hopf-fundamental", 10, 8, hp=hp):
        for q in (pt, (hp.a * pt[0], hp.b * pt[1])):
            for spec in specs:
                m = M.build_metric(spec, q)
                _assert_arrays_close((m.H, m.dH, m.ddH), hopf_metric_oracle(spec, q))
            hj = hopf_jets(q, hp)
            for got, want in zip(phi_jets(q, hp), (wjet.exp(hp.k * hj.theta), hj.theta, hj.delta)):
                _assert_arrays_close(wjet.partials(got), wjet.partials(want))


def test_hopf_standard_equals_the_jet_product_oracle_bit_for_bit():
    """The closed form of hopf-standard (the reciprocal of S's row on the
    diagonal) equals the arrays of the jet products of `hopf_standard_jets`
    exactly, at 600 points spread over 7 decades of |p|, built as one sample
    and one point at a time; so do its values (`metric_values`)."""
    rng = np.random.default_rng(21)
    scale = 10.0 ** rng.uniform(-3.5, 3.5, (600, 1))
    pts = scale * (rng.standard_normal((600, 2)) + 1j * rng.standard_normal((600, 2)))
    spec = M.MetricSpec(kind="hopf-standard")
    sample = M.build_metric(spec, pts)
    for k, p in enumerate(pts.tolist()):
        want = wjet.partials(hopf_standard_jets(p))
        one = M.build_metric(spec, p)
        for got, alone, w in zip((sample.H[k], sample.dH[k], sample.ddH[k]),
                                 (one.H, one.dH, one.ddH), want):
            assert np.array_equal(got, w) and np.array_equal(alone, w), p
        for q in (tuple(p), p):
            assert np.array_equal(M.metric_values(spec, q), want[0]), q


@pytest.mark.parametrize("pt", [(0j, 0j), (1e-170 + 0j, 0j), (1e200 + 0j, 1.0 + 0j)])
def test_hopf_standard_fails_its_point_where_one_over_s_is_not_a_double(pt):
    spec = M.MetricSpec(kind="hopf-standard")
    for build in (M.build_metric, M.metric_values):
        with pytest.raises(geo.PointFailure, match=r"^1/\(\|z\|² \+ \|w\|²\) is outside"):
            build(spec, pt)


def test_deck_jacobian_is_built_once_per_multipliers():
    hp = M.HopfParams(E**2 * np.exp(0.7j), E * np.exp(-1.1j))
    J, Jh = hp.deck_jacobian
    assert hp.deck_jacobian[0] is J
    assert np.array_equal(J, np.diag([hp.a, hp.b])) and np.array_equal(Jh, J.conj().T)


@pytest.mark.parametrize("kind", ["log-phi", "log-delta"])
@pytest.mark.parametrize("hp", FRAME_PARAMS, ids=FRAME_IDS)
def test_hopf_field_jets_match_the_jet_product_oracle(hp, kind):
    f = M.FieldSpec(kind=kind, scale=-1.5)
    for pt in V.sample_points("hopf-fundamental", 10, 9, hp=hp):
        got = wjet.WJet(*field_jet(f, pt, hp))
        _assert_arrays_close(wjet.partials(got), wjet.partials(hopf_field_oracle(f, pt, hp)))
        assert got.value == _hopf_field_value(f, M.hopf_values(pt, hp), hp)


@pytest.mark.parametrize("identity, metric", [
    ("lc-ricci-flat", "hopf-lc-flat{a=7.38905609893065,b=2.718281828459045}"),
    ("lc-ricci-flat", "hopf-lc-flat{a=6.8+2.9j,b=1.2-2.4j}"),
    ("tw-formula", "hopf-omega-lambda{a=7.38905609893065,b=2.718281828459045,lambda=0.5}"),
    ("det-formula", "hopf-omega-lambda{a=7.38905609893065,b=2.718281828459045,lambda=0.5}"),
    ("hessian-matrices", "hopf-lc-flat{a=4.4816890703380645,b=3.0041660239464334}"),
])
def test_hopf_checks_make_no_jet_arithmetic(identity, metric, monkeypatch):
    """The Hopf frame, its metrics and the Φ jet are array arithmetic: with
    the jet product, the chain rule and the reciprocal raising, the checks
    still pass."""

    def no_arithmetic(*args):
        raise AssertionError("jet arithmetic was used")

    for name in ("mul", "_compose", "_reciprocal"):
        monkeypatch.setattr(wjet, name, no_arithmetic)
    rep = V.run_check(V.CheckSpec(identity=identity, metric=M.parse_metric_spec(metric),
                                  n_points=10, seed=2))
    assert rep.verdict == "pass" and not rep.failures, rep.max_residual


# -- the θ root against the sorted-list Newton loop it replaced ------------------------

ROOT_PARAMS = HOPF_GRID + [M.HopfParams(1e3, 1.01), M.HopfParams(1e6, 1.0001)]
ROOT_IDS = ["a=b", "a=e2", "a=e1.5", "1e3", "1e6"]


def _same_root(p, hp):
    """`_theta_root` and the oracle give the same float, or the same error."""
    try:
        want = theta_root_oracle(p, hp)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        with pytest.raises(type(exc)) as err:
            M._theta_root(p, hp)
        assert str(err.value) == str(exc)
        return
    got = M._theta_root(p, hp)
    assert got == want or (math.isnan(got) and math.isnan(want)), (p, got, want)
    assert math.copysign(1.0, got) == math.copysign(1.0, want)


@pytest.mark.parametrize("hp", ROOT_PARAMS, ids=ROOT_IDS)
def test_theta_root_equals_the_sorted_newton_loop(hp):
    """Bit for bit on sampled points, their deck images, points on either
    axis (a single term) and points far inside and outside the shell."""
    pts = []
    for seed in (0, 1, 2):
        for p in V.sample_points("hopf-fundamental", 20, seed, hp=hp):
            pts += [p, (hp.a * p[0], hp.b * p[1])]
    for r in (1e-150, 1e-3, 0.5, 1.0, 2.0, 1e3, 1e150):
        pts += [(r, 0.0), (0.0, r), (r * 1j, 0.0), (0.0, -r), (r, r), (r, 1e-3 * r)]
    pts += [(0.0, 0.0), (1e200, 1.0), (0.0, 0.0j)]
    for p in pts:
        _same_root(p, hp)


class _SwappedRates:
    """Rates with c₁ < c₂, which `HopfParams` does not admit; on a tie they
    make the sorted loop send the w term through expm1."""

    def __init__(self, hp):
        self.k1, self.k2, self.k = hp.k2, hp.k1, hp.k
        self.c1, self.c2 = hp.c2, hp.c1


@pytest.mark.parametrize("hp", [HOPF_GRID[1], _SwappedRates(HOPF_GRID[1]), HOPF_GRID[0]],
                         ids=["c1>c2", "c1<c2", "c1=c2"])
@pytest.mark.parametrize("p", [(1.0, 1.0), (1j, -1.0), (0.25, 0.25j), (3.0, 3.0), (-1.0, -1.0j)])
def test_theta_root_breaks_ties_as_the_sorted_loop(hp, p):
    """|z| = |w| makes both exponents equal at the start.  There the sorted
    loop lets the rates decide which term enters through expm1, and
    `_theta_root` takes z; g and g′ come out the same either way."""
    _same_root(p, hp)


_coordinate = st.one_of(
    st.just(0.0),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.floats(min_value=1e-300, max_value=1e300),
)


@settings(max_examples=300, deadline=None)
@given(x=st.tuples(_coordinate, _coordinate, _coordinate, _coordinate),
       mb=st.floats(min_value=1.0001, max_value=1e3), ratio=st.floats(min_value=1.0, max_value=1e3),
       phase=st.floats(min_value=0.0, max_value=6.283))
def test_theta_root_equals_the_sorted_newton_loop_on_drawn_points(x, mb, ratio, phase):
    a = mb * ratio * complex(math.cos(phase), math.sin(phase))
    assume(abs(a) >= mb)  # the rotation can round |a| below |b| when ratio = 1
    hp = M.HopfParams(a, mb)
    _same_root((complex(x[0], x[1]), complex(x[2], x[3])), hp)


def test_hopf_constants_are_built_once_per_spec():
    base = M.MetricSpec(kind="hopf-omega-lambda", a=E**2, b=E, lam=0.5)
    conf = M.MetricSpec(kind="conformal", base=base, f=M.FieldSpec(kind="log-phi"))
    hp = base.hopf_params()
    assert base.hopf_params() is hp
    assert conf.hopf_params() is hp
    assert M.MetricSpec(kind="hopf-lc-flat").hopf_params() == M.HopfParams(E, E)
    assert hp.c1 == hp.k1 / math.pi and hp.c2 == hp.k2 / math.pi
    assert hp.alpha == 2.0 * hp.k1 / (hp.k1 + hp.k2)


def test_invalid_multipliers_on_a_non_hopf_kind_raise_at_every_call():
    spec = M.MetricSpec(kind="flat", a=1.5, b=2.0)  # not validated eagerly
    for _ in range(2):
        with pytest.raises(ValueError, match=r"\|a\| >= \|b\| > 1"):
            spec.hopf_params()


@pytest.mark.parametrize("pt, msg", [((0.0, 0.0), "origin"), ((1e200, 1.0), "floating-point range")],
                         ids=["origin", "overflow"])
def test_hopf_values_rejects_what_hopf_jets_rejects(pt, msg):
    """The scalar frame, the jet oracle, the Φ jet and the metric's arrays
    fail alike where the frame cannot be formed."""
    hp = M.HopfParams(E**2, E)
    spec = M.MetricSpec(kind="hopf-lc-flat", a=hp.a, b=hp.b)
    errors = []
    for frame in (M.hopf_values, hopf_jets, phi_jets, lambda q, _: M.build_metric(spec, q)):
        with pytest.raises(ValueError, match=msg) as err:
            frame(pt, hp)
        errors.append(str(err.value))
    assert len(set(errors)) == 1


# -- conformal scaling ----------------------------------------------------------------


def test_conformal_zero_field_is_identity():
    spec = M.MetricSpec(
        kind="conformal",
        base=M.MetricSpec(kind="user-polynomial", seed=4, amp=0.04),
        f=M.FieldSpec(kind="zero"),
    )
    pt = (0.25 + 0.3j, -0.4 + 0.1j)
    mc = M.build_metric(spec, pt)
    mb = M.build_metric(spec.base, pt)
    for a, b in zip((mc.H, mc.dH, mc.ddH), (mb.H, mb.dH, mb.ddH)):
        assert np.array_equal(a, b)


def test_conformal_ricci_change_law():
    """𝔯ic(e^f ω) = 𝔯ic(ω) − √−1∂∂̄f for random base metrics and factors."""
    pt = (0.3 - 0.15j, 0.2 + 0.45j)
    for seed in range(5):
        base = M.MetricSpec(kind="user-polynomial", seed=seed, amp=0.04)
        f = M.FieldSpec(kind="poly", seed=100 + seed, amp=0.15)
        conf = M.MetricSpec(kind="conformal", base=base, f=f)
        mb = M.build_metric(base, pt)
        mc = M.build_metric(conf, pt)
        fj = wjet.WJet(*field_jet(f, pt, None))
        ddbar_f = np.array(
            [[fj.hess[i, 2 + j] for j in range(2)] for i in range(2)]
        )
        lhs = geo.lc_ricci(mc)
        rhs = geo.lc_ricci(mb) - ddbar_f
        assert np.max(np.abs(lhs - rhs)) / (1 + np.max(np.abs(rhs))) < 1e-10


def test_conformal_adjoint_change_law():
    """∂̄*_f ω_f = ∂̄*ω + √−1(n−1)∂f componentwise (n = 2 here)."""
    pt = (0.4 + 0.2j, -0.3 + 0.25j)
    base = M.MetricSpec(kind="user-polynomial", seed=21, amp=0.04)
    f = M.FieldSpec(kind="poly", seed=22, amp=0.2)
    mb = M.build_metric(base, pt)
    mc = M.build_metric(M.MetricSpec(kind="conformal", base=base, f=f), pt)
    fj = wjet.WJet(*field_jet(f, pt, None))
    _, a10_base = geo.del_star(mb)
    _, a10_conf = geo.del_star(mc)
    df = np.array([d_dz(fj, i + 1).value for i in range(2)])
    want = a10_base + 1j * (2 - 1) * df
    assert np.max(np.abs(a10_conf - want)) < 1e-10 * (1 + np.max(np.abs(want)))
    # and the conjugate law for the other adjoint
    a01_base, _ = geo.del_star(mb)
    a01_conf, _ = geo.del_star(mc)
    dbf = np.array([d_dzbar(fj, i + 1).value for i in range(2)])
    want01 = a01_base - 1j * (2 - 1) * dbf
    assert np.max(np.abs(a01_conf - want01)) < 1e-10 * (1 + np.max(np.abs(want01)))


# -- coefficient tables against jet products --------------------------------------


def _assert_arrays_close(got, want, rel=1e-15):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= rel * max(1.0, np.max(np.abs(w)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_polynomial_metric_tables_match_jet_products(n):
    """H, dH and ddH from the coefficient tables equal the Leibniz-built
    metric to 1e-15 relative, at several seeds and amps."""
    rng = np.random.default_rng(40 + n)
    specs = [M.MetricSpec(kind="flat", n=n), M.MetricSpec(kind="kahler-test", n=n)]
    specs += [M.MetricSpec(kind="user-polynomial", seed=seed, amp=amp, n=n)
              for seed in (0, 7, 104) for amp in (None, 0.03, 0.3)]
    for spec in specs:
        for _ in range(4):
            pt = tuple(rng.uniform(-1.2, 1.2, n) + 1j * rng.uniform(-1.2, 1.2, n))
            _assert_arrays_close(M._row_arrays(spec.poly_table.rows(pt)), leibniz_metric_arrays(spec, pt))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_poly_field_table_matches_jet_products(n):
    rng = np.random.default_rng(50 + n)
    for seed, amp in ((0, 0.1), (9, 0.15), (247968, 2.0)):
        f = M.FieldSpec(kind="poly", seed=seed, amp=amp)
        for _ in range(4):
            pt = tuple(rng.uniform(-1.2, 1.2, n) + 1j * rng.uniform(-1.2, 1.2, n))
            got = field_jet(f, pt, None, n=n)
            _assert_arrays_close(got, wjet.partials(poly_field_jet(pt, n, seed, amp)))


@pytest.mark.parametrize("text", [
    "conformal{base=user-polynomial{seed=3,amp=0.04},f=poly{seed=9,amp=0.2}}",
    "conformal{base=kahler-test{n=3},f=poly{seed=5,amp=0.15}}",
    "conformal{base=user-polynomial{seed=8,amp=0.03,n=4},f=poly{seed=1,amp=0.1}}",
    "conformal{base=hopf-omega-lambda{a=7.38905609893065,b=2.718281828459045,lambda=0.5},"
    "f=log-delta{scale=3.0}}",
    "conformal{base=hopf-lc-flat{a=12.1+3.2j,b=-2.5+1.1j},f=log-delta{scale=-1.5}}",
])
def test_conformal_scaling_matches_entrywise_jet_products(text):
    """One Leibniz product broadcast over the base's arrays equals e^f times
    each entry jet."""
    spec = M.parse_metric_spec(text)
    hp = spec.hopf_params()
    if hp is None:
        rng = np.random.default_rng(6)
        pts = [tuple(rng.uniform(-1.2, 1.2, spec.dim) + 1j * rng.uniform(-1.2, 1.2, spec.dim))
               for _ in range(5)]
    else:
        pts = V.sample_points("hopf-fundamental", 5, 6, hp=hp)
    for pt in pts:
        m = M.build_metric(spec, pt)
        _assert_arrays_close((m.H, m.dH, m.ddH), leibniz_metric_arrays(spec, pt))


def _count_jet_arithmetic(monkeypatch) -> list:
    """Count the calls of `wjet.mul` and `wjet._reciprocal`, through which
    every jet product and quotient goes."""
    calls = []
    for name in ("mul", "_reciprocal"):
        fn = getattr(wjet, name)
        monkeypatch.setattr(wjet, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    return calls


@pytest.mark.parametrize("text", [
    "flat", "flat{n=3}", "kahler-test{n=3}", "user-polynomial{seed=5,amp=0.03,n=3}",
    "conformal{base=user-polynomial{seed=5,amp=0.03},f=poly{seed=2,amp=0.15}}",
    "conformal{base=kahler-test,f=zero}",
    "hopf-standard", "hopf-omega-lambda{a=7.38905609893065,b=2.718281828459045,lambda=0.5}",
    "hopf-lc-flat{a=12.1+3.2j,b=-2.5+1.1j}",
    "conformal{base=hopf-standard,f=log-phi{scale=-1.0}}",
    "conformal{base=hopf-omega-lambda{lambda=-0.5},f=log-delta{scale=3.0}}",
])
def test_polynomial_metrics_make_no_jet_product(text, monkeypatch):
    """No metric kind is built by jet arithmetic, at one point or a sample,
    nor are its values; the counter sees the products of the jet oracle."""
    calls = _count_jet_arithmetic(monkeypatch)
    spec = M.parse_metric_spec(text)
    pt = (0.3 - 0.2j,) + (0.1 + 0.4j,) * (spec.dim - 1)
    M.build_metric(spec, pt)
    M.build_metric(spec, [pt, tuple(2.0 * c for c in pt)])
    M.metric_values(spec, pt)
    assert calls == []
    hopf_standard_jets((0.5 + 0.1j, 0.4 - 0.3j))
    assert calls.count("mul") == 2 and calls.count("_reciprocal") == 1


def test_no_suite_cell_makes_a_jet_product(monkeypatch):
    """No check of the suite grid does jet arithmetic, at any of its seeds."""
    calls = _count_jet_arithmetic(monkeypatch)
    for cell in cli._suite_cells():
        spec = M.parse_metric_spec(cell["metric"])
        for seed in cli.SUITE_SEEDS:
            V.run_check(V.CheckSpec(identity=cell["identity"], metric=spec,
                                    n_points=cell["n_points"], seed=seed))
    assert calls == []


def test_coefficient_tables_are_drawn_once_per_spec_and_read_only():
    spec = M.parse_metric_spec("user-polynomial{seed=5,amp=0.03,n=3}")
    assert spec.poly_table is spec.poly_table
    f = M.FieldSpec(kind="poly", seed=2, amp=0.15)
    assert f.poly_table(3) is f.poly_table(3)
    assert M.MetricSpec(kind="hopf-lc-flat").poly_table is None
    for a in spec.poly_table:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0
    m = M.build_metric(spec, (0.1j, 0.2, -0.3))
    assert not any(np.shares_memory(x, a) for x in (m.H, m.dH, m.ddH) for a in spec.poly_table)


def test_conformal_scale_rejects_complex_factor():
    from lcflat.wjet import jet_var

    h = np.zeros((1, 1, 21), complex)
    h[..., 0] = 1.0
    with pytest.raises(ValueError, match="real-valued"):
        M.conformal_scale(h, jet_var(1, 0.1, 2).data)


# -- spec grammar -----------------------------------------------------------------


def test_spec_canonical_round_trip():
    specs = [
        M.MetricSpec(kind="flat"),
        M.MetricSpec(kind="kahler-test", n=3),
        M.MetricSpec(kind="hopf-lc-flat", a=E**2, b=E),
        M.MetricSpec(kind="hopf-omega-lambda", a=E**1.5, b=E**1.1, lam=-0.5),
        M.MetricSpec(kind="hopf-lc-flat", a=E**2 * np.exp(0.7j), b=E * np.exp(-1.1j)),
        M.MetricSpec(kind="user-polynomial", seed=7, amp=0.05),
        M.MetricSpec(
            kind="conformal",
            base=M.MetricSpec(kind="hopf-omega-lambda", a=E**2, b=E, lam=-0.5),
            f=M.FieldSpec(kind="log-delta", scale=3.0),
        ),
        M.MetricSpec(
            kind="conformal",
            base=M.MetricSpec(kind="user-polynomial", seed=3, amp=0.04),
            f=M.FieldSpec(kind="poly", seed=9, amp=0.2),
        ),
        M.MetricSpec(
            kind="conformal",
            base=M.MetricSpec(kind="hopf-lc-flat", a=E**1.5, b=E**1.1),
            f=M.FieldSpec(kind="log-phi", scale=-1.0),
        ),
        M.MetricSpec(kind="conformal", base=M.MetricSpec(kind="flat"), f=M.FieldSpec()),
    ]
    for s in specs:
        assert M.parse_metric_spec(s.canonical()) == s
        assert M.parse_metric_spec(s.canonical()).canonical() == s.canonical()


def test_log_phi_field_is_scale_times_log_phi():
    hp = HOPF_GRID[2]
    for pt in POINTS[:2]:
        log_phi = log(phi_jets(pt, hp)[0])
        for scale in (-1.0, 0.5):
            got = wjet.WJet(*field_jet(M.FieldSpec(kind="log-phi", scale=scale), pt, hp))
            assert (got - scale * log_phi).max_abs() < 1e-14


@pytest.mark.parametrize(
    "text,msg",
    [
        ("hopf-omega-lambda{a=7.4,b=2.7,lambda=-1.0}", "lambda"),
        ("hopf-lc-flat{a=2.0,b=3.0}", r"\|a\| >= \|b\|"),
        ("nonsense{x=1}", "unknown metric kind"),
        ("flat{lambda=0.5}", "not valid for metric kind"),
        ("hopf-lc-flat{a=oops}", "cannot parse"),
        ("conformal{base=flat}", "base and f"),
        ("hopf-lc-flat{a=2.0,b=1.5", "closing brace"),
        ("conformal{base=flat,f=mystery}", "unknown field kind"),
        ("conformal{base=flat,f=log-phi{seed=3}}", "not valid for field kind 'log-phi'"),
        ("flat{n=2,n=3}", "'n' is given more than once"),
        # Specs the engine cannot run: an empty or negative dimension, a
        # non-finite number, a negative seed.
        ("flat{n=0}", "'n': expected an integer >= 1"),
        ("flat{n=9}", "'n': expected an integer <= 8"),
        ("flat{n=5000000}", "'n': expected an integer <= 8"),
        ("user-polynomial{n=9}", "'n': expected an integer <= 8"),
        ("conformal{base=kahler-test{n=9},f=zero}", "'n': expected an integer <= 8"),
        ("flat{n=-1}", "'n': expected an integer >= 1"),
        ("user-polynomial{n=0}", "'n': expected an integer >= 1"),
        ("kahler-test{n=0}", "'n': expected an integer >= 1"),
        ("user-polynomial{amp=inf}", "'amp': expected a finite number"),
        ("conformal{base=hopf-lc-flat,f=log-phi{scale=inf}}", "'scale': expected a finite"),
        ("hopf-omega-lambda{lambda=inf}", "'lambda': expected a finite number"),
        ("conformal{base=hopf-lc-flat,f=poly{amp=nan}}", "'amp': expected a finite number"),
        ("conformal{base=hopf-lc-flat,f=log-delta{scale=nan}}", "'scale': expected a finite"),
        ("user-polynomial{seed=-1}", "'seed': expected an integer >= 0"),
        ("conformal{base=hopf-lc-flat,f=poly{seed=-2}}", "'seed': expected an integer >= 0"),
    ],
)
def test_spec_parse_errors_name_the_problem(text, msg):
    with pytest.raises(ValueError, match=msg):
        M.parse_metric_spec(text)


def test_user_polynomial_error_names_the_default_seed():
    """A spec that sets no seed draws seed 0, and the abort says so."""
    spec = M.parse_metric_spec("user-polynomial{amp=1e300}")
    with pytest.raises(V.CheckAborted, match=r"seed=0\) is not positive definite"):
        V.run_check(V.CheckSpec(identity="key-relation", metric=spec, n_points=3))


# -- a metric's prefix, and the metrics one shared scope keeps ----------------------


# The metric kinds whose prefixes are compared with fresh builds, as (spec,
# whether to build the base of the conformal spec), each over 40 points.
PREFIX_KINDS = {
    "hopf-lc-flat": ("hopf-lc-flat{a=7.38905609893065,b=2.718281828459045}", False),
    "hopf-omega-lambda": ("hopf-omega-lambda{a=4.4816890703380645,b=3.0041660239464334,"
                          "lambda=1.0}", False),
    "hopf-standard": ("hopf-standard", False),
    "user-polynomial-n2": ("user-polynomial{seed=104,amp=0.05}", False),
    "user-polynomial-n3": ("user-polynomial{seed=103,amp=0.05,n=3}", False),
    "conformal-base": ("conformal{base=hopf-omega-lambda{a=7.38905609893065,"
                       "b=2.718281828459045,lambda=-0.5},f=log-delta{scale=3.0}}", True),
}


def _prefix_points(spec: M.MetricSpec, n: int) -> list:
    hp = spec.hopf_params()
    if hp is not None and spec.dim == 2:
        return V.sample_points("hopf-fundamental", n, 1, hp=hp)
    return V.sample_points("box", n, 1, dim=spec.dim)


def _metric_arrays(m: geo.MetricJet) -> dict:
    """Every array a check reads of m, or forms from it."""
    return {
        "H": m.H, "dH": m.dH, "ddH": m.ddH, "inverse": m.inverse,
        "connection.value": m.connection.value, "connection.grad": m.connection.grad,
        "chern_ricci": m.chern_ricci, "lc_ricci": geo.lc_ricci(m),
        "lc_ricci_via_relation": geo.lc_ricci_via_relation(m),
        "torsion": geo.torsion(m)[0], "torsion_sq": geo.torsion(m)[1],
        "riemannian_scalar": geo.riemannian_scalar(m),
    }


@pytest.mark.parametrize("formed", [False, True], ids=["bare", "formed"])
@pytest.mark.parametrize("kind", list(PREFIX_KINDS))
def test_a_prefix_equals_a_fresh_build_bit_for_bit(kind, formed):
    """`MetricJet.prefix(k)` of a 40-point metric equals the metric built on
    the first k points, compared with == (bit for bit): the arrays, what the
    metric had formed before the prefix was taken (`formed`), and every form
    and scalar a check reads of it."""
    text, conformal_base = PREFIX_KINDS[kind]
    spec = M.parse_metric_spec(text)

    def build(pts):
        if conformal_base:
            return M.build_conformal_metrics(spec, pts)[0]
        return M.build_metric(spec, pts)

    pts = _prefix_points(spec, 40)
    full = build(pts)
    if formed:
        full.inverse, full.connection, full.chern_ricci
    for k in (1, 7, 39):
        fresh = build(pts[:k])
        got, want = _metric_arrays(full.prefix(k)), _metric_arrays(fresh)
        for name, a in want.items():
            assert got[name].shape == a.shape and (got[name] == a).all(), (kind, k, name)
        if conformal_base:  # the base is the metric `build_metric` gives for it
            alone = _metric_arrays(M.build_metric(spec.base, pts[:k]))
            assert all((alone[name] == a).all() for name, a in want.items()), k


def test_a_prefix_reads_flipped_mixed_symbols_and_keeps_the_kept_ones_clean():
    spec = M.parse_metric_spec(PREFIX_KINDS["hopf-lc-flat"][0])
    pts = _prefix_points(spec, 40)
    full = M.build_metric(spec, pts)
    clean = full.connection.value.copy(), full.connection.grad.copy()
    with geo.debug_corruption():
        bad = geo.christoffels(full.prefix(7))
    fresh = geo.christoffels(M.build_metric(spec, pts[:7]))
    assert np.abs(fresh.lc_anti).max() > 1e-3
    assert (bad.lc_anti == -fresh.lc_anti).all() and (bad.lc_anti_grad == -fresh.lc_anti_grad).all()
    assert (bad.chern == fresh.chern).all() and (bad.lc_hol_grad == fresh.lc_hol_grad).all()
    assert (full.connection.value == clean[0]).all() and (full.connection.grad == clean[1]).all()
    assert (geo.christoffels(full.prefix(7)).lc_anti == fresh.lc_anti).all()


def test_a_shared_scope_keeps_the_longest_sample_of_a_spec(monkeypatch):
    """A sample that begins a kept one reads its prefix; a longer one is
    built and kept in its place; another spec or another first point is
    built afresh; on exit nothing is kept."""
    taken = count_prefixes(monkeypatch)
    spec = M.parse_metric_spec("user-polynomial{seed=104,amp=0.05}")
    pts = _prefix_points(spec, 40)
    with V.shared_scope():
        short = M.build_metric(spec, pts[:7])
        assert M.build_metric(spec, pts[:7]) is not short and taken == [7]
        full = M.build_metric(spec, pts)
        assert taken == [7]
        M.build_metric(spec, pts[:20])
        M.build_metric(spec, pts[1:5])
        M.build_metric(M.parse_metric_spec("user-polynomial{seed=103,amp=0.05}"), pts[:3])
        assert taken == [7, 20]
        kept = [m for _, m in M._METRICS.values()]
        assert len(kept) == 3 and sum(m is full for m in kept) == 1
        M.build_metric(spec, pts[0])  # one point, no sample axis: built, not kept
        assert taken == [7, 20] and len(M._METRICS) == 3
    assert M._METRICS is None
    M.build_metric(spec, pts[:7])
    assert taken == [7, 20]


def test_a_shared_scope_keeps_no_metric_whose_build_raises(monkeypatch):
    """This user polynomial is not a metric at some of the 40 points, so its
    build raises, is not kept and raises again; a point where it is a metric
    is kept."""
    taken = count_prefixes(monkeypatch)
    spec = M.parse_metric_spec("user-polynomial{seed=4,amp=0.1,n=2}")
    pts = _prefix_points(spec, 40)
    with V.shared_scope():
        for _ in range(2):
            with pytest.raises(geo.PointFailure, match="not positive definite"):
                M.build_metric(spec, pts)
            assert not M._METRICS
        good = next(p for p in pts if geo.is_hermitian(M.metric_values(spec, p))
                    and np.linalg.eigvalsh(M.metric_values(spec, p))[0] > 0)
        M.build_metric(spec, [good])
        M.build_metric(spec, [good])
        assert len(M._METRICS) == 1 and taken == [1]
