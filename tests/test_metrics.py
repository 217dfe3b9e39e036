"""Metric zoo tests: potential solve, closed-form derivative jets, metric
assembly, deck invariance, conformal scaling, and the MetricSpec grammar."""

import math
import sys
from decimal import Context, Decimal

import numpy as np
import pytest

from conftest import hopf_theta_equation
from lcflat import geometry as geo
from lcflat import metrics as M
from lcflat import verify as V
from lcflat import wjet
from lcflat.wjet import d_dz, d_dzbar, jet_const, log, multi_indices, pow_real

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


def unit(i):
    return tuple(1 if k == i else 0 for k in range(2))


def zero2():
    return (0, 0)


# -- potential ---------------------------------------------------------------


@pytest.mark.parametrize("hp", HOPF_GRID, ids=["a=b", "a=e2", "a=e1.5"])
@pytest.mark.parametrize("pt", POINTS)
def test_constraint_jet_is_identically_one(hp, pt):
    """|z|²Φ^{−α} + |w|²Φ^{α−2} = 1 must hold through second order, not just in value."""
    Phi, _, _ = M.phi_field(pt, hp)
    zs, zbs = M._coordinate_jets(pt, 2)
    c = zs[0] * zbs[0] * pow_real(Phi, -hp.alpha) + zs[1] * zbs[1] * pow_real(
        Phi, hp.alpha - 2.0
    )
    assert np.max(np.abs(c.coeffs - jet_const(1.0, 2).coeffs)) < 1e-12


def test_phi_deck_scaling_and_delta_invariance():
    hp = M.HopfParams(E**2, E)
    pt = POINTS[0]
    Phi, _, Delta = M.phi_field(pt, hp)
    Phi2, _, Delta2 = M.phi_field((hp.a * pt[0], hp.b * pt[1]), hp)
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
    Phi, _, Delta = M.phi_field(pt, hp)
    zs, zbs = M._coordinate_jets(pt, 2)
    S = zs[0] * zbs[0] + zs[1] * zbs[1]
    assert np.max(np.abs(Phi.coeffs - S.coeffs)) < 1e-12
    assert np.max(np.abs(Delta.coeffs - jet_const(1.0, 2).coeffs)) < 1e-12


def test_phi_at_unit_point_on_axis():
    hp = M.HopfParams(E**2, E)
    Phi, _, Delta = M.phi_field((1.0, 0.0), hp)
    assert abs(Phi.value - 1.0) < 1e-12
    assert abs(Delta.value - hp.alpha) < 1e-12


def test_phi_rejects_origin():
    with pytest.raises(ValueError, match="origin"):
        M.phi_field((0.0, 0.0), M.HopfParams(E, E))
    with pytest.raises(ValueError, match="origin"):
        M.phi_value((0.0, 0.0), M.HopfParams(E, E))


def test_phi_value_matches_jet_constant_term():
    hp = M.HopfParams(E**1.5, E**1.1)
    for pt in POINTS:
        Phi, _, _ = M.phi_field(pt, hp)
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
    thetas = [M.phi_field(pt, hp)[1] for pt in pts]
    assert calls == []

    for pt, theta in zip(pts, thetas):
        F = hopf_theta_equation(pt[0], pt[1], hp.k1, hp.k2)
        want = solve(F, theta.value.real, 1e-13, 2)
        assert np.max(np.abs(theta.coeffs - want.coeffs)) <= rel * np.max(np.abs(want.coeffs))


@pytest.mark.parametrize("hp", HOPF_GRID, ids=["a=b", "a=e2", "a=e1.5"])
def test_phi_and_delta_jets_match_finite_differences(hp):
    """Φ and Δ from the closed-form θ jet against central differences of
    phi_value and of the defining Δ = α|z|²Φ^{−α} + (2−α)|w|²Φ^{α−2}."""
    al = hp.alpha
    degs = np.array([sum(mt) for mt in multi_indices(2)])

    def delta(q):
        phi = M.phi_value(q, hp)
        return al * abs(q[0]) ** 2 * phi**-al + (2.0 - al) * abs(q[1]) ** 2 * phi ** (al - 2.0)

    for pt in V.sample_points("hopf-fundamental", 3, 5, hp=hp):
        Phi, _, Delta = M.phi_field(pt, hp)
        for jet, fn in ((Phi, lambda q: M.phi_value(q, hp)), (Delta, delta)):
            rel = np.abs(V.fd_jet(fn, pt, 2) - jet.coeffs) / (1.0 + np.abs(jet.coeffs))
            assert rel[degs == 1].max() < 1e-8
            assert rel[degs == 2].max() < 1e-6


def test_phi_field_rejects_a_theta_jet_that_misses_its_equation(monkeypatch):
    """The θ jet is checked against F by jet arithmetic: a wrong Hessian fails."""
    packed = wjet.jet_from_partials

    def bent(value, grad, hess):
        return packed(value, grad, hess + 1e-6)

    monkeypatch.setattr(M, "jet_from_partials", bent)
    with pytest.raises(ValueError, match="failed to converge"):
        M.phi_field(POINTS[0], HOPF_GRID[1])


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
        _, P = M.hessian_forms(pt, hp)
        _, dPhi, _ = wjet.partials(M.phi_field(pt, hp)[0])
        want = np.outer(dPhi[:2], dPhi[2:])
        assert np.all(np.abs(P.A - want) < 1e-12 * (1 + np.abs(P.A)))


def test_outer_product_matrix_is_gradient_outer_product():
    """Entry by entry, P[i][j] = ∂_iΦ · ∂̄_jΦ with the gradient of the Φ jet."""
    hp = M.HopfParams(E**2, E)
    pt = POINTS[1]
    _, P = M.hessian_forms(pt, hp)
    _, dPhi, _ = wjet.partials(M.phi_field(pt, hp)[0])
    holo, anti = dPhi[:2], dPhi[2:]
    for i in range(2):
        for j in range(2):
            want = holo[i] * anti[j]
            assert abs(P.A[i, j] - want) < 1e-12 * (1 + abs(want))


@pytest.mark.parametrize("hp", HOPF_GRID, ids=["a=b", "a=e2", "a=e1.5"])
def test_closed_form_hessian_matches_log_phi_jet(hp):
    pt = POINTS[2]
    Phi, _, _ = M.phi_field(pt, hp)
    lp = log(Phi)
    L = M.hessian_forms(pt, hp)[0].A
    for i in range(2):
        for j in range(2):
            want = lp.deriv_value(unit(i), unit(j))
            assert abs(L[i, j] - want) < 1e-10 * (1 + abs(want))


# -- hessian form matrices ------------------------------------------------------


def test_hessian_forms_closed_form_entries_and_rank():
    hp = M.HopfParams(E**2, E)
    pt = POINTS[0]
    L, P = M.hessian_forms(pt, hp)
    Phi, _, Delta = M.phi_field(pt, hp)
    phi, dl, al = Phi.value.real, Delta.value.real, hp.alpha
    z, w = pt
    assert abs(L.A[0, 0] - (al - 2) ** 2 * abs(w) ** 2 / (dl**3 * phi**2)) < 1e-10
    assert abs(L.A[1, 1] - al**2 * abs(z) ** 2 / (dl**3 * phi**2)) < 1e-10
    # both matrices are rank one
    assert abs(np.linalg.det(L.A)) < 1e-12
    assert abs(np.linalg.det(P.A)) < 1e-12
    assert L.hermitian_residual() < 1e-14
    assert P.hermitian_residual() < 1e-14
    assert np.linalg.eigvalsh(L.A).max() > 0
    assert np.linalg.eigvalsh(L.A).min() > -1e-14


def test_hessian_form_equal_multipliers_at_symmetric_point():
    """a=b at (1,1): ∂∂̄log(|z|²+|w|²) = ¼[[1,−1],[−1,1]]."""
    L, _ = M.hessian_forms((1.0, 1.0), M.HopfParams(E, E))
    assert np.max(np.abs(L.A - 0.25 * np.array([[1, -1], [-1, 1]]))) < 1e-12


@pytest.mark.parametrize("hp, rel", [(hp, 1e-14) for hp in HOPF_GRID] + [
    (M.HopfParams(1e3, 1.01), 1e-12), (M.HopfParams(1e6, 1.0001), 1e-10),
], ids=["a=b", "a=e2", "a=e1.5", "1e3", "1e6"])
def test_hopf_metrics_equal_the_closed_forms_of_L_and_P(hp, rel):
    """The metric jets, built from θ's jets alone, have the values
    ω_λ = (1+λ)L + P/Φ² and Δ³ω_{−1/2} = Δ³(½L + P/Φ²), with L and P from
    `hessian_forms`."""
    for pt in V.sample_points("hopf-fundamental", 10, 7, hp=hp):
        L, P = M.hessian_forms(pt, hp)
        Phi, Delta = M.phi_delta_values(pt, hp)
        cases = [(M.MetricSpec(kind="hopf-omega-lambda", a=hp.a, b=hp.b, lam=lam),
                  (1 + lam) * L.A + P.A / Phi**2) for lam in (-0.5, 0.0, 1.0)]
        cases.append((M.MetricSpec(kind="hopf-lc-flat", a=hp.a, b=hp.b),
                      Delta**3 * (0.5 * L.A + P.A / Phi**2)))
        for spec, want in cases:
            got = M.build_metric(spec, pt).values()
            assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


# -- metric assembly --------------------------------------------------------------


@pytest.mark.parametrize("lam", [-0.5, 0.0, 1.0])
@pytest.mark.parametrize("hp", HOPF_GRID, ids=["a=b", "a=e2", "a=e1.5"])
def test_omega_lambda_determinant_formula(hp, lam):
    spec = M.MetricSpec(kind="hopf-omega-lambda", a=hp.a, b=hp.b, lam=lam)
    for pt in POINTS:
        m = M.build_metric(spec, pt)
        Phi, _, Delta = M.phi_field(pt, hp)
        expect = (1 + lam) / (Delta.value.real**3 * Phi.value.real**2)
        det = np.linalg.det(m.values())
        assert abs(det - expect) / abs(expect) < 1e-10
        assert np.linalg.eigvalsh(m.values()).min() > 0


def test_omega_lambda_matches_direct_phi_derivative_assembly():
    """h_{ij̄} = (1+λ)Φ_{ij̄}/Φ − λ Φ_iΦ_j̄/Φ², with Φ derivatives read off the solved jet."""
    hp = M.HopfParams(E**1.5, E**1.1)
    lam = 0.7
    pt = POINTS[3]
    m = M.build_metric(M.MetricSpec(kind="hopf-omega-lambda", a=hp.a, b=hp.b, lam=lam), pt)
    Phi, _, _ = M.phi_field(pt, hp)
    phi = Phi.value
    for i in range(2):
        for j in range(2):
            phi_ij = Phi.deriv_value(unit(i), unit(j))
            phi_i = Phi.deriv_value(unit(i), zero2())
            phi_jb = Phi.deriv_value(zero2(), unit(j))
            want = (1 + lam) * phi_ij / phi - lam * phi_i * phi_jb / phi**2
            assert abs(m.h[i][j].value - want) < 1e-10 * (1 + abs(want))


def test_lc_flat_is_delta_cubed_times_omega_minus_half():
    hp = M.HopfParams(E**2, E)
    pt = POINTS[0]
    mf = M.build_metric(M.MetricSpec(kind="hopf-lc-flat", a=hp.a, b=hp.b), pt)
    mh = M.build_metric(M.MetricSpec(kind="hopf-omega-lambda", a=hp.a, b=hp.b, lam=-0.5), pt)
    _, _, Delta = M.phi_field(pt, hp)
    D3 = Delta * Delta * Delta
    for i in range(2):
        for j in range(2):
            want = (D3 * mh.h[i][j]).coeffs
            assert np.max(np.abs(mf.h[i][j].coeffs - want)) < 1e-12 * (1 + np.max(np.abs(want)))


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
        mc = M.build_metric(conf, pt)
        md = M.build_metric(direct, pt)
        for i in range(2):
            for j in range(2):
                assert np.max(np.abs(mc.h[i][j].coeffs - md.h[i][j].coeffs)) < 1e-12


def test_flat_and_kahler_test_metrics():
    m = M.build_metric(M.MetricSpec(kind="flat"), (0.4 + 0.1j, -0.2j))
    assert np.allclose(m.values(), np.eye(2))
    mk = M.build_metric(M.MetricSpec(kind="kahler-test"), (0.4 + 0.1j, -0.2j))
    assert geo.kahler_defect(mk) < 1e-14
    assert np.linalg.eigvalsh(mk.values()).min() >= 1.0 - 1e-12
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
    for i in range(2):
        for j in range(2):
            assert np.array_equal(m1.h[i][j].coeffs, m2.h[i][j].coeffs)
    other = M.build_metric(M.MetricSpec(kind="user-polynomial", seed=13, amp=0.05), pt)
    assert any(
        not np.array_equal(m1.h[i][j].coeffs, other.h[i][j].coeffs)
        for i in range(2)
        for j in range(2)
    )
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
    for i in range(2):
        for j in range(2):
            assert np.array_equal(mc.h[i][j].coeffs, mb.h[i][j].coeffs)


def test_conformal_ricci_change_law():
    """𝔯ic(e^f ω) = 𝔯ic(ω) − √−1∂∂̄f for random base metrics and factors."""
    pt = (0.3 - 0.15j, 0.2 + 0.45j)
    for seed in range(5):
        base = M.MetricSpec(kind="user-polynomial", seed=seed, amp=0.04)
        f = M.FieldSpec(kind="poly", seed=100 + seed, amp=0.15)
        conf = M.MetricSpec(kind="conformal", base=base, f=f)
        mb = M.build_metric(base, pt)
        mc = M.build_metric(conf, pt)
        fj = M.field_jet(f, pt, None)
        ddbar_f = np.array(
            [[fj.deriv_value(unit(i), unit(j)) for j in range(2)] for i in range(2)]
        )
        lhs = geo.lc_ricci(mc).A
        rhs = geo.lc_ricci(mb).A - ddbar_f
        assert np.max(np.abs(lhs - rhs)) / (1 + np.max(np.abs(rhs))) < 1e-10


def test_conformal_adjoint_change_law():
    """∂̄*_f ω_f = ∂̄*ω + √−1(n−1)∂f componentwise (n = 2 here)."""
    pt = (0.4 + 0.2j, -0.3 + 0.25j)
    base = M.MetricSpec(kind="user-polynomial", seed=21, amp=0.04)
    f = M.FieldSpec(kind="poly", seed=22, amp=0.2)
    mb = M.build_metric(base, pt)
    mc = M.build_metric(M.MetricSpec(kind="conformal", base=base, f=f), pt)
    fj = M.field_jet(f, pt, None)
    _, a10_base = geo.del_star(mb)
    _, a10_conf = geo.del_star(mc)
    df = np.array([d_dz(fj, i + 1).value for i in range(2)])
    want = a10_base.values + 1j * (2 - 1) * df
    assert np.max(np.abs(a10_conf.values - want)) < 1e-10 * (1 + np.max(np.abs(want)))
    # and the conjugate law for the other adjoint
    a01_base, _ = geo.del_star(mb)
    a01_conf, _ = geo.del_star(mc)
    dbf = np.array([d_dzbar(fj, i + 1).value for i in range(2)])
    want01 = a01_base.values - 1j * (2 - 1) * dbf
    assert np.max(np.abs(a01_conf.values - want01)) < 1e-10 * (1 + np.max(np.abs(want01)))


def test_conformal_scale_rejects_complex_factor():
    from lcflat.wjet import jet_var

    mb = M.build_metric(M.MetricSpec(kind="flat"), (0.1, 0.2))
    with pytest.raises(ValueError, match="real-valued"):
        M.conformal_scale(mb, jet_var(1, 0.1, 2))


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
        log_phi = log(M.phi_field(pt, hp)[0])
        for scale in (-1.0, 0.5):
            got = M.field_jet(M.FieldSpec(kind="log-phi", scale=scale), pt, hp)
            assert np.max(np.abs(got.coeffs - scale * log_phi.coeffs)) < 1e-14


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
    ],
)
def test_spec_parse_errors_name_the_problem(text, msg):
    with pytest.raises(ValueError, match=msg):
        M.parse_metric_spec(text)
