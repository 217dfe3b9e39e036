"""Connection/curvature/scalar machinery tests.

Oracles: flat space (everything vanishes), conformally-flat n=1 metrics with
hand-computed Ricci, Kähler potentials (all torsion-type quantities collapse),
and cross-checks between independent computation paths for the same tensor.
"""

import inspect
import math
import textwrap
from collections import Counter
from functools import cached_property

import numpy as np
import pytest

from conftest import (
    chern_ricci_oracle,
    connection_oracle,
    lc_scalar_oracle,
    lowered_lc_curvature,
    metric_from_fn,
    random_poly_metric_fn,
    random_small_point,
    riemannian_scalar_full_oracle,
    riemannian_scalar_oracle,
    torsion_oracle,
)
from lcflat import cli
from lcflat import geometry as geo
from lcflat import metrics as M
from lcflat import verify as V
from lcflat import wjet
from lcflat.wjet import conj, exp, jet_const

E = np.e
RNG = np.random.default_rng


def hermitian_residual(A):
    return np.max(np.abs(A - A.conj().T))


def flat_metric(n, pt):
    return metric_from_fn(
        n,
        lambda z, zb: [
            [jet_const(1.0 if i == j else 0.0, n) for j in range(n)] for i in range(n)
        ],
        pt,
    )


def kahler_potential_metric(n, pt):
    """h_{ij̄} = (1 + |z|²) δ_ij + z̄^i z^j, from the potential |z|² + ½|z|⁴."""

    def fn(z, zb):
        S = sum((z[k] * zb[k] for k in range(n)), jet_const(0.0, n))
        return [
            [
                (1.0 + S if i == j else jet_const(0.0, n)) + zb[i] * z[j]
                for j in range(n)
            ]
            for i in range(n)
        ]

    return metric_from_fn(n, fn, pt)


# -- flat space ------------------------------------------------------------


def test_flat_metric_all_curvature_vanishes():
    m = flat_metric(2, (0.3 + 0.2j, -0.1 + 0.5j))
    assert np.max(np.abs(geo.chern_curvature(m, m.inverse))) == 0.0
    assert np.max(np.abs(geo.chern_ricci(m))) == 0.0
    assert np.max(np.abs(geo.lc_ricci(m))) == 0.0
    assert np.max(np.abs(geo.lc_curvature(m))) == 0.0
    assert np.max(np.abs(lowered_lc_curvature(m))) == 0.0
    sc = geo.scalars(m)
    assert sc.s_C == sc.s_LC == sc.s == 0.0
    assert sc.torsion_sq == sc.delstar_sq == 0.0


def test_flat_metric_connection_symbols_vanish():
    m = flat_metric(2, (0.1 - 0.7j, 0.4 + 0.9j))
    ch = geo.christoffels(m)
    assert np.max(np.abs(ch.chern)) == 0.0
    assert np.max(np.abs(ch.lc_hol)) == 0.0
    assert np.max(np.abs(ch.lc_anti)) == 0.0


# -- one-variable hand oracles ----------------------------------------------


@pytest.mark.parametrize(
    "sign,expected",
    [(+1.0, -1.0), (-1.0, +1.0)],
    ids=["growing", "decaying"],
)
def test_conformal_exp_metric_chern_ricci_is_constant(sign, expected):
    """h = e^{±|z|²} has R_{11̄} = −∂²(±|z|²)/∂z∂z̄ = ∓1 at every point."""
    pt = (0.3 - 0.45j,)
    m = metric_from_fn(1, lambda z, zb: [[exp(sign * z[0] * zb[0])]], pt)
    A = geo.chern_ricci(m)
    assert abs(A[0, 0] - expected) < 1e-13
    # scalar: s_C = h^{-1} R
    zz = abs(pt[0]) ** 2
    assert abs(geo.chern_scalar(m) - expected * np.exp(-sign * zz)) < 1e-12


def test_one_variable_metrics_have_no_torsion():
    rng = RNG(11)
    fn = random_poly_metric_fn(1, rng)
    m = fn(random_small_point(1, rng))
    T, tsq = geo.torsion(m)
    assert np.max(np.abs(T)) == 0.0
    assert tsq == 0.0
    a01, a10 = geo.del_star(m)
    assert np.max(np.abs(a01)) == 0.0
    assert np.max(np.abs(a10)) == 0.0
    # with no adjoint defect the two Ricci paths coincide componentwise
    assert np.allclose(geo.lc_ricci(m), geo.chern_ricci(m), atol=1e-12)


# -- independent paths to the same tensor -------------------------------------


def test_chern_ricci_matches_the_jet_log_det_oracle():
    """The curvature trace h^{kℓ̄}R_{ij̄kℓ̄} against −∂∂̄ log det h taken on jets,
    on random polynomial metrics at n = 1, 2, 3 and on the Hopf kinds."""
    rng = RNG(23)
    metrics = [random_poly_metric_fn(n, rng)(random_small_point(n, rng))
               for n in (1, 2, 3) for _ in range(4)]
    for text in (
        f"hopf-lc-flat{{a={E**2!r},b={E!r}}}",
        f"hopf-omega-lambda{{a={-3.1 + 2.2j!r},b={0.5 - 1.4j!r},lambda=0.7}}",
        f"conformal{{base=hopf-omega-lambda{{a={E**2!r},b={E!r},lambda=-0.5}},f=log-delta{{scale=3.0}}}}",
    ):
        spec = M.parse_metric_spec(text)
        metrics += [M.build_metric(spec, p)
                    for p in V.sample_points("hopf-fundamental", 4, 3, hp=spec.hopf_params())]
    for m in metrics:
        A1 = geo.chern_ricci(m)
        A2 = chern_ricci_oracle(m)
        scale = 1 + max(np.max(np.abs(A1)), np.max(np.abs(A2)))
        assert np.max(np.abs(A1 - A2)) / scale < 1e-14  # 6.2e-16 measured


def test_lc_ricci_two_paths_agree_on_random_metrics():
    """Curvature-trace path vs Chern-Ricci-minus-adjoint-defect path."""
    rng = RNG(5)
    for _ in range(20):
        m = random_poly_metric_fn(2, rng)(random_small_point(2, rng))
        r1 = geo.lc_ricci(m)
        r2 = geo.lc_ricci_via_relation(m)
        scale = 1 + max(np.max(np.abs(r1)), np.max(np.abs(r2)))
        assert np.max(np.abs(r1 - r2)) / scale < 1e-12


def test_curvature_and_ricci_are_hermitian():
    rng = RNG(31)
    m = random_poly_metric_fn(2, rng)(random_small_point(2, rng))
    assert hermitian_residual(geo.chern_ricci(m)) < 1e-12
    assert hermitian_residual(geo.lc_ricci(m)) < 1e-12
    assert hermitian_residual(geo.d_del_star(m)) < 1e-14
    R = geo.chern_curvature(m, m.inverse)
    # R_{ij̄kℓ̄} = conj(R_{jīℓk̄})
    assert np.max(np.abs(R - R.transpose(1, 0, 3, 2).conj())) < 1e-12
    low = lowered_lc_curvature(m)
    assert np.max(np.abs(low - low.transpose(1, 0, 3, 2).conj())) < 1e-12


# -- Kähler collapse -----------------------------------------------------------


def test_kahler_metric_collapses_all_torsion_quantities():
    pt = (0.25 - 0.4j, 0.5 + 0.15j)
    m = kahler_potential_metric(2, pt)
    assert geo.kahler_defect(m) < 1e-14

    T, tsq = geo.torsion(m)
    assert np.max(np.abs(T)) < 1e-13
    assert abs(tsq) < 1e-13

    ch = geo.christoffels(m)
    assert np.max(np.abs(ch.lc_anti)) < 1e-13
    assert np.max(np.abs(ch.chern - ch.lc_hol)) < 1e-13

    a01, _ = geo.del_star(m)
    assert np.max(np.abs(a01)) < 1e-13
    assert np.max(np.abs(geo.d_del_star(m))) < 1e-12

    assert np.max(np.abs(geo.lc_ricci(m) - geo.chern_ricci(m))) < 1e-12


def test_kahler_scalar_relations():
    """On a Kähler metric: s = 2 s_C and s_LC = s_C."""
    m = kahler_potential_metric(2, (0.3 + 0.1j, -0.2 + 0.35j))
    sc = geo.scalars(m)
    assert abs(sc.s - 2 * sc.s_C) < 1e-10 * (1 + abs(sc.s))
    assert abs(sc.s_LC - sc.s_C) < 1e-10 * (1 + abs(sc.s_LC))
    assert abs(sc.torsion_sq) < 1e-13
    assert abs(sc.ddstar_pairing) < 1e-12


# -- torsion ---------------------------------------------------------------------


def test_torsion_antisymmetric_and_nonzero_off_kahler():
    rng = RNG(17)
    m = random_poly_metric_fn(2, rng)(random_small_point(2, rng))
    T, tsq = geo.torsion(m)
    assert np.max(np.abs(T + T.transpose(0, 2, 1))) < 1e-14
    assert tsq > 0
    assert geo.kahler_defect(m) > 1e-3


# -- scalar identities -------------------------------------------------------------


def test_scalar_identity_riemannian_decomposition():
    """s = 2 s_C + (⟨∂∂*ω + ∂̄∂̄*ω, ω⟩ − 2|∂*ω|²) − ½|T|² on generic metrics."""
    rng = RNG(41)
    for _ in range(10):
        m = random_poly_metric_fn(2, rng)(random_small_point(2, rng))
        sc = geo.scalars(m)
        rhs = 2 * sc.s_C + (sc.ddstar_pairing - 2 * sc.delstar_sq) - 0.5 * sc.torsion_sq
        assert abs(sc.s - rhs) / (1 + abs(sc.s)) < 1e-12


def test_scalar_identity_lc_vs_chern():
    """s_LC = s_C − ½⟨∂∂*ω + ∂̄∂̄*ω, ω⟩ = s_C − ⟨∂∂*ω, ω⟩ (real part pairing)."""
    rng = RNG(43)
    for _ in range(10):
        m = random_poly_metric_fn(2, rng)(random_small_point(2, rng))
        sc = geo.scalars(m)
        assert abs(sc.s_LC - (sc.s_C - 0.5 * sc.ddstar_pairing)) < 1e-12 * (1 + abs(sc.s_LC))
        # the half-sum pairing is twice the real part of the holomorphic half
        assert abs(sc.ddstar_pairing - 2 * sc.ddstar_hol_pairing.real) < 1e-12


def test_scalars_are_real():
    rng = RNG(47)
    m = random_poly_metric_fn(2, rng)(random_small_point(2, rng))
    sc = geo.scalars(m)
    for v in (sc.s_C, sc.s_LC, sc.s, sc.torsion_sq, sc.delstar_sq, sc.ddstar_pairing):
        assert isinstance(v, float)
    assert sc.delstar_sq >= 0
    assert sc.torsion_sq >= 0


# -- adjoint forms -----------------------------------------------------------------


def test_del_star_pair_is_mutually_conjugate():
    rng = RNG(53)
    m = random_poly_metric_fn(2, rng)(random_small_point(2, rng))
    a01, a10 = geo.del_star(m)
    assert np.max(np.abs(a10 - a01.conj())) < 1e-14


def test_d_del_star_matches_finite_differences_across_points():
    """∂_i of the connection trace, recomputed by re-jetting at shifted points."""
    rng = RNG(59)
    metric_at = random_poly_metric_fn(2, rng)
    pt = random_small_point(2, rng)
    n = 2

    def traces_at(p):
        a01, _ = geo.del_star(metric_at(p))
        return a01 / (-2j)  # Γ^k_{j̄k} values

    h = 1e-5
    A1_fd = np.empty((n, n), dtype=complex)
    for i in range(n):
        ex = np.zeros(n, dtype=complex)
        ex[i] = h
        ey = np.zeros(n, dtype=complex)
        ey[i] = 1j * h
        dx = (traces_at(tuple(np.array(pt) + ex)) - traces_at(tuple(np.array(pt) - ex))) / (2 * h)
        dy = (traces_at(tuple(np.array(pt) + ey)) - traces_at(tuple(np.array(pt) - ey))) / (2 * h)
        A1_fd[i, :] = -2.0 * 0.5 * (dx - 1j * dy)  # −2 ∂_{z^i} Γ^k_{j̄k}

    A1, A2 = geo.d_del_star_parts(metric_at(pt))
    scale = 1 + np.max(np.abs(A1))
    assert np.max(np.abs(A1 - A1_fd)) / scale < 1e-8
    assert np.max(np.abs(A2 - A1.conj().T)) < 1e-14


CHRISTOFFEL_FD_SPECS = [
    "user-polynomial{seed=101,amp=0.05}",
    "user-polynomial{seed=104,amp=0.05,n=3}",
    f"hopf-lc-flat{{a={E**2!r},b={E!r}}}",
]


@pytest.mark.parametrize("text", CHRISTOFFEL_FD_SPECS)
def test_christoffel_gradients_match_finite_differences_across_points(text):
    """Every gradient slot of Γ(Chern), Γ(LC hol) and Γ(LC mixed), against central
    differences of the symbol values at points shifted along x^i and y^i."""
    spec = M.parse_metric_spec(text)
    n = spec.dim
    hp = spec.hopf_params()
    if hp is not None:
        pt = V.sample_points("hopf-fundamental", 1, 5, hp=hp)[0]
    else:
        pt = V.sample_points("box", 1, 5, dim=n)[0]
    base = np.array(pt)

    def symbols_at(p):
        ch = geo.christoffels(M.build_metric(spec, tuple(p)))
        return np.stack([ch.chern, ch.lc_hol, ch.lc_anti])

    ch = geo.christoffels(M.build_metric(spec, pt))
    grads = np.stack([ch.chern_grad, ch.lc_hol_grad, ch.lc_anti_grad])
    h = 1e-5
    fd = np.empty_like(grads)
    for i in range(n):
        e = np.zeros(n, dtype=complex)
        e[i] = h
        dx = (symbols_at(base + e) - symbols_at(base - e)) / (2 * h)
        dy = (symbols_at(base + 1j * e) - symbols_at(base - 1j * e)) / (2 * h)
        fd[..., i] = 0.5 * (dx - 1j * dy)  # ∂/∂z^i
        fd[..., n + i] = 0.5 * (dx + 1j * dy)  # ∂/∂z̄^i
    scale = 1 + np.max(np.abs(grads), axis=(1, 2, 3, 4))
    assert np.all(scale > 1.01)  # the slots under test are not all zero
    err = np.max(np.abs(grads - fd), axis=(1, 2, 3, 4)) / scale
    assert np.all(err < 1e-8), err


# -- background Riemannian scalar ----------------------------------------------------


def test_riemannian_scalar_of_hopf_standard_is_three():
    """g = 2|z|⁻² (Euclidean) on ℝ⁴∖0 is ℝ × S³ scaled by 2, so s = 6/2 = 3."""
    spec = M.parse_metric_spec("hopf-standard")
    pts = V.sample_points("box", 6, 2) + V.sample_points("hopf-fundamental", 3, 2, hp=M.HopfParams(E, E))
    for p in pts:
        assert abs(geo.riemannian_scalar(M.build_metric(spec, p)) - 3.0) < 1e-12


def test_riemannian_scalar_of_flat_metric_is_zero():
    spec = M.parse_metric_spec("flat{n=3}")
    for p in V.sample_points("box", 3, 4, dim=3):
        assert geo.riemannian_scalar(M.build_metric(spec, p)) == 0.0


ORACLE_SPECS = [
    "flat",
    "kahler-test{n=3}",
    "hopf-standard",
    f"hopf-omega-lambda{{a={-3.1 + 2.2j!r},b={0.5 - 1.4j!r},lambda=0.7}}",
    f"hopf-lc-flat{{a={E**2!r},b={E!r}}}",
    "user-polynomial{seed=104,amp=0.05}",
    "user-polynomial{seed=104,amp=0.05,n=3}",
    "conformal{base=user-polynomial{seed=7,amp=0.04},f=poly{seed=8,amp=0.15}}",
    f"conformal{{base=hopf-omega-lambda{{a={E**2!r},b={E!r},lambda=-0.5}},f=log-delta{{scale=3.0}}}}",
]


@pytest.mark.parametrize("text", ORACLE_SPECS)
def test_scalars_and_torsion_match_the_derivations_they_replaced(text):
    """s on the Wirtinger slots against s on the real coordinates, the torsion
    read from the Chern symbols against the raised metric gradient, and
    s_LC = h^{ij̄}𝔯ic_{ij̄} against the double trace of the lowered tensor."""
    spec = M.parse_metric_spec(text)
    hp = spec.hopf_params()
    if hp is not None and spec.dim == 2:
        pts = V.sample_points("hopf-fundamental", 8, 3, hp=hp)
    else:
        pts = V.sample_points("box", 8, 3, dim=spec.dim)
    for p in pts:
        m = M.build_metric(spec, p)
        sc = geo.scalars(m)
        T, _ = geo.torsion(m)
        T0 = torsion_oracle(m)
        for new, old in ((sc.s, riemannian_scalar_oracle(m)), (sc.s_LC, lc_scalar_oracle(m))):
            assert abs(new - old) <= 1e-13 * (1 + abs(old)), (p, new, old)
        assert np.max(np.abs(T - T0)) <= 1e-13 * (1 + np.max(np.abs(T0))), p


def _check_points(spec, n_points, seeds):
    """The points `run_check` samples for spec, over several seeds."""
    hp = spec.hopf_params()
    if hp is not None and spec.dim == 2:
        return [p for seed in seeds for p in V.sample_points("hopf-fundamental", n_points, seed, hp=hp)]
    return [p for seed in seeds for p in V.sample_points("box", n_points, seed, dim=spec.dim)]


@pytest.mark.parametrize("text", ORACLE_SPECS)
def test_stacked_connection_matches_the_symbol_by_symbol_raise(text):
    """Each of the six views of the stacked arrays against the symbol raised on
    its own; the products sum in another order, so they agree to a few ulps
    of each array's largest entry (at most 4.9e-16 measured, 2e-15 allowed)."""
    spec = M.parse_metric_spec(text)
    for p in _check_points(spec, 10, (1, 2, 3)):
        m = M.build_metric(spec, p)
        ch = geo.christoffels(m)
        got = (ch.chern, ch.lc_hol, ch.lc_anti, ch.chern_grad, ch.lc_hol_grad, ch.lc_anti_grad)
        for new, old in zip(got, connection_oracle(m)):
            assert np.abs(new - old).max() <= 2e-15 * (1 + np.abs(old).max()), p


# On the Hopf-frame metrics s is a sum with cancellation, and the two
# summation orders part by more than 1e-15·(1 + |s|): up to 2.0e-15 on these
# three specs at seeds 1–6, and 5.6e-15 on hopf-omega-lambda{a=1e3,b=1.01,lambda=3}.
CANCELLING_SPECS = {ORACLE_SPECS[3], ORACLE_SPECS[4], ORACLE_SPECS[8]}


@pytest.mark.parametrize("text", ORACLE_SPECS)
def test_riemannian_scalar_matches_the_full_derivative_formula(text):
    """s from the two traces of ∂Γ that R_mn reads, against s from the whole
    (2n)⁴ tensor ∂Γ, at seeds 1–3."""
    spec = M.parse_metric_spec(text)
    tol = 1e-14 if text in CANCELLING_SPECS else 1e-15
    for p in _check_points(spec, 10, (1, 2, 3)):
        m = M.build_metric(spec, p)
        s, want = geo.riemannian_scalar(m), riemannian_scalar_full_oracle(m)
        assert abs(s - want) <= tol * (1 + abs(want)), (p, s, want)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_riemannian_scalar_out_of_range_is_nan_without_a_warning():
    """At a = 1e156 three of 40 sampled points have a G whose products leave
    the double range: their s is NaN, in the sample and alone, with no
    RuntimeWarning, and every other point's s is finite."""
    spec = M.parse_metric_spec("hopf-lc-flat{a=1e156,b=1.5}")
    pts = _check_points(spec, 40, (1,))
    s = geo.riemannian_scalar(M.build_metric(spec, pts))
    assert np.flatnonzero(~np.isfinite(s)).tolist() == [5, 13, 33]
    for k in (5, 13, 33):
        assert np.isnan(s[k]) and np.isnan(geo.riemannian_scalar(M.build_metric(spec, pts[k])))


# Planted defects in `riemannian_scalar`: one source line and its replacement.
SCALAR_DEFECTS = {
    "untransposed-block": ("B[b + np.s_[n:, :n]] = A.swapaxes(p, p + 1)", "B[b + np.s_[n:, :n]] = A"),
    "dropped-quadratic-term": ('            - np.einsum("...lnr,...rml->...mn", Gamma, Gamma)\n', ""),
}


def _mutant(owner, name, edits):
    """`owner.name` compiled from its source with each (old, new) edit made once.
    The owner is a module, or a class whose attribute is a cached property."""
    attr = vars(owner)[name]
    prop = isinstance(attr, cached_property)
    src = textwrap.dedent(inspect.getsource(attr.func if prop else attr))
    for old, new in edits:
        assert src.count(old) == 1, old
        src = src.replace(old, new)
    namespace = dict(vars(inspect.getmodule(owner)))
    exec(src, namespace)
    if prop:
        namespace[name].__set_name__(owner, name)
    return namespace[name]


def _scalar_key1_cell(kind):
    (cell,) = [c for c in cli._suite_cells()
               if c["identity"] == "scalar-key1" and c["metric"].startswith(kind)]
    return cell


@pytest.mark.parametrize("defect, kind", [
    ("untransposed-block", "hopf-omega-lambda"),
    ("untransposed-block", "user-polynomial"),
    ("dropped-quadratic-term", "hopf-omega-lambda"),
    ("dropped-quadratic-term", "user-polynomial"),
    # H is real and diagonal on hopf-standard, so the untransposed block is invisible there
    ("dropped-quadratic-term", "hopf-standard"),
])
def test_scalar_key1_suite_cells_fail_on_a_planted_scalar_defect(monkeypatch, defect, kind):
    cell = _scalar_key1_cell(kind)
    monkeypatch.setattr(geo, "riemannian_scalar",
                        _mutant(geo, "riemannian_scalar", [SCALAR_DEFECTS[defect]]))
    for seed in (1, 2, 3):
        rep = V.run_check(V.CheckSpec(identity="scalar-key1",
                                      metric=M.parse_metric_spec(cell["metric"]),
                                      n_points=cell["n_points"], seed=seed))
        assert rep.verdict == "fail", (seed, rep.max_residual)


# Planted defects upstream of several identities: each is a list of (owner,
# function, source edits), and the suite cells (identity, metric kind) that must
# fail at every seed are listed below.
PLANTED_DEFECTS = {
    # B and its gradient, the mixed slot of the stacked connection, transposed
    # on the wrong axes
    "B-wrong-axes": [(geo, "_connection", [
        ("T[1] = dH[..., n:] - dH[..., n:].swapaxes(-1, -2)",
         "T[1] = dH[..., n:] - dH[..., n:].swapaxes(-1, -3)"),
        ("dT[1] = ddH[..., n:, :] - ddH[..., n:, :].swapaxes(-2, -3)",
         "dT[1] = ddH[..., n:, :] - ddH[..., n:, :].swapaxes(-2, -4)"),
    ])],
    # the sign of Δ flipped in the (1,2) entry of Δ³ω_λ, in its value form and
    # in its row form alike
    "minus-D": [
        (M, "_delta_cubed_omega", [("(s * al * (al - 2.0) + D)", "(s * al * (al - 2.0) - D)")]),
        (M, "_delta_cubed_omega_rows", [("D + s * al * (al - 2.0) * _ONE",
                                         "-D + s * al * (al - 2.0) * _ONE")]),
    ],
    # the quadratic term h^{pq̄}(∂_i h_{kq̄})(∂̄_j h_{pℓ̄}) dropped from the Chern curvature
    "chern-quad-dropped": [(geo, "chern_curvature", [("return -sec + quad", "return -sec")])],
    # the inverse metric transposed; the Chern side inverts H itself, so only
    # the connection and the scalars read the defect
    "inverse-transposed": [(geo.MetricJet, "inverse", [("    return A\n", "    return A.swapaxes(-1, -2)\n")])],
    # the inverse of a sample's metric rolled one point along the batch axis,
    # so that each point reads its neighbour's h^{kℓ̄}; one point is left alone
    "batch-rolled-inverse": [(geo.MetricJet, "inverse", [
        ("    return A\n", "    return np.roll(A, 1, axis=0) if A.ndim > 2 else A\n")])],
    # the term h'⊗(e^f)' of the conformal Leibniz product kept without its transpose
    "conformal-cross-unsymmetrised": [(M, "conformal_scale", [
        ("(cross + cross.swapaxes(-1, -2))", "(cross + cross)")])],
    # F_{iθ}θⱼ written for F_{jθ}θᵢ in θ's Hessian
    "theta-cross-unsymmetrised": [(M, "_theta_row", [
        ("Fxx + cross + cross.swapaxes(0, 1)", "Fxx + cross + cross")])],
    # the rate of e₁ used for e₂ in the θ root
    "theta-root-c1-for-c2": [(M, "_theta_root", [
        ("c1, c2 = hp.c1, hp.c2", "c1, c2 = hp.c1, hp.c1")])],
    # ∂_nΓ^l_{ml} taken as ∂_lΓ^l_{mn} in the Riemannian Ricci tensor
    "riemannian-trace-swapped": [(geo, "riemannian_scalar", [
        ("            - dn_Gamma\n", "            - dl_Gamma\n")])],
    # the inverse of a sample's complexified metric G rolled one point along the
    # batch axis in the Riemannian scalar; one point is left alone
    "riemannian-batch-rolled": [(geo, "riemannian_scalar", [
        ("Ginv = np.linalg.inv(G)\n",
         "Ginv = np.linalg.inv(G)\n        Ginv = np.roll(Ginv, 1, axis=0) if Ginv.ndim > 2 else Ginv\n")])],
}
# Suite cells named by their spec text, where a defect misses the other cells
# of the same kind.
LC_FLAT_E2 = f"hopf-lc-flat{{a={math.e**2!r},b={math.e!r}}}"
LC_FLAT_E15 = f"hopf-lc-flat{{a={math.e**1.5!r},b={math.e**1.1!r}}}"
CONFORMAL_HOPF = (f"conformal{{base=hopf-omega-lambda{{a={math.e**2!r},b={math.e!r},lambda=-0.5}},"
                  "f=log-delta{scale=3.0}}")
PLANTED_DEFECT_CELLS = [
    ("B-wrong-axes", "lc-ricci-flat", "hopf-lc-flat"),
    ("B-wrong-axes", "tw-formula", "hopf-omega-lambda"),
    ("B-wrong-axes", "key-relation", "hopf-lc-flat"),
    ("B-wrong-axes", "key-relation", "user-polynomial"),
    ("B-wrong-axes", "scalar-010", "hopf-omega-lambda"),
    ("B-wrong-axes", "scalar-010", "user-polynomial"),
    ("B-wrong-axes", "scalar-key1", "hopf-omega-lambda"),
    ("B-wrong-axes", "scalar-key1", "user-polynomial"),
    ("B-wrong-axes", "kahler-collapse", "kahler-test"),
    ("minus-D", "lc-ricci-flat", "hopf-lc-flat"),
    ("minus-D", "det-formula", "hopf-omega-lambda"),
    ("minus-D", "tw-formula", "hopf-omega-lambda"),
    ("chern-quad-dropped", "lc-ricci-flat", "hopf-lc-flat"),
    ("chern-quad-dropped", "key-relation", "hopf-lc-flat"),
    ("chern-quad-dropped", "key-relation", "hopf-standard"),
    ("chern-quad-dropped", "key-relation", "user-polynomial"),
    ("chern-quad-dropped", "scalar-010", "hopf-standard"),
    ("chern-quad-dropped", "scalar-010", "hopf-omega-lambda"),
    ("chern-quad-dropped", "scalar-010", "user-polynomial"),
    ("chern-quad-dropped", "scalar-key1", "hopf-standard"),
    ("chern-quad-dropped", "scalar-key1", "hopf-omega-lambda"),
    ("chern-quad-dropped", "scalar-key1", "user-polynomial"),
    ("chern-quad-dropped", "kahler-collapse", "kahler-test"),
    ("inverse-transposed", "lc-ricci-flat", "hopf-lc-flat"),
    ("inverse-transposed", "tw-formula", "hopf-omega-lambda"),
    ("inverse-transposed", "key-relation", "hopf-lc-flat"),
    ("inverse-transposed", "key-relation", "user-polynomial"),
    ("inverse-transposed", "conformal-law", "conformal"),
    ("inverse-transposed", "scalar-010", "hopf-omega-lambda"),
    ("inverse-transposed", "scalar-010", "user-polynomial"),
    ("inverse-transposed", "scalar-key1", "hopf-omega-lambda"),
    ("inverse-transposed", "scalar-key1", "user-polynomial"),
    ("inverse-transposed", "kahler-collapse", "kahler-test"),
    ("conformal-cross-unsymmetrised", "conformal-law", "conformal"),
    # θ's Hessian is symmetric where c₁ = c₂ (a = b), so those cells are immune;
    # where it is wrong, the order-2 check of F = u + v − 1 aborts the check
    ("theta-cross-unsymmetrised", "lc-ricci-flat", LC_FLAT_E2),
    ("theta-cross-unsymmetrised", "lc-ricci-flat", LC_FLAT_E15),
    ("theta-cross-unsymmetrised", "tw-formula", "hopf-omega-lambda"),
    ("theta-cross-unsymmetrised", "key-relation", "hopf-lc-flat"),
    ("theta-cross-unsymmetrised", "conformal-law", CONFORMAL_HOPF),
    ("theta-cross-unsymmetrised", "scalar-010", "hopf-omega-lambda"),
    ("theta-cross-unsymmetrised", "scalar-key1", "hopf-omega-lambda"),
    ("theta-cross-unsymmetrised", "hessian-matrices", "hopf-lc-flat"),
    # a wrong θ misses F = u + v − 1 in value, which the scalar frame checks
    ("theta-root-c1-for-c2", "lc-ricci-flat", LC_FLAT_E2),
    ("theta-root-c1-for-c2", "lc-ricci-flat", LC_FLAT_E15),
    ("theta-root-c1-for-c2", "det-formula", "hopf-omega-lambda"),
    ("theta-root-c1-for-c2", "tw-formula", "hopf-omega-lambda"),
    ("theta-root-c1-for-c2", "key-relation", "hopf-lc-flat"),
    ("theta-root-c1-for-c2", "conformal-law", CONFORMAL_HOPF),
    ("theta-root-c1-for-c2", "scalar-010", "hopf-omega-lambda"),
    ("theta-root-c1-for-c2", "scalar-key1", "hopf-omega-lambda"),
    ("theta-root-c1-for-c2", "deck-invariance", "hopf-omega-lambda"),
    ("theta-root-c1-for-c2", "deck-invariance", "hopf-lc-flat"),
    ("theta-root-c1-for-c2", "deck-invariance", "conformal"),
    ("theta-root-c1-for-c2", "hessian-matrices", "hopf-lc-flat"),
    ("riemannian-trace-swapped", "scalar-key1", "hopf-standard"),
    ("riemannian-trace-swapped", "scalar-key1", "hopf-omega-lambda"),
    ("riemannian-trace-swapped", "scalar-key1", "user-polynomial"),
    ("riemannian-trace-swapped", "kahler-collapse", "kahler-test"),
    # only the checks that evaluate a whole sample at once can mix up points
    ("batch-rolled-inverse", "lc-ricci-flat", "hopf-lc-flat"),
    ("batch-rolled-inverse", "key-relation", "hopf-lc-flat"),
    ("batch-rolled-inverse", "key-relation", "hopf-standard"),
    ("batch-rolled-inverse", "key-relation", "user-polynomial"),
    ("batch-rolled-inverse", "conformal-law", "conformal"),
    ("batch-rolled-inverse", "scalar-010", "hopf-standard"),
    ("batch-rolled-inverse", "scalar-010", "hopf-omega-lambda"),
    ("batch-rolled-inverse", "scalar-010", "user-polynomial"),
    ("batch-rolled-inverse", "scalar-key1", "hopf-standard"),
    ("batch-rolled-inverse", "scalar-key1", "hopf-omega-lambda"),
    ("batch-rolled-inverse", "scalar-key1", "user-polynomial"),
    ("batch-rolled-inverse", "kahler-collapse", "kahler-test"),
    ("riemannian-batch-rolled", "scalar-key1", "hopf-standard"),
    ("riemannian-batch-rolled", "scalar-key1", "hopf-omega-lambda"),
    ("riemannian-batch-rolled", "scalar-key1", "user-polynomial"),
    ("riemannian-batch-rolled", "kahler-collapse", "kahler-test"),
]


# How a defect shows: a failing verdict, or a check that aborts because its
# points fail to build.
PLANTED_DEFECT_OUTCOMES = {"theta-cross-unsymmetrised": "aborted", "theta-root-c1-for-c2": "aborted"}


@pytest.mark.parametrize("defect, identity, metric", PLANTED_DEFECT_CELLS)
def test_suite_cells_fail_on_a_planted_defect(monkeypatch, defect, identity, metric):
    """Every expected-pass suite cell of the identity whose metric is of the
    kind `metric`, or is the spec `metric`, fails at every seed."""
    for owner, name, edits in PLANTED_DEFECTS[defect]:
        monkeypatch.setattr(owner, name, _mutant(owner, name, edits))
    cells = [c for c in cli._suite_cells() if c["identity"] == identity and c["expected"] == "pass"
             and metric in (c["metric"], c["metric"].split("{")[0])]
    assert cells
    want = PLANTED_DEFECT_OUTCOMES.get(defect, "fail")
    for cell in cells:
        spec = M.parse_metric_spec(cell["metric"])
        for seed in (1, 2, 3):
            check = V.CheckSpec(identity=identity, metric=spec, n_points=cell["n_points"], seed=seed)
            try:
                rep = V.run_check(check)
            except V.CheckAborted:
                assert want == "aborted", (cell["metric"], seed)
            else:
                assert rep.verdict == want, (cell["metric"], seed, rep.max_residual)


# -- the batch axis ---------------------------------------------------------------------

# Every metric kind that the batched identities build over a whole sample:
# the Hopf-frame kinds at the multipliers of the metric tests
# (including complex ones and α near 2), conformal metrics over a Hopf base
# with each field that reads the frame or a table, the polynomial kinds at
# n = 1, 2, 3 and hopf-standard.
_BATCH_MULTIPLIERS = [(E, E), (E**2, E), (E**1.5, E**1.1),
                      (complex(E**2 * np.exp(0.4j)), complex(E * np.exp(-1.1j))), (1e3, 1.01)]
BATCH_SPECS = (
    [f"hopf-lc-flat{{a={a!r},b={b!r}}}" for a, b in _BATCH_MULTIPLIERS]
    + [f"hopf-omega-lambda{{a={a!r},b={b!r},lambda=0.7}}" for a, b in _BATCH_MULTIPLIERS]
    + [f"conformal{{base=hopf-lc-flat{{a={E**2!r},b={E!r}}},f={f}}}"
       for f in ("log-delta{scale=3.0}", "log-phi{scale=-1.5}", "poly{seed=8,amp=0.15}")]
    + [f"conformal{{base=hopf-omega-lambda{{a={E**1.5!r},b={E**1.1!r},lambda=-0.5}},f=log-phi}}"]
    + [f"{kind}{{n={n}}}" for kind in ("flat", "kahler-test") for n in (1, 2, 3)]
    + [f"user-polynomial{{seed=104,amp=0.05,n={n}}}" for n in (1, 2, 3)]
    + ["hopf-standard"]
)


def _batched_arrays(m):
    """The arrays lc-ricci-flat and key-relation read, each with its points on
    the leading axis."""
    ch = geo.christoffels(m)
    stacked = (ch.value, ch.grad)  # [t, point, ...]
    return ((m.H, m.dH, m.ddH) + tuple(np.moveaxis(a, 0, 1) for a in stacked)
            + (geo.chern_ricci(m), geo.lc_ricci(m), geo.lc_ricci_via_relation(m)))


def _batched_invariants(m):
    """What the scalar identities read, each with its points on the leading
    axis: every `Scalars` field, the torsion and its norm, the Kähler defect
    and both adjoint forms."""
    sc = geo.scalars(m)
    return ([getattr(sc, name) for name in SCALAR_FIELDS + SCALAR_FORMS]
            + list(geo.torsion(m)) + [geo.kahler_defect(m)] + list(geo.del_star(m)))


def _leaves(values):
    """The arrays of a list whose items are arrays or tuples of arrays."""
    return [a for v in values for a in (v if isinstance(v, tuple) else (v,))]


@pytest.mark.parametrize("text", BATCH_SPECS)
def test_a_sample_built_at_once_matches_each_point_built_alone(text):
    """One metric over 12 points against the same point built as a sample of
    one.  H, dH, ddH, the connection and its gradient, the Chern-Ricci form
    and both 𝔯ic paths agree to 1e-15 of each array's largest entry; every
    scalar invariant and the forms they trace, the torsion, the Kähler defect
    and the adjoint forms agree to 1e-15·(1 + |value|) entry by entry."""
    spec = M.parse_metric_spec(text)
    pts = _check_points(spec, 12, (2,))
    whole = M.build_metric(spec, pts)
    arrays, invariants = _batched_arrays(whole), _leaves(_batched_invariants(whole))
    for k, p in enumerate(pts):
        alone = M.build_metric(spec, [p])
        for got, want in zip(arrays, _batched_arrays(alone)):
            assert got.shape[1:] == want.shape[1:]
            assert np.abs(got[k] - want[0]).max() <= 1e-15 * np.abs(want[0]).max(), (p, text)
        for got, want in zip(invariants, _leaves(_batched_invariants(alone)), strict=True):
            assert got.shape[1:] == want.shape[1:]
            assert np.all(np.abs(got[k] - want[0]) <= 1e-15 * (1 + np.abs(want[0]))), (p, text)


def test_one_point_has_no_batch_axis():
    """A point builds a metric whose arrays have no batch axis, and a sample
    of one builds the same arrays with one, bit for bit; each scalar
    invariant of a point is 0-d."""
    spec = M.parse_metric_spec(f"hopf-lc-flat{{a={E**2!r},b={E!r}}}")
    p = _check_points(spec, 1, (3,))[0]
    alone, sample = M.build_metric(spec, p), M.build_metric(spec, [p])
    assert alone.H.shape == (2, 2) and sample.H.shape == (1, 2, 2)
    ch, ch1 = geo.christoffels(alone), geo.christoffels(sample)
    assert np.array_equal(ch.value, ch1.value[:, 0]) and np.array_equal(ch.grad, ch1.grad[:, 0])
    for form in (geo.chern_ricci, geo.lc_ricci, geo.lc_ricci_via_relation):
        assert np.array_equal(form(alone), form(sample)[0])
    one, of_one = _leaves(_batched_invariants(alone)), _leaves(_batched_invariants(sample))
    for got, want in zip(one, of_one, strict=True):
        assert np.shape(got) == np.shape(want)[1:]
        assert np.array_equal(got, want[0])
    scalars = one[:len(SCALAR_FIELDS)] + [geo.torsion(alone)[1], geo.kahler_defect(alone)]
    assert all(np.shape(v) == () for v in scalars)


# -- validation and debug hooks ------------------------------------------------------


def test_non_hermitian_metric_rejected():
    def fn(z, zb):
        return [
            [jet_const(1.0, 2), jet_const(0.5j, 2)],
            [jet_const(0.5j, 2), jet_const(1.0, 2)],  # should be −0.5j
        ]

    with pytest.raises(ValueError, match="Hermitian"):
        metric_from_fn(2, fn, (0.1, 0.2))


@pytest.mark.parametrize("n", [2, 3])
def test_hermitian_test_accepts_exactly_what_allclose_accepts(n):
    """Finite matrices over twelve decades, with one entry's asymmetry set to
    a multiple of the tolerance near 1, so that both answers occur."""
    rng = RNG(83 + n)
    seen = set()
    for scale in 10.0 ** np.arange(-6, 7):
        for t in (0.0, 0.5, 0.9999, 0.999999, 1.0, 1.000001, 1.0001, 2.0):
            B = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            H = B + B.conj().T
            i, j = sorted(rng.choice(n, 2, replace=False))
            atol = 1e-10 * (1 + np.max(np.abs(H)))
            H[i, j] += t * (atol + 1e-5 * abs(H[j, i])) * np.exp(2j * np.pi * rng.random())
            want = np.allclose(H, H.conj().T, atol=1e-10 * (1 + np.max(np.abs(H))))
            assert geo.is_hermitian(H) == want, (scale, t)
            seen.add(want)
    assert seen == {True, False}


@pytest.mark.parametrize("H", [
    np.diag([np.inf, 1.0]),
    np.array([[1.0, np.inf], [np.inf, 1.0]]),
    np.array([[1.0, np.nan], [np.nan, 1.0]]),
], ids=["inf-diagonal", "inf-off-diagonal", "nan"])
def test_non_finite_metric_rejected(H):
    """A ValueError, not a RuntimeWarning (warnings are errors under pytest)."""
    with pytest.raises(ValueError, match="floating-point range"):
        geo.MetricJet(H.astype(complex), np.zeros((2, 2, 4), complex), np.zeros((2, 2, 4, 4), complex))


def test_chern_ricci_outside_the_double_range_is_a_value_error():
    """A gradient near 1e200 squares past the doubles in the curvature's
    quadratic term: a ValueError, not an inf or a RuntimeWarning."""
    H = np.eye(2, dtype=complex)
    m = geo.MetricJet(H, np.full((2, 2, 4), 1e200, complex), np.zeros((2, 2, 4, 4), complex))
    with pytest.raises(ValueError, match="Chern-Ricci form is outside the floating-point range"):
        geo.chern_ricci(m)


def test_non_positive_definite_metric_rejected():
    def fn(z, zb):
        return [
            [jet_const(1.0, 2), jet_const(2.0, 2)],
            [jet_const(2.0, 2), jet_const(1.0, 2)],
        ]

    with pytest.raises(ValueError, match="positive definite"):
        metric_from_fn(2, fn, (0.0, 0.0))


def test_hermitian_jet_residual_detects_jet_level_mismatch():
    def fn(z, zb):
        h = [[jet_const(1.0 if i == j else 0.0, 2) for j in range(2)] for i in range(2)]
        h[0][1] = 0.1 * z[0]
        h[1][0] = 0.1 * zb[0] + 0.05 * (z[1] - 0.3)  # Hermitian values, not conj(h[0][1])
        return h

    m = metric_from_fn(2, fn, (0.2, 0.3))
    assert m.hermitian_jet_residual() > 0.04

    def fn_good(z, zb):
        h = [[jet_const(1.0 if i == j else 0.0, 2) for j in range(2)] for i in range(2)]
        h[0][1] = 0.1 * z[0]
        h[1][0] = conj(h[0][1])
        return h

    assert metric_from_fn(2, fn_good, (0.2, 0.3)).hermitian_jet_residual() == 0.0


def test_debug_corruption_flips_mixed_symbols_and_their_gradients():
    rng = RNG(67)
    m = random_poly_metric_fn(2, rng)(random_small_point(2, rng))
    good = geo.christoffels(m)
    with geo.debug_corruption():
        bad = geo.christoffels(m)
    assert np.max(np.abs(good.lc_anti_grad)) > 1e-3
    assert np.array_equal(bad.lc_anti, -good.lc_anti)
    assert np.array_equal(bad.lc_anti_grad, -good.lc_anti_grad)
    assert np.array_equal(bad.chern_grad, good.chern_grad)


def test_debug_corruption_flips_the_mixed_symbols_of_a_sample():
    m = M.build_metric(M.parse_metric_spec("user-polynomial{seed=104,amp=0.05}"),
                       V.sample_points("box", 5, 1, dim=2))
    good = geo.christoffels(m)
    with geo.debug_corruption():
        bad = geo.christoffels(m)
    assert good.lc_anti.shape == (5, 2, 2, 2)
    assert np.array_equal(bad.lc_anti, -good.lc_anti)
    assert np.array_equal(bad.lc_anti_grad, -good.lc_anti_grad)
    assert np.array_equal(bad.chern, good.chern) and np.array_equal(bad.lc_hol_grad, good.lc_hol_grad)


def test_debug_corruption_breaks_two_path_agreement_and_restores():
    rng = RNG(61)
    m = random_poly_metric_fn(2, rng)(random_small_point(2, rng))
    with geo.debug_corruption():
        bad = np.max(np.abs(geo.lc_ricci(m) - geo.lc_ricci_via_relation(m)))
    good = np.max(np.abs(geo.lc_ricci(m) - geo.lc_ricci_via_relation(m)))
    assert bad > 1e-3
    assert good < 1e-12


@pytest.mark.parametrize("identity, metric, verdict", [
    ("key-relation", "user-polynomial{n=3}", "pass"),
    ("key-relation", "kahler-test{n=3}", "pass"),
    ("scalar-010", "user-polynomial{n=3}", "pass"),
    ("scalar-010", "kahler-test{n=3}", "pass"),
    ("kahler-collapse", "user-polynomial{n=3}", "fail"),  # not Kähler
    ("kahler-collapse", "kahler-test{n=3}", "pass"),
])
def test_checks_on_polynomial_metrics_build_no_jets(monkeypatch, identity, metric, verdict):
    """The geometry and the coefficient tables reach a verdict with every jet
    constructor and the jet product raising."""

    def no_jets(*args):
        raise AssertionError("a jet was built")

    for owner, name in ((wjet.WJet, "__init__"), (wjet, "_jet"), (wjet, "mul")):
        monkeypatch.setattr(owner, name, no_jets)
    rep = V.run_check(V.CheckSpec(identity=identity, metric=M.parse_metric_spec(metric),
                                  n_points=10, seed=1))
    assert rep.verdict == verdict, rep.max_residual


def test_connection_and_chern_ricci_are_built_once_per_metric(monkeypatch):
    calls = []
    build = geo._connection
    monkeypatch.setattr(geo, "_connection", lambda m: calls.append(m) or build(m))
    rng = RNG(71)
    m = random_poly_metric_fn(2, rng)(random_small_point(2, rng))
    geo.lc_ricci(m)
    geo.lc_ricci_via_relation(m)
    sc = geo.scalars(m)
    for name in SCALAR_FIELDS:
        assert np.isfinite(getattr(sc, name)), name
    assert len(calls) == 1
    assert geo.chern_ricci(m) is geo.chern_ricci(m)


SCALAR_FIELDS = ("s_C", "s_LC", "s", "torsion_sq", "delstar_sq", "ddstar_pairing",
                 "ddstar_hol_pairing")
SCALAR_FORMS = ("lc_ric", "del_stars", "ddstar_parts")  # the forms `Scalars` keeps


def test_scalars_form_each_field_once_and_only_when_read(monkeypatch):
    """Nothing is formed by `scalars` itself; each read forms its field once,
    through the module-level function that the tracer wraps."""
    calls = Counter()
    for name in ("chern_scalar", "lc_ricci", "riemannian_scalar", "torsion", "del_star",
                 "d_del_star_parts"):
        fn = getattr(geo, name)
        monkeypatch.setattr(geo, name, lambda m, fn=fn, name=name: calls.update([name]) or fn(m))
    rng = RNG(73)
    m = random_poly_metric_fn(3, rng)(random_small_point(3, rng))
    sc = geo.scalars(m)
    assert not calls
    first = {name: getattr(sc, name) for name in SCALAR_FIELDS}
    assert {name: getattr(sc, name) for name in SCALAR_FIELDS} == first
    assert set(calls.values()) == {1} and len(calls) == 6


@pytest.mark.parametrize("metric", [
    "user-polynomial{seed=103,amp=0.05,n=3}",
    f"hopf-omega-lambda{{a={E**2!r},b={E!r},lambda=0.0}}",
])
def test_scalar_010_reads_neither_the_riemannian_scalar_nor_the_torsion(monkeypatch, metric):
    def unread(m):
        raise AssertionError("scalar-010 formed an invariant it does not read")

    monkeypatch.setattr(geo, "riemannian_scalar", unread)
    monkeypatch.setattr(geo, "torsion", unread)
    rep = V.run_check(V.CheckSpec(identity="scalar-010", metric=M.parse_metric_spec(metric),
                                  n_points=10, seed=1))
    assert rep.verdict == "pass" and not rep.failures


def test_kahler_collapse_forms_each_invariant_once_per_sample(monkeypatch):
    calls = Counter()
    for name in ("_connection", "lc_curvature", "torsion", "riemannian_scalar", "del_star",
                 "d_del_star_parts"):
        fn = getattr(geo, name)
        monkeypatch.setattr(geo, name, lambda m, fn=fn, name=name: calls.update([name]) or fn(m))
    rep = V.run_check(V.CheckSpec(identity="kahler-collapse",
                                  metric=M.parse_metric_spec("kahler-test{n=3}"), n_points=10, seed=1))
    assert rep.verdict == "pass" and len(rep.per_point) == 10
    assert set(calls.values()) == {1} and len(calls) == 6, calls
