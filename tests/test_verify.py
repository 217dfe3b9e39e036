"""Checks on the verification layer itself: sampling, the FD oracle, residual
plumbing, report shape, and the engineered mutation control."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_jet, fd_oracle, hopf_flatness
from lcflat import geometry as geo
from lcflat import metrics as M
from lcflat import verify as V
from lcflat.wjet import log

E = math.e
HP = M.HopfParams(E**2, E)
LC_FLAT = M.MetricSpec(kind="hopf-lc-flat", a=E**2, b=E)
OMEGA0 = M.MetricSpec(kind="hopf-omega-lambda", a=E**2, b=E, lam=0.0)


# -- sampling ---------------------------------------------------------------


def test_sampler_is_deterministic():
    a = V.sample_points("hopf-fundamental", 10, 42, hp=HP)
    b = V.sample_points("hopf-fundamental", 10, 42, hp=HP)
    assert a == b
    c = V.sample_points("box", 10, 42)
    d = V.sample_points("box", 10, 42)
    assert c == d
    assert V.sample_points("box", 10, 43) != c


def test_fundamental_domain_points_satisfy_phi_range():
    # The extra pairs sit at the ends of the admissible range: equal large
    # multipliers, and α → 2 where Φ^{α−2} is nearly flat.
    for hp in (HP, M.HopfParams(1000.0, 1000.0), M.HopfParams(1e6, 1.0001)):
        pts = V.sample_points("hopf-fundamental", 40, 7, hp=hp)
        bound = abs(hp.a) * abs(hp.b)
        for p in pts:
            assert 1.0 <= M.phi_value(p, hp) < bound


def test_fundamental_domain_sample_reaches_both_ends_of_log_phi():
    """On a wide shell the whole of [0, log|a||b|] is sampled, not only its
    upper half: the boundary margin is relative on the log scale."""
    hp = M.HopfParams(1e6, 1.0001)
    top = math.log(abs(hp.a) * abs(hp.b))
    pts = V.sample_points("hopf-fundamental", 1000, 7, hp=hp)
    share = [math.log(M.phi_value(p, hp)) / top for p in pts]
    assert min(share) < 0.01 and max(share) > 0.99


def test_box_points_avoid_origin_ball():
    pts = V.sample_points("box", 60, 3, dim=2)
    for p in pts:
        assert np.linalg.norm(p) > 0.1


def test_sampler_edge_cases():
    assert len(V.sample_points("box", 1, 0)) == 1
    with pytest.raises(ValueError, match="domain"):
        V.sample_points("sphere", 5, 0)
    with pytest.raises(ValueError, match="HopfParams"):
        V.sample_points("hopf-fundamental", 5, 0)
    with pytest.raises(ValueError):
        V.sample_points("box", 0, 0)
    with pytest.raises(ValueError, match="dim must be >= 1"):
        V.sample_points("box", 3, 0, dim=0)  # no point could leave the origin ball


# -- check spec validation ------------------------------------------------------


def test_check_spec_validation():
    with pytest.raises(ValueError, match="unknown identity"):
        V.CheckSpec(identity="ricci-magic", metric=LC_FLAT)
    with pytest.raises(ValueError, match="n_points"):
        V.CheckSpec(identity="key-relation", metric=LC_FLAT, n_points=0)
    with pytest.raises(ValueError, match="tol"):
        V.CheckSpec(identity="key-relation", metric=LC_FLAT, tol=0.0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        V.CheckSpec(identity="key-relation", metric=LC_FLAT, seed=-1)


# -- run_check behavior ------------------------------------------------------------


def test_headline_check_passes():
    rep = V.run_check(
        V.CheckSpec(identity="lc-ricci-flat", metric=LC_FLAT, n_points=25, seed=1, tol=1e-8)
    )
    assert rep.verdict == "pass"
    assert rep.max_residual < 1e-10
    assert rep.warning is None
    assert len(rep.per_point) == 25


def test_flat_metric_residual_is_exactly_zero():
    rep = V.run_check(
        V.CheckSpec(
            identity="lc-ricci-flat", metric=M.MetricSpec(kind="flat"), n_points=5, seed=1, tol=1e-8
        )
    )
    assert rep.verdict == "pass"
    assert rep.max_residual == 0.0


def test_omega0_negative_control_fails_with_predicted_pattern():
    """ω_{λ=0} has 𝔯ic = (2−1/(1+λ))√−1∂∂̄logΦ + 3√−1∂∂̄logΔ ≠ 0."""
    rep = V.run_check(
        V.CheckSpec(identity="lc-ricci-flat", metric=OMEGA0, n_points=15, seed=2, tol=1e-8)
    )
    assert rep.verdict == "fail"
    assert rep.max_residual > 1e-3

    for p, _ in rep.per_point[:4]:
        m = M.build_metric(OMEGA0, p)
        ric = geo.lc_ricci(m)
        L, _ = M.hessian_forms(M.hopf_values(p, HP), HP)
        _, _, Delta = M.phi_field(M.hopf_values(p, HP), HP)
        dd_log_delta = log(Delta).hess[:2, 2:]
        rhs = (2.0 - 1.0 / (1.0 + 0.0)) * L + 3.0 * dd_log_delta
        assert np.max(np.abs(ric - rhs)) / (1 + np.max(np.abs(rhs))) < 1e-12


def test_identity_metric_mismatch_is_config_error():
    with pytest.raises(ValueError, match="requires"):
        V.run_check(
            V.CheckSpec(
                identity="det-formula", metric=M.MetricSpec(kind="flat"), n_points=3, seed=1, tol=1e-8
            )
        )
    with pytest.raises(ValueError, match="requires"):
        V.run_check(
            V.CheckSpec(
                identity="conformal-law", metric=LC_FLAT, n_points=3, seed=1, tol=1e-8
            )
        )


def test_spec_mismatch_raises_typed_spec_error():
    with pytest.raises(M.SpecError):
        V.run_check(V.CheckSpec(identity="hessian-matrices", metric=M.MetricSpec(kind="flat")))
    with pytest.raises(M.SpecError):
        V.run_check(V.CheckSpec(identity="deck-invariance", metric=M.MetricSpec(kind="flat")))


@pytest.mark.parametrize("identity, metric, needed", [
    ("conformal-law", LC_FLAT, "a conformal metric spec"),
    ("det-formula", M.MetricSpec(kind="flat"), "a hopf-omega-lambda metric spec"),
    ("tw-formula", LC_FLAT, "a hopf-omega-lambda metric spec"),
    ("hessian-matrices", M.MetricSpec(kind="flat"), "Hopf parameters"),
    ("deck-invariance", M.MetricSpec(kind="flat"), "Hopf parameters"),
    ("deck-invariance", M.MetricSpec(kind="flat", n=3, a=E, b=E), "two complex coordinates"),
])
def test_metric_needs_are_checked_when_the_check_spec_is_built(identity, metric, needed):
    with pytest.raises(M.SpecError, match=f"{identity} requires .*{needed}"):
        V.CheckSpec(identity=identity, metric=metric)


def test_kahler_collapse_validates_its_metric_once_per_point(monkeypatch):
    """Every geometry function reads one metric, validated once when it is built."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    rep = V.run_check(
        V.CheckSpec(identity="kahler-collapse", metric=M.MetricSpec(kind="kahler-test"), n_points=1)
    )
    assert rep.verdict == "pass"
    assert len(calls) == 1


def test_user_polynomial_metric_is_validated_once_per_point(monkeypatch):
    """One positive-definiteness test per point: MetricJet's, whose failure
    build_metric reports with the polynomial's seed.  key-relation builds one
    metric over the sample, so the test is one call on a stack of 10."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    spec = M.parse_metric_spec("user-polynomial{seed=101,amp=0.05}")
    rep = V.run_check(V.CheckSpec(identity="key-relation", metric=spec, n_points=10, seed=0))
    assert rep.verdict == "pass" and len(rep.per_point) == 10
    assert [a.shape for a in calls] == [(10, 2, 2)]


def _box_points_sorted(n, seed):
    pts = V.sample_points("box", n, seed, dim=2)
    return sorted(pts, key=lambda p: tuple((c.real, c.imag) for c in p))


def test_per_point_value_error_mentioning_requires_is_a_point_failure(monkeypatch):
    """Only SpecError is a usage error; any other ValueError fails just its point."""
    bad = _box_points_sorted(20, 3)[7]

    def residual(spec, points, notes):
        if bad in points:
            raise ValueError("this step requires a smaller radius")
        return [1e-15] * len(points)

    monkeypatch.setitem(
        V.IDENTITIES, "key-relation", replace(V.IDENTITIES["key-relation"], residual=residual))
    rep = V.run_check(
        V.CheckSpec(identity="key-relation", metric=M.MetricSpec(kind="flat"), n_points=20, seed=3)
    )
    assert rep.failures == [(bad, "this step requires a smaller radius")]
    assert len(rep.per_point) == 19
    assert rep.verdict == "pass"


@pytest.mark.parametrize("poison", [math.nan, math.inf, -math.inf])
def test_non_finite_residual_forces_fail_and_sets_the_stats(monkeypatch, poison):
    """A non-finite residual that is not first in the sorted sample still wins max/argmax."""
    bad = _box_points_sorted(10, 3)[4]
    monkeypatch.setitem(V.IDENTITIES, "key-relation", replace(
        V.IDENTITIES["key-relation"],
        residual=lambda spec, points, notes: [poison if p == bad else 1e-15 for p in points]))
    rep = V.run_check(
        V.CheckSpec(identity="key-relation", metric=M.MetricSpec(kind="flat"), n_points=10, seed=3)
    )
    assert rep.verdict == "fail"
    assert rep.argmax_point == bad
    assert not math.isfinite(rep.max_residual) and not math.isfinite(rep.mean_residual)
    assert math.isnan(rep.max_residual) == math.isnan(poison)


def test_deck_invariance_negative_control_through_reports():
    rep = V.run_check(
        V.CheckSpec(
            identity="deck-invariance",
            metric=M.MetricSpec(kind="flat", a=E, b=E),
            n_points=10,
            seed=4,
            tol=1e-10,
        )
    )
    assert rep.verdict == "fail"
    assert rep.max_residual > 1.0


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e5])
def test_hessian_determinant_term_is_measured_on_the_matrix_scale(scale):
    """A rank-1 matrix passes at any scale; adding 1e-6·max|M|·I fails at any scale."""
    tol = V.IDENTITIES["hessian-matrices"].tol
    v = np.array([0.6 + 0.3j, -0.2 + 0.7j])
    rank1 = np.outer(v, v.conj())
    rank1 *= scale / np.max(np.abs(rank1))
    bumped = rank1 + 1e-6 * scale * np.eye(2)
    assert V._scaled_det(rank1, np.max(np.abs(rank1))) <= 1e-15
    assert V._scaled_det(bumped, np.max(np.abs(bumped))) > tol
    assert V._scaled_det(np.zeros((2, 2)), 0.0) == 0.0


@pytest.mark.parametrize("identity, metric, seed", [
    # P has entries up to 5e5, so roundoff alone made |det P| 2.3e-5
    ("hessian-matrices",
     "hopf-omega-lambda{a=-894.702661620498+342.72267008739993j,"
     "b=-676.0257258193486+555.4043418082852j,lambda=0.9059292429842938}", 1924240443),
    # metric entries of 5e4 to 7e4 gave absolute deck differences of 4e-10 to 5e-10
    ("deck-invariance",
     "hopf-omega-lambda{a=18.640430161454745-120.09941011910766j,"
     "b=0.46862471385143634-0.8961828322036215j,lambda=2.5778785352078}", 444851059),
], ids=["hessian-matrices", "deck-invariance"])
def test_large_metrics_pass_on_their_own_scale(identity, metric, seed):
    spec = M.parse_metric_spec(metric)
    rep = V.run_check(V.CheckSpec(identity=identity, metric=spec, n_points=3, seed=seed))
    assert rep.verdict == "pass", rep.max_residual


def test_construction_failures_warn_below_ten_percent():
    # seed/amp chosen so exactly 3 of these 40 box points are not positive definite
    spec = M.MetricSpec(kind="user-polynomial", seed=0, amp=0.25)
    rep = V.run_check(
        V.CheckSpec(identity="key-relation", metric=spec, n_points=40, seed=11, tol=1e-8)
    )
    assert rep.warning is not None
    assert len(rep.failures) == 3
    assert len(rep.per_point) == 37
    assert rep.verdict == "pass"
    assert all("positive definite" in msg for _, msg in rep.failures)


def test_construction_failures_abort_at_ten_percent():
    spec = M.MetricSpec(kind="user-polynomial", seed=1, amp=0.25)
    with pytest.raises(V.CheckAborted, match="failed to construct"):
        V.run_check(
            V.CheckSpec(identity="key-relation", metric=spec, n_points=40, seed=11, tol=1e-8)
        )


def test_per_point_is_sorted_canonically():
    rep = V.run_check(
        V.CheckSpec(identity="key-relation", metric=LC_FLAT, n_points=12, seed=5, tol=1e-8)
    )
    keys = [tuple((c.real, c.imag) for c in p) for p, _ in rep.per_point]
    assert keys == sorted(keys)


def test_report_determinism_excluding_wall_time():
    def run():
        d = V.run_check(
            V.CheckSpec(identity="tw-formula", metric=OMEGA0, n_points=9, seed=13, tol=1e-8)
        ).to_dict()
        d.pop("wall_time")
        return json.dumps(d, sort_keys=True)

    assert run() == run()


def test_hessian_check_records_display_reading_gap():
    """Off-diagonal entries are conjugate-sensitive: the literal row-column
    reading of the displayed matrices differs from the computed tensor by a
    transpose; the gap is reported without failing the check."""
    rep = V.run_check(
        V.CheckSpec(identity="hessian-matrices", metric=LC_FLAT, n_points=10, seed=3, tol=1e-10)
    )
    assert rep.verdict == "pass"
    assert rep.notes["display_transpose_gap"] > 1e-6


# -- one pass over the sample, and the per-point fallback ----------------------


# lc-ricci-flat at 40 points, seed 1, on two specs whose samples have failing
# points, as the engine reported them when it built one metric per point:
# which points fail and why, the verdict, the warning and every other point's
# residual, bit for bit.  The batched check builds one metric over the sample
# and, when that fails, evaluates the sample again one point at a time.
FAILURE_PINS = json.loads((Path(__file__).parent / "data" / "failure_attribution.json").read_text())


@pytest.mark.parametrize("metric", sorted(FAILURE_PINS))
def test_failing_points_are_charged_to_their_own_point(metric):
    want = FAILURE_PINS[metric]
    rep = V.run_check(V.CheckSpec(identity="lc-ricci-flat", metric=M.parse_metric_spec(metric),
                                  n_points=40, seed=1))
    assert (rep.verdict, rep.warning) == (want["verdict"], want["warning"])
    assert [[V._point_json(p), msg] for p, msg in rep.failures] == want["failures"]
    assert [[V._point_json(p), r] for p, r in rep.per_point] == want["per_point"]


# scalar-010, scalar-key1, kahler-collapse and conformal-law at 40 points,
# seed 1, on specs whose samples have failing points or non-finite
# invariants, as the engine reported them when it evaluated these identities
# one point at a time: the verdict, the warning, the failures (point, message,
# order) and every other point's residual (null for NaN), or the abort
# message.  The same outcomes hold when a RuntimeWarning is an error.
SCALAR_PINS = json.loads(
    (Path(__file__).parent / "data" / "scalar_failure_attribution.json").read_text())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cell", list(SCALAR_PINS))
def test_scalar_checks_charge_failing_points_as_the_pointwise_checks_did(cell):
    identity, metric = cell.split(" ", 1)
    want = SCALAR_PINS[cell]
    check = V.CheckSpec(identity=identity, metric=M.parse_metric_spec(metric), n_points=40, seed=1)
    if "aborted" in want:
        with pytest.raises(V.CheckAborted) as exc:
            V.run_check(check)
        assert str(exc.value) == want["aborted"]
        return
    rep = V.run_check(check)
    assert (rep.verdict, rep.warning) == (want["verdict"], want["warning"])
    assert [[V._point_json(p), msg] for p, msg in rep.failures] == want["failures"]
    assert [V._point_json(p) for p, _ in rep.per_point] == [p for p, _ in want["per_point"]]
    for (p, r), (_, r0) in zip(rep.per_point, want["per_point"]):
        if r0 is None:
            assert math.isnan(r), p
        else:
            assert abs(r - r0) <= 1e-15 * (1 + abs(r0)), (p, r, r0)


def test_a_residual_that_drops_a_point_aborts_the_check(monkeypatch):
    """A residual must return one value per point; fewer values abort the
    check instead of silently dropping points, and so does a 0-d value."""
    entry = V.IDENTITIES["scalar-010"]
    for short, shape in ((lambda res: res[:-1], r"\(9,\)"), (lambda res: res[0], r"\(\)")):
        monkeypatch.setitem(V.IDENTITIES, "scalar-010", replace(
            entry, residual=lambda spec, pts, notes, short=short: short(entry.residual(spec, pts, notes))))
        check = V.CheckSpec(identity="scalar-010", metric=M.parse_metric_spec("flat{n=2}"), n_points=10)
        with pytest.raises(V.CheckAborted, match=f"^the scalar-010 residual returned shape {shape} for 10 points$"):
            V.run_check(check)


def test_a_sample_with_too_many_failing_points_still_aborts():
    spec = M.parse_metric_spec("hopf-lc-flat{a=1e160,b=1.5}")
    with pytest.raises(V.CheckAborted, match=r"^4/40 points failed to construct; first error: "
                                             r"the inverse metric is outside the floating-point range"):
        V.run_check(V.CheckSpec(identity="lc-ricci-flat", metric=spec, n_points=40, seed=1))


@pytest.mark.parametrize("metric, builds", [
    ("hopf-lc-flat{a=7.38905609893065,b=2.718281828459045}", 1),
    ("hopf-lc-flat{a=1e156,b=1.5}", 1 + 40),  # the sample, then each point
])
@pytest.mark.parametrize("identity", ["lc-ricci-flat", "key-relation"])
def test_the_whole_sample_is_one_metric_unless_a_point_fails(monkeypatch, identity, metric, builds):
    calls = []
    build = M.build_metric
    monkeypatch.setattr(M, "build_metric", lambda spec, p: calls.append(p) or build(spec, p))
    V.run_check(V.CheckSpec(identity=identity, metric=M.parse_metric_spec(metric), n_points=40, seed=1))
    assert len(calls) == builds and len(calls[0]) == 40


def _log_uniform(u, lo, hi):
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi),
       st.floats(0.0, 2 * math.pi), st.integers(0, 1000))
def test_the_headline_check_passes_over_the_multiplier_range(ub, ur, phase_a, phase_b, seed):
    """|b| in [1.01, 1e3] and |a|/|b| in [1, 1e3], log-uniform, with random
    phases: lc-ricci-flat passes at 1e-8 with no failing point (the worst of
    300 draws at 10 points measured 1.8e-13).  Closer to α = 2 the residual
    meets the roundoff floor of ROADMAP item 2."""
    mb = _log_uniform(ub, 1.01, 1e3)
    ma = mb * _log_uniform(ur, 1.0, 1e3)
    spec = M.MetricSpec(kind="hopf-lc-flat", a=ma * complex(math.cos(phase_a), math.sin(phase_a)),
                        b=mb * complex(math.cos(phase_b), math.sin(phase_b)))
    rep = V.run_check(V.CheckSpec(identity="lc-ricci-flat", metric=spec, n_points=10, seed=seed))
    assert rep.verdict == "pass" and not rep.failures, (spec.canonical(), rep.max_residual)


def test_corrupted_connection_is_caught_by_key_relation():
    spec = M.MetricSpec(kind="hopf-lc-flat", a=E**2, b=E)
    with geo.debug_corruption():
        rep = V.run_check(
            V.CheckSpec(identity="key-relation", metric=spec, n_points=8, seed=6, tol=1e-8)
        )
    assert rep.verdict == "fail"
    assert rep.max_residual > 1e-3
    rep2 = V.run_check(
        V.CheckSpec(identity="key-relation", metric=spec, n_points=8, seed=6, tol=1e-8)
    )
    assert rep2.verdict == "pass"


def test_report_validates_against_shipped_schema():
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as res

    schema = json.loads(
        res.files("lcflat").joinpath("report_schema.json").read_text()
    )
    rep = V.run_check(
        V.CheckSpec(identity="det-formula", metric=OMEGA0, n_points=6, seed=8, tol=1e-10)
    )
    jsonschema.validate(rep.to_dict(), schema)
    # also a failing report with warnings
    spec = M.MetricSpec(kind="user-polynomial", seed=0, amp=0.25)
    rep2 = V.run_check(
        V.CheckSpec(identity="lc-ricci-flat", metric=spec, n_points=40, seed=11, tol=1e-8)
    )
    jsonschema.validate(rep2.to_dict(), schema)


# -- FD oracle ----------------------------------------------------------------------


def assert_fd_close(grad, hess, fd):
    """First derivatives within 1e-8 and second within 1e-6, relative to 1 + |exact|."""
    _, fd_grad, fd_hess = fd
    assert np.max(np.abs(fd_grad - grad) / (1 + np.abs(grad))) < 1e-8
    assert np.max(np.abs(fd_hess - hess) / (1 + np.abs(hess))) < 1e-6


def test_fd_oracle_flat_metric_is_exact():
    table = fd_oracle(M.MetricSpec(kind="flat"), (0.4 + 0.1j, -0.3 + 0.2j))
    for (i, j), (value, grad, hess) in table.items():
        assert abs(value - (1.0 if i == j else 0.0)) < 1e-10
        assert np.max(np.abs(grad)) < 1e-10 and np.max(np.abs(hess)) < 1e-10


@pytest.mark.parametrize(
    "spec",
    [
        M.MetricSpec(kind="hopf-lc-flat", a=E**2, b=E),
        M.MetricSpec(kind="hopf-omega-lambda", a=E**1.5, b=E**1.1, lam=-0.5),
        M.MetricSpec(kind="hopf-standard", a=E, b=E),
        M.MetricSpec(kind="kahler-test"),
        M.MetricSpec(kind="user-polynomial", seed=5, amp=0.05),
    ],
    ids=["lc-flat", "omega-half", "standard", "kahler", "poly"],
)
def test_fd_oracle_agrees_with_jets_on_builtin_metrics(spec):
    p = V.sample_points("box", 1, 9, dim=2)[0]
    m = M.build_metric(spec, p)
    table = fd_oracle(spec, p)
    for (i, j), fd in table.items():
        assert_fd_close(m.dH[i, j], m.ddH[i, j], fd)


def test_fd_oracle_on_potential_scalars():
    p = V.sample_points("hopf-fundamental", 1, 17, hp=HP)[0]
    Phi, _, Delta = M.phi_field(M.hopf_values(p, HP), HP)
    cases = [
        (Phi, lambda q: M.phi_value(q, HP)),
        (log(Phi), lambda q: math.log(M.phi_value(q, HP))),
        (Delta, lambda q: M.phi_field(M.hopf_values(q, HP), HP)[2].value.real),
    ]
    for jet, fn in cases:
        assert_fd_close(jet.grad, jet.hess, fd_jet(fn, p, 2, hopf_flatness(HP)))

