"""Checks on the verification layer itself: sampling, the FD oracle, residual
plumbing, report shape, and the engineered mutation control."""

import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_jet, fd_oracle, hopf_flatness, phi_jets, plant_batch_broadcast_error
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


def _box_points_one_row_at_a_time(n, seed, dim):
    """The box sampler as a loop that draws one point per call and redraws
    while the point is in the origin ball."""
    rng = np.random.default_rng(seed)
    pts, redrawn = [], 0
    while len(pts) < n:
        raw = rng.uniform(-V.BOX_HALFWIDTH, V.BOX_HALFWIDTH, size=2 * dim)
        coords = raw[:dim] + 1j * raw[dim:]
        if np.linalg.norm(coords) <= V.ORIGIN_EXCLUSION:
            redrawn += 1
            continue
        pts.append(tuple(complex(c) for c in coords))
    return pts, redrawn


def test_box_sampler_draws_as_a_loop_over_single_points():
    """The sampler draws the rows a round still needs in one call; the stream
    is consumed in the same order, so its points equal those of one draw per
    point, bit for bit, redrawn points included."""
    redrawn = 0
    for dim in (1, 2, 3):
        for seed in range(50):
            want, r = _box_points_one_row_at_a_time(40, seed, dim)
            got = V.sample_points("box", 40, seed, dim=dim)
            assert [[(c.real, c.imag) for c in p] for p in got] == \
                [[(c.real, c.imag) for c in p] for p in want], (dim, seed)
            assert all(type(c) is complex for p in got for c in p)
            redrawn += r
    assert redrawn > 0


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


def test_an_oversize_hopf_sample_fails_before_its_first_draw(monkeypatch):
    """The Hopf sampler reserves its sample's normal draws before the first
    one, as the box sampler draws its sample at once, so a sample too large
    for memory fails at once instead of after drawing point by point; its
    points are tuples of Python complex numbers, as the box sampler's are."""
    pts = V.sample_points("hopf-fundamental", 5, 3, hp=HP)
    assert all(type(p) is tuple and len(p) == 2 and all(type(c) is complex for c in p) for p in pts)

    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError(f"drew ({name}) before the sample was reserved")

    monkeypatch.setattr(V.np.random, "default_rng", lambda seed: NoDraws())
    with pytest.raises(MemoryError):  # 32 bytes a point: 3.2e16 bytes, past any address space
        V.sample_points("hopf-fundamental", 10**15, 1, hp=HP)


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
        _, _, Delta = phi_jets(p, HP)
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


# Hopf samples as the sampler drew them with numpy's `uniform` and an
# in-place normalisation of the direction; a change in the draw stream fails.
SAMPLE_PINS = json.loads((Path(__file__).parent / "data" / "sample_points.json").read_text())


@pytest.mark.parametrize("pin", SAMPLE_PINS, ids=lambda pin: f"seed={pin['seed']}")
def test_hopf_samples_keep_their_draws(pin):
    hp = M.HopfParams(complex(*pin["a"]), complex(*pin["b"]))
    pts = V.sample_points("hopf-fundamental", len(pin["points"]), pin["seed"], hp=hp)
    assert len(pts) == len(pin["points"])
    for got, want in zip(pts, pin["points"]):
        for c, (re, im) in zip(got, want):
            assert abs(c - complex(re, im)) <= 1e-12 * abs(complex(re, im)), (got, want)


def _box_points_sorted(n, seed):
    pts = V.sample_points("box", n, seed, dim=2)
    return sorted(pts, key=lambda p: tuple((c.real, c.imag) for c in p))


def test_per_point_value_error_mentioning_requires_is_a_point_failure(monkeypatch):
    """Only SpecError is a usage error; a PointFailure fails just its point,
    whatever its message says."""
    bad = _box_points_sorted(20, 3)[7]

    def residual(spec, points, notes):
        if bad in points:
            raise geo.PointFailure("this step requires a smaller radius")
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


def _stub_check(monkeypatch, values, n, seed=3):
    """run_check on key-relation over flat at n box points, with a stub
    residual that gives the k-th point of the sorted sample values[k]."""
    order = _box_points_sorted(n, seed)
    monkeypatch.setitem(V.IDENTITIES, "key-relation", replace(
        V.IDENTITIES["key-relation"],
        residual=lambda spec, points, notes: [values[order.index(p)] for p in points]))
    rep = V.run_check(
        V.CheckSpec(identity="key-relation", metric=M.MetricSpec(kind="flat"), n_points=n, seed=seed))
    return rep, order


def test_a_tied_maximum_is_argmax_at_its_first_point_in_sorted_order(monkeypatch):
    rep, order = _stub_check(monkeypatch, [1e-15, 3e-15, 2e-15, 3e-15, 0.0, 3e-15, 1e-16], 7)
    assert rep.argmax_point == order[1] and rep.max_residual == 3e-15
    assert rep.verdict == "pass"
    rep, order = _stub_check(monkeypatch, [2e-15] * 5, 5)
    assert rep.argmax_point == order[0] and rep.max_residual == 2e-15


@pytest.mark.parametrize("poison", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 4, 8], ids=["first", "middle", "last"])
def test_a_non_finite_residual_anywhere_is_max_and_argmax(monkeypatch, poison, where):
    """A NaN or ±inf at the first, a middle or the last point of the sorted
    sample is the max and the argmax, above a larger finite residual, and
    fails the check; of two non-finite residuals the first one wins."""
    values = [1e-15] * 9
    values[(where + 2) % 9] = 0.5  # a finite maximum elsewhere
    values[where] = poison
    rep, order = _stub_check(monkeypatch, values, 9)
    assert rep.argmax_point == order[where] and rep.verdict == "fail"
    assert rep.max_residual.hex() == poison.hex()
    if where < 8:
        values[8] = math.inf
        rep, order = _stub_check(monkeypatch, values, 9)
        assert rep.argmax_point == order[where] and rep.max_residual.hex() == poison.hex()


@pytest.mark.parametrize("n", [1, 3, 7, 8, 40])
def test_the_mean_residual_is_the_exact_sum_rounded_once_over_n(monkeypatch, n):
    """One residual of 1 and n − 1 of 2⁻⁵³ (half an ulp of 1) tell summation
    orders apart: left to right, numpy's order below 8 terms, each 2⁻⁵³ rounds
    away, numpy's 8 running sums keep some of them, and the exact sum keeps
    them all.  The report's mean is
    `math.fsum` of the residuals over n, which differs from `np.mean` here at
    every n but 1."""
    values = [1.0] + [2.0**-53] * (n - 1)
    rep, _ = _stub_check(monkeypatch, values, n)
    assert [r for _, r in rep.per_point] == values
    want = (math.fsum(values) / n).hex()
    assert rep.mean_residual.hex() == want
    assert (float(np.mean(values)).hex() != want) == (n > 1)


def test_the_mean_residual_is_the_same_for_every_order_of_the_residuals(monkeypatch):
    """The same 40 residuals, spread over 20 orders of magnitude, given to the
    sorted sample's points in 8 orders: `np.mean` rounds them to more than one
    value, and the report's mean is `math.fsum` over 40 in every order."""
    rng = np.random.default_rng(5)
    values = (rng.random(40) * 10.0 ** rng.uniform(-17.0, 3.0, 40)).tolist()
    orders = [values] + [rng.permutation(values).tolist() for _ in range(7)]
    assert len({float(np.mean(v)).hex() for v in orders}) > 1
    want = (math.fsum(values) / 40).hex()
    for v in orders:
        rep, _ = _stub_check(monkeypatch, v, 40)
        assert rep.mean_residual.hex() == want


@pytest.mark.parametrize("values, want", [
    ([1e-15, 2e-15, math.nan, 1e-15], math.nan),
    ([math.nan, 1e308, 1e308], math.nan),
    ([math.inf, -math.inf, 1e-15], math.nan),
    ([1e-15, math.inf, 2e-15], math.inf),
    ([1e308, 1e308], math.inf),
    ([-0.0] * 10, 0.0),
], ids=["nan", "nan-and-overflow", "inf-and-minus-inf", "inf", "overflow", "minus-zeros"])
def test_the_mean_residual_of_special_values(monkeypatch, values, want):
    """A NaN anywhere makes the mean NaN, as do +inf and −inf together; a +inf
    makes it inf, and so does a finite sum past the double range, where
    `math.fsum` raises; −0.0 residuals have the mean 0.0."""
    rep, _ = _stub_check(monkeypatch, values, len(values))
    assert rep.mean_residual.hex() == want.hex()


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


@pytest.mark.parametrize("metric, n, seed, failed, larger", [
    ("hopf-lc-flat{a=7.38905609893065,b=2.718281828459045}", 10, 3, 0, "P"),
    ("hopf-omega-lambda{a=(5.1+3.2j),b=(-1.3+0.9j),lambda=0.7}", 25, 4, 0, "P"),
    # near the w-axis with Φ near 1 and α near 2, L's gap is the larger
    ("hopf-lc-flat{a=2.0,b=1.02}", 20, 15, 0, "L"),
    ("hopf-lc-flat{a=1e156,b=1.5}", 40, 1, 1, "P"),  # the point-by-point re-run
], ids=["e2-e", "complex", "L-larger", "fallback"])
def test_the_display_transpose_gap_is_the_sample_max_of_the_transpose_gaps(
        metric, n, seed, failed, larger):
    """The note is max over the evaluated points of max(|L − Lᵀ|, |P − Pᵀ|),
    with L and P from `hessian_forms` on each point, also when the sample
    is evaluated again point by point; the cases cover a sample where each
    of the two gaps is the larger."""
    spec = M.parse_metric_spec(metric)
    hp = spec.hopf_params()
    rep = V.run_check(V.CheckSpec(identity="hessian-matrices", metric=spec, n_points=n, seed=seed))
    assert len(rep.failures) == failed and len(rep.per_point) == n - failed
    gap = {"L": 0.0, "P": 0.0}
    for p, _ in rep.per_point:
        forms = dict(zip("LP", M.hessian_forms(M.hopf_values(p, hp), hp)))
        for name, A in forms.items():
            gap[name] = max(gap[name], np.abs(A - A.T).max())
    assert max(gap, key=gap.get) == larger
    assert rep.notes == {"display_transpose_gap": max(gap.values())}


# -- one pass over the sample, and the per-point fallback ----------------------


# lc-ricci-flat (a key that is a metric spec alone), det-formula and
# deck-invariance (keys "identity metric") at 40 points, seed 1, on specs
# whose samples have failing points, as the engine reported them when it
# evaluated each point alone: which points fail and why, the verdict, the
# warning and every other point's residual, bit for bit, or the abort
# message.  The batched check evaluates the sample in one pass and, when
# that fails, evaluates it again one point at a time.
FAILURE_PINS = json.loads((Path(__file__).parent / "data" / "failure_attribution.json").read_text())


@pytest.mark.parametrize("metric", sorted(FAILURE_PINS))
def test_failing_points_are_charged_to_their_own_point(metric):
    _assert_failure_pins(metric)


@pytest.mark.parametrize("metric", sorted(FAILURE_PINS))
def test_shared_samples_and_frames_keep_the_pinned_failures(metric):
    # The second run reads the first run's sample and frames, and the
    # metrics its point-by-point pass built; the failing points are solved
    # and built again and fail again.
    with V.shared_scope():
        _assert_failure_pins(metric)
        _assert_failure_pins(metric)


def _assert_failure_pins(key):
    want = FAILURE_PINS[key]
    identity, metric = key.split(" ", 1) if " " in key else ("lc-ricci-flat", key)
    check = V.CheckSpec(identity=identity, metric=M.parse_metric_spec(metric), n_points=40, seed=1)
    if "aborted" in want:
        with pytest.raises(V.CheckAborted) as exc:
            V.run_check(check)
        assert str(exc.value) == want["aborted"]
        return
    rep = V.run_check(check)
    assert (rep.verdict, rep.warning) == (want["verdict"], want["warning"])
    assert [[V._point_json(p), msg] for p, msg in rep.failures] == want["failures"]
    assert [[V._point_json(p), r] for p, r in rep.per_point] == want["per_point"]


def _frame_bits(hv) -> list:
    return [(x.real.hex(), x.imag.hex()) for x in hv]


def test_shared_frames_are_keyed_by_the_multipliers_and_the_signed_zeros():
    plus, minus = [0.0 + 0.5j, 0.3 + 0.2j], [complex(-0.0, 0.5), 0.3 + 0.2j]
    # the same point under another b, and under another a
    others = M.HopfParams(HP.a, E**1.1), M.HopfParams(E**1.5, HP.b)
    base = _frame_bits(M.hopf_values(plus, HP))
    want = [_frame_bits(M.hopf_values(minus, HP))]
    want += [_frame_bits(M.hopf_values(plus, hp)) for hp in others]
    assert all(w != base for w in want)
    with V.shared_scope():
        M.hopf_values(plus, HP)
        assert _frame_bits(M.hopf_values(minus, HP)) == want[0]
        assert [_frame_bits(M.hopf_values(plus, hp)) for hp in others] == want[1:]


def test_shared_scope_keeps_no_failure(monkeypatch):
    solved = []
    theta_root = M._theta_root
    monkeypatch.setattr(M, "_theta_root", lambda p, hp: solved.append(p) or theta_root(p, hp))
    with V.shared_scope():
        for p in ([0j, 0j], [1e200 + 0j, 0.5j]):  # the origin, and |z|² past the doubles
            for _ in range(2):
                with pytest.raises(geo.PointFailure):
                    M.hopf_values(p, HP)
        assert len(solved) == 4

        draw_points, failed = V._draw_points, []

        def draw_once_out_of_memory(*args):
            if not failed:
                failed.append(args)
                raise MemoryError
            return draw_points(*args)

        monkeypatch.setattr(V, "_draw_points", draw_once_out_of_memory)
        with pytest.raises(MemoryError):
            V.sample_points("hopf-fundamental", 5, 1, hp=HP)
        assert V.sample_points("hopf-fundamental", 5, 1, hp=HP) == draw_points(
            "hopf-fundamental", 5, 1, 2, HP)


def test_shared_samples_are_copies():
    with V.shared_scope():
        first = V.sample_points("box", 4, 2, dim=3)
        first.clear()
        assert V.sample_points("box", 4, 2, dim=3) == V._draw_points("box", 4, 2, 3, None)


# scalar-010, scalar-key1, kahler-collapse, conformal-law, tw-formula and
# hessian-matrices at 40 points, seed 1, on specs whose samples have failing
# points or non-finite invariants, as the engine reported them when it
# evaluated these identities one point at a time: the verdict, the warning,
# the failures (point, message, order) and every other point's residual (null
# for NaN), or the abort message.  The same outcomes hold when a
# RuntimeWarning is an error.  The one exception is kahler-collapse on
# hopf-omega-lambda{a=1e156,...}: a NaN term fails its point, so the 21
# points where |T|² is NaN have a NaN residual.
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


@pytest.mark.parametrize("identity", ["conformal-law", "deck-invariance"])
def test_a_field_past_the_doubles_fails_each_point_on_its_e_f_without_a_warning(identity):
    """scale = 1e308 takes f and its rows past the doubles: each point fails
    on its e^f (not on the reality test, which cannot read an inf), and no
    RuntimeWarning is issued on the way."""
    spec = M.parse_metric_spec("conformal{base=hopf-lc-flat,f=log-phi{scale=1e308}}")
    points = V.sample_points("hopf-fundamental", 40, 1, hp=spec.hopf_params())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for p in points:
            with pytest.raises(geo.PointFailure, match=r"^e\^f is outside the floating-point range at f = "):
                V.IDENTITIES[identity].residual(spec, [p], {})
    assert not caught, [str(w.message) for w in caught]


def _nan_torsion_norm(torsion):
    return lambda m: (torsion(m)[0], np.full(m.H.shape[:-2], np.nan))


def _nan_adjoint_forms(del_star):
    return lambda m: tuple(np.full_like(a, np.nan) for a in del_star(m))


@pytest.mark.parametrize("identity, metric, name, nan_term", [
    ("kahler-collapse", "kahler-test{n=2}", "torsion", _nan_torsion_norm),
    ("conformal-law", "conformal{base=user-polynomial{seed=7,amp=0.04},f=poly{seed=8,amp=0.15}}",
     "del_star", _nan_adjoint_forms),
], ids=["kahler-collapse", "conformal-law"])
def test_a_nan_in_a_later_term_fails_its_point(monkeypatch, identity, metric, name, nan_term):
    """A check that passes fails at every point once a term after the first
    (|T|² of kahler-collapse, the adjoint term of conformal-law) is NaN: the
    residual is NaN there, however small the first term is."""
    check = V.CheckSpec(identity=identity, metric=M.parse_metric_spec(metric), n_points=10, seed=3)
    assert V.run_check(check).verdict == "pass"
    monkeypatch.setattr(geo, name, nan_term(getattr(geo, name)))
    rep = V.run_check(check)
    assert rep.verdict == "fail" and not rep.failures
    assert all(math.isnan(r) for _, r in rep.per_point)


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


def test_a_broken_batch_path_aborts_instead_of_falling_back(monkeypatch):
    """Only a PointFailure sends a sample through the per-point fallback: a
    numpy error that only the batched path raises aborts the check and names
    the error, where a per-point re-run would pass it."""
    spec = M.parse_metric_spec("hopf-standard{a=2.718281828459045,b=2.718281828459045}")
    check = V.CheckSpec(identity="key-relation", metric=spec, n_points=20, seed=1)
    assert V.run_check(check).verdict == "pass"
    plant_batch_broadcast_error(monkeypatch)
    V.run_check(replace(check, n_points=1))  # one point still builds
    with pytest.raises(V.CheckAborted, match=r"^the key-relation residual raised ValueError: "
                                             r"operands could not be broadcast together"):
        V.run_check(check)


def _plant_singular_inversion(monkeypatch, H, size):
    """`np.linalg.inv` raises LinAlgError, as on a singular matrix, on a stack of
    size × size matrices that holds H: as a metric's value matrix (size 2) or
    as the H block of the complexified metric G = [[0, H], [Hᵀ, 0]] (size 4)."""
    inv = np.linalg.inv

    def planted(a):
        if a.shape[-1] == size and (a[..., :2, -2:] == H).all(axis=(-2, -1)).any():
            raise np.linalg.LinAlgError("Singular matrix")
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", planted)


HEADLINE_SPEC = "hopf-lc-flat{a=7.38905609893065,b=2.718281828459045}"


@pytest.mark.parametrize("identity, size, matrix", [
    ("lc-ricci-flat", 2, "the metric value matrix"),
    ("scalar-key1", 4, "the complexified metric G"),
])
def test_a_singular_inversion_fails_its_point(monkeypatch, identity, size, matrix):
    """A LinAlgError from inverting a singular matrix at one point of a 12-point
    sample is a PointFailure that names the matrix: that point fails with its
    message, the report warns, and the other 11 residuals are those of each
    point evaluated alone, bit for bit, as the fallback evaluates them."""
    spec = M.parse_metric_spec(HEADLINE_SPEC)
    check = V.CheckSpec(identity=identity, metric=spec, n_points=12, seed=1)
    clean = V.run_check(check)
    bad = clean.per_point[5][0]
    alone = [(p, V._residuals(check, [p], {})[0]) for p, _ in clean.per_point if p != bad]
    _plant_singular_inversion(monkeypatch, M.build_metric(spec, bad).H, size)
    rep = V.run_check(check)
    assert rep.failures == [(bad, f"{matrix} is singular at this point")]
    assert rep.warning == "1 of 12 points failed to construct"
    assert rep.per_point == alone
    assert rep.verdict == clean.verdict == "pass"


@pytest.mark.parametrize("read, size, matrix", [
    (lambda m: m.inverse, 2, "the metric value matrix"),
    (geo.chern_ricci, 2, "the metric value matrix"),
    (geo.riemannian_scalar, 4, "the complexified metric G"),
], ids=["inverse", "chern_ricci", "riemannian_scalar"])
def test_each_inversion_names_its_singular_matrix(monkeypatch, read, size, matrix):
    spec = M.parse_metric_spec(HEADLINE_SPEC)
    m = M.build_metric(spec, V.sample_points("hopf-fundamental", 3, 1, hp=spec.hopf_params()))
    _plant_singular_inversion(monkeypatch, m.H[1], size)
    with pytest.raises(geo.PointFailure, match=f"^{matrix} is singular at this point$"):
        read(m)


def _plant_eigvalsh_failure(monkeypatch, H=None):
    """`np.linalg.eigvalsh` raises LinAlgError, as when its iteration does not
    converge, on a stack of matrices that holds H, or on every stack if H is None."""
    eigvalsh = np.linalg.eigvalsh

    def planted(a):
        if H is None or (a == H).all(axis=(-2, -1)).any():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", planted)


def test_an_eigenvalue_solve_that_does_not_converge_fails_its_point(monkeypatch):
    """A LinAlgError from the metric's positive-definiteness test at one point
    of a 12-point sample is a PointFailure that names the metric value matrix:
    that point fails with its message, the report warns, and the other 11
    residuals are those of each point evaluated alone.  At every point it is
    the ≥10% abort, with the same message."""
    spec = M.parse_metric_spec(HEADLINE_SPEC)
    check = V.CheckSpec(identity="lc-ricci-flat", metric=spec, n_points=12, seed=1)
    clean = V.run_check(check)
    bad = clean.per_point[5][0]
    alone = [(p, V._residuals(check, [p], {})[0]) for p, _ in clean.per_point if p != bad]
    message = "the metric value matrix's eigenvalues did not converge at this point"
    _plant_eigvalsh_failure(monkeypatch, M.build_metric(spec, bad).H)
    rep = V.run_check(check)
    assert rep.failures == [(bad, message)]
    assert rep.warning == "1 of 12 points failed to construct"
    assert rep.per_point == alone
    assert rep.verdict == clean.verdict == "pass"
    _plant_eigvalsh_failure(monkeypatch)
    with pytest.raises(V.CheckAborted, match=f"^12/12 points failed to construct; first error: {message}$"):
        V.run_check(check)


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


# -- normaliser pins ------------------------------------------------------------------
#
# A normaliser is the easiest place to fool a check: `/` for `*`, or the
# smaller of two scales for the larger, can turn a real error into a PASS.
# Each pin plants an absolute error of known size in one quantity that a
# residual reads and requires the residual that the identity's formula
# predicts (a difference over its normaliser, as the module docstring and the
# residual's docstring state them), within 1e-12 relative.  The planted error
# is far above the identity's roundoff, so the unplanted difference does not
# show at 1e-12.


def _form_max(a):
    return np.abs(a).max(axis=(-2, -1))


def _plus(a, index, size):
    """A copy of the array a (complex) with `size` added at [..., *index]."""
    out = np.array(a, complex)
    out[(...,) + index] += size
    return out


def _planted(monkeypatch, owner, name, plant):
    """Replace owner.name by a function that passes its output through plant."""
    fn = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: plant(fn(*args)))


class _PlantedScalars:
    """`geo.Scalars` with a planted addition to some of its fields."""

    def __init__(self, sc, plants):
        self.sc, self.plants = sc, plants

    def __getattr__(self, name):
        value = getattr(self.sc, name)
        return value + self.plants[name] if name in self.plants else value


def _pin_lc_ricci_flat(monkeypatch, spec, pts):
    # max(|𝔯ic| by either path) / (1 + max|Ric|): e on the relation path.
    m = M.build_metric(spec, pts)
    e = 0.25
    _planted(monkeypatch, geo, "lc_ricci_via_relation", lambda r: _plus(r, (0, 0), e))
    return e / (1.0 + _form_max(geo.chern_ricci(m)))


def _pin_key_relation(monkeypatch, spec, pts):
    # max|r1 − r2| / (1 + max(max|r1|, max|r2|)): r2 + e, with e above 2 max|r1|,
    # so the larger scale is max|r2 + e|.
    m = M.build_metric(spec, pts)
    r1, r2 = geo.lc_ricci(m), geo.lc_ricci_via_relation(m)
    e = 1.0 + 3.0 * _form_max(r1)
    _planted(monkeypatch, geo, "lc_ricci_via_relation", lambda r: _plus(r, (0, 0), e))
    return e / (1.0 + _form_max(_plus(r2, (0, 0), e)))


def _conformal_terms(spec, pts):
    n = spec.dim
    mb, mc, (_, fg, fh) = M.build_conformal_metrics(spec, pts)
    lhs, rhs = geo.lc_ricci(mc), geo.lc_ricci(mb) - fh[..., :n, n:]
    a10_c, want = geo.del_star(mc)[1], geo.del_star(mb)[1] + 1j * (n - 1) * fg[..., :n]
    return lhs, rhs, a10_c, want


def _pin_conformal_ric(monkeypatch, spec, pts):
    # r_ric = max|lhs − rhs| / (1 + max(max|lhs|, max|rhs|)): e on f_zz̄ moves
    # rhs by −e, and e is above 2 max|lhs|.
    n = spec.dim
    lhs, rhs, _, _ = _conformal_terms(spec, pts)
    e = 1.0 + 3.0 * _form_max(lhs)
    _planted(monkeypatch, M, "build_conformal_metrics", lambda out: (
        out[0], out[1], (out[2][0], out[2][1], _plus(out[2][2], (0, n), e))))
    return e / (1.0 + _form_max(_plus(rhs, (0, 0), -e)))


def _pin_conformal_adjoint(monkeypatch, spec, pts):
    # r_adj = max|∂̄*_f ω_f − want| / (1 + max(max|∂̄*_f ω_f|, max|want|)):
    # e on f_z moves want by √−1(n−1)e.
    n = spec.dim
    _, _, a10_c, want = _conformal_terms(spec, pts)
    e = 1.0 + 3.0 * np.abs(a10_c).max(axis=-1)
    _planted(monkeypatch, M, "build_conformal_metrics", lambda out: (
        out[0], out[1], (out[2][0], _plus(out[2][1], (0,), e), out[2][2])))
    return (n - 1) * e / (1.0 + np.abs(_plus(want, (0,), 1j * (n - 1) * e)).max(axis=-1))


def _pin_det_formula(monkeypatch, spec, pts):
    # |det − expect| / |expect| with expect = (1+λ)/(Δ³Φ²): e added to det.
    hp = spec.hopf_params()
    expect = np.array([(1.0 + spec.lam_value) / (hv.delta**3 * hv.phi**2)
                       for hv in (M.hopf_values(p, hp) for p in pts)])
    e = 0.1 * expect.max()
    _planted(monkeypatch, np.linalg, "det", lambda d: d + e)
    return e / expect


def _tw_terms(spec, pts):
    hp = spec.hopf_params()
    hv = M.hopf_frames(np.asarray(pts), hp)
    target = M.hessian_forms(hv, hp)[0] / (1.0 + spec.lam_value)
    return target, 1j / (1.0 + spec.lam_value) * M.dbar_log_phi(hv)


def _pin_tw_ddstar(monkeypatch, spec, pts):
    # max|∂∂*ω − L/(1+λ)| / (1 + max|L/(1+λ)|): e on ∂∂*ω.
    target, _ = _tw_terms(spec, pts)
    e = 0.5
    _planted(monkeypatch, geo, "d_del_star_parts", lambda p: (_plus(p[0], (0, 0), e), p[1]))
    return e / (1.0 + _form_max(target))


def _pin_tw_delstar(monkeypatch, spec, pts):
    # max|∂*ω − want| / (1 + max|want|), want = (√−1/(1+λ))∂̄ log Φ: e on ∂*ω.
    _, want = _tw_terms(spec, pts)
    e = 0.5
    _planted(monkeypatch, geo, "del_star", lambda a: (_plus(a[0], (0,), e), a[1]))
    return e / (1.0 + np.abs(want).max(axis=-1))


def _pin_scalar_010(monkeypatch, spec, pts):
    # |s_LC − (s_C − ½⟨·,·⟩)| / (1 + |s_LC|): e on s_C.
    s_lc = geo.scalars(M.build_metric(spec, pts)).s_LC
    e = 0.5
    _planted(monkeypatch, geo, "scalars", lambda sc: _PlantedScalars(sc, {"s_C": e}))
    return e / (1.0 + np.abs(s_lc))


def _pin_scalar_key1(monkeypatch, spec, pts):
    # |s − (2s_C + …)| / (1 + |s|): e on s_C moves the right-hand side by 2e.
    s = geo.scalars(M.build_metric(spec, pts)).s
    e = 0.5
    _planted(monkeypatch, geo, "scalars", lambda sc: _PlantedScalars(sc, {"s_C": e}))
    return 2.0 * e / (1.0 + np.abs(s))


def _pin_deck(monkeypatch, spec, pts):
    # max|J h(az, bw) J† − h(z, w)| / (1 + max|h(z, w)|): e on h₁₁ at each image,
    # which J = diag(a, b) scales by |a|².
    h = M.metric_values(spec, pts)
    e = 0.3
    half = len(pts)
    _planted(monkeypatch, M, "metric_values",
             lambda H: np.concatenate((H[:half], _plus(H[half:], (0, 0), e))))
    return abs(spec.hopf_params().a) ** 2 * e / (1.0 + _form_max(h))


def _pin_hessian_L(monkeypatch, spec, pts):
    # max|L − k θ_{zz̄…}| / (1 + max|L|): e on θ_{zz̄} moves the jet's L by k·e.
    hp = spec.hopf_params()
    L, _ = M.hessian_forms(M.hopf_frames(np.asarray(pts), hp), hp)
    e = 0.5

    def plant(out):
        phi, (t0, tg, th), delta = out
        return phi, (t0, tg, _plus(th, (0, 2), e)), delta

    _planted(monkeypatch, M, "phi_field", plant)
    return hp.k * e / (1.0 + _form_max(L))


def _pin_hessian_P(monkeypatch, spec, pts):
    # max|P − Φ'⊗Φ̄'| / (1 + max|P|): e on Φ_z̄ moves column z̄ of the jet's P by
    # (Φ_z, Φ_w)·e.
    hp = spec.hopf_params()
    hv = M.hopf_frames(np.asarray(pts), hp)
    _, P = M.hessian_forms(hv, hp)
    dphi = M.phi_field(hv, hp)[0][1]
    e = 0.5

    def plant(out):
        (p0, pg, ph), theta, delta = out
        return (p0, _plus(pg, (2,), e), ph), theta, delta

    _planted(monkeypatch, M, "phi_field", plant)
    return e * np.abs(dphi[..., :2]).max(axis=-1) / (1.0 + _form_max(P))


def _pin_kahler_s(monkeypatch, spec, pts):
    # |s − 2s_C| / (1 + |s|): e on s.
    s = geo.scalars(M.build_metric(spec, pts)).s
    e = 0.5
    _planted(monkeypatch, geo, "scalars", lambda sc: _PlantedScalars(sc, {"s": e}))
    return e / (1.0 + np.abs(s + e))


def _pin_kahler_s_lc(monkeypatch, spec, pts):
    # |s_LC − s_C| / (1 + |s_LC|): e on s_LC.
    s_lc = geo.scalars(M.build_metric(spec, pts)).s_LC
    e = 0.5
    _planted(monkeypatch, geo, "scalars", lambda sc: _PlantedScalars(sc, {"s_LC": e}))
    return e / (1.0 + np.abs(s_lc + e))


def _pin_kahler_defect(monkeypatch, spec, pts):
    # (Kähler defect) / (1 + max|h|): e on the defect.
    H = M.build_metric(spec, pts).H
    e = 0.5
    _planted(monkeypatch, geo, "kahler_defect", lambda d: d + e)
    return e / (1.0 + _form_max(H))


def _pin_kahler_ricci_gap(monkeypatch, spec, pts):
    # max|𝔯ic − Ric| / (1 + max|Ric|): e on 𝔯ic.
    ric = geo.chern_ricci(M.build_metric(spec, pts))
    e = 0.5
    _planted(monkeypatch, geo, "scalars", lambda sc: _PlantedScalars(
        sc, {"lc_ric": np.eye(1, ric.shape[-1] ** 2).reshape(ric.shape[-2:]) * e}))
    return e / (1.0 + _form_max(ric))


A2 = "a=7.38905609893065,b=2.718281828459045"
HOPF_CONFORMAL = f"conformal{{base=hopf-omega-lambda{{{A2},lambda=-0.5}},f=log-delta{{scale=3.0}}}}"
NORMALISER_PINS = {
    "lc-ricci-flat": (f"hopf-lc-flat{{{A2}}}", _pin_lc_ricci_flat),
    "key-relation": ("user-polynomial{seed=101,amp=0.05}", _pin_key_relation),
    "conformal-law/ricci": (HOPF_CONFORMAL, _pin_conformal_ric),
    "conformal-law/adjoint": (HOPF_CONFORMAL, _pin_conformal_adjoint),
    "conformal-law/poly": ("conformal{base=user-polynomial{seed=7,amp=0.04},f=poly{seed=8,amp=0.15}}",
                           _pin_conformal_ric),
    "det-formula": (f"hopf-omega-lambda{{{A2},lambda=0.5}}", _pin_det_formula),
    "tw-formula/ddstar": (f"hopf-omega-lambda{{{A2},lambda=0.5}}", _pin_tw_ddstar),
    "tw-formula/delstar": (f"hopf-omega-lambda{{{A2},lambda=0.5}}", _pin_tw_delstar),
    "scalar-010": ("user-polynomial{seed=103,amp=0.05}", _pin_scalar_010),
    "scalar-key1": ("user-polynomial{seed=104,amp=0.05}", _pin_scalar_key1),
    "deck-invariance": ("hopf-omega-lambda{a=6.8+2.9j,b=2.718281828459045,lambda=0.0}", _pin_deck),
    "hessian-matrices/L": (f"hopf-lc-flat{{{A2}}}", _pin_hessian_L),
    "hessian-matrices/P": (f"hopf-lc-flat{{{A2}}}", _pin_hessian_P),
    "kahler-collapse/s": ("kahler-test{n=3}", _pin_kahler_s),
    "kahler-collapse/s_LC": ("kahler-test{n=3}", _pin_kahler_s_lc),
    "kahler-collapse/defect": ("kahler-test{n=3}", _pin_kahler_defect),
    "kahler-collapse/ricci-gap": ("kahler-test{n=3}", _pin_kahler_ricci_gap),
}


def test_every_identity_has_a_normaliser_pin():
    assert {name.split("/")[0] for name in NORMALISER_PINS} == set(V.IDENTITIES)


@pytest.mark.parametrize("name", list(NORMALISER_PINS))
def test_a_planted_error_gives_the_residual_its_normaliser_predicts(name, monkeypatch):
    text, pin = NORMALISER_PINS[name]
    identity = name.split("/")[0]
    spec = M.parse_metric_spec(text)
    hp = spec.hopf_params()
    if hp is not None and spec.dim == 2:
        pts = V.sample_points("hopf-fundamental", 8, 1, hp=hp)
    else:
        pts = V.sample_points("box", 8, 1, dim=spec.dim)
    clean = np.asarray(V.IDENTITIES[identity].residual(spec, pts, {}), float)
    want = np.broadcast_to(pin(monkeypatch, spec, pts), clean.shape)
    got = np.asarray(V.IDENTITIES[identity].residual(spec, pts, {}), float)
    assert (want > 1e10 * clean).all()  # the planted error dominates
    assert np.abs(got - want).max() <= 1e-12 * want.min(), (got, want)


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
    Phi, _, Delta = phi_jets(p, HP)
    cases = [
        (Phi, lambda q: M.phi_value(q, HP)),
        (log(Phi), lambda q: math.log(M.phi_value(q, HP))),
        (Delta, lambda q: M.phi_field(M.hopf_values(q, HP), HP)[2][0].real),
    ]
    for jet, fn in cases:
        assert_fd_close(jet.grad, jet.hess, fd_jet(fn, p, 2, hopf_flatness(HP)))

