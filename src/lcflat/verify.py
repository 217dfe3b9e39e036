"""Identity verification over point samples.

Each identity tag names one equation the engine can test pointwise; a check
draws a deterministic point sample, evaluates the residual at every point,
and aggregates into a report with a pass/fail verdict.  A residual takes the
whole sample: `lc-ricci-flat`, `key-relation`, `conformal-law`, `scalar-010`,
`scalar-key1`, `kahler-collapse` and `tw-formula` build one metric (two for
`conformal-law`) over all of its points and evaluate it in one pass, and
`hessian-matrices` builds one Hopf frame and one set of its rows;
`det-formula` and `deck-invariance`, which read only the metric's values,
stack them over the sample (deck: the points and their images in one stack)
and take one determinant or one pullback of the stack.  A residual that is
the largest of several terms is NaN at a point where any term is.  If some
point of the sample fails (a `geometry.PointFailure`: out of the double
range, singular, not positive definite, a root that does not converge),
`run_check` evaluates the sample again one point at a time, charging each
failure to its own point; any other error from a residual aborts the check.
Inside a `shared_scope` block, which `lcflat suite` opens around its grid,
the checks share each distinct sample and each θ root they have in common,
and a check whose sample begins one an earlier check built the same metric
on reads the first points of that metric, with the connection and
Chern-Ricci form it has formed, rather than building its own.

An identity is declared once, in `IDENTITIES`: its residual function (whose
docstring states the equation), its default tolerance and what it needs of
the metric spec.  `CheckSpec` checks those needs when it is built.

Residuals for form identities are max-entry differences normalized by
1 + (max entry of the dominant term), making pass/fail scale-invariant.  Two
terms get the same treatment in their own way: the vanishing determinants of
`hessian-matrices` are taken as |det M|/max|M|², and the `deck-invariance`
difference J h(az, bw) J† − h(z, w) is divided by 1 + max|h(z, w)|.
"""

from __future__ import annotations

import functools
import math
import time
from collections.abc import Callable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import geometry as geo
from . import metrics as mz

SCHEMA_VERSION = "2"  # 2: a non-finite residual, max, mean or note is null


class CheckAborted(RuntimeError):
    """Raised when the sample cannot be drawn in memory, when too many sample
    points fail to construct (≥10%), when a residual does not return one value
    per point, or when it raises an error that is not a `PointFailure` (a
    broken batch path, say, which a per-point re-run would hide)."""


@dataclass(frozen=True)
class CheckSpec:
    identity: str
    metric: mz.MetricSpec
    n_points: int = 100
    seed: int = 0
    tol: float | None = None  # None: the identity's default tolerance

    def __post_init__(self):
        entry = IDENTITIES.get(self.identity)
        if entry is None:
            raise ValueError(
                f"unknown identity {self.identity!r}; expected one of {tuple(IDENTITIES)}"
            )
        for need in entry.needs:
            holds, what = _NEEDS[need]
            if not holds(self.metric):
                raise mz.SpecError(f"{self.identity} requires {what}")
        if self.n_points < 1:
            raise ValueError("n_points must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.tol is None:
            object.__setattr__(self, "tol", entry.tol)
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")


@dataclass
class VerificationReport:
    check: CheckSpec
    per_point: list  # [(point, residual)]
    failures: list  # [(point, error message)]
    verdict: str
    max_residual: float
    mean_residual: float
    argmax_point: tuple[complex, ...] | None
    wall_time: float
    warning: str | None = None
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "engine_version": __version__,
            "check": {
                "identity": self.check.identity,
                "metric": self.check.metric.canonical(),
                "n_points": self.check.n_points,
                "seed": self.check.seed,
                "tol": self.check.tol,
            },
            "per_point": [
                {"point": _point_json(p), "residual": json_number(r)} for p, r in self.per_point
            ],
            "stats": {
                "max": json_number(self.max_residual),
                "mean": json_number(self.mean_residual),
                "argmax_point": _point_json(self.argmax_point)
                if self.argmax_point is not None
                else None,
            },
            "failures": [
                {"point": _point_json(p), "error": msg} for p, msg in self.failures
            ],
            "verdict": self.verdict,
            "warning": self.warning,
            "notes": self.json_notes(),
            "wall_time": self.wall_time,
        }

    def json_notes(self) -> dict:
        """The notes with each non-finite value as None (`json_number`)."""
        return {k: json_number(v) for k, v in self.notes.items()}


def json_number(x: float) -> float | None:
    """x for a JSON payload: x itself if finite, else None (null), since JSON
    has no token for NaN or ±inf (RFC 8259, section 6)."""
    return x if math.isfinite(x) else None


def _point_json(p: tuple[complex, ...]) -> list:
    return [[float(c.real), float(c.imag)] for c in p]


# -- sampling ------------------------------------------------------------------------

# Box samples: real coordinates uniform in [−w, w], clear of a ball about the origin.
BOX_HALFWIDTH = 1.2
ORIGIN_EXCLUSION = 0.1


# The samples `sample_points` has drawn, by its arguments, while a
# `shared_scope` block is open; None outside one.
_SAMPLES: dict | None = None


@contextmanager
def shared_scope():
    """Within the block, `sample_points` returns a copy of the sample it
    already drew for the same (domain, n, seed, dim, a, b),
    `metrics.hopf_values` the frame it already solved for the same
    (a, b, point), and a metric built for a spec on a sample that begins one
    already built for it is the `MetricJet.prefix` of that metric
    (`metrics.shared_builds`); on exit all of them are dropped.  A sample is
    a function of its arguments alone, and a metric's arrays at a point do
    not depend on the other points of its sample, so every check in the
    block reports what it reports when run alone, bit for bit.  A draw or a
    build that raises is not kept."""
    global _SAMPLES
    outer, _SAMPLES = _SAMPLES, {}
    try:
        with mz.shared_builds():
            yield
    finally:
        _SAMPLES = outer


def sample_points(
    domain: str,
    n: int,
    seed: int,
    *,
    dim: int = 2,
    hp: mz.HopfParams | None = None,
) -> list[tuple[complex, ...]]:
    """Deterministic point sample in a box or a Hopf fundamental-domain shell,
    as tuples of complex coordinates.  Inside `shared_scope` it is a copy of
    the sample already drawn for the same arguments.

    box: independent uniform real coordinates in [−w, w] (w = BOX_HALFWIDTH),
    redrawn while the point sits inside the ball of radius ORIGIN_EXCLUSION.

    hopf-fundamental: a uniform direction d on the unit sphere of ℂ², scaled
    so that Φ lands on a target t inside [1, |a||b|), with log t uniform on
    [δ, log|a||b| − δ] and δ = 1e-3·log|a||b|: the margin is taken on the log
    scale, so it keeps clear of both ends of the shell without leaving out
    part of log Φ's range, however wide the shell.  Φ(rd) = t turns the
    defining relation |z|²Φ^{−α} + |w|²Φ^{α−2} = 1 into the closed form
    r = (|d₁|² t^{−α} + |d₂|² t^{α−2})^{−1/2}.
    """
    if _SAMPLES is None:
        return _draw_points(domain, n, seed, dim, hp)
    key = (domain, n, seed, dim, None if hp is None else (hp.a, hp.b))
    pts = _SAMPLES.get(key)
    if pts is None:
        pts = _SAMPLES[key] = _draw_points(domain, n, seed, dim, hp)
    return list(pts)


def _draw_points(
    domain: str, n: int, seed: int, dim: int, hp: mz.HopfParams | None
) -> list[tuple[complex, ...]]:
    """`sample_points`, drawn afresh."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    if domain == "box":
        pts = []
        while len(pts) < n:  # each round draws the rows still needed, in stream order
            raw = rng.uniform(-BOX_HALFWIDTH, BOX_HALFWIDTH, size=(n - len(pts), 2 * dim))
            coords = raw[:, :dim] + 1j * raw[:, dim:]
            pts += map(tuple, coords[np.linalg.norm(coords, axis=-1) > ORIGIN_EXCLUSION].tolist())
        return pts
    if domain == "hopf-fundamental":
        if hp is None:
            raise ValueError("hopf-fundamental sampling needs HopfParams")
        log_hi = math.log(abs(hp.a) * abs(hp.b))
        margin = 1e-3 * log_hi
        # rng.uniform(lo, hi) draws lo + (hi − lo)·random(), so this is that draw
        span = (log_hi - margin) - margin
        al = hp.alpha
        # the normal draws, reserved at once as the box's are: an oversize sample fails here
        normals = np.empty((n, 4))
        pts = []
        for v in normals:
            rng.standard_normal(out=v)
            norm = math.sqrt(v @ v)  # Python's sum of squares rounds differently
            x0, x1, x2, x3 = v.tolist()
            direction = (complex(x0 / norm, x1 / norm), complex(x2 / norm, x3 / norm))
            t = math.exp(margin + span * rng.random())
            d1, d2 = abs(direction[0]) ** 2, abs(direction[1]) ** 2
            r = (d1 * t**-al + d2 * t ** (al - 2.0)) ** -0.5
            pts.append((r * direction[0], r * direction[1]))
        return pts
    raise ValueError(f"unknown sampling domain {domain!r}")


# -- per-identity residuals ----------------------------------------------------------


def _scaled_det(M: np.ndarray, s: np.ndarray) -> np.ndarray:
    """|det M| / s² for each 2×2 matrix of a stack M[..., 2, 2], with s = max|M|
    per matrix (0 where M = 0): a rank defect on the matrix's own scale, so
    roundoff of order ε·s² cannot fail it.  The determinant is taken on M/s,
    whose products stay in range."""
    m = M / np.where(s == 0, 1.0, s)[..., None, None]
    return np.abs(m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0])


def _form_max(forms: np.ndarray) -> np.ndarray:
    """max |A_{ij̄}| of each (1,1)-form in a stack A[..., i, j]."""
    return np.abs(forms).max(axis=(-2, -1))


def _vec_max(vectors: np.ndarray) -> np.ndarray:
    """max |a_i| of each vector in a stack a[..., i]."""
    return np.abs(vectors).max(axis=-1)


def _worst(*terms: np.ndarray) -> np.ndarray:
    """The largest of the terms at each point; a NaN in any term is the
    result there, so a term that cannot be formed fails its point."""
    return functools.reduce(np.maximum, terms)


def _residual_lc_ricci_flat(spec: mz.MetricSpec, points, notes: dict) -> np.ndarray:
    """max |𝔯ic(ω)| over both computation paths; zero for the Δ³ω_{−1/2} Hopf metric."""
    m = mz.build_metric(spec, points)
    r1 = _form_max(geo.lc_ricci(m))
    r2 = _form_max(geo.lc_ricci_via_relation(m))
    return np.maximum(r1, r2) / (1.0 + _form_max(geo.chern_ricci(m)))


def _residual_key_relation(spec: mz.MetricSpec, points, notes: dict) -> np.ndarray:
    """The two 𝔯ic paths agree: curvature trace vs Ric − ½(∂∂*ω + ∂̄∂̄*ω)."""
    m = mz.build_metric(spec, points)
    r1 = geo.lc_ricci(m)
    r2 = geo.lc_ricci_via_relation(m)
    return _form_max(r1 - r2) / (1.0 + np.maximum(_form_max(r1), _form_max(r2)))


def _residual_conformal_law(spec: mz.MetricSpec, points, notes: dict) -> np.ndarray:
    """𝔯ic(e^fω) = 𝔯ic(ω) − √−1∂∂̄f and ∂̄*_f ω_f = ∂̄*ω + √−1(n−1)∂f."""
    n = spec.dim
    mb, mc, fj = mz.build_conformal_metrics(spec, points)

    _, fg, fh = fj
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = geo.lc_ricci(mc)
        rhs = geo.lc_ricci(mb) - fh[..., :n, n:]  # 𝔯ic(ω) − √−1∂∂̄f
        r_ric = _form_max(lhs - rhs) / (1.0 + np.maximum(_form_max(lhs), _form_max(rhs)))

        _, a10_b = geo.del_star(mb)
        _, a10_c = geo.del_star(mc)
        want = a10_b + 1j * (n - 1) * fg[..., :n]
        r_adj = _vec_max(a10_c - want) / (1.0 + np.maximum(_vec_max(a10_c), _vec_max(want)))
        return _worst(r_ric, r_adj)


def _residual_det_formula(spec: mz.MetricSpec, points, notes: dict) -> list[float]:
    """det(ω_λ) = (1+λ)/(Δ³Φ²)."""
    hp = spec.hopf_params()
    frames = [mz.hopf_values(p, hp) for p in points]
    try:  # a huge λ makes h's entries, or their determinants, overflow
        with np.errstate(over="raise", invalid="raise"):
            dets = np.linalg.det(mz.hopf_metric_values(spec, frames)).tolist()
    except ArithmeticError:
        raise geo.PointFailure("det ω_λ is outside the floating-point range at this point") from None
    s, out = 1.0 + spec.lam_value, []
    try:
        for det, hv in zip(dets, frames):
            expect = s / (hv.delta**3 * hv.phi**2)
            out.append(abs(det - expect) / abs(expect))
    except ArithmeticError:  # Φ² overflows, or Δ³Φ² does and expect is 0
        raise geo.PointFailure("Φ² is outside the floating-point range at this point") from None
    return out


def _residual_tw_formula(spec: mz.MetricSpec, points, notes: dict) -> np.ndarray:
    """∂∂*ω_λ = ∂̄∂̄*ω_λ = √−1∂∂̄logΦ/(1+λ), and ∂*ω_λ = (√−1/(1+λ))∂̄logΦ componentwise."""
    hp = spec.hopf_params()
    lam = spec.lam_value
    hv = mz.hopf_frames(np.asarray(points, dtype=complex), hp)
    m = mz.build_hopf_metric(spec, hv)

    L, _ = mz.hessian_forms(hv, hp)
    target = L / (1.0 + lam)
    scale = 1.0 + _form_max(target)
    p1, p2 = geo.d_del_star_parts(m)
    r1 = _form_max(p1 - target) / scale
    r2 = _form_max(p2 - target) / scale

    # ∂*ω_λ = (√−1/(1+λ)) ∂̄logΦ componentwise
    want = 1j / (1.0 + lam) * mz.dbar_log_phi(hv)
    a01, _ = geo.del_star(m)
    r3 = _vec_max(a01 - want) / (1.0 + _vec_max(want))
    return _worst(r1, r2, r3)


def _residual_scalar_010(spec: mz.MetricSpec, points, notes: dict) -> np.ndarray:
    """s_LC = s_C − ½⟨∂∂*ω + ∂̄∂̄*ω, ω⟩."""
    sc = geo.scalars(mz.build_metric(spec, points))
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(sc.s_LC - (sc.s_C - 0.5 * sc.ddstar_pairing)) / (1.0 + np.abs(sc.s_LC))


def _residual_scalar_key1(spec: mz.MetricSpec, points, notes: dict) -> np.ndarray:
    """s = 2s_C + (⟨∂∂*ω + ∂̄∂̄*ω, ω⟩ − 2|∂*ω|²) − ½|T|², s the Riemannian scalar."""
    sc = geo.scalars(mz.build_metric(spec, points))
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = 2.0 * sc.s_C + (sc.ddstar_pairing - 2.0 * sc.delstar_sq) - 0.5 * sc.torsion_sq
        return np.abs(sc.s - rhs) / (1.0 + np.abs(sc.s))


def _residual_deck(spec: mz.MetricSpec, points, notes: dict) -> np.ndarray:
    """J h(az, bw) J† = h(z, w) for J = diag(a, b): the metric descends to the quotient."""
    return mz.deck_invariance_residual(spec, points)


def _residual_hessian_matrices(spec: mz.MetricSpec, points, notes: dict) -> np.ndarray:
    """Closed forms of √−1∂∂̄logΦ and √−1∂Φ∧∂̄Φ against the solved jet, and their
    vanishing determinants."""
    hp = spec.hopf_params()
    hv = mz.hopf_frames(np.asarray(points, dtype=complex), hp)
    L, P = mz.hessian_forms(hv, hp)
    (_, dPhi, _), (_, _, ddtheta), _ = mz.phi_field(hv, hp)
    L_jet = hp.k * ddtheta[..., :2, 2:]  # log Φ = kθ
    P_jet = dPhi[..., :2, None] * dPhi[..., None, 2:]
    sL, sP = _form_max(L), _form_max(P)
    rL = _form_max(L - L_jet) / (1.0 + sL)
    rP = _form_max(P - P_jet) / (1.0 + sP)
    rdet = _worst(_scaled_det(L, sL), _scaled_det(P, sP))
    # The displayed matrices read with rows/columns swapped match the transpose;
    # record how far the literal row-column reading sits from the computed tensor.
    lit = float(max(np.abs(L - L.swapaxes(-1, -2)).max(), np.abs(P - P.swapaxes(-1, -2)).max()))
    notes["display_transpose_gap"] = max(lit, notes.get("display_transpose_gap", 0.0))
    return _worst(rL, rP, rdet)


def _residual_kahler_collapse(spec: mz.MetricSpec, points, notes: dict) -> np.ndarray:
    """On a Kähler metric torsion, the adjoint forms and the Chern/Levi-Civita
    Ricci gap vanish, s = 2s_C and s_LC = s_C."""
    m = mz.build_metric(spec, points)
    with np.errstate(over="ignore", invalid="ignore"):
        defect = geo.kahler_defect(m) / (1.0 + _form_max(m.H))
        sc = geo.scalars(m)
        p1, p2 = sc.ddstar_parts
        ric = geo.chern_ricci(m)
        ric_gap = _form_max(sc.lc_ric - ric) / (1.0 + _form_max(ric))
        return _worst(
            defect,
            np.abs(sc.torsion_sq),
            _vec_max(sc.del_stars[0]),
            _form_max(0.5 * (p1 + p2)),
            np.abs(sc.s - 2.0 * sc.s_C) / (1.0 + np.abs(sc.s)),
            np.abs(sc.s_LC - sc.s_C) / (1.0 + np.abs(sc.s_LC)),
            ric_gap,
        )


# -- the identity registry -------------------------------------------------------------

# What an identity can need of its metric spec: a test on the spec, and the
# phrase that names what is needed in the SpecError a failing spec raises.
_NEEDS = {
    "conformal": (lambda s: s.kind == "conformal", "a conformal metric spec"),
    "hopf-omega-lambda": (lambda s: s.kind == "hopf-omega-lambda",
                          "a hopf-omega-lambda metric spec"),
    "hopf": (lambda s: s.hopf_params() is not None, "a spec with Hopf parameters"),
    "dim-2": (lambda s: s.dim == 2, "a metric on two complex coordinates"),
}


@dataclass(frozen=True)
class Identity:
    """How one identity tag is checked.

    `residual(spec, points, notes)` returns one residual per point of the
    sample `points` (a sequence of points) and may record report notes;
    `tol` is the default pass tolerance; `needs` are keys of `_NEEDS` that
    the metric spec must satisfy.
    """

    residual: Callable[[mz.MetricSpec, list, dict], Sequence[float]]
    tol: float = 1e-8
    needs: tuple[str, ...] = ()


# scalar-key1 is looser: its terms are fourth order in derivatives of the
# metric, so more roundoff accumulates.
IDENTITIES: dict[str, Identity] = {
    "lc-ricci-flat": Identity(_residual_lc_ricci_flat),
    "key-relation": Identity(_residual_key_relation),
    "conformal-law": Identity(_residual_conformal_law, needs=("conformal",)),
    "det-formula": Identity(_residual_det_formula, 1e-10, ("hopf-omega-lambda",)),
    "tw-formula": Identity(_residual_tw_formula, needs=("hopf-omega-lambda",)),
    "scalar-010": Identity(_residual_scalar_010),
    "scalar-key1": Identity(_residual_scalar_key1, 1e-6),
    "deck-invariance": Identity(_residual_deck, 1e-10, ("hopf", "dim-2")),
    "hessian-matrices": Identity(_residual_hessian_matrices, 1e-10, ("hopf",)),
    "kahler-collapse": Identity(_residual_kahler_collapse),
}


# -- orchestration ---------------------------------------------------------------------


def _residuals(c: CheckSpec, points: list, notes: dict) -> list[float]:
    """The identity's residual at each of the points, as floats.  Raises
    CheckAborted unless the residual returns one value per point, and in
    place of any error other than a `PointFailure` or a `SpecError`."""
    try:
        r = IDENTITIES[c.identity].residual(c.metric, points, notes)
    except (geo.PointFailure, mz.SpecError):
        raise
    except Exception as exc:
        raise CheckAborted(f"the {c.identity} residual raised {type(exc).__name__}: {exc}") from exc
    r = np.asarray(r, dtype=float)
    if r.shape != (len(points),):
        raise CheckAborted(f"the {c.identity} residual returned shape {r.shape} "
                           f"for {len(points)} points")
    return r.tolist()


def run_check(c: CheckSpec) -> VerificationReport:
    """Evaluate one identity over a deterministic point sample and aggregate."""
    t0 = time.perf_counter()
    hp = c.metric.hopf_params()
    try:
        if hp is not None and c.metric.dim == 2:
            points = sample_points("hopf-fundamental", c.n_points, c.seed, hp=hp)
        else:
            points = sample_points("box", c.n_points, c.seed, dim=c.metric.dim)
    except MemoryError as exc:
        raise CheckAborted(f"drawing {c.n_points} sample points ran out of memory") from exc

    notes: dict = {}
    per_point = []
    failures = []
    try:
        per_point = list(zip(points, _residuals(c, points, notes)))
    except geo.PointFailure:
        # Some point fails: evaluate the sample again one point at a time,
        # charging each failure to its point.
        notes.clear()
        for p in points:
            try:
                (r,) = _residuals(c, [p], notes)
            except geo.PointFailure as exc:
                failures.append((p, str(exc)))
                continue
            per_point.append((p, r))

    if failures and len(failures) / len(points) >= 0.1:
        raise CheckAborted(
            f"{len(failures)}/{len(points)} points failed to construct; "
            f"first error: {failures[0][1]}"
        )

    per_point.sort(key=lambda pr: tuple((c.real, c.imag) for c in pr[0]))
    residuals = [r for _, r in per_point]
    if residuals:
        # A non-finite residual is the worst point: the first one is max and
        # argmax, it makes the mean non-finite, and the verdict is fail.
        # (Python's max() would skip a NaN that is not first.)  Otherwise the
        # first maximum is the argmax, as `np.argmax` picks it.
        k = next((i for i, r in enumerate(residuals) if not math.isfinite(r)), None)
        if k is None:
            k = residuals.index(max(residuals))
        max_r, argmax = residuals[k], per_point[k][0]
        # The mean is the exact sum rounded once, so any order of the same
        # residuals gives it.  Where fsum raises (a sum past the double range,
        # or +inf with −inf) a plain sum gives the inf or NaN; 0.0 + turns a
        # sum of −0.0 terms into 0.0.
        try:
            total = math.fsum(residuals)
        except (OverflowError, ValueError):
            total = sum(residuals)
        mean_r = (0.0 + total) / len(residuals)
    else:
        max_r, mean_r, argmax = float("nan"), float("nan"), None
    verdict = "pass" if math.isfinite(max_r) and max_r <= c.tol else "fail"
    warning = (
        f"{len(failures)} of {len(points)} points failed to construct"
        if failures
        else None
    )
    return VerificationReport(
        check=c,
        per_point=per_point,
        failures=failures,
        verdict=verdict,
        max_residual=max_r,
        mean_residual=mean_r,
        argmax_point=argmax,
        wall_time=time.perf_counter() - t0,
        warning=warning,
        notes=notes,
    )
