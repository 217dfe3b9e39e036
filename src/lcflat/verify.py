"""Identity verification over point samples.

Each identity tag names one equation the engine can test pointwise; a check
draws a deterministic point sample, evaluates the residual at every point,
and aggregates into a report with a pass/fail verdict.

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

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import geometry as geo
from . import metrics as mz
from .wjet import Point, log, multi_indices, partials

SCHEMA_VERSION = "1"


class CheckAborted(RuntimeError):
    """Raised when too many sample points fail to construct (≥10%)."""


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
        if self.tol is None:
            object.__setattr__(self, "tol", entry.tol)
        if not self.tol > 0:
            raise ValueError("tol must be > 0")


@dataclass
class VerificationReport:
    check: CheckSpec
    per_point: list  # [(Point, residual)]
    failures: list  # [(Point, error message)]
    verdict: str
    max_residual: float
    mean_residual: float
    argmax_point: Point | None
    wall_time: float
    warning: str | None = None
    notes: dict = field(default_factory=dict)
    engine_version: str = __version__

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "engine_version": self.engine_version,
            "check": {
                "identity": self.check.identity,
                "metric": self.check.metric.canonical(),
                "n_points": self.check.n_points,
                "seed": self.check.seed,
                "tol": self.check.tol,
            },
            "per_point": [
                {"point": _point_json(p), "residual": r} for p, r in self.per_point
            ],
            "stats": {
                "max": self.max_residual,
                "mean": self.mean_residual,
                "argmax_point": _point_json(self.argmax_point)
                if self.argmax_point is not None
                else None,
            },
            "failures": [
                {"point": _point_json(p), "error": msg} for p, msg in self.failures
            ],
            "verdict": self.verdict,
            "warning": self.warning,
            "notes": self.notes,
            "wall_time": self.wall_time,
        }


def _point_json(p: Point) -> list:
    return [[float(c.real), float(c.imag)] for c in p.coords]


# -- sampling ------------------------------------------------------------------------


def sample_points(
    domain: str,
    n: int,
    seed: int,
    *,
    dim: int = 2,
    hp: mz.HopfParams | None = None,
    box_halfwidth: float = 1.2,
    origin_exclusion: float = 0.1,
) -> list[Point]:
    """Deterministic point sample in a box or a Hopf fundamental-domain shell.

    box: independent uniform real coordinates in [−w, w], redrawn while the
    point sits inside the origin-exclusion ball.

    hopf-fundamental: a uniform direction d on the unit sphere of ℂ², scaled
    so that Φ lands on a target t inside [1, |a||b|), with log t uniform on
    [δ, log|a||b| − δ] and δ = 1e-3·log|a||b|: the margin is taken on the log
    scale, so it keeps clear of both ends of the shell without leaving out
    part of log Φ's range, however wide the shell.  Φ(rd) = t turns the
    defining relation |z|²Φ^{−α} + |w|²Φ^{α−2} = 1 into the closed form
    r = (|d₁|² t^{−α} + |d₂|² t^{α−2})^{−1/2}.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    if domain == "box":
        pts = []
        while len(pts) < n:
            raw = rng.uniform(-box_halfwidth, box_halfwidth, size=2 * dim)
            coords = raw[:dim] + 1j * raw[dim:]
            if np.linalg.norm(coords) <= origin_exclusion:
                continue
            pts.append(Point(tuple(complex(c) for c in coords)))
        return pts
    if domain == "hopf-fundamental":
        if hp is None:
            raise ValueError("hopf-fundamental sampling needs HopfParams")
        log_hi = math.log(abs(hp.a) * abs(hp.b))
        margin = 1e-3 * log_hi
        al = hp.alpha
        pts = []
        for _ in range(n):
            v = rng.standard_normal(4)
            v /= np.linalg.norm(v)
            direction = (complex(v[0], v[1]), complex(v[2], v[3]))
            t = math.exp(rng.uniform(margin, log_hi - margin))
            d1, d2 = abs(direction[0]) ** 2, abs(direction[1]) ** 2
            r = (d1 * t**-al + d2 * t ** (al - 2.0)) ** -0.5
            pts.append(Point((r * direction[0], r * direction[1])))
        return pts
    raise ValueError(f"unknown sampling domain {domain!r}")


# -- finite-difference oracle -----------------------------------------------------------


def fd_jet(
    fn, p, n_vars: int, order: int = 2, step: float = 1e-5, step2: float = 1e-4
) -> np.ndarray:
    """Central-difference estimate of a function's jet coefficients at p.

    `fn` maps a coordinate tuple to a complex value.  Derivatives are taken in
    the 2·n_vars real coordinates and converted to Wirtinger coefficients via
    ∂_{z^k} = ½(∂_{x^k} − i∂_{y^k}), ∂_{z̄^k} = ½(∂_{x^k} + i∂_{y^k}); the
    result uses the same multi-index layout (and a!b! normalization) as WJet.

    First derivatives use `step`; second-derivative stencils use the larger
    `step2` because their roundoff floor scales like ε/h² — at h = 1e-5 that
    floor (≈2e-6 relative) would sit above the 1e-6 agreement target, while
    h = 1e-4 balances truncation against roundoff near the optimum ε^{1/4}.
    """
    pt = np.array(tuple(p), dtype=complex)
    nv = n_vars
    d = 2 * nv

    def shift(tvec):
        q = pt.copy()
        for k in range(nv):
            q[k] = q[k] + tvec[k] + 1j * tvec[nv + k]
        return fn(tuple(q))

    f0 = complex(shift(np.zeros(d)))
    grad = np.zeros(d, dtype=complex)
    if order >= 1:
        for a in range(d):
            e = np.zeros(d)
            e[a] = step
            grad[a] = (shift(e) - shift(-e)) / (2 * step)
    hess = np.zeros((d, d), dtype=complex)
    if order >= 2:
        for a in range(d):
            ea = np.zeros(d)
            ea[a] = step2
            hess[a, a] = (shift(ea) - 2 * f0 + shift(-ea)) / step2**2
            for b in range(a + 1, d):
                eb = np.zeros(d)
                eb[b] = step2
                mixed = (
                    shift(ea + eb) - shift(ea - eb) - shift(-ea + eb) + shift(-ea - eb)
                ) / (4 * step2**2)
                hess[a, b] = hess[b, a] = mixed

    # complex direction vectors: columns are real-coordinate weights
    dirs = np.zeros((2 * nv, d), dtype=complex)  # row = formal variable slot
    for k in range(nv):
        dirs[k, k] = 0.5
        dirs[k, nv + k] = -0.5j  # ∂_{z^k}
        dirs[nv + k, k] = 0.5
        dirs[nv + k, nv + k] = 0.5j  # ∂_{z̄^k}

    mts = multi_indices(nv)
    out = np.zeros(len(mts), dtype=complex)
    for idx, m in enumerate(mts):
        deg = sum(m)
        if deg == 0:
            out[idx] = f0
        elif deg == 1 and order >= 1:
            slot = m.index(1)
            out[idx] = dirs[slot] @ grad
        elif deg == 2 and order >= 2:
            slots = [s for s, e in enumerate(m) for _ in range(e)]
            u, v = slots
            val = dirs[u] @ hess @ dirs[v]
            out[idx] = val / (2.0 if u == v else 1.0)
    return out


def fd_oracle(spec: mz.MetricSpec, p, order: int = 2) -> dict:
    """FD jet-coefficient table for every metric entry, keyed by (i, j)."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    n = spec.dim

    def entry_fn(i, j):
        return lambda q: mz.build_metric(spec, q).h[i][j].value

    return {
        (i, j): fd_jet(entry_fn(i, j), p, n, order=order)
        for i in range(n)
        for j in range(n)
    }


# -- per-identity residuals ----------------------------------------------------------


def _norm(diff: float, *scales: float) -> float:
    return float(diff) / (1.0 + max(scales, default=0.0))


def _maxabs(arr) -> float:
    return float(np.max(np.abs(arr)))


def _scaled_det(M) -> float:
    """|det M| / max|M|² for a 2×2 matrix M (0 for M = 0): a rank defect on
    the matrix's own scale, so roundoff of order ε·max|M|² cannot fail it."""
    s = _maxabs(M)
    return abs(np.linalg.det(M / s)) if s > 0 else 0.0


def _residual_lc_ricci_flat(spec: mz.MetricSpec, p, notes: dict) -> float:
    """max |𝔯ic(ω)| over both computation paths; zero for the Δ³ω_{−1/2} Hopf metric."""
    m = mz.build_metric(spec, p)
    r1 = geo.lc_ricci(m).A
    r2 = geo.lc_ricci_via_relation(m).A
    ric = geo.chern_ricci(m).A
    return _norm(max(_maxabs(r1), _maxabs(r2)), _maxabs(ric))


def _residual_key_relation(spec: mz.MetricSpec, p, notes: dict) -> float:
    """The two 𝔯ic paths agree: curvature trace vs Ric − ½(∂∂*ω + ∂̄∂̄*ω)."""
    m = mz.build_metric(spec, p)
    r1 = geo.lc_ricci(m).A
    r2 = geo.lc_ricci_via_relation(m).A
    return _norm(_maxabs(r1 - r2), _maxabs(r1), _maxabs(r2))


def _residual_conformal_law(spec: mz.MetricSpec, p, notes: dict) -> float:
    """𝔯ic(e^fω) = 𝔯ic(ω) − √−1∂∂̄f and ∂̄*_f ω_f = ∂̄*ω + √−1(n−1)∂f."""
    n = spec.dim
    mb = mz.build_metric(spec.base, p)
    mc = mz.build_metric(spec, p)
    _, df, ddf = partials(mz.field_jet(spec.f, p, spec.hopf_params(), n=n))

    lhs = geo.lc_ricci(mc).A
    rhs = geo.lc_ricci(mb).A - ddf[:n, n:]  # 𝔯ic(ω) − √−1∂∂̄f
    r_ric = _norm(_maxabs(lhs - rhs), _maxabs(lhs), _maxabs(rhs))

    _, a10_b = geo.del_star(mb)
    _, a10_c = geo.del_star(mc)
    want = a10_b.values + 1j * (n - 1) * df[:n]
    r_adj = _norm(_maxabs(a10_c.values - want), _maxabs(a10_c.values), _maxabs(want))
    return max(r_ric, r_adj)


def _residual_det_formula(spec: mz.MetricSpec, p, notes: dict) -> float:
    """det(ω_λ) = (1+λ)/(Δ³Φ²)."""
    hp = spec.hopf_params()
    lam = spec.lam if spec.lam is not None else 0.0
    m = mz.build_metric(spec, p)
    Phi, Delta = mz.phi_delta_values(p, hp)
    det = complex(np.linalg.det(m.values()))
    try:
        expect = (1.0 + lam) / (Delta**3 * Phi**2)
        return abs(det - expect) / abs(expect)
    except ArithmeticError:  # Φ² overflows, or Δ³Φ² does and expect is 0
        raise ValueError("Φ² is outside the floating-point range at this point") from None


def _residual_tw_formula(spec: mz.MetricSpec, p, notes: dict) -> float:
    """∂∂*ω_λ = ∂̄∂̄*ω_λ = √−1∂∂̄logΦ/(1+λ), and ∂*ω_λ = (√−1/(1+λ))∂̄logΦ componentwise."""
    hp = spec.hopf_params()
    lam = spec.lam if spec.lam is not None else 0.0
    m = mz.build_metric(spec, p)

    L, _ = mz.hessian_forms(p, hp)
    target = L.A / (1.0 + lam)
    p1, p2 = geo.d_del_star_parts(m)
    r1 = _norm(_maxabs(p1.A - target), _maxabs(target))
    r2 = _norm(_maxabs(p2.A - target), _maxabs(target))

    # ∂*ω_λ = (√−1/(1+λ)) ∂̄logΦ componentwise
    Phi, _, _ = mz.phi_field(p, hp)
    _, dlp, _ = partials(log(Phi))
    want = 1j / (1.0 + lam) * dlp[2:]
    a01, _ = geo.del_star(m)
    r3 = _norm(_maxabs(a01.values - want), _maxabs(want))
    return max(r1, r2, r3)


def _residual_scalar_010(spec: mz.MetricSpec, p, notes: dict) -> float:
    """s_LC = s_C − ½⟨∂∂*ω + ∂̄∂̄*ω, ω⟩."""
    m = mz.build_metric(spec, p)
    sc = geo.scalars(m)
    return abs(sc.s_LC - (sc.s_C - 0.5 * sc.ddstar_pairing)) / (1.0 + abs(sc.s_LC))


def _residual_scalar_key1(spec: mz.MetricSpec, p, notes: dict) -> float:
    """s = 2s_C + (⟨∂∂*ω + ∂̄∂̄*ω, ω⟩ − 2|∂*ω|²) − ½|T|², s the Riemannian scalar."""
    m = mz.build_metric(spec, p)
    sc = geo.scalars(m)
    rhs = 2.0 * sc.s_C + (sc.ddstar_pairing - 2.0 * sc.delstar_sq) - 0.5 * sc.torsion_sq
    return abs(sc.s - rhs) / (1.0 + abs(sc.s))


def _residual_deck(spec: mz.MetricSpec, p, notes: dict) -> float:
    """J h(az, bw) J† = h(z, w) for J = diag(a, b): the metric descends to the quotient."""
    return mz.deck_invariance_residual(spec, p)


def _residual_hessian_matrices(spec: mz.MetricSpec, p, notes: dict) -> float:
    """Closed forms of √−1∂∂̄logΦ and √−1∂Φ∧∂̄Φ against the solved jet, and their
    vanishing determinants."""
    hp = spec.hopf_params()
    L, P = mz.hessian_forms(p, hp)
    Phi, _, _ = mz.phi_field(p, hp)
    _, _, ddlp = partials(log(Phi))
    _, dPhi, _ = partials(Phi)
    L_jet = ddlp[:2, 2:]
    P_jet = np.outer(dPhi[:2], dPhi[2:])
    rL = _norm(_maxabs(L.A - L_jet), _maxabs(L.A))
    rP = _norm(_maxabs(P.A - P_jet), _maxabs(P.A))
    rdet = max(_scaled_det(L.A), _scaled_det(P.A))
    # The displayed matrices read with rows/columns swapped match the transpose;
    # record how far the literal row-column reading sits from the computed tensor.
    lit = max(_maxabs(L.A - L.A.T), _maxabs(P.A - P.A.T))
    notes["display_transpose_gap"] = max(lit, notes.get("display_transpose_gap", 0.0))
    return max(rL, rP, rdet)


def _residual_kahler_collapse(spec: mz.MetricSpec, p, notes: dict) -> float:
    """On a Kähler metric torsion, the adjoint forms and the Chern/Levi-Civita
    Ricci gap vanish, s = 2s_C and s_LC = s_C."""
    m = mz.build_metric(spec, p)
    hscale = _maxabs(m.values())
    defect = _norm(geo.kahler_defect(m), hscale)
    _, tsq = geo.torsion(m)
    a01, _ = geo.del_star(m)
    dd = geo.d_del_star(m)
    sc = geo.scalars(m)
    ric_gap = _norm(
        _maxabs(geo.lc_ricci(m).A - geo.chern_ricci(m).A),
        _maxabs(geo.chern_ricci(m).A),
    )
    return max(
        defect,
        abs(tsq),
        _maxabs(a01.values),
        dd.max_abs(),
        abs(sc.s - 2.0 * sc.s_C) / (1.0 + abs(sc.s)),
        abs(sc.s_LC - sc.s_C) / (1.0 + abs(sc.s_LC)),
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

    `residual(spec, point, notes)` returns the point's residual and may record
    report notes; `tol` is the default pass tolerance; `needs` are keys of
    `_NEEDS` that the metric spec must satisfy.
    """

    residual: Callable[[mz.MetricSpec, Point, dict], float]
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


def run_check(c: CheckSpec) -> VerificationReport:
    """Evaluate one identity over a deterministic point sample and aggregate."""
    t0 = time.perf_counter()
    hp = c.metric.hopf_params()
    if hp is not None and c.metric.dim == 2:
        points = sample_points("hopf-fundamental", c.n_points, c.seed, hp=hp)
    else:
        points = sample_points("box", c.n_points, c.seed, dim=c.metric.dim)

    residual = IDENTITIES[c.identity].residual
    notes: dict = {}
    per_point = []
    failures = []
    for p in points:
        try:
            r = residual(c.metric, p, notes)
        except mz.SpecError:
            raise
        except ValueError as exc:
            failures.append((p, str(exc)))
            continue
        per_point.append((p, float(r)))

    if failures and len(failures) / len(points) >= 0.1:
        raise CheckAborted(
            f"{len(failures)}/{len(points)} points failed to construct; "
            f"first error: {failures[0][1]}"
        )

    per_point.sort(key=lambda pr: tuple((c.real, c.imag) for c in pr[0].coords))
    residuals = np.array([r for _, r in per_point])
    if residuals.size:
        # A non-finite residual is the worst point: the first one is max and
        # argmax, it makes the mean non-finite, and the verdict is fail.
        # (Python's max() would skip a NaN that is not first.)
        bad = ~np.isfinite(residuals)
        k = int(np.argmax(bad)) if bad.any() else int(np.argmax(residuals))
        max_r, mean_r, argmax = float(residuals[k]), float(np.mean(residuals)), per_point[k][0]
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
