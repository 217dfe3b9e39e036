"""Concrete metric fields on ℂ²∖{0} and reference metrics on ℂⁿ.

The centerpiece is the Hopf-surface family: the potential Φ solved implicitly
from  |z|²Φ^{−α} + |w|²Φ^{α−2} = 1,  the weight Δ = α|z|²Φ^{−α} + (2−α)|w|²Φ^{α−2},
the one-parameter metrics

    ω_λ = (1+λ) √−1 ∂∂̄ log Φ + √−1 ∂Φ∧∂̄Φ / Φ²      (λ > −1)

and the conformally rescaled metric Δ³·ω_{−1/2}, whose Levi-Civita Ricci form
vanishes identically — the headline identity this package verifies.

Every metric and conformal factor is built as order-2 rows (see "order-2
rows" below) by one row algebra, for every kind and field and any n; the
(H, dH, ddH) views the geometry reads are taken where the `MetricJet` is made.
`hopf_values` solves Φ = e^{kθ} in closed form and returns the scalar frame:
the coordinates, θ, e₁ = Φ^{−α} = e^{−c₁θ}, e₂ = Φ^{α−2} = e^{−c₂θ},
u = |z|²e₁, v = |w|²e₂ and Δ = αu + (2−α)v.  `hopf_rows` extends it to
order 2: the rows of θ (from its closed-form partials), e₁, e₂ and e₁e₂
(one stacked chain rule), u, v and z̄w·e₁e₂ (one stacked product) and Δ.
Δ³ω_λ is a polynomial in these, so the Hopf metrics form no power of Φ and,
apart from the one division of Δ³ω_λ by Δ³, no quotient; nothing overflows
while Φ² and the metric's entries are doubles.  `hopf-standard`, the
identity over S = |z|² + |w|², is the reciprocal of S's row on the diagonal.
The same closed form on the scalar frame (`hopf_metric`) gives the metrics'
values bit for bit, so identities that read only a Hopf metric's values
(`metric_values`) build no rows.
The closed forms of √−1∂∂̄ log Φ and √−1∂Φ∧∂̄Φ that the metrics are derived
from are written once, on the scalar frame or a stacked one, in
`hessian_forms`, which the checks compare against the metrics and against
derivatives of Φ's row (`phi_field`).

The polynomial kinds (`flat`, `kahler-test`, `user-polynomial`) and the
`poly` field are degree-≤2 polynomials in the slots x, so their order-2 jet
is exact and linear in the coefficients.  Each is a `PolyTable` (C0, B, Q)
with h(x) = C0 + B·x + ½xᵀQx, drawn once per spec; a point's rows are two
contractions and a copy of Q.  A conformal metric e^f·h is the product of
the rows of e^f and the base's rows, broadcast over the entries
(`conformal_scale`).

A check that already holds a scalar frame builds its Hopf metric from it
(`build_hopf_metric`).  A conformal metric and its base share one set of
base rows, and a Hopf base and a Hopf field (log-phi, log-delta) read one
frame and one set of its rows (`_conformal_rows`); so a check on such a spec
solves θ once at a point.  Inside a `shared_builds` block (`lcflat suite`
opens one around its whole grid) `hopf_values` also returns the frame it
already solved for the same (a, b, point), so a run solves θ once per
distinct point however many checks read it; and `build_metric`,
`build_hopf_metric` and the base of `build_conformal_metrics` return, for a
sample that begins one already built for the same spec, the `prefix` of
that metric, with the connection and Chern-Ricci form it has formed.

`build_metric` takes one point or a sample of points (an array whose last
axis holds the coordinates) and builds one metric over all of them: every
row carries the sample's axes in front, through the same code as one
point, and so do `phi_field`, `hessian_forms` and `dbar_log_phi` over a
stacked frame, and `metric_values` and `deck_invariance_residual` take a
point or a sample alike.  Only the θ roots are found point by point
(`hopf_frames`), and the values of the two Hopf metrics are formed on one
scalar frame per point and stacked.  Each number is formed by the
arithmetic that forms it at one point (numpy's ufuncs round a one-point
array as they round a sample), so a sample's arrays equal the per-point
arrays bit for bit.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .geometry import MetricJet, NotPositiveDefinite, PointFailure

E = math.e


class SpecError(ValueError):
    """A metric spec that cannot serve the requested identity or field.

    This is a usage error, raised before any numerics run on the point; it is
    never counted as a per-point failure.
    """


# -- parameter types ---------------------------------------------------------------


@dataclass(frozen=True)
class HopfParams:
    """Deck-transformation multipliers (z, w) ↦ (az, bw) with |a| ≥ |b| > 1."""

    a: complex
    b: complex

    def __post_init__(self):
        if not abs(self.a) >= abs(self.b) > 1:
            raise ValueError(
                f"need |a| >= |b| > 1, got |a|={abs(self.a):.6g}, |b|={abs(self.b):.6g}"
            )
        # Φ ranges over [1, |a||b|) on the fundamental domain the sampler draws from.
        if not math.isfinite(abs(self.a) * abs(self.b)):
            raise ValueError(
                f"|a||b| overflows a double, got |a|={abs(self.a):.6g}, |b|={abs(self.b):.6g}"
            )

    # The constants are derived once per object: the Hopf checks read them at
    # every point.
    @cached_property
    def k1(self) -> float:
        return math.log(abs(self.a))

    @cached_property
    def k2(self) -> float:
        return math.log(abs(self.b))

    @cached_property
    def c1(self) -> float:
        """k₁/π, the rate of e₁ = Φ^{−α} = e^{−c₁θ}."""
        return self.k1 / math.pi

    @cached_property
    def c2(self) -> float:
        """k₂/π, the rate of e₂ = Φ^{α−2} = e^{−c₂θ}."""
        return self.k2 / math.pi

    @cached_property
    def alpha(self) -> float:
        """2k₁/(k₁+k₂) ∈ [1, 2)."""
        return 2.0 * self.k1 / (self.k1 + self.k2)

    @cached_property
    def k(self) -> float:
        """(k₁+k₂)/2π, so that Φ = e^{kθ} for the θ of `_theta_root`."""
        return (self.k1 + self.k2) / (2.0 * math.pi)

    @cached_property
    def minus_rates(self) -> tuple[np.ndarray, np.ndarray]:
        """−(c₁, c₂, c₁, c₂), e₁'s and e₂'s rates in the slots (z, w, z̄, w̄), and
        −(c₁, c₂, c₁ + c₂), those of e₁, e₂ and e₁e₂."""
        c1, c2 = self.c1, self.c2
        return np.array((-c1, -c2, -c1, -c2)), np.array((-c1, -c2, -(c1 + c2)))

    @cached_property
    def deck_jacobian(self) -> tuple[np.ndarray, np.ndarray]:
        """J = diag(a, b), the Jacobian of the deck map, and J†."""
        J = np.array([[self.a, 0.0], [0.0, self.b]])
        return J, J.conj().T


# keys each field kind accepts in the textual spec grammar
_FIELD_KEYS = {"zero": (), "poly": ("seed", "amp"), "log-phi": ("scale",), "log-delta": ("scale",)}


@dataclass(frozen=True)
class FieldSpec:
    """Scalar conformal factor: zero | poly{seed,amp} | log-phi{scale} | log-delta{scale},
    the last two being scale·log Φ and scale·log Δ."""

    kind: str = "zero"
    seed: int = 0
    amp: float = 0.1
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in _FIELD_KEYS:
            raise ValueError(f"unknown field kind {self.kind!r}; expected one of {tuple(_FIELD_KEYS)}")

    def canonical(self) -> str:
        return _canonical(self, _FIELD_KEYS[self.kind])

    def poly_table(self, n: int) -> PolyTable:
        """Coefficient table of the poly field on n coordinates, drawn once
        per spec and n."""
        tables = self._poly_tables
        if n not in tables:
            tables[n] = _frozen(_poly_field_table(n, self.seed, self.amp))
        return tables[n]

    @cached_property
    def _poly_tables(self) -> dict[int, PolyTable]:
        return {}


# keys each kind accepts in the textual spec grammar
_ALLOWED_KEYS = {
    "flat": {"a", "b", "n"},
    "kahler-test": {"n"},
    "hopf-standard": {"a", "b"},
    "hopf-omega-lambda": {"a", "b", "lambda"},
    "hopf-lc-flat": {"a", "b"},
    "conformal": {"base", "f"},
    "user-polynomial": {"seed", "amp", "n"},
}
_METRIC_KINDS = tuple(_ALLOWED_KEYS)


@dataclass(frozen=True)
class MetricSpec:
    """Declarative metric description with a canonical text form `kind{key=value,...}`."""

    kind: str
    a: complex | None = None
    b: complex | None = None
    lam: float | None = None
    seed: int | None = None
    amp: float | None = None
    n: int | None = None
    base: "MetricSpec | None" = None
    f: FieldSpec | None = None

    def __post_init__(self):
        if self.kind not in _METRIC_KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}; expected one of {_METRIC_KINDS}")
        if self.kind == "hopf-omega-lambda" and not self.lam_value > -1.0:
            raise ValueError(f"lambda must be > -1 for a positive metric, got {self.lam_value}")
        if self.kind == "conformal":
            if self.base is None or self.f is None:
                raise ValueError("conformal spec needs both base and f")
        if self.kind.startswith("hopf") and (self.a is not None or self.b is not None):
            self.hopf_params()  # validates |a| >= |b| > 1 eagerly

    @property
    def lam_value(self) -> float:
        """λ of hopf-omega-lambda; 0 when the spec leaves it out."""
        return self.lam if self.lam is not None else 0.0

    @property
    def seed_value(self) -> int:
        """Seed of user-polynomial; 0 when the spec leaves it out."""
        return self.seed if self.seed is not None else 0

    @property
    def dim(self) -> int:
        if self.kind == "conformal":
            return self.base.dim
        if self.kind.startswith("hopf"):
            return 2
        return self.n if self.n is not None else 2

    def hopf_params(self) -> HopfParams | None:
        """HopfParams carried by this spec, searching through conformal bases.

        Built on first use, once per spec, so a spec's constants are derived
        once; multipliers that `HopfParams` rejects raise at every call.
        """
        return self._hopf_params

    @cached_property
    def _hopf_params(self) -> HopfParams | None:
        if self.kind == "conformal":
            return self.base.hopf_params()
        if self.a is not None or self.b is not None:
            a = self.a if self.a is not None else E
            b = self.b if self.b is not None else E
            return HopfParams(a, b)
        if self.kind.startswith("hopf"):
            return HopfParams(E, E)
        return None

    @cached_property
    def poly_table(self) -> PolyTable | None:
        """Coefficient table of h for the polynomial kinds, drawn once per
        spec; None for the other kinds."""
        n = self.dim
        if self.kind == "flat":
            return _frozen(_poly_table(np.eye(n), n))
        if self.kind == "kahler-test":
            return _frozen(_kahler_test_table(n))
        if self.kind == "user-polynomial":
            amp = self.amp if self.amp is not None else _POLY_AMP
            return _frozen(_user_polynomial_table(n, self.seed_value, amp))
        return None

    # -- canonical text form ---------------------------------------------------

    def canonical(self) -> str:
        return self._canonical

    @cached_property
    def _canonical(self) -> str:
        # formed once per spec: every report and suite row on the spec echoes it
        return _canonical(self, _METRIC_KEYS)


def _fmt_float(x: float) -> str:
    return repr(float(x))  # shortest exact round-trip form


def _fmt_complex(x: complex) -> str:
    x = complex(x)
    if x.imag == 0.0:
        return _fmt_float(x.real)
    return f"{_fmt_float(x.real)}{x.imag:+}j"


def _split_top_level(body: str) -> list[str]:
    """Split on commas that sit at brace depth 0 (nested specs stay intact)."""
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced braces in {body!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced braces in {body!r}")
    if cur or parts:
        parts.append("".join(cur))
    return parts


def _split_kind_body(text: str) -> tuple[str, str | None]:
    text = text.strip()
    if "{" not in text:
        return text, None
    if not text.endswith("}"):
        raise ValueError(f"malformed spec {text!r}: expected closing brace")
    kind, body = text.split("{", 1)
    return kind.strip(), body[:-1]


def _parse_complex(key: str, raw: str) -> complex:
    try:
        return complex(raw.replace(" ", ""))
    except ValueError:
        raise ValueError(f"field {key!r}: cannot parse {raw!r} as a complex number") from None


def _parse_float(key: str, raw: str) -> float:
    try:
        x = float(raw)
    except ValueError:
        raise ValueError(f"field {key!r}: cannot parse {raw!r} as a real number") from None
    if not math.isfinite(x):
        raise ValueError(f"field {key!r}: expected a finite number, got {raw!r}")
    return x


def _parse_int(key: str, raw: str, least: int = 0, most: int | None = None) -> int:
    try:
        x = int(raw)
    except ValueError:
        raise ValueError(f"field {key!r}: cannot parse {raw!r} as an integer") from None
    if x < least:
        raise ValueError(f"field {key!r}: expected an integer >= {least}, got {raw!r}")
    if most is not None and x > most:
        raise ValueError(f"field {key!r}: expected an integer <= {most}, got {raw!r}")
    return x


# Largest number of coordinates a spec may ask for.  A polynomial metric's
# table holds n²(2n)² Hessian entries, and the geometry's arrays grow alike.
MAX_DIM = 8


# The spec grammar, one entry per key: the attribute the key sets, its parser
# (key, raw text) -> value and its formatter value -> text.
_SPEC_KEYS = {
    "a": ("a", _parse_complex, _fmt_complex),
    "b": ("b", _parse_complex, _fmt_complex),
    "lambda": ("lam", _parse_float, _fmt_float),
    "seed": ("seed", _parse_int, str),
    "amp": ("amp", _parse_float, _fmt_float),
    "n": ("n", lambda key, raw: _parse_int(key, raw, 1, MAX_DIM), str),
    "base": ("base", lambda key, raw: parse_metric_spec(raw), lambda spec: spec.canonical()),
    "f": ("f", lambda key, raw: parse_field_spec(raw), lambda spec: spec.canonical()),
    "scale": ("scale", _parse_float, _fmt_float),
}
# A metric spec's canonical text lists its keys in this order.
_METRIC_KEYS = ("a", "b", "lambda", "seed", "amp", "n", "base", "f")


def _canonical(spec, keys) -> str:
    """`kind{key=value,...}` over those of `keys` that the spec sets."""
    parts = []
    for key in keys:
        attr, _, fmt = _SPEC_KEYS[key]
        value = getattr(spec, attr)
        if value is not None:
            parts.append(f"{key}={fmt(value)}")
    return f"{spec.kind}{{{','.join(parts)}}}" if parts else spec.kind


def _spec_kwargs(body: str | None, allowed, what: str) -> dict:
    """Constructor keywords parsed from a spec body; each key must be allowed
    and given once."""
    kwargs = {}
    for item in _split_top_level(body) if body else []:
        if not item.strip():
            continue
        if "=" not in item:
            raise ValueError(f"spec item {item!r} is not key=value")
        key, raw = (s.strip() for s in item.split("=", 1))
        if key not in allowed:
            raise ValueError(f"field {key!r} is not valid for {what}")
        attr, parse, _ = _SPEC_KEYS[key]
        if attr in kwargs:
            raise ValueError(f"field {key!r} is given more than once for {what}")
        kwargs[attr] = parse(key, raw)
    return kwargs


def parse_field_spec(text: str) -> FieldSpec:
    kind, body = _split_kind_body(text)
    if kind not in _FIELD_KEYS:
        raise ValueError(f"unknown field kind {kind!r}; expected one of {tuple(_FIELD_KEYS)}")
    return FieldSpec(kind=kind, **_spec_kwargs(body, _FIELD_KEYS[kind], f"field kind {kind!r}"))


def parse_metric_spec(text: str) -> MetricSpec:
    """Parse the `kind{key=value,...}` grammar (values may nest the same grammar)."""
    kind, body = _split_kind_body(text)
    if kind not in _METRIC_KINDS:
        raise ValueError(f"unknown metric kind {kind!r}; expected one of {_METRIC_KINDS}")
    return MetricSpec(kind=kind, **_spec_kwargs(body, _ALLOWED_KEYS[kind], f"metric kind {kind!r}"))


# -- the Hopf potential -------------------------------------------------------------


# Largest |log Φ| for which Φ is a finite, nonzero double.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _theta_root(p, hp: HopfParams) -> float:
    """θ at p, the root of g(θ) = |z|²e^{−c₁θ} + |w|²e^{−c₂θ} − 1 with cᵢ = kᵢ/π.

    g is convex and strictly decreasing.  Analytic Newton starts at
    θ₀ = max log(xᵢ)/cᵢ over the nonzero terms xᵢ ∈ {|z|², |w|²}: there one
    term is 1, so g(θ₀) ≥ 0, and the iterates climb monotonically to the root
    with every term ≤ 1, so nothing overflows.  The dominant term enters g
    through expm1, which keeps the root accurate where the other term is tiny.
    Newton stops once a step is below 1e-14 relative to |θ| + 1/|g′(θ)|
    (1/|g′| is the distance over which g changes by 1).

    A zero coordinate enters as log xᵢ = −∞, a term e^{−∞} = 0 that adds
    nothing, so one loop serves one term and two.  The dominant term is the
    one with the larger exponent log xᵢ − cᵢθ (z on a tie, where either choice
    gives the same g and g′).
    """
    try:
        zz, ww = abs(p[0]) ** 2, abs(p[1]) ** 2
    except OverflowError:
        raise PointFailure("|z|² or |w|² is outside the floating-point range at this point") from None
    if not (zz > 0.0 or ww > 0.0):
        raise PointFailure("Φ is undefined at the origin")
    lz = math.log(zz) if zz > 0.0 else -math.inf
    lw = math.log(ww) if ww > 0.0 else -math.inf
    c1, c2 = hp.c1, hp.c2
    exp, expm1 = math.exp, math.expm1
    theta = max(lz / c1, lw / c2)
    for _ in range(100):
        ez, ew = lz - c1 * theta, lw - c2 * theta
        if ez < ew:
            x_lo = exp(ez)
            g, dg = expm1(ew) + x_lo, -(c2 * exp(ew) + c1 * x_lo)
        else:
            x_lo = exp(ew)
            g, dg = expm1(ez) + x_lo, -(c1 * exp(ez) + c2 * x_lo)
        step = g / dg
        theta -= step
        if abs(step) <= 1e-14 * (abs(theta) - 1.0 / dg):
            break
    else:
        raise PointFailure("Φ root iteration did not converge")
    if abs(hp.k * theta) > _LOG_FLOAT_MAX:
        raise PointFailure("Φ is outside the floating-point range at this point")
    return theta


def phi_value(p, hp: HopfParams) -> float:
    """Scalar Φ(p) without jet overhead."""
    return math.exp(hp.k * _theta_root(p, hp))


class HopfFrame(NamedTuple):
    """The coordinates and θ, Φ = e^{kθ}, e₁ = e^{−c₁θ}, e₂ = e^{−c₂θ},
    u = |z|²e₁, v = |w|²e₂, Δ = αu + (2−α)v and the complex products
    z·z̄, w·w̄ and z̄·w at one point, as values (`hopf_values`), or at each
    point of a sample, as arrays over its batch axes (`hopf_frames`)."""

    z: complex
    w: complex
    zb: complex
    wb: complex
    theta: float
    phi: float
    e1: float
    e2: float
    u: float
    v: float
    delta: float
    zz: complex
    ww: complex
    zbw: complex


def _check_implicit(residual: float, theta_size: float) -> None:
    """Raise unless F = u + v − 1 vanishes to 1e-10·(1 + |θ|)."""
    if residual > 1e-10 * (1.0 + theta_size):
        raise PointFailure(f"implicit jet iteration failed to converge (residual {residual:.3g})")


# While a `shared_builds` block is open: the frames `hopf_values` has
# solved, by (a, b, point), and the metrics built on a sample, by (spec, the
# bytes of its first point), each with the bytes of its whole sample
# (`_shared_metric`).  None outside one.
_FRAMES: dict | None = None
_METRICS: dict | None = None


@contextmanager
def shared_builds():
    """Within the block, `hopf_values` returns the frame it already solved
    for the same (a, b, point) rather than solving θ again, and a metric
    built on a sample that begins one already built for the same spec is a
    `prefix` of that metric; on exit every frame and metric is dropped.  A
    frame is a function of |a|, |b| and the point alone, and a metric's
    arrays at a point do not depend on the other points of its sample, so a
    shared frame or metric is the one the call would build.  A build that
    raises is not kept, and raises again on its next call."""
    global _FRAMES, _METRICS
    outer, _FRAMES, _METRICS = (_FRAMES, _METRICS), {}, {}
    try:
        yield
    finally:
        _FRAMES, _METRICS = outer


def hopf_values(p, hp: HopfParams) -> HopfFrame:
    """The frame's values at p ≠ 0, from one `_theta_root` (or the frame
    already solved at p, inside `shared_builds`)."""
    if _FRAMES is None:
        return _solve_frame(p, hp)
    z, w = complex(p[0]), complex(p[1])
    key = (hp.a, hp.b, z, w)
    if not (z.real and z.imag and w.real and w.imag):
        # 0.0 == −0.0, but the frame keeps the coordinates' signed zeros
        key += tuple(math.copysign(1.0, x) for x in (z.real, z.imag, w.real, w.imag))
    hv = _FRAMES.get(key)
    if hv is None:
        hv = _FRAMES[key] = _solve_frame(p, hp)
    return hv


def _solve_frame(p, hp: HopfParams) -> HopfFrame:
    """The frame's values at p ≠ 0, from one `_theta_root`.

    Each value is formed by the arithmetic that forms the value slot of the
    matching row in `hopf_rows` (u is (z·z̄)e₁, not |z|²e₁; the rows of
    |z|², |w|² and z̄w take their values from zz, ww and zbw), and the value
    slot of a Leibniz product is the product of the values.  So the closed
    form of the metrics on this frame (`hopf_metric`) equals the values of
    their rows bit for bit.  u + v = 1, so neither term of Δ can overflow.
    Φ = e^{kθ} is `math.exp` (numpy's vector exp may round differently), and
    `_theta_root` keeps it a double.
    """
    theta = _theta_root(p, hp)
    try:
        e1, e2 = math.exp(-hp.c1 * theta), math.exp(-hp.c2 * theta)
    except OverflowError:
        raise PointFailure(
            "Φ^{−α} or Φ^{α−2} is outside the floating-point range at this point"
        ) from None
    z, w = complex(p[0]), complex(p[1])
    zb, wb = z.conjugate(), w.conjugate()
    zz, ww = z * zb, w * wb
    u, v = zz.real * e1, ww.real * e2
    _check_implicit(abs(u + v - 1.0), abs(theta))
    return HopfFrame(z, w, zb, wb, theta, math.exp(hp.k * theta), e1, e2, u, v,
                     hp.alpha * u + (2.0 - hp.alpha) * v, zz, ww, zb * w)


def hopf_frames(pts: np.ndarray, hp: HopfParams) -> HopfFrame:
    """The frame at each point of the (..., 2) array pts, from one
    `hopf_values` (one θ root) per point: the scalar frame itself at one
    point (pts of shape (2,)), and at a sample a frame of arrays over its
    batch axes, the coordinates and the products complex and the rest real
    (the real parts of one complex array, which hold the values exactly)."""
    if pts.ndim == 1:
        return hopf_values(pts.tolist(), hp)
    flat, k = pts.reshape(-1, 2).tolist(), len(HopfFrame._fields)
    fields = np.fromiter(chain.from_iterable(hopf_values(p, hp) for p in flat), complex, k * len(flat))
    fields = fields.reshape(-1, k).T.reshape((k,) + pts.shape[:-1])
    return HopfFrame(*fields[:4], *fields[4:-3].real, *fields[-3:])


# -- order-2 rows ----------------------------------------------------------------------
#
# A row is the order-2 jet of one function of the 2n Wirtinger slots
# x = (z¹…zⁿ, z̄¹…z̄ⁿ) at a point: its value, gradient and row-major Hessian,
# 1 + m + m² numbers for m = 2n (the flat layout of a `WJet`).  A sample's
# axes go in front, (..., 1 + m + m²); k rows stack along a new first axis,
# and a metric's entries are rows (..., n, n, 1 + m + m²).  The helpers below
# are the whole arithmetic of order-2 jets (Griewank & Walther, Evaluating
# Derivatives, ch. 13): each reads m from the row length and broadcasts.


def _slots(rows: np.ndarray) -> int:
    """m = 2n, the gradient's length in rows of length 1 + m + m²."""
    return (math.isqrt(4 * rows.shape[-1] - 3) - 1) // 2


def _row_arrays(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(value, gradient, Hessian) views of rows, (...), (..., m) and (..., m, m)."""
    m = _slots(rows)
    return rows[..., 0], rows[..., 1 : 1 + m], rows[..., 1 + m :].reshape(rows.shape[:-1] + (m, m))


def _leibniz(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise product of two stacks of rows (shapes broadcast), by the
    arithmetic of `wjet.mul`: (ab)' = a'b + ab',
    (ab)'' = a''b + a'⊗b' + b'⊗a' + ab''."""
    m = _slots(b)
    cross = a[..., 1 : 1 + m, None] * b[..., None, 1 : 1 + m]
    out = a[..., :1] * b
    out[..., 1 + m :] += (cross + cross.swapaxes(-1, -2)).reshape(out.shape[:-1] + (m * m,))
    out[..., 1:] += b[..., :1] * a[..., 1:]
    return out


def _exp_rows(e0, x: np.ndarray) -> np.ndarray:
    """The rows of e^x from the rows of x and the values e0 of e^x, by the
    chain rule of `wjet.exp`: (e^x)' = e^x x', (e^x)'' = e^x x'' + (e^x)'⊗x'.
    x's value slot is not read, so e0 is e^x exactly as the caller forms it."""
    m = _slots(x)
    out = np.empty(x.shape, complex)
    out[..., 0] = e0
    out[..., 1:] = out[..., :1] * x[..., 1:]
    grad = out[..., 1 : 1 + m]
    out[..., 1 + m :] += (grad[..., :, None] * x[..., None, 1 : 1 + m]).reshape(x.shape[:-1] + (m * m,))
    return out


def _reciprocal(b: np.ndarray) -> np.ndarray:
    """The rows of 1/b, by the arithmetic of `wjet._reciprocal`: with c the
    value of b and e = b/c − 1, 1/b = (1 − e + e²)/c."""
    m = _slots(b)
    b = b.transpose(-1, *range(b.ndim - 1))  # slot first, [slot, ...]
    c = b[0]
    e = b / c
    out = e / -c
    out[0] = 1.0 / c
    out[1 + m :] += (e[1 : 1 + m, None] * e[1 : 1 + m]).reshape((m * m,) + e.shape[1:]) * (2.0 / c)
    return out.transpose(*range(1, out.ndim), 0)  # as rows [..., slot]


def _conj_perm(m: int) -> np.ndarray:
    """The permutation p of the row slots with rows[..., p].conj() the
    conjugate rows: conjugation trades the z and z̄ slots of the gradient and
    of both Hessian axes (p[1 : 1 + m] − 1 is that swap of m slots)."""
    swap = (np.arange(m) + m // 2) % m
    return np.concatenate(([0], 1 + swap, 1 + m + (m * swap[:, None] + swap).ravel()))


_CONJ = _conj_perm(4)  # the two coordinates of a Hopf surface


def _taylor_max(rows: np.ndarray) -> np.ndarray:
    """Largest Taylor coefficient magnitude of each row (f_ss/2 on the
    Hessian's diagonal), as `WJet.max_abs` reads a jet."""
    m = _slots(rows)
    c = np.abs(rows)
    c[..., 1 + m :: m + 1] *= 0.5  # the Hessian's diagonal
    return c.max(axis=-1)


_ROW = 21  # a Hopf row: value, 4 gradient slots, 16 Hessian slots
# The Hessian of F in `_theta_row` is this pattern times (e₁, e₂, e₁, e₂)
# down its rows: F_{zz̄} = e₁, F_{ww̄} = e₂.
_SLOT_SWAP = np.eye(4)[_CONJ[1:5] - 1]


# The Hessians of |z|², |w|² and z̄w: ∂z∂z̄|z|² = ∂w∂w̄|w|² = ∂w∂z̄(z̄w) = 1.
_MONOMIALS = np.zeros((3, _ROW), complex)
_MONOMIALS[[0, 0, 1, 1, 2, 2], [7, 13, 12, 18, 11, 14]] = 1.0


def _monomial_rows(z, w, zb, wb, values) -> np.ndarray:
    """The rows of |z|², |w|² and z̄w at a point, or at each point of a
    sample, (3, ..., 21): their values (z·z̄, w·w̄ and z̄·w, as Python's
    complex product forms them: a frame's products, or `complex_product`),
    their gradients and their Hessians (every other slot is 0)."""
    x = np.empty((3,) + np.shape(z) + (_ROW,), complex)
    x[...] = _MONOMIALS.reshape((3,) + (1,) * np.ndim(z) + (_ROW,))
    x[..., 0] = values
    x[0, ..., 1], x[0, ..., 3] = zb, z
    x[1, ..., 2], x[1, ..., 4] = wb, w
    x[2, ..., 2], x[2, ..., 3] = zb, w
    return x


def complex_product(a, b):
    """a·b for complex numbers or arrays a and b, as Python's complex product
    forms it: that product itself for numbers, and on arrays the same
    arithmetic on their parts.  numpy's complex multiply may fuse a multiply
    and an add, which rounds differently, and the value slots of the rows
    must equal the scalar frame's values bit for bit.  (Adding 1j·im is
    exact: its real part is a zero.)"""
    if isinstance(a, complex):
        return a * b
    return (a.real * b.real - a.imag * b.imag) + 1j * (a.real * b.imag + a.imag * b.real)


def _theta_row(hv: HopfFrame, hp: HopfParams) -> np.ndarray:
    """θ's row at hv's point (or at each point of a stacked frame, (..., 21)),
    in closed form.

    θ is the root of F(x, θ) = |z|²e^{−c₁θ} + |w|²e^{−c₂θ} − 1 with
    cᵢ = kᵢ/π (F is strictly decreasing in θ, so the root is unique).  Past
    the scalar frame, the implicit-function theorem gives θ's partials in the
    slots x = (z, w, z̄, w̄) directly:

        θᵢ = −Fᵢ/F_θ,   θᵢⱼ = −(Fᵢⱼ + F_{iθ}θⱼ + F_{jθ}θᵢ + F_{θθ}θᵢθⱼ)/F_θ.

    F is linear in each of |z|², |w|², so the only x-x partials are
    F_{zz̄} = e₁ and F_{ww̄} = e₂, and F_x = (z̄, w̄, z, w)·(e₁, e₂, e₁, e₂).
    The partials are formed slot first, [slot, ...], so that the frame's
    values broadcast against them, and written into the row's slots.
    """
    c1, c2, u0, v0 = hp.c1, hp.c2, hv.u, hv.v
    ee = np.array((hv.e1, hv.e2, hv.e1, hv.e2))
    bcast = (1,) * (ee.ndim - 1)
    Fx = np.array((hv.zb, hv.wb, hv.z, hv.w)) * ee
    Fxt = hp.minus_rates[0].reshape((4,) + bcast) * Fx
    Fxx = _SLOT_SWAP.reshape((4, 4) + bcast) * ee[:, None]
    Ft = -(c1 * u0 + c2 * v0)
    Ftt = c1 * c1 * u0 + c2 * c2 * v0
    if np.count_nonzero(~np.isfinite(Ft) | (Ft == 0.0)):  # at any point
        raise PointFailure("dF/dtheta vanishes at the solution")
    row = np.empty(ee.shape[1:] + (_ROW,), complex)
    slots = row.transpose(-1, *range(row.ndim - 1))  # [slot, ...]
    slots[0] = hv.theta
    tx = np.divide(Fx, -Ft, out=slots[1:5])
    cross = Fxt[:, None] * tx
    np.divide(Fxx + cross + cross.swapaxes(0, 1) + Ftt * (tx[:, None] * tx), -Ft,
              out=slots[5:].reshape((4,) + tx.shape))
    return row


class HopfRows(NamedTuple):
    """The order-2 rows every Hopf quantity is built from (`hopf_rows`)."""

    theta: np.ndarray  # (..., 21)
    e: np.ndarray  # (3, ..., 21): e₁, e₂, e₁e₂
    uvq: np.ndarray  # (3, ..., 21): u = |z|²e₁, v = |w|²e₂, q = z̄w·e₁e₂
    delta: np.ndarray  # (..., 21): Δ = αu + (2−α)v


def hopf_rows(hv: HopfFrame, hp: HopfParams) -> HopfRows:
    """The order-2 frame at the point of the scalar frame hv, as rows (at
    each point of a stacked frame, with its batch axes after the row axis).

    θ's row comes from its closed-form partials (`_theta_row`).  With
    k = (k₁+k₂)/2π, Φ = e^{kθ}; since kα = c₁ and k(2−α) = c₂, the factors
    e₁ = Φ^{−α}, e₂ = Φ^{α−2} and e₁e₂ = Φ^{−2} are e^{−rθ} for the rates
    r = c₁, c₂, c₁ + c₂, one stacked chain rule (`_exp_rows` of −rθ).
    |z|², |w|² and z̄w have fixed rows, so u, v and q = z̄w·e₁e₂ are one
    stacked Leibniz product, and Δ = αu + (2−α)v = −F_θ/k.  F = u + v − 1
    is checked to vanish through order 2.  The value slots are the scalar
    frame's values, or products of them.
    """
    theta = _theta_row(hv, hp)
    minus_r = hp.minus_rates[1].reshape((3,) + (1,) * theta.ndim)
    e = _exp_rows((hv.e1, hv.e2, hv.e1 * hv.e2), minus_r * theta)
    uvq = _leibniz(_monomial_rows(hv.z, hv.w, hv.zb, hv.wb, (hv.zz, hv.ww, hv.zbw)), e)
    F = np.array((uvq[0] + uvq[1], theta))  # F = u + v − 1, beside θ for its size
    F[0, ..., 0] -= 1.0
    res, size = _taylor_max(F)
    bad = res > 1e-10 * (1.0 + size)
    if np.count_nonzero(bad):
        k = bad.argmax()
        _check_implicit(res.flat[k], size.flat[k])
    return HopfRows(theta, e, uvq, hp.alpha * uvq[0] + (2.0 - hp.alpha) * uvq[1])


def phi_field(hv: HopfFrame, hp: HopfParams) -> tuple[tuple[np.ndarray, ...], ...]:
    """The (value, gradient, Hessian) arrays of Φ, θ and Δ at the point of the
    scalar frame hv, or at each point of a stacked frame (batch axes in
    front), read from `hopf_rows`; Φ = e^{kθ} by the chain rule, its value
    the frame's."""
    fr = hopf_rows(hv, hp)
    phi = _exp_rows(hv.phi, hp.k * fr.theta)
    return _row_arrays(phi), _row_arrays(fr.theta), _row_arrays(fr.delta)


def _forms(a, b, c, d) -> np.ndarray:
    """The 2×2 matrices [[a, b], [c, d]] of the entries' batch axes, (..., 2, 2)."""
    entries = np.stack((a, b, c, d), axis=-1)
    return entries.reshape(entries.shape[:-1] + (2, 2))


def hessian_forms(hv: HopfFrame, hp: HopfParams) -> tuple[np.ndarray, np.ndarray]:
    """Value matrices L of √−1∂∂̄logΦ and P of √−1∂Φ∧∂̄Φ, on the scalar frame
    hv (`hopf_values`), or at each point of a stacked frame as (..., 2, 2)
    arrays; no row is built, and the caller's frame is read, so a check that
    needs the frame for more solves θ once for all of it.

    Eliminating θ from the implicit relation gives, with α = 2k₁/(k₁+k₂),

        L = (1/(Φ²Δ³)) [[ (α−2)²|w|²,  α(α−2) z̄w ],
                         [ α(α−2) zw̄,   α²|z|²    ]],

    and the gradient Φ_z = z̄ Φ^{1−α}/Δ, Φ_w = w̄ Φ^{α−1}/Δ gives

        P = (1/Δ²) [[ |z|² Φ^{2−2α},  z̄w ],
                    [ zw̄,            |w|² Φ^{2α−2} ]].

    Both are rank 1 (det L = det P = 0) and positive semidefinite.  Every
    factor is a numpy ufunc call, which rounds a scalar frame's values as it
    rounds a stacked frame's (numpy's scalar operators, as in `x ** 2` on the
    float that `np.abs` returns, may not); so the entries at a point of a
    sample are the entries at that point alone.
    """
    al, phi, delta = hp.alpha, hv.phi, hv.delta
    zbw = np.multiply(hv.zb, hv.w)
    with np.errstate(over="raise", invalid="raise"):
        try:
            zz, ww = np.square(np.abs(hv.z)), np.square(np.abs(hv.w))
            L = _forms((al - 2.0) ** 2 * ww, al * (al - 2.0) * zbw,
                       al * (al - 2.0) * np.conj(zbw), al**2 * zz)
            P = _forms(zz * np.power(phi, 2.0 - 2.0 * al), zbw, np.conj(zbw),
                       ww * np.power(phi, 2.0 * al - 2.0))
            sL = np.power(phi, -2.0) / np.power(delta, 3.0)
            return L * sL[..., None, None], P / np.square(delta)[..., None, None]
        except FloatingPointError:
            raise PointFailure("a power of Φ is outside the floating-point range at this point") from None


def dbar_log_phi(hv: HopfFrame) -> np.ndarray:
    """∂̄ log Φ = (z e₁, w e₂)/Δ on the scalar frame, or at each point of a
    stacked frame as (..., 2): log Φ = kθ, and with F as in `_theta_row`,
    θ_z̄ = −F_z̄/F_θ = z e₁/(kΔ) since F_θ = −kΔ (so for w̄)."""
    return np.stack((hv.z * hv.e1, hv.w * hv.e2), axis=-1) / np.asarray(hv.delta)[..., None]


# -- polynomial coefficient tables -----------------------------------------------------


class PolyTable(NamedTuple):
    """A degree-≤2 polynomial in the 2n Wirtinger slots x = (z¹…zⁿ, z̄¹…z̄ⁿ),
    h(x) = C0 + B·x + ½xᵀQx, entrywise over the axes S of C0.

    B has shape S + (2n,) and Q, symmetric in its last two axes, S + (2n, 2n).
    The order-2 jet of such a polynomial is exact: at x the value is
    C0 + (B + ½Qx)·x, the gradient B + Qx and the Hessian Q (`rows`).
    """

    C0: np.ndarray
    B: np.ndarray
    Q: np.ndarray

    def rows(self, p) -> np.ndarray:
        """The rows of h at the point p, S + (1 + m + m²,); for an array
        p[..., n] of points, at each of them, with the batch axes of p in
        front of S.

        The contractions are einsums rather than matmuls: a BLAS matrix-vector
        product may fuse multiply and add, and then δ + zⁱz̄ʲ (kahler-test)
        is not the once-rounded product that Leibniz arithmetic forms.
        """
        x = np.asarray(p, dtype=complex)
        x = np.concatenate((x, x.conj()), axis=-1)
        x = x.reshape(x.shape[:-1] + (1,) * self.C0.ndim + x.shape[-1:])  # broadcasts over S
        Qx = np.einsum("...st,...t->...s", self.Q, x)
        m = x.shape[-1]
        rows = np.empty(Qx.shape[:-1] + (1 + m + m * m,), complex)
        rows[..., 0] = self.C0 + np.einsum("...s,...s->...", self.B + 0.5 * Qx, x)
        np.add(self.B, Qx, out=rows[..., 1 : 1 + m])
        rows[..., 1 + m :] = self.Q.reshape(self.Q.shape[:-2] + (m * m,))
        return rows


def _poly_table(C0, n: int) -> PolyTable:
    """The table of the constant C0 on n coordinates; add terms with `_add_monomial`."""
    C0 = np.array(C0, dtype=complex)
    m = 2 * n
    return PolyTable(C0, np.zeros(C0.shape + (m,), complex), np.zeros(C0.shape + (m, m), complex))


def _add_monomial(t: PolyTable, idx: tuple, c: complex, *slots: int) -> None:
    """Add c·x_a (slots = (a,)) or c·x_a·x_b (slots = (a, b)) to entry idx of t."""
    if len(slots) == 1:
        t.B[idx + slots] += c
    else:
        a, b = slots
        t.Q[idx + (a, b)] += c  # ½(Q_ab + Q_ba)x_a x_b = c x_a x_b; Q_aa = 2c
        t.Q[idx + (b, a)] += c


def _conj(t: PolyTable, n: int) -> PolyTable:
    """The table of conj(h), through `_conj_perm`."""
    swap = _conj_perm(2 * n)[1 : 1 + 2 * n] - 1
    return PolyTable(t.C0.conj(), t.B[..., swap].conj(), t.Q[..., swap, :][..., swap].conj())


def _frozen(t: PolyTable) -> PolyTable:
    """t with read-only arrays: a spec keeps its table."""
    t = PolyTable(*(np.array(a, order="C") for a in t))
    for a in t:
        a.setflags(write=False)
    return t


def _kahler_test_table(n: int) -> PolyTable:
    """h_{ij̄} = δ_ij + zⁱz̄ʲ; ∂_k h_{ij̄} = δ_ik z̄ʲ is symmetric in i and k,
    so the metric is Kähler."""
    t = _poly_table(np.eye(n), n)
    for i in range(n):
        for j in range(n):
            _add_monomial(t, (i, j), 1.0, i, n + j)
    return t


# Perturbation size of a user-polynomial spec that sets no amp.
_POLY_AMP = 0.05


def _user_polynomial_table(n: int, seed: int, amp: float) -> PolyTable:
    """Seeded Hermitian perturbation of the flat metric by degree-≤2 polynomials.

    For i ≤ j, with six seeded complex normals c,

        q_ij = c₀zⁱz̄ʲ + c₁z¹zⁿ + c₂z̄¹z̄ⁿ + c₃zⁱ + c₄z̄ʲ + c₅z¹z̄¹,

    and h = I + amp·(U + U†), where U holds q_ij above the diagonal and on
    it, and U†_ij = conj(U_ji); so h_ii = 1 + amp(q_ii + conj q_ii) and
    h_ji = conj(h_ij).
    """
    rng = np.random.default_rng(seed)
    u = _poly_table(np.zeros((n, n)), n)
    for i in range(n):
        for j in range(i, n):
            c = amp * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
            terms = ((i, n + j), (0, n - 1), (n, 2 * n - 1), (i,), (n + j,), (0, n))
            for ck, slots in zip(c, terms):
                _add_monomial(u, (i, j), ck, *slots)
    uh = _conj(u, n)
    return PolyTable(
        np.eye(n) + u.C0 + uh.C0.T, u.B + uh.B.swapaxes(0, 1), u.Q + uh.Q.swapaxes(0, 1)
    )


def _poly_field_table(n: int, seed: int, amp: float) -> PolyTable:
    """The seeded real poly field f = amp(q + conj q) on n coordinates, with
    q = Σᵢ (cᵢzⁱ + c_{n+i}zⁱz̄^{i+1}) + c_{2n}z¹zⁿ + c_{2n+1}z¹z̄¹ (indices
    mod n)."""
    rng = np.random.default_rng(seed)
    m = max(8, 2 * n + 2)  # 8 keeps the draws of n <= 3 unchanged
    c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    q = _poly_table(0.0, n)
    for i in range(n):
        _add_monomial(q, (), c[i], i)
        _add_monomial(q, (), c[n + i], i, n + (i + 1) % n)
    _add_monomial(q, (), c[2 * n], 0, n - 1)
    _add_monomial(q, (), c[2 * n + 1], 0, n)
    return PolyTable(*(amp * (a + b) for a, b in zip(q, _conj(q, n))))


# -- metric construction ---------------------------------------------------------------


def _hopf_standard_rows(pts: np.ndarray) -> np.ndarray:
    """The rows of hopf-standard, δ_ij/S with S = |z|² + |w|², at each
    point of pts[..., 2]: the `_reciprocal` of S's row (the rows of |z|² and
    |w|² added) on the diagonal.  Where S is 0 or not finite, 1/S is no
    metric, and the point fails."""
    z, w = pts[..., 0], pts[..., 1]
    zb, wb = z.conj(), w.conj()
    with np.errstate(over="ignore", invalid="ignore"):
        values = complex_product(z, zb), complex_product(w, wb), complex_product(zb, w)
        S = _monomial_rows(z, w, zb, wb, values)[:2].sum(axis=0)
    if np.count_nonzero(~np.isfinite(S[..., 0]) | (S[..., 0] == 0)):
        raise PointFailure("1/(|z|² + |w|²) is outside the floating-point range at this point")
    rows = np.zeros(z.shape + (2, 2, _ROW), complex)
    rows[..., 0, 0, :] = rows[..., 1, 1, :] = _reciprocal(S)
    return rows


def _delta_cubed_omega(hf: HopfFrame, al: float, lam: float) -> list[list]:
    """Δ³ω_λ = Δ³((1+λ)L + P/Φ²), with L and P as in `hessian_forms`, on the
    scalar frame; `_delta_cubed_omega_rows` is the same closed form on rows.

    Φ^{−α} = e₁, Φ^{α−2} = e₂ and Φ^{−2} = e₁e₂ make it a polynomial in the
    frame, with no power of Φ and no division:

        [[ e₁((1+λ)(α−2)²v + Δu),      ((1+λ)α(α−2) + Δ) z̄w·e₁e₂ ],
         [ conj of the (1,2) entry,     e₂((1+λ)α²u + Δv)         ]]
    """
    s, D = 1.0 + lam, hf.delta
    h12 = (s * al * (al - 2.0) + D) * (hf.zbw * (hf.e1 * hf.e2))
    return [
        [hf.e1 * (s * (al - 2.0) ** 2 * hf.v + D * hf.u), h12],
        [h12.conjugate(), hf.e2 * (s * al**2 * hf.u + D * hf.v)],
    ]


def _delta_cubed_omega_rows(fr: HopfRows, al: float, lam: float, cube: bool) -> np.ndarray:
    """The rows of h₁₁, h₁₂ and h₂₂ of `_delta_cubed_omega`, and with `cube` of Δ³,
    by two stacked Leibniz products: Δ·(u, v), then e₁·A, C·q, e₂·B (and Δ²·Δ) for
    A = (1+λ)(α−2)²v + Δu, C = (1+λ)α(α−2) + Δ and B = (1+λ)α²u + Δv.
    Each value slot is formed as the matching value of `_delta_cubed_omega`.
    The stack is (4 or 3, ..., 21), over the batch axes of the frame."""
    s, D = 1.0 + lam, fr.delta
    u, v, q = fr.uvq
    Du, Dv = _leibniz(D, fr.uvq[:2])
    left, right = np.empty((2, 4 if cube else 3) + D.shape, complex)  # (e₁, C, e₂) and (A, q, B)
    left[0], left[1], left[2] = fr.e[0], D, fr.e[1]
    left[1, ..., 0] += s * al * (al - 2.0)
    right[0], right[1], right[2] = s * (al - 2.0) ** 2 * v + Du, q, s * al**2 * u + Dv
    if cube:
        left[3], right[3] = _leibniz(D, D), D
    return _leibniz(left, right)


def hopf_metric(spec: MetricSpec, hf: HopfFrame) -> list[list]:
    """Δ³ω_{−1/2} for hopf-lc-flat, ω_λ = Δ³ω_λ/Δ³ for hopf-omega-lambda, on
    the scalar frame (`hopf_values`)."""
    al = spec.hopf_params().alpha
    if spec.kind == "hopf-lc-flat":
        return _delta_cubed_omega(hf, al, -0.5)
    inv_d3 = 1.0 / (hf.delta * hf.delta * hf.delta)
    return [[inv_d3 * x for x in row] for row in _delta_cubed_omega(hf, al, spec.lam_value)]


def _hopf_metric_rows(spec: MetricSpec, fr: HopfRows) -> np.ndarray:
    """The rows (..., 2, 2, 21) of `hopf_metric`'s entries from the rows of
    the frame, over its batch axes: ω_λ is Δ³ω_λ times the reciprocal of
    Δ·Δ·Δ, as `hopf_metric` forms it, and h₂₁ is the conjugate row of h₁₂."""
    al = spec.hopf_params().alpha
    lc_flat = spec.kind == "hopf-lc-flat"
    h = _delta_cubed_omega_rows(fr, al, -0.5 if lc_flat else spec.lam_value, cube=not lc_flat)
    if not lc_flat:
        h = _leibniz(_reciprocal(h[3]), h[:3])
    rows = np.empty(h.shape[1:-1] + (2, 2, _ROW), complex)  # [..., i, j, slot]
    rows[..., 0, 0, :], rows[..., 0, 1, :], rows[..., 1, 1, :] = h
    np.conjugate(h[1][..., _CONJ], out=rows[..., 1, 0, :])
    return rows


def _field_rows(f: FieldSpec, pts: np.ndarray, hp: HopfParams | None, n: int) -> np.ndarray:
    """The rows of a real-valued scalar conformal factor at each point of
    pts[..., n] (batch axes in front)."""
    if f.kind == "zero":
        return np.zeros(pts.shape[:-1] + (1 + 2 * n + 4 * n * n,), complex)
    if f.kind == "poly":
        return f.poly_table(n).rows(pts)
    if hp is None:
        raise SpecError(f"{f.kind} field needs Hopf parameters")
    hv = hopf_frames(pts, hp)
    return _hopf_field(f, hv, hopf_rows(hv, hp), hp)


def _hopf_field(f: FieldSpec, hv: HopfFrame, fr: HopfRows, hp: HopfParams) -> np.ndarray:
    """The rows of a Hopf field from the frame hv and its rows
    fr: log Φ = kθ, and log Δ by the chain rule, (log Δ)' = Δ'/Δ,
    (log Δ)'' = Δ''/Δ − (Δ'/Δ)⊗(Δ'/Δ), with value `np.log` of the frame's Δ.
    A scale that takes the rows out of the double range leaves infinities
    (and NaNs) without a warning; `conformal_scale` fails their points."""
    with np.errstate(over="ignore", invalid="ignore"):
        if f.kind == "log-phi":
            return (f.scale * hp.k) * fr.theta
        delta = np.asarray(hv.delta)
        row = fr.delta / delta[..., None]
        _, grad, hess = _row_arrays(row)
        hess -= grad[..., :, None] * grad[..., None, :]
        row[..., 0] = np.log(delta)
        return f.scale * row


EQ_TOL = 1e-12  # per Taylor coefficient, of the largest coefficient (or of 1)


def all_real_valued(rows: np.ndarray) -> bool:
    """True iff every row of a stack equals its conjugate row (`_conj_perm`),
    Taylor coefficient by coefficient, to EQ_TOL of its own largest
    coefficient (`_taylor_max`)."""
    gap = _taylor_max(rows - rows[..., _conj_perm(_slots(rows))].conj())
    return bool((gap <= EQ_TOL * np.maximum(1.0, _taylor_max(rows))).all())


def conformal_scale(h: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The rows of e^f · h, entry by entry, for the rows h (..., n, n, 1 + m + m²)
    of a metric and f (..., 1 + m + m²) of a real-valued scalar, at each point
    of their batch axes: one `_leibniz` of the `_exp_rows` of f and h.
    A point fails where f's rows are not finite or e^f is not a positive
    finite double (it overflows, or underflows to 0).
    """
    f0 = f[..., 0].real
    with np.errstate(over="ignore"):
        e0 = np.exp(f0)
    bad = ~(np.isfinite(f).all(axis=-1) & (e0 > 0.0) & (e0 < np.inf))
    if np.count_nonzero(bad):
        raise PointFailure(f"e^f is outside the floating-point range at f = {f0.flat[bad.argmax()]:.6g}")
    if not all_real_valued(f):
        raise PointFailure("conformal factor must be a real-valued jet")
    return _leibniz(_exp_rows(e0, f)[..., None, None, :], h)


# Metric kinds that are one closed form over the Hopf frame, and field kinds read off it.
_HOPF_FRAME_KINDS = ("hopf-omega-lambda", "hopf-lc-flat")
_HOPF_FIELD_KINDS = ("log-phi", "log-delta")


def _metric_points(spec: MetricSpec, p) -> np.ndarray:
    """p as a complex array of shape (..., dim): one point, or a sample of
    them along the leading axes."""
    pts = np.asarray(p, dtype=complex)
    if pts.ndim == 0 or pts.shape[-1] != spec.dim:
        size = pts.shape[-1] if pts.ndim else 1
        raise ValueError(f"point has {size} coordinates, metric expects {spec.dim}")
    return pts


def _metric_rows(spec: MetricSpec, pts: np.ndarray) -> np.ndarray:
    """The rows (..., dim, dim, 1 + m + m²) of the metric's entries at each
    point of pts[..., dim]."""
    table = spec.poly_table
    if table is not None:
        return table.rows(pts)
    if spec.kind == "hopf-standard":
        return _hopf_standard_rows(pts)
    if spec.kind in _HOPF_FRAME_KINDS:
        hp = spec.hopf_params()
        return _hopf_metric_rows(spec, hopf_rows(hopf_frames(pts, hp), hp))
    if spec.kind == "conformal":
        return conformal_scale(*_conformal_rows(spec, pts))
    raise ValueError(f"unknown metric kind {spec.kind!r}")  # pragma: no cover (MetricSpec checks)


def _conformal_rows(spec: MetricSpec, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The base's rows and f's rows at each point of pts[..., dim]; a Hopf
    base and a Hopf field read one frame and one set of its rows."""
    hp = spec.hopf_params()
    if spec.base.kind not in _HOPF_FRAME_KINDS or spec.f.kind not in _HOPF_FIELD_KINDS:
        return _metric_rows(spec.base, pts), _field_rows(spec.f, pts, hp, spec.dim)
    hv = hopf_frames(pts, hp)
    fr = hopf_rows(hv, hp)
    return _hopf_metric_rows(spec.base, fr), _hopf_field(spec.f, hv, fr, hp)


def _metric_jet(spec: MetricSpec, pts: np.ndarray, rows: np.ndarray) -> MetricJet:
    """The `MetricJet` of the rows of spec at pts: its (H, dH, ddH) are the
    rows' views.  `MetricJet` checks positive definiteness, once; where a
    user polynomial (or a conformal rescaling of one) fails it, the error
    names its seed and the first such point."""
    try:
        return MetricJet(*_row_arrays(rows))
    except NotPositiveDefinite as exc:
        base = spec
        while base.kind == "conformal":
            base = base.base
        if base.kind != "user-polynomial":
            raise
        pt = tuple(pts.reshape(-1, pts.shape[-1])[exc.index].tolist())
        raise PointFailure(
            f"user polynomial metric (seed={base.seed_value}) is not positive definite at {pt}"
        ) from None


def _shared_metric(spec: MetricSpec, at, build) -> MetricJet:
    """build(), the metric of spec at the points of `at` (an array of them,
    or the frame of `hopf_frames` at them).  Inside `shared_builds`, a sample
    pts[N, dim] whose bytes begin those of a sample already built for spec
    gets that metric's `prefix`; else the metric built is kept in place of
    the one kept for the same first point, if any.  One point, with no
    sample axis, is built afresh and not kept."""
    if _METRICS is None:
        return build()
    pts = np.stack((at.z, at.w), axis=-1) if isinstance(at, HopfFrame) else at
    if pts.ndim != 2:
        return build()
    data = pts.tobytes()
    key = (spec.canonical(), data[: pts.itemsize * pts.shape[1]])
    kept = _METRICS.get(key)
    if kept is not None and kept[0].startswith(data):
        return kept[1].prefix(len(pts))
    m = build()
    _METRICS[key] = data, m
    return m


def build_metric(spec: MetricSpec, p) -> MetricJet:
    """Realize a MetricSpec as an order-2 metric jet at the point p, or at
    every point of a sample p[..., dim] at once (one `MetricJet` whose arrays
    carry the sample's axes in front)."""
    pts = _metric_points(spec, p)
    return _shared_metric(spec, pts, lambda: _metric_jet(spec, pts, _metric_rows(spec, pts)))


def build_hopf_metric(spec: MetricSpec, hv: HopfFrame) -> MetricJet:
    """`build_metric` of a Hopf-frame kind at the points of the frame hv
    (`hopf_frames`), extended to rows with no second θ root."""
    return _shared_metric(spec, hv, lambda: MetricJet(
        *_row_arrays(_hopf_metric_rows(spec, hopf_rows(hv, spec.hopf_params())))))


def build_conformal_metrics(spec: MetricSpec, p) -> tuple[MetricJet, MetricJet, tuple]:
    """The base metric ω of a conformal spec, its e^f ω and the (value,
    gradient, Hessian) of f at p, from one build of the base's rows and of
    f's; each metric is checked as `build_metric` checks it, and ω is the
    one `build_metric` gives for the base."""
    pts = _metric_points(spec, p)
    base, f = _conformal_rows(spec, pts)
    mb = _shared_metric(spec.base, pts, lambda: _metric_jet(spec.base, pts, base))
    return mb, _metric_jet(spec, pts, conformal_scale(base, f)), _row_arrays(f)


def hopf_metric_values(spec: MetricSpec, frames: list[HopfFrame]) -> np.ndarray:
    """`hopf_metric` on each scalar frame of the list, stacked, (N, 2, 2)."""
    return np.array([hopf_metric(spec, hf) for hf in frames])


def metric_values(spec: MetricSpec, p) -> np.ndarray:
    """The value matrix of `build_metric(spec, p)`, equal to it bit for bit,
    at the point p or at each point of a sample p[..., dim].

    The two Hopf metrics evaluate their closed form on one scalar frame per
    point (`hopf_values`), so they build no rows; every other kind, a
    conformal one included, reads the value slot of its rows.  None of
    them checks that the values are positive definite.
    """
    pts = _metric_points(spec, p)
    flat = pts.reshape(-1, spec.dim)
    if spec.kind in _HOPF_FRAME_KINDS:
        hp = spec.hopf_params()
        H = hopf_metric_values(spec, [hopf_values(q, hp) for q in flat.tolist()])
    else:
        H = _metric_rows(spec, flat)[..., 0]
    return H.reshape(pts.shape[:-1] + H.shape[1:])


# -- deck invariance ---------------------------------------------------------------


def deck_invariance_residual(spec: MetricSpec, p, hp: HopfParams | None = None) -> np.ndarray:
    """Max-entry residual of the deck-pullback equation J h(az, bw) J† = h(z, w),
    at the point p or at each point of a sample p[..., 2].

    J = diag(a, b) is the Jacobian of the deck map, so the pullback of the
    metric tensor at (az, bw) has matrix J h(az,bw) J†; a metric descends to
    the quotient surface exactly when this equals h(z, w).  The max-entry
    difference is divided by 1 + max|h(z, w)|, so the residual does not grow
    with the size of the metric.  Works for any
    2-dimensional metric so that non-invariant ones (e.g. flat) can serve as
    negative controls; the deck parameters come from the MetricSpec unless
    passed explicitly.  The images are formed by Python's complex product,
    and the values at the points and at their images are one stack.
    """
    hp = hp or spec.hopf_params()
    if hp is None:
        raise SpecError("deck test needs Hopf parameters (a, b) on the MetricSpec or passed in")
    if spec.dim != 2:
        raise SpecError("deck transformation acts on two complex coordinates")
    pts = _metric_points(spec, p)
    here = pts.reshape(-1, 2).tolist()
    H = metric_values(spec, here + [[hp.a * z, hp.b * w] for z, w in here])
    h_here, h_image = H[:len(here)], H[len(here):]
    J, Jh = hp.deck_jacobian
    diff = J @ h_image @ Jh - h_here
    r = np.abs(diff).max(axis=(-2, -1)) / (1.0 + np.abs(h_here).max(axis=(-2, -1)))
    return r.reshape(pts.shape[:-1])[()]
