"""Concrete metric fields on ℂ²∖{0} and reference metrics on ℂⁿ.

The centerpiece is the Hopf-surface family: the potential Φ solved implicitly
from  |z|²Φ^{−α} + |w|²Φ^{α−2} = 1,  the weight Δ = α|z|²Φ^{−α} + (2−α)|w|²Φ^{α−2},
the one-parameter metrics

    ω_λ = (1+λ) √−1 ∂∂̄ log Φ + √−1 ∂Φ∧∂̄Φ / Φ²      (λ > −1)

and the conformally rescaled metric Δ³·ω_{−1/2}, whose Levi-Civita Ricci form
vanishes identically — the headline identity this package verifies.

All metric entries are produced as full order-2 Wirtinger jets.  `hopf_jets`
solves Φ = e^{kθ} in closed form and returns the jets of the coordinates, of θ,
of e₁ = Φ^{−α} = e^{−c₁θ}, e₂ = Φ^{α−2} = e^{−c₂θ}, u = |z|²e₁, v = |w|²e₂
and of Δ = αu + (2−α)v.  Δ³ω_λ is a polynomial in these jets, so the Hopf
metrics form no power of Φ and, apart from the one division of Δ³ω_λ by Δ³,
no jet quotient; nothing overflows while Φ² and the metric's entries are
doubles.  The closed forms of √−1∂∂̄ log Φ and √−1∂Φ∧∂̄Φ that the metrics
are derived from are written once, on scalars, in `hessian_forms`, which the
checks compare against the metrics and against derivatives of the Φ jet.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import Form11, MetricJet
from .wjet import (
    Point,
    WJet,
    conj,
    exp,
    is_real_valued,
    jet_conj_var,
    jet_const,
    jet_from_partials,
    jet_var,
    log,
)

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

    @property
    def k1(self) -> float:
        return math.log(abs(self.a))

    @property
    def k2(self) -> float:
        return math.log(abs(self.b))

    @property
    def alpha(self) -> float:
        """2k₁/(k₁+k₂) ∈ [1, 2)."""
        return 2.0 * self.k1 / (self.k1 + self.k2)

    @property
    def k(self) -> float:
        """(k₁+k₂)/2π, so that Φ = e^{kθ} for the θ of `hopf_jets`."""
        return (self.k1 + self.k2) / (2.0 * math.pi)


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
        text = {"seed": str(self.seed), "amp": _fmt_float(self.amp), "scale": _fmt_float(self.scale)}
        keys = _FIELD_KEYS[self.kind]
        return f"{self.kind}{{{','.join(f'{k}={text[k]}' for k in keys)}}}" if keys else self.kind


_METRIC_KINDS = (
    "flat",
    "kahler-test",
    "hopf-standard",
    "hopf-omega-lambda",
    "hopf-lc-flat",
    "conformal",
    "user-polynomial",
)

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
        if self.kind == "hopf-omega-lambda":
            lam = self.lam if self.lam is not None else 0.0
            if not lam > -1.0:
                raise ValueError(f"lambda must be > -1 for a positive metric, got {lam}")
        if self.kind == "conformal":
            if self.base is None or self.f is None:
                raise ValueError("conformal spec needs both base and f")
        if self.kind.startswith("hopf") and (self.a is not None or self.b is not None):
            self.hopf_params()  # validates |a| >= |b| > 1 eagerly

    @property
    def dim(self) -> int:
        if self.kind == "conformal":
            return self.base.dim
        if self.kind.startswith("hopf"):
            return 2
        return self.n if self.n is not None else 2

    def hopf_params(self) -> HopfParams | None:
        """HopfParams carried by this spec, searching through conformal bases."""
        if self.kind == "conformal":
            return self.base.hopf_params()
        if self.a is not None or self.b is not None:
            a = self.a if self.a is not None else E
            b = self.b if self.b is not None else E
            return HopfParams(a, b)
        if self.kind.startswith("hopf"):
            return HopfParams(E, E)
        return None

    # -- canonical text form ---------------------------------------------------

    def canonical(self) -> str:
        parts = []
        if self.a is not None:
            parts.append(f"a={_fmt_complex(self.a)}")
        if self.b is not None:
            parts.append(f"b={_fmt_complex(self.b)}")
        if self.lam is not None:
            parts.append(f"lambda={_fmt_float(self.lam)}")
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        if self.amp is not None:
            parts.append(f"amp={_fmt_float(self.amp)}")
        if self.n is not None:
            parts.append(f"n={self.n}")
        if self.base is not None:
            parts.append(f"base={self.base.canonical()}")
        if self.f is not None:
            parts.append(f"f={self.f.canonical()}")
        return self.kind if not parts else f"{self.kind}{{{','.join(parts)}}}"


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
        return float(raw)
    except ValueError:
        raise ValueError(f"field {key!r}: cannot parse {raw!r} as a real number") from None


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"field {key!r}: cannot parse {raw!r} as an integer") from None


def _spec_items(body: str | None, allowed, what: str):
    """(key, raw value) pairs of a spec body; each key must be allowed and given once."""
    seen = set()
    for item in _split_top_level(body) if body else []:
        if not item.strip():
            continue
        if "=" not in item:
            raise ValueError(f"spec item {item!r} is not key=value")
        key, raw = (s.strip() for s in item.split("=", 1))
        if key not in allowed:
            raise ValueError(f"field {key!r} is not valid for {what}")
        if key in seen:
            raise ValueError(f"field {key!r} is given more than once for {what}")
        seen.add(key)
        yield key, raw


def parse_field_spec(text: str) -> FieldSpec:
    kind, body = _split_kind_body(text)
    if kind not in _FIELD_KEYS:
        raise ValueError(f"unknown field kind {kind!r}; expected one of {tuple(_FIELD_KEYS)}")
    parse = {"seed": _parse_int, "amp": _parse_float, "scale": _parse_float}
    items = _spec_items(body, _FIELD_KEYS[kind], f"field kind {kind!r}")
    return FieldSpec(kind=kind, **{key: parse[key](key, raw) for key, raw in items})


def parse_metric_spec(text: str) -> MetricSpec:
    """Parse the `kind{key=value,...}` grammar (values may nest the same grammar)."""
    kind, body = _split_kind_body(text)
    if kind not in _METRIC_KINDS:
        raise ValueError(f"unknown metric kind {kind!r}; expected one of {_METRIC_KINDS}")
    kwargs = {}
    for key, raw in _spec_items(body, _ALLOWED_KEYS[kind], f"metric kind {kind!r}"):
        if key in ("a", "b"):
            kwargs[key] = _parse_complex(key, raw)
        elif key == "lambda":
            kwargs["lam"] = _parse_float(key, raw)
        elif key == "seed":
            kwargs["seed"] = _parse_int(key, raw)
        elif key == "amp":
            kwargs["amp"] = _parse_float(key, raw)
        elif key == "n":
            kwargs["n"] = _parse_int(key, raw)
        elif key == "base":
            kwargs["base"] = parse_metric_spec(raw)
        elif key == "f":
            kwargs["f"] = parse_field_spec(raw)
    return MetricSpec(kind=kind, **kwargs)


# -- the Hopf potential -------------------------------------------------------------


def _coordinate_jets(p: Point | tuple, n: int):
    pt = tuple(p)
    zs = [jet_var(i + 1, pt[i], n) for i in range(n)]
    zbs = [jet_conj_var(i + 1, np.conj(pt[i]), n) for i in range(n)]
    return zs, zbs


# Largest |log Φ| for which Φ is a finite, nonzero double.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _theta_root(p, hp: HopfParams) -> tuple[float, float, float]:
    """(|z|², |w|², θ) at p, with θ the root of g(θ) = |z|²e^{−c₁θ} + |w|²e^{−c₂θ} − 1
    and cᵢ = kᵢ/π.

    g is convex and strictly decreasing.  Analytic Newton starts at
    θ₀ = max log(xᵢ)/cᵢ over the nonzero terms xᵢ ∈ {|z|², |w|²}: there one
    term is 1, so g(θ₀) ≥ 0, and the iterates climb monotonically to the root
    with every term ≤ 1, so nothing overflows.  The dominant term enters g
    through expm1, which keeps the root accurate where the other term is tiny.
    Newton stops once a step is below 1e-14 relative to |θ| + 1/|g′(θ)|
    (1/|g′| is the distance over which g changes by 1).
    """
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
    if abs(hp.k * theta) > _LOG_FLOAT_MAX:
        raise ValueError("Φ is outside the floating-point range at this point")
    return zz, ww, theta


def phi_value(p, hp: HopfParams) -> float:
    """Scalar Φ(p) without jet overhead."""
    return math.exp(hp.k * _theta_root(p, hp)[2])


def phi_delta_values(p, hp: HopfParams) -> tuple[float, float]:
    """Scalar (Φ, Δ) at p without jet overhead, with Δ = αu + (2−α)v as in
    `hopf_jets` (u + v = 1, so neither term can overflow)."""
    zz, ww, theta = _theta_root(p, hp)
    u = zz * math.exp(-hp.k1 / math.pi * theta)
    v = ww * math.exp(-hp.k2 / math.pi * theta)
    return math.exp(hp.k * theta), hp.alpha * u + (2.0 - hp.alpha) * v


class HopfJets(NamedTuple):
    """Order-2 jets at one point of the coordinates and of θ, e₁ = e^{−c₁θ},
    e₂ = e^{−c₂θ}, u = |z|²e₁, v = |w|²e₂ and Δ = αu + (2−α)v."""

    z: WJet
    w: WJet
    zb: WJet
    wb: WJet
    theta: WJet
    e1: WJet
    e2: WJet
    u: WJet
    v: WJet
    delta: WJet


def hopf_jets(p, hp: HopfParams) -> HopfJets:
    """The jets every Hopf quantity is built from, at p ≠ 0, in closed form.

    θ is the root of F(x, θ) = |z|²e^{−c₁θ} + |w|²e^{−c₂θ} − 1 with
    cᵢ = kᵢ/π (F is strictly decreasing in θ, so the root is unique).  Past
    the scalar root, the implicit-function theorem gives θ's partials in the
    slots x = (z, w, z̄, w̄) directly:

        θᵢ = −Fᵢ/F_θ,   θᵢⱼ = −(Fᵢⱼ + F_{iθ}θⱼ + F_{jθ}θᵢ + F_{θθ}θᵢθⱼ)/F_θ.

    With k = (k₁+k₂)/2π, Φ = e^{kθ}; since kα = c₁ and k(2−α) = c₂, the
    factors e₁ = Φ^{−α} and e₂ = Φ^{α−2} are exponentials of the θ jet, and
    Δ = αu + (2−α)v = α|z|²Φ^{−α} + (2−α)|w|²Φ^{α−2} = −F_θ/k.
    F = u + v − 1 on the θ jet is checked to vanish through order 2.
    """
    zz, ww, theta0 = _theta_root(p, hp)
    c1, c2 = hp.k1 / math.pi, hp.k2 / math.pi
    e1, e2 = math.exp(-c1 * theta0), math.exp(-c2 * theta0)
    z0, w0 = complex(p[0]), complex(p[1])
    # Partials of F at the root, slots (z, w, z̄, w̄); F is linear in each
    # of |z|², |w|², so the only x-x partials are F_{zz̄} = e₁, F_{ww̄} = e₂.
    c = np.array([c1, c2, c1, c2])
    Fx = np.array([z0.conjugate() * e1, w0.conjugate() * e2, z0 * e1, w0 * e2])
    Fxx = np.zeros((4, 4), dtype=complex)
    Fxx[0, 2] = Fxx[2, 0] = e1
    Fxx[1, 3] = Fxx[3, 1] = e2
    u0, v0 = zz * e1, ww * e2
    Ft = -(c1 * u0 + c2 * v0)
    Ftt = c1 * c1 * u0 + c2 * c2 * v0
    Fxt = -c * Fx
    if not (math.isfinite(Ft) and Ft != 0.0):
        raise ValueError("dF/dtheta vanishes at the solution")
    tx = -Fx / Ft
    cross = np.outer(Fxt, tx)
    txx = -(Fxx + cross + cross.T + Ftt * np.outer(tx, tx)) / Ft
    theta = jet_from_partials(theta0, tx, txx)

    (z, w), (zb, wb) = _coordinate_jets(p, 2)
    e1j, e2j = exp(-c1 * theta), exp(-c2 * theta)
    u, v = z * zb * e1j, w * wb * e2j
    residual = (u + v - 1.0).max_abs()
    if residual > 1e-10 * (1.0 + theta.max_abs()):
        raise ValueError(f"implicit jet iteration failed to converge (residual {residual:.3g})")
    return HopfJets(z, w, zb, wb, theta, e1j, e2j, u, v, hp.alpha * u + (2.0 - hp.alpha) * v)


def phi_field(p, hp: HopfParams):
    """Order-2 jets of (Φ, θ, Δ) at p ≠ 0, with Φ = e^{kθ} (see `hopf_jets`)."""
    hj = hopf_jets(p, hp)
    return exp(hp.k * hj.theta), hj.theta, hj.delta


def hessian_forms(p, hp: HopfParams) -> tuple[Form11, Form11]:
    """Value matrices L of √−1∂∂̄logΦ and P of √−1∂Φ∧∂̄Φ, on scalars (Φ and Δ
    from `phi_delta_values`); no jet is built.

    Eliminating θ from the implicit relation gives, with α = 2k₁/(k₁+k₂),

        L = (1/(Φ²Δ³)) [[ (α−2)²|w|²,  α(α−2) z̄w ],
                         [ α(α−2) zw̄,   α²|z|²    ]],

    and the gradient Φ_z = z̄ Φ^{1−α}/Δ, Φ_w = w̄ Φ^{α−1}/Δ gives

        P = (1/Δ²) [[ |z|² Φ^{2−2α},  z̄w ],
                    [ zw̄,            |w|² Φ^{2α−2} ]].

    Both are rank 1 (det L = det P = 0) and positive semidefinite.
    """
    z, w = complex(p[0]), complex(p[1])
    Phi, Delta = phi_delta_values(p, hp)
    al, zbw = hp.alpha, z.conjugate() * w
    try:  # a float power raises OverflowError; numpy raises FloatingPointError here
        with np.errstate(over="raise", invalid="raise"):
            L = np.array([[(al - 2.0) ** 2 * abs(w) ** 2, al * (al - 2.0) * zbw],
                          [al * (al - 2.0) * zbw.conjugate(), al**2 * abs(z) ** 2]])
            P = np.array([[abs(z) ** 2 * Phi ** (2.0 - 2.0 * al), zbw],
                          [zbw.conjugate(), abs(w) ** 2 * Phi ** (2.0 * al - 2.0)]])
            return Form11(L * (Phi**-2.0 / Delta**3)), Form11(P / Delta**2)
    except ArithmeticError:
        raise ValueError("a power of Φ is outside the floating-point range at this point") from None


# -- metric construction ---------------------------------------------------------------


def _flat_jets(n: int) -> list[list[WJet]]:
    return [[jet_const(1.0 if i == j else 0.0, n) for j in range(n)] for i in range(n)]


def _kahler_test_jets(p, n: int) -> list[list[WJet]]:
    zs, zbs = _coordinate_jets(p, n)
    h = _flat_jets(n)
    for i in range(n):
        for j in range(n):
            h[i][j] = h[i][j] + zs[i] * zbs[j]
    return h


def _hopf_standard_jets(p) -> list[list[WJet]]:
    zs, zbs = _coordinate_jets(p, 2)
    S = zs[0] * zbs[0] + zs[1] * zbs[1]
    inv = 1.0 / S
    zero = jet_const(0.0, 2)
    return [[inv, zero], [zero, inv]]


def _delta_cubed_omega_jets(hj: HopfJets, al: float, lam: float) -> list[list[WJet]]:
    """Δ³ω_λ = Δ³((1+λ)L + P/Φ²), with L and P as in `hessian_forms`.

    Φ^{−α} = e₁, Φ^{α−2} = e₂ and Φ^{−2} = e₁e₂ make it a polynomial in the
    jets of `hopf_jets`, with no power of Φ and no division:

        [[ e₁((1+λ)(α−2)²v + Δu),      ((1+λ)α(α−2) + Δ) z̄w·e₁e₂ ],
         [ conj of the (1,2) entry,     e₂((1+λ)α²u + Δv)         ]]
    """
    s, D = 1.0 + lam, hj.delta
    h12 = (s * al * (al - 2.0) + D) * (hj.zb * hj.w * (hj.e1 * hj.e2))
    return [
        [hj.e1 * (s * (al - 2.0) ** 2 * hj.v + D * hj.u), h12],
        [conj(h12), hj.e2 * (s * al**2 * hj.u + D * hj.v)],
    ]


def random_polynomial_jets(p, n: int, seed: int, amp: float = 0.05) -> list[list[WJet]]:
    """Seeded Hermitian perturbation of the flat metric by degree-≤2 polynomials."""
    rng = np.random.default_rng(seed)
    zs, zbs = _coordinate_jets(p, n)
    h = _flat_jets(n)
    for i in range(n):
        for j in range(i, n):
            c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            q = (
                c[0] * zs[i] * zbs[j]
                + c[1] * zs[0] * zs[n - 1]
                + c[2] * zbs[0] * zbs[n - 1]
                + c[3] * zs[i]
                + c[4] * zbs[j]
                + c[5] * zs[0] * zbs[0]
            )
            if i == j:
                h[i][j] = h[i][j] + amp * (q + conj(q))
            else:
                h[i][j] = h[i][j] + amp * q
    for i in range(n):
        for j in range(i):
            h[i][j] = conj(h[j][i])
    return h


def field_jet(f: FieldSpec, p, hp: HopfParams | None, n: int = 2) -> WJet:
    """Real-valued order-2 jet of a scalar conformal factor."""
    if f.kind == "zero":
        return jet_const(0.0, n)
    if f.kind == "poly":
        rng = np.random.default_rng(f.seed)
        zs, zbs = _coordinate_jets(p, n)
        m = max(8, 2 * n + 2)  # 8 keeps the draws of n <= 3 unchanged
        c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        q = jet_const(0.0, n)
        for i in range(n):
            q = q + c[i] * zs[i] + c[n + i] * zs[i] * zbs[(i + 1) % n]
        q = q + c[2 * n] * zs[0] * zs[n - 1] + c[2 * n + 1] * zs[0] * zbs[0]
        return f.amp * (q + conj(q))
    if f.kind == "log-phi":
        if hp is None:
            raise SpecError("log-phi field needs Hopf parameters")
        return (f.scale * hp.k) * hopf_jets(p, hp).theta  # log Φ = kθ
    if f.kind == "log-delta":
        if hp is None:
            raise SpecError("log-delta field needs Hopf parameters")
        return f.scale * log(hopf_jets(p, hp).delta)
    raise ValueError(f"unknown field kind {f.kind!r}")


def conformal_scale(base: MetricJet, f: WJet) -> MetricJet:
    """Entrywise e^f · h for a real-valued scalar jet f."""
    if not is_real_valued(f):
        raise ValueError("conformal factor must be a real-valued jet")
    ef = exp(f)
    n = base.n
    return MetricJet(
        n=n,
        h=[[ef * base.h[i][j] for j in range(n)] for i in range(n)],
        point=base.point,
    )


def build_metric(spec: MetricSpec, p) -> MetricJet:
    """Realize a MetricSpec as an order-2 metric jet at the point p."""
    pt = Point(tuple(complex(c) for c in tuple(p)))
    n = spec.dim
    if len(pt.coords) != n:
        raise ValueError(f"point has {len(pt.coords)} coordinates, metric expects {n}")

    if spec.kind == "flat":
        h = _flat_jets(n)
    elif spec.kind == "kahler-test":
        h = _kahler_test_jets(pt, n)
    elif spec.kind == "hopf-standard":
        h = _hopf_standard_jets(pt)
    elif spec.kind in ("hopf-omega-lambda", "hopf-lc-flat"):
        hp = spec.hopf_params()
        hj = hopf_jets(pt, hp)
        if spec.kind == "hopf-lc-flat":
            h = _delta_cubed_omega_jets(hj, hp.alpha, -0.5)
        else:
            lam = spec.lam if spec.lam is not None else 0.0
            inv_d3 = 1.0 / (hj.delta * hj.delta * hj.delta)
            h = [[inv_d3 * x for x in row] for row in _delta_cubed_omega_jets(hj, hp.alpha, lam)]
    elif spec.kind == "conformal":
        base = build_metric(spec.base, pt)
        fj = field_jet(spec.f, pt, spec.hopf_params(), n=base.n)
        return conformal_scale(base, fj)
    elif spec.kind == "user-polynomial":
        h = random_polynomial_jets(
            pt, n, seed=spec.seed if spec.seed is not None else 0,
            amp=spec.amp if spec.amp is not None else 0.05,
        )
        vals = np.array([[h[i][j].value for j in range(n)] for i in range(n)])
        if np.linalg.eigvalsh(vals).min() <= 0:
            raise ValueError(
                f"user polynomial metric (seed={spec.seed}) is not positive definite at {tuple(pt)}"
            )
    else:  # pragma: no cover - guarded by MetricSpec validation
        raise ValueError(f"unknown metric kind {spec.kind!r}")

    return MetricJet(n=n, h=h, point=pt)


# -- deck invariance ---------------------------------------------------------------


def deck_invariance_residual(spec: MetricSpec, p, hp: HopfParams | None = None) -> float:
    """Max-entry residual of the deck-pullback equation J h(az, bw) J† = h(z, w).

    J = diag(a, b) is the Jacobian of the deck map, so the pullback of the
    metric tensor at (az, bw) has matrix J h(az,bw) J†; a metric descends to
    the quotient surface exactly when this equals h(z, w).  The max-entry
    difference is divided by 1 + max|h(z, w)|, so the residual does not grow
    with the size of the metric.  Works for any
    2-dimensional metric so that non-invariant ones (e.g. flat) can serve as
    negative controls; the deck parameters come from the MetricSpec unless
    passed explicitly.
    """
    hp = hp or spec.hopf_params()
    if hp is None:
        raise SpecError("deck test needs Hopf parameters (a, b) on the MetricSpec or passed in")
    if spec.dim != 2:
        raise SpecError("deck transformation acts on two complex coordinates")
    pt = tuple(complex(c) for c in tuple(p))
    image = (hp.a * pt[0], hp.b * pt[1])
    h_here = build_metric(spec, pt).values()
    h_image = build_metric(spec, image).values()
    J = np.diag([hp.a, hp.b])
    diff = J @ h_image @ J.conj().T - h_here
    return float(np.max(np.abs(diff)) / (1.0 + np.max(np.abs(h_here))))
