"""Seeded inputs for the benchmark workloads.

Each generator turns the harness seed into a list of check descriptions
(identity, metric spec text, point count, sampling seed, expected verdict).
The program only ever sees these generated specs and seeds.  Generators are
pure Python so that the harness can build its inputs before importing the
package.  The `suite` workload has no generator: it is the fixed grid that
`lcflat suite` itself builds.

Why each workload exists, and which layer it stresses or bypasses, is
recorded in BENCHMARK.json.
"""

from __future__ import annotations

import math
import random

E = math.e

# A batch holds at least this many checks, so that the tail percentile of
# check time (the highest one with ten checks beyond it) exists.
MIN_BATCH = 11


def _cplx(x: complex) -> str:
    return f"{x.real!r}{x.imag:+}j"


def _stratum(rng: random.Random, lo: float, hi: float, i: int, g: int) -> float:
    """Log-uniform draw from cell i of g equal cells of [lo, hi] on a log scale.

    Drawing one value per cell keeps the range covered the same way for every
    seed, so that the work in a batch varies little from seed to seed.
    """
    step = (math.log(hi) - math.log(lo)) / g
    return math.exp(math.log(lo) + (i + rng.random()) * step)


def _phase(rng: random.Random, modulus: float) -> complex:
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return complex(modulus * math.cos(phi), modulus * math.sin(phi))


def _check(rng, identity, metric, n_points, expected="pass") -> dict:
    return dict(
        identity=identity,
        metric=metric,
        n_points=n_points,
        seed=rng.randrange(2**31),
        expected=expected,
    )


def headline(seed: int, tiny: bool) -> list[dict]:
    """lc-ricci-flat on hopf-lc-flat: the suite's three (a, b) pairs twice,
    then one seeded complex pair per cell of a grid over
    1.1 <= |b| <= 10 and 1 <= |a|/|b| <= 10 (log scale)."""
    rng = random.Random(1_000_003 * seed + 11)
    (gb, gr), n_points = ((2, 3), 2) if tiny else ((6, 7), 6)
    checks = []
    for a, b in 2 * [(E, E), (E**2, E), (E**1.5, E**1.1)]:
        checks.append(_check(rng, "lc-ricci-flat", f"hopf-lc-flat{{a={a!r},b={b!r}}}", n_points))
    for i in range(gb):
        for j in range(gr):
            mb = _stratum(rng, 1.1, 10.0, i, gb)
            ma = mb * _stratum(rng, 1.0, 10.0, j, gr)
            metric = f"hopf-lc-flat{{a={_cplx(_phase(rng, ma))},b={_cplx(_phase(rng, mb))}}}"
            checks.append(_check(rng, "lc-ricci-flat", metric, n_points))
    return checks


def potential(seed: int, tiny: bool) -> list[dict]:
    """det-formula, hessian-matrices and deck-invariance on hopf-omega-lambda.

    One pair |a| >= |b| per cell of a grid over [1.01, 1e3]^2 (log scale),
    with random phases and -0.75 <= lambda <= 3.  The range is wide on
    purpose: its far end reaches known sampler and roundoff defects, and
    those stay counted.
    """
    rng = random.Random(1_000_003 * seed + 22)
    g, n_points = (3, 2) if tiny else (20, 3)
    checks = []
    for i in range(g):
        for j in range(i + 1):
            ma, mb = sorted((_stratum(rng, 1.01, 1e3, i, g), _stratum(rng, 1.01, 1e3, j, g)),
                            reverse=True)
            a, b = _phase(rng, ma), _phase(rng, mb)
            lam = rng.uniform(-0.75, 3.0)
            metric = f"hopf-omega-lambda{{a={_cplx(a)},b={_cplx(b)},lambda={lam!r}}}"
            for identity in ("det-formula", "hessian-matrices", "deck-invariance"):
                checks.append(_check(rng, identity, metric, n_points))
    return checks


def generic(seed: int, tiny: bool) -> list[dict]:
    """Geometry identities on seeded polynomial, Kähler-test and flat metrics
    at n = 2 and n = 3; kahler-collapse on the non-Kähler polynomial metric
    is a negative control.  amp = 0.03 keeps the polynomial metrics positive
    definite on the sampling box, so every point is a valid metric."""
    rng = random.Random(1_000_003 * seed + 33)
    n_units, n_points = (1, 1) if tiny else (3, 3)
    checks = []
    for _ in range(n_units):
        for n in (2, 3):
            poly = f"user-polynomial{{seed={rng.randrange(10**6)},amp=0.03,n={n}}}"
            field = f"poly{{seed={rng.randrange(10**6)},amp=0.15}}"
            checks += [
                _check(rng, "key-relation", poly, n_points),
                _check(rng, "scalar-010", poly, n_points),
                _check(rng, "scalar-key1", poly, n_points),
                _check(rng, "conformal-law", f"conformal{{base={poly},f={field}}}", n_points),
                _check(rng, "kahler-collapse", f"kahler-test{{n={n}}}", n_points),
                _check(rng, "kahler-collapse", f"flat{{n={n}}}", n_points),
                _check(rng, "kahler-collapse", poly, n_points, expected="fail"),
            ]
    return checks


GENERATORS = {"headline": headline, "potential": potential, "generic": generic}
WORKLOADS = ("headline", "potential", "generic", "suite")
