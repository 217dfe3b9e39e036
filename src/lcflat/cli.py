"""Command-line front end.

Exit codes are the machine contract: 0 all checks passed (or matched their
expected verdicts), 1 at least one identity check failed, 2 usage error
(bad flags, malformed metric spec, invalid parameter ranges).

The default seed is 0, overridable with the LCFLAT_SEED environment variable;
an explicit --seed flag wins over both.  Reports are written atomically
(temp file + rename) so a crashed run never leaves a truncated JSON behind.
An --output in a directory that does not exist is a usage error, raised
before any check runs; a write that fails ends the command with a one-line
message naming the path (exit 1).
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass

import click

from . import __version__
from . import geometry as geo
from . import metrics as mz
from . import verify as vf

E = math.e

# The registry's default pass tolerance per tag, for scripts such as perfbench/worker.py.
DEFAULT_TOLS = {tag: entry.tol for tag, entry in vf.IDENTITIES.items()}


def _default_seed() -> int:
    raw = os.environ.get("LCFLAT_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise click.UsageError(f"LCFLAT_SEED must be an integer, got {raw!r}")


@dataclass
class RunConfig:
    command: str
    metric: str | None = None
    identity: str | None = None
    n_points: int | None = None
    seed: int | None = None
    a: float | None = None
    b: float | None = None
    tol: float | None = None
    output: str | None = None
    fmt: str | None = None
    corrupt_gamma: bool = False

    def echo(self) -> dict:
        d = asdict(self)
        return {k: v for k, v in d.items() if v is not None and v is not False}


def _output_dir_exists(ctx, param, path: str | None) -> str | None:
    """--output: a usage error, before any check runs, unless the path's
    directory exists."""
    if path is not None and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise click.BadParameter(f"the directory of {path!r} does not exist")
    return path


def _write_atomic(path: str, text: str) -> None:
    """Write text to path by a temp file and a rename.  An OSError ends the
    command with a one-line message that names the path (exit 1)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".lcflat-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        click.echo(f"cannot write {path}: {exc.strerror or exc}", err=True)
        sys.exit(1)


def _emit(payload: dict, output: str | None) -> None:
    # A NaN or ±inf is no JSON: payloads write them as null (`vf.json_number`),
    # and one that slips through raises here rather than writing a bare NaN.
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if output:
        _write_atomic(output, text + "\n")
    else:
        click.echo(text)


def _parse_spec_or_usage_error(text: str) -> mz.MetricSpec:
    try:
        return mz.parse_metric_spec(text)
    except ValueError as exc:
        raise click.UsageError(f"invalid metric spec: {exc}")


@click.group(name="lcflat")
@click.version_option(version=__version__)
def main():
    """Numerical verification of Hermitian curvature identities on Hopf surfaces."""


@main.command("verify")
@click.option("--identity", required=True, type=click.Choice(tuple(vf.IDENTITIES)))
@click.option("--metric", "metric_text", required=True, help="metric spec, e.g. 'hopf-lc-flat{a=7.389,b=2.718}'")
@click.option("--points", "n_points", default=100, show_default=True, type=int)
@click.option("--seed", default=None, type=int, help="sampling seed [default: 0 or $LCFLAT_SEED]")
@click.option("--tol", default=None, type=float, help="pass tolerance [default: per identity]")
@click.option("--output", default=None, type=click.Path(dir_okay=False), callback=_output_dir_exists,
              help="write JSON report here")
@click.option("--format", "fmt", default="pretty", show_default=True, type=click.Choice(["json", "pretty"]))
@click.option("--corrupt-gamma", is_flag=True, hidden=True, help="debug: flip the mixed connection sign")
def cmd_verify(identity, metric_text, n_points, seed, tol, output, fmt, corrupt_gamma):
    """Run one identity check over a sampled point set."""
    spec = _parse_spec_or_usage_error(metric_text)
    seed = seed if seed is not None else _default_seed()
    try:
        check = vf.CheckSpec(identity=identity, metric=spec, n_points=n_points, seed=seed, tol=tol)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    tol = check.tol

    cfg = RunConfig(
        command="verify", metric=spec.canonical(), identity=identity,
        n_points=n_points, seed=seed, tol=tol, output=output, fmt=fmt,
        corrupt_gamma=corrupt_gamma,
    )
    try:
        with geo.debug_corruption() if corrupt_gamma else nullcontext():
            report = vf.run_check(check)
    except vf.CheckAborted as exc:
        click.echo(f"check aborted: {exc}", err=True)
        sys.exit(1)
    except ValueError as exc:
        raise click.UsageError(str(exc))

    payload = {"run_config": cfg.echo(), **report.to_dict()}
    if fmt == "json" or output:
        _emit(payload, output)
    if fmt == "pretty":
        click.echo(f"identity     : {identity}")
        click.echo(f"metric       : {spec.canonical()}")
        click.echo(f"points       : {len(report.per_point)} (seed {seed})")
        click.echo(f"max residual : {report.max_residual:.6e}")
        click.echo(f"mean residual: {report.mean_residual:.6e}")
        click.echo(f"tolerance    : {tol:.1e}")
        if report.warning:
            click.echo(f"warning      : {report.warning}")
        click.echo(f"verdict      : {report.verdict.upper()}")
    sys.exit(0 if report.verdict == "pass" else 1)


def _suite_cells() -> list[dict]:
    """The acceptance grid: every identity on its natural metric classes,
    plus negative controls that are expected to fail."""
    a2, a15, b11 = E**2, E**1.5, E**1.1
    hopf_pairs = [(E, E), (a2, E), (a15, b11)]
    cells: list[dict] = []

    for a, b in hopf_pairs:
        cells.append(dict(identity="lc-ricci-flat", metric=f"hopf-lc-flat{{a={a!r},b={b!r}}}",
                          n_points=40, expected="pass"))
    for lam in (-0.5, 0.0, 1.0):
        cells.append(dict(identity="det-formula",
                          metric=f"hopf-omega-lambda{{a={a2!r},b={E!r},lambda={lam!r}}}",
                          n_points=25, expected="pass"))
        cells.append(dict(identity="tw-formula",
                          metric=f"hopf-omega-lambda{{a={a2!r},b={E!r},lambda={lam!r}}}",
                          n_points=25, expected="pass"))
    cells += [
        dict(identity="key-relation", metric=f"hopf-lc-flat{{a={a2!r},b={E!r}}}",
             n_points=20, expected="pass"),
        dict(identity="key-relation", metric=f"hopf-standard{{a={E!r},b={E!r}}}",
             n_points=20, expected="pass"),
        dict(identity="key-relation", metric="user-polynomial{seed=101,amp=0.05}",
             n_points=20, expected="pass"),
        dict(identity="key-relation", metric="user-polynomial{seed=102,amp=0.05}",
             n_points=20, expected="pass"),
        dict(identity="conformal-law",
             metric="conformal{base=user-polynomial{seed=7,amp=0.04},f=poly{seed=8,amp=0.15}}",
             n_points=15, expected="pass"),
        dict(identity="conformal-law",
             metric=f"conformal{{base=hopf-omega-lambda{{a={a2!r},b={E!r},lambda=-0.5}},"
                    f"f=log-delta{{scale=3.0}}}}",
             n_points=15, expected="pass"),
        dict(identity="scalar-010", metric=f"hopf-standard{{a={E!r},b={E!r}}}",
             n_points=15, expected="pass"),
        dict(identity="scalar-010", metric=f"hopf-omega-lambda{{a={a2!r},b={E!r},lambda=0.0}}",
             n_points=15, expected="pass"),
        dict(identity="scalar-010", metric="user-polynomial{seed=103,amp=0.05}",
             n_points=15, expected="pass"),
        dict(identity="scalar-key1", metric=f"hopf-standard{{a={E!r},b={E!r}}}",
             n_points=15, expected="pass"),
        dict(identity="scalar-key1", metric=f"hopf-omega-lambda{{a={a15!r},b={b11!r},lambda=1.0}}",
             n_points=15, expected="pass"),
        dict(identity="scalar-key1", metric="user-polynomial{seed=104,amp=0.05}",
             n_points=15, expected="pass"),
        dict(identity="deck-invariance", metric=f"hopf-standard{{a={E!r},b={E!r}}}",
             n_points=15, expected="pass"),
        dict(identity="deck-invariance", metric=f"hopf-omega-lambda{{a={a2!r},b={E!r},lambda=0.0}}",
             n_points=15, expected="pass"),
        dict(identity="deck-invariance", metric=f"hopf-lc-flat{{a={a2!r},b={E!r}}}",
             n_points=15, expected="pass"),
        dict(identity="deck-invariance", metric=f"hopf-lc-flat{{a={a15!r},b={b11!r}}}",
             n_points=15, expected="pass"),
        dict(identity="deck-invariance",
             metric=f"conformal{{base=hopf-omega-lambda{{a={a2!r},b={E!r},lambda=-0.5}},"
                    f"f=log-delta{{scale=3.0}}}}",
             n_points=15, expected="pass"),
        dict(identity="hessian-matrices", metric=f"hopf-lc-flat{{a={a2!r},b={E!r}}}",
             n_points=15, expected="pass"),
        dict(identity="hessian-matrices", metric=f"hopf-lc-flat{{a={a15!r},b={b11!r}}}",
             n_points=15, expected="pass"),
        dict(identity="kahler-collapse", metric="flat", n_points=10, expected="pass"),
        dict(identity="kahler-collapse", metric="kahler-test", n_points=10, expected="pass"),
        # negative controls: these must FAIL, and the suite passes only if they do
        dict(identity="lc-ricci-flat", metric=f"hopf-omega-lambda{{a={a2!r},b={E!r},lambda=0.0}}",
             n_points=10, expected="fail"),
        dict(identity="deck-invariance", metric=f"flat{{a={E!r},b={E!r}}}",
             n_points=10, expected="fail"),
        dict(identity="kahler-collapse", metric=f"hopf-standard{{a={E!r},b={E!r}}}",
             n_points=10, expected="fail"),
    ]
    return cells


SUITE_SEEDS = (1, 2, 3)


@main.command("suite")
@click.option("--output", default=None, type=click.Path(dir_okay=False), callback=_output_dir_exists,
              help="write aggregate JSON here")
@click.option("--corrupt-gamma", is_flag=True, help="debug: flip the mixed connection sign (mutation test)")
def cmd_suite(output, corrupt_gamma):
    """Run the full identity grid at seeds 1, 2, 3; exit 0 iff every cell
    matches its expected verdict (negative controls must fail)."""
    t0 = time.perf_counter()
    cfg = RunConfig(command="suite", output=output, corrupt_gamma=corrupt_gamma)
    rows = []
    ok = True
    # One run draws each distinct sample and solves each θ root once; every
    # row equals its check run alone, bit for bit.
    with geo.debug_corruption() if corrupt_gamma else nullcontext(), vf.shared_scope():
        for cell in _suite_cells():
            spec = _parse_spec_or_usage_error(cell["metric"])
            for seed in SUITE_SEEDS:
                check = vf.CheckSpec(
                    identity=cell["identity"], metric=spec, n_points=cell["n_points"], seed=seed,
                )
                row = {
                    "identity": cell["identity"],
                    "metric": spec.canonical(),
                    "n_points": cell["n_points"],
                    "seed": seed,
                    "tol": check.tol,
                    "expected": cell["expected"],
                }
                try:
                    report = vf.run_check(check)
                except vf.CheckAborted as exc:
                    row.update(verdict="aborted", error=str(exc))
                else:
                    row.update(
                        verdict=report.verdict,
                        max_residual=vf.json_number(report.max_residual),
                        mean_residual=vf.json_number(report.mean_residual),
                        warning=report.warning,
                        notes=report.json_notes(),
                    )
                row["ok"] = row["verdict"] == cell["expected"]
                ok = ok and row["ok"]
                rows.append(row)

    payload = {
        "schema_version": vf.SCHEMA_VERSION,
        "engine_version": __version__,
        "run_config": cfg.echo(),
        "seeds": list(SUITE_SEEDS),
        "cells": rows,
        "ok": ok,
        "wall_time": time.perf_counter() - t0,
    }
    _emit(payload, output)
    n_bad = sum(1 for r in rows if not r["ok"])
    click.echo(
        f"suite: {len(rows) - n_bad}/{len(rows)} cells as expected -> {'OK' if ok else 'FAIL'}",
        err=True,
    )
    sys.exit(0 if ok else 1)


@main.command("sweep")
@click.option("--a-grid", required=True, help="comma-separated |a| values (each > 1)")
@click.option("--b-grid", required=True, help="comma-separated |b| values (each > 1)")
@click.option("--points", "n_points", default=30, show_default=True, type=int)
@click.option("--seed", default=None, type=int)
@click.option("--tol", default=vf.IDENTITIES["lc-ricci-flat"].tol, show_default=True, type=float)
@click.option("--output", default=None, type=click.Path(dir_okay=False), callback=_output_dir_exists,
              help="write CSV here")
def cmd_sweep(a_grid, b_grid, n_points, seed, tol, output):
    """Max Ricci-form residual of the flattened metric per (a, b) grid cell.

    Cells with |b| > |a| are skipped (the family assumes |a| ≥ |b| > 1);
    the CSV gets one row per admissible cell.  A cell whose check aborts
    gets the verdict `aborted` and a NaN residual, and fails the sweep.
    """
    seed = seed if seed is not None else _default_seed()

    def parse_grid(name, text):
        try:
            vals = [float(x) for x in text.split(",") if x.strip()]
        except ValueError:
            raise click.UsageError(f"{name} must be comma-separated numbers, got {text!r}")
        if not vals:
            raise click.UsageError(f"{name} is empty")
        for v in vals:
            if not math.isfinite(v):
                raise click.UsageError(f"{name} values must be finite numbers, got {v!r}")
        if any(v <= 1.0 for v in vals):
            raise click.UsageError(f"{name} values must all exceed 1 (deck multipliers), got {text!r}")
        return vals

    avals = parse_grid("--a-grid", a_grid)
    bvals = parse_grid("--b-grid", b_grid)
    cells = [(a, b) for a in avals for b in bvals if a >= b]
    if not cells:
        raise click.UsageError("no admissible grid cells (need a >= b in every used cell)")
    try:
        checks = [
            vf.CheckSpec(
                identity="lc-ricci-flat", metric=mz.MetricSpec(kind="hopf-lc-flat", a=a, b=b),
                n_points=n_points, seed=seed, tol=tol,
            )
            for a, b in cells
        ]
    except ValueError as exc:
        raise click.UsageError(str(exc))

    lines = ["a,b,alpha,lambda,identity,max_residual,verdict"]
    worst = 0.0
    aborted = 0
    all_pass = True
    for (a, b), check in zip(cells, checks):
        try:
            report = vf.run_check(check)
        except vf.CheckAborted as exc:
            click.echo(f"cell a={a!r}, b={b!r}: check aborted: {exc}", err=True)
            aborted += 1
            max_residual, verdict = math.nan, "aborted"
        else:
            max_residual, verdict = report.max_residual, report.verdict
            # The first non-finite max is the worst, as in run_check; max()
            # would skip a NaN.
            if math.isfinite(worst) and not max_residual <= worst:
                worst = max_residual
        all_pass = all_pass and verdict == "pass"
        lines.append(
            f"{a!r},{b!r},{check.metric.hopf_params().alpha!r},-0.5,lc-ricci-flat,"
            f"{max_residual:.6e},{verdict}"
        )
    text = "\n".join(lines) + "\n"
    if output:
        _write_atomic(output, text)
    else:
        click.echo(text, nl=False)
    click.echo(
        f"sweep: {len(cells)} cells, {aborted} aborted, worst residual {worst:.3e}", err=True
    )
    sys.exit(0 if all_pass else 1)


@main.command("dump-samples")
@click.option("--domain", default="box", show_default=True, type=click.Choice(["box", "hopf-fundamental"]))
@click.option("-n", "--n", "n_points", default=10, show_default=True, type=int)
@click.option("--seed", default=None, type=int)
@click.option("--a", "a_val", default=None, type=float, help="deck |a| (hopf-fundamental)")
@click.option("--b", "b_val", default=None, type=float, help="deck |b| (hopf-fundamental)")
@click.option("--output", default=None, type=click.Path(dir_okay=False), callback=_output_dir_exists)
def cmd_dump_samples(domain, n_points, seed, a_val, b_val, output):
    """Print the deterministic point sample a check with these settings would use."""
    seed = seed if seed is not None else _default_seed()
    hp = None
    if domain == "hopf-fundamental":
        try:
            hp = mz.HopfParams(a_val if a_val is not None else E, b_val if b_val is not None else E)
        except ValueError as exc:
            raise click.UsageError(str(exc))
    try:
        pts = vf.sample_points(domain, n_points, seed, hp=hp)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    except MemoryError:
        click.echo(f"drawing {n_points} sample points ran out of memory", err=True)
        sys.exit(1)
    payload = {
        # everything the points depend on: the domain (below), n, the seed and a, b
        "run_config": RunConfig(command="dump-samples", n_points=n_points, seed=seed,
                                a=None if hp is None else hp.a,
                                b=None if hp is None else hp.b).echo(),
        "domain": domain,
        "points": [[[c.real, c.imag] for c in p] for p in pts],
    }
    _emit(payload, output)


if __name__ == "__main__":
    main()
