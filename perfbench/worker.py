"""One workload in one fresh process: set up, then measure or trace.

    python3 perfbench/worker.py --workload W --seed S --seconds T \
        --mode {setup,measure,trace} --out-dir DIR [--tiny]

The worker imports lcflat from src/ of the checkout it sits in, builds the
workload's checks and fills the jet tables, and prints "ready".  `setup`
stops there.  `measure` repeats the workload untraced until T seconds have
passed, with the reference probe of speedprobe.py run around every check.  `trace` alternates traced and untraced passes (at least two traced
and one untraced).  Results go to DIR/result-<workload>-<seed>-<mode>.json,
spans of a traced run to DIR/trace-<workload>-<seed>.json.

A pass is correct when every verdict is reproducible, no check reports PASS
on a residual set that is empty, non-finite or above tolerance, no negative
control passes, and (for the suite) the CLI's own row verdicts and exit
code agree with the harness.  A check whose outcome differs from the
expected verdict is counted as failed; that includes aborts and exceptions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
from contextlib import contextmanager, redirect_stderr
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracer as tr
from speedprobe import REF_PROBE_S, probe
from workloads import GENERATORS, MIN_BATCH, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
EPS = 2.0**-52  # residuals below machine epsilon count as epsilon


def import_package() -> dict:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lcflat
    from lcflat import cli, geometry, metrics, verify, wjet

    if Path(lcflat.__file__).resolve().parent != (src / "lcflat").resolve():
        raise SystemExit(f"lcflat imported from {lcflat.__file__}, not from {src}")
    return dict(wjet=wjet, metrics=metrics, geometry=geometry, verify=verify, cli=cli)


@dataclass
class Record:
    key: tuple  # (identity, canonical metric, seed, n_points)
    time_s: float
    outcome: str  # pass | fail | aborted | error
    max_residual: float | None = None
    residuals: tuple = ()
    error: str | None = None
    bad_pass: str | None = None
    probes: tuple = ()  # reference probe times just before and after the check

    @property
    def points_ok(self) -> int:
        return len(self.residuals)


def _key(c) -> tuple:
    return (c.identity, c.metric.canonical(), c.seed, c.n_points)


def _pass_defect(report, tol) -> str | None:
    """Why a PASS report cannot be trusted, or None."""
    res = [r for _, r in report.per_point]
    if not res:
        return "PASS with no evaluated point"
    if not all(math.isfinite(r) for r in res):
        return "PASS with a non-finite residual"
    if max(res) > tol or report.max_residual != max(res):
        return f"PASS with max residual {max(res):.3g} against tolerance {tol:.3g}"
    return None


@contextmanager
def recording(verify, records: list, tracer: tr.Tracer | None, probe=None):
    """Time every run_check call and record its outcome.

    With `probe`, the machine's speed is probed just before and just after
    each check, outside the check's own time.

    An exception other than CheckAborted is recorded with its type and
    message, then re-raised as CheckAborted so that the suite command goes on
    to its next cell instead of crashing.
    """
    inner = verify.run_check
    aborted = verify.CheckAborted

    def run_check(c):
        if tracer is not None:
            tracer.check_id = len(records)
        before = probe() if probe else None
        rec = None
        t0 = perf_counter()
        try:
            report = inner(c)
        except aborted as exc:
            rec = Record(_key(c), perf_counter() - t0, "aborted", error=f"CheckAborted: {exc}")
            raise
        except Exception as exc:
            msg = f"{type(exc).__name__}: {exc}"
            rec = Record(_key(c), perf_counter() - t0, "error", error=msg)
            raise aborted(msg) from exc
        else:
            dt = perf_counter() - t0
            rec = Record(
                _key(c), dt, report.verdict, max_residual=report.max_residual,
                residuals=tuple(r for _, r in report.per_point),
                bad_pass=_pass_defect(report, c.tol) if report.verdict == "pass" else None,
            )
            return report
        finally:
            if rec is not None:
                if probe:
                    rec.probes = (before, probe())
                records.append(rec)

    verify.run_check = run_check
    try:
        yield
    finally:
        verify.run_check = inner


class Workload:
    """The checks of one workload, built once (this is the timed set-up)."""

    def __init__(self, mods: dict, name: str, seed: int, tiny: bool, out_dir: Path):
        self.mods, self.name, self.tiny = mods, name, tiny
        cli, verify, metrics = mods["cli"], mods["verify"], mods["metrics"]
        if name == "suite":
            cells = cli._suite_cells()
            seeds = cli.SUITE_SEEDS
            if tiny:
                cells = [dict(cell, n_points=2) for cell in cells]
                seeds = seeds[:1]
            self.tiny_grid = (cells, seeds)
            specs = [dict(cell, seed=s) for cell in cells for s in seeds]
            self.suite_out = out_dir / f"suite-{os.getpid()}.json"
        else:
            specs = GENERATORS[name](seed, tiny)
        self.checks = [
            verify.CheckSpec(
                identity=s["identity"], metric=metrics.parse_metric_spec(s["metric"]),
                n_points=s["n_points"], seed=s["seed"],
                tol=cli.DEFAULT_TOLS.get(s["identity"], 1e-8),
            )
            for s in specs
        ]
        self.expected = [s["expected"] for s in specs]
        if len(self.checks) < MIN_BATCH:
            raise SystemExit(f"{name}: {len(self.checks)} checks, need at least {MIN_BATCH}")
        self.points = sum(c.n_points for c in self.checks)
        self._warm_jet_tables({c.metric.dim for c in self.checks})

    def _warm_jet_tables(self, dims) -> None:
        """Fill the wjet lru_cache tables so that their cost lands in set-up."""
        w = self.mods["wjet"]
        for n in dims:
            x = w.jet_var(1, 0.5 + 0.25j, n) * w.jet_conj_var(1, 0.5 - 0.25j, n)
            w.conj(x / (x + 1.0))
            for i in range(1, n + 1):
                w.d_dz(x, i), w.d_dzbar(x, i)

    def run_pass(self, tracer: tr.Tracer | None = None, probe=None) -> dict:
        verify = self.mods["verify"]
        records: list[Record] = []
        problems: list[str] = []
        with recording(verify, records, tracer, probe):
            t0 = perf_counter()
            if self.name == "suite":
                problems += self._run_suite(records, tracer)
            else:
                for c in self.checks:
                    try:
                        verify.run_check(c)
                    except verify.CheckAborted:
                        pass
            wall = perf_counter() - t0
        return self._summarise(records, wall, problems)

    def _run_suite(self, records: list, tracer) -> list[str]:
        """Run the `lcflat suite` command itself and check its rows."""
        cli = self.mods["cli"]
        saved = cli._suite_cells, cli.SUITE_SEEDS
        if self.tiny:
            cells, seeds = self.tiny_grid
            cli._suite_cells, cli.SUITE_SEEDS = (lambda: cells), seeds
        span = tracer.open("cli.suite") if tracer is not None else None
        code = None
        try:
            with open(os.devnull, "w") as devnull, redirect_stderr(devnull):
                cli.main.main(["suite", "--output", str(self.suite_out)],
                              prog_name="lcflat", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
        finally:
            if span is not None:
                tracer.close(span)
            cli._suite_cells, cli.SUITE_SEEDS = saved
        payload = json.loads(self.suite_out.read_text())
        self.suite_out.unlink()
        problems = []
        rows = payload["cells"]
        if len(rows) != len(records):
            return [f"suite wrote {len(rows)} rows for {len(records)} checks"]
        for row, rec, want in zip(rows, records, self.expected):
            shown = "aborted" if rec.outcome == "error" else rec.outcome
            if row["verdict"] != shown or row["expected"] != want or row["ok"] != (rec.outcome == want):
                problems.append(f"suite row disagrees with the harness: {row['identity']} "
                                f"{row['metric']} seed {row['seed']}")
        all_ok = all(r.outcome == w for r, w in zip(records, self.expected))
        if payload["ok"] != all_ok or (code == 0) != all_ok:
            problems.append(f"suite reported ok={payload['ok']} exit={code}, harness ok={all_ok}")
        return problems

    def _summarise(self, records: list, wall: float, problems: list) -> dict:
        if len(records) != len(self.checks):
            problems.append(f"{len(records)} checks ran, {len(self.checks)} expected")
        ok = 0
        digits = []
        for rec, c, want in zip(records, self.checks, self.expected):
            if rec.key != _key(c):
                problems.append(f"check {rec.key} ran where {_key(c)} was expected")
            ok += rec.outcome == want
            if rec.outcome == "pass" and want == "fail":
                problems.append(f"negative control passed: {rec.key[0]} on {rec.key[1]}")
            if rec.bad_pass:
                problems.append(f"{rec.bad_pass}: {rec.key[0]} on {rec.key[1]}")
            if want == "pass" and rec.outcome == "pass":
                digits.append(-math.log10(max(rec.max_residual, EPS)))
        return dict(
            wall_s=wall,
            check_s=[r.time_s for r in records],
            probe_s=[sum(r.probes) / 2 for r in records if r.probes],
            probe_spent_s=sum(sum(r.probes) for r in records),
            ok=ok,
            points_ok=sum(r.points_ok for r in records),
            accuracy_digits=min(digits, default=0.0),
            signature=[(r.key, r.outcome, r.residuals, r.error) for r in records],
            problems=problems,
            records=records,
        )


def tail(times: list[float]) -> float:
    """The highest percentile of `times` with ten values beyond it."""
    return sorted(times)[len(times) - 11]


def scaled_times(passes: list[dict]) -> tuple[list[float], float]:
    """Check times scaled to the reference machine (see speedprobe.py).

    Returns, per check, the median over passes of its scaled time, and the
    median scaled time a pass spends outside run_check (the harness loop;
    for the suite, the CLI's row assembly and JSON emit), probes excluded.
    """
    def scale(p):
        return [t * REF_PROBE_S / s for t, s in zip(p["check_s"], p["probe_s"])]

    checks = [statistics.median(ts) for ts in zip(*map(scale, passes))]
    outside = statistics.median(
        (p["wall_s"] - sum(p["check_s"]) - p["probe_spent_s"])
        * REF_PROBE_S / statistics.median(p["probe_s"])
        for p in passes)
    return checks, max(outside, 0.0)


def end_to_end(wl: Workload, passes: list[dict]) -> dict:
    """End-to-end metrics of untraced passes (set-up time is added by run.py)."""
    first = passes[0]
    checks, outside = scaled_times(passes)
    wall = sum(checks) + outside
    return dict(
        wall_s=wall,
        points_per_s=first["points_ok"] / wall,
        check_ms_p50=1e3 * statistics.median(checks),
        check_ms_tail=1e3 * tail(checks),
        accuracy_digits=first["accuracy_digits"],
        ok_frac=first["ok"] / len(wl.checks),
        points_ok_frac=first["points_ok"] / wl.points,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )


def per_layer(wl: Workload, traced: list[tuple[dict, tr.Tracer]], untraced: list[dict]) -> dict:
    """Per-layer metrics: times per pass (median over traced passes) and exact
    counts per call or per point attempted."""
    times = [t.layer_times() for _, t in traced]
    counts = traced[0][1].call_counts()
    pts = wl.points

    def med(name, field):
        return statistics.median(lt.get(name, {}).get(field, 0.0) for lt in times)

    def ratio(num, den):
        return counts.get(num, 0) / den if den else 0.0

    def cli_overhead(lt):
        if "cli.suite" not in lt:
            return 0.0
        return lt["cli.suite"]["total_s"] - lt["verify.run_check"]["total_s"]

    return {
        "wjet.implicit_solve.self_s": med("wjet.implicit_solve", "self_s"),
        "wjet.implicit_solve.F_evals_per_call": ratio(
            "wjet.implicit_solve.evals", counts.get("wjet.implicit_solve", 0)),
        "wjet.solve_scalar_root.self_s": med("wjet.solve_scalar_root", "self_s"),
        "wjet.solve_scalar_root.f_evals_per_call": ratio(
            "wjet.solve_scalar_root.evals", counts.get("wjet.solve_scalar_root", 0)),
        "verify.sample_points.total_s": med("verify.sample_points", "total_s"),
        "verify.sample_points.phi_value_calls_per_point": ratio("verify.sample_points.phi_value", pts),
        "metrics.phi_field.total_s": med("metrics.phi_field", "total_s"),
        "metrics.phi_field.calls_per_point": ratio("metrics.phi_field", pts),
        "metrics.build_metric.self_s": med("metrics.build_metric", "self_s"),
        "metrics.build_metric.calls_per_point": ratio("metrics.build_metric", pts),
        "geometry.christoffels.self_s": med("geometry.christoffels", "self_s"),
        "geometry.christoffels.calls_per_point": ratio("geometry.christoffels", pts),
        "geometry.chern_ricci.self_s": med("geometry.chern_ricci", "self_s"),
        "geometry.chern_ricci.calls_per_point": ratio("geometry.chern_ricci", pts),
        "geometry.lc_curvature.self_s": med("geometry.lc_curvature", "self_s"),
        "geometry.d_del_star_parts.self_s": med("geometry.d_del_star_parts", "self_s"),
        "geometry.torsion.self_s": med("geometry.torsion", "self_s"),
        "geometry.scalars.self_s": med("geometry.scalars", "self_s"),
        "geometry.riemannian_scalar.self_s": med("geometry.riemannian_scalar", "self_s"),
        "wjet.mul.calls_per_point": ratio("wjet.mul", pts),
        "wjet.div.calls_per_point": ratio("wjet.div", pts),
        "wjet.WJet.allocs_per_point": ratio("wjet.WJet", pts),
        "verify.run_check.self_s": med("verify.run_check", "self_s"),
        "cli.suite.overhead_s": statistics.median(cli_overhead(lt) for lt in times),
        "trace.overhead_frac": statistics.median(p["wall_s"] for p, _ in traced)
        / statistics.median(p["wall_s"] for p in untraced) - 1.0,
    }


def check_repeats(passes: list[dict], traced: list[tuple[dict, tr.Tracer]]) -> list[str]:
    problems = []
    for i, p in enumerate(passes[1:], start=1):
        if p["signature"] != passes[0]["signature"]:
            problems.append(f"pass {i} gave other verdicts or residuals than pass 0")
    counts = [t.call_counts() for _, t in traced]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("two traced passes gave different call counts")
    return problems


def write_spans(path: Path, traced: list[tuple[dict, tr.Tracer]]) -> None:
    names: dict[str, int] = {}
    out = []
    for _, t in traced:
        t0 = t.spans[0][1] if t.spans else 0
        spans = [[names.setdefault(n, len(names)), s - t0, e - t0, parent, check]
                 for n, s, e, parent, check in t.spans]
        out.append({"counts": t.call_counts(), "spans": spans})
    fields = ["name", "start_ns", "end_ns", "parent", "check_id"]
    path.write_text(json.dumps({"names": list(names), "fields": fields, "passes": out}))


def environment() -> dict:
    import numpy

    return dict(
        python=platform.python_version(),
        numpy=numpy.__version__,
        nproc=len(os.sched_getaffinity(0)),
        threads={k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    )


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--out-dir", type=Path, required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    mods = import_package()
    wl = Workload(mods, args.workload, args.seed, args.tiny, args.out_dir)
    print("ready", flush=True)
    if args.mode == "setup":
        return

    if args.mode == "measure":
        for _ in range(20):  # the probe's first calls are slow
            probe()
    passes: list[dict] = []
    traced: list[tuple[dict, tr.Tracer]] = []
    untraced: list[dict] = []
    t_start = perf_counter()

    def more() -> bool:
        """Another pass if it should end within the budget (the first always runs)."""
        if args.mode == "trace" and (len(traced) < 2 or not untraced):
            return True
        if not passes:
            return True
        typical = statistics.median(p["wall_s"] for p in passes)
        return perf_counter() - t_start + typical <= args.seconds

    while more():
        if args.mode == "trace" and len(passes) % 2 == 0:
            t = tr.Tracer()
            with tr.instrument(t, mods):
                p = wl.run_pass(t)
            traced.append((p, t))
        else:
            p = wl.run_pass(probe=probe if args.mode == "measure" else None)
            untraced.append(p)
        passes.append(p)

    problems = [f"pass {i}: {msg}" for i, p in enumerate(passes) for msg in p["problems"]]
    problems += check_repeats(passes, traced)
    first = passes[0]
    result = dict(
        workload=args.workload, seed=args.seed, mode=args.mode, tiny=args.tiny,
        env=environment(),
        passes=len(passes),
        pass_wall_s=[p["wall_s"] for p in passes],
        pass_probe_s=[p["probe_s"] for p in passes],
        attempted=len(wl.checks),
        failed=len(wl.checks) - first["ok"],
        tail=dict(percentile=100.0 * (len(wl.checks) - 10) / len(wl.checks),
                  checks_per_pass=len(wl.checks)),
        failed_frac=1.0 - first["ok"] / len(wl.checks),
        points_failed_frac=1.0 - first["points_ok"] / wl.points,
        problems=problems,
        checks=[dict(identity=r.key[0], metric=r.key[1], seed=r.key[2], n_points=r.key[3],
                     expected=want, outcome=r.outcome, max_residual=r.max_residual,
                     points_ok=r.points_ok, time_s=r.time_s, error=r.error)
                for r, want in zip(first["records"], wl.expected)],
    )
    if args.mode == "measure":
        result["metrics"] = end_to_end(wl, passes)
    else:
        result["metrics"] = per_layer(wl, traced, untraced)
        write_spans(args.out_dir / f"trace-{args.workload}-{args.seed}.json", traced)
    path = args.out_dir / f"result-{args.workload}-{args.seed}-{args.mode}.json"
    path.write_text(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
