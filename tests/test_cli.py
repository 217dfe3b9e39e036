"""End-to-end tests of the command-line interface via click's test runner."""

import inspect
import json
import math
import os
import re
import subprocess
import sys
import types
from contextlib import nullcontext
from dataclasses import replace
from importlib.resources import files
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import count_prefixes, plant_batch_broadcast_error
from lcflat import geometry as geo
from lcflat import metrics as mz
from lcflat import verify as vf
from lcflat.cli import SUITE_SEEDS, _suite_cells, cmd_verify, main

E = math.e
LC_FLAT = "hopf-lc-flat{a=7.38905609893065,b=2.718281828459045}"


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kw):
    return runner.invoke(main, args, catch_exceptions=False, **kw)


class TestVerify:
    def test_pass_exit_zero(self, runner):
        res = invoke(runner, [
            "verify", "--identity", "lc-ricci-flat", "--metric", LC_FLAT,
            "--points", "15",
        ])
        assert res.exit_code == 0
        assert "PASS" in res.output

    def test_fail_exit_one(self, runner):
        res = invoke(runner, [
            "verify", "--identity", "lc-ricci-flat",
            "--metric", "hopf-omega-lambda{a=7.389,b=2.718,lambda=0.0}",
            "--points", "8",
        ])
        assert res.exit_code == 1
        assert "FAIL" in res.output

    def test_json_report_is_schema_valid(self, runner, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        from importlib.resources import files

        out = tmp_path / "report.json"
        res = invoke(runner, [
            "verify", "--identity", "det-formula",
            "--metric", "hopf-omega-lambda{a=7.389,b=2.718,lambda=1.0}",
            "--points", "10", "--output", str(out), "--format", "json",
        ])
        assert res.exit_code == 0
        payload = json.loads(out.read_text())
        schema = json.loads(files("lcflat").joinpath("report_schema.json").read_text())
        report = {k: v for k, v in payload.items() if k != "run_config"}
        jsonschema.validate(report, schema)
        assert payload["run_config"]["identity"] == "det-formula"
        assert payload["check"]["tol"] == 1e-10  # identity-specific default

    def test_bad_metric_spec_exit_two(self, runner):
        res = invoke(runner, [
            "verify", "--identity", "lc-ricci-flat",
            "--metric", "hopf-lc-flat{a=2.0,bee=3.0}", "--points", "5",
        ])
        assert res.exit_code == 2
        assert "bee" in res.stderr

    @pytest.mark.parametrize("metric, message", [
        ("flat{n=0}", "expected an integer >= 1"),
        ("flat{n=9}", "expected an integer <= 8"),
        ("flat{n=5000000}", "expected an integer <= 8"),
        ("user-polynomial{amp=inf}", "expected a finite number"),
    ])
    def test_spec_the_engine_cannot_run_exit_two(self, runner, metric, message):
        res = invoke(runner, [
            "verify", "--identity", "key-relation", "--metric", metric, "--points", "3",
        ])
        assert res.exit_code == 2
        assert message in res.stderr

    @pytest.mark.parametrize("tol", ["inf", "nan", "-inf"])
    @pytest.mark.parametrize("fmt", ["pretty", "json"])
    def test_non_finite_tol_is_a_usage_error_that_names_it(self, runner, tol, fmt):
        """A non-finite tolerance would pass every finite residual (inf) or
        none (nan), and `inf` is no JSON token: exit 2 before any check."""
        res = invoke(runner, [
            "verify", "--identity", "scalar-010", "--metric", "user-polynomial{n=3}",
            "--points", "2", "--tol", tol, "--format", fmt,
        ])
        assert res.exit_code == 2
        assert f"tol must be finite and > 0, got {tol}" in res.stderr
        assert "PASS" not in res.output and "Infinity" not in res.output

    def test_identity_metric_mismatch_exit_two(self, runner):
        res = invoke(runner, [
            "verify", "--identity", "det-formula", "--metric", "flat",
            "--points", "5",
        ])
        assert res.exit_code == 2
        assert "hopf-omega-lambda" in res.stderr

    def test_deck_invariance_on_three_dimensional_metric_exit_two(self, runner):
        res = invoke(runner, [
            "verify", "--identity", "deck-invariance", "--metric", "flat{n=3,a=2.718,b=2.718}",
            "--points", "5",
        ])
        assert res.exit_code == 2
        assert "two complex coordinates" in res.stderr

    def test_unknown_identity_rejected_by_choice(self, runner):
        res = invoke(runner, [
            "verify", "--identity", "nonsense", "--metric", "flat",
        ])
        assert res.exit_code == 2

    def test_equal_large_multipliers_pass(self, runner):
        # Φ reaches 1e6 on this shell, where an absolute root tolerance of
        # 1e-12 cannot be met in doubles; a valid spec is no usage error.
        res = runner.invoke(main, [
            "verify", "--identity", "lc-ricci-flat",
            "--metric", "hopf-lc-flat{a=1000,b=1000}", "--seed", "0",
        ])
        assert res.exit_code == 0, res.output
        assert "PASS" in res.output

    def test_alpha_near_two_passes_without_traceback(self, runner):
        # α = 2k₁/(k₁+k₂) ≈ 2 − 1.4e-5: Φ^{α−2} is nearly flat, and a solver
        # that probes far from the root overflows math.exp.
        res = runner.invoke(main, [
            "verify", "--identity", "lc-ricci-flat",
            "--metric", "hopf-lc-flat{a=1e6,b=1.0001}", "--seed", "0",
        ])
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.exit_code == 0, res.output
        assert "Traceback" not in res.output

    def test_seed_changes_sample_but_not_verdict(self, runner):
        outs = []
        for seed in ("3", "4"):
            res = invoke(runner, [
                "verify", "--identity", "lc-ricci-flat", "--metric", LC_FLAT,
                "--points", "10", "--seed", seed, "--format", "json",
            ])
            assert res.exit_code == 0
            outs.append(json.loads(res.output))
        assert outs[0]["per_point"] != outs[1]["per_point"]
        assert outs[0]["verdict"] == outs[1]["verdict"] == "pass"

    def test_env_seed_override(self, runner):
        res_env = invoke(runner, [
            "verify", "--identity", "lc-ricci-flat", "--metric", LC_FLAT,
            "--points", "8", "--format", "json",
        ], env={"LCFLAT_SEED": "9"})
        res_flag = invoke(runner, [
            "verify", "--identity", "lc-ricci-flat", "--metric", LC_FLAT,
            "--points", "8", "--seed", "9", "--format", "json",
        ])
        a, b = json.loads(res_env.output), json.loads(res_flag.output)
        assert a["per_point"] == b["per_point"]
        assert a["run_config"]["seed"] == 9

    def test_explicit_seed_beats_env(self, runner):
        res = invoke(runner, [
            "verify", "--identity", "lc-ricci-flat", "--metric", LC_FLAT,
            "--points", "8", "--seed", "2", "--format", "json",
        ], env={"LCFLAT_SEED": "9"})
        assert json.loads(res.output)["run_config"]["seed"] == 2

    def test_report_written_atomically_no_stray_tmp(self, runner, tmp_path):
        out = tmp_path / "r.json"
        invoke(runner, [
            "verify", "--identity", "kahler-collapse", "--metric", "flat",
            "--points", "5", "--output", str(out),
        ])
        assert out.exists()
        stray = [p for p in tmp_path.iterdir() if p.name != "r.json"]
        assert stray == []

    def test_corrupt_gamma_flag_breaks_key_relation(self, runner):
        res = invoke(runner, [
            "verify", "--identity", "key-relation", "--metric", LC_FLAT,
            "--points", "8", "--corrupt-gamma",
        ])
        assert res.exit_code == 1
        # and the corruption does not leak into the next run
        res2 = invoke(runner, [
            "verify", "--identity", "key-relation", "--metric", LC_FLAT,
            "--points", "8",
        ])
        assert res2.exit_code == 0


# run the suite once per test module -- it covers 99 cell runs
@pytest.fixture(scope="module")
def suite_payload(tmp_path_factory):
    runner = CliRunner()
    out = tmp_path_factory.mktemp("suite") / "suite.json"
    res = runner.invoke(main, ["suite", "--output", str(out)], catch_exceptions=False)
    return res, json.loads(out.read_text())


class TestSuite:
    def test_suite_all_green(self, suite_payload):
        res, payload = suite_payload
        assert res.exit_code == 0
        assert payload["ok"] is True
        assert all(row["ok"] for row in payload["cells"])

    def test_suite_covers_every_identity(self, suite_payload):
        from lcflat.verify import IDENTITIES

        _, payload = suite_payload
        seen = {row["identity"] for row in payload["cells"]}
        assert seen == set(IDENTITIES)

    def test_suite_runs_three_seeds_per_cell(self, suite_payload):
        _, payload = suite_payload
        assert payload["seeds"] == [1, 2, 3]
        keys = {}
        for row in payload["cells"]:
            keys.setdefault((row["identity"], row["metric"]), set()).add(row["seed"])
        assert all(s == {1, 2, 3} for s in keys.values())

    def test_negative_controls_fail_as_expected(self, suite_payload):
        _, payload = suite_payload
        controls = [r for r in payload["cells"] if r["expected"] == "fail"]
        assert len(controls) == 9  # 3 cells x 3 seeds
        assert {r["identity"] for r in controls} == {
            "lc-ricci-flat", "deck-invariance", "kahler-collapse",
        }
        assert all(r["verdict"] == "fail" and r["ok"] for r in controls)

    def test_cells_expected_to_pass_hold_to_roundoff(self, suite_payload):
        # Far below every tolerance (1e-10 to 1e-6): the largest is 3.8e-15.
        _, payload = suite_payload
        passing = [r for r in payload["cells"] if r["expected"] == "pass"]
        assert len(passing) == 90
        worst = max(passing, key=lambda r: r["max_residual"])
        assert worst["max_residual"] <= 1e-13, worst

    def test_suite_rows_match_the_pinned_rows(self, suite_payload):
        """Every row's verdict is the pinned one, and its max and mean are
        within 1e-15·(1 + |r|) of the pinned values (tests/data/suite_rows.json,
        written by the engine that built `hopf-standard` by jet products)."""
        _, payload = suite_payload
        pins = json.loads((Path(__file__).parent / "data" / "suite_rows.json").read_text())
        rows = payload["cells"]
        assert [(r["identity"], r["metric"], r["seed"]) for r in rows] == [
            (p["identity"], p["metric"], p["seed"]) for p in pins]
        for row, pin in zip(rows, pins):
            assert row["verdict"] == pin["verdict"], row
            for key, r0 in (("max_residual", pin["max"]), ("mean_residual", pin["mean"])):
                assert abs(row[key] - r0) <= 1e-15 * (1 + abs(r0)), (row, key, r0)

    def test_suite_deterministic_modulo_wall_time(self, suite_payload, tmp_path):
        _, first = suite_payload
        runner = CliRunner()
        out = tmp_path / "again.json"
        runner.invoke(main, ["suite", "--output", str(out)], catch_exceptions=False)
        second = json.loads(out.read_text())
        for payload in (first, second):
            payload.pop("wall_time")
            payload.pop("run_config")  # echoes the output path, which differs
        assert first == second


def test_suite_corrupt_gamma_mutation(tmp_path):
    runner = CliRunner()
    out = tmp_path / "corrupt.json"
    res = runner.invoke(main, ["suite", "--corrupt-gamma", "--output", str(out)],
                        catch_exceptions=False)
    assert res.exit_code == 1
    payload = json.loads(out.read_text())
    assert payload["ok"] is False
    assert payload["run_config"]["corrupt_gamma"] is True
    by_identity = {}
    for row in payload["cells"]:
        by_identity.setdefault(row["identity"], []).append(row)
    # every key-relation cell must now fail its expectation
    assert all(not r["ok"] for r in by_identity["key-relation"])
    # identities blind to the mixed connection still behave
    for tag in ("det-formula", "deck-invariance", "hessian-matrices", "kahler-collapse"):
        assert all(r["ok"] for r in by_identity[tag])


# -- one suite run shares its samples and θ roots ---------------------------------


def _suite_checks():
    return [vf.CheckSpec(identity=cell["identity"], metric=mz.parse_metric_spec(cell["metric"]),
                         n_points=cell["n_points"], seed=seed)
            for cell in _suite_cells() for seed in SUITE_SEEDS]


def _assert_rows_equal_checks_run_alone(rows, corrupt):
    """Each row's outcome is that of its check run alone, outside the suite,
    compared with == (bit for bit), not within a tolerance."""
    checks = _suite_checks()
    assert len(rows) == len(checks)
    for row, check in zip(rows, checks):
        assert (row["identity"], row["seed"]) == (check.identity, check.seed)
        with geo.debug_corruption() if corrupt else nullcontext():
            try:
                report = vf.run_check(check)
            except vf.CheckAborted as exc:
                assert (row["verdict"], row["error"]) == ("aborted", str(exc)), row
                continue
        assert (row["verdict"], row["max_residual"], row["mean_residual"], row["warning"],
                row["notes"]) == (report.verdict, vf.json_number(report.max_residual),
                                  vf.json_number(report.mean_residual), report.warning,
                                  report.json_notes()), row


def test_suite_rows_equal_each_check_run_alone(suite_payload):
    _, payload = suite_payload
    _assert_rows_equal_checks_run_alone(payload["cells"], corrupt=False)


def test_corrupt_suite_rows_equal_each_corrupt_check_run_alone(tmp_path):
    out = tmp_path / "corrupt.json"
    res = CliRunner().invoke(main, ["suite", "--corrupt-gamma", "--output", str(out)],
                             catch_exceptions=False)
    assert res.exit_code == 1
    _assert_rows_equal_checks_run_alone(json.loads(out.read_text())["cells"], corrupt=True)


def _count_roots_and_draws(monkeypatch):
    """Record the (a, b, point) of every θ root solved and the arguments of
    every sample drawn; a point's key tells −0.0 from 0.0."""
    roots, draws = [], []
    theta_root, draw_points = mz._theta_root, vf._draw_points

    def counted_root(p, hp):
        roots.append((hp.a, hp.b) + tuple(x.hex() for c in p for x in (c.real, c.imag)))
        return theta_root(p, hp)

    def counted_draw(domain, n, seed, dim, hp):
        draws.append((domain, n, seed, dim, None if hp is None else (hp.a, hp.b)))
        return draw_points(domain, n, seed, dim, hp)

    monkeypatch.setattr(mz, "_theta_root", counted_root)
    monkeypatch.setattr(vf, "_draw_points", counted_draw)
    return roots, draws


def test_one_suite_run_solves_each_root_and_draws_each_sample_once(monkeypatch, tmp_path):
    roots, draws = _count_roots_and_draws(monkeypatch)
    for check in _suite_checks():  # alone: every root and every draw, repeats included
        try:
            vf.run_check(check)
        except vf.CheckAborted:
            pass
    distinct_roots, distinct_draws = len(set(roots)), len(set(draws))
    assert distinct_roots < len(roots) and distinct_draws < len(draws)
    for _ in range(2):  # each run starts empty
        roots.clear()
        draws.clear()
        res = CliRunner().invoke(main, ["suite", "--output", str(tmp_path / "suite.json")],
                                 catch_exceptions=False)
        assert res.exit_code == 0
        assert (len(roots), len(draws)) == (distinct_roots, distinct_draws)
        assert (len(set(roots)), len(set(draws))) == (distinct_roots, distinct_draws)


@pytest.mark.parametrize("bad_cell", [False, True])
def test_nothing_is_shared_after_a_suite_run(monkeypatch, tmp_path, bad_cell):
    """After a run, even one that a bad cell spec ends with a usage error,
    a check solves one θ root per point again and builds its own metric."""
    if bad_cell:
        cells = _suite_cells()
        monkeypatch.setattr("lcflat.cli._suite_cells", lambda: cells[:3] + [
            dict(cells[3], metric="hopf-lc-flat{a=0.5,b=2}")])
    res = CliRunner().invoke(main, ["suite", "--output", str(tmp_path / "suite.json")])
    assert res.exit_code == (2 if bad_cell else 0), res.output
    roots, _ = _count_roots_and_draws(monkeypatch)
    prefixes = count_prefixes(monkeypatch)
    check = vf.CheckSpec(identity="lc-ricci-flat", metric=mz.parse_metric_spec(LC_FLAT),
                         n_points=40, seed=1)
    for n in (40, 20):
        roots.clear()
        vf.run_check(replace(check, n_points=n))
        assert len(roots) == n and not prefixes


def _metric_reuses_the_grid_implies() -> int:
    """Run every suite check alone, recording the spec of each metric it
    builds (a conformal check: its base), and count the builds that an
    earlier check's build covers: the same spec and seed (so the same
    sampling domain and first point) on at least as many points.  A sample
    is a prefix of any longer one with the same domain and seed."""
    built, longest, reuses = [], {}, 0
    shared_metric = mz._shared_metric
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mz, "_shared_metric",
                   lambda spec, at, build: built.append(spec.canonical()) or shared_metric(spec, at, build))
        for check in _suite_checks():
            built.clear()
            vf.run_check(check)
            for spec in built:
                key = (spec, check.seed)
                reuses += check.n_points <= longest.get(key, 0)
                longest[key] = max(longest.get(key, 0), check.n_points)
    return reuses


def test_one_suite_run_reads_each_nested_sample_off_the_metric_built_first(monkeypatch, tmp_path):
    """Each run of `lcflat suite` takes one prefix per metric build that an
    earlier build covers, and no more: 21 on today's grid, where key-relation,
    scalar-010, scalar-key1, kahler-collapse, the lc-ricci-flat control and
    the conformal base repeat an earlier row's spec on fewer points."""
    want = _metric_reuses_the_grid_implies()
    assert want == 21
    taken = count_prefixes(monkeypatch)
    for _ in range(2):  # each run starts empty
        taken.clear()
        res = CliRunner().invoke(main, ["suite", "--output", str(tmp_path / "suite.json")],
                                 catch_exceptions=False)
        assert res.exit_code == 0
        assert len(taken) == want


class TestSweep:
    GRID_A = "2.718281828459045,4.4816890703380645,7.38905609893065"
    GRID_B = "2.8576511180631646,4.4816890703380645"

    def test_sweep_csv_shape(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        res = invoke(runner, [
            "sweep", "--a-grid", self.GRID_A, "--b-grid", self.GRID_B,
            "--points", "10", "--output", str(out),
        ])
        assert res.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "a,b,alpha,lambda,identity,max_residual,verdict"
        # a=e is inadmissible against both b values, so 4 of 6 cells remain
        assert len(lines) == 1 + 4
        for line in lines[1:]:
            a, b, alpha, lam, identity, resid, verdict = line.split(",")
            a, b, alpha = float(a), float(b), float(alpha)
            assert a >= b > 1
            k1, k2 = math.log(a), math.log(b)
            assert alpha == pytest.approx(2 * k1 / (k1 + k2), rel=1e-12)
            assert float(lam) == -0.5
            assert identity == "lc-ricci-flat"
            assert float(resid) < 1e-8
            assert verdict == "pass"

    def test_sweep_single_cell_matches_verify(self, runner):
        res_sweep = invoke(runner, [
            "sweep", "--a-grid", "2.718281828459045", "--b-grid", "2.718281828459045",
            "--points", "12", "--seed", "5",
        ])
        row = res_sweep.stdout.strip().splitlines()[-1]
        sweep_resid = float(row.split(",")[5])
        res_verify = invoke(runner, [
            "verify", "--identity", "lc-ricci-flat",
            "--metric", "hopf-lc-flat{a=2.718281828459045,b=2.718281828459045}",
            "--points", "12", "--seed", "5", "--format", "json",
        ])
        verify_resid = json.loads(res_verify.output)["stats"]["max"]
        assert sweep_resid == pytest.approx(verify_resid, rel=1e-5)

    def test_sweep_rejects_multiplier_below_one(self, runner):
        res = invoke(runner, ["sweep", "--a-grid", "0.5,2.0", "--b-grid", "1.5"])
        assert res.exit_code == 2
        assert "exceed 1" in res.stderr

    def test_sweep_rejects_empty_intersection(self, runner):
        res = invoke(runner, ["sweep", "--a-grid", "1.5", "--b-grid", "2.0"])
        assert res.exit_code == 2
        assert "no admissible" in res.stderr

    def test_sweep_rejects_garbage_grid(self, runner):
        res = invoke(runner, ["sweep", "--a-grid", "1.5,zap", "--b-grid", "1.2"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("flag, message", [("--tol", "tol must be finite and > 0, got 0.0"),
                                               ("--points", "n_points must be >= 1")])
    def test_sweep_rejects_bad_check_settings(self, runner, flag, message):
        res = invoke(runner, ["sweep", "--a-grid", "3", "--b-grid", "2", flag, "0"])
        assert res.exit_code == 2
        assert message in res.stderr

    def test_sweep_rejects_a_non_finite_tol(self, runner):
        res = invoke(runner, ["sweep", "--a-grid", "3", "--b-grid", "2", "--points", "2",
                              "--tol", "inf"])
        assert res.exit_code == 2
        assert "tol must be finite and > 0, got inf" in res.stderr

    @pytest.mark.parametrize("a_grid, b_grid, bad", [
        ("nan,3", "2", "--a-grid values must be finite numbers, got nan"),
        ("3", "nan", "--b-grid values must be finite numbers, got nan"),
        ("inf", "2", "--a-grid values must be finite numbers, got inf"),
    ], ids=["nan-a", "nan-b", "inf-a"])
    def test_sweep_rejects_a_non_finite_grid_value(self, runner, a_grid, b_grid, bad):
        res = invoke(runner, ["sweep", "--a-grid", a_grid, "--b-grid", b_grid, "--points", "2"])
        assert res.exit_code == 2
        assert bad in res.stderr

    @pytest.mark.parametrize("args, env", [
        (["--seed", "-1"], {}),
        ([], {"LCFLAT_SEED": "-4"}),
    ], ids=["flag", "env"])
    def test_sweep_rejects_a_negative_seed(self, runner, args, env):
        res = runner.invoke(main, ["sweep", "--a-grid", "3", "--b-grid", "2", "--points", "2",
                                   *args], env=env)
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 2
        seed = args[1] if args else env["LCFLAT_SEED"]
        assert f"seed must be >= 0, got {seed}" in res.stderr


class TestDumpSamples:
    def test_box_deterministic(self, runner):
        a = invoke(runner, ["dump-samples", "-n", "4", "--seed", "7"])
        b = invoke(runner, ["dump-samples", "-n", "4", "--seed", "7"])
        assert json.loads(a.output)["points"] == json.loads(b.output)["points"]

    def test_fundamental_domain_points_satisfy_radial_bounds(self, runner):
        from lcflat.metrics import HopfParams, phi_value

        res = invoke(runner, [
            "dump-samples", "--domain", "hopf-fundamental", "-n", "12",
            "--seed", "2", "--a", "7.389", "--b", "2.718",
        ])
        hp = HopfParams(7.389, 2.718)
        pts = json.loads(res.output)["points"]
        assert len(pts) == 12
        for coords in pts:
            p = tuple(complex(re, im) for re, im in coords)
            phi = phi_value(p, hp)
            assert 1.0 <= phi < 7.389 * 2.718

    def test_fundamental_domain_requires_valid_multipliers(self, runner):
        res = invoke(runner, [
            "dump-samples", "--domain", "hopf-fundamental", "--a", "2.0", "--b", "9.0",
        ])
        assert res.exit_code == 2

    def test_bad_env_seed_is_usage_error(self, runner):
        res = invoke(runner, ["dump-samples", "-n", "2"], env={"LCFLAT_SEED": "zzz"})
        assert res.exit_code == 2
        assert "LCFLAT_SEED" in res.stderr

    @pytest.mark.parametrize("args, env", [
        (["--seed", "-3"], {}),
        (["--domain", "hopf-fundamental", "--seed", "-3"], {}),
        ([], {"LCFLAT_SEED": "-4"}),
    ], ids=["box", "hopf-fundamental", "env"])
    def test_negative_seed_is_a_usage_error_that_names_it(self, runner, args, env):
        res = runner.invoke(main, ["dump-samples", "-n", "2", *args], env=env)
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 2
        seed = args[-1] if args else env["LCFLAT_SEED"]
        assert f"seed must be >= 0, got {seed}" in res.stderr


@pytest.mark.parametrize("args", [
    ["verify", "--identity", "lc-ricci-flat", "--metric", "hopf-lc-flat{a=1e300,b=1e299}"],
    ["sweep", "--a-grid", "1e300", "--b-grid", "1e299"],
    ["dump-samples", "--domain", "hopf-fundamental", "--a", "1e300", "--b", "1e299"],
], ids=["verify", "sweep", "dump-samples"])
def test_multiplier_product_beyond_a_double_is_usage_error(runner, args):
    res = invoke(runner, args)
    assert res.exit_code == 2
    assert "|a||b|" in res.stderr


@pytest.mark.parametrize("identity, metric", [
    ("lc-ricci-flat", "hopf-lc-flat{a=1e300,b=1.5}"),
    ("hessian-matrices", "hopf-lc-flat{a=1e300,b=1.5}"),
    ("det-formula", "hopf-omega-lambda{a=1e300,b=1.5}"),
    ("det-formula", "hopf-omega-lambda{a=1e200,b=1.5}"),
    ("deck-invariance", "hopf-lc-flat{a=1e200,b=1.5}"),
    ("lc-ricci-flat", "hopf-lc-flat{a=1e161,b=1.5}"),
    ("key-relation", "hopf-lc-flat{a=1e161,b=1.5}"),
    ("det-formula", "hopf-omega-lambda{lambda=1e308}"),
], ids=["lc-ricci-flat", "hessian-matrices", "det-formula", "det-formula-1e200",
        "deck-invariance-1e200", "lc-ricci-flat-1e161", "key-relation-1e161",
        "det-formula-lambda-1e308"])
def test_power_beyond_a_double_aborts_the_check(runner, identity, metric):
    # Φ reaches 1.5e300 on this shell, so Φ^{2α−2} ≈ Φ² overflows.  At
    # a = 1e161 det h falls below the normal doubles, so the inverse metric
    # and the connection leave the double range: an error, not a warning
    # (a RuntimeWarning fails the test) and never an inf carried onward.
    # At λ = 1e308 the entries of ω_λ are near 1e308 and det ω_λ overflows.
    res = runner.invoke(main, ["verify", "--identity", identity, "--metric", metric,
                               "--points", "5"])
    assert not isinstance(res.exception, ArithmeticError), res.exception
    assert res.exit_code == 1
    assert "check aborted: " in res.stderr


# e^f underflows to 0 at every point of the first spec (log Δ < 0 there, times
# 1e300) and overflows at every point of the other two (f ≈ 6.2e307).
E_F_OUT_OF_RANGE = [
    ("deck-invariance", "conformal{base=hopf-lc-flat{a=1e150,b=1.5},f=log-delta{scale=1e300}}"),
    ("conformal-law", "conformal{base=hopf-lc-flat,f=log-phi{scale=1e308}}"),
    ("deck-invariance", "conformal{base=hopf-lc-flat,f=log-phi{scale=1e308}}"),
]


@pytest.mark.parametrize("identity, metric", E_F_OUT_OF_RANGE,
                         ids=["deck-underflow", "conformal-law-overflow", "deck-overflow"])
def test_an_e_f_outside_the_doubles_fails_every_point(runner, identity, metric):
    # A zero "metric" is no metric, so the first check cannot pass; the
    # overflow is charged to the points, not raised as a RuntimeWarning
    # (which fails the test).
    res = invoke(runner, ["verify", "--identity", identity, "--metric", metric,
                          "--points", "40", "--seed", "1"])
    assert res.exit_code == 1, res.output
    assert "check aborted: 40/40 points failed to construct; first error: " \
        "e^f is outside the floating-point range at f = " in res.stderr


def _strict_json(text):
    """The JSON text parsed, raising on a bare NaN, Infinity or -Infinity
    token, which Python's json module accepts but RFC 8259 does not."""
    def bare(token):
        raise ValueError(f"bare {token} token in the JSON output")

    return json.loads(text, parse_constant=bare)


def test_a_nan_residual_is_written_as_null(runner):
    # kahler-collapse at a = 1e156 is NaN at 21 of its 40 points, and fails.
    res = invoke(runner, ["verify", "--identity", "kahler-collapse",
                          "--metric", "hopf-omega-lambda{a=1e156,b=1.5,lambda=0}",
                          "--points", "40", "--seed", "1", "--format", "json"])
    assert res.exit_code == 1
    payload = _strict_json(res.stdout)
    assert payload["verdict"] == "fail" and payload["schema_version"] == "2"
    assert sum(row["residual"] is None for row in payload["per_point"]) == 21
    assert payload["stats"]["max"] is None and payload["stats"]["mean"] is None
    assert payload["stats"]["argmax_point"] is not None
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(files("lcflat").joinpath("report_schema.json").read_text())
    jsonschema.validate({k: v for k, v in payload.items() if k != "run_config"}, schema)


def test_non_finite_residuals_and_notes_are_null_in_reports_and_suite_rows(
        runner, monkeypatch, tmp_path):
    """A residual of inf or NaN, and a NaN note, are null in a verify report
    and in a suite row alike."""
    def residual(spec, points, notes):
        notes["gap"] = math.nan
        return [math.inf] + [math.nan] * (len(points) - 1)

    monkeypatch.setitem(vf.IDENTITIES, "key-relation",
                        replace(vf.IDENTITIES["key-relation"], residual=residual))
    out = tmp_path / "report.json"
    res = invoke(runner, ["verify", "--identity", "key-relation", "--metric", "flat",
                          "--points", "3", "--output", str(out)])
    assert res.exit_code == 1
    report = _strict_json(out.read_text())
    assert [row["residual"] for row in report["per_point"]] == [None, None, None]
    assert (report["stats"]["max"], report["stats"]["mean"], report["notes"]) == (None, None, {"gap": None})

    monkeypatch.setattr("lcflat.cli._suite_cells", lambda: [
        dict(identity="key-relation", metric="flat", n_points=3, expected="fail")])
    out = tmp_path / "suite.json"
    res = invoke(runner, ["suite", "--output", str(out)])
    assert res.exit_code == 0
    rows = _strict_json(out.read_text())["cells"]
    assert len(rows) == 3 and all(
        (r["max_residual"], r["mean_residual"], r["notes"]) == (None, None, {"gap": None}) for r in rows)


def test_emit_refuses_a_float_that_json_cannot_hold():
    from lcflat.cli import _emit

    with pytest.raises(ValueError):
        _emit({"residual": math.nan}, None)


@pytest.mark.parametrize("identity, metric", [
    ("det-formula", "hopf-omega-lambda{a=1e100,b=1.5}"),
    ("deck-invariance", "hopf-lc-flat{a=1e40,b=1.5}"),
    ("lc-ricci-flat", "hopf-lc-flat{a=1e100,b=1.5}"),
    ("hessian-matrices", "hopf-lc-flat{a=1e162,b=1.5}"),
], ids=["det-formula", "deck-invariance", "lc-ricci-flat", "hessian-matrices"])
def test_hopf_metrics_build_where_phi_squared_is_a_double(runner, identity, metric):
    # Φ reaches 1.5e100 on the first and third shells, 2.3e80 on the deck
    # image of the second and 1.5e162 on the fourth.  The metrics form no
    # power of Φ, the Chern-Ricci form is a curvature trace that forms no
    # det h (det h ≈ 1e-200 here), and log Φ is read as kθ, so every check
    # runs to a verdict.
    res = invoke(runner, ["verify", "--identity", identity, "--metric", metric,
                          "--points", "10"])
    assert res.exit_code == 0, res.output + res.stderr
    assert "PASS" in res.output


@pytest.mark.parametrize("identity", ["conformal-law", "key-relation", "scalar-key1"])
def test_poly_factor_on_four_coordinates(runner, identity):
    res = runner.invoke(main, [
        "verify", "--identity", identity, "--points", "10", "--metric",
        "conformal{base=user-polynomial{n=4,seed=3,amp=0.03},f=poly{seed=1,amp=0.1}}",
    ])
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 0, res.output
    assert "PASS" in res.output


@pytest.mark.parametrize("metric, key", [
    ("conformal{base=hopf-lc-flat{a=3,b=2},f=log-phi{seed=3}}", "seed"),
    ("conformal{base=flat,f=poly{scale=5}}", "scale"),
    ("conformal{base=hopf-lc-flat{a=3,b=2},f=log-delta{seed=4}}", "seed"),
    ("conformal{base=flat,f=zero{amp=1}}", "amp"),
    ("hopf-lc-flat{a=2,a=3}", "a"),
    ("conformal{base=flat,f=poly{seed=1,seed=2}}", "seed"),
], ids=["log-phi-seed", "poly-scale", "log-delta-seed", "zero-amp", "repeated-a",
        "repeated-seed"])
def test_spec_key_a_kind_does_not_take_is_usage_error(runner, metric, key):
    res = invoke(runner, ["verify", "--identity", "conformal-law", "--metric", metric,
                          "--points", "2"])
    assert res.exit_code == 2
    assert f"field {key!r}" in res.stderr


def test_sweep_reports_an_aborted_cell_and_fails(runner):
    res = runner.invoke(main, ["sweep", "--a-grid", "1e200,10", "--b-grid", "1.5",
                               "--points", "5"])
    assert not isinstance(res.exception, vf.CheckAborted), res.exception
    assert res.exit_code == 1
    rows = [line.split(",") for line in res.stdout.strip().splitlines()[1:]]
    assert (rows[0][0], rows[0][5], rows[0][6]) == ("1e+200", "nan", "aborted")
    assert rows[1][6] == "pass"
    assert "check aborted: " in res.stderr
    assert "2 cells, 1 aborted" in res.stderr


def test_sweep_reports_a_non_finite_max_as_the_worst_residual(runner, monkeypatch):
    # max(worst, nan) would keep the finite worst and leave the NaN cell out
    inner = vf.run_check
    maxima = {3.0: 1e-15, 4.0: math.nan, 5.0: 0.5}

    def run_check(c):
        r = maxima[c.metric.a]
        return replace(inner(c), max_residual=r, verdict="pass" if r <= c.tol else "fail")

    monkeypatch.setattr(vf, "run_check", run_check)
    res = runner.invoke(main, ["sweep", "--a-grid", "3,4,5", "--b-grid", "2", "--points", "2"])
    assert res.exit_code == 1
    assert [line.split(",")[5:] for line in res.stdout.strip().splitlines()[1:]] == [
        ["1.000000e-15", "pass"], ["nan", "fail"], ["5.000000e-01", "fail"]]
    assert "sweep: 3 cells, 0 aborted, worst residual nan" in res.stderr


def test_a_residual_that_drops_a_point_aborts_without_a_traceback(runner, monkeypatch):
    entry = vf.IDENTITIES["scalar-010"]
    monkeypatch.setitem(vf.IDENTITIES, "scalar-010", replace(
        entry, residual=lambda spec, pts, notes: entry.residual(spec, pts, notes)[:-1]))
    res = runner.invoke(main, ["verify", "--identity", "scalar-010", "--metric", "flat",
                               "--points", "4"])
    assert res.exit_code == 1 and not isinstance(res.exception, vf.CheckAborted)
    assert "check aborted: the scalar-010 residual returned shape (3,) for 4 points" in res.stderr
    assert "Traceback" not in res.output


def _no_memory_for_the_sample(monkeypatch):
    def sample_points(*args, **kw):
        raise MemoryError

    monkeypatch.setattr(vf, "sample_points", sample_points)


def test_a_sample_too_large_for_memory_aborts_without_a_traceback(runner, monkeypatch):
    _no_memory_for_the_sample(monkeypatch)
    res = runner.invoke(main, ["verify", "--identity", "key-relation", "--metric", "flat",
                               "--points", "100000000"])
    assert res.exit_code == 1 and not isinstance(res.exception, (vf.CheckAborted, MemoryError))
    assert res.stderr == "check aborted: drawing 100000000 sample points ran out of memory\n"
    assert "Traceback" not in res.output


# Each command with an --output, run small.
OUTPUT_COMMANDS = {
    "verify": ["verify", "--identity", "lc-ricci-flat", "--metric", LC_FLAT, "--points", "3"],
    "suite": ["suite"],
    "sweep": ["sweep", "--a-grid", "3", "--b-grid", "2", "--points", "2"],
    "dump-samples": ["dump-samples", "-n", "2"],
}


@pytest.mark.parametrize("command", list(OUTPUT_COMMANDS))
def test_an_output_in_a_missing_directory_is_a_usage_error_before_any_check(
        runner, monkeypatch, tmp_path, command):
    def no_work(*args, **kw):
        raise AssertionError("a check or a sample ran before the --output was checked")

    monkeypatch.setattr(vf, "run_check", no_work)
    monkeypatch.setattr(vf, "sample_points", no_work)
    path = tmp_path / "no" / "such" / "dir" / "out.json"
    res = runner.invoke(main, OUTPUT_COMMANDS[command] + ["--output", str(path)])
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 2
    assert f"the directory of '{path}' does not exist" in res.stderr
    assert "Traceback" not in res.output


@pytest.mark.parametrize("command", list(OUTPUT_COMMANDS))
def test_a_failed_write_is_a_one_line_message_naming_the_path(runner, monkeypatch, tmp_path, command):
    """An OSError while the output is written ends the command with exit 1
    and one line that names the path, and leaves no temp file behind."""
    if command == "suite":
        cells = _suite_cells()
        monkeypatch.setattr("lcflat.cli._suite_cells", lambda: cells[:1])

    def no_space(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", no_space)
    path = tmp_path / "out.json"
    res = runner.invoke(main, OUTPUT_COMMANDS[command] + ["--output", str(path)])
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 1
    assert f"cannot write {path}: No space left on device\n" in res.stderr
    assert "Traceback" not in res.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["--domain", "box", "-n", "5", "--seed", "3"],
    ["--domain", "hopf-fundamental", "-n", "4", "--seed", "2"],
    ["--domain", "hopf-fundamental", "-n", "6", "--a", "9.5", "--b", "1.25"],
], ids=["box", "hopf-default-multipliers", "hopf"])
def test_dump_samples_records_what_its_points_depend_on(runner, args):
    payload = json.loads(invoke(runner, ["dump-samples", *args]).output)
    cfg = payload["run_config"]
    hp = None
    if payload["domain"] == "hopf-fundamental":
        hp = mz.HopfParams(cfg["a"], cfg["b"])
    else:
        assert "a" not in cfg and "b" not in cfg
    pts = vf.sample_points(payload["domain"], cfg["n_points"], cfg["seed"], hp=hp)
    assert payload["points"] == [[[c.real, c.imag] for c in p] for p in pts]


def test_dump_samples_too_large_for_memory_exits_one_without_a_traceback(runner, monkeypatch):
    _no_memory_for_the_sample(monkeypatch)
    res = runner.invoke(main, ["dump-samples", "-n", "1000000000"])
    assert res.exit_code == 1 and not isinstance(res.exception, MemoryError)
    assert res.stderr == "drawing 1000000000 sample points ran out of memory\n"


def test_a_sample_too_large_for_memory_is_an_aborted_suite_row(monkeypatch, tmp_path):
    _no_memory_for_the_sample(monkeypatch)
    out = tmp_path / "suite.json"
    res = CliRunner().invoke(main, ["suite", "--output", str(out)])
    assert res.exit_code == 1 and not isinstance(res.exception, (vf.CheckAborted, MemoryError))
    rows = json.loads(out.read_text())["cells"]
    assert len(rows) == 99
    for row in rows:
        assert row["verdict"] == "aborted"
        assert row["error"] == f"drawing {row['n_points']} sample points ran out of memory"


def test_a_broken_batch_path_aborts_without_a_traceback(runner, monkeypatch):
    plant_batch_broadcast_error(monkeypatch)
    res = runner.invoke(main, ["verify", "--identity", "key-relation", "--metric",
                               "hopf-standard{a=2.718281828459045,b=2.718281828459045}",
                               "--points", "20", "--seed", "1"])
    assert res.exit_code == 1 and not isinstance(res.exception, vf.CheckAborted)
    assert ("check aborted: the key-relation residual raised ValueError: "
            "operands could not be broadcast together") in res.stderr
    assert "Traceback" not in res.output


def test_identity_lists_match_the_registry():
    """The schema enum, the --identity choices and the README all list the registry."""
    from lcflat.verify import IDENTITIES

    tags = list(IDENTITIES)
    schema = json.loads(files("lcflat").joinpath("report_schema.json").read_text())
    assert schema["properties"]["check"]["properties"]["identity"]["enum"] == tags
    choice = next(p.type for p in cmd_verify.params if p.name == "identity")
    assert list(choice.choices) == tags

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Identity tags", 1)[1].split("\n### ", 1)[0]
    assert re.findall(r"^\| `([a-z0-9-]+)`", section, re.M) == tags
    sentence = re.search(r"Default pass tolerances: ([0-9.e-]+), except (.*?) \(", section, re.S)
    tols = dict.fromkeys(tags, float(sentence[1]))
    for group, tol in re.findall(r"((?:`[a-z0-9-]+`[\s/]*)+) at ([0-9.e-]+)", sentence[2]):
        tols.update(dict.fromkeys(re.findall(r"`([a-z0-9-]+)`", group), float(tol)))
    assert tols == {tag: entry.tol for tag, entry in IDENTITIES.items()}


# What no command may leave unentered: `wjet`, which the tests' jet oracles
# use, and `metrics.phi_value`, a name the benchmark's tracer wraps.
UNENTERED_ON_PURPOSE = {("wjet.py", None), ("metrics.py", "phi_value")}


def _defined_functions() -> set:
    """(file, first line, name) of every function and method that a module
    of the package defines, read from its compiled code."""
    import lcflat

    found = set()
    for path in Path(lcflat.__file__).parent.glob("*.py"):
        name = os.path.realpath(path)
        stack = [compile(path.read_text(), name, "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if isinstance(const, types.CodeType):
                    stack.append(const)
                    # a function's code, not a class body, lambda or comprehension
                    if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                        found.add((name, const.co_firstlineno, const.co_name))
    return found


def test_every_function_in_the_package_is_entered_by_some_command(runner, tmp_path):
    """The commands enter every function of `src/lcflat/` (the exemptions
    above aside), so the package holds only what the CLI runs."""
    entered = set()

    def trace(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    runs = [["suite", "--output", str(tmp_path / "suite.json")], ["suite", "--corrupt-gamma"],
            ["sweep", "--a-grid", "3,2", "--b-grid", "2", "--points", "2"],
            ["dump-samples", "--domain", "box", "-n", "2"],
            ["dump-samples", "--domain", "hopf-fundamental", "-n", "2", "--a", "3", "--b", "2"]]
    metrics = {}
    for cell in _suite_cells():
        metrics.setdefault(cell["identity"], cell["metric"])
    for k, (identity, metric) in enumerate(metrics.items()):
        runs.append(["verify", "--identity", identity, "--metric", metric, "--points", "3",
                     "--format", ("json", "pretty")[k % 2]])
    # a sample with failing points, evaluated again point by point
    runs.append(["verify", "--identity", "lc-ricci-flat", "--metric",
                 "user-polynomial{seed=4,amp=0.1,n=2}", "--points", "40", "--seed", "1"])
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        for args in runs:
            runner.invoke(main, args, catch_exceptions=False)
    finally:
        sys.settrace(previous)
    entered = {(os.path.realpath(path), line, name) for path, line, name in entered}
    missing = sorted(f"{Path(path).name}:{line} {name}" for path, line, name in
                     _defined_functions() - entered
                     if (Path(path).name, None) not in UNENTERED_ON_PURPOSE
                     and (Path(path).name, name) not in UNENTERED_ON_PURPOSE)
    assert missing == []


def test_the_cli_never_loads_the_jet_engine(tmp_path):
    """`wjet` is the jet engine of the tests and the benchmark, not of the
    CLI: a fresh interpreter that imports `lcflat.cli`, and then runs
    `lcflat suite`, leaves `lcflat.wjet` out of `sys.modules`."""
    import lcflat

    src = str(Path(lcflat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "\n".join([
        "import sys, lcflat.cli",
        "assert 'lcflat.wjet' not in sys.modules, 'loaded by import lcflat.cli'",
        "try:",
        "    lcflat.cli.main(['suite', '--output', sys.argv[1]])",
        "except SystemExit as exc:",
        "    assert exc.code == 0, f'suite exited {exc.code}'",
        "assert 'lcflat.wjet' not in sys.modules, 'loaded by lcflat suite'",
    ])
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path / "suite.json")],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads((tmp_path / "suite.json").read_text())["ok"]
