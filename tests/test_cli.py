"""End-to-end tests of the command-line interface via click's test runner."""

import json
import math
import re
from dataclasses import replace
from importlib.resources import files
from pathlib import Path

import pytest
from click.testing import CliRunner

from lcflat import verify as vf
from lcflat.cli import cmd_verify, main

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


def test_a_residual_that_drops_a_point_aborts_without_a_traceback(runner, monkeypatch):
    entry = vf.IDENTITIES["scalar-010"]
    monkeypatch.setitem(vf.IDENTITIES, "scalar-010", replace(
        entry, residual=lambda spec, pts, notes: entry.residual(spec, pts, notes)[:-1]))
    res = runner.invoke(main, ["verify", "--identity", "scalar-010", "--metric", "flat",
                               "--points", "4"])
    assert res.exit_code == 1 and not isinstance(res.exception, vf.CheckAborted)
    assert "check aborted: the scalar-010 residual returned shape (3,) for 4 points" in res.stderr
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
