"""Self-test of the benchmark on shrunken (--tiny) workloads.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(HERE))
import worker  # noqa: E402


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    want = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in want}
    for m in want:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        assert any(line.split()[:1] == [m["name"]] and line.endswith(" " + m["unit"])
                   for line in lines[:-1]), m["name"]


def test_layer_shares_match_the_workload_design():
    def layers(workload):
        proc = run_bench(workload, 1)
        assert proc.returncode == 0, proc.stderr
        m = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        return {k: v["value"] for k, v in m.items()}

    potential, generic = layers("potential"), layers("generic")
    assert potential["geometry.christoffels.calls_per_point"] == 0
    assert potential["metrics.phi_field.calls_per_point"] > 0
    assert generic["wjet.implicit_solve.self_s"] == 0
    assert generic["metrics.phi_field.calls_per_point"] == 0
    assert generic["geometry.riemannian_scalar.self_s"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("headline", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def generic_tiny(tmp_path_factory):
    mods = worker.import_package()
    return mods, worker.Workload(mods, "generic", 1, True, tmp_path_factory.mktemp("out"))


def test_a_pass_with_a_nan_residual_is_not_correct(generic_tiny, monkeypatch):
    mods, wl = generic_tiny
    inner = mods["verify"].run_check

    def nan_hidden(c):
        report = inner(c)
        p, _ = report.per_point[0]
        report.per_point[0] = (p, float("nan"))
        return report

    monkeypatch.setattr(mods["verify"], "run_check", nan_hidden)
    problems = wl.run_pass()["problems"]
    assert any("non-finite residual" in msg for msg in problems)


def test_escaping_exceptions_are_counted_not_raised(generic_tiny, monkeypatch):
    mods, wl = generic_tiny

    def overflow(c):
        raise OverflowError("math range error")

    monkeypatch.setattr(mods["verify"], "run_check", overflow)
    p = wl.run_pass()
    assert len(p["records"]) == len(wl.checks) and p["ok"] == 0
    assert all(r.outcome == "error" and r.error == "OverflowError: math range error"
               for r in p["records"])


def test_scaling_cancels_a_uniform_slowdown():
    calm = dict(wall_s=1.0, check_s=[0.2, 0.3], probe_s=[1e-3, 1e-3], probe_spent_s=0.004)
    busy = dict(wall_s=2.0, check_s=[0.4, 0.6], probe_s=[2e-3, 2e-3], probe_spent_s=0.008)
    checks, outside = worker.scaled_times([calm])
    assert checks == pytest.approx([0.2, 0.3]) and outside == pytest.approx(0.496)
    assert worker.scaled_times([busy, calm, busy])[0] == pytest.approx(checks)
