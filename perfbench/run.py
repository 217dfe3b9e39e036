"""Benchmark entry point for lcflat.

    python3 perfbench/run.py --workload {headline,potential,generic,suite} \
        --seed N --seconds T --trace {0,1} [--tiny]

Run from the root of a checkout.  Every workload runs in fresh single
processes with BLAS/OpenMP threads pinned to 1:

  --trace 0  times set-up in SETUP_RUNS fresh processes (after one untimed
             process that fills the bytecode cache) and reports the median as
             setup_s, then measures the workload untraced for T seconds in
             one more process and prints the end-to-end metrics.  Set-up and
             check times are scaled by a reference probe run just before and
             after each (speedprobe.py), so that the load of other tenants
             of a shared machine cancels out.
  --trace 1  runs the workload with spans around the layer boundaries and
             prints the per-layer metrics; spans are written to
             perfbench/out/trace-<workload>-<seed>.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --tiny shrinks every workload so
that the self-test (perfbench/test_selftest.py) runs in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 11
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
from speedprobe import REF_PROBE_S, probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def metric_units() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def worker_cmd(args, mode: str) -> list[str]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--out-dir", str(OUT)]
    return cmd + (["--tiny"] if args.tiny else [])


def time_setup(args) -> float:
    """Seconds from spawning a fresh worker until it reports ready, scaled
    like the check times by the reference probe run just before and after."""
    before = probe()
    t0 = perf_counter()
    proc = subprocess.Popen(worker_cmd(args, "setup"), cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        dt = perf_counter() - t0
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        fail(f"set-up worker failed (exit {proc.returncode}):\n{err}")
    return dt * REF_PROBE_S / ((before + probe()) / 2)


def run_worker(args, mode: str) -> dict:
    try:
        proc = subprocess.run(worker_cmd(args, mode), cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{mode} worker did not finish within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{mode} worker failed (exit {proc.returncode}):\n{proc.stderr}")
    path = OUT / f"result-{args.workload}-{args.seed}-{mode}.json"
    return json.loads(path.read_text())


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrunken workloads for the self-test")
    args = ap.parse_args()

    if not (ROOT / "src" / "lcflat" / "__init__.py").is_file():
        print(f"perfbench: no lcflat sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    OUT.mkdir(exist_ok=True)

    if args.trace:
        result = run_worker(args, "trace")
    else:
        for _ in range(20):  # the probe's first calls are slow
            probe()
        setups = [time_setup(args) for _ in range(1 + (1 if args.tiny else SETUP_RUNS))][1:]
        result = run_worker(args, "measure")
        result["metrics"]["setup_s"] = statistics.median(setups)

    units = metric_units()
    env = result["env"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {args.trace}  "
          f"python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
          f"threads {env['threads']}")
    print(f"passes {result['passes']}  checks attempted {result['attempted']}  "
          f"failed {result['failed']}  failed_frac {result['failed_frac']:.4f}  "
          f"points_failed_frac {result['points_failed_frac']:.4f}")
    print("pass wall times (s): " + " ".join(f"{x:.3f}" for x in result["pass_wall_s"]))
    if not args.trace:
        t = result["tail"]
        probes = [x for p in result["pass_probe_s"] for x in p]
        print(f"times are scaled to a {1e3 * REF_PROBE_S:g} ms reference probe; "
              f"median probe here {1e3 * statistics.median(probes):.3f} ms over {len(probes)} probes")
        print(f"check_ms_tail is p{t['percentile']:.1f} of {t['checks_per_pass']} checks")
    for msg in result["problems"]:
        print(f"PROBLEM {msg}")
    for name, value in result["metrics"].items():
        print(f"{name:48s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
