"""vscsim benchmark: one workload, one child process, one result line.

    python3 vscbench/run.py --workload fleet|paper|stochastic|protocol
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from a checkout of the repository; the program is imported from its
``src/`` directory.  With --trace 0 the last line of standard output is a
JSON object with the end-to-end metrics named in BENCHMARK.json, their
timings scaled to the reference machine's speed (speed.py); with
--trace 1 the per-module metrics.  Earlier lines give the provenance of
the run, the sample counts behind the percentiles and the measured,
unscaled timings.  Artifacts, the raw result and the trace land in
.bench_build/vscbench/<workload>-<size>/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEADLINE_S = 170.0
SETUP_REPEATS = 7
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _child_env(nproc: int) -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: str(nproc) for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def _cpu_quota() -> str | None:
    try:
        return Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        return None


def _setup_seconds(env: dict, cwd: Path) -> tuple[list[float], list[float]]:
    """Wall times of a fresh interpreter running `vscsim list-presets`,
    measured and scaled to the reference speed (speed.py)."""
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "vscsim.cli", "list-presets"],
            env=env, cwd=cwd, stdout=subprocess.DEVNULL,
        )
        # wait(timeout=...) polls in steps of up to 50 ms, which would
        # quantize the measurement; block instead, with a timer as the limit.
        killer = threading.Timer(60.0, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise subprocess.CalledProcessError(code, proc.args)
        scaled.append(speed.scaled(times[-1]))
    return times, scaled


def _number(value):
    return None if value is None or not math.isfinite(value) else value


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description="Run one vscsim benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the smoke test")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "vscsim" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no vscsim sources (src/vscsim) or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = _child_env(nproc)
    out_dir = ROOT / ".bench_build" / "vscbench" / f"{args.workload}-{args.size}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    setup, setup_scaled = ([], []) if args.trace else _setup_seconds(env, out_dir)
    worker = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size, "--out", str(out_dir),
    ]
    remaining = DEADLINE_S - (time.perf_counter() - started)
    try:
        done = subprocess.run(worker, env=env, cwd=out_dir, timeout=remaining)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    result_path = out_dir / "result.json"
    if done.returncode != 0 or not result_path.is_file():
        print(f"error: workload process exited with code {done.returncode}", file=sys.stderr)
        return 1
    res = json.loads(result_path.read_text(encoding="utf-8"))

    provenance = {
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu_max": _cpu_quota(),
        "thread_caps": {var: env[var] for var in THREAD_VARS},
        **res["provenance"],
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for error in res["errors"]:
        print("failed op: " + error)
    error_rate = res["failed"] / res["attempted"] if res["attempted"] else 1.0

    if args.trace == 0:
        # Timings at the reference machine's speed (speed.py); the measured
        # ones are on the line before the result.
        values = {
            "setup_s": statistics.median(setup_scaled) + res["setup_build_scaled_s"],
            "op_p50_ms": res["op_p50_ms"],
            "op_p90_ms": res["op_p90_ms"],
            "work_per_s": res["work_per_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        measured = res["measured"]
        print(
            f"samples {res['ops']} ops, {res['p90_samples_beyond']} beyond p90; "
            f"work unit: {res['work_unit']}; error_rate {error_rate:g}"
        )
        print(
            f"measured: setup runs {[round(s, 4) for s in setup]} + build_config {res['setup_build_s']:.4f} s; "
            f"op_p50_ms {measured['op_p50_ms']:.6g}, op_p90_ms {measured['op_p90_ms']:.6g}, "
            f"work_per_s {measured['work_per_s']:.6g}, busy {measured['busy_s']:.3f} s"
        )
        metrics_spec = spec["end_to_end"]
    else:
        values = {**res["layer"], "error_rate": error_rate}
        print(f"trace {res['trace_file']}: {res['ops']} ops traced; missing: {res['missing'] or 'none'}")
        metrics_spec = spec["per_layer"]
    metrics = {m["name"]: {"value": _number(values[m["name"]]), "unit": m["unit"]} for m in metrics_spec}
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
