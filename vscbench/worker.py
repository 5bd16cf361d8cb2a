"""Runs one workload in its own process and writes its measurements.

Started by run.py with the thread caps already in the environment:

    python3 vscbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --size full|tiny --out DIR

The loop is closed: one caller issues the next operation when the
previous one returns.  It stops at the first block boundary after the
time is up, so each run sees the same mix of operation kinds.  Each
latency is also scaled by the speed probe run right after it.  With
--trace 1 every operation runs twice, untraced and traced, and the
difference in their busy time is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import resource
import shutil
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import numpy as np

import speed
import vscsim.config
import vscsim.tables
import workloads
from tracer import Tracer

MAX_REPORTED_ERRORS = 20


class Loop:
    """Executes a workload's operations and keeps latencies and failures."""

    def __init__(self, workload: workloads.Workload, check: workloads.OutputCheck, out_dir: Path):
        self.workload = workload
        self.check = check
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(message)

    def execute(self, op: workloads.Op) -> float | None:
        """Run one operation; its latency in seconds, or None if it failed.

        The op writes into an emptied directory, as a run into a fresh
        output directory does.  Rewriting a file in place would time the
        file system's flush of a truncated file, which varies with the
        disk, not with the program."""
        self.attempted += 1
        for path in self.out_dir.iterdir():
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink()
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception:  # an operation that raises is a failed operation
            self._fail(f"{op.key}: raised\n{traceback.format_exc()}")
            return None
        latency = time.perf_counter() - start
        try:
            problems = self.check(op, result)
        except Exception:  # a check that cannot read the outputs fails the op
            problems = [f"{op.key}: check raised\n{traceback.format_exc()}"]
        if problems:
            self._fail("; ".join(problems))
            return None
        return latency

    def warm_up(self) -> None:
        for op in self.workload.ops[: self.workload.warmup]:
            self.execute(op)

    def schedule(self, seconds: float):
        """Yield (index, op) in cycle order until the first block boundary
        after `seconds`."""
        ops, block = self.workload.ops, self.workload.block
        start = time.perf_counter()
        for i in itertools.count():
            if i and i % block == 0 and time.perf_counter() - start >= seconds:
                return
            yield i, ops[i % len(ops)]


def p90_with_tail(latencies: list[float]) -> tuple[float, int]:
    """The 90th percentile (linear interpolation between order statistics)
    and how many samples lie above it."""
    value = float(np.quantile(np.asarray(latencies), 0.9))
    return value, sum(1 for x in latencies if x > value)


def _build_configs(docs: list[dict]) -> tuple[float, float, dict]:
    """Cold build_config time for the workload's configs, measured and
    scaled, and the configs' hashes."""
    start = time.perf_counter()
    configs = [vscsim.config.build_config(doc) for doc in docs]
    elapsed = time.perf_counter() - start
    return elapsed, speed.scaled(elapsed), {c.name: vscsim.tables.config_hash(c.canonical) for c in configs}


def _latency_stats(latencies: list[float], work: float) -> dict:
    if not latencies:
        return {"op_p50_ms": math.nan, "op_p90_ms": math.nan, "p90_samples_beyond": 0,
                "work_per_s": math.nan, "busy_s": 0.0}
    p90, beyond = p90_with_tail(latencies)
    busy = sum(latencies)
    return {
        "op_p50_ms": 1e3 * float(np.median(latencies)),
        "op_p90_ms": 1e3 * p90,
        "p90_samples_beyond": beyond,
        "work_per_s": work / busy,
        "busy_s": busy,
    }


def _measure(loop: Loop, seconds: float) -> dict:
    """Untraced closed loop: latency percentiles and throughput, measured
    and scaled to the reference speed (speed.py), and peak RSS."""
    measured: list[float] = []
    scaled: list[float] = []
    work = 0.0
    for _i, op in loop.schedule(seconds):
        latency = loop.execute(op)
        if latency is not None:
            measured.append(latency)
            scaled.append(speed.scaled(latency))
            work += op.work
    return {
        "ops": len(measured),
        "measured": _latency_stats(measured, work),
        **_latency_stats(scaled, work),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _trace(loop: Loop, seconds: float, trace_path: Path) -> dict:
    """Each op runs twice, untraced and traced, alternating which goes
    first, so drift in machine speed cancels out of the overhead."""
    tracer = Tracer()
    plain = traced = 0.0
    n = 0
    for i, op in loop.schedule(seconds):
        tracer.op_id = i
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
            try:
                latency = loop.execute(op) or 0.0
            finally:
                tracer.uninstall()
            if with_trace:
                traced += latency
            else:
                plain += latency
        n += 1
    overhead = traced - plain
    layer = tracer.metrics()
    layer.update(
        {
            "trace.ops": float(n),
            "trace.overhead_s": overhead,
            "trace.overhead_ratio": overhead / plain if plain else math.nan,
        }
    )
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "functions": tracer.functions(),
                "counts": dict(tracer.counts),
                "missing": tracer.missing(),
                "span_fields": ["name", "start", "end", "parent", "op"],
                "spans": tracer.spans,
            },
            fh,
        )
    return {"ops": n, "layer": layer, "missing": tracer.missing(), "trace_file": str(trace_path)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    artifacts = out_dir / "artifacts"
    artifacts.mkdir(parents=True, exist_ok=True)

    wl = workloads.build(args.workload, args.seed, args.size, artifacts)
    build_s, build_scaled_s, config_hashes = _build_configs(wl.configs)
    expected = workloads.load_expected(args.workload, args.seed, args.size)
    loop = Loop(wl, workloads.OutputCheck(expected), artifacts)
    loop.warm_up()
    # The generated inputs live for the whole run (protocol holds 3x10^5
    # CSI records).  Frozen, they stay out of the collections the program's
    # own allocations trigger, which would otherwise scan them in pauses of
    # about 60 ms that land in a few ops and move the 90th percentile.
    gc.collect()
    gc.freeze()

    result = {
        "workload": wl.name,
        "work_unit": wl.work_unit,
        "provenance": {
            "numpy": np.__version__,
            "jsonschema": metadata.version("jsonschema"),
            "vscsim": vscsim.tables.ARTIFACT_VERSION,
            "seed": args.seed,
            "size": args.size,
            "digests_pinned": expected is not None,
            "config_hashes": config_hashes,
            "inputs_hash": vscsim.tables.config_hash(json.loads(json.dumps(wl.inputs, default=str))),
        },
    }
    if args.trace == 0:
        result.update(_measure(loop, args.seconds), setup_build_s=build_s, setup_build_scaled_s=build_scaled_s)
    else:
        result.update(_trace(loop, args.seconds, out_dir / "trace.json"))
    result.update({"attempted": loop.attempted, "failed": loop.failed, "errors": loop.errors})
    with open(out_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
