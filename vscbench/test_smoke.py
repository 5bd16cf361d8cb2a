"""Smoke test for the benchmark itself, at tiny input sizes.

    PYTHONPATH=src python3 -m pytest -q vscbench/test_smoke.py

Checks that every workload prints every metric named in BENCHMARK.json
with its unit, that the outputs check catches a corrupted artifact, that
the tracer reports a vanished function as missing instead of failing,
and that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "vscbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_prints_every_metric_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "5", "--seconds", "0.5", "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float)), m["name"]
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def _paper_op(name: str, out_dir: Path) -> workloads.Op:
    wl = workloads.build("paper", 0, "full", out_dir)
    return next(op for op in wl.ops if op.key == name)


def test_outputs_check_flags_a_corrupted_artifact(tmp_path):
    op = _paper_op("fig4", tmp_path)
    expected = workloads.load_expected("paper", 7, "full")
    result = op.run()
    assert workloads.OutputCheck(expected)(op, result) == []

    config, paths = result
    csv_path = next(p for p in paths if p.suffix == ".csv")
    text = csv_path.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = text[3].split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-9))  # well past the golden's 1e-12
    text[3] = ",".join(cells) + ("" if cells[-1].endswith("\n") else "\n")
    csv_path.write_text("".join(text), encoding="utf-8")

    problems = workloads.OutputCheck(expected)(op, result)
    assert any("recorded fingerprint" in p for p in problems)
    assert any("golden" in p for p in problems)
    # Without pinned digests, the repeat check still sees the change.
    check = workloads.OutputCheck(None)
    assert check(op, op.run()) == []
    csv_path.write_text("".join(text), encoding="utf-8")
    assert any("earlier run" in p for p in check(op, result))


def _broken_hook(counts, args, kwargs, result):
    raise KeyError("field renamed")


def test_tracer_reports_vanished_functions_and_broken_counters_as_missing(tmp_path):
    targets = []
    for t in tracer.TARGETS:
        if t.name == "highway.run_highway_experiment":
            t = dataclasses.replace(t, lookups=("vscsim.highway:no_longer_here",))
        if t.name == "tables.write_csv":
            t = dataclasses.replace(t, hook=_broken_hook)
        targets.append(t)
    tr = tracer.Tracer(tuple(targets))
    op = _paper_op("highway-cluster", tmp_path)
    tr.install()
    try:
        op.run()
    finally:
        tr.uninstall()
    metrics = tr.metrics()
    assert metrics["highway.run_highway_experiment.self_s"] is None
    assert metrics["highway.vehicle_steps"] is None
    assert metrics["tables.rows_written"] is None
    assert metrics["tables.write_csv.self_s"] > 0
    assert metrics["runner.build_table.self_s"] > 0
    assert {"highway.run_highway_experiment", "tables.rows_written"} <= set(tr.missing())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "vscbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "paper", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
