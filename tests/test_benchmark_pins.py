"""The benchmark's seed-0 outputs, checked in the test suite.

    PYTHONPATH=src python3 -m pytest -q tests/test_benchmark_pins.py

`vscbench/expected.json` pins a fingerprint of every operation's output
for seed 0 at full size, and `vscbench/run.py` reports `correct: false`
when an output differs from its pin.  This runs each distinct operation
of the `fleet`, `stochastic` and `protocol` workloads once and checks it
as the benchmark does; the `paper` workload writes the preset files that
`tests/preset_manifest.json` pins.  The pins hold float bits of numpy and
libm results, so like `tests/preset_manifest.json` they are tied to the
platform they were recorded on.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "vscbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["fleet", "stochastic", "protocol"])
def test_seed_0_outputs_match_the_benchmark_pins(name, tmp_path):
    seed = workloads.RECORDED_SEED
    expected = workloads.load_expected(name, seed, "full")
    assert expected is not None
    check = workloads.OutputCheck(expected)
    ops = {op.key: op for op in workloads.build(name, seed, "full", tmp_path).ops}
    assert set(ops) == set(expected)
    for op in ops.values():
        assert check(op, op.run()) == []
