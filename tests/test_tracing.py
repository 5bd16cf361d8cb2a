"""The benchmark's tracer records each experiment's model under runner.build_table.

The tracer (vscbench/tracer.py) wraps a model by rebinding the module
attribute callers look it up by.  A builder that reached its model through
a function object bound at import would run it untraced, and a traced
benchmark run would report its spans as missing without failing.
"""

import sys
from pathlib import Path

import pytest

import vscsim.runner
from vscsim.config import build_config
from vscsim.presets import get_preset

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "vscbench"))

import tracer  # noqa: E402

# One preset per experiment, and per ppp mode, with the span of the model its table runs.
MODEL_SPANS = {
    "fig4": "sweeps.run_sweep",
    "table1-case1": "intersection.run_intersection_case",
    "highway-cluster": "highway.run_highway_experiment",
    "perturbation": "highway.run_perturbation_study",
    "fig19": "sweeps.run_ppp_distance_curve",
    "ppp-demo": "sweeps.run_ppp_field_dump",
}


@pytest.mark.parametrize("preset", list(MODEL_SPANS))
def test_the_model_span_of_each_experiment_is_recorded_under_build_table(preset):
    config = build_config(get_preset(preset))
    probe = tracer.Tracer()
    probe.install()
    try:
        vscsim.runner.build_table(config)
    finally:
        probe.uninstall()
    parents = {name: probe.spans[parent][0] if parent >= 0 else None for name, _, _, parent, _ in probe.spans}
    assert parents.get(MODEL_SPANS[preset]) == "runner.build_table", parents
