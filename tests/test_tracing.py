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


def _traced_table(preset):
    """The preset's table, built under a tracer, and the tracer."""
    config = build_config(get_preset(preset))
    probe = tracer.Tracer()
    probe.install()
    try:
        table = vscsim.runner.build_table(config)
    finally:
        probe.uninstall()
    return table, config, probe


@pytest.mark.parametrize("preset", list(MODEL_SPANS))
def test_the_model_span_of_each_experiment_is_recorded_under_build_table(preset):
    _, _, probe = _traced_table(preset)
    parents = {name: probe.spans[parent][0] if parent >= 0 else None for name, _, _, parent, _ in probe.spans}
    assert parents.get(MODEL_SPANS[preset]) == "runner.build_table", parents


# Nearest-link searches of each highway preset, every one over all (step, source) links:
# the perturbation study searches the baseline and the shifted sources.
LINK_SEARCHES = {"highway-cluster": 1, "perturbation": 2}


@pytest.mark.parametrize("preset, searches", LINK_SEARCHES.items())
def test_the_highway_counters_count_vehicle_steps_and_links(preset, searches):
    table, config, probe = _traced_table(preset)
    n_steps = len({row[0] for row in table.rows})  # one t_s per step
    assert n_steps == round(config.params["duration_s"] / config.params["dt_s"])
    assert len(table.rows) == n_steps * config.params["n_sources"]  # one row per (step, source) link
    assert probe.counts["highway.vehicle_steps"] == n_steps * config.params["n_nodes"]
    assert probe.counts["highway.link_evals"] == searches * len(table.rows)
