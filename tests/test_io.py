import copy
import functools
import inspect
import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import vscsim.config
import vscsim.highway
import vscsim.intersection
import vscsim.sweeps
from vscsim.config import (
    EXPERIMENTS,
    PARAM_DEFAULTS,
    ConfigError,
    RunConfig,
    build_config,
    load_config,
    validate_config,
)
from vscsim.channel import ChannelParams
from vscsim.highway import HighwayWorld, check_delta, run_highway_experiment, run_perturbation_study
from vscsim.intersection import run_intersection_case
from vscsim.presets import PRESETS, get_preset, list_presets
from vscsim.runner import OUT_DIR_ENV, build_table, resolve_out_dir, run
from vscsim.sweeps import SWEEP_FIELDS, SWEEP_SCENARIOS
from vscsim.tables import (
    _BLOCK,
    ARTIFACT_VERSION,
    ResultTable,
    config_hash,
    emit_plot_data,
    read_csv,
    read_plot_data,
    write_csv,
)

SWEEP_DOC = {
    "name": "speed-sweep",
    "experiment": "sweep",
    "params": {
        "kind": "highway",
        "base": {"r": 1000.0, "v": 0.0, "tau": 0.2, "alpha": 1.4, "p_over_n0_db": 70.0},
        "param": "v",
        "grid": [10.0, 20.0, 30.0],
        "unit": "kmh",
        "param_label": "v_kmh",
    },
    "seed": 0,
}


def test_validate_accepts_good_doc():
    assert validate_config(SWEEP_DOC) == []


def test_validate_reports_every_violation_at_once():
    doc = {
        "experiment": "sweep",
        "bogus": 1,
        "seed": -2,
        "params": {
            "kind": "highway",
            "base": {"r": -5.0, "v": 0.0, "tau": 0.2, "alpha": 1.4},
            "param": "nonsense",
            "grid": [1.0, 3.0, 2.0],
        },
    }
    errors = validate_config(doc)
    joined = "\n".join(errors)
    assert len(errors) >= 5
    assert "$.bogus" in joined or "bogus" in joined
    assert "$.seed" in joined
    assert "$.params.base.r" in joined
    assert "p_over_n0_db" in joined  # missing required base field
    assert "$.params.param" in joined
    assert "$.params.grid" in joined


def test_validate_rejects_unknown_experiment_and_type():
    assert validate_config([]) == ["$: config must be a JSON object"]
    errors = validate_config({"experiment": "orbital"})
    assert any("$.experiment" in e for e in errors)


def test_validate_swept_param_not_required_in_base():
    doc = json.loads(json.dumps(SWEEP_DOC))
    del doc["params"]["base"]["v"]
    assert validate_config(doc) == []
    del doc["params"]["base"]["tau"]
    assert any("tau" in e for e in validate_config(doc))


@pytest.mark.parametrize(
    "grid, bad",
    [([-3.0, -2.0, -1.0], [0, 1, 2]), ([1.0, -1.0, 2.0], [1]), ([-1.0, 2.0, 1.0], [0]), ([0.5, 2.0], [])],
)
def test_sweep_grid_reports_every_value_out_of_the_field_bound(grid, bad):
    doc = json.loads(json.dumps(SWEEP_DOC))
    doc["params"].update(param="r", unit="si", grid=grid)
    del doc["params"]["base"]["r"]
    errors = [e.split(":")[0] for e in validate_config(doc) if e.startswith("$.params.grid[")]
    assert errors == [f"$.params.grid[{i}]" for i in bad]


def test_sweep_over_db_field_runs_in_db():
    doc = json.loads(json.dumps(SWEEP_DOC))
    params = doc["params"]
    params["base"]["v"] = 20.0
    del params["base"]["p_over_n0_db"]
    params.update(param="p_over_n0_db", grid=[40.0, 50.0], param_label="p_over_n0_db")
    assert any("needs unit 'db'" in e for e in validate_config(doc))
    params["unit"] = "db"
    for row in build_table(build_config(doc)).rows:
        assert row[1] == pytest.approx(oracles.highway_secrecy(72.0, 0.2, 1000.0, 1.4, row[0]), rel=1e-11)


def test_validate_series_overrides():
    doc = json.loads(json.dumps(SWEEP_DOC))
    doc["params"]["series"] = [{"label": "a", "overrides": {"alpha": -1.0}}]
    assert any("series[0].overrides.alpha" in e for e in validate_config(doc))


def test_required_field_may_come_from_every_series():
    doc = json.loads(json.dumps(SWEEP_DOC))
    del doc["params"]["base"]["alpha"]
    doc["params"]["series"] = [
        {"label": "a14", "overrides": {"alpha": 1.4}},
        {"label": "a16", "overrides": {"alpha": 1.6}},
    ]
    assert validate_config(doc) == []
    table = build_table(build_config(doc))
    assert list(table.columns) == ["v_kmh", "a14", "a16"]
    assert len(table.rows) == 3
    del doc["params"]["series"][0]["overrides"]["alpha"]
    assert validate_config(doc) == [
        "$.params.series[0].overrides.alpha: "
        "required for kind 'highway' unless swept or set in the base"
    ]
    del doc["params"]["series"][1]["overrides"]["alpha"]
    assert validate_config(doc) == ["$.params.base.alpha: required for kind 'highway' unless swept"]


def _sweep_doc(**params):
    return {"experiment": "sweep", "params": {**SWEEP_DOC["params"], **params}}


@pytest.mark.parametrize(
    "doc, path",
    [
        ({"experiment": "highway_cluster", "params": {"alpha": float("nan")}}, "$.params.alpha"),
        (_sweep_doc(base={**SWEEP_DOC["params"]["base"], "r": float("inf")}), "$.params.base.r"),
        (_sweep_doc(grid=[10.0, float("nan"), 30.0]), "$.params.grid[1]"),
    ],
)
def test_validate_rejects_non_finite_numbers(doc, path):
    assert validate_config(doc) == [f"{path}: must be a finite number"]


@pytest.mark.parametrize(
    "doc, errors",
    [
        ({"experiment": "intersection", "params": {"case": 10**400}},
         [f"$.params.case: {10**400} is greater than the maximum of 6"]),
        ({"experiment": "highway_cluster", "params": {"n_nodes": -(10**400)}},
         [f"$.params.n_nodes: {-(10**400)} is less than the minimum of 2"]),
        # a number node refuses the value by type alone: no second error with a 401-digit repr
        ({"experiment": "ppp", "params": {"alpha": -(10**400)}}, ["$.params.alpha: must be a finite number"]),
        ({"experiment": "intersection", "params": {"case": 0.0}},
         ["$.params.case: 0.0 is not of type 'integer'", "$.params.case: 0.0 is less than the minimum of 1"]),
    ],
    ids=["case", "n_nodes", "alpha", "case_float"],
)
def test_validate_compares_ints_past_the_float_range_only_at_integer_nodes(doc, errors):
    assert validate_config(doc) == errors


def test_validate_highway_cluster_source_count():
    doc = {"experiment": "highway_cluster", "params": {"n_nodes": 3, "n_sources": 3}}
    assert any("n_sources" in e for e in validate_config(doc))
    doc["params"]["n_sources"] = 2
    assert validate_config(doc) == []


@pytest.mark.parametrize(
    "doc, path",
    [
        ({"experiment": "highway_cluster", "seed": 0.0}, "$.seed"),
        ({"experiment": "perturbation", "params": {"n_nodes": 1e6}}, "$.params.n_nodes"),
        ({"experiment": "ppp", "seed": 7.0}, "$.seed"),
        ({"experiment": "intersection", "params": {"case": 1.0}}, "$.params.case"),
    ],
)
def test_validate_rejects_floats_in_integer_fields(doc, path):
    assert [e.split(":")[0] for e in validate_config(doc)] == [path]
    with pytest.raises(ConfigError):
        build_config(doc)


@pytest.mark.parametrize("experiment", ["highway_cluster", "perturbation"])
def test_validate_rejects_zero_step_runs(experiment):
    doc = {"experiment": experiment, "params": {"duration_s": 0.01}}
    assert validate_config(doc) == ["$.params: duration_s must cover at least one dt_s step"]
    doc["params"]["dt_s"] = 0.01
    assert validate_config(doc) == []


@pytest.mark.parametrize("experiment", ["highway_cluster", "perturbation"])
def test_validate_rejects_overflowing_step_count(experiment):
    doc = {"experiment": experiment, "params": {"duration_s": 1e300, "dt_s": 1e-10}}
    assert validate_config(doc) == [
        "$.params: duration_s / dt_s overflows: the step count is not finite"
    ]


def test_validate_perturbation_delta():
    doc = {"experiment": "perturbation", "params": {"delta_m": 0.0}}
    assert any("delta_m" in e for e in validate_config(doc))


def test_validate_and_run_agree_on_uncalibrated_delta(tmp_path):
    short = {"n_nodes": 6, "duration_s": 1.0}
    doc = {"experiment": "perturbation", "params": {**short, "delta_m": 3.0}}
    assert validate_config(doc) == [
        "$.params.delta_m: perturbation is calibrated for +/-5 m; set allow_custom_delta to override"
    ]
    doc["params"]["allow_custom_delta"] = True
    assert validate_config(doc) == []
    assert [p.name for p in run(build_config(doc), str(tmp_path))] == ["perturbation.csv"]
    for delta in (5.0, -5.0):
        assert validate_config({"experiment": "perturbation", "params": {"delta_m": delta}}) == []


def test_validate_reports_a_bad_world_and_a_bad_shift():
    doc = {"experiment": "perturbation", "params": {"n_nodes": 3, "n_sources": 3, "delta_m": 0.0}}
    assert validate_config(doc) == [
        "$.params: n_sources must leave at least one target",
        "$.params.delta_m: delta_m must be non-zero",
    ]


def test_validate_intersection_spans():
    doc = {"experiment": "intersection", "params": {"case": 1, "host_span": [5.0, -5.0]}}
    assert any("host_span" in e for e in validate_config(doc))


def test_build_config_fills_defaults():
    cfg = build_config({"experiment": "intersection", "params": {"case": 2}})
    assert isinstance(cfg, RunConfig)
    assert cfg.name == "intersection"
    assert cfg.seed == 0
    assert cfg.params["dt_s"] == 0.1
    assert cfg.params["speed_kmh"] == 35.0
    assert cfg.emit_csv and not cfg.emit_plot_data
    # defaults exist for every experiment
    assert set(PARAM_DEFAULTS) == set(EXPERIMENTS)


def test_param_defaults_are_pinned():
    # the provenance hash of every run covers these values
    assert config_hash(PARAM_DEFAULTS) == "63e0a4be2ab8"
    for experiment in ("intersection", "highway_cluster", "perturbation"):
        assert all(type(v) is not tuple for v in PARAM_DEFAULTS[experiment].values())


def test_highway_cluster_defaults_map_to_default_world():
    cfg = build_config({"experiment": "highway_cluster"})
    assert HighwayWorld(seed=cfg.seed, **cfg.params) == HighwayWorld()


# Experiment -> the models whose keywords its params are, and the models that default them.
KEYWORD_MODELS = {
    "highway_cluster": ((HighwayWorld,), (HighwayWorld,)),
    "perturbation": ((HighwayWorld, check_delta), (HighwayWorld, run_perturbation_study)),
    "intersection": ((run_intersection_case,), (run_intersection_case,)),
}


@pytest.mark.parametrize("experiment", list(KEYWORD_MODELS))
def test_each_config_key_is_the_keyword_of_the_model_it_sets(experiment):
    models, defaulting = KEYWORD_MODELS[experiment]
    keywords = {name for model in models for name in inspect.signature(model).parameters} - {"seed"}
    assert set(vscsim.config.EXPERIMENT_RECORDS[experiment].keys) == keywords
    # Every keyword set to its model's default, as a JSON document holds it, runs as the defaults do.
    required = {"case": 3} if experiment == "intersection" else {}
    params = {
        name: list(p.default) if isinstance(p.default, tuple) else p.default
        for model in defaulting
        for name, p in inspect.signature(model).parameters.items()
        if name in keywords and p.default is not p.empty
    }
    assert set(params) | set(required) == keywords
    doc = {"experiment": experiment, "params": {**params, **required}}
    assert validate_config(doc) == []
    got = build_table(build_config(doc))
    assert got.rows == build_table(build_config({"experiment": experiment, "params": required})).rows


def test_intersection_defaults_map_to_default_case():
    cfg = build_config({"experiment": "intersection", "params": {"case": 3}})
    got = run_intersection_case(**cfg.params)
    want = run_intersection_case(3)
    assert got.capacities.tobytes() == want.capacities.tobytes()
    assert got.distances.tobytes() == want.distances.tobytes()


@pytest.mark.parametrize("doc", [
    {"experiment": "perturbation", "params": {"n_nodes": 6, "n_sources": 2, "duration_s": 1.0}},
    {"experiment": "intersection", "params": {"case": 3}},
], ids=["perturbation", "intersection"])
def test_each_model_keyword_reaches_one_call_that_takes_it(monkeypatch, doc):
    calls = []

    def record(module, name):
        model = getattr(module, name)

        @functools.wraps(model)
        def recorded(*args, **kwargs):
            calls.append((model, set(kwargs) - {"seed"}))
            return model(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)

    for name in ("HighwayWorld", "check_delta", "make_case"):
        record(vscsim.config, name)
    record(vscsim.highway, "run_perturbation_study")
    record(vscsim.intersection, "run_intersection_case")
    cfg = build_config(doc)
    experiment = vscsim.config.EXPERIMENT_RECORDS[cfg.experiment]
    _, planned = experiment.plan(cfg.params)
    # The plan's checks (validate_config), then the models the builder runs on the plan.
    for phase in (lambda: validate_config(doc), lambda: experiment.build(planned, cfg.seed)):
        calls.clear()
        phase()
        passed = [kw for _, kws in calls for kw in kws]
        assert len(passed) == len(set(passed)), calls
        assert all(kws <= set(inspect.signature(model).parameters) for model, kws in calls)
    assert sorted(passed) == sorted(cfg.params)  # the run passes every keyword


@pytest.mark.parametrize("mode", ["distance_curve", "field_dump"])
def test_ppp_params_reach_the_model_of_their_mode_by_keyword(monkeypatch, mode):
    calls = []
    model = getattr(vscsim.sweeps, f"run_ppp_{mode}")

    def bare(*args, **kwargs):  # no signature of its own, as a tracer's wrapper
        calls.append((args, kwargs))
        return model(*args, **kwargs)

    monkeypatch.setattr(vscsim.sweeps, f"run_ppp_{mode}", bare)
    build_table(build_config({"experiment": "ppp", "params": {"mode": mode, "p_over_n0_db": 60.0}}))
    [(args, kwargs)] = calls
    assert args == ()
    assert set(kwargs) == set(inspect.signature(model).parameters)
    assert kwargs["p_over_n0"] == 1e6  # linear


@pytest.mark.parametrize(
    "doc, where",
    [
        ({"experiment": "highway_cluster", "params": {"n_sources": "a"}}, "$.params.n_sources"),
        ({"experiment": "perturbation", "params": {"n_nodes": None, "delta_m": "x"}}, "$.params.delta_m"),
        ({"experiment": "intersection", "params": {"case": 1, "host_span": ["a", 1]}}, "$.params.host_span[0]"),
        (
            {"experiment": "sweep", "params": {"kind": ["highway"], "base": {}, "param": "v", "grid": [1.0]}},
            "$.params.kind",
        ),
        ({"experiment": "sweep", "params": {**SWEEP_DOC["params"], "series": 5}}, "$.params.series"),
    ],
)
def test_validate_reports_wrongly_typed_fields(doc, where):
    errors = validate_config(doc)
    assert any(e.startswith(where + ":") for e in errors)
    with pytest.raises(ConfigError):
        build_config(doc)


# Values a JSON document may hold where a model field takes a number.  bool is left
# out: a model takes a bool as the number it holds, and config refuses it.
FIELD_PROBES = [0.0, -1.0, 5e-324, 1e308, 10**400, math.nan, "x", None]
# Kind -> its sweep fields by config name, and a value each field takes.
SWEEP_CONFIG_FIELDS = {
    kind: [{"p_over_n0": "p_over_n0_db"}.get(f, f) for f in fields] for kind, fields in SWEEP_FIELDS.items()
}
SWEEP_VALUES = {
    "p_over_n0_db": 70.0, "alpha": 1.4, "r": 1000.0, "v": 20.0, "tau": 0.2, "lane_width_w": 3.0,
    "v_limit": 10.0, "t": 0.1, "r0": 20.0, "p_a": 1.0, "p_r": 0.5, "h_ab_sq": 1.0, "h_rb_sq": 0.1,
    "h_ae_sq": 0.2, "h_re_sq": 1.0, "sigma_b_sq": 1.0, "sigma_e_sq": 1.0, "bandwidth_hz": 1.0,
}


def _takes(build) -> bool:
    """Whether build() returns rather than raising ValueError."""
    try:
        build()
    except ValueError:
        return False
    return True


def _sweep_case(kind, name, value):
    """(doc, config path of the value, whether the kind's scenario takes it) for a sweep
    whose base sets name to value and every other field to one it takes."""
    fields = SWEEP_CONFIG_FIELDS[kind]
    param = next(f for f in fields if f not in (name, "p_over_n0_db"))
    base = {**{f: SWEEP_VALUES[f] for f in fields if f != param}, name: value}
    params = {"kind": kind, "base": base, "param": param, "grid": [SWEEP_VALUES[param]]}

    def build():  # the scenario of one grid point, as the run builds it
        kwargs = {**vscsim.config._scenario_values(base), param: SWEEP_VALUES[param]}
        if kind == "relay":
            return SWEEP_SCENARIOS[kind](**kwargs)
        return SWEEP_SCENARIOS[kind](ChannelParams(kwargs.pop("p_over_n0"), kwargs.pop("alpha")), **kwargs)

    return {"experiment": "sweep", "params": params}, f"$.params.base.{name}", _takes(build)


def _highway_case(key, value):
    params = {"n_nodes": 6, "duration_s": 1.0, key: value}
    doc = {"experiment": "highway_cluster", "params": params}
    return doc, f"$.params.{key}", _takes(lambda: HighwayWorld(**params))


FIELD_CASES = [
    *(pytest.param(_sweep_case, (kind, name), id=f"{kind}.{name}")
      for kind, names in SWEEP_CONFIG_FIELDS.items() for name in names),
    *(pytest.param(_highway_case, (key,), id=f"highway_cluster.{key}") for key in PARAM_DEFAULTS["highway_cluster"]),
]


@pytest.mark.parametrize("case, args", FIELD_CASES)
def test_config_and_model_refuse_the_same_field_values(case, args):
    disagreements = []
    for value in FIELD_PROBES:
        doc, path, taken = case(*args, value)
        errors = validate_config(doc)
        # The schema reports a bound at the field's path; a model's own refusal of
        # the document is at $.params.
        assert all(e.startswith((f"{path}: ", "$.params: ")) for e in errors), errors
        if bool(errors) == taken:
            disagreements.append((value, errors))
    assert disagreements == []


def test_build_config_raises_collected_errors():
    with pytest.raises(ConfigError) as exc_info:
        build_config({"experiment": "sweep", "params": {"kind": "highway"}})
    assert len(exc_info.value.errors) >= 2
    assert "invalid config" in str(exc_info.value)


def test_canonical_excludes_output_routing():
    base = {"experiment": "intersection", "params": {"case": 1}}
    a = build_config(dict(base))
    b = build_config({**base, "out_dir": "/tmp/elsewhere", "emit": {"plot_data": True}})
    assert a.canonical == b.canonical
    assert config_hash(a.canonical) == config_hash(b.canonical)
    c = build_config({**base, "seed": 9})
    assert config_hash(a.canonical) != config_hash(c.canonical)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SWEEP_DOC), encoding="utf-8")
    cfg = load_config(path)
    assert cfg.name == "speed-sweep"
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_config_hash_is_order_independent():
    a = {"x": 1, "y": {"b": 2, "a": 3}}
    b = {"y": {"a": 3, "b": 2}, "x": 1}
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 12


def test_result_table_shape_check():
    with pytest.raises(ValueError):
        ResultTable.from_rows(["a", "b"], [(1.0,)])
    t = ResultTable.from_rows(["a", "b"], [(1.0, 2.0), (3.0, 4.0)])
    assert t.column("b") == [2.0, 4.0]
    with pytest.raises(ValueError):
        t.column("zz")


def test_result_table_column_checks():
    with pytest.raises(ValueError, match="2 data columns for 1 names"):
        ResultTable(["a"], [[1.0], [2.0]])
    with pytest.raises(ValueError, match="differ in length"):
        ResultTable(["a", "b"], [[1.0, 2.0], [3.0]])
    t = ResultTable(["a", "b"], [[1.0, 3.0], ["x", "y"]])
    assert t.rows == [(1.0, "x"), (3.0, "y")]
    assert t == ResultTable.from_rows(["a", "b"], t.rows)
    empty = ResultTable.from_rows(("a", "b"), [])
    assert empty.columns == ["a", "b"] and empty.data == [[], []] and empty.rows == []


# Cells of every type a producer may hand the writers, numpy scalars included.
_CELL_KINDS = [
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.text(alphabet='ab ,"-#\n\r', max_size=4),
    # equal values whose texts differ (0.0 == -0.0), or that equal nothing (nan)
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
]
# Up to 6 rows, or a count next to the writers' block size.
_ROW_COUNTS = st.one_of(st.integers(0, 6), st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]))
_PROVENANCE = {"config": "abc", "seed": "1"}


@st.composite
def _tables(draw):
    """Tables whose columns each hold one cell type or a mix of them. A
    column repeats a drawn pattern of up to 6 cells, tiled (a b a b) or
    each cell in a run (a a b b), as the link tables' columns do."""
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(_ROW_COUNTS)
    data = []
    for _ in range(n_cols):
        cells = draw(st.sampled_from([st.one_of(_CELL_KINDS), *_CELL_KINDS]))
        size = draw(st.integers(1, min(n_rows, 6))) if n_rows else 0
        pattern = draw(st.lists(cells, min_size=size, max_size=size))
        if draw(st.booleans()):
            column = [pattern[i % size] for i in range(n_rows)]
        else:
            column = [pattern[i * size // n_rows] for i in range(n_rows)]
        data.append(column)
    return ResultTable([f"c{i}" for i in range(n_cols)], data, dict(_PROVENANCE))


@settings(max_examples=200, deadline=None)
@given(table=_tables())
@example(table=ResultTable(["c0", "c1"], [[], []], dict(_PROVENANCE)))
@example(table=ResultTable(["c0"], [["", "a", "", "b\r"]], dict(_PROVENANCE)))
@example(table=ResultTable([""], [[""] * (_BLOCK + 1)], dict(_PROVENANCE)))
def test_writers_match_cell_by_cell_reference(table, tmp_path_factory):
    out = tmp_path_factory.mktemp("writers")
    head = "# vscsim 0.1.0 config=abc seed=1\n"
    rows = [table.columns, *([oracles.csv_cell(v) for v in row] for row in table.rows)]
    write_csv(table, out / "t.csv")
    assert (out / "t.csv").read_bytes() == (head + oracles.csv_text(rows)).encode("utf-8")
    words = [
        oracles.plot_word(text, i == 0)
        for i, (name, column) in enumerate(zip(table.columns, table.data))
        for text in [name, *column]
        if isinstance(text, str)
    ]
    if not all(words):
        with pytest.raises(ValueError, match="does not read back"):
            emit_plot_data(table, out / "t.dat")
        assert not (out / "t.dat").exists()
        return
    plot = "".join(" ".join(map(oracles.plot_cell, row)) + "\n" for row in table.rows)
    emit_plot_data(table, out / "t.dat")
    want = head + "# " + " ".join(table.columns) + "\n" + plot
    assert (out / "t.dat").read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize("column", [[1, True], [np.bool_(False)], [2.0, "a", True], [np.int64(3), False]])
def test_csv_rejects_boolean_cells_in_any_column(tmp_path, column):
    path = tmp_path / "x.csv"
    write_csv(ResultTable(["a"], [[1]]), path)
    before = path.read_bytes()
    for table in [ResultTable(["flag"], [column]), ResultTable(["a", "flag"], [list(range(len(column))), column])]:
        with pytest.raises(ValueError, match="column 'flag' holds a boolean"):
            write_csv(table, path)
        assert path.read_bytes() == before  # refused before the file is opened


@pytest.mark.parametrize("experiment", ["highway_cluster", "perturbation"])
def test_link_tables_match_row_by_row_layout(experiment):
    doc = {
        "name": "links",
        "experiment": experiment,
        "params": {"n_nodes": 12, "n_sources": 3, "duration_s": 2.0},
        "seed": 5,
    }
    config = build_config(doc)
    kwargs = dict(config.params)
    if experiment == "highway_cluster":
        want = oracles.highway_rows(run_highway_experiment(HighwayWorld(seed=5, **kwargs)))
    else:
        delta, allow = kwargs.pop("delta_m"), kwargs.pop("allow_custom_delta")
        res = run_perturbation_study(HighwayWorld(seed=5, **kwargs), delta, allow)
        want = oracles.perturbation_rows(res)
    got = build_table(config).rows
    assert len(got) == 20 * 3
    assert got == want
    assert [tuple(map(type, row)) for row in got] == [tuple(map(type, row)) for row in want]


def test_csv_round_trip_and_provenance(tmp_path):
    table = ResultTable.from_rows(
        ["v_kmh", "cs"],
        [(10.0, 25.57190763123867), (20.0, 0.1), (30.0, -1.5)],
        {"version": ARTIFACT_VERSION, "config": "abc123def456", "seed": "0"},
    )
    path = tmp_path / "out.csv"
    write_csv(table, path)
    text = path.read_text(encoding="utf-8")
    assert text.startswith(f"# vscsim {ARTIFACT_VERSION} config=abc123def456 seed=0\n")
    assert "\r" not in text
    back = read_csv(path)
    assert back.columns == table.columns
    assert back.rows == table.rows
    assert back.provenance["config"] == "abc123def456"
    assert back.provenance["seed"] == "0"


def test_csv_floats_survive_exactly(tmp_path):
    # repr round-trip: every float comes back bit-identical
    import numpy as np

    rng = np.random.default_rng(2)
    rows = [(float(x),) for x in rng.uniform(-1e8, 1e8, 200)]
    path = tmp_path / "floats.csv"
    write_csv(ResultTable.from_rows(["x"], rows), path)
    back = read_csv(path)
    assert back.rows == rows


def test_csv_mixed_cell_types(tmp_path):
    table = ResultTable.from_rows(["t_s", "source_id", "cs"], [(0.1, "n00", 1.5), (0.2, "n01", -0.25)])
    path = tmp_path / "mixed.csv"
    write_csv(table, path)
    back = read_csv(path)
    assert back.rows[0] == (0.1, "n00", 1.5)
    assert isinstance(back.rows[0][1], str)


def test_csv_text_cells_with_a_carriage_return_read_back(tmp_path):
    # csv.writer leaves a lone "\r" bare, and csv.reader splits a row there
    table = ResultTable(["id", "x"], [["cr\rhere", "a\r\nb", "\r", "plain"], [1.5, 2.5, 3.5, 4.5]])
    path = tmp_path / "cr.csv"
    write_csv(table, path)
    assert path.read_bytes().split(b"\n")[2] == b'"cr\rhere",1.5'
    assert read_csv(path).rows == table.rows


def test_csv_write_holds_one_block_of_text_at_a_time(tmp_path):
    """The formatted text of a 1000-vehicle, 100-source perturbation table
    (10^4 rows, 9 columns) is about 1.4 MB; a write holds a block of it."""
    doc = {
        "name": "fleet",
        "experiment": "perturbation",
        "params": {"n_nodes": 1000, "n_sources": 100, "duration_s": 10.0},
        "seed": 3,
    }
    table = build_table(build_config(doc))
    assert len(table.columns) == 9 and len(table.data[0]) == 10**4
    tracemalloc.start()
    try:
        write_csv(table, tmp_path / "fleet.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "fleet.csv").stat().st_size > 10**6
    assert peak < 10**6


def test_csv_missing_provenance_rejected(tmp_path):
    path = tmp_path / "noprov.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_csv(path)


def test_plot_data_round_trip(tmp_path):
    table = ResultTable.from_rows(
        ["v_kmh", "cs"],
        [(10.0, 25.571907631), (120.0, 15.525)],
        {"config": "deadbeef0000", "seed": "3"},
    )
    path = tmp_path / "out.dat"
    emit_plot_data(table, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# vscsim")
    assert lines[1] == "# v_kmh cs"
    assert lines[2].split() == ["10", "25.5719076"]
    back = read_plot_data(path)
    assert back.columns == ["v_kmh", "cs"]
    assert back.rows[0][1] == pytest.approx(25.571907631, rel=1e-8)
    assert back.provenance["seed"] == "3"


@pytest.mark.parametrize(
    "table, bad",
    [
        (ResultTable(["v", "my label"], [[1.0], [2.0]]), "my label"),
        (ResultTable(["#v", "x"], [[1.0], [2.0]]), "#v"),
        (ResultTable(["v", "x"], [[1.0, 2.0], ["a", ""]]), "x"),
        (ResultTable(["v", "x"], [[1.0], ["tab\there"]]), "x"),
        (ResultTable(["x", "v"], [["a", "#b"], [1.0, 2.0]]), "x"),
        (ResultTable(["x", "v"], [[1, "two words"], [1.0, 2.0]]), "x"),
    ],
)
def test_plot_data_rejects_cells_that_do_not_read_back(tmp_path, table, bad):
    with pytest.raises(ValueError, match=f"column '{bad}'"):
        emit_plot_data(table, tmp_path / "bad.dat")
    assert not (tmp_path / "bad.dat").exists()


def test_plot_data_reads_back_a_hash_past_the_first_column(tmp_path):
    table = ResultTable(["v", "x"], [[1.0, 2.0], ["#a", "b#"]])
    emit_plot_data(table, tmp_path / "ok.dat")
    assert read_plot_data(tmp_path / "ok.dat").rows == table.rows


def test_build_table_stamps_provenance():
    cfg = build_config(SWEEP_DOC)
    table = build_table(cfg)
    assert table.provenance["version"] == ARTIFACT_VERSION
    assert table.provenance["config"] == config_hash(cfg.canonical)
    assert table.provenance["seed"] == "0"
    assert table.columns == ["v_kmh", "cs"]
    assert len(table.rows) == 3


@pytest.mark.parametrize("experiment, params, message", [
    ("intersection", {}, "$.params: 'case' is a required property"),
    ("sweep", {k: v for k, v in {**PARAM_DEFAULTS["sweep"], **SWEEP_DOC["params"]}.items() if k != "unit"},
     "$.params: 'unit' is a required property"),
    ("perturbation", {**PARAM_DEFAULTS["highway_cluster"]}, "$.params: 'delta_m' is a required property"),
    ("ppp", {k: v for k, v in PARAM_DEFAULTS["ppp"].items() if k != "mode"}, "$.params: 'mode' is a required property"),
    ("nope", {}, "$.experiment: 'nope' is not one of " + repr(list(EXPERIMENTS))),
], ids=["intersection-case", "sweep-unit", "perturbation-delta", "ppp-mode", "unknown-experiment"])
def test_build_table_refuses_a_hand_built_config_in_validate_words(experiment, params, message):
    config = RunConfig("x", experiment, params, 0, None, True, False)
    with pytest.raises(ConfigError) as refused:
        build_table(config)
    assert message in refused.value.errors


def test_runner_writes_requested_outputs(tmp_path):
    doc = json.loads(json.dumps(SWEEP_DOC))
    doc["emit"] = {"csv": True, "plot_data": True}
    cfg = build_config(doc)
    paths = run(cfg, out_dir=str(tmp_path))
    assert [p.name for p in paths] == ["speed-sweep.csv", "speed-sweep.dat"]
    assert all(p.exists() for p in paths)
    back = read_csv(paths[0])
    assert back.columns == ["v_kmh", "cs"]


def test_runner_byte_identical_reruns(tmp_path):
    cfg = build_config(json.loads(json.dumps(SWEEP_DOC)))
    a = run(cfg, out_dir=str(tmp_path / "a"))[0]
    b = run(cfg, out_dir=str(tmp_path / "b"))[0]
    assert a.read_bytes() == b.read_bytes()


def test_out_dir_precedence(tmp_path, monkeypatch):
    cfg_none = build_config({"experiment": "intersection", "params": {"case": 1}})
    cfg_set = build_config(
        {"experiment": "intersection", "params": {"case": 1}, "out_dir": "/cfg/dir"}
    )
    monkeypatch.delenv(OUT_DIR_ENV, raising=False)
    assert resolve_out_dir(cfg_none) == Path.cwd()
    assert str(resolve_out_dir(cfg_set)) == "/cfg/dir"
    assert str(resolve_out_dir(cfg_set, "/flag/dir")) == "/flag/dir"
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
    assert resolve_out_dir(cfg_none) == tmp_path
    assert str(resolve_out_dir(cfg_set)) == "/cfg/dir"


def test_presets_all_validate():
    names = list_presets()
    assert len(names) == len(PRESETS)
    for name in names:
        doc = get_preset(name)
        assert validate_config(doc) == [], f"preset {name} must validate"


def test_preset_expected_names_present():
    names = set(list_presets())
    expected = {
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig11",
        "fig12",
        "fig13",
        "fig15",
        "fig17",
        "fig19",
        "highway-cluster",
        "perturbation",
        "ppp-demo",
    } | {f"table1-case{i}" for i in range(1, 7)}
    assert expected <= names


def test_preset_copies_are_independent():
    a = get_preset("fig4")
    a["seed"] = 99
    a["params"]["grid"][0] = -1.0
    b = get_preset("fig4")
    assert b["seed"] == 0
    assert b["params"]["grid"][0] == 10.0
    with pytest.raises(KeyError):
        get_preset("fig999")


# Python's json parses NaN, +-Infinity and ints of any size.
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 30)
    | st.sampled_from([10**400, -(10**400), 2**1024])
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_PARAM_KEYS = sorted(
    {key for defaults in PARAM_DEFAULTS.values() for key in defaults}
    | {"kind", "base", "param", "grid", "param_label", "case"}
)


@settings(max_examples=300, deadline=None)
@example(experiment="highway_cluster", params={"duration_s": 10**400})
@example(experiment="highway_cluster", params={"dt_s": 10**400})
@example(experiment="sweep", params={"kind": "highway", "param": "v", "grid": [10**400, 2.0]})
@given(
    experiment=st.sampled_from(EXPERIMENTS),
    params=st.dictionaries(st.sampled_from(_PARAM_KEYS), _JSON_VALUES, max_size=5),
)
def test_validate_config_reports_instead_of_raising(experiment, params):
    doc = {"experiment": experiment, "params": params}
    errors = validate_config(doc)
    assert all(isinstance(e, str) for e in errors)
    if errors:
        with pytest.raises(ConfigError):
            build_config(doc)


# Every schema the config checks: its nested ones are found by _subschemas.
_SCHEMAS = [
    vscsim.config._TOP_SCHEMA, *(record.schema for record in vscsim.config.EXPERIMENT_RECORDS.values()),
    *vscsim.config._FIELD_BOUNDS.values(),
]
# The keywords config._schema_walk has a branch for.
_WALKED_KEYWORDS = {
    "type", "enum", "properties", "required", "additionalProperties", "minimum", "exclusiveMinimum", "maximum",
    "items", "minItems", "maxItems", "minLength", "pattern",
}


def _subschemas(schema):
    yield schema
    for subschema in schema.get("properties", {}).values():
        yield from _subschemas(subschema)
    if "items" in schema:
        yield from _subschemas(schema["items"])


def test_every_schema_keyword_is_one_the_walker_checks():
    for schema in _SCHEMAS:
        for subschema in _subschemas(schema):
            assert set(subschema) <= _WALKED_KEYWORDS, subschema
            types = subschema.get("type", [])
            assert set(types if isinstance(types, list) else [types]) <= set(vscsim.config._TYPES), subschema
            # the walker reads additionalProperties as false, and compares enum members with ==
            assert subschema.get("additionalProperties", False) is False, subschema
            assert all(isinstance(member, str) for member in subschema.get("enum", [])), subschema


# A mutation sets one of these (json.load reads NaN, +-Infinity and ints of any size) under a
# key of some schema, or an unknown one.
_MUTANT_VALUES = [True, False, 0.0, -1, 5e-324, 10**400, -(10**400), math.nan, math.inf, -math.inf,
                  "", "x", [], {}, None]
_MUTANT_KEYS = sorted(
    {key for schema in _SCHEMAS for subschema in _subschemas(schema) for key in subschema.get("properties", {})}
    | set(vscsim.config._FIELD_BOUNDS) | {"x"}
)
_MUTANT_DOCS = [get_preset(name) for name in list_presets()] + [{"experiment": e} for e in EXPERIMENTS]


def _containers(node):
    """Every dict and list in a document, itself first."""
    if isinstance(node, (dict, list)):
        yield node
        for child in node.values() if isinstance(node, dict) else node:
            yield from _containers(child)


@st.composite
def _mutants(draw):
    """A preset or bare document with one to three keys or items replaced, deleted or added."""
    doc = copy.deepcopy(draw(st.sampled_from(_MUTANT_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from(list(_containers(doc))))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        value = copy.deepcopy(draw(st.sampled_from(_MUTANT_VALUES)))
        action = draw(st.sampled_from(["replace", "delete", "add"] if keys else ["add"]))
        if action == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(_MUTANT_KEYS))] = value
        elif action == "add":
            node.append(value)
        elif action == "replace":
            node[draw(st.sampled_from(keys))] = value
        else:
            del node[draw(st.sampled_from(keys))]
    return doc


@settings(max_examples=600, deadline=None)
@given(doc=_mutants())
def test_validate_config_matches_the_jsonschema_oracle(doc):
    with mock.patch.object(vscsim.config, "_schema_errors", oracles.schema_errors):
        expected = validate_config(doc)
    assert validate_config(doc) == expected
