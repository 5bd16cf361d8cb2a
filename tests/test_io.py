import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from vscsim.config import (
    EXPERIMENTS,
    PARAM_DEFAULTS,
    ConfigError,
    RunConfig,
    build_config,
    load_config,
    model_kwargs,
    validate_config,
)
from vscsim.highway import HighwayWorld
from vscsim.intersection import run_intersection_case
from vscsim.presets import PRESETS, get_preset, list_presets
from vscsim.runner import OUT_DIR_ENV, build_table, resolve_out_dir, run
from vscsim.tables import (
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


def test_validate_highway_cluster_source_count():
    doc = {"experiment": "highway_cluster", "params": {"n_nodes": 3, "n_sources": 3}}
    assert any("n_sources" in e for e in validate_config(doc))
    doc["params"]["n_sources"] = 2
    assert validate_config(doc) == []


def test_validate_perturbation_delta():
    doc = {"experiment": "perturbation", "params": {"delta_m": 0.0}}
    assert any("delta_m" in e for e in validate_config(doc))


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
    assert HighwayWorld(seed=cfg.seed, **model_kwargs(cfg.params)) == HighwayWorld()


def test_intersection_defaults_map_to_default_case():
    cfg = build_config({"experiment": "intersection", "params": {"case": 3}})
    got = run_intersection_case(**model_kwargs(cfg.params))
    want = run_intersection_case(3)
    assert got.capacities.tobytes() == want.capacities.tobytes()
    assert got.distances.tobytes() == want.distances.tobytes()


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
        ResultTable(["a", "b"], [(1.0,)])
    t = ResultTable(["a", "b"], [(1.0, 2.0), (3.0, 4.0)])
    assert t.column("b") == [2.0, 4.0]
    with pytest.raises(ValueError):
        t.column("zz")


def test_csv_round_trip_and_provenance(tmp_path):
    table = ResultTable(
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
    write_csv(ResultTable(["x"], rows), path)
    back = read_csv(path)
    assert back.rows == rows


def test_csv_mixed_cell_types(tmp_path):
    table = ResultTable(["t_s", "source_id", "cs"], [(0.1, "n00", 1.5), (0.2, "n01", -0.25)])
    path = tmp_path / "mixed.csv"
    write_csv(table, path)
    back = read_csv(path)
    assert back.rows[0] == (0.1, "n00", 1.5)
    assert isinstance(back.rows[0][1], str)


def test_csv_rejects_boolean_cells(tmp_path):
    with pytest.raises(TypeError):
        write_csv(ResultTable(["flag"], [(True,)]), tmp_path / "x.csv")


def test_csv_missing_provenance_rejected(tmp_path):
    path = tmp_path / "noprov.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_csv(path)


def test_plot_data_round_trip(tmp_path):
    table = ResultTable(
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


def test_build_table_stamps_provenance():
    cfg = build_config(SWEEP_DOC)
    table = build_table(cfg)
    assert table.provenance["version"] == ARTIFACT_VERSION
    assert table.provenance["config"] == config_hash(cfg.canonical)
    assert table.provenance["seed"] == "0"
    assert table.columns == ["v_kmh", "cs"]
    assert len(table.rows) == 3


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


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 30) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_PARAM_KEYS = sorted(
    {key for defaults in PARAM_DEFAULTS.values() for key in defaults}
    | {"kind", "base", "param", "grid", "param_label", "case"}
)


@settings(max_examples=300, deadline=None)
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
