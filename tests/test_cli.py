import copy
import json

import pytest

from vscsim import cli
from vscsim.cli import main
from vscsim.presets import list_presets
from vscsim.tables import read_csv

GOOD_DOC = {
    "name": "cli-sweep",
    "experiment": "sweep",
    "params": {
        "kind": "highway",
        "base": {"r": 1000.0, "tau": 0.2, "alpha": 1.4, "p_over_n0_db": 70.0},
        "param": "v",
        "grid": [10.0, 20.0],
        "unit": "kmh",
    },
}


def _write_cfg(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_run_subcommand(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, GOOD_DOC)
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == [str(tmp_path / "cli-sweep.csv")]
    assert (tmp_path / "cli-sweep.csv").exists()


def test_run_plot_data_flag(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, GOOD_DOC)
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path), "--plot-data"])
    assert rc == 0
    names = [line.rsplit("/", 1)[-1] for line in capsys.readouterr().out.split()]
    assert names == ["cli-sweep.csv", "cli-sweep.dat"]


def test_run_seed_override_changes_provenance(tmp_path):
    cfg = _write_cfg(tmp_path, GOOD_DOC)
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "5"])
    a = read_csv(tmp_path / "a" / "cli-sweep.csv")
    b = read_csv(tmp_path / "b" / "cli-sweep.csv")
    assert a.provenance["seed"] == "0"
    assert b.provenance["seed"] == "5"
    assert a.provenance["config"] != b.provenance["config"]
    # the sweep itself is seed-independent
    assert a.rows == b.rows


def test_run_invalid_config_reports_errors(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"experiment": "sweep", "params": {"kind": "highway"}})
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_run_missing_file(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_preset_subcommand(tmp_path, capsys):
    rc = main(["preset", "fig4", "--out", str(tmp_path)])
    assert rc == 0
    table = read_csv(tmp_path / "fig4.csv")
    assert table.columns == ["v_kmh", "cs_alpha_1.4", "cs_alpha_2", "cs_alpha_4"]
    assert len(table.rows) == 12


def test_preset_unknown_name(tmp_path, capsys):
    rc = main(["preset", "fig999", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "unknown preset" in err


def test_list_presets(capsys):
    rc = main(["list-presets"])
    assert rc == 0
    out = capsys.readouterr().out.split()
    assert out == list_presets()
    assert "fig4" in out


def test_validate_subcommand(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, GOOD_DOC)
    rc = main(["validate", str(cfg)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_subcommand_bad(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"experiment": "sweep", "params": {"kind": "highway"}})
    rc = main(["validate", str(cfg)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_validate_subcommand_wrong_type(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"experiment": "highway_cluster", "params": {"n_sources": "a"}})
    rc = main(["validate", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: $.params.n_sources:" in err
    assert "Traceback" not in err


def test_validate_subcommand_non_finite(tmp_path, capsys):
    # json.load accepts NaN and Infinity tokens; validation must not
    cfg = tmp_path / "nan.json"
    cfg.write_text('{"experiment": "highway_cluster", "params": {"alpha": NaN}}', encoding="utf-8")
    assert main(["validate", str(cfg)]) == 1
    assert "error: $.params.alpha: must be a finite number" in capsys.readouterr().err


def test_validate_and_run_agree_on_float_seed(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"experiment": "highway_cluster", "seed": 0.0, "params": {"duration_s": 1.0}})
    assert main(["validate", str(cfg)]) == 1
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("error: $.seed: 0.0 is not of type 'integer'") == 2
    assert "Traceback" not in err


# One config per experiment that reads a dB value, with the path where
# validation reports it.
DB_CASES = {
    "intersection": ({"experiment": "intersection", "params": {"case": 1}}, "$.params.p_over_n0_db"),
    "highway_cluster": (
        {"experiment": "highway_cluster", "params": {"n_nodes": 6, "duration_s": 1.0}},
        "$.params.p_over_n0_db",
    ),
    "ppp": ({"experiment": "ppp", "params": {}}, "$.params.p_over_n0_db"),
    "sweep": (GOOD_DOC, "$.params.base.p_over_n0_db"),
    "sweep-grid": (
        {
            "experiment": "sweep",
            "params": {"kind": "highway", "base": {"r": 1000.0, "v": 20.0, "tau": 0.2, "alpha": 1.4},
                       "param": "p_over_n0_db", "grid": [], "unit": "db"},
        },
        "$.params.grid[0]",
    ),
}


@pytest.mark.parametrize("db", [3000.0, 4000.0, -4000.0])
@pytest.mark.parametrize("case", DB_CASES)
def test_validate_and_run_agree_on_the_db_range(tmp_path, capsys, case, db):
    doc, path = copy.deepcopy(DB_CASES[case])
    if case == "sweep-grid":
        doc["params"]["grid"] = [db]
    elif case == "sweep":
        doc["params"]["base"]["p_over_n0_db"] = db
    else:
        doc["params"]["p_over_n0_db"] = db
    cfg = _write_cfg(tmp_path, doc)
    codes = main(["validate", str(cfg)]), main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    if db == 3000.0:
        assert codes == (0, 0)
        assert err == ""
    else:
        # 10**(+-400) leaves the float range: reported by both, never raised
        assert codes == (1, 1)
        assert err.count(f"error: {path}: decibel value {db!r} gives no finite linear ratio > 0") == 2


@pytest.mark.parametrize(
    "param, unit, grid, message",
    [
        pytest.param("r", "si", [-1.0, 1.0], "-1.0 is less than or equal to the minimum of 0", id="r"),
        pytest.param("v", "kmh", [-10.0, 10.0], "-10.0 is less than the minimum of 0", id="v-kmh"),
        # read in SI units, as the run reads it: 5e-324 ms rounds to 0 m
        pytest.param("r", "ms", [5e-324, 1.0], "0.0 is less than or equal to the minimum of 0", id="r-ms-rounds-to-0"),
        pytest.param("r", "db", [10.0, 20.0], None, id="r-db"),
    ],
)
def test_validate_and_run_agree_on_a_sweep_grid(tmp_path, capsys, param, unit, grid, message):
    base = {"r": 1000.0, "v": 20.0, "tau": 0.2, "alpha": 1.4, "p_over_n0_db": 70.0}
    del base[param]
    doc = {"experiment": "sweep", "params": {"kind": "highway", "base": base, "param": param,
                                             "grid": grid, "unit": unit}}
    cfg = _write_cfg(tmp_path, doc)
    codes = main(["validate", str(cfg)]), main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    if message is None:
        assert codes == (0, 0)
        assert err == ""
    else:
        # checked against the swept field's own bound in every unit
        assert codes == (1, 1)
        assert err.count(f"error: $.params.grid[0]: {message}") == 2


# Configs whose schema is met but which a model of the run refuses, with
# the model's message.
MODEL_REFUSALS = [
    pytest.param("intersection", {"case": 1, "speed_kmh": 5e-324}, "speed must be finite and > 0, got 0.0",
                 id="intersection-speed-rounds-to-0"),
    pytest.param("intersection", {"case": 1, "dt_s": 1e-320}, "step_count must be finite, got inf",
                 id="intersection-dt-overflows"),
    pytest.param("intersection", {"case": 1, "host_span": [-1e308, 1e308]}, "step_count must be finite, got inf",
                 id="intersection-span-overflows"),
    pytest.param("intersection", {"case": 5, "host_span": [-1e307, 1e307]},
                 "step_count must be < 9223372036854775807, got 2.0571428571428574e+307",
                 id="intersection-steps-past-array-size"),
    pytest.param("highway_cluster",
                 {"n_nodes": 4, "duration_s": 1e-9, "dt_s": 1e-10, "speed_redraw_period_s": 1e300},
                 "speed_redraw_period_s must be finite in dt_s steps, got inf", id="highway-redraw-overflows"),
    # numpy's array size limit, which the run would otherwise hit with a message naming no field
    pytest.param("highway_cluster", {"n_nodes": 10**400},
                 "n_nodes positions over duration_s / dt_s steps do not fit in one numpy array",
                 id="highway-fleet-past-array-size"),
    # every link's secrecy subtracts the eavesdropper's capacity
    pytest.param("highway_cluster", {"n_nodes": 4, "duration_s": 1.0, "eavesdropper_range_m": 1e-300},
                 "eavesdropper_range_m: distance 1e-300 m is too short: d**(-2*alpha) overflows",
                 id="highway-eavesdropper-snr-overflows"),
    pytest.param("perturbation",
                 {"n_nodes": 4, "duration_s": 1.0, "eavesdropper_range_m": 1e-108, "p_over_n0_db": 100.0},
                 "eavesdropper_range_m: distance 1e-108 m is too short: the SNR overflows",
                 id="perturbation-eavesdropper-snr-overflows"),
    # numpy's Poisson draw refuses a mean past about 9.2e18
    pytest.param("ppp", {"lam": 1e300}, "lam gives 1e+300 expected points, too many to draw",
                 id="ppp-field-too-large-to-draw"),
    pytest.param("ppp", {"mode": "field_dump", "target_distance_m": 1e-300},
                 "target_distance_m: distance 1e-300 m is too short: d**(-2*alpha) overflows",
                 id="ppp-target-snr-overflows"),
]


@pytest.mark.parametrize("experiment, params, message", MODEL_REFUSALS)
def test_validate_and_run_agree_on_a_model_refusal(tmp_path, capsys, experiment, params, message):
    cfg = _write_cfg(tmp_path, {"experiment": experiment, "params": params})
    codes = main(["validate", str(cfg)]), main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert codes == (1, 1)
    assert capsys.readouterr().err == f"error: $.params: {message}\n" * 2


@pytest.mark.parametrize("exc, line", [(MemoryError(), "MemoryError"), (MemoryError("no room"), "no room")])
def test_run_reports_memory_error(tmp_path, capsys, monkeypatch, exc, line):
    def out_of_memory(config, out_dir=None):
        raise exc

    monkeypatch.setattr(cli, "run", out_of_memory)
    assert main(["preset", "fig5", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {line}\n"


def test_entry_point_installed():
    import shutil

    assert shutil.which("vscsim") is not None


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_cli_import_leaves_jsonschema_unloaded():
    # jsonschema is a test dependency only: config checks its schemas itself
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    code = "import vscsim.cli, sys; assert 'jsonschema' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
