import json

import pytest

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


def test_entry_point_installed():
    import shutil

    assert shutil.which("vscsim") is not None


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
