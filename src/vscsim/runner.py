"""Execute a validated RunConfig and write its output files."""

from __future__ import annotations

import os
from pathlib import Path

from .config import RunConfig, model_kwargs
from .highway import HighwayWorld, run_highway_experiment, run_perturbation_study
from .intersection import run_intersection_case
from .sweeps import (
    SweepSpec,
    TableData,
    run_ppp_distance_curve,
    run_ppp_field_dump,
    run_sweep,
)
from .tables import ARTIFACT_VERSION, ResultTable, config_hash, emit_plot_data, write_csv
from .units import db_to_linear

OUT_DIR_ENV = "VSCSIM_OUT"


def _convert_db_fields(doc: dict) -> dict:
    """Replace each *_db field with its linear value at the config boundary."""
    return {k.removesuffix("_db"): db_to_linear(v) if k.endswith("_db") else v
            for k, v in doc.items()}


def _sweep_table(params: dict) -> TableData:
    spec = SweepSpec(
        kind=params["kind"],
        base=_convert_db_fields(params["base"]),
        param=params["param"].removesuffix("_db"),
        grid=tuple(params["grid"]),
        unit=params["unit"],
        param_label=params.get("param_label"),
        series=tuple(
            (entry["label"], _convert_db_fields(entry.get("overrides", {})))
            for entry in params["series"]
        ),
    )
    return run_sweep(spec)


def _intersection_table(params: dict) -> TableData:
    res = run_intersection_case(**model_kwargs(params))
    rows = tuple(
        (float(t), float(d), float(c))
        for t, d, c in zip(res.times, res.distances, res.capacities)
    )
    return TableData(("t_s", "distance_m", "capacity"), rows)


def _highway_table(params: dict, seed: int) -> TableData:
    res = run_highway_experiment(HighwayWorld(seed=seed, **model_kwargs(params)))
    return TableData(
        ("t_s", "source_id", "target_id", "distance_m", "secrecy"),
        tuple(res.iter_rows()),
    )


def _perturbation_table(params: dict, seed: int) -> TableData:
    kwargs = model_kwargs(params)
    delta, allow_custom_delta = kwargs.pop("delta"), kwargs.pop("allow_custom_delta")
    res = run_perturbation_study(HighwayWorld(seed=seed, **kwargs), delta, allow_custom_delta)
    return TableData(
        (
            "t_s",
            "source_id",
            "target_base",
            "target_pert",
            "distance_base_m",
            "distance_pert_m",
            "secrecy_base",
            "secrecy_pert",
            "dx_base_m",
        ),
        tuple(res.iter_rows()),
    )


def _ppp_table(params: dict, seed: int) -> TableData:
    common = (
        params["lam"],
        params["region_area_m2"],
        params["ref_area_m2"],
        params["alpha"],
        db_to_linear(params["p_over_n0_db"]),
    )
    if params["mode"] == "distance_curve":
        return run_ppp_distance_curve(*common, tuple(params["d_fracs"]), seed)
    return run_ppp_field_dump(*common, params["target_distance_m"], seed)


def build_table(config: RunConfig) -> ResultTable:
    """Run the configured experiment and stamp provenance on the result."""
    if config.experiment == "sweep":
        data = _sweep_table(config.params)
    elif config.experiment == "intersection":
        data = _intersection_table(config.params)
    elif config.experiment == "highway_cluster":
        data = _highway_table(config.params, config.seed)
    elif config.experiment == "perturbation":
        data = _perturbation_table(config.params, config.seed)
    elif config.experiment == "ppp":
        data = _ppp_table(config.params, config.seed)
    else:
        raise ValueError(f"unknown experiment {config.experiment!r}")
    provenance = {
        "version": ARTIFACT_VERSION,
        "config": config_hash(config.canonical),
        "seed": str(config.seed),
    }
    return ResultTable(list(data.columns), list(data.rows), provenance)


def resolve_out_dir(config: RunConfig, override: str | None = None) -> Path:
    """CLI flag beats config value beats VSCSIM_OUT beats the cwd."""
    for candidate in (override, config.out_dir, os.environ.get(OUT_DIR_ENV)):
        if candidate:
            return Path(candidate)
    return Path.cwd()


def run(config: RunConfig, out_dir: str | None = None) -> list[Path]:
    """Execute and write the configured outputs; returns written paths."""
    table = build_table(config)
    target_dir = resolve_out_dir(config, out_dir)
    target_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if config.emit_csv:
        path = target_dir / f"{config.name}.csv"
        write_csv(table, path)
        written.append(path)
    if config.emit_plot_data:
        path = target_dir / f"{config.name}.dat"
        emit_plot_data(table, path)
        written.append(path)
    return written
