"""Execute a validated RunConfig and write its output files."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .config import RunConfig, ppp_kwargs, split_kwargs, sweep_spec
from .highway import HighwayWorld, check_delta, run_highway_experiment, run_perturbation_study
from .intersection import run_intersection_case
from .sweeps import run_ppp_distance_curve, run_ppp_field_dump, run_sweep
from .tables import ARTIFACT_VERSION, ResultTable, config_hash, emit_plot_data, write_csv

OUT_DIR_ENV = "VSCSIM_OUT"


def _sweep_table(params: dict) -> ResultTable:
    data = run_sweep(sweep_spec(params))
    return ResultTable.from_rows(data.columns, data.rows)


def _intersection_table(params: dict) -> ResultTable:
    res = run_intersection_case(**params)
    return ResultTable(
        ["t_s", "distance_m", "capacity"],
        [res.times.tolist(), res.distances.tolist(), res.capacities.tolist()],
    )


def _link_table(columns: list[str], res, targets: list, values: list) -> ResultTable:
    """One row per (step, source) in step-major order: the time, the source
    id, the node id of each target index array, then each value array."""
    n_sources = res.world.n_sources
    ids = np.array(res.node_ids)
    return ResultTable(
        columns,
        [
            np.repeat(res.times, n_sources).tolist(),
            np.tile(ids[:n_sources], res.times.size).tolist(),
            *(ids[idx.ravel()].tolist() for idx in targets),
            *(arr.ravel().tolist() for arr in values),
        ],
    )


def _highway_table(params: dict, seed: int) -> ResultTable:
    res = run_highway_experiment(HighwayWorld(seed=seed, **params))
    return _link_table(["t_s", "source_id", "target_id", "distance_m", "secrecy"],
                       res, [res.target_idx], [res.distances, res.secrecy])


def _perturbation_table(params: dict, seed: int) -> ResultTable:
    # check_delta names the shift keywords: a tracer may rebind run_perturbation_study to a wrapper.
    shift, world = split_kwargs(check_delta, params)
    res = run_perturbation_study(HighwayWorld(seed=seed, **world), **shift)
    return _link_table(
        ["t_s", "source_id", "target_base", "target_pert", "distance_base_m",
         "distance_pert_m", "secrecy_base", "secrecy_pert", "dx_base_m"],
        res,
        [res.target_idx_base, res.target_idx_pert],
        [res.distances_base, res.distances_pert, res.secrecy_base, res.secrecy_pert, res.dx_base],
    )


def _ppp_table(params: dict, seed: int) -> ResultTable:
    model = run_ppp_distance_curve if params["mode"] == "distance_curve" else run_ppp_field_dump
    data = model(seed=seed, **ppp_kwargs(params))
    return ResultTable.from_rows(data.columns, data.rows)


def build_table(config: RunConfig) -> ResultTable:
    """Run the configured experiment and stamp provenance on the result."""
    if config.experiment == "sweep":
        table = _sweep_table(config.params)
    elif config.experiment == "intersection":
        table = _intersection_table(config.params)
    elif config.experiment == "highway_cluster":
        table = _highway_table(config.params, config.seed)
    elif config.experiment == "perturbation":
        table = _perturbation_table(config.params, config.seed)
    elif config.experiment == "ppp":
        table = _ppp_table(config.params, config.seed)
    else:
        raise ValueError(f"unknown experiment {config.experiment!r}")
    table.provenance = {
        "version": ARTIFACT_VERSION,
        "config": config_hash(config.canonical),
        "seed": str(config.seed),
    }
    return table


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
