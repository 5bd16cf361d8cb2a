"""Execute a validated RunConfig and write its output files."""

from __future__ import annotations

import os
from pathlib import Path

from .config import EXPERIMENT_RECORDS, EXPERIMENTS, ConfigError, RunConfig
from .tables import ARTIFACT_VERSION, ResultTable, config_hash, emit_plot_data, write_csv

OUT_DIR_ENV = "VSCSIM_OUT"


def build_table(config: RunConfig) -> ResultTable:
    """Plan and run the configured experiment, and stamp provenance on the result.  An unknown
    experiment or a missing key, in a RunConfig not made by build_config, raises ConfigError
    in validate_config's words."""
    if config.experiment not in EXPERIMENTS:
        raise ConfigError([f"$.experiment: {config.experiment!r} is not one of {list(EXPERIMENTS)!r}"])
    record = EXPERIMENT_RECORDS[config.experiment]
    # build_config fills the defaults, so a plan reads every key but the optional ones.
    errors = [f"$.params: {key!r} is a required property"
              for key in record.keys if key not in config.params and key not in record.optional]
    if not errors:
        errors, planned = record.plan(config.params)
    if errors:
        raise ConfigError(errors)
    table = record.build(planned, config.seed)
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
