"""Parameter sweeps over the analytic scenarios and the random-field
study, producing plain (columns, rows) results for the output layer."""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, link_snr, secrecy_bits
from .scenarios import (
    HighwayScenario,
    RelayScenario,
    UrbanScenario,
    highway_secrecy,
    relay_secrecy,
    urban_secrecy,
)
from .stochastic import (
    COLLUDING,
    NON_COLLUDING,
    average_secrecy,
    ppp_secrecy,
    sample_field,
    square_region,
)
from .units import Point2D, db_to_linear, distance, kmh_to_ms

SWEEP_SCENARIOS = {
    "highway": HighwayScenario,
    "urban_fixed": UrbanScenario,
    "urban_moving": UrbanScenario,
    "relay": RelayScenario,
}

# Grid unit -> conversion of a grid value to the SI / linear value the scenarios take.
GRID_UNITS = {
    "si": lambda value: value,
    "kmh": kmh_to_ms,
    "db": db_to_linear,
    "ms": lambda value: value / 1000.0,
}


def _scenario_fields(scenario) -> dict[str, bool]:
    """Field name -> required (no default) of a scenario dataclass; a ChannelParams
    field stands for its own fields, and the kind sets the urban eavesdropper mode."""
    hints = typing.get_type_hints(scenario)
    fields: dict[str, bool] = {}
    for f in dataclasses.fields(scenario):
        if hints[f.name] is ChannelParams:
            fields.update(_scenario_fields(ChannelParams))
        elif f.name != "eavesdropper":
            fields[f.name] = f.default is dataclasses.MISSING
    return fields


SWEEP_FIELDS = {kind: _scenario_fields(scenario) for kind, scenario in SWEEP_SCENARIOS.items()}


@dataclass(frozen=True)
class SweepSpec:
    """One scenario family swept over a grid, with optional fixed-override
    series evaluated side by side (one output column per series)."""

    kind: str
    base: dict
    param: str
    grid: tuple[float, ...]
    unit: str = "si"
    param_label: str | None = None
    series: tuple[tuple[str, dict], ...] = (("cs", {}),)


@dataclass(frozen=True)
class TableData:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


def _evaluate(kind: str, kwargs: dict) -> float:
    if kind == "relay":
        return relay_secrecy(RelayScenario(**kwargs))
    params = ChannelParams(kwargs.pop("p_over_n0"), kwargs.pop("alpha"))
    if kind == "highway":
        return highway_secrecy(HighwayScenario(params, **kwargs))
    return urban_secrecy(UrbanScenario(params, **kwargs, eavesdropper=kind.removeprefix("urban_")))


def run_sweep(spec: SweepSpec) -> TableData:
    """Evaluate the spec's scenario at every (grid value, series) pair.

    The grid must be strictly monotone so downstream trend checks read
    left to right; the swept value is reported in its grid units.  Base,
    swept parameter and overrides must set exactly the kind's fields.
    """
    if spec.kind not in SWEEP_SCENARIOS:
        raise ValueError(f"kind must be one of {tuple(SWEEP_SCENARIOS)}, got {spec.kind!r}")
    if spec.unit not in GRID_UNITS:
        raise ValueError(f"unit must be one of {tuple(GRID_UNITS)}, got {spec.unit!r}")
    if len(spec.grid) == 0:
        raise ValueError("grid must be non-empty")
    diffs = np.diff(np.asarray(spec.grid, dtype=float))
    if len(spec.grid) > 1 and not (np.all(diffs > 0.0) or np.all(diffs < 0.0)):
        raise ValueError("grid must be strictly monotone")
    if not spec.series:
        raise ValueError("at least one series is required")
    fields = SWEEP_FIELDS[spec.kind]
    for label, overrides in spec.series:
        given = {*spec.base, spec.param, *overrides}
        missing = [name for name, required in fields.items() if required and name not in given]
        unknown = sorted(given - fields.keys())
        if missing or unknown:
            raise ValueError(f"series {label!r} of kind {spec.kind!r}: missing fields {missing}, "
                             f"unknown fields {unknown}")
    convert = GRID_UNITS[spec.unit]
    columns = (spec.param_label or spec.param,) + tuple(label for label, _ in spec.series)
    rows = []
    for g in spec.grid:
        value = convert(float(g))
        row = [float(g)]
        for _, overrides in spec.series:
            row.append(_evaluate(spec.kind, {**spec.base, spec.param: value, **overrides}))
        rows.append(tuple(row))
    return TableData(columns, tuple(rows))


def run_ppp_distance_curve(
    lam: float,
    region_area_m2: float,
    ref_area_m2: float,
    alpha: float,
    p_over_n0: float,
    d_fracs: tuple[float, ...],
    seed,
) -> TableData:
    """Secrecy versus target distance expressed as a fraction of the
    nearest eavesdropper range R_min, on a single sampled field."""
    host = Point2D(0.0, 0.0)
    field = sample_field(lam, square_region(host, region_area_m2), seed, ref_area_m2)
    if len(field) == 0:
        raise ValueError("sampled field is empty; change seed or raise lam")
    params = ChannelParams(p_over_n0, alpha)
    r_min = min(distance(host, p) for p in field.points)
    rows = []
    for frac in d_fracs:
        if not 0.0 < frac:
            raise ValueError(f"distance fractions must be > 0, got {frac!r}")
        d = frac * r_min
        target = Point2D(d, 0.0)
        rows.append(
            (
                float(frac),
                d,
                ppp_secrecy(host, target, field, NON_COLLUDING, params),
                ppp_secrecy(host, target, field, COLLUDING, params),
                average_secrecy(host, target, field, params),
            )
        )
    return TableData(
        ("d_over_rmin", "d_m", "cs_non_colluding", "cs_colluding", "cs_average"),
        tuple(rows),
    )


def run_ppp_field_dump(
    lam: float,
    region_area_m2: float,
    ref_area_m2: float,
    alpha: float,
    p_over_n0: float,
    target_distance_m: float,
    seed,
) -> TableData:
    """Per-eavesdropper positions and pair secrecy for one sampled field."""
    if target_distance_m <= 0.0:
        raise ValueError(f"target distance must be > 0, got {target_distance_m!r}")
    host = Point2D(0.0, 0.0)
    field = sample_field(lam, square_region(host, region_area_m2), seed, ref_area_m2)
    params = ChannelParams(p_over_n0, alpha)
    snr_ab = link_snr(params.p_over_n0, target_distance_m, params.alpha)
    rows = []
    for p in field.points:
        d_e = distance(host, p)
        rows.append((p.x, p.y, d_e, secrecy_bits(snr_ab, link_snr(params.p_over_n0, d_e, params.alpha))))
    return TableData(("x_m", "y_m", "distance_m", "pair_secrecy"), tuple(rows))
