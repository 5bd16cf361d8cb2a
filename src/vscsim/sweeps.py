"""Parameter sweeps over the analytic scenarios and the random-field
study, producing plain (columns, rows) results for the output layer."""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass

from .channel import ChannelParams, capacity_bits, link_capacities, link_snr
from .scenarios import (
    HighwayScenario,
    RelayScenario,
    UrbanScenario,
    highway_secrecy,
    relay_secrecy,
    urban_fixed_secrecy,
    urban_moving_secrecy,
)
from .stochastic import (
    COLLUDING,
    NON_COLLUDING,
    average_secrecy,
    ppp_secrecy,
    sample_field,
    square_region,
)
from .units import Point2D, db_to_linear, is_finite, kmh_to_ms, require_positive

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
    field stands for its own fields."""
    hints = typing.get_type_hints(scenario)
    fields: dict[str, bool] = {}
    for f in dataclasses.fields(scenario):
        if hints[f.name] is ChannelParams:
            fields.update(_scenario_fields(ChannelParams))
        else:
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
    if kind == "urban_fixed":
        return urban_fixed_secrecy(UrbanScenario(params, **kwargs))
    return urban_moving_secrecy(UrbanScenario(params, **kwargs))


def sweep_errors(kind: str, fields: dict[str, bool], base: dict | None, param: str | None,
                 grid, series, param_column: str | None) -> list[tuple[str, str]]:
    """Every cross-field refusal of a sweep, as (path under the sweep params, message).

    `fields` maps each field of the kind to whether it is required, and `series`
    holds (label, overrides) pairs, in the caller's names; a base of None is not
    checked.  Base and overrides set only fields; the swept parameter is a field;
    a required field comes from the base, the swept parameter or every series'
    overrides; the grid is strictly monotone, so trend checks read left to right;
    the column names (param_column, then the series labels) are distinct.
    """
    unknown = f"not a field of kind {kind!r}"
    errors = [(f"base.{name}", unknown) for name in base or () if name not in fields]
    for i, (_, overrides) in enumerate(series):
        errors += [(f"series[{i}].overrides.{name}", unknown) for name in overrides if name not in fields]
    missing = [name for name, required in fields.items()
               if required and name != param and base is not None and name not in base]
    for name in missing:
        lacking = [i for i, (_, overrides) in enumerate(series) if name not in overrides]
        if len(lacking) == len(series):
            errors.append((f"base.{name}", f"required for kind {kind!r} unless swept"))
        else:
            errors += [(f"series[{i}].overrides.{name}",
                        f"required for kind {kind!r} unless swept or set in the base") for i in lacking]
    if param is not None and param not in fields:
        errors.append(("param", f"{param!r} is not a field of kind {kind!r}"))
    pairs = list(zip(grid, grid[1:]))
    if not (all(a < b for a, b in pairs) or all(a > b for a, b in pairs)):
        errors.append(("grid", "must be strictly monotone"))
    columns = {param_column}
    for i, (label, _) in enumerate(series):
        if label in columns:
            errors.append((f"series[{i}].label", f"column {label!r} is named twice"))
        columns.add(label)
    return errors


def run_sweep(spec: SweepSpec) -> TableData:
    """Evaluate the spec's scenario at every (grid value, series) pair,
    reporting the swept value in its grid units.  A spec that breaks a
    rule of sweep_errors raises one ValueError listing each `path: message`.
    """
    if spec.kind not in SWEEP_SCENARIOS:
        raise ValueError(f"kind must be one of {tuple(SWEEP_SCENARIOS)}, got {spec.kind!r}")
    if spec.unit not in GRID_UNITS:
        raise ValueError(f"unit must be one of {tuple(GRID_UNITS)}, got {spec.unit!r}")
    if len(spec.grid) == 0:
        raise ValueError("grid must be non-empty")
    if not spec.series:
        raise ValueError("at least one series is required")
    for i, g in enumerate(spec.grid):
        if not is_finite(g):
            raise ValueError(f"grid[{i}]: must be a finite number")
    columns = (spec.param_label or spec.param,) + tuple(label for label, _ in spec.series)
    errors = sweep_errors(spec.kind, SWEEP_FIELDS[spec.kind], spec.base, spec.param, spec.grid,
                          spec.series, columns[0])
    if errors:
        raise ValueError("; ".join(f"{path}: {message}" for path, message in errors))
    convert = GRID_UNITS[spec.unit]
    rows = []
    for g in spec.grid:
        value = convert(float(g))
        row = [float(g)]
        for _, overrides in spec.series:
            row.append(_evaluate(spec.kind, {**spec.base, spec.param: value, **overrides}))
        rows.append(tuple(row))
    return TableData(columns, tuple(rows))


# The host of the ppp runs, at the center of their field.
FIELD_HOST = Point2D(0.0, 0.0)


def target_snr(p_over_n0: float, alpha: float, target_distance_m: float) -> float:
    """SNR of the field dump's target link; a distance too short for it raises ValueError
    naming target_distance_m."""
    require_positive(target_distance_m=target_distance_m)
    try:
        return link_snr(p_over_n0, target_distance_m, alpha)
    except ValueError as exc:
        raise ValueError(f"target_distance_m: {exc}") from None


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
    host = FIELD_HOST
    field = sample_field(lam, square_region(host, region_area_m2), seed, ref_area_m2)
    if len(field) == 0:
        raise ValueError("sampled field is empty; change seed or raise lam")
    params = ChannelParams(p_over_n0, alpha)
    r_min = float(field.distances(host).min())
    rows = []
    for frac in d_fracs:
        require_positive(d_frac=frac)
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
    params = ChannelParams(p_over_n0, alpha)
    # secrecy_bits(snr_ab, snr_e) with the target's capacity taken once.
    c_ab = capacity_bits(target_snr(params.p_over_n0, params.alpha, target_distance_m))
    host = FIELD_HOST
    field = sample_field(lam, square_region(host, region_area_m2), seed, ref_area_m2)
    d_e = field.distances(host)
    secrecy = c_ab - link_capacities(params.p_over_n0, d_e, params.alpha)
    rows = tuple(zip(*field.xy.T.tolist(), d_e.tolist(), secrecy.tolist()))
    return TableData(("x_m", "y_m", "distance_m", "pair_secrecy"), rows)
