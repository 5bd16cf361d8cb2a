"""Parameter sweeps over the analytic scenarios and the random-field
study, producing plain (columns, rows) results for the output layer."""

from __future__ import annotations

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

SWEEP_KINDS = ("highway", "urban_fixed", "urban_moving", "relay")
GRID_UNITS = ("si", "kmh", "db", "ms")


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


def _convert(value: float, unit: str) -> float:
    if unit == "si":
        return value
    if unit == "kmh":
        return kmh_to_ms(value)
    if unit == "db":
        return db_to_linear(value)
    if unit == "ms":
        return value / 1000.0
    raise ValueError(f"unknown grid unit {unit!r}")


def _evaluate(kind: str, kwargs: dict) -> float:
    if kind == "highway":
        params = ChannelParams(kwargs["p_over_n0"], kwargs["alpha"])
        return highway_secrecy(HighwayScenario(params, kwargs["r"], kwargs["v"], kwargs["tau"]))
    if kind in ("urban_fixed", "urban_moving"):
        params = ChannelParams(kwargs["p_over_n0"], kwargs["alpha"])
        s = UrbanScenario(
            params,
            kwargs["lane_width_w"],
            kwargs["v_limit"],
            kwargs["t"],
            kwargs["r0"],
            kind.removeprefix("urban_"),
        )
        return urban_secrecy(s)
    if kind == "relay":
        s = RelayScenario(
            p_a=kwargs["p_a"],
            p_r=kwargs["p_r"],
            h_ab_sq=kwargs["h_ab_sq"],
            h_rb_sq=kwargs["h_rb_sq"],
            h_ae_sq=kwargs["h_ae_sq"],
            h_re_sq=kwargs["h_re_sq"],
            sigma_b_sq=kwargs.get("sigma_b_sq", 1.0),
            sigma_e_sq=kwargs.get("sigma_e_sq", 1.0),
            bandwidth_hz=kwargs.get("bandwidth_hz", 1.0),
        )
        return relay_secrecy(s)
    raise ValueError(f"unknown sweep kind {kind!r}")


def run_sweep(spec: SweepSpec) -> TableData:
    """Evaluate the spec's scenario at every (grid value, series) pair.

    The grid must be strictly monotone so downstream trend checks read
    left to right; the swept value is reported in its grid units.
    """
    if spec.kind not in SWEEP_KINDS:
        raise ValueError(f"kind must be one of {SWEEP_KINDS}, got {spec.kind!r}")
    if spec.unit not in GRID_UNITS:
        raise ValueError(f"unit must be one of {GRID_UNITS}, got {spec.unit!r}")
    if len(spec.grid) == 0:
        raise ValueError("grid must be non-empty")
    diffs = np.diff(np.asarray(spec.grid, dtype=float))
    if len(spec.grid) > 1 and not (np.all(diffs > 0.0) or np.all(diffs < 0.0)):
        raise ValueError("grid must be strictly monotone")
    if not spec.series:
        raise ValueError("at least one series is required")
    columns = (spec.param_label or spec.param,) + tuple(label for label, _ in spec.series)
    rows = []
    for g in spec.grid:
        row = [float(g)]
        for _, overrides in spec.series:
            kwargs = {**spec.base, spec.param: _convert(float(g), spec.unit), **overrides}
            row.append(_evaluate(spec.kind, kwargs))
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
