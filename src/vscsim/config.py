"""Run configuration: JSON documents validated against a strict schema.

Validation is exhaustive: every violation in the document is reported in
one error, with its JSON path, rather than stopping at the first.
Unknown keys are rejected everywhere.
"""

from __future__ import annotations

import copy
import inspect
import json
import math
from dataclasses import dataclass
from pathlib import Path

import jsonschema

from .channel import DEFAULT_ALPHA, DEFAULT_P_OVER_N0_DB
from .highway import HighwayWorld, run_perturbation_study
from .intersection import run_intersection_case
from .sweeps import GRID_UNITS, SWEEP_FIELDS

EXPERIMENTS = ("sweep", "intersection", "highway_cluster", "perturbation", "ppp")

_EMIT_SCHEMA = {
    "type": "object",
    "properties": {
        "csv": {"type": "boolean"},
        "plot_data": {"type": "boolean"},
    },
    "additionalProperties": False,
}

_TOP_SCHEMA = {
    "type": "object",
    "properties": {
        "name": {"type": "string", "pattern": r"^[A-Za-z0-9_.-]+$"},
        "experiment": {"enum": list(EXPERIMENTS)},
        "params": {"type": "object"},
        "seed": {"type": "integer", "minimum": 0},
        "out_dir": {"type": ["string", "null"]},
        "emit": _EMIT_SCHEMA,
    },
    "required": ["experiment"],
    "additionalProperties": False,
}

# JSON bounds of the fields a sweep base (or series override) may set;
# sweeps.SWEEP_FIELDS says which fields a kind takes and requires.  Values
# are SI / linear except the *_db fields, which are converted on load.
_SCENARIO_FIELDS = {
    "highway": {
        "r": {"type": "number", "exclusiveMinimum": 0},
        "v": {"type": "number", "minimum": 0},
        "tau": {"type": "number", "minimum": 0},
        "alpha": {"type": "number", "exclusiveMinimum": 0},
        "p_over_n0_db": {"type": "number"},
    },
    "urban_fixed": {
        "lane_width_w": {"type": "number", "exclusiveMinimum": 0},
        "v_limit": {"type": "number", "minimum": 0},
        "t": {"type": "number", "minimum": 0},
        "r0": {"type": "number", "exclusiveMinimum": 0},
        "alpha": {"type": "number", "exclusiveMinimum": 0},
        "p_over_n0_db": {"type": "number"},
    },
    "relay": {
        "p_a": {"type": "number", "exclusiveMinimum": 0},
        "p_r": {"type": "number", "minimum": 0},
        "h_ab_sq": {"type": "number", "minimum": 0},
        "h_rb_sq": {"type": "number", "minimum": 0},
        "h_ae_sq": {"type": "number", "minimum": 0},
        "h_re_sq": {"type": "number", "minimum": 0},
        "sigma_b_sq": {"type": "number", "exclusiveMinimum": 0},
        "sigma_e_sq": {"type": "number", "exclusiveMinimum": 0},
        "bandwidth_hz": {"type": "number", "exclusiveMinimum": 0},
    },
}
_SCENARIO_FIELDS["urban_moving"] = _SCENARIO_FIELDS["urban_fixed"]

_PARAMS_SCHEMAS = {
    "sweep": {
        "type": "object",
        "properties": {
            "kind": {"enum": list(SWEEP_FIELDS)},
            "base": {"type": "object"},
            "param": {"type": "string", "minLength": 1},
            "grid": {"type": "array", "minItems": 1, "items": {"type": "number"}},
            "unit": {"enum": list(GRID_UNITS)},
            "param_label": {"type": "string", "minLength": 1},
            "series": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "object",
                    "properties": {
                        "label": {"type": "string", "minLength": 1},
                        "overrides": {"type": "object"},
                    },
                    "required": ["label"],
                    "additionalProperties": False,
                },
            },
        },
        "required": ["kind", "base", "param", "grid"],
        "additionalProperties": False,
    },
    "intersection": {
        "type": "object",
        "properties": {
            "case": {"type": "integer", "minimum": 1, "maximum": 6},
            "dt_s": {"type": "number", "exclusiveMinimum": 0},
            "speed_kmh": {"type": "number", "exclusiveMinimum": 0},
            "alpha": {"type": "number", "exclusiveMinimum": 0},
            "p_over_n0_db": {"type": "number"},
            "lane_offset_m": {"type": "number", "exclusiveMinimum": 0},
            "host_span": {
                "type": "array",
                "items": {"type": "number"},
                "minItems": 2,
                "maxItems": 2,
            },
            "target_span": {
                "type": "array",
                "items": {"type": "number"},
                "minItems": 2,
                "maxItems": 2,
            },
        },
        "required": ["case"],
        "additionalProperties": False,
    },
    "highway_cluster": {
        "type": "object",
        "properties": {
            "n_nodes": {"type": "integer", "minimum": 2},
            "n_sources": {"type": "integer", "minimum": 1},
            "lanes": {"type": "integer", "minimum": 1},
            "lane_width_m": {"type": "number", "exclusiveMinimum": 0},
            "length_m": {"type": "number", "exclusiveMinimum": 0},
            "duration_s": {"type": "number", "exclusiveMinimum": 0},
            "dt_s": {"type": "number", "exclusiveMinimum": 0},
            "speed_redraw_period_s": {"type": "number", "exclusiveMinimum": 0},
            "max_speed_kmh": {"type": "number", "exclusiveMinimum": 0},
            "alpha": {"type": "number", "exclusiveMinimum": 0},
            "p_over_n0_db": {"type": "number"},
            "eavesdropper_range_m": {"type": "number", "exclusiveMinimum": 0},
            "obu_range_m": {"type": "number", "exclusiveMinimum": 0},
        },
        "additionalProperties": False,
    },
    "ppp": {
        "type": "object",
        "properties": {
            "lam": {"type": "number", "minimum": 0},
            "region_area_m2": {"type": "number", "exclusiveMinimum": 0},
            "ref_area_m2": {"type": "number", "exclusiveMinimum": 0},
            "alpha": {"type": "number", "exclusiveMinimum": 0},
            "p_over_n0_db": {"type": "number"},
            "mode": {"enum": ["distance_curve", "field_dump"]},
            "d_fracs": {
                "type": "array",
                "minItems": 1,
                "items": {"type": "number", "exclusiveMinimum": 0},
            },
            "target_distance_m": {"type": "number", "exclusiveMinimum": 0},
        },
        "additionalProperties": False,
    },
}
# The perturbation experiment takes every highway_cluster knob plus the
# shift magnitude.
_PARAMS_SCHEMAS["perturbation"] = copy.deepcopy(_PARAMS_SCHEMAS["highway_cluster"])
_PARAMS_SCHEMAS["perturbation"]["properties"].update(
    {
        "delta_m": {"type": "number"},
        "allow_custom_delta": {"type": "boolean"},
    }
)

# Config key -> keyword of the model it sets: a HighwayWorld field or an
# argument of run_perturbation_study or run_intersection_case.  Defaults
# are written once, on the models, and PARAM_DEFAULTS reads them there.
MODEL_KEYWORDS = {
    "n_nodes": "n_nodes",
    "n_sources": "n_sources",
    "lanes": "lanes",
    "lane_width_m": "lane_width",
    "length_m": "length",
    "duration_s": "duration",
    "dt_s": "dt",
    "speed_kmh": "speed_kmh",
    "speed_redraw_period_s": "speed_redraw_period",
    "max_speed_kmh": "max_speed_kmh",
    "alpha": "alpha",
    "p_over_n0_db": "p_over_n0_db",
    "eavesdropper_range_m": "eavesdropper_range",
    "obu_range_m": "obu_range",
    "delta_m": "delta",
    "allow_custom_delta": "allow_custom_delta",
    "case": "case_id",
    "lane_offset_m": "lane_offset",
    "host_span": "host_span",
    "target_span": "target_span",
}


def model_kwargs(params: dict) -> dict:
    """Defaulted highway_cluster, perturbation or intersection params
    renamed to the keywords of the models they configure."""
    return {MODEL_KEYWORDS[key]: value for key, value in params.items()}


def _model_defaults(model) -> dict:
    """The config defaults that a model's keyword defaults stand for,
    with tuples as the lists a JSON document holds."""
    defaults = {
        name: list(p.default) if isinstance(p.default, tuple) else p.default
        for name, p in inspect.signature(model).parameters.items()
        if p.default is not p.empty
    }
    return {key: defaults[kw] for key, kw in MODEL_KEYWORDS.items() if kw in defaults}


PARAM_DEFAULTS: dict[str, dict] = {
    "sweep": {"unit": "si", "series": [{"label": "cs", "overrides": {}}]},
    "intersection": _model_defaults(run_intersection_case),
    "highway_cluster": _model_defaults(HighwayWorld),
    "perturbation": {**_model_defaults(HighwayWorld), **_model_defaults(run_perturbation_study)},
    "ppp": {
        "lam": 6.0,
        "region_area_m2": 1000.0,
        "ref_area_m2": 1000.0,
        "alpha": DEFAULT_ALPHA,
        "p_over_n0_db": DEFAULT_P_OVER_N0_DB,
        "mode": "distance_curve",
        "d_fracs": [0.1, 0.3, 0.5],
        "target_distance_m": 10.0,
    },
}

TOP_DEFAULTS = {
    "seed": 0,
    "out_dir": None,
    "emit": {"csv": True, "plot_data": False},
}


class ConfigError(ValueError):
    """Carries the full list of config violations."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__(
            "invalid config:\n" + "\n".join(f"  - {e}" for e in self.errors)
        )


@dataclass(frozen=True)
class RunConfig:
    """A validated run: experiment, defaulted params, seed, output routing.

    `canonical` is the scientific identity of the run (name, experiment,
    params, seed) and is what the provenance hash covers; output routing
    deliberately stays outside it.
    """

    name: str
    experiment: str
    params: dict
    seed: int
    out_dir: str | None
    emit_csv: bool
    emit_plot_data: bool

    @property
    def canonical(self) -> dict:
        return {
            "name": self.name,
            "experiment": self.experiment,
            "params": self.params,
            "seed": self.seed,
        }


# JSON Schema counts 0.0 as an integer; the models need a Python int.
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool)
    ),
)


def _schema_errors(instance, schema, prefix: str, bad_keys: set | None = None) -> list[str]:
    """Messages for every schema violation; the top-level keys they sit
    under are added to bad_keys when given."""
    validator = _Validator(schema)
    out = []
    for err in sorted(validator.iter_errors(instance), key=lambda e: list(e.absolute_path)):
        path = prefix + "".join(
            f"[{p}]" if isinstance(p, int) else f".{p}" for p in err.absolute_path
        )
        out.append(f"{path}: {err.message}")
        if bad_keys is not None and err.absolute_path:
            bad_keys.add(err.absolute_path[0])
    return out


def _scenario_field_errors(doc: dict, kind: str, prefix: str) -> list[str]:
    schema = {
        "type": "object",
        "properties": _SCENARIO_FIELDS[kind],
        "additionalProperties": False,
    }
    return _schema_errors(doc, schema, prefix)


def _non_finite_errors(value, path: str) -> list[str]:
    """Messages for every NaN or +-Infinity number (json.load accepts them)."""
    if isinstance(value, float) and not math.isfinite(value):
        return [f"{path}: must be a finite number"]
    if isinstance(value, dict):
        return [e for k, v in value.items() for e in _non_finite_errors(v, f"{path}.{k}")]
    if isinstance(value, list):
        return [e for i, v in enumerate(value) for e in _non_finite_errors(v, f"{path}[{i}]")]
    return []


def validate_config(doc) -> list[str]:
    """Return every violation in the document; an empty list means valid."""
    if not isinstance(doc, dict):
        return ["$: config must be a JSON object"]
    errors = _schema_errors(doc, _TOP_SCHEMA, "$") + _non_finite_errors(doc, "$")
    experiment = doc.get("experiment")
    params = doc.get("params", {})
    if experiment in EXPERIMENTS and isinstance(params, dict):
        bad_keys = {k for k, v in params.items() if _non_finite_errors(v, "")}
        errors += _schema_errors(params, _PARAMS_SCHEMAS[experiment], "$.params", bad_keys)
        # Cross-field checks read only the fields that passed the schema.
        params = {k: v for k, v in params.items() if k not in bad_keys}
        if experiment == "sweep":
            errors += _sweep_extra_errors(params)
        if experiment in ("highway_cluster", "perturbation"):
            merged = {**PARAM_DEFAULTS[experiment], **params}
            if merged["n_sources"] >= merged["n_nodes"]:
                errors.append("$.params.n_sources: must leave at least one non-source node")
            steps = merged["duration_s"] / merged["dt_s"]
            if steps <= 0.5:  # rounds to zero steps
                errors.append("$.params.duration_s: duration must cover at least one dt step")
            elif not math.isfinite(steps):
                errors.append("$.params.duration_s: duration / dt_s overflows: the step count is not finite")
        if experiment == "perturbation":
            delta = {**PARAM_DEFAULTS["perturbation"], **params}["delta_m"]
            if delta == 0:
                errors.append("$.params.delta_m: must be non-zero")
        if experiment == "intersection":
            for span_key in ("host_span", "target_span"):
                span = params.get(span_key)
                if isinstance(span, list) and len(span) == 2 and span[1] <= span[0]:
                    errors.append(f"$.params.{span_key}: must be strictly increasing")
    return errors


def _sweep_extra_errors(params: dict) -> list[str]:
    """Cross-field checks of the sweep params that passed the schema."""
    kind, param = params.get("kind"), params.get("param")
    if kind is None:
        return []
    errors: list[str] = []
    series = params.get("series", PARAM_DEFAULTS["sweep"]["series"])
    if "base" in params:
        base = params["base"]
        errors += _scenario_field_errors(base, kind, "$.params.base")
        # As in run_sweep, a required field may come from the base, the
        # swept parameter or each series' overrides.
        for name in _SCENARIO_FIELDS[kind]:
            if not SWEEP_FIELDS[kind][name.removesuffix("_db")] or name == param or name in base:
                continue
            lacking = [i for i, entry in enumerate(series) if name not in entry.get("overrides", {})]
            if len(lacking) == len(series):
                errors.append(f"$.params.base.{name}: required for kind {kind!r} unless swept")
                continue
            errors += [
                f"$.params.series[{i}].overrides.{name}: required for kind {kind!r} "
                "unless swept or set in the base"
                for i in lacking
            ]
    if param is not None and param not in _SCENARIO_FIELDS[kind]:
        errors.append(f"$.params.param: {param!r} is not a field of kind {kind!r}")
    elif param is not None and param.endswith("_db"):
        if params.get("unit", PARAM_DEFAULTS["sweep"]["unit"]) != "db":
            errors.append(f"$.params.unit: sweeping {param!r} needs unit 'db'")
    grid = params.get("grid", [])
    diffs = [b - a for a, b in zip(grid, grid[1:])]
    if not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
        errors.append("$.params.grid: must be strictly monotone")
    for i, entry in enumerate(params.get("series", [])):
        errors += _scenario_field_errors(
            entry.get("overrides", {}), kind, f"$.params.series[{i}].overrides"
        )
    return errors


def build_config(doc: dict) -> RunConfig:
    """Validate a config document and fill documented defaults."""
    errors = validate_config(doc)
    if errors:
        raise ConfigError(errors)
    experiment = doc["experiment"]
    params = {**PARAM_DEFAULTS[experiment], **copy.deepcopy(doc.get("params", {}))}
    emit = {**TOP_DEFAULTS["emit"], **doc.get("emit", {})}
    return RunConfig(
        name=doc.get("name", experiment),
        experiment=experiment,
        params=params,
        seed=doc.get("seed", TOP_DEFAULTS["seed"]),
        out_dir=doc.get("out_dir", TOP_DEFAULTS["out_dir"]),
        emit_csv=emit["csv"],
        emit_plot_data=emit["plot_data"],
    )


def read_config_doc(path: str | Path):
    """Parse a JSON config file without validating it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError([f"$: cannot read {path}: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError([f"$: not valid JSON: {exc}"]) from exc


def load_config(path: str | Path) -> RunConfig:
    """Read, validate, and default-fill a JSON config file."""
    return build_config(read_config_doc(path))
