"""Run configuration: JSON documents validated against a strict schema.

Validation is exhaustive: every schema violation is reported at once, with
its JSON path, then the first refusal of each model input the run builds.
Unknown keys are rejected everywhere.

The schemas are JSON Schema (draft 2020-12) dicts in a keyword subset that
this module checks itself, with jsonschema's messages: `type` (with the
`integer`, `number` and `decibel` rules below), `enum`, `properties`,
`required`, `additionalProperties: false`, `minimum`, `exclusiveMinimum`,
`maximum`, `items`, `minItems`, `maxItems`, `minLength` and `pattern`.
"""

from __future__ import annotations

import copy
import functools
import inspect
import json
import re
from dataclasses import dataclass
from numbers import Real
from pathlib import Path

from .channel import DEFAULT_ALPHA, DEFAULT_P_OVER_N0_DB, ChannelParams
from .highway import HighwayWorld, check_delta, run_perturbation_study
from .intersection import CASE_IDS, make_case, run_intersection_case
from .stochastic import expected_count, sample_field, square_region
from .sweeps import FIELD_HOST, GRID_UNITS, SWEEP_FIELDS, SWEEP_SCENARIOS, SweepSpec, sweep_errors, target_snr
from .units import (Decibel, IntAtLeast0, IntAtLeast1, IntAtLeast2, NonNegative, Positive, db_to_linear,
                    field_rules, is_finite)

EXPERIMENTS = ("sweep", "intersection", "highway_cluster", "perturbation", "ppp")

# JSON bounds that many fields share.  A "number" is finite, a "decibel" one db_to_linear takes.
_NUMBER = {"type": "number"}
_DECIBEL = {"type": "decibel"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_NON_NEGATIVE = {"type": "number", "minimum": 0}
_BOOLEAN = {"type": "boolean"}
_SPAN = {"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2}
# The JSON bound of each field rule a model declares (units field types).
_RULE_BOUNDS = {Positive: _POSITIVE, NonNegative: _NON_NEGATIVE, Decibel: _DECIBEL,
                IntAtLeast0: {"type": "integer", "minimum": 0}, IntAtLeast1: {"type": "integer", "minimum": 1},
                IntAtLeast2: {"type": "integer", "minimum": 2}}


def _object_schema(properties: dict, required: list | None = None) -> dict:
    return {
        "type": "object",
        "properties": properties,
        "required": required or [],
        "additionalProperties": False,
    }


_TOP_SCHEMA = _object_schema(
    {
        "name": {"type": "string", "pattern": r"^[A-Za-z0-9_.-]+$"},
        "experiment": {"enum": list(EXPERIMENTS)},
        "params": {"type": "object"},
        "seed": {"type": "integer", "minimum": 0},
        "out_dir": {"type": ["string", "null"]},
        "emit": _object_schema({"csv": _BOOLEAN, "plot_data": _BOOLEAN}),
    },
    ["experiment"],
)

# Config key -> JSON bounds, for the experiments that configure a HighwayWorld,
# run_perturbation_study or run_intersection_case.  Each key is the keyword of the
# model it sets, and defaults are written once, on the models.
_WORLD_KEYS = {name: _RULE_BOUNDS[rule] for name, rule in field_rules(HighwayWorld) if name != "seed"}
_MODEL_KEYS = {
    "highway_cluster": _WORLD_KEYS,
    "perturbation": {**_WORLD_KEYS, "delta_m": _NUMBER, "allow_custom_delta": _BOOLEAN},
    "intersection": {
        "case": {"type": "integer", "minimum": min(CASE_IDS), "maximum": max(CASE_IDS)},
        "dt_s": _POSITIVE,
        "speed_kmh": _POSITIVE,
        "alpha": _POSITIVE,
        "p_over_n0_db": _DECIBEL,
        "lane_offset_m": _POSITIVE,
        "host_span": _SPAN,
        "target_span": _SPAN,
    },
}


@functools.cache
def _parameters(model) -> frozenset[str]:
    return frozenset(inspect.signature(model).parameters)  # costs about a sixth of a validate_config


def split_kwargs(model, kwargs: dict) -> tuple[dict, dict]:
    """The keywords that are parameters of model, and the rest."""
    own = {k: kwargs[k] for k in _parameters(model) & kwargs.keys()}
    return own, {k: v for k, v in kwargs.items() if k not in own}


def _model_defaults(experiment: str, *models) -> dict:
    """The config defaults that the models' keyword defaults stand for,
    with tuples as the lists a JSON document holds."""
    defaults = {
        name: list(p.default) if isinstance(p.default, tuple) else p.default
        for model in models
        for name, p in inspect.signature(model).parameters.items()
        if p.default is not p.empty
    }
    return {key: defaults[key] for key in _MODEL_KEYS[experiment] if key in defaults}


PARAM_DEFAULTS: dict[str, dict] = {
    "sweep": {"unit": SweepSpec.unit, "series": [{"label": l, "overrides": dict(o)} for l, o in SweepSpec.series]},
    "intersection": _model_defaults("intersection", run_intersection_case),
    "highway_cluster": _model_defaults("highway_cluster", HighwayWorld),
    "perturbation": _model_defaults("perturbation", HighwayWorld, run_perturbation_study),
    "ppp": {
        "lam": 6.0,
        "region_area_m2": 1000.0,
        "ref_area_m2": inspect.signature(sample_field).parameters["ref_area_m2"].default,
        "alpha": DEFAULT_ALPHA,
        "p_over_n0_db": DEFAULT_P_OVER_N0_DB,
        "mode": "distance_curve",
        "d_fracs": [0.1, 0.3, 0.5],
        "target_distance_m": 10.0,
    },
}

# Scenario field -> its config name, where the two differ: a *_db value is in decibels.
_CONFIG_NAMES = {"p_over_n0": "p_over_n0_db"}
_SCENARIO_NAMES = {name: field for field, name in _CONFIG_NAMES.items()}
# JSON bounds of every field a sweep base (or series override) may set: the rule its scenario
# declares, on SI / linear values except p_over_n0_db, which is converted on load.
_FIELD_BOUNDS = {
    _CONFIG_NAMES.get(name, name): _DECIBEL if name in _CONFIG_NAMES else _RULE_BOUNDS[rule]
    for model in (ChannelParams, *SWEEP_SCENARIOS.values())
    for name, rule in field_rules(model)
}
# Kind -> config field -> required, for the fields sweeps.SWEEP_FIELDS
# reads off the kind's scenario dataclass.
_SCENARIO_FIELDS = {
    kind: {_CONFIG_NAMES.get(f, f): required for f, required in fields.items()}
    for kind, fields in SWEEP_FIELDS.items()
}

_PARAMS_SCHEMAS = {
    "sweep": _object_schema(
        {
            "kind": {"enum": list(SWEEP_FIELDS)},
            "base": {"type": "object"},
            "param": {"type": "string", "minLength": 1},
            "grid": {"type": "array", "minItems": 1, "items": _NUMBER},
            "unit": {"enum": list(GRID_UNITS)},
            "param_label": {"type": "string", "minLength": 1},
            "series": {
                "type": "array",
                "minItems": 1,
                "items": _object_schema(
                    {"label": {"type": "string", "minLength": 1}, "overrides": {"type": "object"}},
                    ["label"],
                ),
            },
        },
        ["kind", "base", "param", "grid"],
    ),
    # A key is required when its model keyword has no default.
    **{
        experiment: _object_schema(keys, [key for key in keys if key not in PARAM_DEFAULTS[experiment]])
        for experiment, keys in _MODEL_KEYS.items()
    },
    "ppp": _object_schema(
        {
            "lam": _NON_NEGATIVE,
            "region_area_m2": _POSITIVE,
            "ref_area_m2": _POSITIVE,
            "alpha": _POSITIVE,
            "p_over_n0_db": _DECIBEL,
            "mode": {"enum": ["distance_curve", "field_dump"]},
            "d_fracs": {"type": "array", "minItems": 1, "items": _POSITIVE},
            "target_distance_m": _POSITIVE,
        }
    ),
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


def _is_number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def _refusal(check, *args, **kwargs) -> str | None:
    """The message of the ValueError a model check raises, else None."""
    try:
        check(*args, **kwargs)
    except ValueError as exc:
        return str(exc)
    return None


# The JSON types the schemas name.  JSON Schema counts 0.0 as an integer; the models need a
# Python int.  json.load also accepts NaN, +-Infinity and ints of any size; a real field takes
# only values that are finite as a float, and a "decibel" field one db_to_linear takes.
_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "boolean": lambda value: isinstance(value, bool),
    "null": lambda value: value is None,
    "integer": lambda value: isinstance(value, int) and not isinstance(value, bool),
    "number": lambda value: _is_number(value) and is_finite(value),
    "decibel": lambda value: _is_number(value) and _refusal(db_to_linear, value) is None,
}


def _is_bounded(value, schema: dict) -> bool:
    """A value the numeric keywords of schema compare: a finite number, or an int past the float
    range at an "integer" node (a "number" node refuses it by type alone)."""
    return _is_number(value) and (is_finite(value) or isinstance(value, int) and schema.get("type") == "integer")


def _schema_walk(instance, schema: dict, path: tuple = ()):
    """Yield (path, message) for each violation of schema by instance, keyword by keyword in
    schema order, with jsonschema's messages.  As in jsonschema, a failed type does not stop
    the other keywords.  The numeric ones compare a finite number, or any int at an "integer" node."""
    for keyword, value in schema.items():
        if keyword == "type":
            types = value if isinstance(value, list) else [value]
            if not any(_TYPES[name](instance) for name in types):
                if _is_number(instance) and not is_finite(instance):
                    yield path, "must be a finite number"
                elif value == "decibel" and _is_number(instance):
                    yield path, _refusal(db_to_linear, instance)
                else:
                    yield path, f"{instance!r} is not of type {', '.join(map(repr, types))}"
        elif keyword == "enum":
            if instance not in value:
                yield path, f"{instance!r} is not one of {value!r}"
        elif keyword == "properties":
            if isinstance(instance, dict):
                for key, subschema in value.items():
                    if key in instance:
                        yield from _schema_walk(instance[key], subschema, (*path, key))
        elif keyword == "required":
            if isinstance(instance, dict):
                for key in value:
                    if key not in instance:
                        yield path, f"{key!r} is a required property"
        elif keyword == "additionalProperties":  # the schemas use false only
            if isinstance(instance, dict):
                extras = sorted((key for key in instance if key not in schema.get("properties", {})), key=str)
                if extras:
                    names, verb = ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were"
                    yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
        elif keyword == "minimum":
            if _is_bounded(instance, schema) and instance < value:
                yield path, f"{instance!r} is less than the minimum of {value!r}"
        elif keyword == "exclusiveMinimum":
            if _is_bounded(instance, schema) and instance <= value:
                yield path, f"{instance!r} is less than or equal to the minimum of {value!r}"
        elif keyword == "maximum":
            if _is_bounded(instance, schema) and instance > value:
                yield path, f"{instance!r} is greater than the maximum of {value!r}"
        elif keyword == "items":
            if isinstance(instance, list):
                for index, item in enumerate(instance):
                    yield from _schema_walk(item, value, (*path, index))
        elif keyword == "minItems":
            if isinstance(instance, list) and len(instance) < value:
                yield path, f"{instance!r} {'should be non-empty' if value == 1 else 'is too short'}"
        elif keyword == "maxItems":
            if isinstance(instance, list) and len(instance) > value:
                yield path, f"{instance!r} {'is expected to be empty' if value == 0 else 'is too long'}"
        elif keyword == "minLength":
            if isinstance(instance, str) and len(instance) < value:
                yield path, f"{instance!r} {'should be non-empty' if value == 1 else 'is too short'}"
        elif keyword == "pattern":
            if isinstance(instance, str) and not re.search(value, instance):
                yield path, f"{instance!r} does not match {value!r}"


def _schema_errors(instance, schema, prefix: str, bad_keys: set | None = None) -> list[str]:
    """Messages for every schema violation, sorted by path; the top-level keys they sit
    under are added to bad_keys when given."""
    out = []
    for path, message in sorted(_schema_walk(instance, schema), key=lambda error: error[0]):
        out.append(prefix + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path) + f": {message}")
        if bad_keys is not None and path:
            bad_keys.add(path[0])
    return out


def validate_config(doc) -> list[str]:
    """Return every violation in the document; an empty list means valid."""
    if not isinstance(doc, dict):
        return ["$: config must be a JSON object"]
    errors = _schema_errors(doc, _TOP_SCHEMA, "$")
    experiment = doc.get("experiment")
    params = doc.get("params", {})
    if experiment in EXPERIMENTS and isinstance(params, dict):
        bad_keys: set = set()
        errors += _schema_errors(params, _PARAMS_SCHEMAS[experiment], "$.params", bad_keys)
        # Cross-field checks and the run's models read only the fields that passed the schema.
        params = {k: v for k, v in params.items() if k not in bad_keys}
        merged = {**PARAM_DEFAULTS[experiment], **params}
        if experiment == "sweep":
            errors += _sweep_extra_errors(merged)
        kwargs = {k: v for k, v in merged.items() if k in _MODEL_KEYS.get(experiment, ())}
        refusals = []
        if experiment in ("highway_cluster", "perturbation"):
            shift, world = split_kwargs(check_delta, kwargs)
            refusals.append(("$.params", _refusal(HighwayWorld, **world)))
            if shift:
                refusals.append(("$.params.delta_m", _refusal(check_delta, **shift)))
        if experiment == "intersection" and "case" in kwargs:  # a missing case is a schema error
            geometry, _ = split_kwargs(make_case, kwargs)
            refusals.append(("$.params", _refusal(lambda: make_case(**geometry).host.steps(kwargs["dt_s"]))))
        if experiment == "ppp":  # the run's checks that need no draw
            run = ppp_kwargs(merged)
            refusals.append(("$.params", _refusal(lambda: expected_count(
                run["lam"], square_region(FIELD_HOST, run["region_area_m2"]), run["ref_area_m2"]))))
            if "target_distance_m" in run:
                refusals.append(("$.params", _refusal(target_snr, run["p_over_n0"], run["alpha"],
                                                      run["target_distance_m"])))
        errors += [f"{path}: {message}" for path, message in refusals if message]
    return errors


def _sweep_extra_errors(params: dict) -> list[str]:
    """Cross-field checks of the defaulted sweep params that passed the schema."""
    kind, param, base, unit = params.get("kind"), params.get("param"), params.get("base"), params["unit"]
    if kind is None:
        return []
    fields, grid = _SCENARIO_FIELDS[kind], params.get("grid", [])
    series = [(entry["label"], entry.get("overrides", {})) for entry in params["series"]]
    # Bounds only: sweep_errors reports a key that is not a field of the kind.
    schema = {"properties": {name: _FIELD_BOUNDS[name] for name in fields}}
    errors = [] if base is None else _schema_errors(base, schema, "$.params.base")
    # The run's column for the swept value is its scenario name.
    column = params.get("param_label") or (param and _SCENARIO_NAMES.get(param, param))
    rule = sweep_errors(kind, fields, base, param, grid, series, column)
    errors += [f"$.params.{path}: {message}" for path, message in rule]
    if param in fields and param in _SCENARIO_NAMES and unit != "db":
        errors.append(f"$.params.unit: sweeping {param!r} needs unit 'db'")
    bounds = _DECIBEL if unit == "db" else _FIELD_BOUNDS[param] if param in fields else None
    if bounds is not None:
        # The run reads a value of any other unit in SI units, where a tiny one rounds
        # to 0; one <= 0 is checked as written (the factor keeps its sign).
        values = grid if unit == "db" else [GRID_UNITS[unit](g) if g > 0 else g for g in grid]
        errors += _schema_errors(values, {"items": bounds}, "$.params.grid")
    for i, (_, overrides) in enumerate(series):
        errors += _schema_errors(overrides, schema, f"$.params.series[{i}].overrides")
    return errors


def _scenario_values(values: dict) -> dict:
    """Each *_db config value as its scenario field, with the linear value."""
    return {_SCENARIO_NAMES.get(k, k): db_to_linear(v) if k in _SCENARIO_NAMES else v for k, v in values.items()}


def sweep_spec(params: dict) -> SweepSpec:
    """The SweepSpec of defaulted sweep params, in scenario fields and linear values."""
    series = tuple((entry["label"], _scenario_values(entry.get("overrides", {}))) for entry in params["series"])
    param = _SCENARIO_NAMES.get(params["param"], params["param"])
    return SweepSpec(params["kind"], _scenario_values(params["base"]), param, tuple(params["grid"]), params["unit"],
                     params.get("param_label"), series)


def ppp_kwargs(params: dict) -> dict:
    """Defaulted ppp params as keywords of the run_ppp_* model of their mode, in scenario
    fields and linear values: d_fracs goes to distance_curve, target_distance_m to field_dump."""
    other = "target_distance_m" if params["mode"] == "distance_curve" else "d_fracs"
    return _scenario_values({k: v for k, v in params.items() if k not in ("mode", other)})


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
