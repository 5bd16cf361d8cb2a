"""Run configuration: JSON documents validated against a strict schema.

Each experiment is defined in one place, its record in EXPERIMENT_RECORDS:
its config keys with their JSON bounds, their defaults, a plan that makes
every check of the run needing no random draw, and the builder of its table.
EXPERIMENTS, PARAM_DEFAULTS and the params schemas are read off the records.

Validation is exhaustive: every schema violation is reported at once, with
its JSON path, then each refusal of the experiment's plan.  Unknown keys
are rejected everywhere.

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

import numpy as np

from . import highway, intersection, sweeps
from .channel import DEFAULT_ALPHA, DEFAULT_P_OVER_N0_DB, ChannelParams
from .highway import HighwayWorld, check_delta
from .intersection import CASE_IDS, check_span, make_case
from .stochastic import expected_count, sample_field, square_region
from .sweeps import FIELD_HOST, GRID_UNITS, SWEEP_FIELDS, SWEEP_SCENARIOS, SweepSpec, sweep_errors, target_snr
from .tables import ResultTable
from .units import (Decibel, IntAtLeast0, IntAtLeast1, IntAtLeast2, NonNegative, Positive, db_to_linear,
                    field_rules, is_finite)

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
    # float and int first: isinstance against the Real ABC is the walker's costliest call.
    return type(value) in (float, int) or isinstance(value, Real) and not isinstance(value, bool)


def _refusal(check, *args, **kwargs) -> str | None:
    """The message of the ValueError a model check raises, else None."""
    try:
        check(*args, **kwargs)
    except ValueError as exc:
        return str(exc)
    return None


def _refused(path: str, check, *args, **kwargs) -> list[str]:
    """The refusal of a model check as a config error at path, if it refuses."""
    message = _refusal(check, *args, **kwargs)
    return [] if message is None else [f"{path}: {message}"]


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
        record = EXPERIMENT_RECORDS[experiment]
        bad_keys: set = set()
        errors += _schema_errors(params, record.schema, "$.params", bad_keys)
        # The plan reads only the experiment's keys that passed the schema, defaulted.
        params = {k: v for k, v in params.items() if k in record.keys and k not in bad_keys}
        errors += record.plan({**PARAM_DEFAULTS[experiment], **params})[0]
    return errors


def _signature_defaults(keys: dict, *models) -> dict:
    """The defaults of the keys that are defaulted keywords of the models, with tuples as
    the lists a JSON document holds."""
    defaults = {
        name: list(p.default) if isinstance(p.default, tuple) else p.default
        for model in models
        for name, p in inspect.signature(model).parameters.items()
        if p.default is not p.empty
    }
    return {key: defaults[key] for key in keys if key in defaults}


def _scenario_values(values: dict) -> dict:
    """Each *_db config value as its scenario field, with the linear value."""
    return {_SCENARIO_NAMES.get(k, k): db_to_linear(v) if k in _SCENARIO_NAMES else v for k, v in values.items()}


class Experiment:
    """The record of one experiment: each config key with its JSON bounds; the defaults, and the
    optional keys, left unset (a key with neither is required); plan(params) -> (config errors,
    model inputs), every check of the run that needs no random draw; build(inputs, seed) -> table,
    which looks each model up on its home module at call time, where a tracer may rebind it."""

    keys: dict
    defaults: dict
    optional: tuple = ()

    @functools.cached_property
    def schema(self) -> dict:
        return _object_schema(self.keys, [k for k in self.keys if k not in {*self.defaults, *self.optional}])


class _Sweep(Experiment):
    keys = {
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
    }
    defaults = {"unit": SweepSpec.unit,
                "series": [{"label": label, "overrides": dict(o)} for label, o in SweepSpec.series]}
    optional = ("param_label",)  # unset, the column is the swept scenario field

    def plan(self, params: dict) -> tuple[list[str], SweepSpec | None]:
        """The cross-field checks; the run's SweepSpec, in scenario fields and linear values."""
        kind, param, base, unit = params.get("kind"), params.get("param"), params.get("base"), params["unit"]
        if kind is None:
            return [], None
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
        if errors or param is None or base is None or not grid:
            return errors, None
        return [], SweepSpec(kind, _scenario_values(base), _SCENARIO_NAMES.get(param, param), tuple(grid), unit,
                             params.get("param_label"), tuple((label, _scenario_values(o)) for label, o in series))

    def build(self, spec: SweepSpec, seed: int) -> ResultTable:
        data = sweeps.run_sweep(spec)
        return ResultTable.from_rows(data.columns, data.rows)


class _Intersection(Experiment):
    # check_span, make_case, Trajectory.steps and run_intersection_case check these inline; no field type
    # declares them.
    keys = {
        "case": {"type": "integer", "minimum": min(CASE_IDS), "maximum": max(CASE_IDS)},
        "dt_s": _POSITIVE,
        "speed_kmh": _POSITIVE,
        "alpha": _POSITIVE,
        "p_over_n0_db": _DECIBEL,
        "lane_offset_m": _POSITIVE,
        "host_span": _SPAN,
        "target_span": _SPAN,
    }
    defaults = _signature_defaults(keys, intersection.run_intersection_case)
    geometry_keys = frozenset(inspect.signature(make_case).parameters)

    def plan(self, params: dict) -> tuple[list[str], dict]:
        """The spans, the case's geometry and step count; the run takes the params as they are."""
        if "case" not in params:  # a schema error
            return [], params
        errors = [error for key in ("host_span", "target_span")
                  for error in _refused(f"$.params.{key}", check_span, key, params[key])]
        if errors:
            return errors, params
        try:
            host = make_case(**{key: params[key] for key in self.geometry_keys}).host
        except ValueError as exc:  # with finite spans, only the end that a case 5 or 6 target takes
            return [f"$.params.target_span: {exc}"], params
        return _refused("$.params", host.steps, params["dt_s"]), params

    def build(self, params: dict, seed: int) -> ResultTable:
        res = intersection.run_intersection_case(**params)
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


class _HighwayCluster(Experiment):
    keys = {name: _RULE_BOUNDS[rule] for name, rule in field_rules(HighwayWorld) if name != "seed"}
    defaults = _signature_defaults(keys, HighwayWorld)

    def plan(self, params: dict) -> tuple[list[str], dict]:
        return _refused("$.params", HighwayWorld, **params), params

    def build(self, params: dict, seed: int) -> ResultTable:
        res = highway.run_highway_experiment(HighwayWorld(seed=seed, **params))
        return _link_table(["t_s", "source_id", "target_id", "distance_m", "secrecy"],
                           res, [res.target_idx], [res.distances, res.secrecy])


class _Perturbation(_HighwayCluster):
    # The keywords of check_delta, which checks them inline, and of run_perturbation_study.
    shift_keys = {"delta_m": _NUMBER, "allow_custom_delta": _BOOLEAN}
    keys = {**_HighwayCluster.keys, **shift_keys}
    defaults = _signature_defaults(keys, HighwayWorld, highway.run_perturbation_study)

    def plan(self, params: dict) -> tuple[list[str], tuple[dict, dict]]:
        world = {k: v for k, v in params.items() if k not in self.shift_keys}
        shift = {k: params[k] for k in self.shift_keys}
        return super().plan(world)[0] + _refused("$.params.delta_m", check_delta, **shift), (world, shift)

    def build(self, run: tuple[dict, dict], seed: int) -> ResultTable:
        world, shift = run
        res = highway.run_perturbation_study(HighwayWorld(seed=seed, **world), **shift)
        return _link_table(
            ["t_s", "source_id", "target_base", "target_pert", "distance_base_m",
             "distance_pert_m", "secrecy_base", "secrecy_pert", "dx_base_m"],
            res,
            [res.target_idx_base, res.target_idx_pert],
            [res.distances_base, res.distances_pert, res.secrecy_base, res.secrecy_pert, res.dx_base],
        )


class _Ppp(Experiment):
    # sample_field (expected_count, square_region), run_ppp_distance_curve and target_snr check
    # these inline; alpha and p_over_n0_db are the fields of the ChannelParams of the run.
    keys = {
        "lam": _NON_NEGATIVE,
        "region_area_m2": _POSITIVE,
        "ref_area_m2": _POSITIVE,
        "alpha": _FIELD_BOUNDS["alpha"],
        "p_over_n0_db": _FIELD_BOUNDS["p_over_n0_db"],
        "mode": {"enum": ["distance_curve", "field_dump"]},
        "d_fracs": {"type": "array", "minItems": 1, "items": _POSITIVE},
        "target_distance_m": _POSITIVE,
    }
    defaults = {
        "lam": 6.0,
        "region_area_m2": 1000.0,
        "ref_area_m2": inspect.signature(sample_field).parameters["ref_area_m2"].default,
        "alpha": DEFAULT_ALPHA,
        "p_over_n0_db": DEFAULT_P_OVER_N0_DB,
        "mode": "distance_curve",
        "d_fracs": [0.1, 0.3, 0.5],
        "target_distance_m": 10.0,
    }

    def plan(self, params: dict) -> tuple[list[str], tuple[str, dict]]:
        """The field's expected point count and the target's SNR; the mode, and the keywords of its
        run_ppp_* model in scenario fields and linear values: d_fracs goes to distance_curve,
        target_distance_m to field_dump."""
        other = "target_distance_m" if params["mode"] == "distance_curve" else "d_fracs"
        run = _scenario_values({k: v for k, v in params.items() if k not in ("mode", other)})
        errors = _refused("$.params", lambda: expected_count(
            run["lam"], square_region(FIELD_HOST, run["region_area_m2"]), run["ref_area_m2"]))
        if "target_distance_m" in run:
            errors += _refused("$.params", target_snr, run["p_over_n0"], run["alpha"], run["target_distance_m"])
        return errors, (params["mode"], run)

    def build(self, run: tuple[str, dict], seed: int) -> ResultTable:
        mode, kwargs = run
        model = sweeps.run_ppp_distance_curve if mode == "distance_curve" else sweeps.run_ppp_field_dump
        data = model(seed=seed, **kwargs)
        return ResultTable.from_rows(data.columns, data.rows)


EXPERIMENT_RECORDS = {
    "sweep": _Sweep(), "intersection": _Intersection(), "highway_cluster": _HighwayCluster(),
    "perturbation": _Perturbation(), "ppp": _Ppp(),
}
EXPERIMENTS = tuple(EXPERIMENT_RECORDS)
PARAM_DEFAULTS: dict[str, dict] = {experiment: record.defaults for experiment, record in EXPERIMENT_RECORDS.items()}

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
