"""Spans and counters around calls into vscsim's public functions.

The tracer rebinds the module attributes that callers look up (for
example ``vscsim.runner.run_highway_experiment``, which ``runner.build_table``
reads at call time) to a wrapper that records one span per call: name,
start, end, parent span and operation id.  Spans stay in memory until the
run ends.  Counters are computed from each call's arguments and return
value, never from inside the program.

A target whose module or attribute no longer exists is skipped, and every
metric derived from it reads as missing (``None``) instead of failing the
run; the same holds for a counter whose hook no longer understands the
arguments or return value it sees.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    """A call's argument by position or by keyword; None when omitted."""
    return args[index] if len(args) > index else kwargs.get(name)


# --- counter hooks: (counts, args, kwargs, result) -> None -------------------


def _highway_counts(counts, args, kwargs, res):
    n_steps, n_nodes = res.positions.shape[:2]
    counts["highway.vehicle_steps"] += n_steps * n_nodes
    counts["highway.link_evals"] += res.target_idx.size
    counts["highway.reselections"] += int(np.count_nonzero(np.diff(res.target_idx, axis=0)))


def _perturbation_counts(counts, args, kwargs, res):
    counts["highway.link_evals"] += res.target_idx_pert.size


def _table_write_counts(counts, args, kwargs, res):
    counts["tables.rows_written"] += len(_arg(args, kwargs, 0, "table").rows)
    counts["tables.bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _intersection_counts(counts, args, kwargs, res):
    counts["intersection.steps"] += len(res.times)


def _fading_counts(counts, args, kwargs, res):
    size = _arg(args, kwargs, 2, "size")
    counts["channel.samples"] += 1 if size is None else int(size)


def _ergodic_counts(counts, args, kwargs, res):
    counts["stochastic.mc_in_set"] += res.in_set_count
    counts["stochastic.mc_drawn"] += res.sample_count


def _field_counts(counts, args, kwargs, res):
    counts["stochastic.field_points"] += len(res)
    counts["stochastic.empty_fields"] += len(res) == 0


def _csi_read_counts(counts, args, kwargs, res):
    counts["vsc.records"] += len(res)


def _negotiate_counts(counts, args, kwargs, res):
    counts["cluster.negotiations"] += 1
    counts["cluster.negotiate_connected"] += bool(res.connected)
    counts["cluster.negotiate_iterations"] += res.iterations


def _identity_counts(counts, args, kwargs, res):
    ident = _arg(args, kwargs, 0, "identity")
    # identity_is_valid hashes the VIN chain_length times once the VIN parses.
    if len(ident.vin) == 17 and ident.vin.isalnum():
        counts["cluster.hashes"] += ident.chain_length


def _verify_counts(counts, args, kwargs, res):
    doc = _arg(args, kwargs, 0, "doc")
    counts["cluster.hashes"] += int(doc["chain_length"]) - int(doc["position"])


def _exchange_counts(counts, args, kwargs, res):
    counts["cluster.hashes"] += int(res["chain_length"]) + int(res["position"])


def _form_counts(counts, args, kwargs, res):
    state, _pseudo = res
    counts["cluster.candidates"] += len(_arg(args, kwargs, 0, "candidates"))
    counts["cluster.members"] += len(state.members)


@dataclass(frozen=True)
class Target:
    """One traced function: span name, the places callers look it up, and
    the counters its hook derives from each call."""

    name: str
    lookups: tuple[str, ...]  # "module:attr" or "module:Class.attr"
    hook: Callable | None = None
    counters: tuple[str, ...] = ()


_SCENARIO_FNS = ("highway_secrecy", "relay_secrecy", "urban_fixed_secrecy", "urban_moving_secrecy")

TARGETS: tuple[Target, ...] = (
    Target("config.build_config", ("vscsim.config:build_config",)),
    Target("config.validate_config", ("vscsim.config:validate_config",)),
    Target("runner.run", ("vscsim.runner:run",)),
    Target("runner.build_table", ("vscsim.runner:build_table",)),
    Target(
        "highway.run_highway_experiment",
        ("vscsim.runner:run_highway_experiment", "vscsim.highway:run_highway_experiment"),
        _highway_counts,
        ("highway.vehicle_steps", "highway.link_evals", "highway.reselections"),
    ),
    Target(
        "highway.run_perturbation_study",
        ("vscsim.runner:run_perturbation_study", "vscsim.highway:run_perturbation_study"),
        _perturbation_counts,
        ("highway.link_evals",),
    ),
    Target(
        "intersection.run_intersection_case",
        ("vscsim.runner:run_intersection_case", "vscsim.intersection:run_intersection_case"),
        _intersection_counts,
        ("intersection.steps",),
    ),
    Target("sweeps.run_sweep", ("vscsim.runner:run_sweep", "vscsim.sweeps:run_sweep")),
    Target(
        "sweeps.run_ppp_distance_curve",
        ("vscsim.runner:run_ppp_distance_curve", "vscsim.sweeps:run_ppp_distance_curve"),
    ),
    Target(
        "sweeps.run_ppp_field_dump",
        ("vscsim.runner:run_ppp_field_dump", "vscsim.sweeps:run_ppp_field_dump"),
    ),
    *(
        Target(
            f"scenarios.{fn}",
            (f"vscsim.sweeps:{fn}", f"vscsim.cluster:{fn}", f"vscsim.scenarios:{fn}"),
        )
        for fn in _SCENARIO_FNS
    ),
    Target(
        "tables.write_csv",
        ("vscsim.runner:write_csv", "vscsim.tables:write_csv"),
        _table_write_counts,
        ("tables.rows_written", "tables.bytes_written"),
    ),
    Target(
        "tables.emit_plot_data",
        ("vscsim.runner:emit_plot_data", "vscsim.tables:emit_plot_data"),
        _table_write_counts,
        ("tables.rows_written", "tables.bytes_written"),
    ),
    Target(
        "channel.sample_fading",
        ("vscsim.stochastic:sample_fading", "vscsim.channel:sample_fading"),
        _fading_counts,
        ("channel.samples",),
    ),
    Target(
        "stochastic.ergodic_secrecy_mc",
        ("vscsim.stochastic:ergodic_secrecy_mc",),
        _ergodic_counts,
        ("stochastic.mc_in_set", "stochastic.mc_drawn"),
    ),
    Target(
        "stochastic.sample_field",
        ("vscsim.sweeps:sample_field", "vscsim.stochastic:sample_field"),
        _field_counts,
        ("stochastic.field_points", "stochastic.empty_fields"),
    ),
    Target("stochastic.ppp_secrecy", ("vscsim.sweeps:ppp_secrecy", "vscsim.stochastic:ppp_secrecy")),
    Target(
        "stochastic.average_secrecy",
        ("vscsim.sweeps:average_secrecy", "vscsim.stochastic:average_secrecy"),
    ),
    Target("vsc.write_csi_csv", ("vscsim.vsc:write_csi_csv",)),
    Target("vsc.read_csi_csv", ("vscsim.vsc:read_csi_csv",), _csi_read_counts, ("vsc.records",)),
    Target("vsc.windowed_stream", ("vscsim.vsc:windowed_stream",)),
    Target("vsc.compute_vsc", ("vscsim.vsc:compute_vsc", "vscsim.cluster:compute_vsc")),
    Target("cluster.sc_select", ("vscsim.cluster:sc_select",)),
    Target(
        "cluster.rsc_negotiate",
        ("vscsim.cluster:rsc_negotiate",),
        _negotiate_counts,
        ("cluster.negotiations", "cluster.negotiate_connected", "cluster.negotiate_iterations"),
    ),
    Target(
        "cluster.make_identity_exchange",
        ("vscsim.cluster:make_identity_exchange",),
        _exchange_counts,
        ("cluster.hashes",),
    ),
    Target(
        "cluster.verify_identity_exchange",
        ("vscsim.cluster:verify_identity_exchange",),
        _verify_counts,
        ("cluster.hashes",),
    ),
    Target(
        "cluster.identity_is_valid",
        ("vscsim.cluster:identity_is_valid",),
        _identity_counts,
        ("cluster.hashes",),
    ),
    Target(
        "cluster.form_cluster",
        ("vscsim.cluster:form_cluster",),
        _form_counts,
        ("cluster.candidates", "cluster.members"),
    ),
    Target("cluster.history_save", ("vscsim.cluster:ClusterHistory.save",)),
    Target("cluster.history_load", ("vscsim.cluster:ClusterHistory.load",)),
)


def _resolve(lookup: str):
    """(owner, attribute name, static attribute) for "module:a.b", or None."""
    module_name, _, path = lookup.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    try:
        static = inspect.getattr_static(owner, attr)
    except AttributeError:
        return None
    return owner, attr, static


class Tracer:
    """Install with :meth:`install`, run operations, then :meth:`uninstall`."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.op_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.installed: set[str] = set()
        self.broken_counters: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [target.name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if target.hook is not None and not self.broken_counters.issuperset(target.counters):
                try:
                    target.hook(counts, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    self.broken_counters.update(target.counters)
            return result

        return traced

    def install(self) -> None:
        for target in self.targets:
            wrappers: dict[int, Callable] = {}
            for lookup in target.lookups:
                found = _resolve(lookup)
                if found is None:
                    continue
                owner, attr, static = found
                if isinstance(static, classmethod):
                    fn = static.__func__
                elif callable(static):
                    fn = static
                else:
                    continue
                wrapped = wrappers.setdefault(id(fn), self._wrap(target, fn))
                replacement = classmethod(wrapped) if isinstance(static, classmethod) else wrapped
                self._undo.append((owner, attr, static))
                setattr(owner, attr, replacement)
                self.installed.add(target.name)

    def uninstall(self) -> None:
        for owner, attr, static in reversed(self._undo):
            setattr(owner, attr, static)
        self._undo.clear()

    def functions(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per traced function.  Self time is a
        span's duration minus the time its direct children cover; calls
        run on one thread, so children never overlap."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {
            t.name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            for t in self.targets
            if t.name in self.installed
        }
        for (name, start, end, _parent, _op), children in zip(self.spans, child_time):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - children
        return out

    def missing(self) -> list[str]:
        """Traced functions not found and counters whose hook broke."""
        absent = [t.name for t in self.targets if t.name not in self.installed]
        return sorted(absent) + sorted(self.broken_counters)

    def metrics(self) -> dict[str, float | None]:
        """The per-module metrics named in the benchmark; None marks a
        metric whose function or counter is missing."""
        fns = self.functions()
        broken = self.broken_counters

        def fn_stat(name: str, stat: str):
            return fns[name][stat] if name in fns else None

        def count(name: str, producer: str):
            return None if producer not in fns or name in broken else self.counts.get(name, 0.0)

        def ratio(num: str, den: str, producer: str):
            n, d = count(num, producer), count(den, producer)
            if n is None or d is None:
                return None
            return n / d if d else 0.0

        scenario = [row for name, row in fns.items() if name.startswith("scenarios.")]
        out: dict[str, float | None] = {
            "highway.run_highway_experiment.self_s": fn_stat("highway.run_highway_experiment", "self_s"),
            "highway.run_perturbation_study.self_s": fn_stat("highway.run_perturbation_study", "self_s"),
            "highway.vehicle_steps": count("highway.vehicle_steps", "highway.run_highway_experiment"),
            "highway.link_evals": count("highway.link_evals", "highway.run_highway_experiment"),
            "highway.reselections": count("highway.reselections", "highway.run_highway_experiment"),
            "runner.run.self_s": fn_stat("runner.run", "self_s"),
            "runner.build_table.self_s": fn_stat("runner.build_table", "self_s"),
            "tables.write_csv.self_s": fn_stat("tables.write_csv", "self_s"),
            "tables.emit_plot_data.self_s": fn_stat("tables.emit_plot_data", "self_s"),
            "tables.rows_written": count("tables.rows_written", "tables.write_csv"),
            "tables.bytes_written": count("tables.bytes_written", "tables.write_csv"),
            "config.build_config.self_s": fn_stat("config.build_config", "self_s"),
            "config.validate_config.calls": fn_stat("config.validate_config", "calls"),
            "sweeps.run_sweep.self_s": fn_stat("sweeps.run_sweep", "self_s"),
            "scenarios.evals": sum(r["calls"] for r in scenario) if scenario else None,
            "scenarios.self_s": sum(r["self_s"] for r in scenario) if scenario else None,
            "intersection.run_intersection_case.self_s": fn_stat(
                "intersection.run_intersection_case", "self_s"
            ),
            "intersection.steps": count("intersection.steps", "intersection.run_intersection_case"),
            "channel.sample_fading.self_s": fn_stat("channel.sample_fading", "self_s"),
            "channel.samples": count("channel.samples", "channel.sample_fading"),
            "stochastic.ergodic_secrecy_mc.self_s": fn_stat("stochastic.ergodic_secrecy_mc", "self_s"),
            "stochastic.mc_in_set_ratio": ratio(
                "stochastic.mc_in_set", "stochastic.mc_drawn", "stochastic.ergodic_secrecy_mc"
            ),
            "stochastic.sample_field.self_s": fn_stat("stochastic.sample_field", "self_s"),
            "stochastic.field_points": count("stochastic.field_points", "stochastic.sample_field"),
            "stochastic.empty_fields": count("stochastic.empty_fields", "stochastic.sample_field"),
            "stochastic.ppp_secrecy.self_s": fn_stat("stochastic.ppp_secrecy", "self_s"),
            "stochastic.average_secrecy.self_s": fn_stat("stochastic.average_secrecy", "self_s"),
            "sweeps.run_ppp_field_dump.self_s": fn_stat("sweeps.run_ppp_field_dump", "self_s"),
            "vsc.windowed_stream.self_s": fn_stat("vsc.windowed_stream", "self_s"),
            "vsc.compute_vsc.calls": fn_stat("vsc.compute_vsc", "calls"),
            "vsc.write_csi_csv.self_s": fn_stat("vsc.write_csi_csv", "self_s"),
            "vsc.read_csi_csv.self_s": fn_stat("vsc.read_csi_csv", "self_s"),
            "vsc.records": count("vsc.records", "vsc.read_csi_csv"),
            "cluster.sc_select.self_s": fn_stat("cluster.sc_select", "self_s"),
            "cluster.rsc_negotiate.self_s": fn_stat("cluster.rsc_negotiate", "self_s"),
            "cluster.negotiate_connected_ratio": ratio(
                "cluster.negotiate_connected", "cluster.negotiations", "cluster.rsc_negotiate"
            ),
            "cluster.negotiate_iterations": count("cluster.negotiate_iterations", "cluster.rsc_negotiate"),
            "cluster.verify_identity_exchange.self_s": fn_stat("cluster.verify_identity_exchange", "self_s"),
            "cluster.identity_is_valid.self_s": fn_stat("cluster.identity_is_valid", "self_s"),
            "cluster.hashes": count("cluster.hashes", "cluster.identity_is_valid"),
            "cluster.form_cluster.self_s": fn_stat("cluster.form_cluster", "self_s"),
            "cluster.member_ratio": ratio("cluster.members", "cluster.candidates", "cluster.form_cluster"),
            "cluster.history_save.self_s": fn_stat("cluster.history_save", "self_s"),
            "cluster.history_load.self_s": fn_stat("cluster.history_load", "self_s"),
        }
        return {k: (None if v is None or not math.isfinite(v) else v) for k, v in out.items()}
