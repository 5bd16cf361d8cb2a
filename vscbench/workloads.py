"""Seeded inputs, timed operations and output checks for the four workloads.

Every call into the program goes through a module attribute
(``vscsim.runner.run``, not a name imported from it), so the tracer can
rebind it.  The workload seed only shapes the inputs built here; the
program receives nothing but those configs and inputs.

Each operation has a key that names its inputs.  Equal keys must give
byte-identical outputs within a run, and for the recorded seed the outputs
must match the fingerprints in ``expected.json``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import vscsim.channel
import vscsim.cluster
import vscsim.config
import vscsim.presets
import vscsim.runner
import vscsim.scenarios
import vscsim.stochastic
import vscsim.sweeps
import vscsim.tables
import vscsim.units
import vscsim.vsc

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR.parent / "tests" / "golden"
EXPECTED_PATH = BENCH_DIR / "expected.json"

# Seed whose full-size outputs are pinned in expected.json.  The paper
# workload's outputs do not depend on the seed, so they are pinned for all.
RECORDED_SEED = 0
SEED_FREE = ("paper",)

GOLDENS = {
    "fig4": "fig4_expected.csv",
    "fig5": "fig5_expected.csv",
    "table1-case1": "table1_case1_expected.csv",
}
GOLDEN_REL = 1e-12

_HIGHWAY_COLUMNS = ["t_s", "source_id", "target_id", "distance_m", "secrecy"]
_PERTURBATION_COLUMNS = [
    "t_s", "source_id", "target_base", "target_pert", "distance_base_m",
    "distance_pert_m", "secrecy_base", "secrecy_pert", "dx_base_m",
]


@dataclass
class Op:
    """One closed-loop operation: a timed call plus its untimed checks."""

    key: str
    run: Callable[[], object]
    work: float
    fingerprint: Callable[[object], dict]
    validate: Callable[[object], list]


@dataclass
class Workload:
    name: str
    work_unit: str
    ops: list  # one cycle of Op
    block: int  # ops after which the cycle's mix of op kinds repeats
    warmup: int  # leading ops run once, untimed, before measuring
    configs: list  # config documents the ops build, for set-up timing
    inputs: dict  # generated input parameters, hashed into the provenance


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _text_digest(value) -> str:
    return _sha256(repr(value).encode("utf-8"))


def _all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


# --- config-driven workloads: fleet and paper --------------------------------


def _expected_shape(config) -> tuple[list, int | None]:
    """Columns and row count a config's table must have, where known up front."""
    p = config.params
    if config.experiment in ("highway_cluster", "perturbation"):
        steps = int(round(p["duration_s"] / p["dt_s"]))
        cols = _HIGHWAY_COLUMNS if config.experiment == "highway_cluster" else _PERTURBATION_COLUMNS
        return cols, steps * p["n_sources"]
    if config.experiment == "sweep":
        labels = [entry["label"] for entry in p["series"]]
        return [p.get("param_label", p["param"])] + labels, len(p["grid"])
    if config.experiment == "intersection":
        return ["t_s", "distance_m", "capacity"], None
    if p["mode"] == "distance_curve":
        return ["d_over_rmin", "d_m", "cs_non_colluding", "cs_colluding", "cs_average"], len(p["d_fracs"])
    return ["x_m", "y_m", "distance_m", "pair_secrecy"], None


def _table_errors(label: str, table, config) -> list[str]:
    columns, n_rows = _expected_shape(config)
    errors = []
    if table.columns != columns:
        errors.append(f"{label}: columns {table.columns} != {columns}")
    if n_rows is not None and len(table.rows) != n_rows:
        errors.append(f"{label}: {len(table.rows)} rows, expected {n_rows}")
    if n_rows is None and not table.rows and config.experiment == "intersection":
        errors.append(f"{label}: no rows")
    floats = [v for row in table.rows for v in row if isinstance(v, float)]
    if not _all_finite(floats):
        errors.append(f"{label}: non-finite values")
    want = {"config": vscsim.tables.config_hash(config.canonical), "seed": str(config.seed)}
    got = {k: table.provenance.get(k) for k in want}
    if got != want:
        errors.append(f"{label}: provenance {got} != {want}")
    return errors


def golden_errors(name: str, csv_path: Path) -> list[str]:
    """Compare a written preset CSV with its committed golden, as the
    golden tests do: same columns and row count, values within rel 1e-12."""
    got = vscsim.tables.read_csv(csv_path)
    want = vscsim.tables.read_csv(GOLDEN_DIR / GOLDENS[name])
    if got.columns != want.columns or len(got.rows) != len(want.rows):
        return [f"{name}: shape differs from golden {GOLDENS[name]}"]
    for grow, wrow in zip(got.rows, want.rows):
        for g, w in zip(grow, wrow):
            if g != w and abs(g - w) > max(GOLDEN_REL * abs(w), 1e-15):
                return [f"{name}: value {g!r} differs from golden {w!r}"]
    return []


def _file_fingerprint(result) -> dict:
    _config, paths = result
    return {p.name: _sha256(p.read_bytes()) for p in paths}


def _validate_files(result) -> list[str]:
    config, paths = result
    errors = []
    for path in paths:
        if path.suffix == ".csv":
            table = vscsim.tables.read_csv(path)
            if config.name in GOLDENS:
                errors += golden_errors(config.name, path)
        else:
            table = vscsim.tables.read_plot_data(path)
        errors += _table_errors(path.name, table, config)
    expected = {f"{config.name}.csv"} | ({f"{config.name}.dat"} if config.emit_plot_data else set())
    if {p.name for p in paths} != expected:
        errors.append(f"{config.name}: wrote {[p.name for p in paths]}, expected {sorted(expected)}")
    return errors


def _config_op(doc: dict, out_dir: Path, work: float) -> Op:
    def run():
        config = vscsim.config.build_config(doc)
        return config, vscsim.runner.run(config, str(out_dir))

    return Op(doc["name"], run, work, _file_fingerprint, _validate_files)


def fleet(seed: int, size: str, out_dir: Path) -> Workload:
    """Scaled highway_cluster and perturbation configs through
    build_config -> runner.run, which computes and writes the CSV.

    One cycle is a 1000-node highway run, three 1000-node perturbation
    runs and a 10000-node highway run.  The kinds take 20/60/20% of the
    samples, so the median falls in the middle of the perturbation runs
    and the 90th percentile in the middle of the 10000-node runs.
    """
    rng = np.random.default_rng(seed)
    small, big, sources, duration = (1000, 10000, 100, 10.0) if size == "full" else (40, 120, 4, 2.0)
    plan = [
        ("highway_cluster", small),
        ("perturbation", small),
        ("perturbation", small),
        ("perturbation", small),
        ("highway_cluster", big),
    ]
    docs = []
    for i, (experiment, n_nodes) in enumerate(plan):
        params = {"n_nodes": n_nodes, "n_sources": sources, "duration_s": duration}
        if experiment == "perturbation":
            params["delta_m"] = float(rng.choice([-5.0, 5.0]))
        docs.append(
            {
                "name": f"{experiment}-{n_nodes}-{i}",
                "experiment": experiment,
                "params": params,
                "seed": int(rng.integers(2**31)),
            }
        )
    steps = int(round(duration / vscsim.config.PARAM_DEFAULTS["highway_cluster"]["dt_s"]))
    ops = [_config_op(d, out_dir, d["params"]["n_nodes"] * steps) for d in docs]
    return Workload("fleet", "vehicle-steps", ops, len(ops), 2, docs, {"docs": docs})


# Extra runs of the two highway presets per paper cycle.  With 17 small
# presets, two highway-cluster and four perturbation runs, the median falls
# among the small presets and the 90th percentile mid-way through the
# perturbation runs, not on the edge between the small and the highway ones.
PAPER_REPEATS = {"highway-cluster": 2, "perturbation": 4}
PAPER_PASSES = 4


def paper(seed: int, size: str, out_dir: Path) -> Workload:
    """Every preset through build_config -> runner.run, with gnuplot data
    for the sweep figures; the seed picks the starting preset.

    A cycle is four passes over the presets.  Each small preset runs in
    one pass, perturbation in every pass and highway-cluster in every
    other pass (PAPER_REPEATS), so the heavy runs are spread over the cycle.
    """
    names = vscsim.presets.list_presets()
    start = seed % len(names)
    order = names[start:] + names[:start]
    docs = {}
    for name in order:
        doc = vscsim.presets.get_preset(name)
        if doc["experiment"] == "sweep":
            doc["emit"] = {"plot_data": True}
        docs[name] = doc
    ops = []
    for p in range(PAPER_PASSES):
        for i, name in enumerate(order):
            repeats = PAPER_REPEATS.get(name)
            if (i % PAPER_PASSES == p) if repeats is None else (p % (PAPER_PASSES // repeats) == 0):
                ops.append(_config_op(docs[name], out_dir, 1.0))
    return Workload("paper", "presets", ops, len(ops), len(ops), list(docs.values()),
                    {"presets": names, "start": start, "repeats": PAPER_REPEATS})


# --- stochastic: channel and stochastic called directly -----------------------


def _estimate_errors(key: str, est, n: int) -> list[str]:
    ok = (
        math.isfinite(est.value)
        and math.isfinite(est.stderr)
        and est.stderr >= 0.0
        and est.sample_count == n
        and 0 <= est.in_set_count <= n
        and not est.empty_set
    )
    return [] if ok else [f"{key}: implausible estimate {est!r}"]


def _ergodic_op(key, cfg, h_ab, h_ae, on_off) -> Op:
    def run():
        return vscsim.stochastic.ergodic_secrecy_mc(cfg, h_ab, h_ae, on_off)

    return Op(
        key,
        run,
        2.0 * cfg.sample_count,
        lambda est: {"estimate": repr(est)},
        lambda est: _estimate_errors(key, est, cfg.sample_count),
    )


def _field_coords(fields) -> np.ndarray:
    return np.array([(p.x, p.y) for f in fields for p in f.points], dtype=float).reshape(-1, 2)


def _field_batch_op(key, lam, region, seeds) -> Op:
    """Many small fields, the pattern of the PPP count-statistics check."""

    def run():
        return [vscsim.stochastic.sample_field(lam, region, seed=s) for s in seeds]

    def fingerprint(fields):
        counts = np.array([len(f) for f in fields], dtype=np.int64)
        return {"fields": _sha256(counts.tobytes() + _field_coords(fields).tobytes())}

    def validate(fields):
        xy = _field_coords(fields)
        inside = (
            np.all(xy[:, 0] >= region.x_min) and np.all(xy[:, 0] <= region.x_max)
            and np.all(xy[:, 1] >= region.y_min) and np.all(xy[:, 1] <= region.y_max)
        )
        return [] if len(fields) == len(seeds) and inside else [f"{key}: points outside the region"]

    # Work is the number of points drawn, known only after the draw; the
    # batch is fixed per key, so count it once here.
    points = sum(len(vscsim.stochastic.sample_field(lam, region, seed=s)) for s in seeds)
    return Op(key, run, float(points), fingerprint, validate)


def _ppp_op(key, lam, region, seed, params, distances) -> Op:
    host = vscsim.units.Point2D(0.0, 0.0)
    modes = (vscsim.stochastic.NON_COLLUDING, vscsim.stochastic.COLLUDING)

    def run():
        field = vscsim.stochastic.sample_field(lam, region, seed=seed)
        values = []
        for d in distances:
            target = vscsim.units.Point2D(d, 0.0)
            values += [vscsim.stochastic.ppp_secrecy(host, target, field, m, params) for m in modes]
            values.append(vscsim.stochastic.average_secrecy(host, target, field, params))
        return len(field), values

    def validate(result):
        n, values = result
        triples = [values[i:i + 3] for i in range(0, len(values), 3)]
        ok = n > 0 and _all_finite(values) and all(col <= non + 1e-12 for non, col, _ in triples)
        return [] if ok else [f"{key}: implausible PPP secrecy {values!r}"]

    points = len(vscsim.stochastic.sample_field(lam, region, seed=seed))
    return Op(key, run, float(points), lambda r: {"secrecy": repr(r)}, validate)


def _ppp_table_op(key, mode, common, arg, seed, points) -> Op:
    fn_name = "run_ppp_distance_curve" if mode == "curve" else "run_ppp_field_dump"

    def run():
        return getattr(vscsim.sweeps, fn_name)(*common, arg, seed)

    def validate(table):
        rows = len(arg) if mode == "curve" else points
        ok = len(table.rows) == rows and _all_finite(v for row in table.rows for v in row)
        return [] if ok else [f"{key}: {len(table.rows)} rows or non-finite values"]

    return Op(key, run, float(points), lambda t: {"table": _text_digest(t)}, validate)


def stochastic(seed: int, size: str, out_dir: Path) -> Workload:
    """Ergodic Monte Carlo for three fading pairs, on/off and always-on;
    batches of small PPP fields; PPP secrecy and the two PPP sweeps on
    fields of about 10^4 points.  No config, no CSV.

    A cycle holds 15 ops (six estimates, three field batches, two of each
    PPP op on different fields).  With an odd count of ops per kind the
    median and the 90th percentile (positions 7.5 and 13.5 of 15) fall
    inside one kind of op, not on the edge between two kinds.
    """
    rng = np.random.default_rng(seed)
    full = size == "full"
    n_samples = 10**6 if full else 10**4
    n_fields = 2000 if full else 50
    big_area = 1.0e6 if full else 1.0e4  # lam = 10 per 1000 m^2 gives ~10^4 points
    fm = vscsim.channel.FadingModel
    k_factor = float(rng.uniform(1.0, 10.0))
    m_shape = float(rng.uniform(1.0, 4.0))
    budget = float(10.0 ** rng.uniform(1.0, 3.0))
    pairs = [
        ("rayleigh", fm.rayleigh(), fm.rayleigh()),
        ("rician", fm.rician(k_factor), fm.rayleigh()),
        ("nakagami", fm.nakagami(m_shape), fm.nakagami(1.0)),
    ]
    ops = []
    for name, h_ab, h_ae in pairs:
        for on_off in (True, False):
            cfg = vscsim.stochastic.ErgodicConfig(
                budget, sample_count=n_samples, seed=int(rng.integers(2**31))
            )
            ops.append(_ergodic_op(f"mc-{name}-{'onoff' if on_off else 'always'}", cfg, h_ab, h_ae, on_off))
    small = vscsim.stochastic.Rect(0.0, 0.0, 100.0, 10.0)
    for i in range(3):
        first = int(rng.integers(2**31))
        ops.append(_field_batch_op(f"field-batch-{i}", 6.0, small, range(first, first + n_fields)))
    lam, alpha, p_db = 10.0, 1.4, 70.0
    params = vscsim.channel.ChannelParams.from_db(p_db, alpha)
    region = vscsim.stochastic.square_region(vscsim.units.Point2D(0.0, 0.0), big_area)
    common = (lam, big_area, 1000.0, alpha, params.p_over_n0)
    for i in range(2):
        distances = (2.0, 5.0, 10.0, 20.0, 40.0)
        ops.append(_ppp_op(f"ppp-secrecy-{i}", lam, region, int(rng.integers(2**31)), params, distances))
        for mode, arg in (("curve", (0.1, 0.2, 0.3, 0.5, 0.8)), ("dump", 10.0)):
            field_seed = int(rng.integers(2**31))
            points = len(vscsim.stochastic.sample_field(lam, region, seed=field_seed))
            ops.append(_ppp_table_op(f"ppp-{mode}-{i}", mode, common, arg, field_seed, points))
    inputs = {
        "samples": n_samples, "fields": n_fields, "area": big_area,
        "k": k_factor, "m": m_shape, "budget": budget,
    }
    return Workload("stochastic", "fading samples + field points", ops, len(ops), len(ops), [], inputs)


# --- protocol: vsc and cluster on a synthetic CSI stream ----------------------


@dataclass
class _SegmentOutcome:
    written: list
    read: list
    windows: list
    exchanges: list
    negotiations: list
    clusters: list
    replay: list


def _protocol_op(key, records, identities, vins, plan, size_cfg, out_dir) -> Op:
    unit_time, chain = size_cfg["unit_time"], size_cfg["chain"]
    csi_path = out_dir / "csi.csv"
    history_path = out_dir / "history.jsonl"
    registry = {ident.vehicle_id: ident for ident in identities}

    def run():
        vscsim.vsc.write_csi_csv(csi_path, records)
        read = vscsim.vsc.read_csi_csv(csi_path)
        windows = vscsim.vsc.windowed_stream(read, unit_time)
        exchanges = []
        for vehicle_id, position, forged in plan["exchange"]:
            doc = vscsim.cluster.make_identity_exchange(vehicle_id, vins[vehicle_id], chain, position)
            if forged:
                doc["preimage_hex"] = doc["preimage_hex"][:-1] + ("0" if doc["preimage_hex"][-1] != "0" else "1")
            exchanges.append((vehicle_id, vscsim.cluster.verify_identity_exchange(doc)))
        verified = {vehicle_id for vehicle_id, ok in exchanges if ok}
        by_window = itertools.groupby(windows, key=lambda res: res.window_start)
        per_window = {start: list(group) for start, group in by_window}
        history = vscsim.cluster.ClusterHistory()
        negotiations, clusters = [], []
        for (start, window), link in zip(
            itertools.groupby(read, key=lambda r: math.floor(r.timestamp / unit_time) * unit_time),
            plan["links"],
        ):
            window = list(window)
            target = vscsim.cluster.sc_select(window)
            env = vscsim.cluster.AdjustableHighwayLink(
                vscsim.scenarios.HighwayScenario(
                    vscsim.channel.ChannelParams.from_db(link["p_db"], 2.0), link["r"], link["v"], 1.0
                ),
                vscsim.cluster.RelayOption(1.0, link["h_rb_sq"], link["h_re_sq"]),
            )
            knobs = vscsim.cluster.SecrecyKnobs(2.0, 1.0, relay_available=True, max_iterations=8)
            negotiations.append((target, vscsim.cluster.rsc_negotiate(window, link["rsc"], knobs, env)))
            candidates = [
                (registry[res.target_id], res) for res in per_window[start] if res.target_id in verified
            ]
            state, pseudo = vscsim.cluster.form_cluster(
                candidates, plan["rsc"], plan["secondary_rsc"], f"{key}-{start:g}", start
            )
            clusters.append((state, sorted(pseudo)))
            history.append_state(state)
        history.save(history_path)
        replay = vscsim.cluster.ClusterHistory.load(history_path).replay()
        return _SegmentOutcome(records, read, windows, exchanges, negotiations, clusters, replay)

    def fingerprint(out):
        return {
            "csi_csv": _sha256(csi_path.read_bytes()),
            "windows": _text_digest(out.windows),
            "identity": _text_digest(out.exchanges),
            "negotiation": _text_digest(out.negotiations),
            "cluster": _text_digest(out.clusters),
            "history": _sha256(history_path.read_bytes()),
        }

    def validate(out):
        errors = []
        if [(r.timestamp, r.sender_id) for r in out.read] != [(r.timestamp, r.sender_id) for r in out.written]:
            errors.append(f"{key}: CSI records changed in the CSV round trip")
        n_windows = len({math.floor(r.timestamp / unit_time) for r in out.written})
        if len(out.windows) != n_windows * size_cfg["senders"] or not _all_finite(r.vsc for r in out.windows):
            errors.append(f"{key}: {len(out.windows)} window results or non-finite VSC")
        forged = {vid for vid, _pos, bad in plan["exchange"] if bad}
        if {vid for vid, ok in out.exchanges if not ok} != forged:
            errors.append(f"{key}: identity exchange accepted a forgery or rejected a valid claim")
        invalid = plan["invalid_registry"]
        for state, pseudo in out.clusters:
            ids = state.member_ids | set(pseudo)
            if ids & (forged | invalid) or any(v < state.rsc for _id, v in state.members):
                errors.append(f"{key}: cluster {state.cluster_id} admitted an invalid member")
        if out.replay != [state for state, _ in out.clusters]:
            errors.append(f"{key}: history replay differs from the formed clusters")
        if any(not 1 <= neg.iterations <= 8 for _t, neg in out.negotiations):
            errors.append(f"{key}: negotiation iterations out of range")
        return errors

    return Op(key, run, float(len(records)), fingerprint, validate)


def protocol(seed: int, size: str, out_dir: Path) -> Workload:
    """A CSI stream of 50 senders x 10 Hz x 600 s, cut into 20 s segments.
    Per segment: CSV write and read, tumbling windows, an identity
    exchange per sender, and per window target selection, negotiation,
    cluster formation, then a history save, load and replay."""
    rng = np.random.default_rng(seed)
    full = size == "full"
    cfg = {
        "senders": 50 if full else 6,
        "rate_hz": 10,
        "duration_s": 600.0 if full else 40.0,
        "segment_s": 20.0,
        "unit_time": 5.0,
        "chain": 1000 if full else 20,
    }
    senders, rate = cfg["senders"], cfg["rate_hz"]
    ids = [f"veh{i:03d}" for i in range(senders)]
    vins = {vid: f"VB{seed % 10**12:012d}{i:03d}" for i, vid in enumerate(ids)}
    base_db = rng.normal(20.0, 6.0, senders)
    phase = rng.uniform(0.0, 2.0 * math.pi, senders)
    n_ticks = int(cfg["duration_s"] * rate)
    t = (np.arange(n_ticks)[:, None] + np.arange(senders)[None, :] / senders) / rate
    snr_db = base_db + 3.0 * np.sin(2.0 * math.pi * t / 120.0 + phase) + rng.normal(0.0, 2.0, t.shape)
    stream = [
        vscsim.vsc.CsiRecord(float(ts), ids[j], float(10.0 ** (db / 10.0)))
        for tick_t, tick_db in zip(t, snr_db)
        for j, (ts, db) in enumerate(zip(tick_t, tick_db))
    ]
    n_bad = max(1, senders // 10)
    suspects = [str(vid) for vid in rng.permutation(ids)]
    forged_exchange = set(suspects[:n_bad])
    invalid_registry = set(suspects[n_bad:2 * n_bad])
    identities = []
    for vid in ids:
        ident = vscsim.cluster.make_identity(vid, vins[vid], cfg["chain"])
        if vid in invalid_registry:
            # The registry holds an anchor one hash short of the claimed length.
            short = vscsim.cluster.make_identity(vid, vins[vid], cfg["chain"] - 1)
            ident = vscsim.cluster.VehicleIdentity(vid, vins[vid], short.chain_anchor, cfg["chain"])
        identities.append(ident)
    per_segment = int(cfg["segment_s"] * rate) * senders
    windows_per_segment = int(cfg["segment_s"] / cfg["unit_time"])
    ops = []
    for k in range(n_ticks * senders // per_segment):
        plan = {
            "exchange": [
                (vid, int(rng.integers(cfg["chain"])), vid in forged_exchange) for vid in ids
            ],
            "links": [
                {
                    "p_db": float(rng.uniform(55.0, 75.0)),
                    "r": float(rng.uniform(60.0, 150.0)),
                    "v": float(rng.uniform(15.0, 35.0)),
                    "h_rb_sq": float(rng.uniform(0.01, 0.1)),
                    "h_re_sq": float(rng.uniform(0.1, 1.0)),
                    "rsc": float(rng.uniform(1.0, 6.0)),
                }
                for _ in range(windows_per_segment)
            ],
            "rsc": 1.0,
            "secondary_rsc": 0.0,
            "invalid_registry": invalid_registry,
        }
        records = stream[k * per_segment:(k + 1) * per_segment]
        ops.append(_protocol_op(f"segment-{k:03d}", records, identities, vins, plan, cfg, out_dir))
    inputs = {**cfg, "forged_exchange": sorted(forged_exchange), "invalid_registry": sorted(invalid_registry)}
    return Workload("protocol", "CSI records", ops, 1, 1, [], inputs)


WORKLOADS = {"fleet": fleet, "paper": paper, "stochastic": stochastic, "protocol": protocol}


def build(name: str, seed: int, size: str, out_dir: Path) -> Workload:
    return WORKLOADS[name](seed, size, out_dir)


def load_expected(name: str, seed: int, size: str) -> dict | None:
    """Pinned fingerprints per op key, or None when this run has none."""
    if size != "full" or (seed != RECORDED_SEED and name not in SEED_FREE):
        return None
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(name)


class OutputCheck:
    """Validates the first output of each op key and pins its fingerprint;
    later runs of the key must reproduce it byte for byte."""

    def __init__(self, expected: dict | None):
        self.expected = expected
        self.seen: dict[str, dict] = {}

    def __call__(self, op: Op, result) -> list[str]:
        fp = op.fingerprint(result)
        if op.key in self.seen:
            same = self.seen[op.key] == fp
            return [] if same else [f"{op.key}: output differs from an earlier run of the same inputs"]
        self.seen[op.key] = fp
        errors = op.validate(result)
        if self.expected is not None and self.expected.get(op.key) != fp:
            errors.append(f"{op.key}: output differs from the recorded fingerprint")
        return errors
