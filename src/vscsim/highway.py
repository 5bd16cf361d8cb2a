"""Multi-lane highway experiment: 25 vehicles with per-second speed
redraws, two of them sources that track their nearest neighbor and log
the secrecy of that link, plus a position-perturbation study on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import DEFAULT_ALPHA, DEFAULT_P_OVER_N0_DB, capacity_bits, link_capacities, link_snr
from .units import (Decibel, IntAtLeast0, IntAtLeast1, IntAtLeast2, Positive, check_fields, db_to_linear,
                    is_finite, kmh_to_ms, require_finite)

# Source shift, in meters, that the perturbation study is calibrated for.
CALIBRATED_DELTA = 5.0

# Array items a chunk holds: node-steps for the stepping and the lane
# search, step-query-node triples for the scan.  It bounds their
# temporaries, which would otherwise raise the peak memory of large runs:
# over 100 steps the stepping allocates at most about 1.6 MB at 1000 and
# 10^4 nodes, a lane search of 100 sources and their shifted copies about
# 2.7 MB besides its result, and a scan of 100 nodes and their copies
# about 1.6 MB (tracemalloc peaks; 2^15 items halve them, and 2^17 double
# them for no clear gain in speed at 1000 and 10^4 nodes).
_CHUNK_ITEMS = 2**16

# The most nodes _nearest_links scans in full; above it the lane search is
# faster.  Over 1000 steps on 6 lanes of 2500 m, on a 2-CPU Xeon, the
# lane search took 2.9x the scan's time at 100 nodes x 2 sources and
# 1.05x at 100 x 50, but 0.78x at 150 x 20 and 0.18x at 400 x 100.
_SCAN_MAX_NODES = 100


@dataclass(frozen=True)
class HighwayWorld:
    """Road layout, population, and channel settings for one run.

    All vehicles travel in +x and wrap around the road length so the
    population stays constant.  A fixed-range eavesdropper closes the
    secrecy expression; sources only ever talk to their nearest node.
    """

    n_nodes: IntAtLeast2 = 25
    n_sources: IntAtLeast1 = 2
    lanes: IntAtLeast1 = 6
    lane_width_m: Positive = 10.0
    length_m: Positive = 2500.0
    duration_s: Positive = 100.0
    dt_s: Positive = 0.1
    speed_redraw_period_s: Positive = 1.0
    max_speed_kmh: Positive = 120.0
    alpha: Positive = DEFAULT_ALPHA
    p_over_n0_db: Decibel = DEFAULT_P_OVER_N0_DB
    eavesdropper_range_m: Positive = 1000.0
    obu_range_m: Positive = 2500.0
    seed: IntAtLeast0 = 0

    def __post_init__(self) -> None:
        check_fields(self)
        try:  # the eavesdropper's SNR, which every link's secrecy subtracts
            link_snr(db_to_linear(self.p_over_n0_db), self.eavesdropper_range_m, self.alpha)
        except ValueError as exc:
            raise ValueError(f"eavesdropper_range_m: {exc}") from None
        if self.n_sources >= self.n_nodes:
            raise ValueError("n_sources must leave at least one target")
        steps = self.duration_s / self.dt_s
        if steps <= 0.5:  # rounds to zero steps
            raise ValueError("duration_s must cover at least one dt_s step")
        if not is_finite(steps):
            raise ValueError("duration_s / dt_s overflows: the step count is not finite")
        redraw_steps = self.speed_redraw_period_s / self.dt_s
        if not is_finite(redraw_steps):
            raise ValueError(f"speed_redraw_period_s must be finite in dt_s steps, got {redraw_steps!r}")
        # The furthest a node gets before it wraps, with the run's own operations: steps grow
        # from kmh_to_ms(1.0) * speed * dt_s with speed < max_speed_kmh, and rounding is monotone.
        reach = self.length_m + kmh_to_ms(1.0) * self.max_speed_kmh * self.dt_s
        if not is_finite(reach):
            raise ValueError(f"max_speed_kmh must be finite in metres per dt_s step past length_m: "
                             f"length_m + max_speed_kmh / 3.6 * dt_s is {reach!r}")
        try:
            outer_y = (self.lanes - 0.5) * self.lane_width_m
        except OverflowError:  # lanes past the float range
            outer_y = math.inf
        if not is_finite(outer_y):
            raise ValueError(f"lane_width_m must be finite at the centre of the outer lane: "
                             f"(lanes - 0.5) * lane_width_m is {outer_y!r}")
        if round(steps) * self.n_nodes * 8 > np.iinfo(np.intp).max:  # (n_steps, n_nodes) float64
            raise ValueError("n_nodes positions over duration_s / dt_s steps do not fit in one numpy array")


@dataclass
class HighwayRunResult:
    world: HighwayWorld
    node_ids: list[str]
    times: np.ndarray            # (n_steps,)
    positions: np.ndarray        # (n_steps, n_nodes) x along the road, sampled before advancing
    lane_y: np.ndarray           # (n_nodes,) y of each node's lane centre
    target_idx: np.ndarray       # (n_steps, n_sources) int
    distances: np.ndarray        # (n_steps, n_sources)
    secrecy: np.ndarray          # (n_steps, n_sources)
    # The links of the sources shifted by shift_m (run_highway_experiment); None without a shift.
    shifted_target_idx: np.ndarray | None = None   # (n_steps, n_sources) int
    shifted_distances: np.ndarray | None = None    # (n_steps, n_sources)


def _nearest_links(
    xs: np.ndarray, ys: np.ndarray, queries: np.ndarray, obu_range: float, owners: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest other node within radio range of every query at every step.

    xs is (n_steps, n_nodes), ys is (n_nodes,) and queries (n_steps,
    n_queries) holds the x each query column c is evaluated at for the
    source node owners[c] (node c without owners).  Returns (target_idx,
    distances), both (n_steps, n_queries): the lowest index at the
    smallest np.hypot(xs[j] - query, ys[j] - ys[owner]) with j != owner,
    as a brute-force argmin over every node gives.  Up to _SCAN_MAX_NODES
    nodes that argmin is what runs (_scan_links); above it each lane is
    sorted and searched (_lane_links), which is cheaper when a source has
    many nodes to pass over.  Raises ValueError naming the range and the
    first (step, source) without a node in range.  The columns form query
    sets, each a run of rising owners (the perturbation study's sources,
    then their shifted copies), and an earlier set's refusal comes first,
    as with one search per set.
    """
    if owners is None:
        owners = np.arange(queries.shape[1])
    search = _scan_links if xs.shape[1] <= _SCAN_MAX_NODES else _lane_links
    target_idx, dists = search(xs, ys, queries, owners, obu_range)
    missing = ~np.isfinite(dists)
    if missing.any():
        query_set = np.cumsum(np.r_[True, np.diff(owners) <= 0])  # a set starts where owners stop rising
        first_set = query_set[missing.any(axis=0)].min()
        step, column = np.argwhere(missing & (query_set == first_set))[0]
        raise ValueError(f"no node within radio range of the source: obu_range_m = {obu_range!r} "
                         f"leaves source {owners[column]} without a link at step {step}")
    return target_idx, dists


def _scan_links(
    xs: np.ndarray, ys: np.ndarray, queries: np.ndarray, owners: np.ndarray, obu_range: float
) -> tuple[np.ndarray, np.ndarray]:
    """_nearest_links by measuring every node, a chunk of (step, query,
    node) triples at a time; inf where no node is in range."""
    n_steps, n_nodes = xs.shape
    n_queries = queries.shape[1]
    target_idx = np.empty((n_steps, n_queries), dtype=int)
    dists = np.empty((n_steps, n_queries))
    dy = ys - ys[owners, None]
    columns = np.arange(n_queries)
    per_chunk = max(1, _CHUNK_ITEMS // (n_queries * n_nodes))
    for k0 in range(0, n_steps, per_chunk):
        d = np.hypot(xs[k0 : k0 + per_chunk, None, :] - queries[k0 : k0 + per_chunk, :, None], dy)
        d[:, columns, owners] = np.inf
        d[d > obu_range] = np.inf
        j = d.argmin(axis=2)
        target_idx[k0 : k0 + len(d)] = j
        dists[k0 : k0 + len(d)] = np.take_along_axis(d, j[:, :, None], axis=2)[:, :, 0]
    return target_idx, dists


def _lane_links(
    xs: np.ndarray, ys: np.ndarray, queries: np.ndarray, owners: np.ndarray, obu_range: float
) -> tuple[np.ndarray, np.ndarray]:
    """_nearest_links by sorting each lane, a chunk of steps at a time; inf
    where no node is in range.

    Nodes sharing a y form a lane, and each lane is sorted once per chunk
    of steps, whatever the number of queries.  Every (step, query)
    searches its source's own lane first.  It then searches another lane
    only if that lane's |dy| is at most the best distance found so far:
    np.hypot(dx, dy) >= |dy| (hypot is faithfully rounded and |dy| is a
    float), so no node of a lane past the bound can be nearer, and at the
    bound a node at dx = 0 can still tie with a lower index.  A source
    with no node in range in its own lane keeps an infinite bound and
    searches every lane.  The best link is the lowest (distance, index)
    over the lanes searched, whatever their order.
    """
    n_steps, n_nodes = xs.shape
    n_queries = queries.shape[1]
    target_idx = np.empty((n_steps, n_queries), dtype=int)
    dists = np.empty((n_steps, n_queries))
    lane_ys, lane_of = np.unique(ys, return_inverse=True)
    lanes = [np.flatnonzero(lane_of == lane) for lane in range(lane_ys.size)]
    source_lane, source_y = lane_of[owners], ys[owners]
    # |dy| from each lane to each query's source, the bound the second pass prunes by.
    gap = np.abs(lane_ys[:, None] - source_y)
    own = source_lane == np.arange(lane_ys.size)[:, None]
    per_chunk = max(1, _CHUNK_ITEMS // n_nodes)
    for k0 in range(0, n_steps, per_chunk):
        x, q = xs[k0 : k0 + per_chunk], queries[k0 : k0 + per_chunk]
        sorted_lanes = [_sort_lane(x, members, n_nodes) for members in lanes]
        best_d = np.full(q.shape, np.inf)
        best_j = np.full(q.shape, n_nodes)
        for first_pass in (True, False):
            for lane, sort in enumerate(sorted_lanes):
                if first_pass:
                    rows, cols = np.nonzero(np.broadcast_to(own[lane], q.shape))
                else:
                    rows, cols = np.nonzero((gap[lane] <= best_d) & ~own[lane])
                if not rows.size:
                    continue
                lane_d, lane_j = _lane_nearest(sort, rows, q[rows, cols], owners[cols],
                                               lane_ys[lane] - source_y[cols], obu_range)
                cur_d, cur_j = best_d[rows, cols], best_j[rows, cols]
                closer = (lane_d < cur_d) | ((lane_d == cur_d) & (lane_j < cur_j))
                rows, cols = rows[closer], cols[closer]
                best_d[rows, cols], best_j[rows, cols] = lane_d[closer], lane_j[closer]
        del sorted_lanes  # so that two chunks' sorted lanes are never held at once
        target_idx[k0 : k0 + len(x)] = best_j
        dists[k0 : k0 + len(x)] = best_d
    return target_idx, dists


class _SortedLane(NamedTuple):
    """One lane's nodes sorted by x at each step (row) of a chunk, as flat
    row-major arrays."""

    width: int                       # sentinels and nodes per row: the lane's node count + 3
    keys: np.ndarray                 # (rows * width,) complex: row + 1j * x, each row's x sorted
    j: np.ndarray                    # node index of each x, n_nodes at a sentinel
    group_first: np.ndarray | None   # position of the first x equal to each x; None without equal x


def _sort_lane(x: np.ndarray, members: np.ndarray, n_nodes: int) -> _SortedLane:
    """Sort one lane's nodes by x in each row of the chunk x.

    Each row is sorted with numpy's default (unstable) kind; a row with no
    equal x has one sorted order, and a row with equal x is sorted again
    stably, so equal x stay in index order.  One sentinel at x = -inf goes
    before the sorted lane and two at x = inf after it: a candidate past
    either end lands on one and is never nearest.
    """
    rows, m = x.shape[0], members.size
    lane_x = x[:, members]
    order = np.argsort(lane_x, axis=1)
    sorted_x = np.take_along_axis(lane_x, order, axis=1)
    # A tied row's sorted values do not depend on the order of its ties.
    tied = (sorted_x[:, 1:] == sorted_x[:, :-1]).any(axis=1)
    any_tied = tied.any()
    if any_tied:
        order[tied] = np.argsort(lane_x[tied], axis=1, kind="stable")
    keys = np.empty((rows, m + 3), dtype=complex)
    keys.real = np.arange(rows)[:, None]
    padded_x = keys.imag
    padded_x[:, 0], padded_x[:, 1:-2], padded_x[:, -2:] = -np.inf, sorted_x, np.inf
    padded_j = np.full((rows, m + 3), n_nodes)
    padded_j[:, 1:-2] = members[order]
    group_first = None
    if any_tied:
        starts = np.ones(padded_x.shape, dtype=bool)
        starts[:, 1:] = padded_x[:, 1:] != padded_x[:, :-1]
        group_first = np.maximum.accumulate(np.where(starts, np.arange(m + 3), 0), axis=1).ravel()
    return _SortedLane(m + 3, keys.ravel(), padded_j.ravel(), group_first)


def _lane_nearest(
    lane: _SortedLane, rows: np.ndarray, qx: np.ndarray, sources: np.ndarray, dy: np.ndarray,
    obu_range: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest node of one sorted lane to each query (row, x, source node,
    dy), as (distance, index) with inf for none in range.

    Inside a lane the distance grows with |dx|, so the nearest node sits
    next to the query in the lane's x order.  One searchsorted over the
    complex keys (numpy orders complex by real, then imaginary part)
    gives every query's insertion point.  Less the row's start and the
    sentinel before the lane, that is p, the count of the row's nodes
    below its x, which is also the position of the last of them in the
    padded row.  The candidates are the first node of the group of equal x just
    below p, the node after it, the first node of the group before, and
    the nodes at p and p + 1: enough to skip the source itself.  Without
    equal x in the chunk each group is one node.  Vehicles of one lane
    at different x whose distances round to the same float (micrometres
    apart at most) are the one tie where the lane search and a full scan
    (_scan_links) may pick different nodes.
    """
    qkeys = np.empty(rows.size, dtype=complex)
    qkeys.real, qkeys.imag = rows, qx
    start = lane.width * rows
    p = np.searchsorted(lane.keys, qkeys) - start - 1
    if lane.group_first is not None:
        below = lane.group_first[start + p]
        before = lane.group_first[start + np.maximum(below - 1, 0)]
    else:
        below, before = p, np.maximum(p - 1, 0)
    # Candidates on the first axis, so the reductions over them run on contiguous arrays.
    cand = np.stack([before, below, below + 1, p + 1, p + 2]) + start
    cx, cj = lane.keys.imag[cand], lane.j[cand]
    d = np.hypot(cx - qx, dy)
    d[(cj == sources) | (d > obu_range)] = np.inf
    lane_d = d.min(axis=0)
    no_index = lane.j[0]  # n_nodes, the index at a sentinel
    return lane_d, np.where(d == lane_d, cj, no_index).min(axis=0)


def _link_secrecy(world: HighwayWorld, dists: np.ndarray) -> np.ndarray:
    """Per-link secrecy against the fixed-range eavesdropper: the
    eavesdropper's capacity once, taken from each link's link_capacities,
    so the bits are those of secrecy_bits on float SNRs."""
    c = db_to_linear(world.p_over_n0_db)
    c_eve = capacity_bits(link_snr(c, world.eavesdropper_range_m, world.alpha))
    return link_capacities(c, dists, world.alpha) - c_eve


def _step_xs(x: np.ndarray, steps: np.ndarray, redraw_every: int, length_m: float, out: np.ndarray) -> None:
    """Fill out (n_steps, n_nodes) with the x of every node before each
    step: out[0] = x and out[k + 1] = (out[k] + steps[k // redraw_every])
    % length_m, the IEEE adds and % of a per-step loop, chunk by chunk.

    np.add.accumulate runs each column's adds in step order.  x % length_m
    is x itself below length_m, so a column's sums hold up to its first
    wrap, the first sum at or past length_m.  There the column restarts
    from that sum % length_m, as zeros, the restart value and the later
    steps accumulated again, which adds the same floats in the same order
    (0.0 + v is v).  The restarts repeat until no column wraps.  Sums past
    a wrap are dropped, so one that overflows does no harm.
    """
    n_steps, n_nodes = out.shape
    per_chunk = max(1, _CHUNK_ITEMS // n_nodes)
    with np.errstate(over="ignore"):
        for k0 in range(0, n_steps, per_chunk):
            redraw = np.arange(k0, min(k0 + per_chunk, n_steps)) // redraw_every
            acc = np.empty((redraw.size + 1, n_nodes))  # the chunk's rows and the next chunk's x
            acc[0] = x
            np.take(steps, redraw, axis=0, out=acc[1:])
            np.add.accumulate(acc, axis=0, out=acc)
            # Steps are >= 0, so the sums never fall: a column wraps iff its last sum does.
            cols = np.flatnonzero(acc[-1] >= length_m)
            while cols.size:
                first = (acc[1:, cols] >= length_m).argmax(axis=0) + 1  # acc row of the first wrap
                r0 = first.min()
                rows = np.arange(r0, len(acc))[:, None]
                redo = np.where(rows > first, steps[redraw[r0 - 1 :, None], cols], 0.0)
                redo[first - r0, np.arange(cols.size)] = acc[first, cols] % length_m
                np.add.accumulate(redo, axis=0, out=redo)
                acc[r0:, cols] = np.where(rows >= first, redo, acc[r0:, cols])
                cols = cols[acc[-1, cols] >= length_m]
            out[k0 : k0 + redraw.size] = acc[:-1]
            x = acc[-1]


def run_highway_experiment(world: HighwayWorld, *, shift_m: float | None = None) -> HighwayRunResult:
    """Step the world and log each source's nearest-neighbor link.

    Given shift_m, the same search also links each source shifted shift_m
    metres along x at every step, without wrapping, so that each lane is
    sorted once for both; run_perturbation_study reads those links.
    """
    if shift_m is not None:
        require_finite(shift_m=shift_m)
    rng = np.random.default_rng(world.seed)
    n = world.n_nodes
    lanes = rng.integers(0, world.lanes, n)
    ys = (lanes + 0.5) * world.lane_width_m
    xs = rng.uniform(0.0, world.length_m, n)
    n_steps = int(round(world.duration_s / world.dt_s))
    redraw_every = min(max(1, round(world.speed_redraw_period_s / world.dt_s)), n_steps)
    # Every speed redraw at once (the same stream as one draw per redraw), in metres per step.
    n_redraws = -(-n_steps // redraw_every)
    steps = kmh_to_ms(1.0) * rng.uniform(0.0, world.max_speed_kmh, (n_redraws, n)) * world.dt_s
    times = np.arange(n_steps) * world.dt_s
    positions = np.empty((n_steps, n))
    _step_xs(xs, steps, redraw_every, world.length_m, positions)
    del steps  # so that the search does not hold the speed table
    n_sources = world.n_sources
    queries, owners = positions[:, :n_sources], None
    if shift_m is not None:
        queries = np.concatenate([queries, queries + shift_m], axis=1)
        owners = np.tile(np.arange(n_sources), 2)
    target_idx, dists = _nearest_links(positions, ys, queries, world.obu_range_m, owners)
    shifted = (target_idx[:, n_sources:], dists[:, n_sources:]) if shift_m is not None else (None, None)
    target_idx, dists = target_idx[:, :n_sources], dists[:, :n_sources]
    secr = _link_secrecy(world, dists)
    # After the arrays, which numpy refuses at once for an impossible n_nodes.
    node_ids = [f"n{i:02d}" for i in range(n)]
    return HighwayRunResult(world, node_ids, times, positions, ys, target_idx, dists, secr, *shifted)


@dataclass
class PerturbationResult:
    """Baseline run next to a copy where each source sits delta further
    along its direction of travel at every step."""

    world: HighwayWorld
    delta: float
    node_ids: list[str]
    times: np.ndarray                 # (n_steps,)
    target_idx_base: np.ndarray       # (n_steps, n_sources)
    target_idx_pert: np.ndarray
    distances_base: np.ndarray
    distances_pert: np.ndarray
    secrecy_base: np.ndarray
    secrecy_pert: np.ndarray
    dx_base: np.ndarray               # along-track offset to the baseline target


def check_delta(delta_m: float, allow_custom_delta: bool = False) -> None:
    """Raise ValueError for a non-finite or zero source shift, or an uncalibrated one not allowed."""
    if not is_finite(delta_m):
        raise ValueError(f"delta_m must be a finite number, got {delta_m!r}")
    if delta_m == 0.0:
        raise ValueError("delta_m must be non-zero")
    if abs(delta_m) != CALIBRATED_DELTA and not allow_custom_delta:
        raise ValueError(f"perturbation is calibrated for +/-{CALIBRATED_DELTA:g} m; "
                         "set allow_custom_delta to override")


def run_perturbation_study(
    world: HighwayWorld, delta_m: float = CALIBRATED_DELTA, allow_custom_delta: bool = False
) -> PerturbationResult:
    """Re-evaluate every source link with the source shifted by delta_m meters.

    The shifted copy does not wrap at the road end, so each step's
    comparison is pure plane geometry against identical neighbors.
    check_delta says which delta_m the study is calibrated for.
    """
    check_delta(delta_m, allow_custom_delta)
    # Looked up at call time, so that a tracer that rebinds the module attribute sees the run.
    base = run_highway_experiment(world, shift_m=delta_m)
    base_xs = base.positions
    dx_base = np.take_along_axis(base_xs, base.target_idx, axis=1) - base_xs[:, : world.n_sources]
    return PerturbationResult(
        world=world,
        delta=delta_m,
        node_ids=base.node_ids,
        times=base.times,
        target_idx_base=base.target_idx,
        target_idx_pert=base.shifted_target_idx,
        distances_base=base.distances,
        distances_pert=base.shifted_distances,
        secrecy_base=base.secrecy,
        secrecy_pert=_link_secrecy(world, base.shifted_distances),
        dx_base=dx_base,
    )
