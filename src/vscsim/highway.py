"""Multi-lane highway experiment: 25 vehicles with per-second speed
redraws, two of them sources that track their nearest neighbor and log
the secrecy of that link, plus a position-perturbation study on top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import DEFAULT_ALPHA, DEFAULT_P_OVER_N0_DB, capacity_bits, link_snr
from .units import (Decibel, IntAtLeast0, IntAtLeast1, IntAtLeast2, Positive, check_fields, db_to_linear,
                    is_finite, kmh_to_ms)

# Source shift, in meters, that the perturbation study is calibrated for.
CALIBRATED_DELTA = 5.0

# Node-steps the nearest-neighbour search takes at once.  It bounds the
# search's temporaries, which would otherwise raise the peak memory of
# large runs: with 100 sources and 100 steps, a search allocates at most
# about 1.3 MB at 1000 nodes and 0.6 MB at 10^4 nodes besides its result
# (tracemalloc peak).
_SEARCH_NODE_STEPS = 2**15


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
        if round(steps) * self.n_nodes * 16 > np.iinfo(np.intp).max:  # (n_steps, n_nodes, 2) float64
            raise ValueError("n_nodes positions over duration_s / dt_s steps do not fit in one numpy array")


@dataclass
class HighwayRunResult:
    world: HighwayWorld
    node_ids: list[str]
    times: np.ndarray            # (n_steps,)
    positions: np.ndarray        # (n_steps, n_nodes, 2), sampled before advancing
    target_idx: np.ndarray       # (n_steps, n_sources) int
    distances: np.ndarray        # (n_steps, n_sources)
    secrecy: np.ndarray          # (n_steps, n_sources)


def _nearest_links(
    xs: np.ndarray, ys: np.ndarray, queries: np.ndarray, obu_range: float
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest other node within radio range of every source at every step.

    xs is (n_steps, n_nodes), ys is (n_nodes,) and queries (n_steps,
    n_sources) holds the x each source s (node s) is evaluated at.  Returns
    (target_idx, distances), both (n_steps, n_sources): the lowest index
    at the smallest np.hypot(xs[j] - query, ys[j] - ys[s]) with j != s,
    as a brute-force argmin over every node gives.  Nodes sharing a y form
    a lane; the search goes lane by lane, keeping one lane's temporaries
    alive at a time, and keeps the best link.
    """
    n_steps, n_nodes = xs.shape
    n_sources = queries.shape[1]
    target_idx = np.empty((n_steps, n_sources), dtype=int)
    dists = np.empty((n_steps, n_sources))
    lanes = [np.flatnonzero(ys == y) for y in np.unique(ys)]
    per_chunk = max(1, _SEARCH_NODE_STEPS // n_nodes)
    for k0 in range(0, n_steps, per_chunk):
        x, q = xs[k0 : k0 + per_chunk], queries[k0 : k0 + per_chunk]
        best_d = np.full(q.shape, np.inf)
        best_j = np.full(q.shape, n_nodes)
        for members in lanes:
            lane_d, lane_j = _lane_nearest(x, ys, q, members, obu_range)
            closer = (lane_d < best_d) | ((lane_d == best_d) & (lane_j < best_j))
            best_d = np.where(closer, lane_d, best_d)
            best_j = np.where(closer, lane_j, best_j)
        if not np.isfinite(best_d).all():
            raise ValueError("no node within radio range of the source")
        target_idx[k0 : k0 + len(x)] = best_j
        dists[k0 : k0 + len(x)] = best_d
    return target_idx, dists


def _lane_nearest(
    x: np.ndarray, ys: np.ndarray, q: np.ndarray, members: np.ndarray, obu_range: float
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest node of one lane to each query, as (distance, index) with
    inf for none in range and len(ys) for no index.

    Inside a lane the distance grows with |dx|, so the nearest node sits
    next to the query in the lane's x order.  Each row of the lane's
    nodes is sorted by x with numpy's default (unstable) kind; a row with
    no equal x has one sorted order, and a row with equal x is sorted
    again stably, so equal x stay in index order.

    One searchsorted over complex keys (real part the row, imaginary part
    the sorted x; numpy orders complex by real, then imaginary part)
    gives every query's insertion point p, the count of the row's nodes
    below its x.  The candidates are the first node of the group of equal
    x just below p, the node after it, the first node of the group
    before, and the nodes at p and p + 1: enough to skip the source
    itself.  Without equal x in the chunk each group is one node.
    Vehicles of one lane at different x whose distances round to the
    same float (micrometres apart at most) are the one tie a full scan
    may break differently.
    """
    rows, n_sources = q.shape
    m, n_nodes = members.size, ys.size
    lane_x = x[:, members]
    order = np.argsort(lane_x, axis=1)
    sorted_x = np.take_along_axis(lane_x, order, axis=1)
    # A tied row's sorted values do not depend on the order of its ties.
    tied = (sorted_x[:, 1:] == sorted_x[:, :-1]).any(axis=1)
    any_tied = tied.any()
    if any_tied:
        order[tied] = np.argsort(lane_x[tied], axis=1, kind="stable")
    row = np.arange(rows)[:, None]
    keys = np.empty((rows, m), dtype=complex)
    keys.real, keys.imag = row, sorted_x
    qkeys = np.empty(q.shape, dtype=complex)
    qkeys.real, qkeys.imag = row, q
    p = np.searchsorted(keys.ravel(), qkeys.ravel()).reshape(q.shape) - m * row
    # One sentinel at x = inf before the sorted lane and two after it: a
    # candidate past either end lands on one and is never nearest.
    padded_x = np.full((rows, m + 3), np.inf)
    padded_j = np.full((rows, m + 3), n_nodes)
    padded_x[:, 1:-2], padded_j[:, 1:-2] = sorted_x, members[order]
    if any_tied:
        starts = np.ones(padded_x.shape, dtype=bool)
        starts[:, 1:] = padded_x[:, 1:] != padded_x[:, :-1]
        group_first = np.maximum.accumulate(np.where(starts, np.arange(m + 3), 0), axis=1)
        below = np.take_along_axis(group_first, p, axis=1)
        before = np.take_along_axis(group_first, np.maximum(below - 1, 0), axis=1)
    else:
        below, before = p, np.maximum(p - 1, 0)
    # Candidates on the first axis, as flat indices into the padded rows,
    # so the reductions over them run on contiguous arrays.
    cand = np.stack([before, below, below + 1, p + 1, p + 2]) + (m + 3) * row
    cx, cj = padded_x.ravel()[cand], padded_j.ravel()[cand]
    d = np.hypot(cx - q, ys[members[0]] - ys[:n_sources])
    d[(cj == np.arange(n_sources)) | (d > obu_range)] = np.inf
    lane_d = d.min(axis=0)
    return lane_d, np.where(d == lane_d, cj, n_nodes).min(axis=0)


def _link_secrecy(world: HighwayWorld, dists: np.ndarray) -> np.ndarray:
    """Per-link secrecy against the fixed-range eavesdropper, in scalar
    arithmetic per link (the ndarray path rounds differently): the
    eavesdropper's capacity once, then log2(1 + SNR_B) - c_eve per link,
    the same float operations as secrecy_bits."""
    c = db_to_linear(world.p_over_n0_db)
    c_eve = capacity_bits(link_snr(c, world.eavesdropper_range_m, world.alpha))
    secrecy = [capacity_bits(link_snr(c, d, world.alpha)) - c_eve for d in dists.ravel().tolist()]
    return np.array(secrecy).reshape(dists.shape)


def run_highway_experiment(world: HighwayWorld) -> HighwayRunResult:
    """Step the world and log each source's nearest-neighbor link."""
    rng = np.random.default_rng(world.seed)
    n = world.n_nodes
    lanes = rng.integers(0, world.lanes, n)
    ys = (lanes + 0.5) * world.lane_width_m
    xs = rng.uniform(0.0, world.length_m, n)
    speeds = np.zeros(n)
    redraw_every = max(1, round(world.speed_redraw_period_s / world.dt_s))
    n_steps = int(round(world.duration_s / world.dt_s))
    times = np.arange(n_steps) * world.dt_s
    positions = np.empty((n_steps, n, 2))
    positions[:, :, 1] = ys
    for k in range(n_steps):
        if k % redraw_every == 0:
            speeds = kmh_to_ms(1.0) * rng.uniform(0.0, world.max_speed_kmh, n)
        positions[k, :, 0] = xs
        xs = (xs + speeds * world.dt_s) % world.length_m
    all_xs = positions[:, :, 0]
    target_idx, dists = _nearest_links(all_xs, ys, all_xs[:, : world.n_sources], world.obu_range_m)
    secr = _link_secrecy(world, dists)
    # After the arrays, which numpy refuses at once for an impossible n_nodes.
    node_ids = [f"n{i:02d}" for i in range(n)]
    return HighwayRunResult(world, node_ids, times, positions, target_idx, dists, secr)


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
    """Raise ValueError for a zero source shift, or an uncalibrated one not allowed."""
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
    base = run_highway_experiment(world)
    base_xs = base.positions[:, :, 0]
    ys = base.positions[0, :, 1]
    shifted = base_xs[:, : world.n_sources] + delta_m
    t_idx, d_pert = _nearest_links(base_xs, ys, shifted, world.obu_range_m)
    dx_base = np.take_along_axis(base_xs, base.target_idx, axis=1) - base_xs[:, : world.n_sources]
    return PerturbationResult(
        world=world,
        delta=delta_m,
        node_ids=base.node_ids,
        times=base.times,
        target_idx_base=base.target_idx,
        target_idx_pert=t_idx,
        distances_base=base.distances,
        distances_pert=d_pert,
        secrecy_base=base.secrecy,
        secrecy_pert=_link_secrecy(world, d_pert),
        dx_base=dx_base,
    )
