"""Multi-lane highway experiment: 25 vehicles with per-second speed
redraws, two of them sources that track their nearest neighbor and log
the secrecy of that link, plus a position-perturbation study on top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import DEFAULT_ALPHA, DEFAULT_P_OVER_N0_DB, link_snr, secrecy_bits
from .units import db_to_linear, kmh_to_ms

# Source shift, in meters, that the perturbation study is calibrated for.
CALIBRATED_DELTA = 5.0


@dataclass(frozen=True)
class HighwayWorld:
    """Road layout, population, and channel settings for one run.

    All vehicles travel in +x and wrap around the road length so the
    population stays constant.  A fixed-range eavesdropper closes the
    secrecy expression; sources only ever talk to their nearest node.
    """

    n_nodes: int = 25
    n_sources: int = 2
    lanes: int = 6
    lane_width: float = 10.0
    length: float = 2500.0
    duration: float = 100.0
    dt: float = 0.1
    speed_redraw_period: float = 1.0
    max_speed_kmh: float = 120.0
    alpha: float = DEFAULT_ALPHA
    p_over_n0_db: float = DEFAULT_P_OVER_N0_DB
    eavesdropper_range: float = 1000.0
    obu_range: float = 2500.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ValueError(f"n_nodes must be >= 2, got {self.n_nodes!r}")
        if not 1 <= self.n_sources < self.n_nodes:
            raise ValueError("n_sources must be >= 1 and leave at least one target")
        if self.lanes < 1 or self.lane_width <= 0.0 or self.length <= 0.0:
            raise ValueError("road geometry must be positive")
        if self.duration <= 0.0 or self.dt <= 0.0 or self.speed_redraw_period <= 0.0:
            raise ValueError("duration, dt, and redraw period must be > 0")
        if self.max_speed_kmh <= 0.0:
            raise ValueError(f"max_speed_kmh must be > 0, got {self.max_speed_kmh!r}")
        if self.alpha <= 0.0 or self.eavesdropper_range <= 0.0 or self.obu_range <= 0.0:
            raise ValueError("alpha, eavesdropper_range, and obu_range must be > 0")


@dataclass
class HighwayRunResult:
    world: HighwayWorld
    node_ids: list[str]
    times: np.ndarray            # (n_steps,)
    positions: np.ndarray        # (n_steps, n_nodes, 2), sampled before advancing
    target_idx: np.ndarray       # (n_steps, n_sources) int
    distances: np.ndarray        # (n_steps, n_sources)
    secrecy: np.ndarray          # (n_steps, n_sources)

    def iter_rows(self):
        """Yield (t, source_id, target_id, distance, secrecy) row tuples."""
        n_sources = self.world.n_sources
        for k, t in enumerate(self.times):
            for s in range(n_sources):
                yield (
                    float(t),
                    self.node_ids[s],
                    self.node_ids[int(self.target_idx[k, s])],
                    float(self.distances[k, s]),
                    float(self.secrecy[k, s]),
                )


def _nearest(
    xs: np.ndarray, ys: np.ndarray, src: int, x_src: float, obu_range: float
) -> tuple[int, float]:
    """Brute-force nearest other node within radio range of source src at x_src."""
    dx = xs - x_src
    dy = ys - ys[src]
    d = np.hypot(dx, dy)
    d[src] = np.inf
    d[d > obu_range] = np.inf
    j = int(np.argmin(d))
    if not np.isfinite(d[j]):
        raise ValueError("no node within radio range of the source")
    return j, float(d[j])


def run_highway_experiment(world: HighwayWorld) -> HighwayRunResult:
    """Step the world and log each source's nearest-neighbor link."""
    rng = np.random.default_rng(world.seed)
    n = world.n_nodes
    node_ids = [f"n{i:02d}" for i in range(n)]
    lanes = rng.integers(0, world.lanes, n)
    ys = (lanes + 0.5) * world.lane_width
    xs = rng.uniform(0.0, world.length, n)
    speeds = np.zeros(n)
    c = db_to_linear(world.p_over_n0_db)
    snr_eve = link_snr(c, world.eavesdropper_range, world.alpha)
    redraw_every = max(1, round(world.speed_redraw_period / world.dt))
    n_steps = int(round(world.duration / world.dt))
    times = np.arange(n_steps) * world.dt
    positions = np.empty((n_steps, n, 2))
    target_idx = np.empty((n_steps, world.n_sources), dtype=int)
    dists = np.empty((n_steps, world.n_sources))
    secr = np.empty((n_steps, world.n_sources))
    for k in range(n_steps):
        if k % redraw_every == 0:
            speeds = kmh_to_ms(1.0) * rng.uniform(0.0, world.max_speed_kmh, n)
        positions[k, :, 0] = xs
        positions[k, :, 1] = ys
        for s in range(world.n_sources):
            j, d = _nearest(xs, ys, s, xs[s], world.obu_range)
            target_idx[k, s] = j
            dists[k, s] = d
            secr[k, s] = secrecy_bits(link_snr(c, d, world.alpha), snr_eve)
        xs = (xs + speeds * world.dt) % world.length
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

    def iter_rows(self):
        n_sources = self.world.n_sources
        for k, t in enumerate(self.times):
            for s in range(n_sources):
                yield (
                    float(t),
                    self.node_ids[s],
                    self.node_ids[int(self.target_idx_base[k, s])],
                    self.node_ids[int(self.target_idx_pert[k, s])],
                    float(self.distances_base[k, s]),
                    float(self.distances_pert[k, s]),
                    float(self.secrecy_base[k, s]),
                    float(self.secrecy_pert[k, s]),
                    float(self.dx_base[k, s]),
                )


def run_perturbation_study(
    world: HighwayWorld, delta: float = CALIBRATED_DELTA, allow_custom_delta: bool = False
) -> PerturbationResult:
    """Re-evaluate every source link with the source shifted by delta meters.

    The shifted copy does not wrap at the road end, so each step's
    comparison is pure plane geometry against identical neighbors.  The
    study is calibrated for +/-5 m; other magnitudes need the explicit
    opt-in flag.
    """
    if delta == 0.0:
        raise ValueError("delta must be non-zero")
    if abs(delta) != CALIBRATED_DELTA and not allow_custom_delta:
        raise ValueError("perturbation is calibrated for +/-5 m; pass allow_custom_delta=True to override")
    base = run_highway_experiment(world)
    n_steps = base.times.size
    n_sources = world.n_sources
    c = db_to_linear(world.p_over_n0_db)
    snr_eve = link_snr(c, world.eavesdropper_range, world.alpha)
    t_idx = np.empty((n_steps, n_sources), dtype=int)
    d_pert = np.empty((n_steps, n_sources))
    s_pert = np.empty((n_steps, n_sources))
    base_xs = base.positions[:, :, 0]
    dx_base = np.take_along_axis(base_xs, base.target_idx, axis=1) - base_xs[:, :n_sources]
    for k in range(n_steps):
        xs = base_xs[k]
        ys = base.positions[k, :, 1]
        for s in range(n_sources):
            j, d = _nearest(xs, ys, s, xs[s] + delta, world.obu_range)
            t_idx[k, s] = j
            d_pert[k, s] = d
            s_pert[k, s] = secrecy_bits(link_snr(c, d, world.alpha), snr_eve)
    return PerturbationResult(
        world=world,
        delta=delta,
        node_ids=base.node_ids,
        times=base.times,
        target_idx_base=base.target_idx,
        target_idx_pert=t_idx,
        distances_base=base.distances,
        distances_pert=d_pert,
        secrecy_base=base.secrecy,
        secrecy_pert=s_pert,
        dx_base=dx_base,
    )
