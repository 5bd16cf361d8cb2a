"""Intersection drive-through cases: a host crosses a junction while one
target vehicle moves through it on a case-specific path, and the link
capacity is logged against distance at every step.

Geometry, speeds, and spans are overridable; the defaults place the host
on a 100 m west-to-east run at 35 km/h with the target on a 40 m path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import DEFAULT_ALPHA, DEFAULT_P_OVER_N0_DB, capacity_bits, link_snr
from .units import (Point2D, db_to_linear, is_finite, kmh_to_ms, require_finite, require_integer,
                    require_non_negative, require_positive)

# A capacity sample counts as "nearly zero" below this fraction of the
# run's peak capacity.
NEAR_ZERO_FRACTION = 1e-3

CASE_IDS = (1, 2, 3, 4, 5, 6)

# Geometry defaults of make_case and run_intersection_case.
SPEED_KMH = 35.0
HOST_SPAN = (-60.0, 40.0)
TARGET_SPAN = (-20.0, 20.0)
LANE_OFFSET = 3.0


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-linear path traversed at constant speed, holding position
    at the final waypoint once the path is exhausted."""

    waypoints: tuple[Point2D, ...]
    speed: float
    speed_limit: float

    def __post_init__(self) -> None:
        if len(self.waypoints) < 1:
            raise ValueError("trajectory needs at least one waypoint")
        require_non_negative(speed=self.speed)
        if self.speed > self.speed_limit:
            raise ValueError(
                f"speed {self.speed!r} exceeds speed limit {self.speed_limit!r}"
            )

    @property
    def path_length(self) -> float:
        pts = self.waypoints
        return sum(
            math.hypot(b.x - a.x, b.y - a.y) for a, b in zip(pts, pts[1:])
        )

    def steps(self, dt: float) -> int:
        """Whole dt steps the path takes at the trajectory's speed."""
        require_positive(dt=dt, speed=self.speed)  # in m/s, which a tiny km/h speed rounds to 0
        steps = self.path_length / self.speed / dt
        require_finite(step_count=steps)
        if steps >= np.iinfo(np.intp).max:  # a run samples steps + 1 times, in one array
            raise ValueError(f"step_count must be < {np.iinfo(np.intp).max}, got {steps!r}")
        return int(math.floor(steps + 1e-9))

    def position(self, t: float) -> Point2D:
        if not (is_finite(t) and t >= 0.0):
            raise ValueError(f"t must be finite and >= 0, got {t!r}")
        s = min(self.speed * t, self.path_length)
        pts = self.waypoints
        for a, b in zip(pts, pts[1:]):
            seg = math.hypot(b.x - a.x, b.y - a.y)
            if seg > 0.0 and s <= seg:
                f = s / seg
                return Point2D(a.x + f * (b.x - a.x), a.y + f * (b.y - a.y))
            s -= seg
        return pts[-1]


@dataclass(frozen=True)
class IntersectionCase:
    case_id: int
    host: Trajectory
    target: Trajectory
    description: str


def make_case(
    case_id: int,
    speed_kmh: float = SPEED_KMH,
    host_span: tuple[float, float] = HOST_SPAN,
    target_span: tuple[float, float] = TARGET_SPAN,
    lane_offset: float = LANE_OFFSET,
) -> IntersectionCase:
    """Build one of the six crossing geometries.

    The host always drives west to east along y = 0 over host_span.
    Cases: 1 target crosses south to north, 2 north to south, 3 parallel
    same direction on the adjacent lane, 4 parallel oncoming, 5 ahead in
    the same lane (host follows at a constant gap), 6 oncoming ahead on
    the adjacent lane.
    """
    require_integer(1, case_id=case_id)
    if case_id not in CASE_IDS:
        raise ValueError(f"case_id must be one of {CASE_IDS}, got {case_id!r}")
    if host_span[1] <= host_span[0]:
        raise ValueError("host_span must be increasing")
    if target_span[1] <= target_span[0]:
        raise ValueError("target_span must be increasing")
    v = kmh_to_ms(speed_kmh)
    limit = v
    host = Trajectory(
        (Point2D(host_span[0], 0.0), Point2D(host_span[1], 0.0)), v, limit
    )
    lo, hi = target_span
    host_len = host_span[1] - host_span[0]
    off = lane_offset
    if case_id == 1:
        pts = (Point2D(0.0, lo), Point2D(0.0, hi))
        desc = "target crosses the junction south to north"
    elif case_id == 2:
        pts = (Point2D(0.0, hi), Point2D(0.0, lo))
        desc = "target crosses the junction north to south"
    elif case_id == 3:
        pts = (Point2D(lo, off), Point2D(hi, off))
        desc = "target runs the adjacent lane in the host direction"
    elif case_id == 4:
        pts = (Point2D(hi, off), Point2D(lo, off))
        desc = "target runs the adjacent lane against the host"
    elif case_id == 5:
        pts = (Point2D(lo, 0.0), Point2D(lo + host_len, 0.0))
        desc = "host follows the target in the same lane"
    else:
        pts = (Point2D(hi, off), Point2D(hi - host_len, off))
        desc = "host closes on an oncoming target in the adjacent lane"
    target = Trajectory(pts, v, limit)
    return IntersectionCase(case_id, host, target, desc)


@dataclass
class IntersectionResult:
    case_id: int
    dt: float
    alpha: float
    p_over_n0: float
    times: np.ndarray
    distances: np.ndarray
    capacities: np.ndarray
    near_zero: np.ndarray
    peak_capacity: float
    cutoff_distance: float


def _cutoff_distance(p_over_n0: float, alpha: float, peak_capacity: float) -> float:
    """Distance beyond which capacity drops below the near-zero threshold."""
    threshold = NEAR_ZERO_FRACTION * peak_capacity
    snr_at_threshold = 2.0**threshold - 1.0
    return (p_over_n0 / snr_at_threshold) ** (1.0 / (2.0 * alpha))


def run_intersection_case(
    case_id: int,
    dt: float = 0.1,
    speed_kmh: float = SPEED_KMH,
    alpha: float = DEFAULT_ALPHA,
    p_over_n0_db: float = DEFAULT_P_OVER_N0_DB,
    host_span: tuple[float, float] = HOST_SPAN,
    target_span: tuple[float, float] = TARGET_SPAN,
    lane_offset: float = LANE_OFFSET,
) -> IntersectionResult:
    """Sample distance and link capacity at dt steps over the host's run."""
    require_positive(alpha=alpha)
    case = make_case(case_id, speed_kmh, host_span, target_span, lane_offset)
    n_steps = case.host.steps(dt)
    c = db_to_linear(p_over_n0_db)
    times = np.arange(n_steps + 1) * dt
    dists = np.empty(times.shape)
    for i, t in enumerate(times):
        hp = case.host.position(float(t))
        tp = case.target.position(float(t))
        dists[i] = math.hypot(hp.x - tp.x, hp.y - tp.y)
    caps = capacity_bits(link_snr(c, dists, alpha))
    peak = float(np.max(caps))
    try:
        cutoff = _cutoff_distance(c, alpha, peak)
    except ZeroDivisionError:
        raise ValueError(f"p_over_n0_db {p_over_n0_db!r} is too low: the near-zero threshold "
                         f"of the peak capacity {peak!r} rounds to 0") from None
    except OverflowError:  # the cutoff lies past the float range
        cutoff = math.inf
    near = caps < NEAR_ZERO_FRACTION * peak
    return IntersectionResult(
        case_id=case_id,
        dt=dt,
        alpha=alpha,
        p_over_n0=c,
        times=times,
        distances=dists,
        capacities=caps,
        near_zero=near,
        peak_capacity=peak,
        cutoff_distance=cutoff,
    )
