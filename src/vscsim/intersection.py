"""Intersection drive-through cases: a host crosses a junction while one
target vehicle moves through it, each on one straight segment, and the
link capacity is logged against distance at every step.  Both vehicles
are sampled at all steps at once, as arrays.

Geometry, speeds, and spans are overridable; the defaults place the host
on a 100 m west-to-east run at 35 km/h with the target on a 40 m path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import DEFAULT_ALPHA, DEFAULT_P_OVER_N0_DB, capacity_bits, link_snr
from .units import (NonNegative, Point2D, check_fields, db_to_linear, distance, distances, is_finite, kmh_to_ms,
                    require_finite, require_integer, require_positive)

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
    """Straight segment from start to end driven at constant speed,
    holding position at end once it is reached."""

    start: Point2D
    end: Point2D
    speed: NonNegative

    def __post_init__(self) -> None:
        check_fields(self)

    @cached_property
    def path_length(self) -> float:
        # The fields are frozen: measured on the first read, kept in the instance __dict__.
        return distance(self.start, self.end)

    def steps(self, dt_s: float) -> int:
        """Whole dt_s steps the path takes at the trajectory's speed."""
        require_positive(dt_s=dt_s, speed=self.speed)  # in m/s, which a tiny km/h speed rounds to 0
        steps = self.path_length / self.speed / dt_s
        require_finite(step_count=steps)
        if steps >= np.iinfo(np.intp).max:  # a run samples steps + 1 times, in one array
            raise ValueError(f"step_count must be < {np.iinfo(np.intp).max}, got {steps!r}")
        return int(math.floor(steps + 1e-9))

    def _positions(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(x, y) at each time: start + f * (end - start) per axis, f the share
        min(speed * t, path_length) / path_length of the way driven; end on a zero-length path.
        A speed * t past the float range is inf, which the min clamps to the end."""
        a, b, length = self.start, self.end, self.path_length
        if length == 0.0:
            return np.full(times.shape, float(b.x)), np.full(times.shape, float(b.y))
        with np.errstate(over="ignore", invalid="ignore"):
            f = np.minimum(self.speed * times, length) / length
            return a.x + f * (b.x - a.x), a.y + f * (b.y - a.y)

    def position(self, t: float) -> Point2D:
        if not (is_finite(t) and t >= 0.0):
            raise ValueError(f"t must be finite and >= 0, got {t!r}")
        x, y = self._positions(np.array([t], dtype=float))
        return Point2D(float(x[0]), float(y[0]))


@dataclass(frozen=True)
class IntersectionCase:
    host: Trajectory
    target: Trajectory


def make_case(
    case: int,
    speed_kmh: float = SPEED_KMH,
    host_span: tuple[float, float] = HOST_SPAN,
    target_span: tuple[float, float] = TARGET_SPAN,
    lane_offset_m: float = LANE_OFFSET,
) -> IntersectionCase:
    """Build one of the six crossing geometries.

    The host always drives west to east along y = 0 over host_span.
    Cases: 1 target crosses south to north, 2 north to south, 3 parallel
    same direction on the adjacent lane, 4 parallel oncoming, 5 ahead in
    the same lane (host follows at a constant gap), 6 oncoming ahead on
    the adjacent lane.
    """
    require_integer(1, case=case)
    if case not in CASE_IDS:
        raise ValueError(f"case must be one of {CASE_IDS}, got {case!r}")
    if host_span[1] <= host_span[0]:
        raise ValueError("host_span must be increasing")
    if target_span[1] <= target_span[0]:
        raise ValueError("target_span must be increasing")
    v = kmh_to_ms(speed_kmh)
    host = Trajectory(Point2D(host_span[0], 0.0), Point2D(host_span[1], 0.0), v)
    lo, hi = target_span
    host_len = host_span[1] - host_span[0]
    off = lane_offset_m
    start, end = {
        1: ((0.0, lo), (0.0, hi)),
        2: ((0.0, hi), (0.0, lo)),
        3: ((lo, off), (hi, off)),
        4: ((hi, off), (lo, off)),
        5: ((lo, 0.0), (lo + host_len, 0.0)),
        6: ((hi, off), (hi - host_len, off)),
    }[case]
    return IntersectionCase(host, Trajectory(Point2D(*start), Point2D(*end), v))


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
    case: int,
    dt_s: float = 0.1,
    speed_kmh: float = SPEED_KMH,
    alpha: float = DEFAULT_ALPHA,
    p_over_n0_db: float = DEFAULT_P_OVER_N0_DB,
    host_span: tuple[float, float] = HOST_SPAN,
    target_span: tuple[float, float] = TARGET_SPAN,
    lane_offset_m: float = LANE_OFFSET,
) -> IntersectionResult:
    """Sample distance and link capacity at dt_s steps over the host's run."""
    require_positive(alpha=alpha)
    geometry = make_case(case, speed_kmh, host_span, target_span, lane_offset_m)
    n_steps = geometry.host.steps(dt_s)
    c = db_to_linear(p_over_n0_db)
    times = np.arange(n_steps + 1) * dt_s
    hx, hy = geometry.host._positions(times)
    tx, ty = geometry.target._positions(times)
    with np.errstate(over="ignore"):  # a gap past the float range is an inf distance, as math.hypot gives
        dists = distances(hx - tx, hy - ty)
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
        case_id=case,
        dt=dt_s,
        alpha=alpha,
        p_over_n0=c,
        times=times,
        distances=dists,
        capacities=caps,
        near_zero=near,
        peak_capacity=peak,
        cutoff_distance=cutoff,
    )
