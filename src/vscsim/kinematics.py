"""Vehicle braking and spacing rules, plus the speed-to-distance coupling
used by the analytic link models."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .units import Point2D, finite_result, require_finite, require_non_negative, require_positive


def braking_distance(v0: float, t_react: float, t_system: float, t_rise: float, a_max: float) -> float:
    """Stopping distance with reaction, system, and brake-rise delays.

    v0*(t_react + t_system + t_rise/2) + v0^2 / (2*a_max).  The rise
    interval counts at half weight because deceleration ramps up over it.
    A result past the float range raises ValueError.
    """
    require_non_negative(v0=v0, t_react=t_react, t_system=t_system, t_rise=t_rise)
    require_positive(a_max=a_max)
    return finite_result("braking_distance", v0 * (t_react + t_system + 0.5 * t_rise) + v0 * v0 / (2.0 * a_max),
                         v0=v0, t_react=t_react, t_system=t_system, t_rise=t_rise, a_max=a_max)


def safety_distance(v1: float, v2: float, a1: float, a2: float, tau: float) -> float:
    """Following-gap rule for a cruise controller tracking a lead vehicle.

    v1*tau + v1^2/(2*a1) - v2^2/(2*a2).  The value is a signed margin and
    may be negative when the lead vehicle out-brakes the follower.  A
    result that is not finite raises ValueError.
    """
    require_non_negative(v1=v1, v2=v2, tau=tau)
    require_positive(a1=a1, a2=a2)
    return finite_result("safety_distance", v1 * tau + v1 * v1 / (2.0 * a1) - v2 * v2 / (2.0 * a2),
                         v1=v1, v2=v2, a1=a1, a2=a2, tau=tau)


def coupled_distance(v: float, tau: float) -> float:
    """Legitimate-link distance implied by speed and headway time, d = v*tau;
    a product past the float range raises ValueError."""
    require_non_negative(v=v, tau=tau)
    return finite_result("coupled_distance", v * tau, v=v, tau=tau)


@dataclass
class VehicleState:
    """Identity plus planar kinematic state of one vehicle."""

    vehicle_id: str
    position: Point2D
    velocity: tuple[float, float] = (0.0, 0.0)
    vin: str = ""

    def __post_init__(self) -> None:
        vx, vy = self.velocity
        require_finite(vx=vx, vy=vy)

    @property
    def speed(self) -> float:
        """|velocity|; a magnitude past the float range raises ValueError."""
        return finite_result("speed", math.hypot(*self.velocity), velocity=self.velocity)
