"""Closed-form secrecy capacity for the four analytic link geometries:
highway follower, urban corner with a fixed or moving eavesdropper, and
a cooperative-jamming relay.

All values use unit bandwidth except the relay model, which carries its
own bandwidth factor.  Distances enter through d^(2*alpha) power decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import ChannelParams, secrecy_bits


def _snr(params: ChannelParams, d: float) -> float:
    """Path-loss SNR written c / d^(2a).  channel.link_snr's c * d^(-2a)
    differs from it in the last bit for some distances, and the sweep
    artifacts are pinned to this form."""
    try:
        snr = params.p_over_n0 / d ** (2.0 * params.alpha)
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"distance {d!r} m is out of range: d**(2*alpha) leaves float range") from None
    if snr == math.inf:
        raise ValueError(f"distance {d!r} m is too short: the SNR overflows")
    return snr


@dataclass(frozen=True)
class HighwayScenario:
    """Follower at headway distance v*tau, eavesdropper at fixed range r."""

    params: ChannelParams
    r: float
    v: float
    tau: float

    def __post_init__(self) -> None:
        if self.r <= 0.0:
            raise ValueError(f"eavesdropper range r must be > 0, got {self.r!r}")
        if self.v < 0.0 or self.tau < 0.0:
            raise ValueError("v and tau must be >= 0")


def highway_secrecy(s: HighwayScenario) -> float:
    """log2(1 + c/(v*tau)^(2a)) - log2(1 + c/r^(2a)) with c = P/N0."""
    d = s.v * s.tau
    if d <= 0.0:
        raise ValueError("v*tau must be > 0 (zero headway distance is singular)")
    return secrecy_bits(_snr(s.params, d), _snr(s.params, s.r))


@dataclass(frozen=True)
class UrbanScenario:
    """Host and target converging on a corner of a road of width w.

    The eavesdropper sits r0 from the corner; `eavesdropper` selects
    whether it holds position ("fixed") or advances with traffic
    ("moving").  t is the snapshot time since the reference instant and
    v_limit the speed both vehicles travel at.
    """

    params: ChannelParams
    lane_width_w: float
    v_limit: float
    t: float
    r0: float
    eavesdropper: str = "fixed"

    def __post_init__(self) -> None:
        if self.lane_width_w <= 0.0:
            raise ValueError(f"lane width must be > 0, got {self.lane_width_w!r}")
        if self.v_limit < 0.0 or self.t < 0.0:
            raise ValueError("v_limit and t must be >= 0")
        if self.r0 <= 0.0:
            raise ValueError(f"r0 must be > 0, got {self.r0!r}")
        if self.eavesdropper not in ("fixed", "moving"):
            raise ValueError(f"eavesdropper must be 'fixed' or 'moving', got {self.eavesdropper!r}")


def _legitimate_range(w: float, x: float) -> float:
    # Target 2w + x past the corner, host w - x before it.
    return math.sqrt(5.0 * w * w + 2.0 * w * x + 2.0 * x * x)


def urban_fixed_secrecy(s: UrbanScenario) -> float:
    """Corner geometry against a stationary eavesdropper r0 + 2w - v*t away."""
    x = s.v_limit * s.t
    r2 = s.r0 + 2.0 * s.lane_width_w - x
    if r2 <= 0.0:
        raise ValueError(
            f"host has reached the eavesdropper (r0 + 2w - v*t = {r2!r} m); "
            "shorten t or lower v_limit"
        )
    return secrecy_bits(_snr(s.params, _legitimate_range(s.lane_width_w, x)), _snr(s.params, r2))


def urban_moving_secrecy(s: UrbanScenario) -> float:
    """Corner geometry against an eavesdropper advancing at the speed limit."""
    x = s.v_limit * s.t
    # Sum-of-squares form (w-x)^2 + (r0-x)^2, zero only at w = r0 = x.
    r2 = math.hypot(s.lane_width_w - x, s.r0 - x)
    if r2 <= 0.0:
        raise ValueError("eavesdropper coincides with the host position")
    return secrecy_bits(_snr(s.params, _legitimate_range(s.lane_width_w, x)), _snr(s.params, r2))


def urban_secrecy(s: UrbanScenario) -> float:
    """Dispatch on the scenario's eavesdropper mode."""
    if s.eavesdropper == "fixed":
        return urban_fixed_secrecy(s)
    return urban_moving_secrecy(s)


@dataclass(frozen=True)
class RelayScenario:
    """Source A and relay R transmitting together; the relay signal acts as
    interference at both the receiver B and the eavesdropper E."""

    p_a: float
    p_r: float
    h_ab_sq: float
    h_rb_sq: float
    h_ae_sq: float
    h_re_sq: float
    sigma_b_sq: float = 1.0
    sigma_e_sq: float = 1.0
    bandwidth_hz: float = 1.0

    def __post_init__(self) -> None:
        if self.p_a <= 0.0:
            raise ValueError(f"source power must be > 0, got {self.p_a!r}")
        if self.p_r < 0.0:
            raise ValueError(f"relay power must be >= 0, got {self.p_r!r}")
        for name in ("h_ab_sq", "h_rb_sq", "h_ae_sq", "h_re_sq"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.sigma_b_sq <= 0.0 or self.sigma_e_sq <= 0.0:
            raise ValueError("noise powers must be > 0")
        if self.bandwidth_hz <= 0.0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth_hz!r}")


def relay_secrecy(s: RelayScenario) -> float:
    """Secrecy with relay interference raising both noise floors.

    W * [log2(1 + Pa*hab/(Pr*hrb + sb)) - log2(1 + Pa*hae/(Pr*hre + se))].
    With p_r = 0 this reduces to the plain gain-pair secrecy.
    """
    sinr_b = s.p_a * s.h_ab_sq / (s.p_r * s.h_rb_sq + s.sigma_b_sq)
    sinr_e = s.p_a * s.h_ae_sq / (s.p_r * s.h_re_sq + s.sigma_e_sq)
    return s.bandwidth_hz * secrecy_bits(sinr_b, sinr_e)
