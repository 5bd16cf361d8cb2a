"""Random eavesdropper fields and Monte-Carlo secrecy estimates.

Eavesdroppers are scattered by a Poisson point process over a rectangle;
intensity is quoted per reference area (1000 m^2 by default) so configs
can speak in per-sector densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, FadingModel, link_snr, sample_fading, secrecy_bits
from .units import Point2D, distance

COLLUDING = "colluding"
NON_COLLUDING = "non-colluding"


def poisson_pmf(n: int, lam: float) -> float:
    """P[N = n] for N ~ Poisson(lam)."""
    if n < 0 or n != int(n):
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    if lam < 0.0:
        raise ValueError(f"lam must be >= 0, got {lam!r}")
    if lam == 0.0:
        return 1.0 if n == 0 else 0.0
    # exp-log form avoids overflow in lam**n / n! for large n
    return math.exp(n * math.log(lam) - lam - math.lgamma(n + 1))


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in meters."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ValueError("rectangle must have positive extent on both axes")

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)


def square_region(center: Point2D, area_m2: float) -> Rect:
    """Square of the given area centered on a point, the default field region."""
    if area_m2 <= 0.0:
        raise ValueError(f"area must be > 0, got {area_m2!r}")
    half = 0.5 * math.sqrt(area_m2)
    return Rect(center.x - half, center.y - half, center.x + half, center.y + half)


@dataclass(frozen=True)
class PppField:
    """One realization of the eavesdropper point process."""

    lam: float
    ref_area_m2: float
    region: Rect
    points: tuple[Point2D, ...]

    def __len__(self) -> int:
        return len(self.points)


def sample_field(lam: float, region: Rect, seed, ref_area_m2: float = 1000.0) -> PppField:
    """Draw a field: count ~ Poisson(lam * area / ref_area), positions uniform."""
    if lam < 0.0:
        raise ValueError(f"lam must be >= 0, got {lam!r}")
    if ref_area_m2 <= 0.0:
        raise ValueError(f"ref_area_m2 must be > 0, got {ref_area_m2!r}")
    rng = np.random.default_rng(seed)
    n = int(rng.poisson(lam * region.area / ref_area_m2))
    xs = rng.uniform(region.x_min, region.x_max, n)
    ys = rng.uniform(region.y_min, region.y_max, n)
    pts = tuple(Point2D(float(x), float(y)) for x, y in zip(xs, ys))
    return PppField(lam, ref_area_m2, region, pts)


def _eavesdropper_snrs(host: Point2D, field: PppField, params: ChannelParams) -> np.ndarray:
    dists = np.array([distance(host, p) for p in field.points])
    return link_snr(params.p_over_n0, dists, params.alpha)


def ppp_secrecy(
    host: Point2D,
    target: Point2D,
    field: PppField,
    mode: str,
    params: ChannelParams,
) -> float:
    """Secrecy against the field's aggregate wiretap SNR.

    Colluding eavesdroppers combine by SNR sum, non-colluding by the best
    single receiver (the max, which path loss makes the nearest one).
    An empty field leaves the full legitimate capacity.
    """
    if mode not in (COLLUDING, NON_COLLUDING):
        raise ValueError(f"mode must be {COLLUDING!r} or {NON_COLLUDING!r}, got {mode!r}")
    d_ab = distance(host, target)
    if d_ab <= 0.0:
        raise ValueError("host and target must be at distinct positions")
    snr_ab = link_snr(params.p_over_n0, d_ab, params.alpha)
    snrs_e = _eavesdropper_snrs(host, field, params)
    if snrs_e.size == 0:
        agg = 0.0
    elif mode == COLLUDING:
        agg = float(np.sum(snrs_e))
    else:
        agg = float(np.max(snrs_e))
    return secrecy_bits(snr_ab, agg)


def average_secrecy(host: Point2D, target: Point2D, field: PppField, params: ChannelParams) -> float:
    """Mean per-eavesdropper pair secrecy over the field; needs >= 1 point."""
    if len(field) == 0:
        raise ValueError("average secrecy is undefined for an empty field")
    d_ab = distance(host, target)
    if d_ab <= 0.0:
        raise ValueError("host and target must be at distinct positions")
    snr_ab = link_snr(params.p_over_n0, d_ab, params.alpha)
    return float(np.mean(secrecy_bits(snr_ab, _eavesdropper_snrs(host, field, params))))


@dataclass(frozen=True)
class ErgodicConfig:
    """Inputs for the fading-average secrecy estimate."""

    mean_power_budget: float
    sigma_b_sq: float = 1.0
    sigma_e_sq: float = 1.0
    sample_count: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mean_power_budget <= 0.0:
            raise ValueError("mean_power_budget must be > 0")
        if self.sigma_b_sq <= 0.0 or self.sigma_e_sq <= 0.0:
            raise ValueError("noise powers must be > 0")
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")


@dataclass(frozen=True)
class ErgodicEstimate:
    value: float
    stderr: float
    sample_count: int
    in_set_count: int
    empty_set: bool


def ergodic_secrecy_mc(
    cfg: ErgodicConfig,
    h_ab_model: FadingModel,
    h_ae_model: FadingModel,
    restrict_to_advantage: bool = True,
) -> ErgodicEstimate:
    """Monte-Carlo fading average of the pair secrecy.

    The transmitter follows an on/off policy: full budget power whenever
    the legitimate gain ratio beats the wiretap one (set A), silence
    otherwise.  That policy is a lower bound on the optimal allocation.
    With restrict_to_advantage=False the transmitter is always on, which
    admits negative contributions.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.sample_count
    h_ab = sample_fading(h_ab_model, rng, n)
    h_ae = sample_fading(h_ae_model, rng, n)
    g_b = cfg.mean_power_budget * h_ab / cfg.sigma_b_sq
    g_e = cfg.mean_power_budget * h_ae / cfg.sigma_e_sq
    terms = secrecy_bits(g_b, g_e)
    in_set = h_ab / cfg.sigma_b_sq > h_ae / cfg.sigma_e_sq
    in_set_count = int(np.count_nonzero(in_set))
    if restrict_to_advantage:
        if in_set_count == 0:
            return ErgodicEstimate(0.0, 0.0, n, 0, True)
        terms = np.where(in_set, terms, 0.0)
    value = float(np.mean(terms))
    stderr = float(np.std(terms, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return ErgodicEstimate(value, stderr, n, in_set_count, False)
