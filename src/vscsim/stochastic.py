"""Random eavesdropper fields and Monte-Carlo secrecy estimates.

Eavesdroppers are scattered by a Poisson point process over a rectangle;
intensity is quoted per reference area (1000 m^2 by default) so configs
can speak in per-sector densities.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, FadingModel, link_snr, sample_fading, secrecy_bits
from .units import Point2D, distance, require_finite, require_integer, require_non_negative, require_positive

COLLUDING = "colluding"
NON_COLLUDING = "non-colluding"


def _stirling_error(n: int) -> float:
    """log(n!) - log(sqrt(2 pi n) (n / e)**n) for an integer n >= 1; past
    n = 15 as the series of C. Loader (2000), which never overflows."""
    if n <= 15:
        return math.lgamma(n + 1) - (n + 0.5) * math.log(n) + n - 0.5 * math.log(2.0 * math.pi)
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _deviance(x: float, m: float) -> float:
    """x log(x / m) + m - x, summed as a series near x = m (Loader's bd0),
    where the closed form cancels; halved sums keep x + m in range."""
    half_sum = 0.5 * x + 0.5 * m
    if abs(x - m) < 0.2 * half_sum:
        v = 0.5 * (x - m) / half_sum
        s, term = (x - m) * v, 2.0 * (x * v)
        for j in range(1, 1000):
            term *= v * v
            s, previous = s + term / (2 * j + 1), s
            if s == previous:
                return s
    return x * math.log(x / m) + m - x


def poisson_pmf(n: int, lam: float) -> float:
    """P[N = n] for N ~ Poisson(lam), in the saddle-point form of C. Loader,
    "Fast and Accurate Computation of Binomial Probabilities" (2000): no
    terms of size n log(lam) cancel, so it stays accurate for any n and lam."""
    require_integer(0, n=n)
    require_finite(n=n)
    require_non_negative(lam=lam)
    if lam == 0.0:
        return 1.0 if n == 0 else 0.0
    if n == 0:
        return math.exp(-lam)
    if lam < n * sys.float_info.min:  # n / lam nears overflow; for n >= 2 the mass is below 1e-600
        return lam * math.exp(-lam) if n == 1 else 0.0
    exponent = -_stirling_error(n) - _deviance(float(n), lam)
    return math.exp(exponent) / (math.sqrt(2.0 * math.pi) * math.sqrt(n))


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in meters."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        require_finite(x_min=self.x_min, y_min=self.y_min, x_max=self.x_max, y_max=self.y_max)
        require_positive(width=self.x_max - self.x_min, height=self.y_max - self.y_min)

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)


def square_region(center: Point2D, area_m2: float) -> Rect:
    """Square of the given area centered on a point, the default field region."""
    require_positive(area_m2=area_m2)
    half = 0.5 * math.sqrt(area_m2)
    return Rect(center.x - half, center.y - half, center.x + half, center.y + half)


@dataclass(frozen=True, eq=False)
class PppField:
    """One realization of the eavesdropper point process.

    `xy` holds the eavesdropper positions as one read-only (n, 2) float
    array in meters.  Equality is identity: a dataclass == over an array
    field would raise.
    """

    lam: float
    ref_area_m2: float
    region: Rect
    xy: np.ndarray

    def __post_init__(self) -> None:
        xy = np.array(self.xy, dtype=float)
        if xy.size == 0:
            xy = xy.reshape(0, 2)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ValueError(f"xy must have shape (n, 2), got {xy.shape}")
        if not np.isfinite(xy).all():
            raise ValueError("eavesdropper coordinates must be finite")
        xy.flags.writeable = False
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "_last", (None, None))  # (host key, distances) of the last host

    def __len__(self) -> int:
        return len(self.xy)

    @property
    def points(self) -> tuple[Point2D, ...]:
        """The positions as Point2D, built on each access; `xy` is the stored form."""
        return tuple(Point2D(x, y) for x, y in self.xy.tolist())

    def distances(self, host: Point2D) -> np.ndarray:
        """Read-only distances from host to every point, bit for bit
        units.distance (np.hypot differs in the last bit on some points).
        The last host's array is kept, so repeated calls cost nothing."""
        key = (host.x, host.y)
        last_key, dists = self._last
        if key != last_key:
            dx, dy = (host.x - self.xy[:, 0]).tolist(), (host.y - self.xy[:, 1]).tolist()
            dists = np.array(list(map(math.hypot, dx, dy)), dtype=float)
            dists.flags.writeable = False
            object.__setattr__(self, "_last", (key, dists))
        return dists


def sample_field(lam: float, region: Rect, seed, ref_area_m2: float = 1000.0) -> PppField:
    """Draw a field: count ~ Poisson(lam * area / ref_area), positions uniform."""
    require_non_negative(lam=lam)
    require_positive(ref_area_m2=ref_area_m2)
    require_integer(0, seed=seed)
    rng = np.random.default_rng(seed)
    expected = lam * region.area / ref_area_m2
    try:
        n = int(rng.poisson(expected))
    except ValueError:  # numpy's bare "lam value too large", past about 9.2e18
        raise ValueError(f"lam gives {expected!r} expected points, too many to draw") from None
    xs = rng.uniform(region.x_min, region.x_max, n)
    ys = rng.uniform(region.y_min, region.y_max, n)
    return PppField(lam, ref_area_m2, region, np.stack((xs, ys), axis=1))


def _eavesdropper_snrs(host: Point2D, field: PppField, params: ChannelParams) -> np.ndarray:
    return link_snr(params.p_over_n0, field.distances(host), params.alpha)


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
        require_positive(mean_power_budget=self.mean_power_budget, sigma_b_sq=self.sigma_b_sq,
                         sigma_e_sq=self.sigma_e_sq)
        require_integer(1, sample_count=self.sample_count)
        require_integer(0, seed=self.seed)


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
