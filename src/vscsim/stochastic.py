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

from .channel import ChannelParams, FadingModel, capacity_bits, link_snr, sample_fading, secrecy_bits
from .units import (IntAtLeast0, IntAtLeast1, Point2D, Positive, check_fields, distance, distances,
                    require_finite, require_integer, require_non_negative, require_positive)

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
        self._keep(xy)

    @classmethod
    def _of_draw(cls, lam: float, ref_area_m2: float, region: Rect, xy: np.ndarray) -> "PppField":
        """The field of sample_field's fresh (n, 2) float draw, kept without a copy or a re-check:
        uniform draws between a Rect's finite bounds are finite."""
        field = object.__new__(cls)
        field.__dict__.update(lam=lam, ref_area_m2=ref_area_m2, region=region)
        field._keep(xy)
        return field

    def _keep(self, xy: np.ndarray) -> None:
        """Store xy read-only, with no host's distances yet."""
        xy.flags.writeable = False
        self.__dict__.update(xy=xy, _last=(None, None))  # (host key, distances) of the last host

    def __len__(self) -> int:
        return len(self.xy)

    @property
    def points(self) -> tuple[Point2D, ...]:
        """The positions as Point2D, built on each access; `xy` is the stored form."""
        return tuple(Point2D(x, y) for x, y in self.xy.tolist())

    def distances(self, host: Point2D) -> np.ndarray:
        """Read-only distances from host to every point, from units.distances.
        The last host's array is kept, so repeated calls cost nothing."""
        key = (host.x, host.y)
        last_key, dists = self._last
        if key != last_key:
            dists = distances(host.x - self.xy[:, 0], host.y - self.xy[:, 1])
            dists.flags.writeable = False
            object.__setattr__(self, "_last", (key, dists))
        return dists


# The largest mean numpy's Generator.poisson draws from (its POISSON_LAM_MAX, about 9.2e18);
# past it the draw raises a bare "lam value too large".
_POISSON_MEAN_MAX = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)


def expected_count(lam: float, region: Rect, ref_area_m2: float = 1000.0) -> float:
    """The mean point count lam * area / ref_area of a field; a mean too large to draw
    raises ValueError naming lam."""
    require_non_negative(lam=lam)
    require_positive(ref_area_m2=ref_area_m2)
    expected = lam * region.area / ref_area_m2
    if not expected <= _POISSON_MEAN_MAX:
        raise ValueError(f"lam gives {expected!r} expected points, too many to draw")
    return expected


def sample_field(lam: float, region: Rect, seed, ref_area_m2: float = 1000.0) -> PppField:
    """Draw a field: count ~ Poisson(expected_count), positions uniform."""
    expected = expected_count(lam, region, ref_area_m2)
    require_integer(0, seed=seed)
    rng = np.random.default_rng(seed)
    n = int(rng.poisson(expected))
    xy = np.empty((n, 2))
    xy[:, 0] = rng.uniform(region.x_min, region.x_max, n)
    xy[:, 1] = rng.uniform(region.y_min, region.y_max, n)
    return PppField._of_draw(lam, ref_area_m2, region, xy)


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


# Samples per block of ergodic_secrecy_mc's walk over its two gain arrays; its scratch
# takes 33 bytes a sample of one block, 528 KB at 2^14.  The six 10^6-sample estimates
# of the benchmark's cycle took 259, 251, 247, 250 and 252 ms at blocks of 2^12 to 2^16
# and 295 ms as one whole-array block, of which the draws took about 150 ms (medians of
# 25 interleaved rounds on a 2-CPU Xeon with 2 MB of L2 per core).
_MC_BLOCK = 2**14


@dataclass(frozen=True)
class ErgodicConfig:
    """Inputs for the fading-average secrecy estimate."""

    mean_power_budget: Positive
    sigma_b_sq: Positive = 1.0
    sigma_e_sq: Positive = 1.0
    sample_count: IntAtLeast1 = 100_000
    seed: IntAtLeast0 = 0

    def __post_init__(self) -> None:
        check_fields(self)


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

    After the two whole draws, the gains are walked in blocks of
    _MC_BLOCK samples.  Each block's advantage mask (one bool buffer) and
    its two SNRs (two float buffers) are computed in scratch of one block,
    its capacity_bits take one more block each, and its terms are written
    back over its legitimate gains.  The mean and the standard deviation
    are then taken over that one array in place, in the steps of np.mean
    and np.std(ddof=1), so the peak holds the two sample arrays and the
    scratch of one block.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.sample_count
    power, sigma_b_sq, sigma_e_sq = cfg.mean_power_budget, cfg.sigma_b_sq, cfg.sigma_e_sq
    h_ab = sample_fading(h_ab_model, rng, n)
    h_ae = sample_fading(h_ae_model, rng, n)
    size = min(n, _MC_BLOCK)
    snr_b, snr_e, in_set = np.empty(size), np.empty(size), np.empty(size, dtype=bool)
    in_set_count = 0
    # An SNR that overflows is refused below, from the estimate.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, _MC_BLOCK):
            g_b, g_e = h_ab[lo : lo + _MC_BLOCK], h_ae[lo : lo + _MC_BLOCK]
            b, e, mask = snr_b[: g_b.size], snr_e[: g_b.size], in_set[: g_b.size]
            np.greater(np.divide(g_b, sigma_b_sq, out=b), np.divide(g_e, sigma_e_sq, out=e), out=mask)
            in_set_count += int(np.count_nonzero(mask))
            for g, sigma_sq, snr in ((g_b, sigma_b_sq, b), (g_e, sigma_e_sq, e)):
                np.multiply(g, power, out=snr)
                np.divide(snr, sigma_sq, out=snr)
            np.subtract(capacity_bits(b), capacity_bits(e), out=g_b)  # the block's terms replace its gains
            if restrict_to_advantage:
                np.copyto(g_b, 0.0, where=np.logical_not(mask, out=mask))
        if restrict_to_advantage and in_set_count == 0:
            return ErgodicEstimate(0.0, 0.0, n, 0, True)
        # np.mean, then np.std(ddof=1) with numpy's _var steps on the terms in place.
        terms = h_ab
        mean = np.add.reduce(terms) / n
        value = float(mean)
        stderr = 0.0
        if n > 1:
            np.square(np.subtract(terms, mean, out=terms), out=terms)
            stderr = float(np.sqrt(np.add.reduce(terms) / (n - 1)) / math.sqrt(n))
    if not (math.isfinite(value) and math.isfinite(stderr)):
        raise ValueError(f"the SNR mean_power_budget * |h|^2 / sigma^2 overflows at mean_power_budget={power!r}, "
                         f"sigma_b_sq={sigma_b_sq!r}, sigma_e_sq={sigma_e_sq!r}")
    return ErgodicEstimate(value, stderr, n, in_set_count, False)
