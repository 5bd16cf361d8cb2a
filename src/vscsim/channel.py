"""Core channel math: Shannon capacity, wiretap secrecy, path loss, fading.

capacity_bits, secrecy_bits and link_snr are the package's one
implementation of log2(1 + SNR), SNR-pair secrecy and path-loss SNR;
link_capacities is the per-link float path of the first and last together.

Secrecy values are signed differences of log2 capacities and are not
clamped at zero here; callers that want the information-theoretic
max(0, Cs) go through :func:`clamped`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units import (Positive, check_fields, db_to_linear, finite_result, is_finite, require_integer,
                    require_non_negative, require_positive)

# Defaults used by the simulation harness when a config does not pin them.
DEFAULT_ALPHA = 1.4
DEFAULT_P_OVER_N0_DB = 70.0


@dataclass(frozen=True)
class ChannelParams:
    """Transmit power over noise density (linear) and path-loss exponent."""

    p_over_n0: Positive
    alpha: Positive

    def __post_init__(self) -> None:
        check_fields(self)

    @classmethod
    def from_db(cls, p_over_n0_db: float, alpha: float) -> "ChannelParams":
        return cls(db_to_linear(p_over_n0_db), alpha)


def capacity_bits(snr):
    """log2(1 + SNR) in bits/s/Hz: math.log2 for a float, np.log2 for an
    ndarray.  The two differ in the last bit on some inputs, and each
    caller's artifacts are pinned to the one its argument type selects.
    An array gets one new buffer, 1 + SNR, and the log is taken into it
    (for a 0-d array 1 + SNR is a numpy scalar, which cannot take it)."""
    if isinstance(snr, np.ndarray):
        out = 1.0 + snr
        return np.log2(out, out=out) if out.ndim else np.log2(out)
    return math.log2(1.0 + snr)


def secrecy_bits(snr_b, snr_e):
    """Signed secrecy log2(1 + SNR_B) - log2(1 + SNR_E); floats and arrays broadcast."""
    return capacity_bits(snr_b) - capacity_bits(snr_e)


def link_snr(p_over_n0, d, alpha):
    """Path-loss SNR (P/N0) * d^(-2*alpha) for a float or ndarray distance.
    A distance so short that the SNR overflows raises ValueError, and so does
    an SNR that is not a number, such as zero power times a gain that overflows,
    or a negative distance."""
    if isinstance(d, np.ndarray):
        negative = d < 0.0  # before the power, as on the float path
        if negative.any():
            raise ValueError(f"d must be a distance >= 0, got {float(d[negative][0])!r}")
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            snr = p_over_n0 * d ** (-2.0 * alpha)
        if not np.isfinite(snr).all():
            if np.isinf(snr).any():
                raise ValueError(f"distance {float(d.min())!r} m is too short: d**(-2*alpha) overflows")
            first = float(d[np.isnan(snr)][0])  # no element is inf, so each non-finite one is nan
            finite_result("snr", math.nan, p_over_n0=p_over_n0, d=first, alpha=alpha)
        return snr
    if d < 0.0:  # before the power, which is complex or wrongly signed for a negative base
        raise ValueError(f"d must be a distance >= 0, got {d!r}")
    try:
        snr = p_over_n0 * d ** (-2.0 * alpha)
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"distance {d!r} m is too short: d**(-2*alpha) overflows") from None
    if not snr < math.inf:  # +inf or nan, in one comparison on the per-link path
        if snr == math.inf:
            raise ValueError(f"distance {d!r} m is too short: the SNR overflows")
        finite_result("snr", snr, p_over_n0=p_over_n0, d=d, alpha=alpha)
    return snr


def link_capacities(p_over_n0, distances, alpha) -> np.ndarray:
    """capacity_bits(link_snr(p_over_n0, d, alpha)) for each float d of
    distances, bit for bit, as an array of its shape.

    The float operations of the two calls are written out, one link at a
    time (the ndarray path of each rounds differently).  When a link
    overflows, is negative or gives a result that is not finite, the links
    go through the checked calls instead, which raise link_snr's ValueError.
    """
    distances = np.asarray(distances, dtype=float)
    links, e, log2 = distances.ravel().tolist(), -2.0 * alpha, math.log2
    try:
        caps = np.fromiter((log2(1.0 + p_over_n0 * d ** e) for d in links), float, len(links))
    except (OverflowError, ZeroDivisionError, TypeError):  # TypeError: log2 of a negative d's complex power
        caps = None
    if caps is None or not np.isfinite(caps).all() or (distances < 0.0).any():
        caps = np.fromiter((capacity_bits(link_snr(p_over_n0, d, alpha)) for d in links), float, len(links))
    return caps.reshape(distances.shape)


def shannon_capacity(bandwidth_hz: float, snr: float) -> float:
    """Channel capacity W * log2(1 + SNR) in bits/s."""
    require_positive(bandwidth_hz=bandwidth_hz)
    require_non_negative(snr=snr)
    return finite_result("capacity", bandwidth_hz * capacity_bits(snr), bandwidth_hz=bandwidth_hz, snr=snr)


def gaussian_wiretap_secrecy(power: float, noise_main: float, noise_wiretap: float) -> float:
    """Secrecy capacity of the degraded Gaussian wiretap channel.

    (1/2) log2(1 + P/Nm) - (1/2) log2(1 + P/Nw), positive when the main
    channel is less noisy than the wiretap channel.
    """
    require_positive(power=power, noise_main=noise_main, noise_wiretap=noise_wiretap)
    return finite_result("secrecy", 0.5 * secrecy_bits(power / noise_main, power / noise_wiretap),
                         power=power, noise_main=noise_main, noise_wiretap=noise_wiretap)


def path_loss_coeff_sq(distance_m: float, alpha: float) -> float:
    """Distance-decay power gain |h|^2 = d^(-2*alpha)."""
    require_positive(distance_m=distance_m, alpha=alpha)
    return link_snr(1.0, distance_m, alpha)


def fading_secrecy_pair(params: ChannelParams, h_ab_sq: float, h_ae_sq: float) -> float:
    """Secrecy of a legitimate/wiretap gain pair under a shared power budget.

    log2(1 + (P/N0) |h_ab|^2) - log2(1 + (P/N0) |h_ae|^2), unit bandwidth.
    """
    require_non_negative(h_ab_sq=h_ab_sq, h_ae_sq=h_ae_sq)
    c = params.p_over_n0
    return finite_result("secrecy", secrecy_bits(c * h_ab_sq, c * h_ae_sq),
                         p_over_n0=c, h_ab_sq=h_ab_sq, h_ae_sq=h_ae_sq)


def clamped(secrecy_bits: float) -> float:
    """Non-negative secrecy, max(0, Cs)."""
    return max(0.0, secrecy_bits)


@dataclass(frozen=True)
class FadingModel:
    """Small-scale fading model for squared channel gains, normalized to E[|h|^2] = 1.

    kind is one of "path_loss_only", "rayleigh", "rician", "nakagami";
    k is the Rician K-factor, m the Nakagami shape.
    """

    kind: str
    k: float = 0.0
    m: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("path_loss_only", "rayleigh", "rician", "nakagami"):
            raise ValueError(f"unknown fading model kind {self.kind!r}")
        if self.kind == "rician":
            require_non_negative(k=self.k)
        if self.kind == "nakagami" and not (is_finite(self.m) and self.m >= 0.5):
            raise ValueError(f"m must be finite and >= 0.5, got {self.m!r}")

    @classmethod
    def path_loss_only(cls) -> "FadingModel":
        return cls("path_loss_only")

    @classmethod
    def rayleigh(cls) -> "FadingModel":
        return cls("rayleigh")

    @classmethod
    def rician(cls, k: float) -> "FadingModel":
        return cls("rician", k=k)

    @classmethod
    def nakagami(cls, m: float) -> "FadingModel":
        return cls("nakagami", m=m)


def sample_fading(model: FadingModel, seed, size: int | None = None):
    """Draw squared fading gains |h|^2 with unit mean.

    seed may be an int or a numpy Generator; a float is returned for
    size=None, otherwise an ndarray of the requested length.
    """
    n = 1 if size is None else size
    require_integer(1, size=n)
    rng = np.random.default_rng(seed)
    if model.kind == "path_loss_only":
        out = np.ones(n)
    elif model.kind == "rayleigh":
        out = rng.standard_exponential(n)
    elif model.kind == "rician":
        # LOS amplitude sqrt(K/(K+1)), scattered complex Gaussian with
        # variance 1/(K+1): the squared envelope keeps unit mean.  In place
        # on the two draws, bit for bit (los + sigma * N)**2 + (sigma * N)**2.
        los = math.sqrt(model.k / (model.k + 1.0))
        sigma = math.sqrt(1.0 / (2.0 * (model.k + 1.0)))
        out = rng.standard_normal(n)
        out *= sigma
        out += los
        im = rng.standard_normal(n)
        im *= sigma
        out *= out
        im *= im
        out += im
    else:  # nakagami
        out = rng.gamma(shape=model.m, scale=1.0 / model.m, size=n)
    return float(out[0]) if size is None else out
