"""Core channel math: Shannon capacity, wiretap secrecy, path loss, fading.

capacity_bits, secrecy_bits and link_snr are the package's one
implementation of log2(1 + SNR), SNR-pair secrecy and path-loss SNR.

Secrecy values are signed differences of log2 capacities and are not
clamped at zero here; callers that want the information-theoretic
max(0, Cs) go through :func:`clamped`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units import db_to_linear

# Defaults used by the simulation harness when a config does not pin them.
DEFAULT_ALPHA = 1.4
DEFAULT_P_OVER_N0_DB = 70.0


@dataclass(frozen=True)
class ChannelParams:
    """Transmit power over noise density (linear) and path-loss exponent."""

    p_over_n0: float
    alpha: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p_over_n0) and self.p_over_n0 > 0.0):
            raise ValueError(f"p_over_n0 must be finite and > 0, got {self.p_over_n0!r}")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha!r}")

    @classmethod
    def from_db(cls, p_over_n0_db: float, alpha: float) -> "ChannelParams":
        return cls(db_to_linear(p_over_n0_db), alpha)


def capacity_bits(snr):
    """log2(1 + SNR) in bits/s/Hz: math.log2 for a float, np.log2 for an
    ndarray.  The two differ in the last bit on some inputs, and each
    caller's artifacts are pinned to the one its argument type selects."""
    if isinstance(snr, np.ndarray):
        return np.log2(1.0 + snr)
    return math.log2(1.0 + snr)


def secrecy_bits(snr_b, snr_e):
    """Signed secrecy log2(1 + SNR_B) - log2(1 + SNR_E); floats and arrays broadcast."""
    return capacity_bits(snr_b) - capacity_bits(snr_e)


def link_snr(p_over_n0, d, alpha):
    """Path-loss SNR (P/N0) * d^(-2*alpha) for a float or ndarray distance.
    A distance so short that the SNR overflows raises ValueError."""
    if isinstance(d, np.ndarray):
        with np.errstate(over="ignore", divide="ignore"):
            snr = p_over_n0 * d ** (-2.0 * alpha)
        if np.isinf(snr).any():
            raise ValueError(f"distance {float(d.min())!r} m is too short: d**(-2*alpha) overflows")
        return snr
    try:
        snr = p_over_n0 * d ** (-2.0 * alpha)
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"distance {d!r} m is too short: d**(-2*alpha) overflows") from None
    if snr == math.inf:
        raise ValueError(f"distance {d!r} m is too short: the SNR overflows")
    return snr


def shannon_capacity(bandwidth_hz: float, snr: float) -> float:
    """Channel capacity W * log2(1 + SNR) in bits/s."""
    if bandwidth_hz <= 0.0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth_hz!r}")
    if snr < 0.0:
        raise ValueError(f"snr must be >= 0, got {snr!r}")
    return bandwidth_hz * capacity_bits(snr)


def gaussian_wiretap_secrecy(power: float, noise_main: float, noise_wiretap: float) -> float:
    """Secrecy capacity of the degraded Gaussian wiretap channel.

    (1/2) log2(1 + P/Nm) - (1/2) log2(1 + P/Nw), positive when the main
    channel is less noisy than the wiretap channel.
    """
    if power <= 0.0:
        raise ValueError(f"power must be > 0, got {power!r}")
    if noise_main <= 0.0 or noise_wiretap <= 0.0:
        raise ValueError("noise levels must be > 0")
    return 0.5 * secrecy_bits(power / noise_main, power / noise_wiretap)


def path_loss_coeff_sq(distance_m: float, alpha: float) -> float:
    """Distance-decay power gain |h|^2 = d^(-2*alpha)."""
    if distance_m <= 0.0:
        raise ValueError(f"distance must be > 0, got {distance_m!r}")
    if alpha <= 0.0:
        raise ValueError(f"alpha must be > 0, got {alpha!r}")
    return link_snr(1.0, distance_m, alpha)


def fading_secrecy_pair(params: ChannelParams, h_ab_sq: float, h_ae_sq: float) -> float:
    """Secrecy of a legitimate/wiretap gain pair under a shared power budget.

    log2(1 + (P/N0) |h_ab|^2) - log2(1 + (P/N0) |h_ae|^2), unit bandwidth.
    """
    if h_ab_sq < 0.0 or h_ae_sq < 0.0:
        raise ValueError("squared channel gains must be >= 0")
    c = params.p_over_n0
    return secrecy_bits(c * h_ab_sq, c * h_ae_sq)


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
        if self.kind == "rician" and self.k < 0.0:
            raise ValueError(f"Rician K-factor must be >= 0, got {self.k!r}")
        if self.kind == "nakagami" and self.m < 0.5:
            raise ValueError(f"Nakagami shape must be >= 0.5, got {self.m!r}")

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
    rng = np.random.default_rng(seed)
    n = 1 if size is None else int(size)
    if n < 1:
        raise ValueError(f"size must be >= 1, got {size!r}")
    if model.kind == "path_loss_only":
        out = np.ones(n)
    elif model.kind == "rayleigh":
        out = rng.exponential(1.0, n)
    elif model.kind == "rician":
        # LOS amplitude sqrt(K/(K+1)), scattered complex Gaussian with
        # variance 1/(K+1): the squared envelope keeps unit mean.
        los = math.sqrt(model.k / (model.k + 1.0))
        sigma = math.sqrt(1.0 / (2.0 * (model.k + 1.0)))
        re = los + sigma * rng.standard_normal(n)
        im = sigma * rng.standard_normal(n)
        out = re * re + im * im
    else:  # nakagami
        out = rng.gamma(shape=model.m, scale=1.0 / model.m, size=n)
    return float(out[0]) if size is None else out
