"""Unit conversions and planar geometry helpers.

Everything downstream computes in SI (meters, seconds, m/s) with linear
power ratios.  Decibels and km/h exist only at configuration boundaries,
so the converters here are the single place those units are handled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "db_to_linear",
    "linear_to_db",
    "kmh_to_ms",
    "ms_to_kmh",
    "Point2D",
    "distance",
]


def db_to_linear(value_db: float) -> float:
    """Convert a decibel power ratio to a linear ratio, 10^(dB/10)."""
    if not math.isfinite(value_db):
        raise ValueError(f"decibel value must be finite, got {value_db!r}")
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        raise ValueError(f"decibel value {value_db!r} overflows as a linear ratio") from None


def linear_to_db(ratio: float) -> float:
    """Inverse of db_to_linear; requires a strictly positive ratio."""
    if not math.isfinite(ratio) or ratio <= 0.0:
        raise ValueError(f"linear ratio must be finite and > 0, got {ratio!r}")
    return 10.0 * math.log10(ratio)


def kmh_to_ms(speed_kmh: float) -> float:
    """Convert km/h to m/s."""
    if not math.isfinite(speed_kmh) or speed_kmh < 0.0:
        raise ValueError(f"speed must be finite and >= 0, got {speed_kmh!r}")
    return speed_kmh / 3.6


def ms_to_kmh(speed_ms: float) -> float:
    """Convert m/s to km/h."""
    if not math.isfinite(speed_ms) or speed_ms < 0.0:
        raise ValueError(f"speed must be finite and >= 0, got {speed_ms!r}")
    return speed_ms * 3.6


@dataclass(frozen=True)
class Point2D:
    """Planar position in meters."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x!r}, {self.y!r})")


def distance(a: Point2D, b: Point2D) -> float:
    """Euclidean distance between two points, in meters."""
    return math.hypot(a.x - b.x, a.y - b.y)
