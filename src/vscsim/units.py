"""Unit conversions and planar geometry helpers.

Everything downstream computes in SI (meters, seconds, m/s) with linear
power ratios.  Models may take decibel and km/h inputs (the `*_db` and
`*_kmh` keywords), and the converters here hold the one formula for
each of those conversions.
"""

from __future__ import annotations

import functools
import itertools
import math
import typing
from dataclasses import dataclass, fields
from numbers import Integral

import numpy as np


def is_finite(value: float) -> bool:
    """math.isfinite that answers False, never raises, for an int past the float range or a non-number."""
    try:
        return math.isfinite(value)
    except (OverflowError, TypeError):
        return False


def require_positive(**values: float) -> None:
    """Raise ValueError naming the first value that is not finite and > 0."""
    for name, value in values.items():
        if not (is_finite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def require_non_negative(**values: float) -> None:
    """Raise ValueError naming the first value that is not finite and >= 0."""
    for name, value in values.items():
        if not (is_finite(value) and value >= 0.0):
            raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def require_finite(**values: float) -> None:
    """Raise ValueError naming the first value that is not finite; any sign."""
    for name, value in values.items():
        if not is_finite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def finite_result(name: str, value: float, **inputs) -> float:
    """value, when finite; else a ValueError naming it and the inputs it was computed from."""
    if not math.isfinite(value):
        given = ", ".join(f"{key}={arg!r}" for key, arg in inputs.items())
        raise ValueError(f"{name} must be finite, got {value!r} from {given}")
    return value


def require_integer(minimum: int, /, **values: int) -> None:
    """Raise ValueError naming the first value that is not an integer >= minimum; bool is not one."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
            raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def db_to_linear(value_db: float, name: str = "decibel value") -> float:
    """Decibel power ratio to linear, 10^(dB/10), finite and > 0; `name` labels it in errors."""
    try:
        ratio = 10.0 ** (value_db / 10.0)
    except (OverflowError, TypeError):  # past the float range, or not a number
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise ValueError(f"{name} {value_db!r} gives no finite linear ratio > 0")
    return ratio


def require_decibel(**values: float) -> None:
    """Raise ValueError naming the first value that db_to_linear refuses."""
    for name, value in values.items():
        db_to_linear(value, name)


# Field types that declare a dataclass field's range rule once: the metadata is the
# require_* check that check_fields applies; config derives the JSON bound from the type.
Positive = typing.Annotated[float, require_positive]
NonNegative = typing.Annotated[float, require_non_negative]
Decibel = typing.Annotated[float, require_decibel]
IntAtLeast0 = typing.Annotated[int, functools.partial(require_integer, 0)]
IntAtLeast1 = typing.Annotated[int, functools.partial(require_integer, 1)]
IntAtLeast2 = typing.Annotated[int, functools.partial(require_integer, 2)]


@functools.cache
def field_rules(cls) -> tuple[tuple[str, typing.Any], ...]:
    """(field, field type) of each field of a dataclass that a rule type above declares, in field order."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return tuple((f.name, hints[f.name]) for f in fields(cls) if hasattr(hints[f.name], "__metadata__"))


@functools.cache
def _rule_groups(cls) -> tuple[tuple[typing.Callable, tuple[str, ...]], ...]:
    """(check, fields) of each run of consecutive fields that share one rule type, in field order."""
    return tuple((rule.__metadata__[0], tuple(name for name, _ in run))
                 for rule, run in itertools.groupby(field_rules(cls), key=lambda pair: pair[1]))


def check_fields(obj) -> None:
    """Apply the declared field rules of a dataclass instance; the ValueError names the first bad field."""
    for check, names in _rule_groups(type(obj)):
        check(**{name: getattr(obj, name) for name in names})


def linear_to_db(ratio: float) -> float:
    """Inverse of db_to_linear; requires a strictly positive ratio."""
    if not (is_finite(ratio) and ratio > 0.0):
        raise ValueError(f"linear ratio must be finite and > 0, got {ratio!r}")
    return 10.0 * math.log10(ratio)


def kmh_to_ms(speed_kmh: float) -> float:
    """Convert km/h to m/s."""
    require_non_negative(speed=speed_kmh)
    return speed_kmh / 3.6


def ms_to_kmh(speed_ms: float) -> float:
    """Convert m/s to km/h; a result past the float range raises ValueError."""
    require_non_negative(speed=speed_ms)
    return finite_result("speed", speed_ms * 3.6, speed_ms=speed_ms)


@dataclass(frozen=True)
class Point2D:
    """Planar position in meters."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (is_finite(self.x) and is_finite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x!r}, {self.y!r})")


def distance(a: Point2D, b: Point2D) -> float:
    """Euclidean distance between two points, in meters."""
    return math.hypot(a.x - b.x, a.y - b.y)


def distances(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """math.hypot of each (dx, dy) pair of two 1-d arrays: distance bit for bit,
    which np.hypot is not on some pairs."""
    return np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), float, len(dx))
