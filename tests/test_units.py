import math

import numpy as np
import pytest

from vscsim.channel import ChannelParams
from vscsim.cluster import SecrecyKnobs
from vscsim.scenarios import HighwayScenario, UrbanScenario
from vscsim.units import (
    NonNegative,
    Point2D,
    Positive,
    check_fields,
    db_to_linear,
    distance,
    field_rules,
    kmh_to_ms,
    linear_to_db,
    ms_to_kmh,
)


def test_db_reference_points():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
    assert db_to_linear(70.0) == pytest.approx(1e7, rel=1e-12)
    # 3 dB is not exactly a factor of two
    assert db_to_linear(3.0) == pytest.approx(1.9952623149688795, rel=1e-15)


def test_db_to_linear_names_a_value_that_overflows():
    assert db_to_linear(3000.0) == pytest.approx(1e300, rel=1e-12)
    with pytest.raises(ValueError, match="4000.0"):
        db_to_linear(4000.0)


def test_db_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(200):
        x = float(rng.uniform(-90.0, 90.0))
        assert linear_to_db(db_to_linear(x)) == pytest.approx(x, abs=1e-10)


def test_linear_to_db_rejects_nonpositive():
    with pytest.raises(ValueError):
        linear_to_db(0.0)
    with pytest.raises(ValueError):
        linear_to_db(-3.0)


def test_speed_conversion():
    assert kmh_to_ms(3.6) == pytest.approx(1.0, rel=1e-15)
    assert kmh_to_ms(80.0) == pytest.approx(22.22222222222222, rel=1e-15)
    assert ms_to_kmh(kmh_to_ms(57.3)) == pytest.approx(57.3, rel=1e-12)


def test_speed_conversion_rejects_bad_input():
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            kmh_to_ms(bad)
        with pytest.raises(ValueError):
            ms_to_kmh(bad)


def test_point_distance():
    a = Point2D(0.0, 0.0)
    b = Point2D(3.0, 4.0)
    assert distance(a, b) == 5.0
    assert distance(b, b) == 0.0
    # hypot keeps precision where the naive form would overflow
    far = Point2D(0.0, 1e200)
    assert distance(a, far) == 1e200


def test_point_rejects_nonfinite():
    with pytest.raises(ValueError):
        Point2D(math.nan, 0.0)
    with pytest.raises(ValueError):
        Point2D(0.0, math.inf)


def test_field_rules_are_the_declared_field_types_in_field_order():
    assert field_rules(HighwayScenario) == (("r", Positive), ("v", NonNegative), ("tau", NonNegative))
    # a field without a rule type (the params, a bool) has no rule
    assert [name for name, _ in field_rules(SecrecyKnobs)] == ["speed_step", "power_step_db", "max_iterations"]


def test_check_fields_names_the_first_bad_field_in_field_order():
    params = ChannelParams(1e7, 1.4)
    with pytest.raises(ValueError, match=r"^v_limit must be finite and >= 0, got -1.0$"):
        UrbanScenario(params, 3.0, -1.0, 1.0, -1.0)
    scenario = HighwayScenario(params, 1000.0, 20.0, 0.2)
    object.__setattr__(scenario, "tau", math.nan)
    with pytest.raises(ValueError, match="^tau must be finite and >= 0, got nan$"):
        check_fields(scenario)
