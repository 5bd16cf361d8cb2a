import pytest

from vscsim.kinematics import VehicleState, braking_distance, coupled_distance, safety_distance
from vscsim.units import Point2D


def test_braking_distance_reference():
    # 20 m/s, 0.5 s reaction, 0.2 s clearance, 0.6 s force rise, 8 m/s^2:
    # 20*(0.5 + 0.2 + 0.3) + 400/16 = 45
    got = braking_distance(20.0, t_react=0.5, t_system=0.2, t_rise=0.6, a_max=8.0)
    assert got == pytest.approx(45.0, rel=1e-13)
    # pure kinetic term
    assert braking_distance(10.0, 0.0, 0.0, 0.0, 5.0) == pytest.approx(10.0, rel=1e-13)


def test_braking_distance_zero_speed():
    assert braking_distance(0.0, 1.0, 0.5, 0.5, 8.0) == 0.0


def test_braking_distance_monotone_in_speed():
    prev = -1.0
    for v in range(0, 45, 5):
        d = braking_distance(float(v), 1.2, 0.3, 0.4, 7.0)
        assert d > prev or (v == 0 and d == 0.0)
        prev = d


def test_braking_distance_rejects_bad_args():
    with pytest.raises(ValueError):
        braking_distance(-1.0, 1.0, 0.5, 0.5, 8.0)
    with pytest.raises(ValueError):
        braking_distance(10.0, 1.0, 0.5, 0.5, 0.0)


def test_safety_distance_reference():
    # 20*0.2 + 400/10 - 100/10 = 34
    got = safety_distance(20.0, 10.0, a1=5.0, a2=5.0, tau=0.2)
    assert got == pytest.approx(34.0, rel=1e-12)


def test_safety_distance_can_be_negative():
    # slow follower behind a fast leader never closes the gap
    got = safety_distance(10.0, 40.0, a1=8.0, a2=8.0, tau=0.5)
    assert got < 0.0


def test_safety_distance_equal_dynamics():
    got = safety_distance(20.0, 20.0, a1=8.0, a2=8.0, tau=1.0)
    assert got == pytest.approx(20.0, rel=1e-12)


def test_coupled_distance():
    assert coupled_distance(22.22222222222222, 0.2) == pytest.approx(4.444444444444445, rel=1e-13)
    with pytest.raises(ValueError):
        coupled_distance(10.0, -0.1)


def test_vehicle_state():
    s = VehicleState("n01", Point2D(3.0, 4.0), velocity=(3.0, 4.0))
    assert s.speed == pytest.approx(5.0)
    assert s.vin == ""
    idle = VehicleState("n02", Point2D(0.0, 0.0))
    assert idle.speed == 0.0


@pytest.mark.parametrize("velocity, match", [
    ((float("nan"), 0.0), "vx must be finite"),
    ((0.0, float("inf")), "vy must be finite"),
    ((1.0, 2.0, 3.0), "too many values"),
    ((1.0,), "not enough values"),
])
def test_vehicle_state_takes_a_finite_planar_velocity(velocity, match):
    with pytest.raises(ValueError, match=match):
        VehicleState("n01", Point2D(0.0, 0.0), velocity=velocity)
