import numpy as np
import pytest

import oracles
from vscsim.channel import ChannelParams
from vscsim.scenarios import (
    HighwayScenario,
    RelayScenario,
    UrbanScenario,
    highway_secrecy,
    relay_secrecy,
    urban_fixed_secrecy,
    urban_moving_secrecy,
)

HIGHWAY_PARAMS = ChannelParams.from_db(70.0, alpha=1.4)


def _highway(v_kmh, alpha=1.4, pn0_db=70.0, tau=0.2, r=1000.0):
    return HighwayScenario(
        params=ChannelParams.from_db(pn0_db, alpha=alpha),
        r=r,
        v=v_kmh / 3.6,
        tau=tau,
    )


def test_highway_reference_point():
    # 80 km/h, alpha 1.4: coupled distance 4.444 m against a 1 km eavesdropper
    got = highway_secrecy(_highway(80.0))
    assert got == pytest.approx(17.171576471255214, rel=1e-12)


def test_highway_against_oracle_grid():
    for v in range(10, 130, 10):
        for alpha in (1.4, 2.0, 3.5, 4.0):
            want = oracles.highway_secrecy(v, 0.2, 1000.0, alpha, 70.0)
            got = highway_secrecy(_highway(float(v), alpha=alpha))
            assert got == pytest.approx(want, rel=1e-11)


def test_highway_decreasing_in_speed():
    for alpha in (1.4, 2.0, 4.0):
        values = [highway_secrecy(_highway(float(v), alpha=alpha)) for v in range(10, 130, 10)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_highway_alpha_order_flips_at_unit_distance():
    # coupled distance below 1 m favors large alpha, beyond 1 m the order reverses
    low = [highway_secrecy(_highway(10.0, alpha=a)) for a in (1.4, 2.0, 4.0)]
    assert low[0] < low[1] < low[2]
    high = [highway_secrecy(_highway(120.0, alpha=a)) for a in (1.4, 2.0, 4.0)]
    assert high[0] > high[1] > high[2]


def test_highway_increasing_in_power():
    values = [
        highway_secrecy(_highway(60.0, pn0_db=float(db), tau=0.4)) for db in (40, 50, 60, 70)
    ]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_highway_decreasing_in_tau():
    values = [highway_secrecy(_highway(60.0, tau=tau)) for tau in (0.1, 0.2, 0.4)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_highway_rejects_zero_coupled_distance():
    with pytest.raises(ValueError):
        highway_secrecy(_highway(0.0))


def _urban(vl_kmh, t, r0, w=3.0, alpha=1.4, pn0_db=70.0):
    return UrbanScenario(
        params=ChannelParams.from_db(pn0_db, alpha=alpha),
        lane_width_w=w,
        v_limit=vl_kmh / 3.6,
        t=t,
        r0=r0,
    )


def test_urban_fixed_against_oracle():
    rng = np.random.default_rng(3)
    for _ in range(60):
        vl = float(rng.uniform(10.0, 60.0))
        t = float(rng.uniform(0.05, 0.8))
        r0 = float(rng.uniform(20.0, 250.0))
        want = oracles.urban_fixed_secrecy(3.0, vl, t, r0, 1.4, 70.0)
        got = urban_fixed_secrecy(_urban(vl, t, r0))
        assert got == pytest.approx(want, rel=1e-11)


def test_urban_moving_against_oracle():
    rng = np.random.default_rng(4)
    for _ in range(60):
        vl = float(rng.uniform(10.0, 60.0))
        t = float(rng.uniform(0.05, 2.0))
        r0 = float(rng.uniform(15.0, 250.0))
        want = oracles.urban_moving_secrecy(3.0, vl, t, r0, 1.4, 70.0)
        got = urban_moving_secrecy(_urban(vl, t, r0))
        assert got == pytest.approx(want, rel=1e-11)


def test_urban_initial_geometry():
    # at t=0 the legitimate range is w*sqrt(5) and the fixed wiretap range r0+2w
    s = _urban(50.0, 0.0, 200.0)
    want = oracles.pair_secrecy(1e7, 1.4, float(np.sqrt(45.0)), 206.0)
    assert urban_fixed_secrecy(s) == pytest.approx(want, rel=1e-12)


def test_urban_far_eavesdropper_decreasing_in_speed():
    values = [urban_fixed_secrecy(_urban(float(vl), 0.1, 200.0)) for vl in range(10, 65, 5)]
    assert all(v > 0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_urban_near_eavesdropper_goes_negative():
    # one second after the corner the faster limits push the eavesdropper
    # inside the legitimate range and secrecy flips sign
    values = [urban_fixed_secrecy(_urban(float(vl), 1.0, 20.0)) for vl in range(10, 65, 5)]
    assert values[0] > 0.0
    assert min(values) < 0.0
    signs = [v > 0 for v in values]
    # single crossover, no oscillation back to positive
    assert signs == sorted(signs, reverse=True)


def test_urban_near_eavesdropper_all_positive_at_short_time():
    # 0.1 s after the corner the geometry has not yet closed the gap,
    # even at r0=20: the displacement tops out at 1.7 m against a 16 m margin
    values = [urban_fixed_secrecy(_urban(float(vl), 0.1, 20.0)) for vl in range(10, 65, 5)]
    assert all(v > 0.0 for v in values)


def test_urban_sign_is_power_independent():
    for pn0 in (40.0, 70.0, 110.0, 150.0):
        for vl in range(10, 65, 5):
            s = _urban(float(vl), 1.0, 20.0, pn0_db=pn0)
            base = _urban(float(vl), 1.0, 20.0)
            assert np.sign(urban_fixed_secrecy(s)) == np.sign(urban_fixed_secrecy(base))


def test_urban_fixed_rejects_overrun():
    # wiretap range r0 + 2w - x must stay positive
    with pytest.raises(ValueError):
        urban_fixed_secrecy(_urban(60.0, 2.0, 20.0))


def test_relay_reference_point():
    s = RelayScenario(
        p_a=100.0, p_r=10.0, h_ab_sq=0.05, h_rb_sq=0.01, h_ae_sq=0.05, h_re_sq=0.1
    )
    want = oracles.relay_secrecy(100.0, 10.0, 0.05, 0.01, 0.05, 0.1)
    assert relay_secrecy(s) == pytest.approx(want, rel=1e-12)


def test_relay_zero_power_reduces_to_direct():
    s = RelayScenario(
        p_a=100.0, p_r=0.0, h_ab_sq=0.05, h_rb_sq=0.01, h_ae_sq=0.05, h_re_sq=0.1
    )
    # equal legitimate and wiretap gains with no jamming: zero secrecy
    assert relay_secrecy(s) == pytest.approx(0.0, abs=1e-12)


def test_relay_jamming_helps_when_eavesdropper_hit_harder():
    base = dict(p_a=100.0, h_ab_sq=0.05, h_rb_sq=0.01, h_ae_sq=0.05, h_re_sq=0.1)
    values = [relay_secrecy(RelayScenario(p_r=p, **base)) for p in (0.0, 5.0, 10.0, 20.0)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_relay_jamming_hurts_when_legitimate_hit_harder():
    base = dict(p_a=100.0, h_ab_sq=0.05, h_rb_sq=0.1, h_ae_sq=0.05, h_re_sq=0.01)
    values = [relay_secrecy(RelayScenario(p_r=p, **base)) for p in (0.0, 5.0, 10.0, 20.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_relay_rejects_negative_power():
    with pytest.raises(ValueError):
        RelayScenario(p_a=-1.0, p_r=0.0, h_ab_sq=0.1, h_rb_sq=0.1, h_ae_sq=0.1, h_re_sq=0.1)


def test_out_of_range_distances_raise_value_error():
    tiny = HighwayScenario(ChannelParams.from_db(70.0, 1.4), 1000.0, 1e-100, 1e-100)
    with pytest.raises(ValueError, match=f"distance {1e-100 * 1e-100!r} m"):
        highway_secrecy(tiny)
    # d**(2*alpha) is a finite non-zero float, but P/N0 over it overflows
    close = HighwayScenario(ChannelParams(1e7, 1.4), 1000.0, 1e-109, 1.0)
    with pytest.raises(ValueError, match="distance 1e-109 m"):
        highway_secrecy(close)
    far = HighwayScenario(ChannelParams.from_db(70.0, 1.4), 1e300, 20.0, 0.2)
    with pytest.raises(ValueError, match="distance 1e\\+300 m"):
        highway_secrecy(far)
    urban = UrbanScenario(HIGHWAY_PARAMS, 3.5, 10.0, 1.0, 1e300)
    with pytest.raises(ValueError, match="distance"):
        urban_fixed_secrecy(urban)
