"""Property-based checks for invariants the point tests cannot sweep."""

import math

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vscsim.channel import (
    ChannelParams,
    FadingModel,
    fading_secrecy_pair,
    gaussian_wiretap_secrecy,
    link_snr,
    path_loss_coeff_sq,
    sample_fading,
    shannon_capacity,
)
from vscsim.cluster import (
    AdjustableHighwayLink,
    NegotiationResult,
    RelayOption,
    SecrecyKnobs,
    VehicleIdentity,
    chain_element,
    identity_is_valid,
    make_identity,
    make_identity_exchange,
    rsc_negotiate,
    sc_select,
    select_consensus_candidates,
    validate_identity,
    verify_identity_exchange,
)
from vscsim.highway import HighwayWorld
from vscsim.intersection import make_case, run_intersection_case
from vscsim.kinematics import braking_distance, coupled_distance, safety_distance
from vscsim.scenarios import (HighwayScenario, RelayScenario, UrbanScenario, relay_secrecy, urban_fixed_secrecy,
                              urban_moving_secrecy)
from vscsim.stochastic import ErgodicConfig, Rect, ergodic_secrecy_mc, poisson_pmf, sample_field
from vscsim.sweeps import SweepSpec, run_ppp_field_dump, run_sweep
from vscsim.units import Point2D, db_to_linear, kmh_to_ms, linear_to_db, ms_to_kmh
from vscsim.vsc import CsiRecord, compute_vsc, windowed_stream

finite_db = st.floats(min_value=-200.0, max_value=200.0, allow_nan=False)
speeds = st.floats(min_value=0.0, max_value=500.0, allow_nan=False)
gains = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)
vin_alphabet = "0123456789ABCDEFGHJKLMNPRSTUVWXYZ"
vins = st.text(alphabet=vin_alphabet, min_size=17, max_size=17)
malformed_vins = st.one_of(
    st.text(alphabet=vin_alphabet, max_size=16),
    st.text(alphabet=vin_alphabet, min_size=18, max_size=24),
    st.tuples(vins, st.integers(0, 16), st.sampled_from("-_ !.#")).map(
        lambda t: t[0][: t[1]] + t[2] + t[0][t[1] + 1:]
    ),
)


@given(finite_db)
def test_db_round_trip(db):
    assert linear_to_db(db_to_linear(db)) == pytest.approx(db, abs=1e-9)


@given(speeds)
def test_speed_round_trip(v):
    assert ms_to_kmh(kmh_to_ms(v)) == pytest.approx(v, rel=1e-12, abs=1e-12)


@given(gains, gains)
def test_pair_secrecy_antisymmetric_in_gains(h1, h2):
    params = ChannelParams(1.0e4, 1.4)
    forward = fading_secrecy_pair(params, h1, h2)
    backward = fading_secrecy_pair(params, h2, h1)
    assert forward == pytest.approx(-backward, rel=1e-9, abs=1e-9)
    if h1 == h2:
        assert forward == pytest.approx(0.0, abs=1e-12)


@given(st.lists(st.floats(min_value=0.01, max_value=1e4), min_size=2, max_size=12))
def test_vsc_brackets_zero_at_the_extremes(snrs):
    window = [CsiRecord(0.0, f"n{i:02d}", s) for i, s in enumerate(snrs)]
    best = compute_vsc(window, f"n{snrs.index(max(snrs)):02d}").vsc
    worst = compute_vsc(window, f"n{snrs.index(min(snrs)):02d}").vsc
    # log2(1 + x) is increasing, so the strongest sender can never sit
    # below the window mean nor the weakest above it
    assert best >= -1e-12
    assert worst <= 1e-12


@settings(max_examples=50, deadline=None)
@given(
    st.text(alphabet=vin_alphabet, min_size=17, max_size=17),
    st.integers(min_value=1, max_value=16),
    st.data(),
)
def test_chain_round_trip_accepts_every_position(vin, length, data):
    position = data.draw(st.integers(min_value=0, max_value=length - 1))
    ident = make_identity("n00", vin, length)
    assert validate_identity(ident, chain_element(vin, position), position)
    flipped = bytes([chain_element(vin, position)[0] ^ 0xFF]) + chain_element(vin, position)[1:]
    assert not validate_identity(ident, flipped, position)


@settings(max_examples=100, deadline=None)
@given(vins, malformed_vins, st.integers(min_value=1, max_value=64), st.data())
def test_identity_paths_match_the_two_walk_oracle(vin, bad_vin, length, data):
    position = data.draw(st.integers(min_value=0, max_value=length - 1))
    doc = make_identity_exchange("n00", vin, length, position)
    assert doc == oracles.identity_exchange("n00", vin, length, position)
    anchor = bytes.fromhex(doc["anchor_hex"])
    byte = data.draw(st.integers(min_value=0, max_value=len(anchor) - 1))
    anchors = [anchor, anchor[:byte] + bytes([anchor[byte] ^ 0x01]) + anchor[byte + 1:]]
    if length > 1:
        anchors.append(chain_element(vin, length - 1))  # one hash short
    # every claim carries the same vehicle id, so a verdict kept per id fails
    for claimed in anchors:
        wire = dict(doc, anchor_hex=claimed.hex())
        assert verify_identity_exchange(wire) == oracles.exchange_verdict(wire)
        for registry_vin in (vin, bad_vin):
            ident = VehicleIdentity("n00", registry_vin, claimed, length)
            want = oracles.identity_verdict(registry_vin, claimed, length)
            assert identity_is_valid(ident) == want
            assert identity_is_valid(ident) == want
    with pytest.raises(ValueError, match="VIN"):
        make_identity_exchange("n00", bad_vin, length, position)


P = ChannelParams(1e7, 1.4)
NAN, INF = math.nan, math.inf
RECORDS = [CsiRecord(0.0, "a", 2.0), CsiRecord(0.5, "b", 3.0)]
GAINS = {"h_rb_sq": 0.1, "h_ae_sq": 0.1, "h_re_sq": 0.1}


def _relay(**overrides):
    return RelayScenario(**{"p_a": 100.0, "p_r": 1.0, "h_ab_sq": 0.1, **GAINS, **overrides})


def _field_dump(target_distance_m):
    return run_ppp_field_dump(6.0, 1000.0, 1000.0, 1.4, 1e7, target_distance_m, seed=0)


def _consensus(tolerance):
    return select_consensus_candidates([("a", 3.0)], 1.0, RECORDS, tolerance=tolerance)


# (field the message must name, call).  A NaN, infinite or zero input
# must not come back as a number, be stored, or raise another exception;
# the finite out-of-bound rows are the plain bounds.
RANGE_PROBES = [
    pytest.param("r", lambda: HighwayScenario(P, NAN, 10.0, 0.2), id="HighwayScenario(r=nan)"),
    pytest.param("r", lambda: HighwayScenario(P, INF, 10.0, 0.2), id="HighwayScenario(r=inf)"),
    pytest.param("r", lambda: HighwayScenario(P, -1.0, 10.0, 0.2), id="HighwayScenario(r=-1)"),
    pytest.param("v", lambda: HighwayScenario(P, 1000.0, NAN, 0.2), id="HighwayScenario(v=nan)"),
    pytest.param("t", lambda: UrbanScenario(P, 3.0, 10.0, NAN, 20.0), id="UrbanScenario(t=nan)"),
    pytest.param("p_r", lambda: _relay(p_r=NAN), id="RelayScenario(p_r=nan)"),
    pytest.param("h_ab_sq", lambda: _relay(h_ab_sq=INF), id="RelayScenario(h_ab_sq=inf)"),
    pytest.param("v0", lambda: braking_distance(NAN, 1, 1, 1, 1), id="braking_distance(v0=nan)"),
    pytest.param("v1", lambda: safety_distance(NAN, 1.0, 1.0, 1.0, 1.0),
                 id="safety_distance(v1=nan)"),
    pytest.param("a1", lambda: safety_distance(10.0, 10.0, 0.0, 1.0, 1.0),
                 id="safety_distance(a1=0)"),
    pytest.param("v", lambda: coupled_distance(NAN, 1.0), id="coupled_distance(v=nan)"),
    pytest.param("mean_power_budget", lambda: ErgodicConfig(NAN), id="ErgodicConfig(budget=nan)"),
    pytest.param("sigma_b_sq", lambda: ErgodicConfig(1.0, sigma_b_sq=0.0),
                 id="ErgodicConfig(sigma_b_sq=0)"),
    pytest.param("k", lambda: FadingModel.rician(NAN), id="rician(k=nan)"),
    pytest.param("m", lambda: FadingModel.nakagami(NAN), id="nakagami(m=nan)"),
    pytest.param("bandwidth_hz", lambda: shannon_capacity(NAN, 1.0), id="shannon_capacity(nan)"),
    pytest.param("power", lambda: gaussian_wiretap_secrecy(NAN, 1, 1),
                 id="gaussian_wiretap_secrecy(nan)"),
    pytest.param("distance_m", lambda: path_loss_coeff_sq(NAN, 1.4), id="path_loss_coeff_sq(nan)"),
    pytest.param("h_ab_sq", lambda: fading_secrecy_pair(P, NAN, 1.0),
                 id="fading_secrecy_pair(nan)"),
    pytest.param("x_min", lambda: Rect(NAN, 0, 10, 10), id="Rect(x_min=nan)"),
    pytest.param("height", lambda: Rect(0, 10, 10, 0), id="Rect(flipped y)"),
    pytest.param("lam", lambda: poisson_pmf(2, NAN), id="poisson_pmf(lam=nan)"),
    pytest.param("lam", lambda: poisson_pmf(2, -1.0), id="poisson_pmf(lam=-1)"),
    pytest.param("alpha", lambda: run_intersection_case(1, alpha=NAN),
                 id="intersection(alpha=nan)"),
    pytest.param("speed", lambda: run_intersection_case(1, speed_kmh=0.0),
                 id="intersection(speed_kmh=0)"),
    pytest.param("speed", lambda: run_intersection_case(1, speed_kmh=5e-324),
                 id="intersection(speed_kmh=5e-324)"),
    pytest.param("dt_s", lambda: run_intersection_case(1, dt_s=-0.1), id="intersection(dt_s=-0.1)"),
    pytest.param("speed_redraw_period_s",
                 lambda: HighwayWorld(n_nodes=4, duration_s=1e-9, dt_s=1e-10, speed_redraw_period_s=1e300),
                 id="HighwayWorld(speed_redraw_period_s=1e300)"),
    pytest.param("max_speed_kmh", lambda: HighwayWorld(max_speed_kmh=1e308, dt_s=100.0, duration_s=1000.0),
                 id="HighwayWorld(speed step overflows)"),
    pytest.param("lane_width_m", lambda: HighwayWorld(lane_width_m=1e308), id="HighwayWorld(lane offset overflows)"),
    pytest.param("target_distance_m", lambda: _field_dump(NAN), id="ppp_field_dump(target=nan)"),
    pytest.param("target_distance_m", lambda: _field_dump(-1.0), id="ppp_field_dump(target=-1)"),
    pytest.param("speed_step", lambda: SecrecyKnobs(NAN, 1.0), id="SecrecyKnobs(speed_step=nan)"),
    pytest.param("power_step_db", lambda: SecrecyKnobs(1.0, -3.0),
                 id="SecrecyKnobs(power_step_db=-3)"),
    pytest.param("p_r", lambda: RelayOption(NAN, 1, 1), id="RelayOption(p_r=nan)"),
    pytest.param("h_rb_sq", lambda: RelayOption(1.0, -0.5, 1.0), id="RelayOption(h_rb_sq=-0.5)"),
    pytest.param("tolerance", lambda: _consensus(NAN), id="consensus(tolerance=nan)"),
    pytest.param("tolerance", lambda: _consensus(-0.1), id="consensus(tolerance=-0.1)"),
    pytest.param("unit_time", lambda: windowed_stream(RECORDS, unit_time=NAN),
                 id="windowed_stream(unit_time=nan)"),
    pytest.param("unit_time", lambda: windowed_stream(RECORDS, unit_time=0.0),
                 id="windowed_stream(unit_time=0)"),
    # Finite inputs whose result is not finite: zero power times a gain that overflows, a
    # bandwidth or power past the float range, and two SNRs that overflow to inf - inf.
    pytest.param("snr", lambda: link_snr(0.0, 0.5, 1.7e308), id="link_snr(0 * inf)"),
    pytest.param("snr", lambda: link_snr(0.0, np.array([0.5, 2.0]), 1.7e308), id="link_snr(array, 0 * inf)"),
    pytest.param("capacity", lambda: shannon_capacity(1.7e308, 3.0), id="shannon_capacity(overflows)"),
    pytest.param("secrecy", lambda: gaussian_wiretap_secrecy(1e300, 1e-10, 1.0),
                 id="gaussian_wiretap_secrecy(overflows)"),
    pytest.param("secrecy", lambda: fading_secrecy_pair(ChannelParams(1e300, 1.0), 1e10, 1e10),
                 id="fading_secrecy_pair(inf - inf)"),
    # Kinematic distances past the float range: a product, a square, and a division by a subnormal.
    pytest.param("coupled_distance", lambda: coupled_distance(1.7e308, 10.0), id="coupled_distance(overflows)"),
    pytest.param("safety_distance", lambda: safety_distance(1.7e308, 1.0, 1.0, 3.0, 1.0),
                 id="safety_distance(overflows)"),
    pytest.param("safety_distance", lambda: safety_distance(1.7e308, 1.7e308, 1.0, 1.0, 0.0),
                 id="safety_distance(inf - inf)"),
    pytest.param("braking_distance", lambda: braking_distance(1.0, 1e-300, 3.0, 3.0, 5e-324),
                 id="braking_distance(overflows)"),
]


@pytest.mark.parametrize("field, call", RANGE_PROBES)
def test_out_of_range_inputs_raise_value_error_naming_the_field(field, call):
    with pytest.raises(ValueError, match=rf"^{field} must be finite"):
        call()


@pytest.mark.parametrize("secrecy, scenario", [
    (urban_fixed_secrecy, UrbanScenario(ChannelParams(1.0, 1.4), 1e308, 0.0, 0.0, 1e308)),
    (urban_moving_secrecy, UrbanScenario(ChannelParams(1.0, 5e-324), 1.7e308, 0.0, 1e-300, 1.0)),
], ids=["urban_fixed", "urban_moving"])
def test_urban_secrecy_is_finite_where_the_squared_range_overflows(secrecy, scenario):
    # 5 w**2 overflows, and 2 w * x is inf * 0 at x = 0: the range is measured without squaring.
    assert math.isfinite(secrecy(scenario))


def _outcome(call):
    try:
        return call()
    except ValueError:
        return ValueError


@settings(max_examples=300, deadline=None)
@given(
    step=st.floats(min_value=0.1, max_value=20.0),
    speed=st.floats(min_value=0.1, max_value=60.0),
    speed_in_steps=st.sampled_from([None, 1, 2, 4]),
    power_step_db=st.one_of(st.floats(min_value=0.1, max_value=40.0), st.sampled_from([1500.0, 3100.0])),
    relay=st.one_of(st.none(), st.builds(RelayOption, gains, gains, gains)),
    relay_available=st.booleans(),
    max_iterations=st.integers(min_value=1, max_value=10),
    rsc=st.one_of(st.floats(min_value=-5.0, max_value=40.0), st.just(1e6)),
)
def test_negotiation_matches_the_knob_cycle_reference(
    step, speed, speed_in_steps, power_step_db, relay, relay_available, max_iterations, rsc
):
    if speed_in_steps is not None:  # the speed knob meets v - step == 0 exactly
        speed = speed_in_steps * step
    scenario = HighwayScenario(P, 1000.0, speed, 0.2)
    knobs = SecrecyKnobs(step, power_step_db, relay_available, max_iterations)
    link, ref_link = AdjustableHighwayLink(scenario, relay), AdjustableHighwayLink(scenario, relay)
    got = _outcome(lambda: rsc_negotiate(RECORDS, rsc, knobs, link))
    want = _outcome(lambda: oracles.knob_cycle_negotiation(rsc, knobs, ref_link))
    if want is not ValueError:
        connected, iterations, final_vsc = want
        want = NegotiationResult(connected, sc_select(RECORDS), iterations, final_vsc)
    assert got == want
    assert link.scenario.v == ref_link.scenario.v
    assert link.scenario.params.p_over_n0 == ref_link.scenario.params.p_over_n0
    assert link.relay_enabled == ref_link.relay_enabled


R = FadingModel.rayleigh()
HUGE = 10**400  # an int past the float range
HIGHWAY_BASE = {"r": 1000.0, "tau": 0.2, "alpha": 1.4, "p_over_n0": 1e7}


def _negotiate(max_iterations):
    link = AdjustableHighwayLink(HighwayScenario(P, 1000.0, 10.0, 0.2))
    return rsc_negotiate(RECORDS, 1.0, SecrecyKnobs(1.0, 1.0, max_iterations=max_iterations), link)


# (what the message must start with, call).  An input of the wrong type,
# an int past the float range or a non-integral count must end in a
# ValueError that names it, never in TypeError, OverflowError or
# AttributeError, and never be accepted.
TYPE_PROBES = [
    pytest.param("speed", lambda: kmh_to_ms(HUGE), id="kmh_to_ms(huge)"),
    pytest.param("speed", lambda: ms_to_kmh(HUGE), id="ms_to_kmh(huge)"),
    pytest.param("linear ratio", lambda: linear_to_db(HUGE), id="linear_to_db(huge)"),
    pytest.param("coordinates", lambda: Point2D(HUGE, 0.0), id="Point2D(huge)"),
    pytest.param("timestamp", lambda: CsiRecord(HUGE, "a", 1.0), id="CsiRecord(timestamp=huge)"),
    pytest.param("snr", lambda: CsiRecord(0.0, "a", HUGE), id="CsiRecord(snr=huge)"),
    pytest.param("t", lambda: make_case(1).host.position(HUGE), id="Trajectory.position(huge)"),
    pytest.param("n", lambda: poisson_pmf(HUGE, 1.0), id="poisson_pmf(n=huge)"),
    pytest.param("window_index", lambda: windowed_stream([CsiRecord(1.0, "a", 2.0)], unit_time=5e-324),
                 id="windowed_stream(unit_time=5e-324)"),
    pytest.param("p_over_n0", lambda: ChannelParams("1", 1.4), id="ChannelParams(str)"),
    pytest.param("r", lambda: HighwayScenario(P, None, 1.0, 1.0), id="HighwayScenario(r=None)"),
    pytest.param("v0", lambda: braking_distance(None, 1, 1, 1, 1), id="braking_distance(None)"),
    pytest.param("mean_power_budget", lambda: ErgodicConfig("x"), id="ErgodicConfig(budget=str)"),
    pytest.param("sample_count", lambda: ErgodicConfig(1.0, sample_count="5"),
                 id="ErgodicConfig(sample_count=str)"),
    pytest.param("seed", lambda: ergodic_secrecy_mc(ErgodicConfig(1.0, sample_count=10, seed=1.5), R, R),
                 id="ErgodicConfig(seed=1.5)"),
    pytest.param("max_iterations", lambda: SecrecyKnobs(1.0, 1.0, max_iterations=None),
                 id="SecrecyKnobs(max_iterations=None)"),
    pytest.param("max_iterations", lambda: _negotiate(2.5), id="rsc_negotiate(max_iterations=2.5)"),
    pytest.param("x_min", lambda: Rect("a", 0, 1, 1), id="Rect(str)"),
    pytest.param("decibel value", lambda: db_to_linear("3"), id="db_to_linear(str)"),
    pytest.param("speed", lambda: kmh_to_ms("3"), id="kmh_to_ms(str)"),
    pytest.param("coordinates", lambda: Point2D("a", 0), id="Point2D(str)"),
    pytest.param("timestamp", lambda: CsiRecord("a", "s", 1.0), id="CsiRecord(timestamp=str)"),
    pytest.param("sender_id", lambda: CsiRecord(0.0, 5, 1.0), id="CsiRecord(sender_id=int)"),
    pytest.param("sender_id", lambda: CsiRecord(0.0, b"x", 1.0), id="CsiRecord(sender_id=bytes)"),
    pytest.param("sender_id", lambda: CsiRecord(0.0, "", 1.0), id="CsiRecord(sender_id=empty)"),
    pytest.param("chain_element", lambda: CsiRecord(0.0, "a", 1.0, 5), id="CsiRecord(chain_element=int)"),
    pytest.param("chain_element", lambda: CsiRecord(0.0, "a", 1.0, b"ab"), id="CsiRecord(chain_element=bytes)"),
    pytest.param("dt_s", lambda: run_intersection_case(1, dt_s="0.1"), id="intersection(dt_s=str)"),
    pytest.param("n", lambda: poisson_pmf("2", 1.0), id="poisson_pmf(n=str)"),
    pytest.param("k", lambda: FadingModel.rician("1"), id="rician(k=str)"),
    pytest.param("unit_time", lambda: windowed_stream(RECORDS, "1"), id="windowed_stream(unit_time=str)"),
    pytest.param("vin", lambda: chain_element(123, 2), id="chain_element(vin=int)"),
    pytest.param("sample_count", lambda: ErgodicConfig(1.0, sample_count=2.5),
                 id="ErgodicConfig(sample_count=2.5)"),
    pytest.param("size", lambda: sample_fading(R, 0, 2.5), id="sample_fading(size=2.5)"),
    pytest.param("case", lambda: make_case(1.0), id="make_case(1.0)"),
    pytest.param("case", lambda: make_case(True), id="make_case(True)"),
    pytest.param("n", lambda: poisson_pmf(2.0, 1.0), id="poisson_pmf(n=2.0)"),
    pytest.param("m", lambda: FadingModel.nakagami(HUGE), id="nakagami(m=huge)"),
    pytest.param("seed", lambda: HighwayWorld(seed=-1), id="HighwayWorld(seed=-1)"),
    pytest.param("n_nodes", lambda: HighwayWorld(n_nodes=True), id="HighwayWorld(n_nodes=True)"),
    pytest.param("max_iterations", lambda: SecrecyKnobs(1.0, 1.0, max_iterations=True),
                 id="SecrecyKnobs(max_iterations=True)"),
    pytest.param("seed", lambda: sample_field(1.0, Rect(0, 0, 1, 1), seed=1.5), id="sample_field(seed=1.5)"),
    pytest.param("seed", lambda: sample_field(1.0, Rect(0, 0, 1, 1), seed="a"), id="sample_field(seed=str)"),
    pytest.param("lam", lambda: sample_field(6.0, Rect(0, 0, 1, 1), seed=0, ref_area_m2=1e-300),
                 id="sample_field(expected count=6e300)"),
    pytest.param("relay secrecy", lambda: relay_secrecy(RelayScenario(1e300, 0.0, 1e300, 1e300, 0.0, 0.0)),
                 id="relay_secrecy(sinr_b=inf)"),
    pytest.param("relay secrecy", lambda: relay_secrecy(RelayScenario(1e300, 1e300, 1e300, 1e300, 0.0, 0.0)),
                 id="relay_secrecy(sinr_b=inf/inf)"),
    pytest.param("relay secrecy",
                 lambda: relay_secrecy(RelayScenario(1.0, 0.0, 3.0, 0.0, 0.0, 0.0, bandwidth_hz=1e308)),
                 id="relay_secrecy(bandwidth*cs=inf)"),
    pytest.param("grid", lambda: run_sweep(SweepSpec("highway", HIGHWAY_BASE, "v", (HUGE, 2.0))),
                 id="run_sweep(grid=huge)"),
    pytest.param("claim of 'b' must", lambda: select_consensus_candidates([("a", 3.0), ("b", "5")], 1.0),
                 id="consensus(claim=str)"),
    pytest.param("claim of 'b' must", lambda: select_consensus_candidates([("b", None)], 1.0),
                 id="consensus(claim=None)"),
]


@pytest.mark.parametrize("name, call", TYPE_PROBES)
def test_inputs_of_any_type_raise_value_error_naming_the_input(name, call):
    with pytest.raises(ValueError, match=rf"^{name}\b"):
        call()
