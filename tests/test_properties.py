"""Property-based checks for invariants the point tests cannot sweep."""

import math

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vscsim.channel import ChannelParams, fading_secrecy_pair
from vscsim.cluster import (
    VehicleIdentity,
    chain_element,
    identity_is_valid,
    make_identity,
    make_identity_exchange,
    validate_identity,
    verify_identity_exchange,
)
from vscsim.units import db_to_linear, kmh_to_ms, linear_to_db, ms_to_kmh
from vscsim.vsc import CsiRecord, compute_vsc

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
