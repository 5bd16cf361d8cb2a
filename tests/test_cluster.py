import hashlib
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vscsim import cluster
from vscsim.channel import ChannelParams
from vscsim.cluster import (
    AdjustableHighwayLink,
    ClusterHistory,
    ClusterState,
    NegotiationResult,
    RelayOption,
    SecrecyKnobs,
    VehicleIdentity,
    chain_element,
    form_cluster,
    history_fallback,
    identity_is_valid,
    make_identity,
    make_identity_exchange,
    rsc_negotiate,
    sc_select,
    select_consensus_candidates,
    validate_identity,
    verify_identity_exchange,
    vin_is_well_formed,
)
from vscsim.scenarios import HighwayScenario, highway_secrecy
from vscsim.vsc import CsiRecord, VscResult, compute_vsc

VIN = "1HGCM82633A004352"


def test_vin_shape():
    assert vin_is_well_formed(VIN)
    assert not vin_is_well_formed("SHORT")
    assert not vin_is_well_formed("1HGCM82633A00435!")
    assert not vin_is_well_formed(VIN + "0")


def test_non_ascii_vin_is_rejected_not_raised():
    vin = "\u00e9" * 17  # 17 letters, none of them ASCII
    assert not vin_is_well_formed(vin)
    assert not identity_is_valid(VehicleIdentity("a", vin, b"x" * 32, 5))
    with pytest.raises(ValueError, match="ASCII"):
        make_identity("a", vin, 5)


def test_chain_element_matches_published_sha256_vector():
    # one chain step is a single SHA-256; cross-check against the
    # published digest of b"abc" so the hash route is independently pinned
    want = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    assert chain_element("abc", 1).hex() == want
    assert chain_element("abc", 0) == b"abc"


def test_identity_anchor_is_iterated_hash():
    ident = make_identity("n01", VIN, chain_length=5)
    acc = VIN.encode("ascii")
    for _ in range(5):
        acc = hashlib.sha256(acc).digest()
    assert ident.chain_anchor == acc
    assert identity_is_valid(ident)


def test_identity_rejects_bad_vin_or_length():
    with pytest.raises(ValueError):
        make_identity("n01", "NOTAVIN", 5)
    with pytest.raises(ValueError):
        make_identity("n01", VIN, 0)


def test_tampered_anchor_detected():
    ident = make_identity("n01", VIN, 5)
    assert identity_is_valid(ident)
    # same vehicle id, other anchor: the verdict belongs to the identity
    flipped = bytes([ident.chain_anchor[0] ^ 1]) + ident.chain_anchor[1:]
    bad = VehicleIdentity("n01", VIN, flipped, 5)
    assert not identity_is_valid(bad)
    assert identity_is_valid(ident)


@pytest.mark.parametrize(
    "call, field",
    [
        pytest.param(lambda: make_identity("n01", VIN, 2.5), "chain_length", id="identity-float-length"),
        pytest.param(lambda: make_identity("n01", VIN, True), "chain_length", id="identity-bool-length"),
        pytest.param(lambda: make_identity("n01", 12345, 5), "VIN", id="identity-int-vin"),
        pytest.param(
            lambda: VehicleIdentity("n01", VIN, b"x" * 32, 2.5), "chain_length", id="claim-float-length"
        ),
        pytest.param(lambda: VehicleIdentity("n01", VIN, "x" * 32, 5), "chain_anchor", id="claim-str-anchor"),
        pytest.param(
            lambda: VehicleIdentity("n01", VIN, bytearray(32), 5), "chain_anchor", id="claim-bytearray-anchor"
        ),
        pytest.param(lambda: VehicleIdentity(7, VIN, b"x" * 32, 5), "vehicle_id", id="claim-int-id"),
        pytest.param(lambda: VehicleIdentity("n01", None, b"x" * 32, 5), "vin", id="claim-none-vin"),
        pytest.param(lambda: chain_element(VIN, 2.0), "position", id="element-float-position"),
        pytest.param(
            lambda: make_identity_exchange("n01", VIN, 5, 2.0), "position", id="exchange-float-position"
        ),
        pytest.param(
            lambda: make_identity_exchange("n01", VIN, 5.0, 2), "chain_length", id="exchange-float-length"
        ),
        pytest.param(
            lambda: validate_identity(make_identity("n01", VIN, 5), b"x", 1.5),
            "position",
            id="validate-float",
        ),
        pytest.param(
            lambda: validate_identity(make_identity("n01", VIN, 5), b"x", True),
            "position",
            id="validate-bool",
        ),
    ],
)
def test_identity_inputs_of_the_wrong_type_raise_value_error(call, field):
    with pytest.raises(ValueError, match=field):
        call()


def test_identity_exchange_checks_in_make_identity_order():
    # VIN shape, then the identity (chain length), then the position range
    with pytest.raises(ValueError, match="VIN"):
        make_identity_exchange("n01", "NOTAVIN", 0, 7)
    with pytest.raises(ValueError, match="chain_length"):
        make_identity_exchange("n01", VIN, 0, 7)
    with pytest.raises(ValueError, match="vehicle_id"):
        make_identity_exchange("", VIN, 5, 7)
    with pytest.raises(ValueError, match="position"):
        make_identity_exchange("n01", VIN, 5, 5)
    with pytest.raises(ValueError, match="position"):
        make_identity_exchange("n01", VIN, 5, -1)


def test_validate_identity_every_position():
    length = 5
    ident = make_identity("n01", VIN, length)
    for pos in range(length):
        assert validate_identity(ident, chain_element(VIN, pos), pos)
        # off-by-one in either direction must fail
        if pos + 1 < length:
            assert not validate_identity(ident, chain_element(VIN, pos + 1), pos)
        assert not validate_identity(ident, chain_element("X" * 17, pos), pos)


def test_validate_identity_argument_errors():
    ident = make_identity("n01", VIN, 5)
    with pytest.raises(ValueError, match="^revealed_preimage must be bytes"):
        validate_identity(ident, "deadbeef", 2)
    with pytest.raises(ValueError):
        validate_identity(ident, b"x", 5)
    with pytest.raises(ValueError):
        validate_identity(ident, b"x", -1)


def test_identity_exchange_round_trip():
    doc = make_identity_exchange("n07", VIN, chain_length=16, position=9)
    assert doc["vehicle_id"] == "n07"
    assert verify_identity_exchange(doc)
    forged = dict(doc, position=8)
    assert not verify_identity_exchange(forged)
    forged = dict(doc, preimage_hex=chain_element(VIN, 8).hex())
    assert not verify_identity_exchange(forged)


def test_identity_exchange_malformed():
    doc = make_identity_exchange("n07", VIN, 16, 9)
    with pytest.raises(ValueError):
        verify_identity_exchange({k: v for k, v in doc.items() if k != "anchor_hex"})
    with pytest.raises(ValueError):
        verify_identity_exchange(dict(doc, anchor_hex="zz"))


@pytest.mark.parametrize(
    "field, value",
    [
        ("chain_length", 5.9),
        ("chain_length", 5.0),
        ("chain_length", "5"),
        ("position", 2.7),
        ("position", "2"),
        ("position", True),
    ],
)
def test_identity_exchange_rejects_non_int_wire_fields(field, value):
    doc = make_identity_exchange("n07", VIN, 5, 2)
    assert verify_identity_exchange(doc)
    with pytest.raises(ValueError, match=f"malformed identity exchange: {field}"):
        verify_identity_exchange(dict(doc, **{field: value}))


@pytest.fixture
def hash_count(monkeypatch):
    """SHA-256 applications made through the package's one hash loop."""
    count = [0]
    real = cluster._hash_times

    def counting(data, times):
        count[0] += times
        return real(data, times)

    monkeypatch.setattr(cluster, "_hash_times", counting)
    return count


@pytest.mark.parametrize("length, position", [(1, 0), (5, 0), (5, 4), (16, 9), (1000, 500), (1000, 999)])
def test_identity_exchange_hashes_under_a_stride_once_the_chain_is_kept(hash_count, length, position):
    cluster._chain.cache_clear()
    stride = math.isqrt(length - 1) + 1
    # cold: one walk of the whole chain, then the steps from the checkpoint
    doc = make_identity_exchange("n07", VIN, length, position)
    assert hash_count[0] == length + position % stride
    # warm: only the steps from the checkpoint below the position
    hash_count[0] = 0
    assert make_identity_exchange("n07", VIN, length, position) == doc
    assert hash_count[0] == position % stride < stride
    # the wire side keeps nothing: each verification walks element to anchor
    hash_count[0] = 0
    assert verify_identity_exchange(doc)
    assert verify_identity_exchange(doc)
    assert hash_count[0] == 2 * (length - position)


def _oracle_walk(vin, times):
    data = vin.encode("ascii")
    for _ in range(times):
        data = hashlib.sha256(data).digest()
    return data


# stride edges: n = k^2 - 1, k^2, k^2 + 1 around the squares where the stride steps
_ORACLE_LENGTHS = [1, 2, 3, 4, 5, 8, 9, 10, 24, 25, 26, 1000, 1024]


@settings(max_examples=60, deadline=None)
@given(
    length=st.sampled_from(_ORACLE_LENGTHS),
    drawn=st.integers(min_value=0),
    vin=st.sampled_from([VIN, "VB000000000001017"]),
)
def test_cached_walk_matches_direct_hashlib_iteration(length, drawn, vin):
    cluster._chain.cache_clear()  # the identity builds the chain cold, the exchanges read it warm
    stride = math.isqrt(length - 1) + 1
    anchor = _oracle_walk(vin, length)
    assert make_identity("n07", vin, length).chain_anchor == anchor
    for position in {0, stride - 1, stride, length - 1, drawn % length} & set(range(length)):
        doc = make_identity_exchange("n07", vin, length, position)
        assert doc["anchor_hex"] == anchor.hex()
        assert doc["preimage_hex"] == _oracle_walk(vin, position).hex()


def test_numpy_integer_arguments_share_one_kept_chain():
    cluster._chain.cache_clear()
    doc = make_identity_exchange("n07", VIN, 1000, 517)
    for integer in (np.int64, np.int32, np.uint16):
        assert make_identity_exchange("n07", VIN, integer(1000), integer(517)) == doc
        assert make_identity("n07", VIN, integer(1000)).chain_anchor.hex() == doc["anchor_hex"]
    info = cluster._chain.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 6, 1)


def test_verdicts_do_not_depend_on_the_kept_chains():
    docs = [make_identity_exchange(f"n{k}", VIN, 64, k) for k in (0, 7, 8, 63)]
    forged = dict(docs[1], preimage_hex=docs[2]["preimage_hex"])
    anchor = make_identity("n07", VIN, 64).chain_anchor
    before = [verify_identity_exchange(doc) for doc in docs + [forged]]
    cluster._chain.cache_clear()
    after = [verify_identity_exchange(doc) for doc in docs + [forged]]
    assert before == after == [True, True, True, True, False]
    assert identity_is_valid(VehicleIdentity("n07", VIN, anchor, 64))
    assert cluster._chain.cache_info().currsize == 0


def test_identity_exchange_refuses_a_position_before_hashing(hash_count):
    for position in (5, 6, -1):
        with pytest.raises(ValueError, match="position"):
            make_identity_exchange("n07", VIN, 5, position)
    assert hash_count[0] == 0


def test_make_identity_refuses_a_vehicle_id_before_hashing(hash_count):
    cluster._chain.cache_clear()
    with pytest.raises(ValueError, match="VIN"):
        make_identity("", "NOTAVIN", 10**6)
    for vehicle_id in ("", 7):
        with pytest.raises(ValueError, match="vehicle_id"):
            make_identity(vehicle_id, VIN, 10**6)
    assert hash_count[0] == 0
    assert cluster._chain.cache_info().currsize == 0


@pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint16])
def test_chain_positions_and_lengths_of_any_integer_type(integer):
    length, position = integer(16), integer(9)
    ident = make_identity("n07", VIN, length)
    assert chain_element(VIN, position) == chain_element(VIN, 9)
    assert validate_identity(ident, chain_element(VIN, position), position)
    with pytest.raises(ValueError, match="position"):
        validate_identity(ident, b"x", integer(16))
    doc = make_identity_exchange("n07", VIN, length, position)
    assert doc == make_identity_exchange("n07", VIN, 16, 9)
    assert type(doc["chain_length"]) is int and type(doc["position"]) is int
    assert verify_identity_exchange(json.loads(json.dumps(doc)))
    assert verify_identity_exchange(dict(doc, chain_length=length, position=position))


def test_reforming_a_cluster_checks_each_identity_once(hash_count):
    good = [make_identity(f"g{k}", VIN, length) for k, length in enumerate((3, 8, 13))]
    tampered = _candidate("t", 3.0, valid=False, length=6)[0]
    short = VehicleIdentity("s", VIN, make_identity("s", VIN, 6).chain_anchor, 7)
    malformed = VehicleIdentity("m", "NOTAVIN", b"\0" * 32, 9)
    candidates = [
        (ident, VscResult(ident.vehicle_id, 3.0, 1.0, 4))
        for ident in good + [tampered, short, malformed]
    ]
    hash_count[0] = 0
    for _ in range(4):
        state, pseudo = form_cluster(candidates, rsc=2.0, secondary_rsc=1.0)
        assert state.member_ids == {"g0", "g1", "g2"}
        assert pseudo == frozenset()
    # every well-formed VIN is hashed once, on its first check; a malformed one never
    assert hash_count[0] == 3 + 8 + 13 + 6 + 7


def test_sc_select_prefers_highest_vsc():
    win = [
        CsiRecord(0.0, "b", 5.0),
        CsiRecord(0.0, "a", 2.0),
        CsiRecord(0.0, "c", 1.0),
    ]
    assert sc_select(win) == "b"
    # equal SNR ties resolve to the smallest id
    tie = [CsiRecord(0.0, "b", 4.0), CsiRecord(0.0, "a", 4.0)]
    assert sc_select(tie) == "a"
    with pytest.raises(ValueError):
        sc_select([])


def _link(v_kmh=80.0, relay=None):
    scenario = HighwayScenario(
        params=ChannelParams.from_db(70.0, alpha=1.4), r=1000.0, v=v_kmh / 3.6, tau=0.2
    )
    return AdjustableHighwayLink(scenario, relay=relay)


WINDOW = [CsiRecord(0.0, "a", 5.0), CsiRecord(0.0, "b", 2.0)]
KNOBS = SecrecyKnobs(speed_step=10.0 / 3.6, power_step_db=3.0)


def test_negotiate_connects_immediately_when_threshold_met():
    link = _link()
    base = link.evaluate()
    res = rsc_negotiate(WINDOW, base - 0.5, KNOBS, link)
    assert res == NegotiationResult(True, "a", 1, base)


def test_negotiate_two_iterations_after_one_speed_cut():
    link = _link(80.0)
    base = link.evaluate()
    slower = highway_secrecy(
        HighwayScenario(link.scenario.params, r=1000.0, v=70.0 / 3.6, tau=0.2)
    )
    assert slower > base
    rsc = 0.5 * (base + slower)
    res = rsc_negotiate(WINDOW, rsc, KNOBS, link)
    assert res.connected
    assert res.iterations == 2
    assert res.final_vsc == pytest.approx(slower, rel=1e-12)
    assert link.scenario.v == pytest.approx(70.0 / 3.6)


def test_negotiate_knob_order_speed_then_power():
    link = _link(80.0)
    res = rsc_negotiate(WINDOW, 1e6, SecrecyKnobs(10.0 / 3.6, 3.0, max_iterations=3), link)
    assert not res.connected
    assert res.iterations == 3
    # one speed cut and one power raise happened, in that order
    assert link.scenario.v == pytest.approx(70.0 / 3.6)
    assert link.scenario.params.p_over_n0 == pytest.approx(1e7 * 10 ** 0.3, rel=1e-12)
    assert res.final_vsc == pytest.approx(link.evaluate(), rel=1e-12)


def test_negotiate_skips_immovable_speed():
    # speed step larger than current speed: the speed knob cannot act
    link = _link(8.0)
    res = rsc_negotiate(WINDOW, 1e6, SecrecyKnobs(10.0 / 3.6, 3.0, max_iterations=2), link)
    assert not res.connected
    assert link.scenario.v == pytest.approx(8.0 / 3.6)
    assert link.scenario.params.p_over_n0 == pytest.approx(1e7 * 10 ** 0.3, rel=1e-12)


def test_negotiate_reaches_relay():
    relay = RelayOption(p_r=10.0, h_rb_sq=0.0, h_re_sq=10.0)
    link = _link(80.0, relay=relay)
    res = rsc_negotiate(
        WINDOW, 1e6, SecrecyKnobs(10.0 / 3.6, 3.0, relay_available=True, max_iterations=5), link
    )
    assert not res.connected
    assert link.relay_enabled


def test_negotiate_failure_reports_last_vsc():
    link = _link(80.0)
    res = rsc_negotiate(WINDOW, 1e9, SecrecyKnobs(10.0 / 3.6, 3.0, max_iterations=8), link)
    assert not res.connected
    assert res.iterations == 8
    assert res.final_vsc < 1e9
    assert res.target_id == "a"


def _candidate(vid, vsc, valid=True, length=8):
    ident = make_identity(vid, VIN, length)
    if not valid:
        flipped = bytes([ident.chain_anchor[0] ^ 1]) + ident.chain_anchor[1:]
        ident = VehicleIdentity(vid, VIN, flipped, length)
    return ident, VscResult(vid, vsc, 1.0, 4)


def test_form_cluster_partition():
    state, pseudo = form_cluster(
        [
            _candidate("a", 3.0),
            _candidate("b", 1.5),
            _candidate("c", 0.5),
            _candidate("d", 4.0, valid=False),
        ],
        rsc=2.0,
        secondary_rsc=1.0,
    )
    assert state.member_ids == {"a"}
    assert dict(state.members)["a"] == 3.0
    assert pseudo == {"b"}
    # c fell below secondary, d failed identity despite the best VSC


def test_form_cluster_inclusive_bounds():
    state, pseudo = form_cluster(
        [_candidate("a", 2.0), _candidate("b", 1.0)], rsc=2.0, secondary_rsc=1.0
    )
    assert state.member_ids == {"a"}
    assert pseudo == {"b"}


def test_form_cluster_errors():
    with pytest.raises(ValueError):
        form_cluster([], rsc=1.0, secondary_rsc=2.0)
    with pytest.raises(ValueError):
        form_cluster([_candidate("a", 1.0), _candidate("a", 2.0)], 1.0, 0.5)


@pytest.mark.parametrize(
    "rsc, secondary_rsc, field",
    [
        (math.nan, 1.0, "rsc"),
        (math.inf, 1.0, "rsc"),
        (2.0, math.nan, "secondary_rsc"),
        (2.0, -math.inf, "secondary_rsc"),
    ],
)
def test_form_cluster_rejects_non_finite_thresholds(rsc, secondary_rsc, field):
    # a NaN rsc would put every candidate that clears the secondary
    # threshold in the pseudo set and save a bare NaN to the history
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        form_cluster([_candidate("a", 1.5)], rsc=rsc, secondary_rsc=secondary_rsc)


@pytest.mark.parametrize("rsc", [math.nan, math.inf, -math.inf])
def test_negotiate_rejects_non_finite_rsc(rsc):
    link = _link()
    with pytest.raises(ValueError, match="^rsc must be finite"):
        rsc_negotiate(WINDOW, rsc, KNOBS, link)
    assert link.scenario.v == pytest.approx(80.0 / 3.6)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_consensus_rejects_non_finite_threshold(threshold):
    with pytest.raises(ValueError, match="^threshold must be finite"):
        select_consensus_candidates([("a", 3.0)], threshold)


def test_thresholds_may_be_negative():
    state, pseudo = form_cluster(
        [_candidate("a", -0.5), _candidate("b", -1.5), _candidate("c", -3.0)], rsc=-1.0, secondary_rsc=-2.0
    )
    assert state.member_ids == {"a"}
    assert pseudo == {"b"}
    assert select_consensus_candidates([("a", -0.5), ("b", -1.5)], -1.0) == ["a"]
    assert rsc_negotiate(WINDOW, -1e3, KNOBS, _link()).connected


def test_history_round_trip(tmp_path):
    hist = ClusterHistory()
    state, _ = form_cluster([_candidate("a", 3.0)], rsc=2.0, secondary_rsc=1.0)
    hist.append_state(state)
    hist.append_state(ClusterState("cluster-1", (("b", 2.5), ("c", 2.1)), 2.0, 1.0, 5.0))
    path = tmp_path / "history.ndjson"
    hist.save(path)
    back = ClusterHistory.load(path)
    assert back.records == hist.records
    replayed = back.replay()
    assert replayed[0].member_ids == {"a"}
    assert replayed[1].formed_at == 5.0
    # file is line-delimited JSON
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert all(line.startswith("{") for line in lines)


def test_history_save_writes_formed_at_as_ts(tmp_path):
    hist = ClusterHistory()
    hist.append_state(ClusterState("c-1", (("a", 2.5), ("b", 1.25)), 2.0, 1.0, 3.5))
    path = tmp_path / "history.ndjson"
    hist.save(path)
    assert path.read_bytes() == (
        b'{"cluster_id": "c-1", "members": [{"id": "a", "vsc": 2.5}, {"id": "b", "vsc": 1.25}], '
        b'"rsc": 2.0, "secondary_rsc": 1.0, "ts": 3.5}\n'
    )
    assert ClusterHistory.load(path).replay() == hist.replay()


@pytest.mark.parametrize(
    "bad_line, reason",
    [
        ('{"cluster_id": "c-1", "members": [], "rsc": 2.0, "secondary_rsc": 1.0}', "missing key 'ts'"),
        ('["c-1", [], 2.0, 1.0, 3.5]', "expected a JSON object, got list"),
        ("cluster c-1 formed at 3.5", "Expecting value"),
        ('{"cluster_id": "c-1", "members": [{"id": "a", "vsc": NaN}], "rsc": 2.0, "secondary_rsc": 1.0, "ts": 3.5}',
         "vsc of member 'a' must be finite, got nan"),
        ('{"cluster_id": "c-1", "members": [], "rsc": 2.0, "secondary_rsc": 1.0, "ts": -Infinity}',
         "ts must be finite, got -inf"),
    ],
    ids=["missing-key", "json-list", "not-json", "nan-vsc", "infinite-ts"],
)
def test_history_load_names_the_file_and_line_of_a_malformed_record(tmp_path, bad_line, reason):
    hist = ClusterHistory([ClusterState("c-0", (("a", 2.5),), 2.0, 1.0, 0.5)])
    path = tmp_path / "history.ndjson"
    hist.save(path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n" + bad_line + "\n")  # a blank line still counts toward the line number
    where = re.escape(f"{path}, line 3")
    with pytest.raises(ValueError, match=rf"^{where}: malformed history record: {reason}"):
        ClusterHistory.load(path)


def test_history_fallback_prefers_recent_then_vsc_then_id():
    hist = ClusterHistory(
        [
            ClusterState("c0", (("a", 9.9),), 2.0, 1.0, 0.0),
            ClusterState("c1", (("b", 2.0), ("c", 3.0), ("d", 3.0)), 2.0, 1.0, 1.0),
        ]
    )
    # the later record wins even though the earlier one has a higher VSC
    assert history_fallback(hist, ["a", "b", "c", "d"]) == "c"
    assert history_fallback(hist, ["b", "d"]) == "d"
    assert history_fallback(hist, ["a"]) == "a"
    assert history_fallback(hist, ["zz"]) is None
    assert history_fallback(ClusterHistory(), ["a"]) is None


def test_consensus_strict_threshold_and_order():
    got = select_consensus_candidates(
        [("a", 1.0), ("b", 2.5), ("c", 2.5), ("d", 0.4)], threshold=1.0
    )
    assert got == ["b", "c"]
    with pytest.raises(ValueError):
        select_consensus_candidates([("a", 1.0), ("a", 2.0)], 0.5)


def test_consensus_cross_checks_claims():
    win = [CsiRecord(0.0, "a", 5.0), CsiRecord(0.0, "b", 2.0), CsiRecord(0.0, "c", 2.0)]
    honest_a = compute_vsc(win, "a").vsc
    got = select_consensus_candidates(
        [("a", honest_a), ("b", 3.0)], threshold=0.0, window=win, tolerance=0.05
    )
    # b's claim disagrees with the host-side estimate and is dropped
    assert got == ["a"]
    # no CSI for an id means the claim passes unchecked
    got = select_consensus_candidates(
        [("zz", 3.0)], threshold=0.0, window=win, tolerance=0.05
    )
    assert got == ["zz"]


@pytest.mark.parametrize("responses", list(itertools.permutations([("a", 3.0), ("b", math.nan), ("c", 5.0)])))
def test_consensus_refuses_a_nan_claim_in_any_order(responses):
    with pytest.raises(ValueError, match="^claim of 'b' must be finite, got nan$"):
        select_consensus_candidates(responses, 1.0)


def test_consensus_empty_window_checks_nothing():
    responses = [("a", 3.0), ("b", 2.0), ("c", 0.5)]
    assert select_consensus_candidates(responses, 1.0, window=[]) == select_consensus_candidates(
        responses, 1.0, window=None
    ) == ["a", "b"]
