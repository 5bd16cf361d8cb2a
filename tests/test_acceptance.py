"""Acceptance suite: ten end-to-end checks over the whole package.

Each check prints one `criterion N: PASS/FAIL` line.  Two checks carry a
note where the literal headline claim only holds in part of the
parameter space; the tests assert the attainable part at full strength
and pin the boundary behavior as executable fact (see README).
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from vscsim.channel import ChannelParams
from vscsim.cluster import (
    ClusterHistory,
    ClusterState,
    SecrecyKnobs,
    VehicleIdentity,
    AdjustableHighwayLink,
    chain_element,
    form_cluster,
    identity_is_valid,
    make_identity,
    rsc_negotiate,
    sc_select,
    validate_identity,
)
from vscsim.config import build_config
from vscsim.highway import HighwayWorld, run_perturbation_study
from vscsim.intersection import CASE_IDS, run_intersection_case
from vscsim.presets import get_preset
from vscsim.runner import build_table, run
from vscsim.scenarios import HighwayScenario, UrbanScenario, urban_fixed_secrecy
from vscsim.stochastic import (
    COLLUDING,
    NON_COLLUDING,
    PppField,
    Rect,
    average_secrecy,
    ppp_secrecy,
    sample_field,
)
from vscsim.tables import read_csv
from vscsim.units import Point2D
from vscsim.vsc import CsiRecord, VscResult, compute_vsc

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@contextmanager
def criterion(n: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"criterion {n:2d}: FAIL - {desc}")
        raise
    print(f"criterion {n:2d}: PASS - {desc}")


def _preset_table(name: str):
    return build_table(build_config(get_preset(name)))


def _strictly_decreasing(xs):
    return all(a > b for a, b in zip(xs, xs[1:]))


def _strictly_increasing(xs):
    return all(a < b for a, b in zip(xs, xs[1:]))


def test_criterion_01_speed_sweep_trends():
    with criterion(1, "fig4 sweep: columns decrease in v; alpha order per regime"):
        t0 = time.perf_counter()
        table = _preset_table("fig4")
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        speeds = table.column("v_kmh")
        assert speeds == [float(v) for v in range(10, 130, 10)]
        cols = [table.column(f"cs_alpha_{a}") for a in ("1.4", "2", "4")]
        for col in cols:
            assert _strictly_decreasing(col)
        # the legitimate-link distance v*tau crosses 1 m between 10 and
        # 20 km/h at tau = 0.2 s; below it a larger exponent helps, above
        # it the same exponent punishes the (longer) legitimate link more
        by_row = list(zip(*cols))
        assert _strictly_increasing(by_row[0])
        for row in by_row[1:]:
            assert _strictly_decreasing(row)
    print("  note: alpha ordering increases only while v*tau < 1 m (v=10 here);")
    print("  it provably reverses for v >= 20 km/h, so the reversal is pinned instead.")


def test_criterion_02_golden_ordering():
    with criterion(2, "fig5 ordering and golden values at 1e-9"):
        table = _preset_table("fig5")
        want = read_csv(GOLDEN_DIR / "fig5_expected.csv")
        values = table.column("cs")
        assert values[0] > values[1] > values[2]
        assert table.column("v_kmh") == [80.0, 100.0, 120.0]
        for got_row, want_row in zip(table.rows, want.rows):
            for g, w in zip(got_row, want_row):
                assert g == pytest.approx(w, rel=1e-9)


def test_criterion_03_power_and_headway_monotonicity():
    with criterion(3, "secrecy rises with P/N0 {40,50,60} dB, falls with tau {100,200,400} ms"):
        fig6 = _preset_table("fig6")
        for row in fig6.rows:
            assert row[1] < row[2] < row[3]
        fig7 = _preset_table("fig7")
        for row in fig7.rows:
            assert row[1] > row[2] > row[3]


def test_criterion_04_urban_corner_sign_structure():
    with criterion(4, "urban corner: r0=200 m decreasing; r0=20 m has a negative region"):
        fig11 = _preset_table("fig11")
        assert _strictly_decreasing(fig11.column("cs"))
        assert all(v > 0.0 for v in fig11.column("cs"))
        # at the 0.1 s snapshot the r0=20 m geometry cannot go negative:
        # the largest legitimate displacement is 1.67 m against a 16 m
        # wiretap margin; pinned here as executable fact
        params = ChannelParams.from_db(70.0, 1.4)
        short = [
            urban_fixed_secrecy(
                UrbanScenario(params, 3.0, vl / 3.6, 0.1, 20.0)
            )
            for vl in range(10, 65, 5)
        ]
        assert all(v > 0.0 for v in short)
        # one second after the corner the negative region appears
        fig12 = _preset_table("fig12")
        values = fig12.column("cs")
        assert values[0] > 0.0
        assert min(values) < 0.0
        signs = [v > 0.0 for v in values]
        assert signs == sorted(signs, reverse=True)
    print("  note: the negative region needs the 1.0 s snapshot used by fig12;")
    print("  at 0.1 s every grid point is provably positive, pinned above.")


def test_criterion_05_power_cannot_fix_geometry():
    with criterion(5, "raising P/N0 to 80 dB leaves the negative region in place"):
        fig13 = _preset_table("fig13")
        lo = fig13.column("cs_pn0_70db")
        hi = fig13.column("cs_pn0_80db")
        assert min(hi) < 0.0
        # identical sign pattern: power scales both links, geometry decides
        assert [v > 0.0 for v in hi] == [v > 0.0 for v in lo]


def test_criterion_06_relay_beats_direct():
    with criterion(6, "relay with h_re > h_rb beats direct for p_r > 0, equals it at p_r = 0"):
        table = _preset_table("fig17")
        for p_r, cs_relay, cs_direct in table.rows:
            if p_r == 0.0:
                assert cs_relay == pytest.approx(cs_direct, abs=1e-12)
            else:
                assert cs_relay > cs_direct
        relay_col = table.column("cs_relay")
        assert _strictly_increasing(relay_col)


def test_criterion_07_ppp_field_properties():
    with criterion(7, "ppp: count statistics, nearest binds, average below max, collusion hurts"):
        t0 = time.perf_counter()
        lam = 6.0
        region = Rect(0.0, 0.0, 100.0, 10.0)
        trials = 100_000
        counts = np.fromiter(
            (len(sample_field(lam, region, seed=s)) for s in range(trials)),
            dtype=float,
            count=trials,
        )
        mean = float(counts.mean())
        sigma = math.sqrt(lam / trials)
        assert abs(mean - lam) <= 3.0 * sigma
        params = ChannelParams.from_db(70.0, 1.4)
        big = Rect(-50.0, -50.0, 50.0, 50.0)
        host = Point2D(0.0, 0.0)
        target = Point2D(25.0, 0.0)
        rng = np.random.default_rng(123)
        checked = 0
        for seed in range(1000):
            field = sample_field(lam, big, seed=seed)
            if len(field) == 0:
                continue
            checked += 1
            dists = [math.hypot(p.x, p.y) for p in field.points]
            snrs = [params.p_over_n0 * d ** (-2.0 * params.alpha) for d in dists]
            # non-colluding: the binding eavesdropper is the nearest one
            assert int(np.argmax(snrs)) == int(np.argmin(dists))
            non = ppp_secrecy(host, target, field, NON_COLLUDING, params)
            col = ppp_secrecy(host, target, field, COLLUDING, params)
            assert col <= non + 1e-12
            d_ab = 25.0
            cap_ab = math.log2(1.0 + params.p_over_n0 * d_ab ** (-2.0 * params.alpha))
            terms = [cap_ab - math.log2(1.0 + s) for s in snrs]
            avg = average_secrecy(host, target, field, params)
            assert avg == pytest.approx(float(np.mean(terms)), rel=1e-11)
            assert avg <= max(terms) + 1e-12
            assert non == pytest.approx(min(terms), rel=1e-11)
        assert checked >= 990
        assert time.perf_counter() - t0 < 30.0


def test_criterion_08_vsc_identities():
    with criterion(8, "vsc: zero on uniform windows, tracks max SNR, reference example"):
        for m in range(1, 21):
            window = [CsiRecord(0.0, f"n{i:02d}", 4.0) for i in range(m)]
            for sender in {r.sender_id for r in window}:
                assert compute_vsc(window, sender).vsc == pytest.approx(0.0, abs=1e-12)
        rng = np.random.default_rng(77)
        for _ in range(10_000):
            m = int(rng.integers(2, 9))
            snrs = rng.uniform(0.1, 400.0, m)
            window = [CsiRecord(0.0, f"n{i:02d}", float(s)) for i, s in enumerate(snrs)]
            best = sc_select(window)
            assert best == f"n{int(np.argmax(snrs)):02d}"
        window = [
            CsiRecord(0.0, "a", 3.0),
            CsiRecord(0.0, "b", 1.0),
            CsiRecord(0.0, "c", 1.0),
            CsiRecord(0.0, "d", 3.0),
        ]
        got = compute_vsc(window, "a").vsc
        assert got == pytest.approx(2.0 - math.log2(3.0), abs=1e-12)


def test_criterion_09_cluster_protocol():
    with criterion(9, "cluster: partition law, identity chain soundness, negotiation bounds, replay"):
        vin = "1HGCM82633A004352"
        rng = np.random.default_rng(11)
        # partition property over randomized candidate sets
        for _ in range(300):
            n = int(rng.integers(1, 12))
            rsc = float(rng.uniform(0.5, 3.0))
            secondary = float(rng.uniform(0.0, rsc))
            cands = []
            for i in range(n):
                ident = make_identity(f"n{i:02d}", vin, 6)
                if rng.random() < 0.25:
                    bad = bytes([ident.chain_anchor[0] ^ 1]) + ident.chain_anchor[1:]
                    ident = VehicleIdentity(f"n{i:02d}", vin, bad, 6)
                cands.append((ident, VscResult(f"n{i:02d}", float(rng.normal(1.5, 1.5)), 1.0, 4)))
            state, pseudo = form_cluster(cands, rsc, secondary)
            members = state.member_ids
            assert not (members & pseudo)
            for ident, res in cands:
                vid = ident.vehicle_id
                if not identity_is_valid(ident):
                    assert vid not in members and vid not in pseudo
                elif res.vsc >= rsc:
                    assert vid in members
                elif res.vsc >= secondary:
                    assert vid in pseudo
                else:
                    assert vid not in members and vid not in pseudo
        # identity chain: every correct (preimage, position) accepted
        length = 5
        ident = make_identity("n00", vin, length)
        for pos in range(length):
            assert validate_identity(ident, chain_element(vin, pos), pos)
        # and no random preimage ever accepted
        false_accepts = 0
        gen = np.random.default_rng(99)
        for _ in range(100_000):
            junk = gen.bytes(32)
            pos = int(gen.integers(0, length))
            if validate_identity(ident, junk, pos):
                false_accepts += 1
        assert false_accepts == 0
        # negotiation always terminates within its iteration budget
        window = [CsiRecord(0.0, "a", 5.0), CsiRecord(0.0, "b", 2.0)]
        fuzz = np.random.default_rng(5)
        for _ in range(200):
            v = float(fuzz.uniform(5.0, 130.0)) / 3.6
            scenario = HighwayScenario(
                ChannelParams.from_db(float(fuzz.uniform(40.0, 80.0)), 1.4),
                r=1000.0,
                v=v,
                tau=0.2,
            )
            knobs = SecrecyKnobs(
                speed_step=float(fuzz.uniform(0.5, 6.0)),
                power_step_db=float(fuzz.uniform(0.5, 6.0)),
                relay_available=False,
                max_iterations=int(fuzz.integers(1, 10)),
            )
            rsc = float(fuzz.uniform(-5.0, 60.0))
            res = rsc_negotiate(window, rsc, knobs, AdjustableHighwayLink(scenario))
            assert 1 <= res.iterations <= knobs.max_iterations
            if res.connected:
                assert res.final_vsc >= rsc
        # history round trip replays to identical states
        hist = ClusterHistory(
            [
                ClusterState(f"c{k}", (("a", 2.0 + k), ("b", 1.0)), 2.0, 1.0, float(k))
                for k in range(20)
            ]
        )
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "hist.ndjson"
            hist.save(path)
            again = ClusterHistory.load(path)
        assert again.records == hist.records
        assert [s.member_ids for s in again.replay()] == [
            s.member_ids for s in hist.replay()
        ]


def test_criterion_10_determinism_and_physics(tmp_path):
    with criterion(10, "seeded reruns byte-identical; perturbation signs >= 99%; cutoff flags"):
        for preset in ["highway-cluster"] + [f"table1-case{i}" for i in range(1, 7)]:
            doc = get_preset(preset)
            a_paths = run(build_config(doc), out_dir=str(tmp_path / "a"))
            b_paths = run(build_config(doc), out_dir=str(tmp_path / "b"))
            assert [p.name for p in a_paths] == [p.name for p in b_paths]
            for pa, pb in zip(a_paths, b_paths):
                assert pa.read_bytes() == pb.read_bytes(), preset
        # bearing-conditioned sign relations on the +5 m shifted overlay
        res = run_perturbation_study(HighwayWorld())
        same = res.target_idx_base == res.target_idx_pert
        ahead = res.dx_base > res.delta / 2.0
        gain = res.secrecy_pert > res.secrecy_base
        closer = res.distances_pert < res.distances_base
        ok = np.where(ahead, gain & closer, ~gain & ~closer)
        fraction = float(np.mean(ok[same]))
        assert fraction >= 0.99
        # near-zero flags fire exactly beyond the per-run cutoff distance
        beyond_seen = 0
        for cid in CASE_IDS:
            far = run_intersection_case(cid, host_span=(-2500.0, 2500.0))
            assert np.array_equal(far.near_zero, far.distances > far.cutoff_distance)
            if np.any(far.near_zero):
                beyond_seen += 1
            near = run_intersection_case(cid)
            assert not np.any(near.near_zero)
            assert float(np.max(near.distances)) < near.cutoff_distance
        assert beyond_seen >= 5
