import math
import re
from dataclasses import FrozenInstanceError, astuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from vscsim import highway
from vscsim.channel import link_snr, secrecy_bits
from vscsim.config import build_config
from vscsim.highway import (
    HighwayWorld,
    _nearest_links,
    run_highway_experiment,
    run_perturbation_study,
)
from vscsim.intersection import (
    CASE_IDS,
    NEAR_ZERO_FRACTION,
    Trajectory,
    make_case,
    run_intersection_case,
)
from vscsim.runner import build_table
from vscsim.units import Point2D, distance

V35 = 35.0 / 3.6


def test_trajectory_interpolates_and_clamps():
    tr = Trajectory(Point2D(0.0, 0.0), Point2D(10.0, 0.0), speed=2.0)
    assert tr.path_length == 10.0
    assert tr.position(0.0) == Point2D(0.0, 0.0)
    assert tr.position(2.5).x == pytest.approx(5.0)
    # path exhausted: hold the end
    assert tr.position(100.0) == Point2D(10.0, 0.0)
    with pytest.raises(ValueError):
        tr.position(-0.1)


@pytest.mark.parametrize("speed", [2.0, 1e300], ids=["finite-travel", "travel-overflows"])
def test_trajectory_holds_the_end_past_it(speed):
    # speed * 1e308 overflows to inf, which the min clamps to the path length, with no warning
    start, end = Point2D(-1.5, 0.25), Point2D(7.0, -3.0)
    tr = Trajectory(start, end, speed=speed)
    for t in (tr.path_length / speed, 100.0, 1e308):
        assert tr.position(t) == Point2D(*oracles.path_position((astuple(start), astuple(end)), speed, t))
    assert tr.position(1e308) == tr.position(100.0) == end


def test_trajectory_zero_length_segment_stays_at_its_end():
    b = Point2D(3.0, 4.0)
    still = Trajectory(b, b, speed=1.3)
    times = [0.25 * k for k in range(30)] + [1e9, 1e308]
    assert still.path_length == 0.0
    assert [still.position(t) for t in times] == [b] * len(times)
    assert still.steps(0.1) == 0


def test_trajectory_cached_path_length_keeps_equality_and_frozen_fields():
    ends = (Point2D(0.0, 0.0), Point2D(3.0, 4.0))
    read = Trajectory(*ends, speed=1.0)
    assert read.path_length == 5.0
    fresh = Trajectory(*ends, speed=1.0)
    assert "path_length" in vars(read) and "path_length" not in vars(fresh)
    assert read == fresh
    assert hash(read) == hash(fresh)
    for tr in (read, fresh):
        with pytest.raises(FrozenInstanceError):
            tr.path_length = 1.0
    assert read.path_length == fresh.path_length == 5.0


@pytest.mark.parametrize("case", CASE_IDS)
def test_intersection_distances_are_the_per_step_walk_bit_for_bit(case):
    # the array kernel against units.distance of the walked positions, one step at a time
    rng = np.random.default_rng(case)
    for _ in range(40):
        lo, hi = sorted(rng.uniform(-150.0, 150.0, 2))
        start = float(rng.uniform(-200.0, 0.0))
        kwargs = dict(speed_kmh=float(rng.uniform(10.0, 120.0)),
                      host_span=(start, start + float(rng.uniform(5.0, 300.0))), target_span=(lo, hi + 1.0),
                      lane_offset_m=float(rng.uniform(0.5, 10.0)))
        dt_s = float(rng.uniform(0.05, 0.5))
        geometry = make_case(case, **kwargs)
        host, target = ((astuple(tr.start), astuple(tr.end)) for tr in (geometry.host, geometry.target))
        v = geometry.host.speed
        res = run_intersection_case(case, dt_s, **kwargs)
        want = [distance(Point2D(*oracles.path_position(host, v, t)), Point2D(*oracles.path_position(target, v, t)))
                for t in res.times.tolist()]
        assert res.distances.tobytes() == np.array(want).tobytes()


def test_case_geometries():
    for cid in CASE_IDS:
        case = make_case(cid)
        assert case.host.position(0.0) == Point2D(-60.0, 0.0)
        assert case.host.position(1e9) == Point2D(40.0, 0.0)
    c1 = make_case(1)
    assert c1.target.position(0.0) == Point2D(0.0, -20.0)
    assert c1.target.position(1e9) == Point2D(0.0, 20.0)
    c2 = make_case(2)
    assert c2.target.position(0.0) == Point2D(0.0, 20.0)
    c3 = make_case(3)
    assert c3.target.position(0.0) == Point2D(-20.0, 3.0)
    assert c3.target.position(1e9) == Point2D(20.0, 3.0)
    c4 = make_case(4)
    assert c4.target.position(0.0) == Point2D(20.0, 3.0)
    c5 = make_case(5)
    assert c5.target.position(0.0) == Point2D(-20.0, 0.0)
    assert c5.target.position(1e9) == Point2D(80.0, 0.0)
    c6 = make_case(6)
    assert c6.target.position(0.0) == Point2D(20.0, 3.0)
    assert c6.target.position(1e9) == Point2D(-80.0, 3.0)
    with pytest.raises(ValueError):
        make_case(7)
    with pytest.raises(ValueError):
        make_case(1, host_span=(10.0, -10.0))


def test_intersection_case1_closest_approach():
    # the host meets the clamped target across the junction: the closest
    # grid sample sits just past 20 m
    res = run_intersection_case(1)
    i = int(np.argmin(res.distances))
    assert res.distances[i] == pytest.approx(20.0019, abs=1e-3)
    assert res.capacities[i] == res.peak_capacity
    assert res.times[0] == 0.0
    assert res.times.shape == res.distances.shape == res.capacities.shape


def test_intersection_capacity_tracks_distance():
    res = run_intersection_case(4)
    order = np.argsort(res.distances)
    caps_sorted = res.capacities[order]
    assert np.all(np.diff(caps_sorted) <= 1e-12)
    # spot-check the formula
    for k in (0, len(res.times) // 2, len(res.times) - 1):
        want = math.log2(1.0 + res.p_over_n0 * res.distances[k] ** (-2.0 * res.alpha))
        assert res.capacities[k] == pytest.approx(want, rel=1e-12)


def test_intersection_adjacent_lane_floor():
    # parallel cases bottom out near the 3 m lane offset
    res3 = run_intersection_case(3)
    assert float(np.min(res3.distances)) == pytest.approx(3.013, abs=0.01)
    res6 = run_intersection_case(6)
    assert float(np.min(res6.distances)) == pytest.approx(3.013, abs=0.01)


def test_intersection_same_lane_constant_gap():
    res = run_intersection_case(5)
    assert np.allclose(res.distances, 40.0, atol=1e-9)


def test_intersection_default_span_never_near_zero():
    # the default 100 m geometry stays far inside the cutoff radius
    for cid in CASE_IDS:
        res = run_intersection_case(cid)
        assert res.cutoff_distance > 1400.0
        assert float(np.max(res.distances)) < res.cutoff_distance
        assert not np.any(res.near_zero)


def test_intersection_extended_span_reaches_near_zero():
    res = run_intersection_case(1, host_span=(-3000.0, 3000.0))
    assert bool(res.near_zero[0])
    assert not bool(res.near_zero[int(np.argmin(res.distances))])
    assert np.array_equal(res.near_zero, res.distances > res.cutoff_distance)


def test_intersection_cutoff_closed_form():
    res = run_intersection_case(2)
    thr = NEAR_ZERO_FRACTION * res.peak_capacity
    want = (res.p_over_n0 / (2.0**thr - 1.0)) ** (1.0 / (2.0 * res.alpha))
    assert res.cutoff_distance == pytest.approx(want, rel=1e-12)


def test_intersection_collision_detected():
    # 36 km/h puts both vehicles at the origin exactly on a 0.1 s sample
    with pytest.raises(ValueError):
        run_intersection_case(1, speed_kmh=36.0, target_span=(-60.0, 40.0))


def test_intersection_rejects_bad_dt():
    with pytest.raises(ValueError):
        run_intersection_case(1, dt_s=0.0)


def test_intersection_rejects_overflowing_step_count():
    # the host path is 2e308 m long: an infinite step count
    with pytest.raises(ValueError, match="^step_count must be finite"):
        run_intersection_case(1, host_span=(-1e308, 1e308))


def test_intersection_rejects_step_count_past_array_size():
    # finite, but np.arange cannot hold steps + 1 samples
    with pytest.raises(ValueError, match="^step_count must be < 9223372036854775807"):
        run_intersection_case(5, host_span=(-1e307, 1e307))


@pytest.mark.parametrize("p_over_n0_db", [-400.0, -100.0])
def test_intersection_rejects_power_too_low_for_a_cutoff(p_over_n0_db):
    # At -400 dB every capacity rounds to 0.  At -100 dB the peak is about
    # 3e-14 bits, and its near-zero threshold still rounds to an SNR of 0.
    with pytest.raises(ValueError, match="^p_over_n0_db"):
        run_intersection_case(1, p_over_n0_db=p_over_n0_db)


def test_intersection_cutoff_past_the_float_range_is_inf():
    res = run_intersection_case(1, alpha=1e-3)
    assert res.cutoff_distance == math.inf
    assert not np.any(res.near_zero)


def _small_world(**kw):
    defaults = dict(duration_s=5.0, seed=3)
    defaults.update(kw)
    return HighwayWorld(**defaults)


def _link_table_rows(experiment, world):
    """Rows of the runner's table for a world with the default dt and the given duration and seed."""
    doc = {"experiment": experiment, "params": {"duration_s": world.duration_s}, "seed": world.seed}
    return build_table(build_config(doc)).rows


def test_highway_shapes_and_ids():
    world = _small_world()
    res = run_highway_experiment(world)
    n_steps = int(round(world.duration_s / world.dt_s))
    assert res.times.shape == (n_steps,)
    assert res.positions.shape == (n_steps, world.n_nodes)
    assert res.lane_y.shape == (world.n_nodes,)
    assert res.target_idx.shape == (n_steps, world.n_sources)
    assert res.node_ids[0] == "n00"
    assert len(res.node_ids) == world.n_nodes
    rows = _link_table_rows("highway_cluster", world)
    assert len(rows) == n_steps * world.n_sources
    assert rows[0][1] == "n00" and rows[1][1] == "n01"


def test_highway_deterministic_per_seed():
    a = run_highway_experiment(_small_world())
    b = run_highway_experiment(_small_world())
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.secrecy, b.secrecy)
    c = run_highway_experiment(_small_world(seed=4))
    assert not np.array_equal(a.positions, c.positions)


def test_highway_positions_stay_on_road():
    world = _small_world()
    res = run_highway_experiment(world)
    xs = res.positions
    assert np.all((xs >= 0.0) & (xs < world.length_m))
    centers = (np.arange(world.lanes) + 0.5) * world.lane_width_m
    assert set(np.unique(res.lane_y)).issubset(set(centers))


def test_highway_speed_bounds_and_redraw():
    world = _small_world()
    res = run_highway_experiment(world)
    xs = res.positions
    step = np.diff(xs, axis=0) % world.length_m
    v_max = world.max_speed_kmh / 3.6 * world.dt_s
    assert np.all(step <= v_max + 1e-9)
    # within one redraw period each node moves at constant speed
    first_block = step[0:9]
    assert np.allclose(first_block, first_block[0], atol=1e-9)


# Worlds for the stepping reference, 30 steps or more each: a redraw period of
# 10 steps, one of every step, one of 13 steps, a 50 m road that every vehicle
# laps several times, a 0.3 m road shorter than one step, so that % removes
# several laps at once, and a road near the float max whose unwrapped sums overflow.
STEPPING_WORLDS = [
    pytest.param(dict(duration_s=30.0), id="redraw-10-steps"),
    pytest.param(dict(duration_s=30.0, speed_redraw_period_s=0.1), id="redraw-every-step"),
    pytest.param(dict(duration_s=30.0, speed_redraw_period_s=1.3), id="redraw-13-steps"),
    pytest.param(dict(duration_s=30.0, length_m=50.0), id="many-wraps"),
    pytest.param(dict(duration_s=3.0, length_m=0.3, obu_range_m=100.0), id="road-shorter-than-a-step"),
    pytest.param(dict(duration_s=30.0, dt_s=1.0, length_m=1e308, max_speed_kmh=1.7e308, obu_range_m=1.7e308),
                 id="sums-overflow"),
]


@pytest.mark.parametrize("chunk_steps", [1, 7, 10**6], ids=["1-step", "7-steps", "one-chunk"])
@pytest.mark.parametrize("params", STEPPING_WORLDS)
def test_stepping_matches_the_per_step_loop(monkeypatch, params, chunk_steps):
    world = HighwayWorld(n_nodes=8, n_sources=1, seed=9, **params)
    monkeypatch.setattr(highway, "_CHUNK_ITEMS", chunk_steps * world.n_nodes)
    xs = run_highway_experiment(world).positions
    want = oracles.highway_xs(world)
    assert len(want) >= 30 and (np.diff(want, axis=0) < 0).any()  # some vehicle wraps
    assert xs.tobytes() == want.tobytes()


def test_highway_targets_are_nearest():
    world = _small_world(duration_s=2.0)
    res = run_highway_experiment(world)
    for k in range(res.times.size):
        xs = res.positions[k]
        ys = res.lane_y
        for s in range(world.n_sources):
            d = np.hypot(xs - xs[s], ys - ys[s])
            d[s] = np.inf
            j = int(res.target_idx[k, s])
            assert j != s
            assert res.distances[k, s] == pytest.approx(float(np.min(d)), rel=1e-12)
            assert res.distances[k, s] == pytest.approx(float(d[j]), rel=1e-12)


def test_highway_secrecy_matches_pair_form():
    world = _small_world(duration_s=1.0)
    res = run_highway_experiment(world)
    c = 10.0 ** (world.p_over_n0_db / 10.0)
    for k in (0, 5, 9):
        for s in range(world.n_sources):
            want = oracles.pair_secrecy(
                c, world.alpha, res.distances[k, s], world.eavesdropper_range_m
            )
            assert res.secrecy[k, s] == pytest.approx(want, rel=1e-11)


def test_link_secrecy_is_secrecy_bits_per_link_bit_for_bit():
    world = HighwayWorld(alpha=1.7, p_over_n0_db=65.0, eavesdropper_range_m=300.0)
    c = 10.0 ** (world.p_over_n0_db / 10.0)
    rng = np.random.default_rng(41)
    dists = np.concatenate([rng.uniform(0.1, 2500.0, 300), np.logspace(-80.0, 300.0, 60)]).reshape(40, 9)
    snr_eve = link_snr(c, world.eavesdropper_range_m, world.alpha)
    want = [secrecy_bits(link_snr(c, d, world.alpha), snr_eve) for d in dists.ravel().tolist()]
    assert highway._link_secrecy(world, dists).tobytes() == np.array(want).reshape(dists.shape).tobytes()


@pytest.mark.parametrize("d, message", [
    (0.0, "distance 0.0 m is too short: d**(-2*alpha) overflows"),
    (1e-200, "distance 1e-200 m is too short: d**(-2*alpha) overflows"),
    (1e-109, "distance 1e-109 m is too short: the SNR overflows"),
])
def test_link_secrecy_keeps_the_checked_refusal(d, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        highway._link_secrecy(HighwayWorld(), np.array([[3.0, d], [d, 4.0]]))


def test_highway_out_of_range_raises():
    world = _small_world(obu_range_m=0.001)
    with pytest.raises(ValueError):
        run_highway_experiment(world)


def test_highway_world_validation():
    with pytest.raises(ValueError):
        HighwayWorld(n_nodes=1)
    with pytest.raises(ValueError):
        HighwayWorld(n_sources=25)
    with pytest.raises(ValueError):
        HighwayWorld(dt_s=0.0)
    with pytest.raises(ValueError):
        HighwayWorld(lanes=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_nodes", 25.0),
        ("n_sources", 2.0),
        ("lanes", 6.0),
        ("seed", 0.0),
        ("n_nodes", True),
        ("length_m", math.nan),
        ("duration_s", math.inf),
        ("dt_s", math.nan),
        ("alpha", -math.inf),
        ("obu_range_m", math.nan),
        ("p_over_n0_db", math.inf),
        ("p_over_n0_db", 4000),
        ("p_over_n0_db", -4000.0),
        ("lane_width_m", "10"),
        ("length_m", 10**400),
        ("eavesdropper_range_m", 1e-300),  # the eavesdropper's SNR overflows
    ],
)
def test_highway_world_rejects_wrong_types_and_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        HighwayWorld(**{field: value})


@pytest.mark.parametrize("duration", [0.01, 0.05])
def test_highway_world_rejects_zero_step_runs(duration):
    with pytest.raises(ValueError, match="duration_s must cover at least one dt_s step"):
        HighwayWorld(duration_s=duration, dt_s=0.1)
    assert run_highway_experiment(HighwayWorld(duration_s=0.06, dt_s=0.1)).times.size == 1


def test_highway_world_refuses_positions_past_numpy_array_size():
    # The most nodes whose 1000 default steps of float64 positions numpy holds in one array.
    max_nodes = np.iinfo(np.intp).max // (1000 * 8)
    with pytest.raises(ValueError, match="array is too big"):
        np.empty((1000, max_nodes + 1))
    for n_nodes in (max_nodes + 1, 10**400):
        with pytest.raises(ValueError, match="^n_nodes positions over duration_s / dt_s steps do not fit"):
            HighwayWorld(n_nodes=n_nodes)
    assert HighwayWorld(n_nodes=max_nodes).n_nodes == max_nodes


def test_highway_world_rejects_overflowing_step_count():
    with pytest.raises(ValueError, match="duration_s / dt_s overflows"):
        HighwayWorld(duration_s=1e300, dt_s=1e-10)


@pytest.fixture(params=["scan", "lanes"])
def search(request, monkeypatch):
    """Run _nearest_links on one search path whatever the node count: the
    scan of every node, or the lane search."""
    monkeypatch.setattr(highway, "_SCAN_MAX_NODES", 10**9 if request.param == "scan" else 0)
    return request.param


def _chunk_items(search, rows, n_sources, n_nodes):
    """The _CHUNK_ITEMS that gives the search chunks of the given number of rows (steps)."""
    return rows * n_nodes * (n_sources if search == "scan" else 1)


@pytest.mark.parametrize("n_nodes, path", [(2, "_scan_links"), (highway._SCAN_MAX_NODES, "_scan_links"),
                                           (highway._SCAN_MAX_NODES + 1, "_lane_links"), (1000, "_lane_links")])
def test_nearest_links_choose_the_search_by_node_count(monkeypatch, n_nodes, path):
    calls = []
    for name in ("_scan_links", "_lane_links"):
        search_path = getattr(highway, name)
        monkeypatch.setattr(highway, name, lambda *args, name=name, f=search_path: calls.append(name) or f(*args))
    xs = np.random.default_rng(3).uniform(0.0, 2500.0, (2, n_nodes))
    _nearest_links(xs, np.full(n_nodes, 5.0), xs[:, :1], 2500.0)
    assert calls == [path]


def _oracle_links(xs, ys, queries, obu_range):
    """(target_idx, distances) from the brute-force oracle, pair by pair."""
    links = [
        [oracles.nearest_neighbour(row, ys, s, q, obu_range) for s, q in enumerate(q_row)]
        for row, q_row in zip(xs, queries)
    ]
    return np.array([[j for j, _ in r] for r in links]), np.array([[d for _, d in r] for r in links])


def _assert_same_links(xs, ys, queries, obu_range=2500.0):
    try:
        want = _oracle_links(xs, ys, queries, obu_range)
    except ValueError:
        with pytest.raises(ValueError, match="no node within radio range"):
            _nearest_links(xs, ys, queries, obu_range)
        return
    got = _nearest_links(xs, ys, queries, obu_range)
    assert np.array_equal(got[0], want[0])
    assert got[1].tobytes() == want[1].tobytes()


@st.composite
def _grid_worlds(draw):
    """A few steps of a small world with x on a coarse grid, so that
    equal x inside a lane and equal distances across lanes both occur."""
    n = draw(st.integers(2, 40))
    lanes = draw(st.integers(1, 8))
    n_steps = draw(st.integers(1, 3))
    step = draw(st.sampled_from([10.0, 50.0, 500.0]))
    cells = st.lists(st.integers(0, int(2500.0 // step) - 1), min_size=n, max_size=n)
    xs = step * np.array(draw(st.lists(cells, min_size=n_steps, max_size=n_steps)), dtype=float)
    lane_of = np.array(draw(st.lists(st.integers(0, lanes - 1), min_size=n, max_size=n)))
    n_sources = draw(st.integers(1, n - 1))
    delta = draw(st.sampled_from([0.0, 5.0, -5.0, 3000.0, -3000.0]))
    return xs, (lane_of + 0.5) * 10.0, xs[:, :n_sources] + delta


# The search fixture's patch holds for every example, so its function scope is harmless.
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_grid_worlds())
def test_nearest_links_match_brute_force(search, world):
    _assert_same_links(*world)


def test_nearest_links_zero_width_lanes_and_range(search):
    rng = np.random.default_rng(11)
    xs = 100.0 * rng.integers(0, 5, (4, 30)).astype(float)
    ys = np.zeros(30)  # every lane at the same y
    for delta in (0.0, 5.0, -5.0):
        _assert_same_links(xs, ys, xs[:, :7] + delta)
    with pytest.raises(ValueError, match="no node within radio range"):
        _nearest_links(xs + np.arange(30) * 1000.0, ys, xs[:, :7], 10.0)


@pytest.mark.parametrize("delta", [0.0, 5.0, -5.0])
def test_nearest_links_match_brute_force_at_fleet_scale(delta):
    rng = np.random.default_rng(21)
    xs = rng.uniform(0.0, 2500.0, (3, 1000))
    ys = (rng.integers(0, 6, 1000) + 0.5) * 10.0
    _assert_same_links(xs, ys, xs[:, :100] + delta)


def _has_equal_x_in_every_lane(xs, ys):
    return all((np.diff(np.sort(xs[:, ys == y], axis=1), axis=1) == 0).any() for y in np.unique(ys))


def test_nearest_links_match_brute_force_on_a_fleet_scale_grid():
    # 1000 nodes on a 10 m grid: every lane holds long runs of equal x
    rng = np.random.default_rng(22)
    xs = 10.0 * rng.integers(0, 250, (3, 1000)).astype(float)
    ys = (rng.integers(0, 6, 1000) + 0.5) * 10.0
    assert _has_equal_x_in_every_lane(xs, ys)
    for delta in (0.0, 5.0, -5.0):
        _assert_same_links(xs, ys, xs[:, :100] + delta)


@pytest.mark.parametrize("rows_per_chunk", [1, 4])
@pytest.mark.parametrize("grid", [False, True], ids=["uniform", "grid"])
def test_nearest_links_chunks_agree(monkeypatch, search, grid, rows_per_chunk):
    rng = np.random.default_rng(12)
    xs = rng.uniform(0.0, 2500.0, (23, 50))
    ys = (rng.integers(0, 6, 50) + 0.5) * 10.0
    if grid:
        xs = 100.0 * np.floor(xs / 100.0)
        assert _has_equal_x_in_every_lane(xs, ys)
    whole = _nearest_links(xs, ys, xs[:, :9] + 5.0, 2500.0)
    monkeypatch.setattr(highway, "_CHUNK_ITEMS", _chunk_items(search, rows_per_chunk, 9, 50))
    chunked = _nearest_links(xs, ys, xs[:, :9] + 5.0, 2500.0)
    assert np.array_equal(whole[0], chunked[0])
    assert whole[1].tobytes() == chunked[1].tobytes()


def test_nearest_links_search_every_lane_for_a_source_alone_in_its_lane(search):
    # Source 0 has no other node in its lane; its nearest node is five lanes away.
    xs = np.array([[1000.0, 0.0, 2000.0, 1000.0, 2500.0]])
    ys = np.array([5.0, 15.0, 25.0, 55.0, 35.0])
    _assert_same_links(xs, ys, xs[:, :1])
    assert _nearest_links(xs, ys, xs[:, :1], 2500.0)[0].tolist() == [[3]]


def test_nearest_links_keep_a_tie_at_the_lane_offset_with_a_lower_index(search):
    # The own-lane best (node 2, dx = 10) equals the next lane's |dy| exactly, and that
    # lane's node 1 sits at dx = 0: both are 10 m away and the lower index wins.
    xs = np.array([[100.0, 100.0, 110.0], [100.0, 100.0, 90.0]])
    ys = np.array([5.0, 15.0, 5.0])
    _assert_same_links(xs, ys, xs[:, :1])
    target, dist = _nearest_links(xs, ys, xs[:, :1], 2500.0)
    assert target.tolist() == [[1], [1]] and dist.tolist() == [[10.0], [10.0]]


@pytest.mark.parametrize("obu_range", [3.0, 9.9])
def test_nearest_links_with_a_range_below_the_lane_width(search, obu_range):
    # Nodes 2k and 2k + 1 share a lane and are 0.5 to 3 m apart, so every source has a
    # link in its own lane and none in another.
    rng = np.random.default_rng(31)
    ys = (np.repeat(rng.integers(0, 6, 50), 2) + 0.5) * 10.0
    xs = np.repeat(rng.uniform(0.0, 2500.0, (4, 50)), 2, axis=1)
    xs[:, 1::2] += rng.uniform(0.5, 3.0, (4, 50))
    _assert_same_links(xs, ys, xs[:, :40], obu_range)
    _assert_same_links(xs, ys, xs[:, :40] + 5.0, obu_range)


@pytest.mark.parametrize("rows_per_chunk", [1, 4])
def test_nearest_links_name_the_range_and_the_first_source_without_a_link(monkeypatch, search, rows_per_chunk):
    # Source 1 loses its only neighbour at step 2; source 0 keeps one throughout.
    xs = np.array([[0.0, 500.0, 1.0, 501.0]] * 4)
    xs[2:, 3] = 600.0
    ys = np.full(4, 5.0)
    monkeypatch.setattr(highway, "_CHUNK_ITEMS", _chunk_items(search, rows_per_chunk, 2, 4))
    message = "no node within radio range of the source: obu_range_m = 50.0 leaves source 1 without a link at step 2"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _nearest_links(xs, ys, xs[:, :2], 50.0)


def test_highway_no_link_refusal_names_the_range_key():
    doc = {"experiment": "highway_cluster", "params": {"obu_range_m": 0.001}}
    with pytest.raises(ValueError, match=r"^no node within radio range of the source: obu_range_m = 0\.001 "):
        build_table(build_config(doc))


# Signed extremes of the float range, subnormals to the largest finite floats.
_EXTREMES = [0.0, 5e-324, 1e-310, 1e-300, 1e-10, 0.5, 1.0, 3.0, 1e10, 1e300, 1.7e308]
_EXTREMES += [-v for v in _EXTREMES]
_ANY_FINITE = st.one_of(st.sampled_from(_EXTREMES), st.floats(allow_nan=False, allow_infinity=False))


def _hypot_at_least_lateral_offset(dx, dy):
    with np.errstate(over="ignore"):  # near the float max hypot is inf, still >= |dy|
        return (np.hypot(dx, dy) >= np.abs(dy)).all()


def test_hypot_is_at_least_the_lateral_offset_on_the_extremes():
    # The premise of the lane pruning in _nearest_links, on this host's libm.
    dx, dy = np.meshgrid(_EXTREMES, _EXTREMES)
    assert _hypot_at_least_lateral_offset(dx, dy)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(_ANY_FINITE, _ANY_FINITE), min_size=1, max_size=20))
def test_hypot_is_at_least_the_lateral_offset(pairs):
    dx, dy = np.array(pairs).T
    assert _hypot_at_least_lateral_offset(dx, dy)


@pytest.mark.parametrize("delta", [5.0, -5.0, 3000.0, -3000.0])
def test_engine_links_match_brute_force(search, delta):
    world = HighwayWorld(n_nodes=60, n_sources=12, lanes=4, duration_s=2.0, seed=5)
    base = run_highway_experiment(world)
    xs, ys = base.positions, base.lane_y
    want = _oracle_links(xs, ys, xs[:, :12], world.obu_range_m)
    assert np.array_equal(base.target_idx, want[0])
    assert base.distances.tobytes() == want[1].tobytes()
    try:
        want = _oracle_links(xs, ys, xs[:, :12] + delta, world.obu_range_m)
    except ValueError:
        with pytest.raises(ValueError, match="no node within radio range"):
            run_perturbation_study(world, delta, allow_custom_delta=True)
        return
    pert = run_perturbation_study(world, delta, allow_custom_delta=True)
    assert np.array_equal(pert.target_idx_pert, want[0])
    assert pert.distances_pert.tobytes() == want[1].tobytes()


def test_perturbation_delta_guard():
    world = _small_world(duration_s=1.0)
    with pytest.raises(ValueError):
        run_perturbation_study(world, delta_m=0.0)
    with pytest.raises(ValueError):
        run_perturbation_study(world, delta_m=3.0)
    res = run_perturbation_study(world, delta_m=3.0, allow_custom_delta=True)
    assert res.delta == 3.0
    res = run_perturbation_study(world, delta_m=-5.0)
    assert res.delta == -5.0


def test_perturbation_baseline_matches_plain_run():
    world = _small_world(duration_s=2.0)
    base = run_highway_experiment(world)
    pert = run_perturbation_study(world)
    assert np.array_equal(pert.distances_base, base.distances)
    assert np.array_equal(pert.secrecy_base, base.secrecy)
    assert np.array_equal(pert.target_idx_base, base.target_idx)


def test_perturbation_sign_relation_on_stable_targets():
    # shifting the source +delta moves it toward targets further than
    # delta/2 ahead and away from the rest; secrecy follows inversely
    world = _small_world(duration_s=5.0)
    res = run_perturbation_study(world)
    same = res.target_idx_base == res.target_idx_pert
    ahead = res.dx_base > res.delta / 2.0
    behind = res.dx_base < res.delta / 2.0
    closer = res.distances_pert < res.distances_base
    farther = res.distances_pert > res.distances_base
    assert np.all(closer[same & ahead])
    assert np.all(farther[same & behind])
    gain = res.secrecy_pert > res.secrecy_base
    loss = res.secrecy_pert < res.secrecy_base
    assert np.all(gain[same & ahead])
    assert np.all(loss[same & behind])


def test_perturbation_reselection_never_hurts_distance():
    # when the shifted source picks a different target it does so because
    # that target is now strictly nearer than the baseline one
    world = _small_world(duration_s=5.0)
    res = run_perturbation_study(world)
    changed = res.target_idx_base != res.target_idx_pert
    if np.any(changed):
        # recompute the pair distance to the baseline target from the
        # shifted position and compare
        base = run_highway_experiment(world)
        for k, s in zip(*np.nonzero(changed)):
            xs = base.positions[k]
            ys = base.lane_y
            jb = int(res.target_idx_base[k, s])
            d_to_old = math.hypot(xs[jb] - (xs[s] + res.delta), ys[jb] - ys[s])
            assert res.distances_pert[k, s] <= d_to_old + 1e-12


def test_perturbation_rows_shape():
    world = _small_world(duration_s=1.0)
    res = run_perturbation_study(world)
    rows = _link_table_rows("perturbation", world)
    assert len(rows) == res.times.size * world.n_sources
    assert len(rows[0]) == 9
