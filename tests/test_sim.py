import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from vscsim import highway
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
from vscsim.units import Point2D

V35 = 35.0 / 3.6


def test_trajectory_interpolates_and_clamps():
    tr = Trajectory((Point2D(0.0, 0.0), Point2D(10.0, 0.0)), speed=2.0, speed_limit=5.0)
    assert tr.path_length == 10.0
    assert tr.position(0.0) == Point2D(0.0, 0.0)
    assert tr.position(2.5).x == pytest.approx(5.0)
    # path exhausted: hold the final waypoint
    assert tr.position(100.0) == Point2D(10.0, 0.0)
    with pytest.raises(ValueError):
        tr.position(-0.1)


def test_trajectory_respects_speed_limit():
    with pytest.raises(ValueError):
        Trajectory((Point2D(0.0, 0.0), Point2D(1.0, 0.0)), speed=6.0, speed_limit=5.0)


def test_trajectory_multi_segment():
    tr = Trajectory(
        (Point2D(0.0, 0.0), Point2D(3.0, 0.0), Point2D(3.0, 4.0)), speed=1.0, speed_limit=1.0
    )
    assert tr.path_length == 7.0
    p = tr.position(5.0)
    assert p.x == pytest.approx(3.0)
    assert p.y == pytest.approx(2.0)


def test_trajectory_repeated_waypoints_leave_positions_unchanged():
    a, b, c = Point2D(0.0, 0.0), Point2D(3.0, 0.0), Point2D(3.0, 4.0)
    plain = Trajectory((a, b, c), speed=1.3, speed_limit=2.0)
    times = [0.25 * k for k in range(30)] + [3.0 / 1.3, 7.0 / 1.3, 1e9]
    for pts in [(a, a, b, c), (a, b, b, c), (a, b, c, c), (a, a, b, b, b, c, c)]:
        repeated = Trajectory(pts, speed=1.3, speed_limit=2.0)
        assert repeated.path_length == plain.path_length
        assert [repeated.position(t) for t in times] == [plain.position(t) for t in times]
    still = Trajectory((b, b, b), speed=1.3, speed_limit=2.0)
    assert [still.position(t) for t in times] == [b] * len(times)


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
        run_intersection_case(1, dt=0.0)


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
    defaults = dict(duration=5.0, seed=3)
    defaults.update(kw)
    return HighwayWorld(**defaults)


def _link_table_rows(experiment, world):
    """Rows of the runner's table for a world with the default dt and the given duration and seed."""
    doc = {"experiment": experiment, "params": {"duration_s": world.duration}, "seed": world.seed}
    return build_table(build_config(doc)).rows


def test_highway_shapes_and_ids():
    world = _small_world()
    res = run_highway_experiment(world)
    n_steps = int(round(world.duration / world.dt))
    assert res.times.shape == (n_steps,)
    assert res.positions.shape == (n_steps, world.n_nodes, 2)
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
    xs = res.positions[:, :, 0]
    ys = res.positions[:, :, 1]
    assert np.all((xs >= 0.0) & (xs < world.length))
    centers = (np.arange(world.lanes) + 0.5) * world.lane_width
    assert set(np.unique(ys)).issubset(set(centers))


def test_highway_speed_bounds_and_redraw():
    world = _small_world()
    res = run_highway_experiment(world)
    xs = res.positions[:, :, 0]
    step = np.diff(xs, axis=0) % world.length
    v_max = world.max_speed_kmh / 3.6 * world.dt
    assert np.all(step <= v_max + 1e-9)
    # within one redraw period each node moves at constant speed
    first_block = step[0:9]
    assert np.allclose(first_block, first_block[0], atol=1e-9)


def test_highway_targets_are_nearest():
    world = _small_world(duration=2.0)
    res = run_highway_experiment(world)
    for k in range(res.times.size):
        xs = res.positions[k, :, 0]
        ys = res.positions[k, :, 1]
        for s in range(world.n_sources):
            d = np.hypot(xs - xs[s], ys - ys[s])
            d[s] = np.inf
            j = int(res.target_idx[k, s])
            assert j != s
            assert res.distances[k, s] == pytest.approx(float(np.min(d)), rel=1e-12)
            assert res.distances[k, s] == pytest.approx(float(d[j]), rel=1e-12)


def test_highway_secrecy_matches_pair_form():
    world = _small_world(duration=1.0)
    res = run_highway_experiment(world)
    c = 10.0 ** (world.p_over_n0_db / 10.0)
    for k in (0, 5, 9):
        for s in range(world.n_sources):
            want = oracles.pair_secrecy(
                c, world.alpha, res.distances[k, s], world.eavesdropper_range
            )
            assert res.secrecy[k, s] == pytest.approx(want, rel=1e-11)


def test_highway_out_of_range_raises():
    world = _small_world(obu_range=0.001)
    with pytest.raises(ValueError):
        run_highway_experiment(world)


def test_highway_world_validation():
    with pytest.raises(ValueError):
        HighwayWorld(n_nodes=1)
    with pytest.raises(ValueError):
        HighwayWorld(n_sources=25)
    with pytest.raises(ValueError):
        HighwayWorld(dt=0.0)
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
        ("length", math.nan),
        ("duration", math.inf),
        ("dt", math.nan),
        ("alpha", -math.inf),
        ("obu_range", math.nan),
        ("p_over_n0_db", math.inf),
        ("p_over_n0_db", 4000),
        ("p_over_n0_db", -4000.0),
        ("lane_width", "10"),
        ("length", 10**400),
    ],
)
def test_highway_world_rejects_wrong_types_and_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        HighwayWorld(**{field: value})


@pytest.mark.parametrize("duration", [0.01, 0.05])
def test_highway_world_rejects_zero_step_runs(duration):
    with pytest.raises(ValueError, match="duration must cover at least one dt step"):
        HighwayWorld(duration=duration, dt=0.1)
    assert run_highway_experiment(HighwayWorld(duration=0.06, dt=0.1)).times.size == 1


def test_highway_refuses_an_impossible_fleet_at_once():
    # numpy refuses the position arrays before any per-node Python work
    with pytest.raises(ValueError, match="Maximum allowed dimension exceeded"):
        run_highway_experiment(HighwayWorld(n_nodes=10**400))


def test_highway_world_rejects_overflowing_step_count():
    with pytest.raises(ValueError, match="duration / dt overflows"):
        HighwayWorld(duration=1e300, dt=1e-10)


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


@settings(max_examples=400, deadline=None)
@given(_grid_worlds())
def test_nearest_links_match_brute_force(world):
    _assert_same_links(*world)


def test_nearest_links_zero_width_lanes_and_range():
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
def test_nearest_links_chunks_agree(monkeypatch, grid, rows_per_chunk):
    rng = np.random.default_rng(12)
    xs = rng.uniform(0.0, 2500.0, (23, 50))
    ys = (rng.integers(0, 6, 50) + 0.5) * 10.0
    if grid:
        xs = 100.0 * np.floor(xs / 100.0)
        assert _has_equal_x_in_every_lane(xs, ys)
    whole = _nearest_links(xs, ys, xs[:, :9] + 5.0, 2500.0)
    monkeypatch.setattr(highway, "_SEARCH_NODE_STEPS", rows_per_chunk * 50)
    chunked = _nearest_links(xs, ys, xs[:, :9] + 5.0, 2500.0)
    assert np.array_equal(whole[0], chunked[0])
    assert whole[1].tobytes() == chunked[1].tobytes()


@pytest.mark.parametrize("delta", [5.0, -5.0, 3000.0, -3000.0])
def test_engine_links_match_brute_force(delta):
    world = HighwayWorld(n_nodes=60, n_sources=12, lanes=4, duration=2.0, seed=5)
    base = run_highway_experiment(world)
    xs, ys = base.positions[:, :, 0], base.positions[0, :, 1]
    want = _oracle_links(xs, ys, xs[:, :12], world.obu_range)
    assert np.array_equal(base.target_idx, want[0])
    assert base.distances.tobytes() == want[1].tobytes()
    try:
        want = _oracle_links(xs, ys, xs[:, :12] + delta, world.obu_range)
    except ValueError:
        with pytest.raises(ValueError, match="no node within radio range"):
            run_perturbation_study(world, delta, allow_custom_delta=True)
        return
    pert = run_perturbation_study(world, delta, allow_custom_delta=True)
    assert np.array_equal(pert.target_idx_pert, want[0])
    assert pert.distances_pert.tobytes() == want[1].tobytes()


def test_perturbation_delta_guard():
    world = _small_world(duration=1.0)
    with pytest.raises(ValueError):
        run_perturbation_study(world, delta=0.0)
    with pytest.raises(ValueError):
        run_perturbation_study(world, delta=3.0)
    res = run_perturbation_study(world, delta=3.0, allow_custom_delta=True)
    assert res.delta == 3.0
    res = run_perturbation_study(world, delta=-5.0)
    assert res.delta == -5.0


def test_perturbation_baseline_matches_plain_run():
    world = _small_world(duration=2.0)
    base = run_highway_experiment(world)
    pert = run_perturbation_study(world)
    assert np.array_equal(pert.distances_base, base.distances)
    assert np.array_equal(pert.secrecy_base, base.secrecy)
    assert np.array_equal(pert.target_idx_base, base.target_idx)


def test_perturbation_sign_relation_on_stable_targets():
    # shifting the source +delta moves it toward targets further than
    # delta/2 ahead and away from the rest; secrecy follows inversely
    world = _small_world(duration=5.0)
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
    world = _small_world(duration=5.0)
    res = run_perturbation_study(world)
    changed = res.target_idx_base != res.target_idx_pert
    if np.any(changed):
        # recompute the pair distance to the baseline target from the
        # shifted position and compare
        base = run_highway_experiment(world)
        for k, s in zip(*np.nonzero(changed)):
            xs = base.positions[k, :, 0]
            ys = base.positions[k, :, 1]
            jb = int(res.target_idx_base[k, s])
            d_to_old = math.hypot(xs[jb] - (xs[s] + res.delta), ys[jb] - ys[s])
            assert res.distances_pert[k, s] <= d_to_old + 1e-12


def test_perturbation_rows_shape():
    world = _small_world(duration=1.0)
    res = run_perturbation_study(world)
    rows = _link_table_rows("perturbation", world)
    assert len(rows) == res.times.size * world.n_sources
    assert len(rows[0]) == 9
