import re
import tracemalloc

import numpy as np
import pytest

import oracles
from vscsim.channel import ChannelParams, FadingModel
from vscsim.stochastic import (
    COLLUDING,
    NON_COLLUDING,
    _MC_BLOCK,
    ErgodicConfig,
    ErgodicEstimate,
    PppField,
    Rect,
    average_secrecy,
    ergodic_secrecy_mc,
    expected_count,
    poisson_pmf,
    ppp_secrecy,
    sample_field,
    square_region,
)
from vscsim.units import Point2D, distance

PARAMS = ChannelParams.from_db(70.0, alpha=1.4)
REGION = square_region(Point2D(0.0, 0.0), 1_000_000.0)


def test_poisson_pmf_reference_values():
    assert poisson_pmf(0, 6.0) == pytest.approx(0.0024787521766663585, rel=1e-13)
    assert poisson_pmf(3, 6.0) == pytest.approx(0.08923507835998891, rel=1e-13)
    assert poisson_pmf(0, 0.0) == 1.0
    assert poisson_pmf(5, 0.0) == 0.0


def test_poisson_pmf_against_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    for lam in (0.5, 3.0, 6.0, 40.0):
        for n in range(0, 30):
            assert poisson_pmf(n, lam) == pytest.approx(
                float(scipy_stats.poisson.pmf(n, lam)), rel=1e-10, abs=1e-300
            )


def test_poisson_pmf_sums_to_one():
    total = sum(poisson_pmf(n, 6.0) for n in range(60))
    assert total == pytest.approx(1.0, rel=1e-12)


def test_poisson_pmf_against_oracle():
    for n in (0, 1, 7, 19):
        assert poisson_pmf(n, 6.0) == pytest.approx(oracles.poisson_pmf(n, 6.0), rel=1e-12)


@pytest.mark.parametrize("lam", [10.0, 1e3, 1e6, 1e9, 1e12, 1e14, 1e16, 1e100, 1e300, 1e306])
def test_poisson_pmf_large_lam_against_oracle(lam):
    # n * log(lam), lam and log(n!) are each far larger than their difference
    for n in (int(lam), int(lam - 3 * lam**0.5), int(lam + 3 * lam**0.5)):
        assert poisson_pmf(n, lam) == pytest.approx(oracles.poisson_pmf(n, lam), rel=1e-10)


@pytest.mark.parametrize(
    "n, lam",
    [
        (int(1e306), 1e306),  # log(n!) overflows
        (int(1.7e308), 1.7e308),  # 2 pi n overflows
        (10**306, 1.0),  # the mass underflows to 0
        (1, 1e-310),  # n / lam overflows; the mass is subnormal
        (2, 1e-310),
    ],
)
def test_poisson_pmf_at_the_ends_of_the_float_range(n, lam):
    assert poisson_pmf(n, lam) == pytest.approx(oracles.poisson_pmf(n, lam), rel=1e-10)


def test_square_region():
    r = square_region(Point2D(10.0, -5.0), 400.0)
    assert isinstance(r, Rect)
    assert r.area == pytest.approx(400.0)
    assert r.x_min == 0.0 and r.x_max == 20.0
    assert r.y_min == -15.0 and r.y_max == 5.0


def test_sample_field_count_statistics():
    # density is per reference area, so a 1000 m^2 patch at lam=6 averages 6 points
    lam, trials = 6.0, 400
    region = Rect(0.0, 0.0, 100.0, 10.0)
    counts = [len(sample_field(lam, region, seed=s)) for s in range(trials)]
    mean = float(np.mean(counts))
    # 4 sigma band around lam
    assert abs(mean - lam) < 4.0 * np.sqrt(lam / trials)


def test_sample_field_scales_with_area():
    lam = 2.0
    big = Rect(0.0, 0.0, 200.0, 10.0)
    counts = [len(sample_field(lam, big, seed=s)) for s in range(300)]
    assert abs(float(np.mean(counts)) - 4.0) < 4.0 * np.sqrt(4.0 / 300)


def test_sample_field_positions_inside_region():
    region = Rect(-50.0, 20.0, 75.0, 60.0)
    field = sample_field(30.0, region, seed=3)
    assert len(field) > 0
    for p in field.points:
        assert region.x_min <= p.x <= region.x_max
        assert region.y_min <= p.y <= region.y_max


def test_sample_field_deterministic():
    a = sample_field(6.0, REGION, seed=7)
    b = sample_field(6.0, REGION, seed=7)
    assert [(p.x, p.y) for p in a.points] == [(p.x, p.y) for p in b.points]


# Hosts inside the 1000 m square REGION, on its edge and far outside it.
HOSTS = [Point2D(0.0, 0.0), Point2D(123.456, -78.9), Point2D(-499.99, 500.0), Point2D(-3e3, 2.5e3)]


def _reference_distances(host, field):
    return np.array([distance(host, p) for p in field.points])


@pytest.mark.parametrize("seed", [0, 3, 11, 12345])
def test_field_distances_match_point_distance_bit_for_bit(seed):
    field = sample_field(6.0, REGION, seed=seed)
    for host in HOSTS:
        assert field.distances(host).tobytes() == _reference_distances(host, field).tobytes()


def test_field_distances_follow_the_host():
    field = sample_field(6.0, REGION, seed=5)
    a, b = HOSTS[1], HOSTS[3]
    first_a, got_b, again_a = field.distances(a), field.distances(b), field.distances(a)
    assert first_a.tobytes() == again_a.tobytes() == _reference_distances(a, field).tobytes()
    assert got_b.tobytes() == _reference_distances(b, field).tobytes()
    assert field.distances(a) is again_a


def test_field_arrays_are_read_only():
    given = np.array([[3.0, 4.0], [6.0, 8.0]])
    field = PppField(lam=6.0, ref_area_m2=1000.0, region=REGION, xy=given)
    dists = field.distances(Point2D(0.0, 0.0))
    assert dists.tolist() == [5.0, 10.0]
    for array in (field.xy, dists):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    given[0, 0] = 1.0  # the field holds its own copy
    assert field.xy[0, 0] == 3.0


@pytest.mark.parametrize(
    "lam, region",
    [(6.0, REGION), (1e-4, Rect(-1e308, 0.0, 7e307, 1e-300)), (1e-4, Rect(0.0, -1e308, 1e-300, 7e307))],
    ids=["square", "widest-x", "widest-y"],
)
def test_sampled_field_is_finite_and_read_only(lam, region):
    # sample_field keeps its draw without PppField's copy and re-check; a side of 1.7e308 m is
    # the widest a Rect takes.
    field = sample_field(lam, region, seed=2)
    assert len(field) > 0 and np.isfinite(field.xy).all()
    with pytest.raises(ValueError, match="read-only"):
        field.xy[0] = 1.0
    assert field.distances(Point2D(0.0, 0.0)).tobytes() == _reference_distances(Point2D(0.0, 0.0), field).tobytes()


@pytest.mark.parametrize(
    "xy",
    [[(np.nan, 0.0)], [(0.0, np.inf)], [(1.0, 2.0), (-np.inf, 0.0)],
     [(1.0, 2.0, 3.0)], [1.0, 2.0], np.zeros((2, 3))],
)
def test_field_rejects_bad_coordinates(xy):
    with pytest.raises(ValueError, match="finite|shape"):
        PppField(lam=6.0, ref_area_m2=1000.0, region=REGION, xy=xy)


def test_field_equality_is_identity():
    a, b = sample_field(6.0, REGION, seed=7), sample_field(6.0, REGION, seed=7)
    assert a == a
    assert a != b
    assert a.xy.tobytes() == b.xy.tobytes()


def _field_at(dists):
    host = Point2D(0.0, 0.0)
    return host, PppField(lam=6.0, ref_area_m2=1000.0, region=REGION, xy=[(d, 0.0) for d in dists])


def test_ppp_secrecy_single_eavesdropper_matches_pair_form():
    host, field = _field_at([500.0])
    target = Point2D(10.0, 0.0)
    want = oracles.pair_secrecy(1e7, 1.4, 10.0, 500.0)
    for mode in (COLLUDING, NON_COLLUDING):
        assert ppp_secrecy(host, target, field, mode, PARAMS) == pytest.approx(want, rel=1e-11)


def test_ppp_secrecy_colluding_never_exceeds_non_colluding():
    rng = np.random.default_rng(13)
    for seed in range(40):
        field = sample_field(6.0, REGION, seed=seed)
        if len(field) == 0:
            continue
        host = Point2D(float(rng.uniform(100, 900)), float(rng.uniform(100, 900)))
        target = Point2D(host.x + 25.0, host.y)
        c = ppp_secrecy(host, target, field, COLLUDING, PARAMS)
        n = ppp_secrecy(host, target, field, NON_COLLUDING, PARAMS)
        assert c <= n + 1e-12


def test_ppp_secrecy_non_colluding_binds_to_nearest():
    # max wiretap SNR is the nearest eavesdropper under pure path loss
    host, field = _field_at([120.0, 60.0, 300.0])
    target = Point2D(10.0, 0.0)
    want = oracles.pair_secrecy(1e7, 1.4, 10.0, 60.0)
    assert ppp_secrecy(host, target, field, NON_COLLUDING, PARAMS) == pytest.approx(
        want, rel=1e-11
    )


def test_ppp_secrecy_empty_field_gives_full_capacity():
    host = Point2D(0.0, 0.0)
    target = Point2D(10.0, 0.0)
    field = PppField(lam=6.0, ref_area_m2=1000.0, region=REGION, xy=())
    want = np.log2(1.0 + 1e7 * 10.0 ** (-2 * 1.4))
    got = ppp_secrecy(host, target, field, NON_COLLUDING, PARAMS)
    assert got == pytest.approx(float(want), rel=1e-12)


def test_ppp_secrecy_rejects_degenerate_geometry():
    host, field = _field_at([100.0])
    with pytest.raises(ValueError):
        ppp_secrecy(host, host, field, COLLUDING, PARAMS)
    bad_field = PppField(lam=6.0, ref_area_m2=1000.0, region=REGION, xy=[(0.0, 0.0)])
    with pytest.raises(ValueError):
        ppp_secrecy(host, Point2D(10.0, 0.0), bad_field, COLLUDING, PARAMS)


def test_ppp_secrecy_rejects_unknown_mode():
    host, field = _field_at([100.0])
    with pytest.raises(ValueError):
        ppp_secrecy(host, Point2D(10.0, 0.0), field, "friendly", PARAMS)


def test_average_secrecy_bounds():
    # mean over per-eavesdropper terms sits between the worst (nearest)
    # and best (farthest) pair terms
    host, field = _field_at([60.0, 120.0, 300.0])
    target = Point2D(10.0, 0.0)
    avg = average_secrecy(host, target, field, PARAMS)
    worst = ppp_secrecy(host, target, field, NON_COLLUDING, PARAMS)
    best = oracles.pair_secrecy(1e7, 1.4, 10.0, 300.0)
    assert worst <= avg <= best
    empty = PppField(lam=6.0, ref_area_m2=1000.0, region=REGION, xy=())
    with pytest.raises(ValueError):
        average_secrecy(host, target, empty, PARAMS)


def test_ergodic_estimate_positive_under_advantage_policy():
    cfg = ErgodicConfig(mean_power_budget=100.0, sample_count=40_000, seed=5)
    est = ergodic_secrecy_mc(cfg, FadingModel.rayleigh(), FadingModel.rayleigh())
    assert est.value > 0.0
    assert est.stderr > 0.0
    assert est.sample_count == 40_000
    assert 0 < est.in_set_count < est.sample_count
    assert not est.empty_set


def test_ergodic_on_off_policy_averages_over_all_samples():
    # silence outside the advantage set drags the mean below the
    # conditional mean over transmitting samples
    cfg = ErgodicConfig(mean_power_budget=100.0, sample_count=40_000, seed=6)
    est = ergodic_secrecy_mc(cfg, FadingModel.rayleigh(), FadingModel.rayleigh())
    conditional = est.value * est.sample_count / est.in_set_count
    assert est.value < conditional


def test_ergodic_grows_with_budget():
    values = []
    for budget in (1.0, 10.0, 100.0):
        cfg = ErgodicConfig(mean_power_budget=budget, sample_count=60_000, seed=9)
        values.append(ergodic_secrecy_mc(cfg, FadingModel.rayleigh(), FadingModel.rayleigh()).value)
    assert values[0] < values[1] < values[2]


def test_ergodic_asymmetric_noise_shifts_estimate():
    quiet = ErgodicConfig(
        mean_power_budget=50.0, sigma_b_sq=1.0, sigma_e_sq=4.0, sample_count=60_000, seed=4
    )
    loud = ErgodicConfig(
        mean_power_budget=50.0, sigma_b_sq=4.0, sigma_e_sq=1.0, sample_count=60_000, seed=4
    )
    a = ergodic_secrecy_mc(quiet, FadingModel.rayleigh(), FadingModel.rayleigh()).value
    b = ergodic_secrecy_mc(loud, FadingModel.rayleigh(), FadingModel.rayleigh()).value
    assert a > b


def test_ergodic_restriction_flag():
    cfg = ErgodicConfig(mean_power_budget=100.0, sample_count=40_000, seed=11)
    gated = ergodic_secrecy_mc(cfg, FadingModel.rayleigh(), FadingModel.rayleigh())
    ungated = ergodic_secrecy_mc(
        cfg, FadingModel.rayleigh(), FadingModel.rayleigh(), restrict_to_advantage=False
    )
    # always-on transmission wastes power on disadvantaged states; with
    # symmetric fading the ungated mean collapses toward zero
    assert ungated.in_set_count == gated.in_set_count
    assert gated.value > ungated.value
    assert abs(ungated.value) < 0.1


def test_ergodic_empty_advantage_set():
    # degenerate deterministic channels with no advantage anywhere
    cfg = ErgodicConfig(
        mean_power_budget=10.0, sigma_b_sq=100.0, sigma_e_sq=1.0, sample_count=500, seed=2
    )
    est = ergodic_secrecy_mc(cfg, FadingModel.path_loss_only(), FadingModel.path_loss_only())
    assert est.empty_set
    assert est.value == 0.0
    assert est.in_set_count == 0


@pytest.mark.parametrize("on_off", [True, False])
@pytest.mark.parametrize("power, sigma_b_sq, sigma_e_sq", [(10.0, 1.0, 1.0), (100.0, 1.0, 4.0), (1000.0, 2.0, 0.5)])
def test_ergodic_rayleigh_matches_closed_form(power, sigma_b_sq, sigma_e_sq, on_off):
    cfg = ErgodicConfig(power, sigma_b_sq, sigma_e_sq, sample_count=10**6, seed=3)
    est = ergodic_secrecy_mc(cfg, FadingModel.rayleigh(), FadingModel.rayleigh(), restrict_to_advantage=on_off)
    want = oracles.ergodic_secrecy_rayleigh(power, sigma_b_sq, sigma_e_sq, on_off)
    assert abs(est.value - want) < 4 * est.stderr


@pytest.mark.parametrize("on_off", [True, False])
@pytest.mark.parametrize(
    "legit, wiretap, kind, shape",
    [
        (FadingModel.rician(5.0), FadingModel.rayleigh(), "rician", 5.0),
        (FadingModel.rician(1.5), FadingModel.rayleigh(), "rician", 1.5),
        (FadingModel.nakagami(2.5), FadingModel.nakagami(1.0), "nakagami", 2.5),
        (FadingModel.nakagami(0.7), FadingModel.nakagami(1.0), "nakagami", 0.7),
    ],
    ids=["rician5", "rician1.5", "nakagami2.5", "nakagami0.7"],
)
@pytest.mark.parametrize("power, sigma_b_sq, sigma_e_sq", [(100.0, 1.0, 1.0), (1000.0, 2.0, 0.5)])
def test_ergodic_rician_and_nakagami_match_the_integral(legit, wiretap, kind, shape, power, sigma_b_sq, sigma_e_sq,
                                                        on_off):
    cfg = ErgodicConfig(power, sigma_b_sq, sigma_e_sq, sample_count=10**6, seed=3)
    est = ergodic_secrecy_mc(cfg, legit, wiretap, restrict_to_advantage=on_off)
    want = oracles.ergodic_secrecy_exp_wiretap(kind, shape, power, sigma_b_sq, sigma_e_sq, on_off)
    assert abs(est.value - want) < 4 * est.stderr


@pytest.mark.parametrize("on_off", [True, False])
@pytest.mark.parametrize("power, sigma_b_sq, sigma_e_sq", [(10.0, 1.0, 1.0), (100.0, 1.0, 4.0), (1000.0, 2.0, 0.5)])
def test_fading_integral_at_nakagami_1_is_the_rayleigh_closed_form(power, sigma_b_sq, sigma_e_sq, on_off):
    got = oracles.ergodic_secrecy_exp_wiretap("nakagami", 1.0, power, sigma_b_sq, sigma_e_sq, on_off)
    assert got == pytest.approx(oracles.ergodic_secrecy_rayleigh(power, sigma_b_sq, sigma_e_sq, on_off), abs=1e-12)


def test_ergodic_deterministic_per_seed():
    cfg = ErgodicConfig(mean_power_budget=100.0, sample_count=10_000, seed=21)
    a = ergodic_secrecy_mc(cfg, FadingModel.rayleigh(), FadingModel.nakagami(2.0))
    b = ergodic_secrecy_mc(cfg, FadingModel.rayleigh(), FadingModel.nakagami(2.0))
    assert a.value == b.value
    assert a.stderr == b.stderr


FADING_MODELS = [FadingModel.path_loss_only(), FadingModel.rayleigh(), FadingModel.rician(3.0),
                 FadingModel.nakagami(2.5)]


# One block, then counts that end one short of a block edge, one past it, and inside a fourth block.
@pytest.mark.parametrize("n", [1, 2, 4097, _MC_BLOCK - 1, _MC_BLOCK + 1, 3 * _MC_BLOCK + 7])
@pytest.mark.parametrize("on_off", [True, False])
@pytest.mark.parametrize("sigma_b_sq, sigma_e_sq", [(1.0, 1.0), (0.5, 3.0)])
@pytest.mark.parametrize("wiretap", FADING_MODELS, ids=lambda model: model.kind)
@pytest.mark.parametrize("legit", FADING_MODELS, ids=lambda model: model.kind)
def test_ergodic_in_place_kernel_matches_the_out_of_place_reference(legit, wiretap, sigma_b_sq, sigma_e_sq,
                                                                     on_off, n):
    cfg = ErgodicConfig(30.0, sigma_b_sq, sigma_e_sq, sample_count=n, seed=13)
    want = oracles.ergodic_secrecy_mc(30.0, sigma_b_sq, sigma_e_sq, n, 13, legit, wiretap, on_off)
    assert ergodic_secrecy_mc(cfg, legit, wiretap, on_off) == ErgodicEstimate(*want)


@pytest.mark.parametrize("on_off", [True, False])
@pytest.mark.parametrize("model", FADING_MODELS, ids=lambda model: model.kind)
def test_ergodic_peak_memory_is_two_sample_arrays_and_one_block_of_scratch(model, on_off):
    # The terms overwrite the legitimate gains, and the walk's scratch is a block each of the mask,
    # the two SNRs and their two capacities; a Rician draw holds its real and imaginary parts at
    # once, a third array.  sigma_b_sq 0.5 keeps path_loss_only's advantage set full, so every
    # step runs.  Measured at n = 200 000: 2.34 sample arrays, 3.00 for Rician, and 0.44 more on
    # a process's first call, which the small estimate pays first.
    n = 200_000
    cfg = ErgodicConfig(30.0, sigma_b_sq=0.5, sample_count=n, seed=3)
    ergodic_secrecy_mc(ErgodicConfig(30.0, sigma_b_sq=0.5, sample_count=1000, seed=3), model, model, on_off)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ergodic_secrecy_mc(cfg, model, model, on_off)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    arrays = 3 if model.kind == "rician" else 2
    assert peak <= arrays * 8 * n + (1 + 4 * 8) * _MC_BLOCK + 2**16


@pytest.mark.parametrize(
    "cfg",
    [ErgodicConfig(1e308, sample_count=1000, seed=1), ErgodicConfig(1.0, sigma_b_sq=1e-320, sample_count=1000, seed=1),
     ErgodicConfig(1e308, sigma_b_sq=1e-300, sample_count=1, seed=1)],
    ids=["power", "sigma_b_sq", "one-sample"],
)
@pytest.mark.parametrize("on_off", [True, False])
def test_ergodic_refuses_an_snr_that_overflows(cfg, on_off):
    with pytest.raises(ValueError, match=r"mean_power_budget=.*sigma_b_sq=.*sigma_e_sq="):
        ergodic_secrecy_mc(cfg, FadingModel.rayleigh(), FadingModel.rayleigh(), on_off)


def test_ergodic_keeps_a_large_snr_that_does_not_overflow():
    est = ergodic_secrecy_mc(ErgodicConfig(1e300, sample_count=1000, seed=1), FadingModel.rayleigh(),
                             FadingModel.rayleigh())
    assert np.isfinite([est.value, est.stderr]).all()


@pytest.mark.parametrize("lam", [0.0, 6.0, 1e3])
@pytest.mark.parametrize("seed", [0, 7])
def test_sample_field_positions_match_the_stacked_reference(lam, seed):
    field = sample_field(lam, REGION, seed)
    want = oracles.field_xy(lam * REGION.area / 1000.0, REGION.x_min, REGION.y_min, REGION.x_max, REGION.y_max, seed)
    assert field.xy.shape == want.shape
    assert field.xy.tobytes() == want.tobytes()


def test_expected_count_refuses_exactly_the_means_numpy_cannot_draw():
    # numpy's Generator.poisson draws from a mean up to its POISSON_LAM_MAX, about 9.2e18
    unit, limit = Rect(0.0, 0.0, 1.0, 1.0), 9.223372006484771e18
    np.random.default_rng(0).poisson(limit)
    assert expected_count(limit, unit, 1.0) == limit
    for lam in (float(np.nextafter(limit, np.inf)), 1e300):
        with pytest.raises(ValueError, match="lam value too large"):
            np.random.default_rng(0).poisson(lam)
        with pytest.raises(ValueError, match=re.escape(f"lam gives {lam!r} expected points, too many to draw")):
            expected_count(lam, unit, 1.0)


def test_target_too_close_raises_value_error():
    field = sample_field(6.0, square_region(Point2D(0.0, 0.0), 1000.0), seed=3)
    # at 1e-109 m, d**(-2*alpha) is finite but the SNR overflows
    for d in (1e-200, 1e-109):
        host, target = Point2D(0.0, 0.0), Point2D(d, 0.0)
        for mode in (COLLUDING, NON_COLLUDING):
            with pytest.raises(ValueError, match=f"distance {d!r} m"):
                ppp_secrecy(host, target, field, mode, PARAMS)
        with pytest.raises(ValueError, match=f"distance {d!r} m"):
            average_secrecy(host, target, field, PARAMS)


def test_eavesdropper_too_close_raises_value_error():
    # d**(-2*alpha) overflows on the array path too: no -inf secrecy
    field = PppField(lam=6.0, ref_area_m2=1000.0, region=REGION, xy=[(1e-200, 0.0)])
    host, target = Point2D(0.0, 0.0), Point2D(10.0, 0.0)
    for mode in (COLLUDING, NON_COLLUDING):
        with pytest.raises(ValueError, match="distance 1e-200 m"):
            ppp_secrecy(host, target, field, mode, PARAMS)
    with pytest.raises(ValueError, match="distance 1e-200 m"):
        average_secrecy(host, target, field, PARAMS)
