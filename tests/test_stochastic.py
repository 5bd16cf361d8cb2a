import numpy as np
import pytest

import oracles
from vscsim.channel import ChannelParams, FadingModel
from vscsim.stochastic import (
    COLLUDING,
    NON_COLLUDING,
    ErgodicConfig,
    PppField,
    Rect,
    average_secrecy,
    ergodic_secrecy_mc,
    poisson_pmf,
    ppp_secrecy,
    sample_field,
    square_region,
)
from vscsim.units import Point2D

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


def _field_at(dists):
    host = Point2D(0.0, 0.0)
    pts = tuple(Point2D(d, 0.0) for d in dists)
    return host, PppField(lam=6.0, ref_area_m2=1000.0, region=REGION, points=pts)


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
    field = PppField(lam=6.0, ref_area_m2=1000.0, region=REGION, points=())
    want = np.log2(1.0 + 1e7 * 10.0 ** (-2 * 1.4))
    got = ppp_secrecy(host, target, field, NON_COLLUDING, PARAMS)
    assert got == pytest.approx(float(want), rel=1e-12)


def test_ppp_secrecy_rejects_degenerate_geometry():
    host, field = _field_at([100.0])
    with pytest.raises(ValueError):
        ppp_secrecy(host, host, field, COLLUDING, PARAMS)
    bad_field = PppField(
        lam=6.0, ref_area_m2=1000.0, region=REGION, points=(Point2D(0.0, 0.0),)
    )
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
    empty = PppField(lam=6.0, ref_area_m2=1000.0, region=REGION, points=())
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


def test_ergodic_deterministic_per_seed():
    cfg = ErgodicConfig(mean_power_budget=100.0, sample_count=10_000, seed=21)
    a = ergodic_secrecy_mc(cfg, FadingModel.rayleigh(), FadingModel.nakagami(2.0))
    b = ergodic_secrecy_mc(cfg, FadingModel.rayleigh(), FadingModel.nakagami(2.0))
    assert a.value == b.value
    assert a.stderr == b.stderr


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
    field = PppField(lam=6.0, ref_area_m2=1000.0, region=REGION, points=(Point2D(1e-200, 0.0),))
    host, target = Point2D(0.0, 0.0), Point2D(10.0, 0.0)
    for mode in (COLLUDING, NON_COLLUDING):
        with pytest.raises(ValueError, match="distance 1e-200 m"):
            ppp_secrecy(host, target, field, mode, PARAMS)
    with pytest.raises(ValueError, match="distance 1e-200 m"):
        average_secrecy(host, target, field, PARAMS)
