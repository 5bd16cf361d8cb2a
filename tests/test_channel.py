import math
import re

import numpy as np
import pytest

import oracles
from vscsim.channel import (
    DEFAULT_ALPHA,
    DEFAULT_P_OVER_N0_DB,
    ChannelParams,
    FadingModel,
    capacity_bits,
    clamped,
    fading_secrecy_pair,
    gaussian_wiretap_secrecy,
    link_capacities,
    link_snr,
    path_loss_coeff_sq,
    sample_fading,
    secrecy_bits,
    shannon_capacity,
)

SNRS = 10.0 ** np.random.default_rng(11).uniform(-12.0, 12.0, 4000)
DISTANCES = 10.0 ** np.random.default_rng(12).uniform(-3.0, 4.0, 4000)


def test_defaults():
    assert DEFAULT_ALPHA == 1.4
    assert DEFAULT_P_OVER_N0_DB == 70.0
    p = ChannelParams.from_db(DEFAULT_P_OVER_N0_DB, DEFAULT_ALPHA)
    assert p.p_over_n0 == pytest.approx(1e7, rel=1e-12)
    assert p.alpha == 1.4


def test_shannon_capacity_known_points():
    assert shannon_capacity(1.0, 1.0) == 1.0
    assert shannon_capacity(1.0, 3.0) == 2.0
    assert shannon_capacity(1.0, 0.0) == 0.0
    assert shannon_capacity(2.0, 3.0) == 4.0


def test_shannon_capacity_rejects_bad_args():
    with pytest.raises(ValueError):
        shannon_capacity(1.0, -0.1)
    with pytest.raises(ValueError):
        shannon_capacity(0.0, 1.0)


def test_wiretap_half_factor():
    # Gaussian wiretap rate carries the 1/2 prefactor per real dimension
    assert gaussian_wiretap_secrecy(3.0, 1.0, 3.0) == pytest.approx(0.5, rel=1e-14)
    assert gaussian_wiretap_secrecy(15.0, 1.0, 5.0) == pytest.approx(1.0, rel=1e-14)


def test_wiretap_can_be_negative():
    assert gaussian_wiretap_secrecy(3.0, 3.0, 1.0) == pytest.approx(-0.5, rel=1e-14)
    assert clamped(gaussian_wiretap_secrecy(3.0, 3.0, 1.0)) == 0.0
    assert clamped(0.7) == 0.7
    with pytest.raises(ValueError):
        gaussian_wiretap_secrecy(0.0, 1.0, 1.0)


def test_path_loss_exponent_convention():
    # squared magnitude decays as d^(-2 alpha)
    assert path_loss_coeff_sq(1.0, 1.4) == 1.0
    assert path_loss_coeff_sq(10.0, 1.0) == pytest.approx(1e-2, rel=1e-13)
    assert path_loss_coeff_sq(4.444, 1.4) == pytest.approx(0.01535439324553846, rel=1e-13)
    with pytest.raises(ValueError):
        path_loss_coeff_sq(0.0, 1.4)


def _pair_at(params, d1, d2):
    return fading_secrecy_pair(
        params,
        path_loss_coeff_sq(d1, params.alpha),
        path_loss_coeff_sq(d2, params.alpha),
    )


def test_pair_secrecy_against_oracle():
    params = ChannelParams.from_db(70.0, 1.4)
    got = _pair_at(params, 4.444, 1000.0)
    assert got == pytest.approx(17.171980443434386, rel=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(50):
        alpha = float(rng.uniform(1.0, 4.0))
        pn0 = float(rng.uniform(30.0, 80.0))
        d1 = float(rng.uniform(0.5, 50.0))
        d2 = float(rng.uniform(50.0, 2000.0))
        p = ChannelParams.from_db(pn0, alpha)
        want = oracles.pair_secrecy(p.p_over_n0, alpha, d1, d2)
        assert _pair_at(p, d1, d2) == pytest.approx(want, rel=1e-11)


def test_pair_secrecy_sign_tracks_distance_order():
    params = ChannelParams.from_db(55.0, 2.0)
    assert _pair_at(params, 10.0, 100.0) > 0.0
    assert _pair_at(params, 100.0, 10.0) < 0.0
    assert _pair_at(params, 25.0, 25.0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        fading_secrecy_pair(params, -0.1, 1.0)


def test_bandwidth_scales_capacity_linearly():
    assert shannon_capacity(5.0, 3.0) == pytest.approx(5.0 * shannon_capacity(1.0, 3.0))


def test_fading_model_validation():
    with pytest.raises(ValueError):
        FadingModel("lognormal")
    with pytest.raises(ValueError):
        FadingModel.rician(-1.0)
    with pytest.raises(ValueError):
        FadingModel.nakagami(0.25)


def test_fading_unit_mean_power():
    # all supported fading laws are normalized to E[|h|^2] = 1
    n = 200_000
    for model in (
        FadingModel.path_loss_only(),
        FadingModel.rayleigh(),
        FadingModel.rician(4.0),
        FadingModel.nakagami(3.0),
    ):
        draws = sample_fading(model, seed=17, size=n)
        assert draws.shape == (n,)
        assert float(draws.min()) >= 0.0
        assert float(np.mean(draws)) == pytest.approx(1.0, abs=0.02)


def test_path_loss_only_is_degenerate():
    draws = sample_fading(FadingModel.path_loss_only(), seed=0, size=64)
    assert np.all(draws == 1.0)
    assert sample_fading(FadingModel.path_loss_only(), seed=0) == 1.0


def test_rayleigh_is_exponential():
    scipy_stats = pytest.importorskip("scipy.stats")
    draws = sample_fading(FadingModel.rayleigh(), seed=23, size=50_000)
    stat = scipy_stats.kstest(draws, "expon").statistic
    assert stat < 0.01


def test_rician_k0_matches_rayleigh():
    scipy_stats = pytest.importorskip("scipy.stats")
    a = sample_fading(FadingModel.rician(0.0), seed=31, size=50_000)
    b = sample_fading(FadingModel.rayleigh(), seed=32, size=50_000)
    stat = scipy_stats.ks_2samp(a, b).statistic
    assert stat < 0.015


def test_nakagami_m1_matches_rayleigh():
    scipy_stats = pytest.importorskip("scipy.stats")
    a = sample_fading(FadingModel.nakagami(1.0), seed=41, size=50_000)
    stat = scipy_stats.kstest(a, "expon").statistic
    assert stat < 0.01


def test_rician_k_sharpens_distribution():
    lo = sample_fading(FadingModel.rician(1.0), seed=7, size=50_000)
    hi = sample_fading(FadingModel.rician(20.0), seed=7, size=50_000)
    assert float(np.var(hi)) < float(np.var(lo))


def test_sampling_is_seed_deterministic():
    m = FadingModel.nakagami(2.0)
    a = sample_fading(m, seed=99, size=1000)
    b = sample_fading(m, seed=99, size=1000)
    assert np.array_equal(a, b)
    c = sample_fading(m, seed=100, size=1000)
    assert not np.array_equal(a, c)


def test_sampling_accepts_generator():
    m = FadingModel.rayleigh()
    gen = np.random.default_rng(5)
    a = sample_fading(m, seed=gen, size=10)
    b = sample_fading(m, seed=5, size=10)
    assert np.array_equal(a, b)


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(p_over_n0=-1.0, alpha=1.4)
    with pytest.raises(ValueError):
        ChannelParams(p_over_n0=1.0, alpha=0.0)
    with pytest.raises(ValueError):
        ChannelParams(p_over_n0=math.nan, alpha=1.4)


# --- the shared kernels: float inputs follow math, arrays follow numpy ---


def test_capacity_bits_float_is_the_math_result():
    for snr in SNRS.tolist():
        got = capacity_bits(snr)
        assert type(got) is float
        assert got == math.log2(1.0 + snr)


def test_capacity_bits_array_is_the_numpy_result():
    got = capacity_bits(SNRS)
    assert isinstance(got, np.ndarray)
    assert got.tobytes() == np.log2(1.0 + SNRS).tobytes()


@pytest.mark.parametrize(
    "snr",
    [SNRS, SNRS.astype(np.float32), np.array(3.5), np.array(3.5, dtype=np.float32), SNRS[:0]],
    ids=["float64", "float32", "0-d", "0-d-float32", "empty"],
)
def test_capacity_bits_array_matches_the_out_of_place_reference(snr):
    # the log is taken into the 1 + SNR buffer; value, type and dtype are
    # those of np.log2(1.0 + snr), and the input is left as it was
    before = snr.tobytes()
    got, want = capacity_bits(snr), oracles.log2_capacity(snr)
    assert type(got) is type(want)
    assert got.dtype == want.dtype
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert snr.tobytes() == before


FADING_MODELS = [FadingModel.path_loss_only(), FadingModel.rayleigh(), FadingModel.rician(3.0),
                 FadingModel.nakagami(2.5)]


@pytest.mark.parametrize("n", [1, 2, 4097])
@pytest.mark.parametrize("model", FADING_MODELS, ids=lambda model: model.kind)
def test_fading_draws_match_the_out_of_place_reference(model, n):
    want = oracles.fading_gains(model, np.random.default_rng(41), n)
    assert sample_fading(model, seed=41, size=n).tobytes() == want.tobytes()
    # size=None is the first draw, as a float
    single = sample_fading(model, seed=41)
    assert type(single) is float
    assert single == float(oracles.fading_gains(model, np.random.default_rng(41), 1)[0])


def test_secrecy_bits_scalar_and_broadcast():
    for a, b in zip(SNRS[:500].tolist(), SNRS[500:1000].tolist()):
        assert secrecy_bits(a, b) == math.log2(1.0 + a) - math.log2(1.0 + b)
    # a float legitimate SNR against an array of wiretap SNRs, as in average_secrecy
    got = secrecy_bits(25.0, SNRS)
    assert got.shape == SNRS.shape
    assert got.tobytes() == (math.log2(26.0) - np.log2(1.0 + SNRS)).tobytes()
    assert secrecy_bits(SNRS, SNRS).tobytes() == np.zeros_like(SNRS).tobytes()


def test_link_snr_is_the_power_operator_form():
    for d in DISTANCES[:500].tolist():
        assert link_snr(1e7, d, 1.4) == 1e7 * d ** (-2.0 * 1.4)
    assert link_snr(1e7, DISTANCES, 1.4).tobytes() == (1e7 * DISTANCES ** (-2.8)).tobytes()
    assert path_loss_coeff_sq(7.5, 2.0) == link_snr(1.0, 7.5, 2.0)


def test_link_snr_against_oracle():
    for d in (1e-3, 0.7, 4.4, 1000.0, 1e5):
        want = oracles.db_to_linear(70.0) * oracles.mp.mpf(d) ** (-2 * oracles.mp.mpf(1.4))
        assert link_snr(1e7, d, 1.4) == pytest.approx(float(want), rel=1e-14)


def test_link_snr_names_a_distance_out_of_range():
    # at 1e-109 m, d**(-2*alpha) is finite but the SNR overflows
    for d in (1e-200, 1e-109, 0.0):
        with pytest.raises(ValueError, match=f"distance {d!r} m"):
            link_snr(1e7, d, 1.4)
    with pytest.raises(ValueError, match="distance"):
        path_loss_coeff_sq(1e-200, 1.4)
    # a far link only loses its signal: the SNR underflows to zero
    assert link_snr(1e7, 1e200, 1.4) == 0.0


@pytest.mark.parametrize("alpha", [1.4, 1.0], ids=["complex-power", "integral-power"])
def test_a_negative_distance_is_refused_naming_d(alpha):
    # (-1.0) ** -2.8 is complex and (-1.0) ** -2.0 is 1.0: neither may pass for a distance
    with pytest.raises(ValueError, match=r"^d must be a distance >= 0, got -1.0$"):
        link_snr(1e7, -1.0, alpha)
    with pytest.raises(ValueError, match=r"^d must be a distance >= 0, got -1.0$"):
        link_capacities(1e7, np.array([3.0, -1.0, 4.0]), alpha)
    # the ndarray power gives nan at 1.4 and a real SNR at 1.0; the check comes before it
    with pytest.raises(ValueError, match=r"^d must be a distance >= 0, got -1.0$"):
        link_snr(1e7, np.array([2.0, -1.0, -3.0]), alpha)
    with pytest.raises(ValueError, match=r"^snr must be finite, got nan from p_over_n0=10000000.0, d=nan, "):
        link_snr(1e7, np.array([2.0, math.nan]), alpha)


def test_link_capacities_are_the_checked_calls_bit_for_bit():
    dists = np.concatenate([DISTANCES[:620], np.logspace(-80.0, 300.0, 60)]).reshape(17, 40)
    got = link_capacities(1e7, dists, 1.4)
    want = [capacity_bits(link_snr(1e7, d, 1.4)) for d in dists.ravel().tolist()]
    assert got.shape == dists.shape
    assert got.tobytes() == np.array(want).reshape(dists.shape).tobytes()
    assert link_capacities(1e7, np.empty((0, 3)), 1.4).shape == (0, 3)


@pytest.mark.parametrize("d, message", [
    (0.0, "distance 0.0 m is too short: d**(-2*alpha) overflows"),
    (1e-109, "distance 1e-109 m is too short: the SNR overflows"),
    (math.nan, "snr must be finite, got nan from p_over_n0=10000000.0, d=nan, alpha=1.4"),
])
def test_link_capacities_refuse_with_the_message_of_link_snr(d, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        link_snr(1e7, d, 1.4)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        link_capacities(1e7, np.array([5.0, d]), 1.4)
