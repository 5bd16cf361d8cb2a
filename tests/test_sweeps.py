import numpy as np
import pytest

import oracles
from vscsim import config
from vscsim.channel import link_snr, secrecy_bits
from vscsim.sweeps import (
    SWEEP_FIELDS,
    SweepSpec,
    TableData,
    run_ppp_distance_curve,
    run_ppp_field_dump,
    run_sweep,
)

HIGHWAY_BASE = {"r": 1000.0, "v": 0.0, "tau": 0.2, "alpha": 1.4, "p_over_n0": 1e7}
RELAY_BASE = {
    "p_a": 100.0,
    "p_r": 0.0,
    "h_ab_sq": 0.05,
    "h_rb_sq": 0.01,
    "h_ae_sq": 0.05,
    "h_re_sq": 0.1,
}


def _speed_spec(**kw):
    defaults = dict(
        kind="highway",
        base=dict(HIGHWAY_BASE),
        param="v",
        grid=tuple(float(v) for v in range(10, 130, 10)),
        unit="kmh",
        param_label="v_kmh",
    )
    defaults.update(kw)
    return SweepSpec(**defaults)


def test_speed_sweep_values():
    out = run_sweep(_speed_spec())
    assert out.columns == ("v_kmh", "cs")
    assert len(out.rows) == 12
    for row in out.rows:
        want = oracles.highway_secrecy(row[0], 0.2, 1000.0, 1.4, 70.0)
        assert row[1] == pytest.approx(want, rel=1e-11)


def test_sweep_series_overrides_win():
    spec = _speed_spec(
        series=(("cs_a14", {"alpha": 1.4}), ("cs_a2", {"alpha": 2.0}), ("cs_a4", {"alpha": 4.0}))
    )
    out = run_sweep(spec)
    assert out.columns == ("v_kmh", "cs_a14", "cs_a2", "cs_a4")
    v80 = next(r for r in out.rows if r[0] == 80.0)
    assert v80[1] == pytest.approx(17.171576471255214, rel=1e-12)
    assert v80[2] == pytest.approx(oracles.highway_secrecy(80, 0.2, 1000, 2.0, 70), rel=1e-11)


def test_sweep_grid_units():
    # dB grids convert at the boundary so columns stay in display units
    spec = SweepSpec(
        kind="highway",
        base={"r": 1000.0, "v": 60 / 3.6, "tau": 0.4, "alpha": 1.4, "p_over_n0": 0.0},
        param="p_over_n0",
        grid=(40.0, 50.0, 60.0),
        unit="db",
        param_label="p_over_n0_db",
    )
    out = run_sweep(spec)
    for row in out.rows:
        want = oracles.highway_secrecy(60.0, 0.4, 1000.0, 1.4, row[0])
        assert row[1] == pytest.approx(want, rel=1e-11)
    values = [r[1] for r in out.rows]
    assert values[0] < values[1] < values[2]


def test_sweep_rejects_non_monotone_grid():
    with pytest.raises(ValueError):
        run_sweep(_speed_spec(grid=(10.0, 30.0, 20.0)))
    with pytest.raises(ValueError):
        run_sweep(_speed_spec(grid=()))


def test_sweep_rejects_unknown_kind_and_unit():
    with pytest.raises(ValueError):
        run_sweep(_speed_spec(kind="orbital"))
    with pytest.raises(ValueError):
        run_sweep(_speed_spec(unit="furlongs"))


@pytest.mark.parametrize(
    "spec, match",
    [
        (
            SweepSpec("highway", {}, "v", (1.0,)),
            r"missing fields \['p_over_n0', 'alpha', 'r', 'tau'\]",
        ),
        (
            SweepSpec("highway", {**HIGHWAY_BASE, "v": 20.0}, "theta", (1.0, 2.0, 3.0)),
            r"unknown fields \['theta'\]",
        ),
        (
            SweepSpec("highway", HIGHWAY_BASE, "v", (1.0, 2.0), series=(("a", {"alfa": 4.0}),)),
            r"series 'a' .*unknown fields \['alfa'\]",
        ),
        (
            SweepSpec("relay", {**RELAY_BASE, "sigma": 2.0}, "p_r", (0.0, 1.0)),
            r"unknown fields \['sigma'\]",
        ),
    ],
    ids=["missing", "unknown-param", "misspelled-override", "stray-base-key"],
)
def test_sweep_rejects_missing_or_unknown_fields(spec, match):
    with pytest.raises(ValueError, match=match):
        run_sweep(spec)


def test_sweep_fields_match_config_fields():
    for kind, fields in SWEEP_FIELDS.items():
        assert {n.removesuffix("_db") for n in config._SCENARIO_FIELDS[kind]} == set(fields)


def test_urban_sweep():
    spec = SweepSpec(
        kind="urban_fixed",
        base={"lane_width_w": 3.0, "v_limit": 0.0, "t": 0.1, "r0": 200.0, "alpha": 1.4, "p_over_n0": 1e7},
        param="v_limit",
        grid=tuple(float(v) for v in range(10, 65, 5)),
        unit="kmh",
        param_label="v_limit_kmh",
    )
    out = run_sweep(spec)
    for row in out.rows:
        want = oracles.urban_fixed_secrecy(3.0, row[0], 0.1, 200.0, 1.4, 70.0)
        assert row[1] == pytest.approx(want, rel=1e-11)


def test_relay_sweep_with_direct_reference_column():
    spec = SweepSpec(
        kind="relay",
        base=dict(RELAY_BASE),
        param="p_r",
        grid=tuple(float(p) for p in range(0, 22, 2)),
        series=(("cs_relay", {}), ("cs_direct", {"p_r": 0.0})),
    )
    out = run_sweep(spec)
    assert out.columns == ("p_r", "cs_relay", "cs_direct")
    direct = {row[2] for row in out.rows}
    assert len(direct) == 1
    for row in out.rows:
        assert row[1] == pytest.approx(
            oracles.relay_secrecy(100.0, row[0], 0.05, 0.01, 0.05, 0.1), rel=1e-11
        )


def test_ppp_distance_curve_properties():
    out = run_ppp_distance_curve(
        lam=6.0,
        region_area_m2=1_000_000.0,
        ref_area_m2=1000.0,
        alpha=1.4,
        p_over_n0=1e7,
        d_fracs=(0.1, 0.2, 0.4, 0.6, 0.8, 1.0),
        seed=7,
    )
    assert out.columns == (
        "d_over_rmin",
        "d_m",
        "cs_non_colluding",
        "cs_colluding",
        "cs_average",
    )
    non = [r[2] for r in out.rows]
    col = [r[3] for r in out.rows]
    # closer targets keep more secrecy, collusion only hurts
    assert all(a > b for a, b in zip(non, non[1:]))
    assert all(c <= n for c, n in zip(col, non))
    # at d = R_min the nearest eavesdropper equals the target link: zero
    last = out.rows[-1]
    assert last[0] == 1.0
    assert last[2] == pytest.approx(0.0, abs=1e-9)


def test_ppp_distance_curve_deterministic():
    kw = dict(
        lam=6.0,
        region_area_m2=1_000_000.0,
        ref_area_m2=1000.0,
        alpha=1.4,
        p_over_n0=1e7,
        d_fracs=(0.5,),
    )
    a = run_ppp_distance_curve(seed=7, **kw)
    b = run_ppp_distance_curve(seed=7, **kw)
    assert a == b
    c = run_ppp_distance_curve(seed=8, **kw)
    assert a != c


def test_ppp_distance_curve_rejects_bad_fracs():
    with pytest.raises(ValueError):
        run_ppp_distance_curve(6.0, 1e6, 1000.0, 1.4, 1e7, (0.0,), seed=7)


def test_ppp_field_dump():
    out = run_ppp_field_dump(
        lam=6.0,
        region_area_m2=1_000_000.0,
        ref_area_m2=1000.0,
        alpha=1.4,
        p_over_n0=1e7,
        target_distance_m=100.0,
        seed=7,
    )
    assert out.columns == ("x_m", "y_m", "distance_m", "pair_secrecy")
    assert len(out.rows) > 0
    for x, y, d, cs in out.rows:
        assert d == pytest.approx(float(np.hypot(x, y)), rel=1e-12)
        want = oracles.pair_secrecy(1e7, 1.4, 100.0, d)
        assert cs == pytest.approx(want, rel=1e-11)
    # nearer eavesdroppers leave less secrecy
    by_d = sorted(out.rows, key=lambda r: r[2])
    secs = [r[3] for r in by_d]
    assert all(a <= b + 1e-12 for a, b in zip(secs, secs[1:]))


def test_ppp_field_dump_rows_are_secrecy_bits():
    # the target capacity is taken once; each row is still secrecy_bits
    # of the two scalar SNRs, bit for bit
    out = run_ppp_field_dump(6.0, 1_000_000.0, 1000.0, 1.4, 1e7, 100.0, seed=7)
    snr_ab = link_snr(1e7, 100.0, 1.4)
    for _, _, d, cs in out.rows:
        assert cs.hex() == secrecy_bits(snr_ab, link_snr(1e7, d, 1.4)).hex()


def test_ppp_field_dump_raises_for_an_eavesdropper_snr_that_overflows():
    # 4000 points within 1.5 m of the host: the nearest ones overflow
    # 1e300 * d**-200, while the target link at 100 m does not
    with pytest.raises(ValueError, match="too short"):
        run_ppp_field_dump(1000.0, 4.0, 1.0, 100.0, 1e300, 100.0, seed=7)


def test_ppp_tables_hold_python_floats():
    # repr-based pins and the CSV bytes read Python floats, not np.float64
    common = (6.0, 1_000_000.0, 1000.0, 1.4, 1e7)
    curve = run_ppp_distance_curve(*common, (0.1, 0.5, 1.0), seed=7)
    for out in (curve, run_ppp_field_dump(*common, 100.0, seed=7)):
        assert len(out.rows) > 0
        assert {type(v) for row in out.rows for v in row} == {float}


def test_table_data_is_plain():
    out = run_sweep(_speed_spec())
    assert isinstance(out, TableData)
    assert all(isinstance(r, tuple) for r in out.rows)
