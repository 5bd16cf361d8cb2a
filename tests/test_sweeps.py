import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from vscsim import config
from vscsim.channel import link_snr, secrecy_bits
from vscsim.config import validate_config
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
            r"base\.p_over_n0: required .*base\.alpha: required .*base\.r: required .*base\.tau: required",
        ),
        (
            SweepSpec("highway", {**HIGHWAY_BASE, "v": 20.0}, "theta", (1.0, 2.0, 3.0)),
            r"param: 'theta' is not a field",
        ),
        (
            SweepSpec("highway", HIGHWAY_BASE, "v", (1.0, 2.0), series=(("a", {"alfa": 4.0}),)),
            r"series\[0\]\.overrides\.alfa: not a field",
        ),
        (
            SweepSpec("relay", {**RELAY_BASE, "sigma": 2.0}, "p_r", (0.0, 1.0)),
            r"base\.sigma: not a field",
        ),
    ],
    ids=["missing", "unknown-param", "misspelled-override", "stray-base-key"],
)
def test_sweep_rejects_missing_or_unknown_fields(spec, match):
    with pytest.raises(ValueError, match=match):
        run_sweep(spec)


# A valid value of every field, in config names, for the kinds the agreement test builds.
FIELD_VALUES = {
    "highway": {"p_over_n0_db": 70.0, "alpha": 1.4, "r": 1000.0, "v": 20.0, "tau": 0.2},
    "relay": {**RELAY_BASE, "sigma_b_sq": 1.0, "sigma_e_sq": 1.0, "bandwidth_hz": 2.0},
}


@st.composite
def _sweep_docs(draw):
    """A sweep config doc and the SweepSpec the run builds from it, with each
    field in the base, in every series, in the first series only or nowhere,
    a stray key, a real or bogus swept parameter, any grid order and labels
    that may repeat a column name."""
    kind = draw(st.sampled_from(sorted(FIELD_VALUES)))
    labels = draw(st.lists(st.sampled_from(["cs", "a", "v", "p_over_n0"]), min_size=1, max_size=3))
    base, overrides = {}, [{} for _ in labels]
    stray = draw(st.sampled_from([None, "alfa", "p_r" if kind == "highway" else "v"]))
    for name, value in [*FIELD_VALUES[kind].items(), (stray, 1.0)]:
        where = draw(st.sampled_from(["base", "every series", "first series", "nowhere"]))
        if name is None or where == "nowhere":
            continue
        for target in [base] if where == "base" else overrides if where == "every series" else overrides[:1]:
            target[name] = value
    param = draw(st.sampled_from([*FIELD_VALUES[kind], "bogus"]))
    grid = draw(st.sampled_from([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0], [1.0, 3.0, 2.0], [2.0, 2.0], [2.0]]))
    param_label = draw(st.sampled_from([None, "cs"]))
    unit = "db" if param.endswith("_db") else "si"
    params = {"kind": kind, "base": base, "param": param, "grid": grid, "unit": unit,
              "series": [{"label": label, "overrides": o} for label, o in zip(labels, overrides)]}
    if param_label is not None:
        params["param_label"] = param_label
    # The spec as the sweep's plan builds it, without the plan's checks.
    series = tuple((label, config._scenario_values(o)) for label, o in zip(labels, overrides))
    spec = SweepSpec(kind, config._scenario_values(base), config._SCENARIO_NAMES.get(param, param), tuple(grid),
                     unit, param_label, series)
    return {"experiment": "sweep", "params": params}, spec


@settings(max_examples=300, deadline=None)
@given(_sweep_docs())
def test_validate_config_and_run_sweep_refuse_the_same_paths(doc_and_spec):
    doc, spec = doc_and_spec
    want = {e.split(":")[0].removeprefix("$.params.").replace("_db", "") for e in validate_config(doc)}
    try:
        run_sweep(spec)
        got = set()
    except ValueError as exc:
        got = {part.split(":")[0] for part in str(exc).split("; ")}
    assert got == want


def test_sweep_rejects_a_repeated_column_name():
    doc = {"experiment": "sweep", "params": {
        "kind": "highway", "base": {"r": 1000.0, "tau": 0.2, "alpha": 1.4, "p_over_n0_db": 70.0},
        "param": "v", "grid": [10.0, 20.0], "param_label": "cs",
        "series": [{"label": "cs"}, {"label": "a"}, {"label": "cs"}],
    }}
    assert validate_config(doc) == [
        "$.params.series[0].label: column 'cs' is named twice",
        "$.params.series[2].label: column 'cs' is named twice",
    ]
    spec = _speed_spec(param_label="cs", series=(("cs", {}), ("a", {}), ("cs", {})))
    with pytest.raises(ValueError, match=r"^series\[0\]\.label: column 'cs' is named twice; "
                                         r"series\[2\]\.label: column 'cs' is named twice$"):
        run_sweep(spec)
    del doc["params"]["param_label"]
    assert validate_config(doc) == ["$.params.series[2].label: column 'cs' is named twice"]


def test_sweep_fields_match_config_fields():
    for kind, fields in SWEEP_FIELDS.items():
        assert {n.removesuffix("_db") for n in config._SCENARIO_FIELDS[kind]} == set(fields)


@pytest.mark.parametrize("kind, oracle", [("urban_fixed", oracles.urban_fixed_secrecy),
                                          ("urban_moving", oracles.urban_moving_secrecy)])
def test_urban_sweep(kind, oracle):
    spec = SweepSpec(
        kind=kind,
        base={"lane_width_w": 3.0, "v_limit": 0.0, "t": 0.1, "r0": 200.0, "alpha": 1.4, "p_over_n0": 1e7},
        param="v_limit",
        grid=tuple(float(v) for v in range(10, 65, 5)),
        unit="kmh",
        param_label="v_limit_kmh",
    )
    out = run_sweep(spec)
    for row in out.rows:
        want = oracle(3.0, row[0], 0.1, 200.0, 1.4, 70.0)
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
