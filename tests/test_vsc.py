import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

from vscsim.channel import secrecy_bits
from vscsim.cluster import sc_select
from vscsim.units import linear_to_db
from vscsim.vsc import (
    ADEQUATE,
    INADEQUATE,
    CsiRecord,
    VscResult,
    compute_vsc,
    read_csi_csv,
    security_verdict,
    window_vscs,
    windowed_stream,
    write_csi_csv,
)


def _window(snrs, t=0.0):
    return [CsiRecord(t, f"n{i:02d}", s) for i, s in enumerate(snrs)]


def test_vsc_reference_value():
    # target at SNR 3 against senders at 3, 1, 1, 3: mean 2
    win = _window([3.0, 1.0, 1.0, 3.0])
    res = compute_vsc(win, "n00")
    assert res.vsc == pytest.approx(2.0 - math.log2(3.0), rel=1e-14)
    assert res.vsc == pytest.approx(0.4150374992788438, rel=1e-13)
    assert res.snr_xor == pytest.approx(2.0)
    assert res.m == 4


def test_vsc_mean_includes_target_by_default():
    win = _window([7.0, 1.0])
    res = compute_vsc(win, "n00")
    assert res.snr_xor == pytest.approx(4.0)
    loo = compute_vsc(win, "n00", exclude_target=True)
    assert loo.snr_xor == pytest.approx(1.0)
    assert loo.vsc > res.vsc


def test_vsc_multiple_target_records_average():
    win = [
        CsiRecord(0.0, "a", 2.0),
        CsiRecord(0.1, "a", 4.0),
        CsiRecord(0.2, "b", 1.0),
    ]
    res = compute_vsc(win, "a")
    assert res.vsc == pytest.approx(
        math.log2(4.0) - math.log2(1.0 + 7.0 / 3.0), rel=1e-14
    )


def test_vsc_above_mean_positive_below_negative():
    win = _window([5.0, 2.0, 1.0])
    assert compute_vsc(win, "n00").vsc > 0.0
    assert compute_vsc(win, "n02").vsc < 0.0


def test_vsc_errors():
    with pytest.raises(ValueError):
        compute_vsc([], "a")
    with pytest.raises(KeyError):
        compute_vsc(_window([1.0, 2.0]), "ghost")
    with pytest.raises(ValueError):
        compute_vsc([CsiRecord(0.0, "solo", 2.0)], "solo", exclude_target=True)


def test_record_validation():
    with pytest.raises(ValueError):
        CsiRecord(0.0, "", 1.0)
    with pytest.raises(ValueError):
        CsiRecord(0.0, "a", 0.0)
    with pytest.raises(ValueError):
        CsiRecord(0.0, "a", math.inf)
    with pytest.raises(ValueError):
        CsiRecord(math.nan, "a", 1.0)


def test_windowing_alignment():
    # windows align to floor(t / unit), not to the first record seen
    recs = [
        CsiRecord(0.4, "a", 2.0),
        CsiRecord(0.9, "b", 1.0),
        CsiRecord(1.1, "a", 3.0),
        CsiRecord(1.2, "b", 1.0),
        CsiRecord(3.7, "a", 5.0),
        CsiRecord(3.8, "b", 2.0),
    ]
    out = windowed_stream(recs, unit_time=1.0)
    starts = sorted({r.window_start for r in out})
    assert starts == [0.0, 1.0, 3.0]
    per_window = {s: [r for r in out if r.window_start == s] for s in starts}
    assert [r.target_id for r in per_window[0.0]] == ["a", "b"]
    first_a = per_window[0.0][0]
    assert first_a.vsc == pytest.approx(math.log2(3.0) - math.log2(2.5), rel=1e-14)
    assert all(r.m == 2 for r in out)


def test_windowing_rejects_out_of_order():
    recs = [CsiRecord(1.0, "a", 2.0), CsiRecord(0.5, "b", 1.0)]
    with pytest.raises(ValueError):
        windowed_stream(recs)


@pytest.mark.parametrize("first, last", [(0.0, 1e10), (-1e10, 0.0)])
def test_windowing_rejects_a_window_index_past_the_float_range(first, last):
    recs = [CsiRecord(first, "a", 2.0), CsiRecord(last, "b", 2.0)]
    with pytest.raises(ValueError, match="^window_index must be finite"):
        windowed_stream(recs, unit_time=1e-300)


def test_window_whose_snr_sum_overflows_raises():
    with pytest.raises(ValueError, match="window starting at 0.0 s overflows"):
        window_vscs(_window([1e308, 1e308]))
    with pytest.raises(ValueError, match="window starting at 2.0 s overflows"):
        windowed_stream(_window([1e308, 1e308], t=2.5))
    assert [r.snr_xor for r in window_vscs(_window([8e307, 8e307]))] == [8e307, 8e307]


def test_leave_one_out_sums_that_overflow_raise():
    # the target's own sum, and the other senders' sum
    for target, other in [([1e308, 1e308], [1.0]), ([1.0], [1e308, 1e308])]:
        win = [CsiRecord(0.0, "a", s) for s in target] + [CsiRecord(0.0, "b", s) for s in other]
        with pytest.raises(ValueError, match="window starting at 0.0 s overflows"):
            compute_vsc(win, "a", exclude_target=True)


def test_windowing_unit_time_scaling():
    recs = [CsiRecord(float(t), "a", 2.0) for t in range(6)]
    assert len(windowed_stream(recs, unit_time=10.0)) == 1
    assert len(windowed_stream(recs, unit_time=1.0)) == 6


def _seeded_stream(seed=7, n=240, senders=6, windows=4):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, float(windows), n))
    ids = rng.integers(0, senders, n)
    snrs = rng.lognormal(2.0, 1.5, n)
    return [CsiRecord(float(t), f"s{k}", float(x)) for t, k, x in zip(times, ids, snrs)]


def _per_sender_reference(window, start):
    # one sender at a time, each scanning the whole window, in record order
    out = []
    for sender in sorted({r.sender_id for r in window}):
        own = [r.snr for r in window if r.sender_id == sender]
        snr_xor = sum(r.snr for r in window) / len(window)
        vsc = secrecy_bits(sum(own) / len(own), snr_xor)
        out.append(VscResult(sender, vsc, snr_xor, len(window), start))
    return out


def test_window_pass_matches_per_sender_recomputation():
    records = _seeded_stream()
    buckets = {}
    for rec in records:
        buckets.setdefault(math.floor(rec.timestamp), []).append(rec)
    assert all(len(w) > 2 * 6 for w in buckets.values())  # several records per sender
    expected = [
        res for idx in sorted(buckets) for res in _per_sender_reference(buckets[idx], idx * 1.0)
    ]
    assert repr(windowed_stream(records, 1.0)) == repr(expected)
    for idx, window in buckets.items():
        reference = _per_sender_reference(window, 0.0)
        assert repr(window_vscs(window)) == repr(reference)
        best = min(reference, key=lambda res: (-res.vsc, res.target_id))
        assert sc_select(window) == best.target_id
        for res in reference:
            assert repr(compute_vsc(window, res.target_id)) == repr(res)


def test_verdict_threshold_inclusive():
    assert security_verdict(1.0, 1.0) == ADEQUATE
    assert security_verdict(1.0000001, 1.0) == ADEQUATE
    assert security_verdict(0.9999999, 1.0) == INADEQUATE
    assert security_verdict(-2.0, 0.0) == INADEQUATE


def test_csi_csv_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    recs = [
        CsiRecord(
            float(rng.uniform(0, 50)) + i,
            f"n{i:02d}",
            float(rng.uniform(0.1, 500.0)),
            chain_element="ab" * 32 if i % 2 == 0 else None,
        )
        for i in range(20)
    ]
    path = tmp_path / "csi.csv"
    write_csi_csv(path, recs)
    back = read_csi_csv(path)
    assert len(back) == len(recs)
    for a, b in zip(recs, back):
        assert b.timestamp == a.timestamp
        assert b.sender_id == a.sender_id
        assert b.snr == pytest.approx(a.snr, rel=1e-12)
        assert b.chain_element == a.chain_element


_CSI_TEXT = 'ab ,"\r\n'
_SEVEN_RECORDS = [
    CsiRecord(0.1 * i + 1e-7, sender, 10.0 ** (i - 3), chain_element=chain)
    for i, (sender, chain) in enumerate(
        zip(
            ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "tab\tis plain", " lead"],
            [None, "ab" * 32, "x,y", 'q"', "l\n", None, ""],
        )
    )
]


@settings(max_examples=200, deadline=None)
@given(
    recs=st.lists(
        st.builds(
            CsiRecord,
            timestamp=st.integers(-(10**6), 10**6) | st.floats(allow_nan=False, allow_infinity=False),
            sender_id=st.text(alphabet=_CSI_TEXT, min_size=1, max_size=5),
            snr=st.floats(min_value=1e-300, max_value=1e300),
            chain_element=st.none() | st.text(alphabet=_CSI_TEXT, max_size=5),
        ),
        max_size=8,
    )
)
@example(recs=_SEVEN_RECORDS)
@example(recs=[])
def test_csi_csv_quotes_text_cells_as_csv_writer_does(recs, tmp_path_factory):
    path = tmp_path_factory.mktemp("csi") / "csi.csv"
    write_csi_csv(path, recs)
    want = oracles.csv_text(
        [["timestamp_s", "sender_id", "snr_db", "chain_element_hex"]]
        + [[repr(float(r.timestamp)), r.sender_id, repr(linear_to_db(r.snr)), r.chain_element or ""] for r in recs]
    )
    assert path.read_bytes() == want.encode("utf-8")
    # every record reads back, one with a lone "\r" included
    back = read_csi_csv(path)
    assert [(r.sender_id, r.chain_element) for r in back] == [(r.sender_id, r.chain_element or None) for r in recs]


def test_csi_csv_stores_db(tmp_path):
    path = tmp_path / "csi.csv"
    write_csi_csv(path, [CsiRecord(0.0, "a", 100.0)])
    text = path.read_text(encoding="utf-8").splitlines()
    assert text[0] == "timestamp_s,sender_id,snr_db,chain_element_hex"
    assert text[1].split(",")[2] == "20.0"


def test_csi_csv_rejects_an_snr_that_overflows(tmp_path):
    path = tmp_path / "loud.csv"
    path.write_text("timestamp_s,sender_id,snr_db,chain_element_hex\n0.0,a,4000,\n", encoding="utf-8")
    with pytest.raises(ValueError, match="4000.0"):
        read_csi_csv(path)


def test_csi_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,who,snr\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_csi_csv(path)


def test_vsc_result_is_frozen():
    res = VscResult("a", 1.0, 2.0, 3)
    with pytest.raises(Exception):
        res.vsc = 0.0
