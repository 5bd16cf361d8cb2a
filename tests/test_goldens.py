"""Pinned-output comparisons against the oracle-generated golden files.

Regenerate the goldens with `python3 tests/make_goldens.py` if the
underlying formulas ever change deliberately.  The SHA-256 manifest of
every preset's files comes from `tests/make_preset_manifest.py`.
"""

import json
from pathlib import Path

import make_preset_manifest
import pytest

from vscsim.config import build_config
from vscsim.presets import get_preset
from vscsim.runner import build_table
from vscsim.tables import read_csv

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _golden(name):
    return read_csv(GOLDEN_DIR / name)


def _preset_table(name):
    return build_table(build_config(get_preset(name)))


def _assert_rows_match(got, want, rel):
    assert got.columns == want.columns
    assert len(got.rows) == len(want.rows)
    for grow, wrow in zip(got.rows, want.rows):
        for g, w in zip(grow, wrow):
            if isinstance(w, str):
                assert g == w
            else:
                assert g == pytest.approx(w, rel=rel, abs=1e-15)


def test_fig4_matches_golden():
    got = _preset_table("fig4")
    want = _golden("fig4_expected.csv")
    assert want.columns == ["v_kmh", "cs_alpha_1.4", "cs_alpha_2", "cs_alpha_4"]
    _assert_rows_match(got, want, rel=1e-12)


def test_fig5_matches_golden():
    got = _preset_table("fig5")
    want = _golden("fig5_expected.csv")
    assert [r[0] for r in want.rows] == [80.0, 100.0, 120.0]
    _assert_rows_match(got, want, rel=1e-12)


def test_intersection_case1_matches_golden():
    got = _preset_table("table1-case1")
    want = _golden("table1_case1_expected.csv")
    assert want.columns == ["t_s", "distance_m", "capacity"]
    _assert_rows_match(got, want, rel=1e-12)


def test_highway_cluster_matches_golden():
    got = _preset_table("highway-cluster")
    want = _golden("highway_cluster_expected.csv")
    assert len(want.rows) == 2000
    _assert_rows_match(got, want, rel=1e-12)


def test_perturbation_matches_golden():
    got = _preset_table("perturbation")
    want = _golden("perturbation_expected.csv")
    assert len(want.rows) == 2000
    # the shift must change some target, or the study pins nothing
    assert any(row[2] != row[3] for row in want.rows)
    _assert_rows_match(got, want, rel=1e-12)


def test_goldens_are_committed():
    for name in (
        "fig4_expected.csv",
        "fig5_expected.csv",
        "table1_case1_expected.csv",
        "highway_cluster_expected.csv",
        "perturbation_expected.csv",
    ):
        assert (GOLDEN_DIR / name).exists()


def test_preset_outputs_match_the_manifest(tmp_path):
    # every file of every preset at seeds 0, 1 and 7, byte for byte
    want = json.loads(make_preset_manifest.MANIFEST.read_text(encoding="utf-8"))
    assert make_preset_manifest.preset_digests(tmp_path) == want
