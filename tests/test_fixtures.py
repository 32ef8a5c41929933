from __future__ import annotations

import json
from fractions import Fraction

import pytest

from gwdesc.fixtures import FIXTURE_NAMES, _data_text, genus1_taut_table, load_fixture, plane_curve_counts
from gwdesc.geometry import GeometryModel, ModelError


def test_plane_curve_counts():
    counts = plane_curve_counts(5)
    assert counts[1] == 1
    assert counts[2] == 1
    assert counts[3] == 12
    assert counts[4] == 620
    assert counts[5] == 87304
    assert all(v.denominator == 1 and v > 0 for v in counts.values())


def test_plane_curve_counts_validation():
    with pytest.raises(ValueError):
        plane_curve_counts(0)


def test_fixture_loading_and_validation():
    # load_fixture does not validate the shipped files, so every one is validated here
    for name in FIXTURE_NAMES:
        raw = GeometryModel.from_dict(json.loads(_data_text(f"{name.lower()}.geometry.json")))
        report = raw.validate()
        assert report.ok, report
        assert load_fixture(name).model.labels == raw.labels
    with pytest.raises(ModelError, match="unknown fixture"):
        load_fixture("P3")


def test_fixture_shapes():
    p1 = load_fixture("P1")
    assert p1.model.dimension == 1
    assert p1.model.labels == ("one", "h")
    assert p1.model.chern[1] == p1.model.class_from_map({"h": 2})
    assert p1.primary.value((1,), 1, 1, 1) == 1

    p2 = load_fixture("P2")
    assert p2.model.chern[1] == p2.model.class_from_map({"h": 3})
    assert p2.model.chern[2] == p2.model.class_from_map({"h2": 3})

    point = load_fixture("point")
    assert point.model.lattice_rank == 0
    assert point.model.dimension == 0


def test_p2_table_matches_oracle_regeneration():
    # only the line class admits a dimension-consistent three-point entry, and its value
    # is the degree-1 count; the shipped data file must not drift from it
    regenerated = [{"beta": [1], "classes": ["h", "h2", "h2"], "value": str(plane_curve_counts(1)[1])}]
    assert json.loads(_data_text("p2.primary.json")) == regenerated


def test_p1_table_is_the_single_line_entry():
    p1 = load_fixture("P1")
    records = p1.primary.records()
    assert records == [{"beta": [1], "classes": ["h", "h", "h"], "value": "1"}]


def test_genus1_table_loads():
    table = genus1_taut_table()
    assert table.lookup(1, 1, [1], []) == Fraction(1, 24)
    assert table.lookup(1, 2, [1, 1], []) == Fraction(1, 24)
