from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement, islice
from math import comb
from pathlib import Path

import pytest

from gwdesc import verify
from gwdesc.cli import main
from gwdesc.engine import PrimaryTable
from gwdesc.geometry import CohClass, GeometryModel
from gwdesc.moduli import TautTableError
from gwdesc.verify import (
    SUITE_NAMES,
    run_suite,
    suite_degree_zero_collapse,
    suite_divisor_independence,
    suite_enumerative,
    suite_identities,
    suite_point_oracle,
    suite_point_vanishing,
    suite_transform,
    suite_two_point_paths,
)


def test_all_suite_names_dispatch(p1):
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope", p1.model, p1.primary)


def test_point_oracle_suite(point):
    result = run_suite("point-oracle", point.model, point.primary, nmax=6)
    assert result.ok
    assert result.render().startswith("[PASS] suite point-oracle")


@pytest.mark.parametrize(
    "fixture, name", [("p1", "point-oracle"), ("p2", "point-oracle"), ("p1", "enumerative"), ("point", "enumerative")]
)
def test_suite_on_a_model_it_does_not_check_raises(request, fixture, name):
    # each fell back to a built-in fixture and reported a PASS about that fixture
    fx = request.getfixturevalue(fixture)
    direct = {"point-oracle": suite_point_oracle, "enumerative": suite_enumerative}[name]
    for call in (direct, partial(run_suite, name)):
        with pytest.raises(ValueError, match=f"^suite {name}: needs "):
            call(fx.model, fx.primary)


@pytest.mark.parametrize(
    "model, suite",
    [("P1", "point-oracle"), ("P1", "enumerative"), ("P2", "point-oracle"), ("point", "enumerative")],
)
def test_named_suite_that_does_not_apply_exits_2(capsys, model, suite):
    assert main(["verify", "--model", model, "--suite", suite]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: suite {suite}: needs ") and err.count("\n") == 1


@pytest.mark.parametrize("n", range(3, 12))
def test_point_oracle_walks_exactly_the_multisets_it_checks(n):
    # the pruned walk against the enumerate-then-filter form it replaces, order included;
    # one tuple past the end is read, so a walk that never stops fails instead of hanging
    want = [e for e in combinations_with_replacement(range(n), n) if sum(e) <= n - 1]
    assert list(islice(verify._exponent_multisets(n), len(want) + 1)) == want


@pytest.mark.parametrize(("nmax", "checked"), [(7, 72), (10, 281), (12, 615)])
def test_point_oracle_checked_counts(point, nmax, checked):
    result = suite_point_oracle(point.model, point.primary, nmax=nmax)
    assert result.ok, result.render()
    assert result.lines == [f"checked {checked} exponent multisets up to n={nmax}"]


def test_point_oracle_lists_failures_in_enumeration_order(point, monkeypatch):
    # (0, 0, 0, 0, 3) precedes (0, 0, 0, 1, 1) in combinations_with_replacement order
    # but not by exponent sum, so a walk that finds the right set in another order fails
    from gwdesc.engine import CorrelatorEngine

    wrong = {(0, 0, 0, 1, 1), (0, 0, 0, 0, 3)}
    modified = CorrelatorEngine.modified

    def off_by_one(self, beta, pairs, refs=None):
        value = modified(self, beta, pairs, refs)
        return value + 1 if tuple(e for e, _ in pairs) in wrong else value

    monkeypatch.setattr(CorrelatorEngine, "modified", off_by_one)
    result = suite_point_oracle(point.model, point.primary, nmax=5)
    assert not result.ok
    assert result.lines[1:] == [
        "exponents (0, 0, 0, 0, 3): got 1, expected 0",
        "exponents (0, 0, 0, 1, 1): got 3, expected 2",
    ]


def test_identities_suite_small(p1):
    result = run_suite("identities", p1.model, p1.primary, count=30, qmax=2)
    assert result.ok, result.render()


def test_determinism_suite(p1):
    result = run_suite("determinism", p1.model, p1.primary, qmax=2)
    assert result.ok, result.render()


def test_point_vanishing_suite():
    result = suite_point_vanishing()
    assert result.ok, result.render()


def _pattern(insertions):
    """The scan's (exponent, basis index) key of basis-class insertions."""
    return tuple((d, cls.support()[0]) for d, cls in insertions)


def test_divisor_independence_compares_the_dilaton_route(p1, monkeypatch):
    # the only suite that runs the dilaton route, so the only one a wrong dilaton factor fails
    from gwdesc.engine import CorrelatorEngine

    assert suite_divisor_independence(p1.model, p1.primary, qmax=1, dmax=1).ok
    unstable = CorrelatorEngine._unstable

    def off_by_one(self, beta, ins, route="divisor"):
        value = unstable(self, beta, ins, route)
        return value + 1 if route == "dilaton" and len(ins) < 2 else value

    monkeypatch.setattr(CorrelatorEngine, "_unstable", off_by_one)
    result = suite_divisor_independence(p1.model, p1.primary, qmax=1, dmax=1)
    assert not result.ok
    dilaton = [line for line in result.lines if "vs dilaton" in line]
    assert dilaton and dilaton[-1].startswith("zero-point (1,): divisor")


def test_point_vanishing_lists_failures_genus_by_genus(p2, monkeypatch):
    # the g = 2 pattern comes first in the scan's pattern order and the g = 0 one
    # last, so the report's genus order is not the order the patterns are met in
    wrong = {
        (0, ((0, 1), (1, 2), (2, 0), (2, 2), (3, 1))): "nonzero",
        (1, ((1, 0), (1, 0), (2, 1))): "table",
        (2, ((0, 0),)): "nonzero",
    }
    correlator = verify.constant_map_correlator

    def misbehaving(g, insertions, model, table):
        fault = wrong.get((g, _pattern(insertions)))
        if fault == "table":
            raise TautTableError("table incomplete")
        if fault == "nonzero":
            return Fraction(1)
        return correlator(g, insertions, model, table)

    monkeypatch.setattr(verify, "constant_map_correlator", misbehaving)
    result = suite_point_vanishing(models=[p2.model])
    assert not result.ok
    assert result.lines[2:] == [
        "P2 g=0 pattern ((0, 1), (1, 2), (2, 0), (2, 2), (3, 1)): nonzero 1",
        "P2 g=1 pattern ((1, 0), (1, 0), (2, 1)): table requested outside the admissible cases",
        "P2 g=2 pattern ((0, 0),): nonzero 1",
    ]


def test_point_vanishing_evaluates_every_non_admissible_pattern(monkeypatch):
    calls = Counter()
    correlator = verify.constant_map_correlator

    def counted(g, insertions, model, table):
        calls[model.name, g] += 1
        return correlator(g, insertions, model, table)

    monkeypatch.setattr(verify, "constant_map_correlator", counted)
    result = suite_point_vanishing()
    assert result.ok, result.render()
    assert sum(calls.values()) == 83_400
    # admissible = patterns of at most five insertions from 4 * rank slots, less calls
    ranks = {"point": 1, "P1": 2, "P2": 3, "P3": 4}
    admissible = {
        name: tuple(sum(comb(4 * rank + n - 1, n) for n in range(6)) - calls[name, g] for g in range(3))
        for name, rank in ranks.items()
    }
    assert admissible == {"point": (4, 15, 14), "P1": (7, 39, 56), "P2": (15, 39, 99), "P3": (26, 39, 97)}
    assert result.lines[1] == "admissible patterns skipped: 450"


def test_point_vanishing_hashes_no_class(monkeypatch):
    # the screen reads each insertion's degree from its support, so no class is
    # looked up by value anywhere in the scan
    hashes = []
    class_hash = CohClass.__hash__
    monkeypatch.setattr(CohClass, "__hash__", lambda self: hashes.append(self) or class_hash(self))
    result = suite_point_vanishing()
    assert result.ok, result.render()
    assert len(hashes) == 0


def test_point_vanishing_zero_test_is_exact(p2, monkeypatch):
    # every value but zero is a failure: a tiny or negative Fraction and a non-number
    # alike, while a zero that is not the screen's shared one still passes
    returned = {
        (0, ((0, 1), (1, 2), (2, 0), (2, 2), (3, 1))): Fraction(1, 10**9),
        (1, ((1, 0), (1, 0), (2, 1))): Fraction(-1),
        (2, ((0, 0),)): None,
        (0, ((0, 0), (0, 0))): Fraction(0),
    }
    seen = set()
    correlator = verify.constant_map_correlator

    def misbehaving(g, insertions, model, table):
        key = (g, _pattern(insertions))
        if key in returned:
            seen.add(key)
            return returned[key]
        return correlator(g, insertions, model, table)

    monkeypatch.setattr(verify, "constant_map_correlator", misbehaving)
    result = suite_point_vanishing(models=[p2.model])
    assert seen == set(returned)
    assert not result.ok
    assert result.lines[2:] == [
        "P2 g=0 pattern ((0, 1), (1, 2), (2, 0), (2, 2), (3, 1)): nonzero 1/1000000000",
        "P2 g=1 pattern ((1, 0), (1, 0), (2, 1)): nonzero -1",
        "P2 g=2 pattern ((0, 0),): nonzero None",
    ]


def test_degree_zero_collapse_suite(p1):
    result = run_suite("degree-zero-collapse", p1.model, p1.primary)
    assert result.ok, result.render()


def test_render_shape(p1):
    result = run_suite("two-point-paths", p1.model, p1.primary, qmax=2, dmax=2)
    text = result.render()
    assert text.splitlines()[0] == "[PASS] suite two-point-paths"
    assert "checked" in text


# a window in which each suite runs no check, on a model the suite applies to (P1 unless
# EMPTY_WINDOW_MODELS names another); the last four printed [PASS] after 0 checks
EMPTY_WINDOW_MODELS = {"point-oracle": "point", "enumerative": "p2"}
EMPTY_WINDOWS = {
    "identities": lambda fx: suite_identities(fx.model, fx.primary, count=0),
    "point-oracle": lambda fx: suite_point_oracle(fx.model, fx.primary, nmax=2),
    "enumerative": lambda fx: suite_enumerative(fx.model, fx.primary, dmax=0),
    "transform": lambda fx: suite_transform(fx.model, fx.primary, xdeg=2),
    "two-point-paths": lambda fx: suite_two_point_paths(fx.model, fx.primary, dmax=-1),
    "divisor-independence": lambda fx: suite_divisor_independence(fx.model, fx.primary, qmax=0, dmax=-1),
    "degree-zero-collapse": lambda fx: suite_degree_zero_collapse(fx.model, fx.primary, nmax=2),
    "point-vanishing": lambda fx: suite_point_vanishing(models=[]),
}


@pytest.mark.parametrize("name", list(EMPTY_WINDOWS))
def test_suites_fail_when_no_check_ran(request, name):
    # called directly, a window that runs no check must not read as a pass
    result = EMPTY_WINDOWS[name](request.getfixturevalue(EMPTY_WINDOW_MODELS.get(name, "p1")))
    assert result.name == name and not result.ok
    assert result.render().startswith(f"[FAIL] suite {name}")
    assert result.lines[-1] == "no checks ran"


PLANE_NEED = "a plane-shaped model (dimension 2, lattice rank 1 and a degree-2 class)"
SKIPPED = {
    "P1": {"point-oracle": "a zero-dimensional model", "enumerative": PLANE_NEED},
    "P2": {"point-oracle": "a zero-dimensional model"},
    "point": {"enumerative": PLANE_NEED},
}


def _verify_all(capsys, *argv):
    code = main(["verify", *argv, "--suite", "all", "--qmax", "2", "--count", "40"])
    out = capsys.readouterr().out
    return code, out, [line for line in out.splitlines() if line.startswith("[")]


@pytest.mark.parametrize("model", list(SKIPPED))
def test_verify_all_reports_only_on_the_given_model(capsys, model):
    skipped = SKIPPED[model]
    code, _, heads = _verify_all(capsys, "--model", model)
    assert code == 0
    assert heads == [
        f"[SKIP] suite {name}: needs {skipped[name]}" if name in skipped else f"[PASS] suite {name}"
        for name in SUITE_NAMES
    ]


def test_verify_all_on_a_doubled_p1_table_names_no_other_model(tmp_path, capsys, p1):
    # with <h h h>_1 doubled, three of the nine PASS lines were about the point, P2 and
    # the four-model scan; now each suite line, whatever its verdict, is about this P1
    geometry, table = tmp_path / "p1.json", tmp_path / "doubled.json"
    geometry.write_text(json.dumps(p1.model.to_dict()))
    table.write_text(json.dumps([{"beta": [1], "classes": ["h", "h", "h"], "value": "2"}]))
    _, out, heads = _verify_all(capsys, "--model", str(geometry), "--primary", str(table))
    _, _, p1_heads = _verify_all(capsys, "--model", "P1")
    assert [line.split("]", 1)[1] for line in heads] == [line.split("]", 1)[1] for line in p1_heads]
    assert "fixture" not in out and "over model P1 (dimension 1)" in out


def test_readme_lists_every_suite_in_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Verification suites", 1)[1].split("\n#", 1)[0]
    assert tuple(re.findall(r"^\| `([a-z0-9-]+)` \|", table, flags=re.MULTILINE)) == SUITE_NAMES


# The plane with its point class rescaled, p = 2·pt: h∪h = p/2 and ∫p = 2, so the
# pairing-dual basis is one^∨ = p/2, h^∨ = h, p^∨ = one/2.  On P1, P2 and the quadric
# every dual coefficient is 1, so only here do the engine's dual-coefficient factors act.
RESCALED_PLANE = {
    "name": "P2-rescaled",
    "dimension": 2,
    "basis": [{"label": "one", "degree": 0}, {"label": "h", "degree": 1}, {"label": "p", "degree": 2}],
    "cup": [
        {"a": "h", "b": "h", "result": {"p": "1/2"}},
        {"a": "h", "b": "p", "result": {}},
        {"a": "p", "b": "p", "result": {}},
    ],
    "integral": {"p": "2"},
    "lattice_rank": 1,
    "divisor_pairing": {"h": [1]},
    "ample": {"h": "1"},
    "chern": [{"one": "1"}, {"h": "3"}, {"p": "3/2"}],
}


def _rescaled_table(value):
    """The rescaled plane's one table entry <h p p>_1; 4 is the line count <h pt pt>_1 = 1."""
    return [{"beta": [1], "classes": ["h", "p", "p"], "value": value}]


@pytest.fixture(scope="module")
def rescaled_plane():
    model = GeometryModel.from_dict(RESCALED_PLANE)
    assert model.validate().ok
    return model, PrimaryTable.from_records(model, _rescaled_table("4"))


def test_rescaled_plane_has_dual_coefficients_other_than_one(rescaled_plane):
    model, _ = rescaled_plane
    coefficients = sorted(c for dual in model.dual_basis() for c, _ in dual.parts)
    assert coefficients == [Fraction(1, 2), Fraction(1, 2), 1]


@pytest.mark.parametrize(
    "name, window",
    [
        ("transform", {"qmax": 2, "xdeg": 4, "dmax": 2}),
        ("two-point-paths", {"qmax": 3, "dmax": 3}),
        ("divisor-independence", {"qmax": 2, "dmax": 2}),
        ("identities", {"qmax": 2, "count": 60}),
        ("enumerative", {}),
    ],
    ids=["transform", "two-point-paths", "divisor-independence", "identities", "enumerative"],
)
def test_rescaled_plane_passes_the_two_route_suites(rescaled_plane, name, window):
    result = run_suite(name, *rescaled_plane, **window)
    assert result.ok, result.render()


@pytest.mark.parametrize("value, code", [("4", 0), ("8", 1)])
def test_enumerative_reads_the_point_class_at_integral_one(tmp_path, capsys, value, code):
    # the suite used to insert the degree-2 basis class p = 2·pt as the point, so the
    # correct table printed "degree 4: engine 1269760, oracle 620" and exited 1
    geometry, table = tmp_path / "plane.json", tmp_path / "table.json"
    geometry.write_text(json.dumps(RESCALED_PLANE))
    table.write_text(json.dumps(_rescaled_table(value)))
    argv = ["verify", "--model", str(geometry), "--primary", str(table), "--suite", "enumerative"]
    assert main(argv) == code
    out = capsys.readouterr().out
    if code == 0:
        assert "degree 4: engine 620, oracle 620" in out
    else:
        assert "degree 1: engine 2, oracle 1" in out
