from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from gwdesc import verify
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


def test_point_oracle_falls_back_to_point_fixture(p1):
    result = run_suite("point-oracle", p1.model, p1.primary, nmax=5)
    assert result.ok
    assert any("zero-dimensional fixture" in line for line in result.lines)


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


def test_degree_zero_collapse_suite(p1):
    result = run_suite("degree-zero-collapse", p1.model, p1.primary)
    assert result.ok, result.render()


def test_render_shape(p1):
    result = run_suite("two-point-paths", p1.model, p1.primary, qmax=2, dmax=2)
    text = result.render()
    assert text.splitlines()[0] == "[PASS] suite two-point-paths"
    assert "checked" in text


# a window in which each suite runs no check; the last four printed [PASS] after 0 checks
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
def test_suites_fail_when_no_check_ran(p1, name):
    # called directly, a window that runs no check must not read as a pass
    result = EMPTY_WINDOWS[name](p1)
    assert result.name == name and not result.ok
    assert result.render().startswith(f"[FAIL] suite {name}")
    assert result.lines[-1] == "no checks ran"


def test_readme_lists_every_suite_in_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Verification suites", 1)[1].split("\n#", 1)[0]
    assert tuple(re.findall(r"^\| `([a-z0-9-]+)` \|", table, flags=re.MULTILINE)) == SUITE_NAMES
