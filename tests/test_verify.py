from __future__ import annotations

import re
from pathlib import Path

import pytest

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
