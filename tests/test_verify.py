from __future__ import annotations

import pytest

from gwdesc.verify import run_suite, suite_identities, suite_point_oracle, suite_point_vanishing, suite_transform


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


def test_suites_fail_when_no_check_ran(p1):
    # called directly, a window that runs no check must not read as a pass
    for result in (
        suite_identities(p1.model, p1.primary, count=0),
        suite_point_oracle(p1.model, p1.primary, nmax=2),
        suite_transform(p1.model, p1.primary, xdeg=2),
    ):
        assert not result.ok
        assert result.render().startswith(f"[FAIL] suite {result.name}")
        assert result.lines[-1] == "no checks ran"
