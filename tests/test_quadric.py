"""Rank-2 lattice coverage: the quadric surface, built inline.

The shipped fixtures all have lattice rank at most one, so this module
exercises multi-component class splittings: the engine recursions, the
n-point reconstruction over a two-parameter effective cone, the phase-space
machinery, and the ability of the identity battery to reject input data
that is inconsistent with its own divisor pairing.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from gwdesc import CorrelatorEngine, GeometryModel, PrimaryTable, constant_map_correlator
from gwdesc.phase import summed_correlator, transform_identity_report, two_point_from_primaries
from gwdesc.verify import suite_identities


def quadric_model() -> GeometryModel:
    return GeometryModel(
        name="quadric",
        dimension=2,
        labels=["one", "a", "b", "ab"],
        degrees=[0, 1, 1, 2],
        cup_records={
            ("a", "a"): {},
            ("a", "b"): {"ab": Fraction(1)},
            ("b", "b"): {},
            ("a", "ab"): {},
            ("b", "ab"): {},
            ("ab", "ab"): {},
        },
        integral={"ab": Fraction(1)},
        lattice_rank=2,
        divisor_pairing={"a": [0, 1], "b": [1, 0]},
        ample={"a": Fraction(1), "b": Fraction(1)},
        chern=[
            {"one": Fraction(1)},
            {"a": Fraction(2), "b": Fraction(2)},
            {"ab": Fraction(4)},
        ],
    )


def quadric_table(model: GeometryModel) -> PrimaryTable:
    # each ruling contributes through the divisor that meets it once
    return PrimaryTable.from_records(
        model,
        [
            {"beta": [0, 1], "classes": ["a", "a", "ab"], "value": "1"},
            {"beta": [1, 0], "classes": ["b", "b", "ab"], "value": "1"},
            {"beta": [1, 1], "classes": ["ab", "ab", "ab"], "value": "1"},
        ],
    )


@pytest.fixture(scope="module")
def quadric():
    model = quadric_model()
    return model, quadric_table(model)


@pytest.fixture(scope="module")
def quadric_engine(quadric):
    model, table = quadric
    return CorrelatorEngine(model, table)


def test_quadric_validates(quadric):
    model, _ = quadric
    assert model.validate().ok
    assert model.ample_weights() == (1, 1)


def test_bidegree_curve_counts(quadric_engine, quadric):
    model, _ = quadric
    point = model.class_from_map({"ab": 1})
    counts = {
        (1, 1): 1,
        (1, 2): 1,
        (2, 1): 1,
        (1, 3): 1,
        (3, 1): 1,
        (2, 2): 12,  # rational curves of type (2,2) through seven points
        (2, 3): 96,
        (2, 4): 640,
        (3, 3): 3510,
    }
    for beta, want in counts.items():
        n = 2 * sum(beta) - 1
        assert quadric_engine.primary(beta, [point] * n) == want, beta


def test_counts_symmetric_under_factor_swap(quadric_engine, quadric):
    model, _ = quadric
    point = model.class_from_map({"ab": 1})
    assert quadric_engine.primary((2, 3), [point] * 9) == quadric_engine.primary((3, 2), [point] * 9)


def test_quadric_identity_battery(quadric):
    model, table = quadric
    result = suite_identities(model, table, count=80, qmax=2)
    assert result.ok, result.render()


def test_quadric_two_point_paths(quadric_engine, quadric):
    model, table = quadric
    policy = model.policy(2)
    basis = [model.basis_class(i) for i in range(model.rank)]
    for d in range(3):
        for x in basis:
            for y in basis:
                assert summed_correlator(quadric_engine, [(d, 0, x), (0, 0, y)], policy) == two_point_from_primaries(
                    model, table, policy, d, x, y
                )


def test_quadric_transform_identity(quadric_engine, quadric):
    model, _ = quadric
    policy = model.policy(2, max_x_degree=3, max_descendant=2)
    report = transform_identity_report(quadric_engine, policy)
    assert report.ok, str(report)


def test_quadric_divisor_choice_free(quadric):
    model, table = quadric
    base = CorrelatorEngine(model, table)
    skew = CorrelatorEngine(model, table, gamma0=model.class_from_map({"a": 1, "b": 2}))
    point = model.class_from_map({"ab": 1})
    assert base.primary((2, 2), [point] * 7) == skew.primary((2, 2), [point] * 7) == 12
    for beta in ((1, 0), (0, 1), (1, 1), (2, 1)):
        assert base.two_point(1, point, point, beta) == skew.two_point(1, point, point, beta)


def test_misoriented_table_is_caught(quadric):
    """A table inconsistent with its own pairing must fail the battery."""
    model, _ = quadric
    flipped = PrimaryTable.from_records(
        model,
        [
            {"beta": [1, 0], "classes": ["a", "a", "ab"], "value": "1"},
            {"beta": [0, 1], "classes": ["b", "b", "ab"], "value": "1"},
            {"beta": [1, 1], "classes": ["ab", "ab", "ab"], "value": "1"},
        ],
    )
    result = suite_identities(model, flipped, count=60, qmax=2)
    assert not result.ok


def test_constant_maps_split_a_mixed_class_by_degree(quadric):
    # a mixed class used to be split into single basis parts, so a and -b were
    # looked up one at a time and the missing genus-1 table was asked for
    model, _ = quadric
    one, a, b = (model.class_from_map({label: 1}) for label in ("one", "a", "b"))
    assert constant_map_correlator(1, [(0, a - b)], model) == 0
    assert constant_map_correlator(1, [(0, one)], model) == 0
    assert constant_map_correlator(1, [(0, a - b + one)], model) == 0
