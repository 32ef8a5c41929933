from __future__ import annotations

import random
import re
import sys
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest
from test_quadric import quadric_model, quadric_table
from test_verify import RESCALED_PLANE, _rescaled_table

from gwdesc.engine import (
    CorrelatorEngine,
    PrimaryTable,
    ReconstructionError,
    TableFormatError,
    UnsupportedQueryError,
)
from gwdesc.exact import narrow
from gwdesc.geometry import GeometryModel, ModelError
from gwdesc.moduli import constant_map_correlator, psi_integral_genus0
from gwdesc.phase import (
    _PrimaryTwoPoint,
    build_transform,
    potential_modified,
    potential_primary,
    potential_standard,
    transform_identity_report,
)


def cls(model, label):
    return model.class_from_map({label: 1})


# ----------------------------------------------------------------------
# primary table screening


def test_primary_table_rejects_zero_class(p1):
    with pytest.raises(TableFormatError, match="zero-class"):
        PrimaryTable.from_records(p1.model, [{"beta": [0], "classes": ["h", "h", "h"], "value": "1"}])


def test_primary_table_rejects_dimension_violation(p1):
    with pytest.raises(TableFormatError, match="dimension"):
        PrimaryTable.from_records(p1.model, [{"beta": [2], "classes": ["h", "h", "h"], "value": "1"}])


def test_primary_table_rejects_identity_insertions(p2):
    with pytest.raises(TableFormatError, match="identity"):
        PrimaryTable.from_records(
            p2.model, [{"beta": [1], "classes": ["one", "h2", "h2"], "value": "1"}]
        )


@pytest.mark.parametrize("classes", [["h", "h2"], ["h", "h", "h2", "one"]])
def test_primary_table_needs_three_classes(p2, classes):
    # a two-class record used to be misreported as a dimension violation
    row = {"beta": [1], "classes": classes, "value": "1"}
    with pytest.raises(TableFormatError, match=f"needs 3 classes, got {len(classes)}") as info:
        PrimaryTable.from_records(p2.model, [row])
    assert "dimension" not in str(info.value)
    assert str(row) in str(info.value)


@pytest.mark.parametrize(
    "rows, match",
    [
        ({"beta": [1], "classes": ["h", "h2", "h2"], "value": "1"}, "list of records, not dict"),
        (["h"], "record 'h': a record is an object"),
        ([{"classes": ["h", "h2", "h2"], "value": "1"}], "a record is an object with beta"),
        ([{"beta": [1], "value": "1"}], "a record is an object with beta"),
        ([{"beta": [1], "classes": ["h", "h2", "h2"]}], "a record is an object with beta"),
        ([{"beta": [1.5], "classes": ["h", "h2", "h2"], "value": "1"}], "beta must be a list of integers"),
        ([{"beta": 1, "classes": ["h", "h2", "h2"], "value": "1"}], "beta must be a list of integers"),
        ([{"beta": [1], "classes": "h", "value": "1"}], "classes a list of labels"),
    ],
)
def test_primary_table_rejects_malformed_records(p2, rows, match):
    with pytest.raises(TableFormatError, match=match):
        PrimaryTable.from_records(p2.model, rows)


def test_primary_table_symmetrizes(p2):
    table = PrimaryTable.from_records(
        p2.model, [{"beta": [1], "classes": ["h2", "h", "h2"], "value": "1"}]
    )
    assert table.value((1,), 2, 2, 1) == 1
    assert table.value((1,), 1, 2, 2) == 1
    assert table.value((1,), 1, 1, 1) == 0


@pytest.mark.parametrize("values", [("0", "5"), ("5", "0")])
def test_primary_table_conflicts_in_either_order(p2, values):
    # a zero value was never stored, so 0 then 5 used to be accepted and read 5
    rows = [{"beta": [1], "classes": ["h2", "h2", "h"], "value": value} for value in values]
    with pytest.raises(TableFormatError, match="conflicting values"):
        PrimaryTable.from_records(p2.model, rows)


@pytest.mark.parametrize("value", [0.5, True, "1"])
def test_primary_table_built_in_python_takes_only_exact_values(p1, value):
    # a float value was stored and the first query ended in an AttributeError from exact.narrow
    h = cls(p1.model, "h")
    with pytest.raises(TableFormatError, match=r"record \(1,\)/\(1, 1, 1\): value must be an int or a Fraction"):
        PrimaryTable(p1.model, [((1,), (1, 1, 1), value)])
    table = PrimaryTable(p1.model, [((1,), (1, 1, 1), 1)])
    assert type(table.value((1,), 1, 1, 1)) is Fraction
    assert CorrelatorEngine(p1.model, table).primary((1,), [h, h, h]) == 1


def _three_point_cases(p2):
    quadric = quadric_model()
    return [(p2.model, p2.primary, p2.model.policy(2)), (quadric, quadric_table(quadric), quadric.policy(2))]


def test_three_point_reads_the_integral_at_zero_and_the_table_elsewhere(p2):
    for model, table, policy in _three_point_cases(p2):
        basis = [model.basis_class(i) for i in range(model.rank)]
        for beta in policy.iter_effective():
            for (i, x), (j, y), (k, z) in product(enumerate(basis), repeat=3):
                if any(beta):
                    want = table.value(beta, i, j, k)
                else:
                    want = model.integrate(model.cup(model.cup(x, y), z))
                assert table.three_point(beta, x, y, z) == want, (model.name, beta, i, j, k)


def test_three_point_of_mixed_classes_sums_over_their_parts(p2):
    for model, table, policy in _three_point_cases(p2):
        basis = [model.basis_class(i) for i in range(model.rank)]
        mixed = [model.unit - basis[1], basis[1] + 2 * basis[-1]]  # one - h and h + 2·pt on P2
        nonzero = 0
        for beta in policy.iter_effective():
            for x, y, z in product(mixed + basis[1:2], repeat=3):
                want = sum(
                    cx * cy * cz * table.three_point(beta, basis[i], basis[j], basis[k])
                    for cx, i in x.parts for cy, j in y.parts for cz, k in z.parts
                )
                got = table.three_point(beta, x, y, z)
                assert got == want and type(got) in (int, Fraction), (model.name, beta, x, y, z)
                nonzero += got != 0
        assert nonzero >= 10, model.name


# ----------------------------------------------------------------------
# base evaluations on the line


def test_primary3_values(p1_engine, p1):
    m = p1.model
    h = cls(m, "h")
    assert p1_engine.descendant(0, (0,), [(0, m.unit), (0, h), (0, m.unit)]) == 1
    assert p1_engine.descendant(0, (1,), [(0, h), (0, h), (0, h)]) == 1
    assert p1_engine.descendant(0, (1,), [(0, m.unit), (0, h), (0, h)]) == 0
    assert p1_engine.primary((1,), [h, h, h]) == 1


def test_two_point_values(p1_engine, p1):
    m = p1.model
    h = cls(m, "h")
    assert p1_engine.two_point(0, h, h, (1,)) == 1
    assert p1_engine.two_point(1, m.unit, h, (1,)) == -1
    assert p1_engine.two_point(1, h, m.unit, (1,)) == 1
    assert p1_engine.two_point(3, h, h, (0,)) == 0
    assert p1_engine.two_point(5, h, h, (1,)) == 0


def test_three_point_descendant(p1_engine, p1):
    m = p1.model
    h = cls(m, "h")
    assert p1_engine.descendant(0, (1,), [(1, h), (0, h), (0, m.unit)]) == 1
    assert p1_engine.descendant(0, (1,), [(0, h), (0, h), (0, h)]) == 1
    assert p1_engine.descendant(0, (1,), [(3, h), (0, h), (0, h)]) == 0
    assert p1_engine.descendant(0, (1,), [(1, m.unit), (0, h), (0, h)]) == 0


def test_unstable_range(p1_engine, p1):
    m = p1.model
    h = cls(m, "h")
    assert p1_engine.one_point(0, h, (1,)) == 1
    assert p1_engine.zero_point((1,)) == 1
    assert p1_engine.one_point(0, h, (1,), route="dilaton") == 1
    assert p1_engine.zero_point((1,), route="dilaton") == 1
    assert p1_engine.descendant(0, (1,), [(0, h)]) == 1
    assert p1_engine.descendant(0, (1,), []) == 1
    # the dilaton relation recovers the two-point value
    assert p1_engine.two_point(1, m.unit, h, (1,)) == (2 * 0 - 2 + 1) * p1_engine.one_point(0, h, (1,))


def test_line_one_point_descendants_closed_form(p1_engine, p1):
    """The classical inverse-squared-factorial series for the line."""
    from math import factorial

    m = p1.model
    h = cls(m, "h")
    for d in range(1, 6):
        assert p1_engine.one_point(2 * d - 2, h, (d,)) == Fraction(1, factorial(d) ** 2)
    # the same values through the dilaton route
    for d in range(1, 5):
        assert p1_engine.one_point(2 * d - 2, h, (d,), route="dilaton") == Fraction(
            1, factorial(d) ** 2
        )


@pytest.mark.parametrize("beta", [200, 220])
def test_deep_two_point_at_the_default_recursion_limit(p1, beta):
    """<tau_{2b-2}(h) h>_b on the line is b/(b!)^2.  Each level of the unstable chain
    costs two frames (``_unstable`` and ``_gen_apply_relation``); a step that went
    through ``_gen`` as well would cost three and stop near b = 165 at this limit."""
    from math import factorial

    assert sys.getrecursionlimit() == 1000
    engine = CorrelatorEngine(p1.model, p1.primary)
    h = cls(p1.model, "h")
    assert engine.two_point(2 * beta - 2, h, h, (beta,)) == Fraction(beta, factorial(beta) ** 2)


def test_descendant_dispatch(p1_engine, p2_engine, p1, p2):
    m = p1.model
    h = cls(m, "h")
    assert p1_engine.descendant(0, (0,), [(1, h), (0, h), (0, h), (0, h)]) == constant_map_correlator(
        0, [(1, h), (0, h), (0, h), (0, h)], m
    )
    with pytest.raises(UnsupportedQueryError, match="out of scope"):
        p1_engine.descendant(1, (1,), [(0, h)])
    assert p2_engine.descendant(1, (0,), [(1, p2.model.unit)]) == Fraction(1, 8)


# ----------------------------------------------------------------------
# modified correlators


def test_modified_three_marks_with_power_vanishes(p2_engine, p2):
    m = p2.model
    assert p2_engine.modified((1,), [(1, cls(m, "h")), (0, cls(m, "h2")), (0, cls(m, "h2"))]) == 0


def test_modified_zero_class_merges_levels(p2_engine, p2):
    m = p2.model
    h = cls(m, "h")
    got = p2_engine.modified((0,), [(1, h), (0, h), (0, m.unit), (0, m.unit)])
    want = p2_engine.descendant(0, (0,), [(1, h), (0, h), (0, m.unit), (0, m.unit)])
    assert got == want == 1


def test_modified_point_target_multinomial(point_engine, point):
    one = point.model.unit
    got = point_engine.modified((), [(1, one), (1, one), (1, one), (0, one), (0, one), (0, one)])
    assert got == psi_integral_genus0([1, 1, 1, 0, 0, 0]) == 6


def test_modified_reference_choice_is_free(point_engine, point, p2_engine, p2):
    one = point.model.unit
    pairs = [(2, one), (1, one), (1, one), (0, one), (0, one), (0, one), (0, one)]
    default = point_engine.modified((), pairs)
    assert default == psi_integral_genus0([2, 1, 1, 0, 0, 0, 0]) == 12
    # positions refer to the canonically sorted expansion: the three power
    # carriers land at the end, positions 4, 5 and 6
    for refs in [(4, 0, 1), (4, 3, 6), (5, 0, 1), (6, 5, 2), (6, 2, 4)]:
        assert point_engine.modified((), pairs, refs=refs) == default
    m = p2.model
    pairs2 = [(1, cls(m, "h")), (0, cls(m, "h2")), (0, cls(m, "h")), (0, cls(m, "h"))]
    base = p2_engine.modified((1,), pairs2)
    for refs in [(3, 0, 1), (3, 2, 1)]:
        assert p2_engine.modified((1,), pairs2, refs=refs) == base


def test_modified_refs_are_three_distinct_marks_of_the_query(p2_engine, p2):
    """refs are three distinct positions of the sorted expansion at every number of marks:
    a negative position would split a mark twice (0 for the true 1), one past the end would
    index outside the query, and three marks are screened like four."""
    m = p2.model
    h, h2 = cls(m, "h"), cls(m, "h2")
    pairs = [(1, h2), (0, h2), (0, h), (0, m.unit)]  # the power carrier sorts last
    assert p2_engine.modified((1,), pairs) == p2_engine.modified((1,), pairs, refs=(3, 0, 1)) == 1
    three = [(1, h), (0, h), (0, h2)]
    assert p2_engine.modified((1,), three, refs=(2, 0, 1)) == 0
    for query, refs in [(pairs, (-1, 0, 1)), (pairs, (3, 0, 9)), (pairs, (0, 1, 2)), (three, (0, 1, 2))]:
        with pytest.raises(ValueError, match="refs must be three distinct positions"):
            p2_engine.modified((1,), query, refs=refs)


@pytest.mark.parametrize(
    "query, error, match",
    [
        (
            lambda e, h, h2: e.generalized((1,), [(1, 0, h2), (0, 0, h2), (0, 0, h)], reduce_at=0),
            ValueError,
            "reduce_at must point at a slot with a positive cotangent power",
        ),
        (
            lambda e, h, h2: e.modified((1,), [(0, h2), (0, h2)]),
            UnsupportedQueryError,
            "modified correlators need at least three marks",
        ),
        (lambda e, h, h2: e.one_point(0, h2, (1,), route="x"), ValueError, "route must be 'divisor' or 'dilaton'"),
        (lambda e, h, h2: e.zero_point((1,), route="x"), ValueError, "route must be 'divisor' or 'dilaton'"),
    ],
    ids=["reduce-at-level-0", "modified-two-marks", "one-point-route", "zero-point-route"],
)
def test_malformed_engine_queries_raise(p2_engine, p2, query, error, match):
    m = p2.model
    with pytest.raises(error, match=match):
        query(p2_engine, cls(m, "h"), cls(m, "h2"))


def test_reduction_divisor_that_misses_a_class_raises():
    # the ruling a pairs to zero with the class (1, 0) of the other ruling
    model = quadric_model()
    engine = CorrelatorEngine(model, quadric_table(model), gamma0=cls(model, "a"))
    with pytest.raises(ValueError, match=re.escape("reduction divisor pairs to zero with (1, 0)")):
        engine.two_point(0, cls(model, "ab"), cls(model, "a"), (1, 0))


@pytest.mark.parametrize("name", ["P1", "P2", "quadric"])
def test_pulled_back_powers_past_the_moduli_dimension_vanish(p1, p2, name):
    """``_gen`` returns 0 unevaluated when the pulled-back powers sum past n - 3.
    The top step of ``modified(..., refs=...)`` is the boundary-splitting route,
    which that rule does not screen; it must give 0 on every such query too."""
    if name == "quadric":
        model = quadric_model()
        table = quadric_table(model)
    else:
        fixture = p1 if name == "P1" else p2
        model, table = fixture.model, fixture.primary
    engine = CorrelatorEngine(model, table)
    top_steps = []
    core = engine._modified_core
    engine._modified_core = lambda beta, ins, refs: top_steps.append(ins) or core(beta, ins, refs)
    slots = [(e, model.basis_class(a)) for e, a in product(range(3), range(model.rank))]
    for beta in model.policy(2).iter_effective():
        for n in (4, 5):
            for pairs in combinations_with_replacement(slots, n):
                if sum(e for e, _ in pairs) > n - 3:
                    # the canonical expansion sorts the largest power last
                    assert engine.modified(beta, list(pairs), refs=(n - 1, 0, 1)) == 0, (beta, pairs)
    # the queries that pass the dimension count, so reach the unscreened top step
    assert len(top_steps) == {"P1": 90, "P2": 366, "quadric": 2207}[name]


def test_gen_is_entered_with_at_least_three_marks(p1, p2):
    """Below three marks the vanishing bound n - 3 of ``_gen`` would be negative and
    would zero every query, so no route may enter it with fewer."""
    seen = []
    quadric = quadric_model()
    for model, table, (qmax, xdeg, dmax) in (
        (p2.model, p2.primary, (2, 4, 2)),
        (quadric, quadric_table(quadric), (2, 3, 2)),
        (p1.model, p1.primary, (3, 5, 3)),
    ):
        engine = CorrelatorEngine(model, table)
        gen = engine._gen

        def recording(beta, ins, gen=gen):
            seen.append(len(ins))
            return gen(beta, ins)

        engine._gen = recording  # the recursions look it up on the instance
        policy = model.policy(qmax, max_x_degree=xdeg, max_descendant=dmax)
        assert transform_identity_report(engine, policy).ok
        potential_primary(engine, policy)
        h = model.basis_class(model.basis_of_degree(1)[0])
        for beta in policy.iter_effective():
            engine.modified(beta, [(2, h), (1, h), (0, h), (0, h), (0, model.unit)], refs=(4, 0, 1))
            engine.generalized(beta, [(2, 1, h), (1, 0, h), (0, 0, h), (0, 0, h)], reduce_at=3)
    assert len(seen) > 1000 and min(seen) == 3


def psi_boundary_partitions(i: int, j: int, k: int, n: int) -> list[tuple[int, ...]]:
    """Mark subsets S expanding the i-th cotangent class into boundary divisors.

    On the genus-0 moduli with marks 1..n, the cotangent class at mark i is
    the sum of the boundary divisors separating i from two chosen reference
    marks j and k; the admissible subsets contain i, avoid j and k, and have
    between 2 and n-2 elements so both sides stay stable.  It is the
    mark-by-mark reference that the engine's grouped splitting is checked against.
    """
    if len({i, j, k}) != 3:
        raise ValueError("marks i, j, k must be distinct")
    marks = range(1, n + 1)
    if not {i, j, k} <= set(marks):
        raise ValueError("marks must lie in 1..n")
    rest = [m for m in marks if m not in (i, j, k)]
    subsets = [
        tuple(sorted((i,) + chosen)) for r in range(1, n - 2) for chosen in combinations(rest, r)
    ]
    subsets.sort(key=lambda s: (len(s), s))
    return subsets


def test_boundary_partitions_enumeration():
    assert psi_boundary_partitions(1, 2, 3, 4) == [(1, 4)]
    assert psi_boundary_partitions(1, 2, 3, 5) == [(1, 4), (1, 5), (1, 4, 5)]
    with pytest.raises(ValueError):
        psi_boundary_partitions(1, 1, 2, 4)
    with pytest.raises(ValueError):
        psi_boundary_partitions(1, 2, 9, 4)
    assert psi_boundary_partitions(2, 1, 3, 4) == [(2, 4)]


def test_boundary_partitions_match_a_brute_force_reference():
    for n in range(3, 10):
        subsets = [
            tuple(m for m in range(1, n + 1) if mask >> (m - 1) & 1) for mask in range(1 << n)
        ]
        for i, j, k in permutations(range(1, n + 1), 3):
            want = sorted(
                (s for s in subsets if i in s and j not in s and k not in s and 2 <= len(s) <= n - 2),
                key=lambda s: (len(s), s),
            )
            assert psi_boundary_partitions(i, j, k, n) == want


def test_boundary_partition_count_matches_psi_degree():
    # the divisor sum evaluates the first cotangent class on the 4-marked space
    assert len(psi_boundary_partitions(1, 2, 3, 4)) == psi_integral_genus0([1, 0, 0, 0])


def test_modified_matches_markwise_boundary_expansion(p2_engine, p2):
    """Grouped splitting against a literal mark-by-mark expansion."""
    m = p2.model
    engine = p2_engine
    duals = m.dual_basis()
    pairs = [(1, cls(m, "h")), (0, cls(m, "h2")), (0, cls(m, "h")), (0, cls(m, "h"))]
    beta = (1,)

    def markwise(beta, pairs):
        n = len(pairs)
        total = Fraction(0)
        for subset in psi_boundary_partitions(1, 2, 3, n):
            side = set(subset)
            for b1 in range(beta[0] + 1):
                beta1, beta2 = (b1,), (beta[0] - b1,)
                for a in range(m.rank):
                    left_pairs = [(0, pairs[0][1])] + [pairs[p - 1] for p in sorted(side - {1})]
                    left = engine.modified(beta1, left_pairs + [(0, m.basis_class(a))])
                    if not left:
                        continue
                    right_pairs = [pairs[p - 1] for p in range(1, n + 1) if p not in side]
                    right = engine.modified(beta2, right_pairs + [(0, duals[a])])
                    total += left * right
        return total

    # position 0 carries the power; marks 2 and 3 are the reference pair,
    # matching the engine's deterministic choice after canonical sorting
    got = engine.modified(beta, pairs)
    want = markwise(beta, pairs)
    assert got == want


# ----------------------------------------------------------------------
# generalized correlators


def test_generalized_base_case_is_modified(p2_engine, p2):
    m = p2.model
    triples = [(0, 1, cls(m, "h")), (0, 0, cls(m, "h2")), (0, 0, cls(m, "h")), (0, 0, cls(m, "h"))]
    pairs = [(1, cls(m, "h")), (0, cls(m, "h2")), (0, cls(m, "h")), (0, cls(m, "h"))]
    assert p2_engine.generalized((1,), triples) == p2_engine.modified((1,), pairs)


def test_generalized_reproduces_three_point(p1_engine, p1, p2_engine, p2):
    m = p1.model
    h = cls(m, "h")
    one = m.unit
    v1 = p1_engine.generalized((1,), [(1, 0, h), (0, 0, h), (0, 0, one)])
    v2 = p1_engine.descendant(0, (1,), [(1, h), (0, h), (0, one)])
    assert v1 == v2 == 1
    # a second route: the string equation <tau_d(x) y 1>_beta = <tau_{d-1}(x) y>_beta, its right
    # side from the primary-only two-point route, which never consults the engine
    nonzero = 0
    for engine, fixture in ((p1_engine, p1), (p2_engine, p2)):
        m = fixture.model
        policy = m.policy(3)
        route = _PrimaryTwoPoint(m, fixture.primary, policy)
        basis = [m.basis_class(i) for i in range(m.rank)]
        for d in range(1, 5):
            for x in basis:
                for y in basis:
                    lowered = route.series(d - 1, x, y)
                    for beta in policy.iter_effective():
                        if any(beta):
                            value = engine.generalized(beta, [(d, 0, x), (0, 0, y), (0, 0, m.unit)])
                            assert value == lowered.coefficient(beta), (m.name, d, x, y, beta)
                            nonzero += value != 0
    assert nonzero == 16


def test_generalized_zero_class_collapse(p1_engine, p1, point_engine, point):
    one = point.model.unit
    got = point_engine.generalized((), [(1, 1, one)] + [(0, 0, one)] * 4)
    want = constant_map_correlator(0, [(2, one)] + [(0, one)] * 4, point.model)
    assert got == want == 1
    m = p1.model
    h = cls(m, "h")
    got = p1_engine.generalized((0,), [(1, 1, h), (0, 0, h), (0, 0, h), (0, 0, h), (0, 0, m.unit)])
    want = constant_map_correlator(0, [(2, h), (0, h), (0, h), (0, h), (0, m.unit)], m)
    assert got == want


def test_generalized_needs_stable_range(p1_engine, p1):
    with pytest.raises(UnsupportedQueryError):
        p1_engine.generalized((1,), [(1, 0, cls(p1.model, "h")), (0, 0, p1.model.unit)])


def test_reduction_slot_independence(p2_engine, p2):
    m = p2.model
    h2 = cls(m, "h2")
    h = cls(m, "h")
    triples = [(1, 0, h2), (1, 0, h2), (0, 0, h2), (0, 0, h)]
    beta = (2,)
    # after canonical sorting the level-one slots sit at positions 2 and 3
    values = {p2_engine.generalized(beta, triples, reduce_at=j) for j in (2, 3)}
    assert len(values) == 1
    assert values.pop() == p2_engine.generalized(beta, triples)


# ----------------------------------------------------------------------
# n-point primaries reconstructed from the three-point table


def test_plane_counts_via_engine(p2_engine, p2):
    m = p2.model
    h2 = cls(m, "h2")
    assert p2_engine.primary((1,), [h2, h2, cls(m, "h")]) == 1
    assert p2_engine.primary((2,), [h2] * 5) == 1
    assert p2_engine.primary((3,), [h2] * 8) == 12


def test_identity_insertion_kills_stable_primaries(p2_engine, p2):
    m = p2.model
    h2 = cls(m, "h2")
    assert p2_engine.primary((1,), [m.unit, h2, h2, cls(m, "h")]) == 0


def test_divisor_removal(p2_engine, p2):
    m = p2.model
    h = cls(m, "h")
    h2 = cls(m, "h2")
    lhs = p2_engine.primary((2,), [h, h2, h2, h2, h2, h2])
    rhs = 2 * p2_engine.primary((2,), [h2] * 5)
    assert lhs == rhs == 2


# ----------------------------------------------------------------------
# relation checks and engine contracts


@pytest.mark.parametrize(
    "beta,key",
    [
        ((1,), [(0, "h"), (0, "h"), (0, "h")]),
        ((1,), [(1, "h"), (0, "h"), (0, "one")]),
        ((2,), [(1, "h"), (1, "h"), (0, "h"), (0, "h")]),
        ((0,), [(1, "h"), (0, "h"), (0, "one"), (0, "one")]),
    ],
)
def test_divisor_and_dilaton_relations_p1(p1_engine, p1, beta, key):
    m = p1.model
    pairs = [(d, cls(m, label)) for d, label in key]
    lhs, rhs = p1_engine.check_divisor_relation(beta, pairs)
    assert lhs == rhs
    lhs, rhs = p1_engine.check_dilaton_relation(beta, pairs)
    assert lhs == rhs


def test_dilaton_on_three_marks(p1_engine, p1):
    m = p1.model
    h = cls(m, "h")
    lhs, rhs = p1_engine.check_dilaton_relation((1,), [(0, h), (0, h), (0, h)])
    assert lhs == rhs == 1


def test_dilaton_on_two_mark_base(p1_engine, p1):
    # 2g-2+n vanishes on a two-mark base, so the inserted side must too
    m = p1.model
    h = cls(m, "h")
    lhs, rhs = p1_engine.check_dilaton_relation((1,), [(0, h), (0, h)])
    assert rhs == 0
    assert lhs == 0


def test_permutation_invariance(p2_engine, p2):
    m = p2.model
    rng = random.Random(17)
    pairs = [(1, cls(m, "h2")), (0, cls(m, "h2")), (0, cls(m, "h")), (0, cls(m, "h"))]
    base = p2_engine.descendant(0, (1,), pairs)
    for _ in range(5):
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        assert p2_engine.descendant(0, (1,), shuffled) == base


def test_dimension_shortcircuit_matches_recursion(p1, p2):
    checked = CorrelatorEngine(p2.model, p2.primary)
    unchecked = CorrelatorEngine(p2.model, p2.primary, check_dimension=False)
    m = p2.model
    rng = random.Random(23)
    basis = [m.basis_class(i) for i in range(m.rank)]
    for _ in range(40):
        n = rng.randint(3, 4)
        beta = (rng.randint(0, 2),)
        pairs = [(rng.choice((0, 0, 1, 2)), rng.choice(basis)) for _ in range(n)]
        assert checked.descendant(0, beta, pairs) == unchecked.descendant(0, beta, pairs)
    # the unstable range: two-, one- and zero-point values at nonzero classes
    nonzero = 0
    for fixture in (p1, p2):
        checked = CorrelatorEngine(fixture.model, fixture.primary)
        unchecked = CorrelatorEngine(fixture.model, fixture.primary, check_dimension=False)
        basis = [fixture.model.basis_class(i) for i in range(fixture.model.rank)]
        for beta in ((1,), (2,), (3,)):
            values = []
            for d1, d2, x, y in product(range(4), range(4), basis, basis):
                values.append((checked.two_point_general(d1, x, d2, y, beta), unchecked.two_point_general(d1, x, d2, y, beta)))
            for route in ("divisor", "dilaton"):
                for d, x in product(range(6), basis):
                    values.append((checked.one_point(d, x, beta, route), unchecked.one_point(d, x, beta, route)))
                values.append((checked.zero_point(beta, route), unchecked.zero_point(beta, route)))
            for want, got in values:
                assert want == got
                nonzero += bool(want)
    assert nonzero == 98  # of the 816 values compared


def test_every_memo_key_passes_the_dimension_count(p1, p2):
    """The count is screened only at the entry, so every node the recursions
    reach from a screened query must pass it without a screen of its own."""
    engines, reports = [], []
    quadric = quadric_model()
    for model, table, (qmax, xdeg, dmax) in (
        (p2.model, p2.primary, (2, 4, 2)),
        (quadric, quadric_table(quadric), (2, 3, 2)),
    ):
        engine = CorrelatorEngine(model, table)
        reports.append(transform_identity_report(engine, model.policy(qmax, max_x_degree=xdeg, max_descendant=dmax)))
        engines.append(engine)
    for fixture in (p1, p2):
        engine = CorrelatorEngine(fixture.model, fixture.primary)
        slots = [(d, fixture.model.basis_class(a)) for d, a in product(range(3), range(fixture.model.rank))]
        for beta, n in product(((0,), (1,), (2,)), range(5)):
            for pairs in combinations_with_replacement(slots, n):
                engine.descendant(0, beta, list(pairs))
        engines.append(engine)
    for engine in engines:
        assert engine._memo
        invalid = [key for key in engine._memo if not engine._dimension_ok(key[1], key[2])]
        assert not invalid, f"{len(invalid)} of {len(engine._memo)} nodes fail the count, e.g. {invalid[0]}"
    assert all(report.ok for report in reports)


class _RaisingTable(PrimaryTable):
    def value(self, beta, ia, ib, ic):
        raise AssertionError(f"table lookup at {beta}")


def test_dimension_invalid_queries_never_reach_the_table(p2):
    """Every public entry screens through `_sum`: a query failing the count is
    0 without a table lookup (at class 1 on the plane, n marks need degree sum n + 2)."""
    m = p2.model
    engine = CorrelatorEngine(m, _RaisingTable(m))
    h, h2 = cls(m, "h"), cls(m, "h2")
    beta = (1,)
    with pytest.raises(AssertionError, match="table lookup"):
        engine.descendant(0, beta, [(0, h2), (0, h2), (0, h)])
    queries = {
        "descendant": lambda: engine.descendant(0, beta, [(0, h2), (0, h2), (0, h2)]),
        "generalized-reduce-at": lambda: engine.generalized(beta, [(1, 0, h2), (0, 0, h2), (0, 0, h2)], reduce_at=2),
        "modified-refs": lambda: engine.modified(beta, [(1, h2), (0, h2), (0, h2), (0, h2)], refs=(3, 0, 1)),
        "descendant-cotangent": lambda: engine.descendant(0, beta, [(1, h2), (0, h2), (0, h2)]),
        "primary": lambda: engine.primary(beta, [h2, h2, h2]),
        "two_point_general": lambda: engine.two_point_general(1, h2, 0, h2, beta),
        "one_point-divisor": lambda: engine.one_point(2, h2, beta, "divisor"),
        "one_point-dilaton": lambda: engine.one_point(2, h2, beta, "dilaton"),
        "zero_point-divisor": lambda: engine.zero_point(beta, "divisor"),
        "zero_point-dilaton": lambda: engine.zero_point(beta, "dilaton"),
    }
    for entry, query in queries.items():
        assert query() == 0, entry


def test_gamma0_independence_smoke(p2):
    base = CorrelatorEngine(p2.model, p2.primary)
    scaled = CorrelatorEngine(p2.model, p2.primary, gamma0=3 * p2.model.ample)
    m = p2.model
    h2 = cls(m, "h2")
    for beta in ((1,), (2,), (3,)):
        assert base.two_point(1, h2, h2, beta) == scaled.two_point(1, h2, h2, beta)
        assert base.zero_point(beta) == scaled.zero_point(beta)
    assert base.primary((2,), [h2] * 5) == scaled.primary((2,), [h2] * 5)


def test_non_integral_divisor_pairing_gives_the_same_values(p2):
    # gamma0 = ample/2 pairs to 1/2 with the line, so the engine's pairing cache
    # holds a Fraction there, a branch no fixture's ample divisor reaches
    m = p2.model
    base = CorrelatorEngine(m, p2.primary)
    half = CorrelatorEngine(m, p2.primary, gamma0=Fraction(1, 2) * m.ample)
    basis = [m.basis_class(i) for i in range(m.rank)]
    slots = [(d, x) for d in range(3) for x in basis]
    checked = 0
    for beta in ((1,), (2,)):
        for pairs in combinations_with_replacement(slots, 3):
            want = base.descendant(0, beta, list(pairs))
            assert half.descendant(0, beta, list(pairs)) == want, (beta, pairs)
            checked += want != 0
        for (d1, x), (d2, y) in product(slots, repeat=2):
            want = base.two_point_general(d1, x, d2, y, beta)
            assert half.two_point_general(d1, x, d2, y, beta) == want, (beta, d1, d2)
            checked += want != 0
    assert checked >= 30
    assert half._g0.cache_info().currsize and base._g0.cache_info().currsize
    assert half._g0((1,)) == Fraction(1, 2) and type(half._g0((1,))) is Fraction
    assert base._g0((1,)) == 1 and type(base._g0((1,))) is int


@pytest.mark.parametrize("name", ["p1", "p2", "point"])
def test_public_values_are_fractions(request, name):
    # the engine may hold integral coefficients as ints inside; nothing it returns may be one
    fixture = request.getfixturevalue(name)
    m = fixture.model
    engine = CorrelatorEngine(m, fixture.primary)
    basis = [m.basis_class(i) for i in range(m.rank)]
    classes = basis + [sum((Fraction(i + 1, 2) * b for i, b in enumerate(basis)), m.zero_class())]
    betas = [(b,) for b in range(3)] if m.lattice_rank else [()]
    values = []
    for beta in betas:
        for x, y, z in combinations_with_replacement(classes, 3):
            for d in range(3):
                values.append(engine.descendant(0, beta, [(d, x), (0, y), (0, z)]))
                values.append(engine.generalized(beta, [(d, 0, x), (0, d, y), (0, 0, z)]))
                values.append(engine.modified(beta, [(d, x), (0, y), (0, z), (1, z)]))
        for d in range(3):
            for x, y in product(classes, repeat=2):
                values.append(engine.two_point(d, x, y, beta))
            for x in classes:
                values += [engine.one_point(d, x, beta), engine.one_point(d, x, beta, route="dilaton")]
    policy = m.policy(2 if m.lattice_rank else 0, max_x_degree=4, max_descendant=2)
    for potential in (potential_standard, potential_modified, potential_primary):
        values += [c for _, series in potential(engine, policy).items() for _, c in series.items()]
    values += [c for _, series in build_transform(engine, policy).items() for _, c in series.items()]
    assert len(values) > 60 and any(values)
    assert {type(v) for v in values} == {Fraction}


def test_the_memo_holds_no_integral_fraction(p1, p2):
    """The memo keeps an integral value as an int, by every recursion kind: after a P2
    standard potential, whose memo holds generalized cores of all four kinds (descendant,
    mixed, modified and primary), and P1's one- and zero-point values by both unstable
    routes no memoized value is a Fraction with denominator 1, and the n-point primaries'
    divisor pairings are cached as ints."""
    p2_engine = CorrelatorEngine(p2.model, p2.primary)
    potential_standard(p2_engine, p2.model.policy(3, max_x_degree=5, max_descendant=3))
    cores = [key[2] for key in p2_engine._memo if key[0] == "g"]
    kinds = {(any(d for d, _, _ in ins), any(e for _, e, _ in ins)) for ins in cores}
    assert kinds == {(True, False), (True, True), (False, True), (False, False)}
    p1_engine = CorrelatorEngine(p1.model, p1.primary)
    h = cls(p1.model, "h")
    for route in ("divisor", "dilaton"):
        assert p1_engine.zero_point((1,), route=route) == 1
        assert p1_engine.one_point(2, h, (2,), route=route) == Fraction(1, 4)
    assert len(p1_engine._memo) > 10
    for engine in (p2_engine, p1_engine):
        values = list(engine._memo.values())
        assert int in {type(v) for v in values} <= {int, Fraction}
        assert [v for v in values if type(v) is Fraction and v.denominator == 1] == []
    assert Fraction(1, 4) in p1_engine._memo.values()  # a value that is not integral stays a Fraction
    pairings = p2_engine._basis_pairing
    assert pairings.cache_info().currsize
    assert {type(pairings(a, beta)) for a in p2.model.basis_of_degree(1) for beta in ((1,), (2,), (3,))} == {int}


class _FirstSlotEngine(CorrelatorEngine):
    """The reference lowering rule: ``_gen`` lowers a core at its first slot with a positive
    cotangent power, not at its cheapest one; every other step is the engine's own."""

    def _gen(self, beta, ins):
        key = ("g", beta, ins)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        j, pulled = None, 0
        for p, (d, e, _) in enumerate(ins):
            if d >= 1 and j is None:
                j = p
            pulled += e
        if pulled > len(ins) - 3:
            return 0
        if key in self._active:
            raise ReconstructionError(f"reduction cycle at {key}")
        self._active.add(key)
        try:
            if j is not None:
                value = self._gen_apply_relation(beta, ins, j)
            elif pulled:
                value = self._modified_core(beta, ins)
            else:
                value = self._primary(beta, tuple(a for _, _, a in ins))
        finally:
            self._active.discard(key)
        self._memo[key] = value = narrow(value)
        return value


@pytest.mark.parametrize(
    "name, window, memo",
    [
        ("P1", (3, 6, 4), (96, 96)),
        ("P2", (3, 5, 3), (993, 1138)),
        ("quadric", (3, 4, 3), (1983, 2071)),
        ("P2-rescaled", (3, 5, 3), (993, 1138)),
    ],
)
def test_lowering_at_the_cheapest_slot_matches_the_first_slot(p1, p2, name, window, memo):
    """Theorem 1.2 holds at every slot: the standard potential with each core lowered at its
    slot of least d + deg(a) equals, key for key, the one with each core lowered at its first
    positive-level slot.  The memo sizes of both are pinned: on P2 at (3,5,3) the cheapest slot
    leaves 993 entries where the first slot leaves 1,138, and on P1 the two rules pick the same
    slots.  The quadric runs at (3,4,3), since at (2,4,2) both rules build the same memo."""
    if name == "P2-rescaled":
        model = GeometryModel.from_dict(RESCALED_PLANE)
        table = PrimaryTable.from_records(model, _rescaled_table("4"))
    elif name == "quadric":
        model = quadric_model()
        table = quadric_table(model)
    else:
        fixture = p1 if name == "P1" else p2
        model, table = fixture.model, fixture.primary
    policy = model.policy(window[0], max_x_degree=window[1], max_descendant=window[2])
    engine, reference = CorrelatorEngine(model, table), _FirstSlotEngine(model, table)
    standard = potential_standard(engine, policy)
    assert not standard.is_zero()
    assert standard == potential_standard(reference, policy)
    assert (len(engine._memo), len(reference._memo)) == memo


def test_gen_lowers_the_cheapest_slot_and_the_first_on_a_tie(p2):
    """``_gen`` lowers the d >= 1 slot of least d + deg(a): τ_2(one) before τ_1(h2), and of
    τ_1(h2) and τ_2(h), which tie at 3, the first in the sorted core."""
    engine = CorrelatorEngine(p2.model, p2.primary)
    one, h, h2 = (p2.model.label_index(label) for label in ("one", "h", "h2"))
    picks = []
    lower = engine._gen_apply_relation

    def recording(beta, ins, j):
        picks.append((ins, j))
        return lower(beta, ins, j)

    engine._gen_apply_relation = recording  # the recursions look it up on the instance
    for core, slot in [(((0, 0, h2), (1, 0, h2), (2, 0, one)), 2), (((0, 0, h2), (1, 0, h2), (2, 0, h)), 1)]:
        picks.clear()
        engine._gen((1,), core)
        assert picks[0] == (core, slot)


def test_cache_transparency(p1, p2):
    """The uncached engine's memo stores nothing, at every recursion tag and by both
    unstable routes, and every value equals the cached engine's (P2 has no dimension-valid
    zero-point query, so P1 gives those)."""
    h, h2 = cls(p2.model, "h"), cls(p2.model, "h2")
    routes = ("divisor", "dilaton")
    queries = [
        (p2, [
            lambda e: e.descendant(0, (1,), [(1, h2), (0, h2), (0, h)]),
            lambda e: e.descendant(0, (2,), [(0, h2)] * 5),
            lambda e: e.descendant(0, (1,), [(2, h2), (0, h2), (0, h2), (0, h)]),
            lambda e: e.two_point(3, h2, h2, (2,)),
            *(lambda e, route=route: e.one_point(4, h2, (2,), route=route) for route in routes),
        ]),
        (p1, [lambda e, route=route: e.zero_point((1,), route=route) for route in routes]),
    ]
    tags = set()
    for fixture, calls in queries:
        cached = CorrelatorEngine(fixture.model, fixture.primary, use_cache=True)
        uncached = CorrelatorEngine(fixture.model, fixture.primary, use_cache=False)
        for query in calls:
            assert query(cached) == query(uncached)
        assert uncached._memo == {}
        # a one- or zero-point key is (tag, beta, ins, route); key[::3] is (tag, route)
        tags |= {key[0] if key[0] in ("g", "2") else key[::3] for key in cached._memo}
    assert tags == {"g", "2", *(("1", route) for route in routes), *(("0", route) for route in routes)}


def test_effectivity_guard(p1_engine):
    with pytest.raises(ValueError, match="effective"):
        p1_engine.descendant(0, (-1,), [])


@pytest.mark.parametrize(
    "entry",
    [
        "descendant",
        "generalized",
        "generalized-reduce-at",
        "modified",
        "modified-refs",
        "descendant_three_marks",
        "two_point",
        "two_point_general",
        "primary",
        "one_point",
        "zero_point",
    ],
)
def test_every_entry_rejects_a_non_effective_class(p1_engine, p1, entry):
    # a class of the wrong rank used to give a value at some entries (1 from
    # descendant(0, (0, 0), [(0, h), (0, one), (0, one)])) and an error at others
    h = cls(p1.model, "h")
    calls = lambda beta: {  # noqa: E731
        "descendant": lambda: p1_engine.descendant(0, beta, [(1, h), (0, h), (0, h)]),
        "generalized": lambda: p1_engine.generalized(beta, [(0, 1, h), (0, 0, h), (0, 0, h)]),
        "generalized-reduce-at": lambda: p1_engine.generalized(
            beta, [(1, 0, h), (0, 0, h), (0, 0, h)], reduce_at=2
        ),
        "modified": lambda: p1_engine.modified(beta, [(1, h), (0, h), (0, h), (0, h)]),
        "modified-refs": lambda: p1_engine.modified(beta, [(1, h), (0, h), (0, h), (0, h)], refs=(0, 1, 2)),
        # a three-mark query whose positive level is not at the first slot
        "descendant_three_marks": lambda: p1_engine.descendant(0, beta, [(0, h), (1, h), (0, h)]),
        "two_point": lambda: p1_engine.two_point(1, h, h, beta),
        "two_point_general": lambda: p1_engine.two_point_general(1, h, 0, h, beta),
        "primary": lambda: p1_engine.primary(beta, [h, h, h, h]),
        "one_point": lambda: p1_engine.one_point(0, h, beta),
        "zero_point": lambda: p1_engine.zero_point(beta),
    }
    with pytest.raises(ValueError, match="curve classes must be effective"):
        calls((-1,))[entry]()
    for beta in ((0, 0), (1, 0), ()):
        with pytest.raises(ModelError, match=rf"curve class {re.escape(str(beta))} has rank != 1"):
            calls(beta)[entry]()


@pytest.mark.parametrize("beta", [(0,), (1,)])
def test_negative_genus_is_rejected_at_every_class(p1_engine, p1, beta):
    h = cls(p1.model, "h")
    with pytest.raises(ValueError, match="genus must be non-negative"):
        p1_engine.descendant(-1, beta, [(1, p1.model.unit), (0, h)])


@pytest.mark.parametrize("beta", [(0,), (1,)])
@pytest.mark.parametrize(
    "entry",
    [
        "descendant",
        "generalized-cotangent",
        "generalized-pulled-back",
        "generalized-reduce-at",
        "modified",
        "modified-refs",
        "descendant_three_marks",
        "two_point",
        "two_point_general",
        "one_point",
    ],
)
def test_every_entry_rejects_a_negative_level(p2_engine, p2, entry, beta):
    # a negative level used to be a silent 0 at every entry but the zero-class
    # descendant: two_point(-1, h2, h2, (1,)) returned 0
    m = p2.model
    h, h2 = cls(m, "h"), cls(m, "h2")
    calls = {
        "descendant": lambda: p2_engine.descendant(0, beta, [(-1, h2), (0, h2), (0, h)]),
        "generalized-cotangent": lambda: p2_engine.generalized(beta, [(-1, 0, h2), (0, 0, h2), (0, 0, h)]),
        "generalized-pulled-back": lambda: p2_engine.generalized(beta, [(0, -1, h2), (0, 0, h2), (0, 0, h)]),
        "generalized-reduce-at": lambda: p2_engine.generalized(
            beta, [(1, 0, h2), (-1, 0, h2), (0, 0, h)], reduce_at=2
        ),
        "modified": lambda: p2_engine.modified(beta, [(-1, h2), (0, h2), (0, h)]),
        "modified-refs": lambda: p2_engine.modified(beta, [(1, h), (-1, h2), (0, h2), (0, h)], refs=(0, 1, 2)),
        # the negative level at the last slot, behind a positive one
        "descendant_three_marks": lambda: p2_engine.descendant(0, beta, [(1, h2), (0, h2), (-1, h)]),
        "two_point": lambda: p2_engine.two_point(-1, h2, h2, beta),
        "two_point_general": lambda: p2_engine.two_point_general(0, h2, -1, h2, beta),
        "one_point": lambda: p2_engine.one_point(-1, h2, beta),
    }
    with pytest.raises(ValueError, match="descendant exponents must be non-negative"):
        calls[entry]()


def test_gamma0_must_be_a_divisor(p1):
    with pytest.raises(ValueError, match="degree-1"):
        CorrelatorEngine(p1.model, p1.primary, gamma0=p1.model.unit)


def test_reconstruction_error_without_divisor_generation():
    """A top class outside the divisor image cannot be reconstructed."""
    from fractions import Fraction as F

    from gwdesc.engine import ReconstructionError
    from gwdesc.geometry import GeometryModel

    model = GeometryModel(
        name="not-divisor-generated",
        dimension=2,
        labels=["one", "e", "x"],
        degrees=[0, 1, 2],
        cup_records={("e", "e"): {}, ("e", "x"): {}, ("x", "x"): {}},
        integral={"x": F(1)},
        lattice_rank=1,
        divisor_pairing={"e": [1]},
        ample={"e": F(1)},
        chern=[{"one": F(1)}, {}, {}],
    )
    # the pairing is degenerate here, so bypass load-time validation and
    # exercise the reconstruction guard directly
    assert model.divisor_decomposition(model.label_index("x")) is None
    engine = CorrelatorEngine(model, check_dimension=False)
    x = model.class_from_map({"x": 1})
    with pytest.raises(ReconstructionError, match="divisor-generated"):
        engine.primary((1,), [x, x, x, x])
