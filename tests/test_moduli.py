from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

import pytest

from gwdesc import GwdescError, TableFormatError
from gwdesc.geometry import CohClass
from gwdesc.moduli import (
    TautRecord,
    TautTable,
    TautTableError,
    constant_map_correlator,
    psi_integral_genus0,
)


def test_psi_integral_values():
    assert psi_integral_genus0([0, 0, 0]) == 1
    assert psi_integral_genus0([1, 1, 0, 0, 0]) == 2
    assert psi_integral_genus0([2, 0, 0, 0]) == 0
    assert psi_integral_genus0([1, 0, 0, 0]) == 1


def test_psi_integral_symmetric():
    values = {psi_integral_genus0(list(p)) for p in set(permutations([2, 1, 0, 0, 0, 0]))}
    assert values == {psi_integral_genus0([2, 1, 0, 0, 0, 0])}


def test_psi_integral_errors():
    with pytest.raises(ValueError):
        psi_integral_genus0([0, 0])
    with pytest.raises(ValueError):
        psi_integral_genus0([-1, 0, 0, 4])


def test_psi_integral_sum_rule():
    # summing the multinomial over all exponent vectors counts n^(n-3)
    for n in range(3, 9):
        total = 0
        for exps in product(range(n - 2), repeat=n):
            if sum(exps) == n - 3:
                total += psi_integral_genus0(list(exps))
        assert total == n ** (n - 3)


def test_taut_table_screening():
    with pytest.raises(ValueError):
        TautTable.from_records([{"g": 0, "n": 3, "psi": [0, 0, 0], "lambda": [], "value": "1"}])
    with pytest.raises(ValueError):
        TautTable.from_records([{"g": 1, "n": 1, "psi": [3], "lambda": [], "value": "1"}])
    table = TautTable.from_records([{"g": 1, "n": 1, "psi": [1], "lambda": [], "value": "1/24"}])
    assert table.lookup(1, 1, [1], []) == Fraction(1, 24)
    assert table.lookup(1, 1, [0], [1, 1]) == 0  # dimension mismatch short-circuits
    with pytest.raises(TautTableError, match="table incomplete"):
        table.lookup(1, 1, [0], [1])


@pytest.mark.parametrize(
    "records, message",
    [
        (
            [{"g": 1, "n": 1, "psi": [1], "lambda": [], "value": 0.5}],
            "tautological record {'g': 1, 'n': 1, 'psi': [1], 'lambda': [], 'value': 0.5}: "
            'value must be a rational string "p/q" or an integer, got 0.5',
        ),
        (
            [{"g": 0, "n": 3, "psi": [0, 0, 0], "lambda": [], "value": "1"}],
            "tautological tables hold genus >= 1 entries only",
        ),
        (
            [{"g": 1, "n": 2, "psi": [1, 1], "lambda": [1], "value": "1"}],
            "entry TautRecord(g=1, n=2, psi=(1, 1), lambdas=(1,), value=Fraction(1, 1)) "
            "does not match the moduli dimension 2",
        ),
        (
            [
                {"g": 1, "n": 1, "psi": [1], "lambda": [], "value": "1/24"},
                {"g": 1, "n": 1, "psi": [1], "lambda": [], "value": "1/12"},
            ],
            "conflicting values for (1, 1, (1,), ())",
        ),
    ],
    ids=["float-value", "genus-0", "dimension", "conflict"],
)
def test_malformed_taut_records_are_gwdesc_errors(records, message):
    # each was a plain ValueError, which an `except GwdescError` missed
    with pytest.raises(GwdescError) as info:
        TautTable.from_records(records)
    assert isinstance(info.value, TableFormatError) and isinstance(info.value, ValueError)
    assert str(info.value) == message


@pytest.mark.parametrize("value", [0.5, True, "1/24"])
def test_taut_table_built_in_python_takes_only_exact_values(p1, value):
    # a float value made the genus-1 correlator below return the float 1.0
    with pytest.raises(TableFormatError, match="value must be an int or a Fraction"):
        TautTable([TautRecord(1, 1, (1,), (), value)])
    table = TautTable([TautRecord(1, 1, (1,), (), 1)])
    value = constant_map_correlator(1, [(1, p1.model.unit)], p1.model, table)
    assert type(value) is Fraction and type(table.lookup(1, 1, [1], [])) is Fraction


def test_constant_maps_genus0(p2):
    m = p2.model
    h = m.class_from_map({"h": 1})
    one = m.unit
    h2 = m.class_from_map({"h2": 1})
    assert constant_map_correlator(0, [(1, h), (0, h), (0, one), (0, one)], m) == 1
    assert constant_map_correlator(0, [(1, h), (1, h), (0, one), (0, one), (0, one)], m) == 2
    assert constant_map_correlator(0, [(0, h), (0, h2)], m) == 0
    assert constant_map_correlator(0, [(0, h), (0, h), (0, h)], m) == 0
    assert constant_map_correlator(0, [(0, h), (0, h), (0, one)], m) == 1


def test_constant_maps_genus1_symbolic(p2):
    m = p2.model
    t = Fraction(5, 7)
    table = TautTable.from_records([{"g": 1, "n": 1, "psi": [1], "lambda": [], "value": str(t)}])
    value = constant_map_correlator(1, [(1, m.unit)], m, table)
    assert value == 3 * t  # euler number of the plane times the injected integral


def test_constant_maps_genus1_divisor_term(p1, p2):
    from gwdesc.fixtures import genus1_taut_table

    table = genus1_taut_table()
    m = p2.model
    h = m.class_from_map({"h": 1})
    # one degree-1 insertion pairs against the next-to-top Chern class
    assert constant_map_correlator(1, [(0, h)], m, table) == -Fraction(3, 24)
    m1 = p1.model
    h1 = m1.class_from_map({"h": 1})
    assert constant_map_correlator(1, [(1, m1.unit)], m1, table) == Fraction(2, 24)
    assert constant_map_correlator(1, [(0, h1)], m1, table) == -Fraction(1, 24)


def test_constant_maps_genus1_needs_table(p2):
    with pytest.raises(TautTableError):
        constant_map_correlator(1, [(1, p2.model.unit)], p2.model, None)


def test_constant_maps_genus2_assembly(p1):
    m = p1.model
    t1 = Fraction(11, 13)
    table = TautTable.from_records(
        [{"g": 2, "n": 1, "psi": [3], "lambda": [1], "value": str(t1)}]
    )
    # only the middle root tuple survives: the squared first Chern class
    # vanishes on a curve and the constant tuple misses the top degree
    value = constant_map_correlator(2, [(3, m.unit)], m, table)
    assert value == -2 * t1


def test_constant_maps_genus2_vanishing_off_cases(p2):
    m = p2.model
    h = m.class_from_map({"h": 1})
    # wrong total dimension: returns zero without consulting any table
    assert constant_map_correlator(2, [(0, h)], m, None) == 0
    assert constant_map_correlator(2, [(5, m.unit)], m, None) == 0


def test_constant_maps_mixed_class_multilinearity(p2):
    m = p2.model
    h = m.class_from_map({"h": 1})
    one = m.unit
    mixed = one + 2 * h
    direct = constant_map_correlator(0, [(1, mixed), (0, h), (0, h), (0, one)], m)
    split = constant_map_correlator(0, [(1, one), (0, h), (0, h), (0, one)], m) + 2 * constant_map_correlator(
        0, [(1, h), (0, h), (0, h), (0, one)], m
    )
    assert direct == split


def test_exponent_screen_reads_no_class(p2, monkeypatch):
    from gwdesc.geometry import GeometryModel

    def unread(*_):
        raise AssertionError("the exponent screen read a class")

    monkeypatch.setattr(GeometryModel, "degree_of", unread)
    monkeypatch.setattr(GeometryModel, "cup", unread)
    m = p2.model
    h, one = m.class_from_map({"h": 1}), m.unit
    mixed = one + 2 * h
    ruled_out = [
        (0, [(0, h), (0, h)]),  # n < 3
        (0, [(1, h), (0, h), (0, one)]),  # exponents sum to 1, not n - 3 = 0
        (0, [(2, mixed), (0, h), (0, h), (0, one)]),  # 2, not n - 3 = 1
        (0, [(0, h), (0, h), (0, h), (0, one)]),  # 0, below n - 3 = 1
        (1, []),  # n < 1
        (1, [(3, h), (0, mixed)]),  # 3 is neither n = 2 nor n - 1 = 1
        (2, [(6, h)]),  # 6 > (g - 1)(3 - dimension) + n = 2
        (2, [(3, mixed), (1, one)]),  # 4 > 3
    ]
    for g, insertions in ruled_out:
        value = constant_map_correlator(g, insertions, m, None)
        assert (type(value), value) == (Fraction, 0), (g, insertions)
    # a negative exponent is refused before the screen, though each of these
    # exponent sums alone would screen the pattern out
    negative = [
        (0, [(-1, h), (2, h), (0, h)]),
        (0, [(3, h), (0, h), (-1, h)]),
        (1, [(4, h), (-1, h)]),
        (2, [(5, h), (-1, one)]),
    ]
    for g, insertions in negative:
        with pytest.raises(ValueError, match="non-negative"):
            constant_map_correlator(g, insertions, m, None)


def test_degree_screen_forms_no_cup_product(p2, monkeypatch):
    from gwdesc.geometry import GeometryModel

    def uncupped(*_):
        raise AssertionError("the degree screen formed a cup product")

    monkeypatch.setattr(GeometryModel, "cup", uncupped)
    m = p2.model
    one, zero = m.unit, m.zero_class()
    h, h2 = m.class_from_map({"h": 1}), m.class_from_map({"h2": 1})
    # each passes the exponent half and misses the degree count
    # (g - 1)(3 - dimension) + n, or holds a zero class
    missed = [
        (0, [(0, h), (0, h), (0, h)]),  # degree 3 > dimension 2
        (0, [(0, 2 * h), (0, one), (0, Fraction(-1, 2) * one)]),  # 0 + 1 != 2
        (0, [(1, h2), (0, h), (0, h), (0, one)]),  # degree 4 > 2
        (1, [(1, h)]),  # exponent 1 + degree 1 != 1
        (1, [(1, h2), (0, h)]),  # degree 3 > 2
        (2, [(0, h2), (0, h2)]),  # degree 4 > 2
        (2, [(2, h), (0, 2 * h)]),  # 2 + 2 != 3
        (0, [(0, h), (0, zero), (0, one)]),
        (1, [(1, one), (0, zero)]),
        (2, [(0, zero), (2, h)]),
    ]
    for g, insertions in missed:
        value = constant_map_correlator(g, insertions, m, None)
        assert (type(value), value) == (Fraction, 0), (g, insertions)
    # a negative exponent beside a zero class still raises first
    for g, insertions in [
        (0, [(0, zero), (-1, h), (1, h)]),
        (0, [(-1, zero), (1, h), (0, h)]),
        (1, [(2, zero), (-1, h)]),
        (2, [(-1, h), (0, zero)]),
    ]:
        with pytest.raises(ValueError, match="non-negative"):
            constant_map_correlator(g, insertions, m, None)


# ----------------------------------------------------------------------
# the integer degree screen against cup-first evaluation


def _cup_first_reference(g, insertions, model, table):
    """Constant-map correlator evaluated cup first, dimension tests after."""
    for slot, (d, cls) in enumerate(insertions):
        if cls.is_zero():
            return Fraction(0)
        if model.degree_of(cls) is None:
            total = Fraction(0)
            for idx in cls.support():
                rest = list(insertions)
                rest[slot] = (d, cls.coeffs[idx] * model.basis_class(idx))
                total += _cup_first_reference(g, rest, model, table)
            return total
    n = len(insertions)
    delta = model.dimension
    exponents = [d for d, _ in insertions]
    if g == 1:
        return _genus1_reference(insertions, model, table)
    if g == 0 and n < 3:
        return Fraction(0)
    product = model.unit
    for _, cls in insertions:
        product = model.cup(product, cls)
    if g == 0:
        if sum(exponents) != n - 3:
            return Fraction(0)
        value = model.integrate(product)
        return psi_integral_genus0(exponents) * value if value else Fraction(0)
    if delta >= 4 or product.is_zero():
        return Fraction(0)
    degree_sum = model.degree_of(product)
    if degree_sum is None or degree_sum > delta:
        return Fraction(0)
    if sum(exponents) + degree_sum != (g - 1) * (3 - delta) + n:
        return Fraction(0)
    total = Fraction(0)
    for tup in combinations_with_replacement(range(g + 1), delta):
        target_value = model.integrate(model.cup(model.chern_symmetric(tup, g), product))
        if not target_value:
            continue
        lambdas = tuple(i for i in tup if i)
        if table is None:
            raise TautTableError(
                f"table incomplete: need integral g={g} n={n} "
                f"psi={sorted(exponents, reverse=True)} lambda={list(lambdas)}"
            )
        total += table.lookup(g, n, exponents, lambdas) * target_value
    return Fraction((-1) ** (g * delta)) * total


def _genus1_reference(insertions, model, table):
    n = len(insertions)
    if n < 1:
        return Fraction(0)
    delta = model.dimension
    exponents = [d for d, _ in insertions]
    degrees = [model.degree_of(cls) for _, cls in insertions]
    unit = model.unit_index
    total = Fraction(0)
    if sum(exponents) == n and all(deg == 0 for deg in degrees):
        scale = Fraction(1)
        for _, cls in insertions:
            scale *= cls.coeffs[unit]
        euler = model.integrate(model.chern[delta])
        if scale and euler:
            if table is None:
                raise TautTableError(
                    f"table incomplete: need integral g=1 n={n} psi={sorted(exponents, reverse=True)} lambda=[]"
                )
            total += scale * euler * table.lookup(1, n, exponents, ())
    if delta >= 1 and sum(exponents) == n - 1 and degrees.count(1) == 1 and degrees.count(0) == n - 1:
        slot = degrees.index(1)
        scale = Fraction(1)
        for other, (_, cls) in enumerate(insertions):
            if other != slot:
                scale *= cls.coeffs[unit]
        pairing = model.integrate(model.cup(model.chern[delta - 1], insertions[slot][1]))
        if scale and pairing:
            if table is None:
                raise TautTableError(
                    f"table incomplete: need integral g=1 n={n} psi={sorted(exponents, reverse=True)} lambda=[1]"
                )
            total -= scale * pairing * table.lookup(1, n, exponents, (1,))
    return total


def _synthetic_genus2_table(max_n):
    """Every genus-2 psi/lambda integral with n <= max_n, each a distinct rational."""
    records = []
    for n in range(max_n + 1):
        dim = 3 + n
        for length in range(4):
            for lambdas in combinations_with_replacement((1, 2), length):
                for psi in combinations_with_replacement(range(dim - sum(lambdas) + 1), n):
                    if sum(psi) + sum(lambdas) == dim:
                        records.append(TautRecord(2, n, psi, lambdas, Fraction(len(records) + 1, len(records) + 5)))
    return TautTable(records)


def _outcome(evaluate):
    try:
        return evaluate()
    except TautTableError as exc:
        return ("TautTableError", str(exc))


def test_degree_screen_matches_cup_first_evaluation(p1, p2, point):
    from gwdesc.fixtures import genus1_taut_table
    from gwdesc.verify import _p3_like_model

    tables = {0: None, 1: genus1_taut_table(), 2: _synthetic_genus2_table(3)}
    compared = nonzero = raised = 0
    for model in (point.model, p1.model, p2.model, _p3_like_model()):
        classes = [model.basis_class(i) for i in range(model.rank)]
        classes.append(CohClass(tuple(Fraction((-1) ** i * (i + 1), i + 2) for i in range(model.rank))))
        slots = [(d, c) for d in range(3) for c in range(len(classes))]
        for g in (0, 1, 2):
            for n in range(4):
                for key in combinations_with_replacement(slots, n):
                    insertions = [(d, classes[c]) for d, c in key]
                    for table in dict.fromkeys((None, tables[g])):
                        want = _outcome(lambda: _cup_first_reference(g, insertions, model, table))
                        got = _outcome(lambda: constant_map_correlator(g, insertions, model, table))
                        assert got == want, (model.name, g, key, table is None)
                        compared += 1
                        raised += isinstance(want, tuple)
                        nonzero += not isinstance(want, tuple) and want != 0
    # counts measured with the cup-first code; a screen that zeroes too much cannot match them
    assert (compared, nonzero, raised) == (7875, 349, 555)


def test_degree_screen_matches_cup_first_evaluation_in_the_scan_window(p2):
    # the point-vanishing scan runs n <= 5 at levels <= 3; the case above stops
    # at n <= 3 and levels <= 2.  Every basis-class pattern with n = 4 or 5 is
    # compared, and the mixed class fills one slot at n = 4 on P2 (the mixed
    # split multiplies the reference's cost by the rank, so it is not run on
    # the whole window)
    from gwdesc.fixtures import genus1_taut_table
    from gwdesc.verify import _p3_like_model

    tables = {0: None, 1: genus1_taut_table()}
    compared = nonzero = raised = 0
    for model in (p2.model, _p3_like_model()):
        slots = [(d, model.basis_class(i)) for d in range(4) for i in range(model.rank)]
        patterns = [key for n in (4, 5) for key in combinations_with_replacement(slots, n)]
        if model is p2.model:
            mixed = CohClass(tuple(Fraction((-1) ** i * (i + 1), i + 2) for i in range(model.rank)))
            patterns += [key + ((d, mixed),) for d in range(4) for key in combinations_with_replacement(slots, 3)]
        for g, table in tables.items():
            for insertions in patterns:
                want = _outcome(lambda: _cup_first_reference(g, insertions, model, table))
                got = _outcome(lambda: constant_map_correlator(g, insertions, model, table))
                assert got == want, (model.name, g, insertions)
                compared += 1
                raised += isinstance(want, tuple)
                nonzero += not isinstance(want, tuple) and want != 0
    # counts measured with the cup-first code
    assert (compared, nonzero, raised) == (53138, 47, 81)


def test_degree_screen_matches_cup_first_evaluation_on_scaled_classes(p1, p2):
    # classes that are not basis instances: each basis class scaled by 2 or -1/2,
    # so the degree is read by the support scan; one zero-class slot is added to
    # every pattern of n <= 3
    from gwdesc.fixtures import genus1_taut_table
    from gwdesc.verify import _p3_like_model

    tables = {0: None, 1: genus1_taut_table(), 2: _synthetic_genus2_table(4)}
    compared = nonzero = raised = 0
    for model in (p1.model, p2.model, _p3_like_model()):
        scaled = [(2 if i % 2 else Fraction(-1, 2)) * model.basis_class(i) for i in range(model.rank)]
        slots = [(d, cls) for d in range(3) for cls in scaled]
        patterns = [key for n in range(5) for key in combinations_with_replacement(slots, n)]
        patterns += [
            key + ((d, model.zero_class()),) for d in range(3) for n in range(4)
            for key in combinations_with_replacement(slots, n)
        ]
        for g in (0, 1, 2):
            for table in dict.fromkeys((None, tables[g])):
                for insertions in patterns:
                    want = _outcome(lambda: _cup_first_reference(g, insertions, model, table))
                    got = _outcome(lambda: constant_map_correlator(g, insertions, model, table))
                    assert got == want, (model.name, g, insertions, table is None)
                    compared += 1
                    raised += isinstance(want, tuple)
                    nonzero += not isinstance(want, tuple) and want != 0
    # counts measured with the cup-first code
    assert (compared, nonzero, raised) == (25110, 142, 207)


# ----------------------------------------------------------------------
# mixed classes: cup-first expansion against the per-degree split it replaced


def _degree_split_reference(g, insertions, model, table):
    """The former mixed-class route: split the first mixed insertion into its
    homogeneous parts, one per degree, and sum the parts' correlators."""
    for slot, (d, cls) in enumerate(insertions):
        part_degrees = sorted({model.degrees[i] for i in cls.support()})
        if len(part_degrees) > 1:
            total = Fraction(0)
            for part_degree in part_degrees:
                part = CohClass(
                    tuple(c if model.degrees[i] == part_degree else Fraction(0) for i, c in enumerate(cls.coeffs))
                )
                rest = list(insertions)
                rest[slot] = (d, part)
                total += _degree_split_reference(g, rest, model, table)
            return total
    return constant_map_correlator(g, insertions, model, table)


def test_mixed_classes_match_the_degree_split(p1, p2):
    import random

    from gwdesc.fixtures import genus1_taut_table
    from gwdesc.verify import _p3_like_model

    rng = random.Random(20240801)
    compared = nonzero = raised = split_only_raised = 0
    for model in (p1.model, p2.model, _p3_like_model()):
        for _ in range(600):
            g = rng.randrange(3)
            table = rng.choice((None, genus1_taut_table()))
            insertions = [
                (rng.randrange(4), CohClass(tuple(Fraction(rng.choice((0, 1, -1, 2))) for _ in range(model.rank))))
                for _ in range(rng.randint(1, 4))
            ]
            insertions[0] = (insertions[0][0], model.unit + model.basis_class(1))  # one mixed class at least
            want = _outcome(lambda: _degree_split_reference(g, insertions, model, table))
            got = _outcome(lambda: constant_map_correlator(g, insertions, model, table))
            compared += 1
            if isinstance(want, tuple) and not isinstance(got, tuple):
                # the split asks the table for an integral whose coefficients cancel
                split_only_raised += 1
                assert got == 0, (model.name, g, insertions)
            else:
                assert got == want, (model.name, g, insertions, table is None)
                raised += isinstance(want, tuple)
                nonzero += not isinstance(want, tuple) and want != 0
    # counts measured with the cup-first code; at the split, split_only_raised is 0
    assert (compared, nonzero, raised, split_only_raised) == (1800, 56, 281, 11)


def test_mixed_class_cancellation_needs_no_table(p1):
    # on P1, (one + h)(one - h) = one; the split's two degree-1 parts need the same
    # genus-2 integral with coefficients +1 and -1, which the cup-first product never asks
    m = p1.model
    one, h = m.unit, m.class_from_map({"h": 1})
    insertions = [(0, one + h), (3, one - h)]
    with pytest.raises(TautTableError):
        _degree_split_reference(2, insertions, m, None)
    assert constant_map_correlator(2, insertions, m, None) == 0
