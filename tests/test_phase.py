from __future__ import annotations

import random
from fractions import Fraction

import pytest
from test_quadric import quadric_model, quadric_table

from gwdesc import CorrelatorEngine
from gwdesc.exact import NovikovSeries, TruncationPolicy
from gwdesc import phase
from gwdesc.phase import (
    PhaseTransform,
    PotentialSeries,
    build_transform,
    compose_with_transform,
    divisor_product_identity,
    phase_indices,
    potential_modified,
    potential_primary,
    potential_standard,
    quantum_product,
    substitution_identity,
    summed_correlator,
    summed_two_point,
    transform_identity_report,
    two_point_from_primaries,
)
from gwdesc.verify import suite_divisor_independence


def cls(model, label):
    return model.class_from_map({label: 1})


def test_summed_correlators(p1_engine, p1, p2_engine, p2):
    m = p1.model
    policy = m.policy(3)
    h = cls(m, "h")
    assert summed_correlator(p1_engine, [(0, h)] * 3, policy) == NovikovSeries.monomial(policy, (1,))
    assert summed_correlator(p1_engine, [(0, m.unit)] * 3, policy).is_zero()
    m2 = p2.model
    policy2 = m2.policy(2)
    series = summed_correlator(p2_engine, [(0, cls(m2, "h2")), (0, cls(m2, "h2")), (0, cls(m2, "h"))], policy2)
    assert series == NovikovSeries.monomial(policy2, (1,))


def on_basis(model, policy, **series):
    """The coefficient tuple with the given series at the named basis labels and zero elsewhere."""
    out = [NovikovSeries.zero(policy)] * model.rank
    for label, value in series.items():
        out[model.label_index(label)] = value
    return tuple(out)


def test_quantum_products(p1, p2):
    m = p1.model
    policy = m.policy(2)
    h = cls(m, "h")
    q = NovikovSeries.monomial(policy, (1,))
    assert quantum_product(m, p1.primary, policy, h, h) == on_basis(m, policy, one=q)
    assert quantum_product(m, p1.primary, policy, m.unit, h) == on_basis(m, policy, h=NovikovSeries.one(policy))

    m2 = p2.model
    policy2 = m2.policy(2)
    hh = quantum_product(m2, p2.primary, policy2, cls(m2, "h"), cls(m2, "h"))
    assert hh == on_basis(m2, policy2, h2=NovikovSeries.one(policy2))
    hh2 = quantum_product(m2, p2.primary, policy2, cls(m2, "h"), cls(m2, "h2"))
    assert hh2 == on_basis(m2, policy2, one=NovikovSeries.monomial(policy2, (1,)))


def _product_times_class(model, table, policy, coeffs, z):
    """The coefficients of (sum_a coeffs[a] basis[a]) * z."""
    out = [NovikovSeries.zero(policy)] * model.rank
    for a, coeff in enumerate(coeffs):
        for b, series in enumerate(quantum_product(model, table, policy, model.basis_class(a), z)):
            out[b] = out[b] + coeff * series
    return tuple(out)


def test_quantum_product_associative(p2):
    m = p2.model
    policy = m.policy(3)
    basis = [m.basis_class(i) for i in range(m.rank)]
    for x in basis:
        for y in basis:
            xy = quantum_product(m, p2.primary, policy, x, y)
            for z in basis:
                yz = quantum_product(m, p2.primary, policy, y, z)
                left = _product_times_class(m, p2.primary, policy, xy, z)
                right = _product_times_class(m, p2.primary, policy, yz, x)
                assert left == right, (x, y, z)


def test_transform_column_contracts_levels(p1_engine, p1):
    # T's column at (d, a), read at row level j, has the coefficient T[(j,b),(d,a)] on delta_b:
    # the operator trading d - j cotangent levels of delta_a for a dual-basis contraction
    m = p1.model
    policy = m.policy(2, max_descendant=2)
    transform = build_transform(p1_engine, policy)
    a = m.label_index("h")
    q = NovikovSeries.monomial(policy, (1,))

    def column(j, d):
        return tuple(transform.entry((j, b), (d, a)) for b in range(m.rank))

    assert column(2, 2) == on_basis(m, policy, h=NovikovSeries.one(policy))
    assert column(0, 1) == on_basis(m, policy, one=q)
    assert column(1, 2) == on_basis(m, policy, one=q)
    assert column(0, 2) == on_basis(m, policy, h=q)


def test_two_point_paths_agree(p1_engine, p1, p2_engine, p2):
    for engine, fx in ((p1_engine, p1), (p2_engine, p2)):
        m = fx.model
        policy = m.policy(3)
        basis = [m.basis_class(i) for i in range(m.rank)]
        for d in range(4):
            for x in basis:
                for y in basis:
                    assert summed_two_point(engine, d, x, y, policy) == two_point_from_primaries(
                        m, fx.primary, policy, d, x, y
                    )


def test_two_point_from_primaries_examples(p1, p1_engine):
    m = p1.model
    policy = m.policy(3)
    h = cls(m, "h")
    assert two_point_from_primaries(m, p1.primary, policy, 1, m.unit, h) == NovikovSeries(
        policy, {(1,): Fraction(-1)}
    )
    zero = two_point_from_primaries(m, p1.primary, policy, 0, m.zero_class(), h)
    assert zero.is_zero()


def test_shared_primary_route_matches_fresh_calls(p1, p2):
    # the quadric's two-parameter window is costly, so it gets the basis and
    # the ample divisor only; the lines add a mixed class and a rescaled divisor
    quadric = quadric_model()
    cases = [
        (p1.model, p1.primary, 3, True),
        (p2.model, p2.primary, 3, True),
        (quadric, quadric_table(quadric), 2, False),
    ]
    for m, table, qmax, extended in cases:
        policy = m.policy(qmax)
        classes = [m.basis_class(i) for i in range(m.rank)]
        divisors = [None]
        if extended:
            classes.append(m.unit + 2 * m.ample)
            divisors.append(2 * m.ample)
        for gamma0 in divisors:
            route = phase._PrimaryTwoPoint(m, table, policy, gamma0)
            # highest level first, so most lower series come out of the memo
            for d in range(6, -1, -1):
                for x in classes:
                    for y in classes:
                        fresh = two_point_from_primaries(m, table, policy, d, x, y, gamma0)
                        assert route.series(d, x, y) == fresh


def test_divisor_independence_evaluates_both_divisor_routes(p2, monkeypatch):
    # a memo shared across divisors would compare the ample route with itself
    m = p2.model
    calls = {}
    original = phase.quantum_product

    def counting(model, table, policy, x, y):
        calls[x] = calls.get(x, 0) + 1
        return original(model, table, policy, x, y)

    monkeypatch.setattr(phase, "quantum_product", counting)
    result = suite_divisor_independence(m, p2.primary, qmax=2, dmax=2)
    assert result.ok
    assert set(calls) == {m.ample, 3 * m.ample}
    assert calls[m.ample] > 0 and calls[3 * m.ample] > 0


def test_build_transform_trivial_truncation(p1_engine, p1):
    m = p1.model
    policy = m.policy(0, max_descendant=2)
    transform = build_transform(p1_engine, policy)
    assert transform.is_identity()


def test_build_transform_entries(p1_engine, p1):
    m = p1.model
    policy = m.policy(1, max_descendant=2)
    transform = build_transform(p1_engine, policy)
    assert transform.strictly_raising()
    q = NovikovSeries.monomial(policy, (1,))
    # the (0, unit-row) picks up +q from x_{1,h} and -q from x_{2,unit}
    assert transform.entry((0, 0), (1, 1)) == q
    assert transform.entry((0, 0), (2, 0)) == -1 * q
    assert transform.entry((0, 0), (1, 0)).is_zero()
    assert transform.entry((1, 1), (2, 0)).is_zero()


def test_transform_inverse(p1_engine, p1):
    m = p1.model
    policy = m.policy(2, max_descendant=3)
    identity = PhaseTransform.identity(policy, m.rank)
    assert identity.inverse() == identity
    transform = build_transform(p1_engine, policy)
    assert transform.compose(transform.inverse()).is_identity()
    assert transform.inverse().compose(transform).is_identity()

    # nilpotent with a single entry inverts to its negative
    entries = {(idx, idx): NovikovSeries.one(policy) for idx in phase_indices(policy, m.rank)}
    entries[((0, 0), (3, 0))] = NovikovSeries.monomial(policy, (1,))
    single = PhaseTransform(policy, m.rank, entries)
    inv = single.inverse()
    assert inv.entry((0, 0), (3, 0)) == -1 * NovikovSeries.monomial(policy, (1,))
    assert single.compose(inv).is_identity()


def test_inverse_needs_a_unit_diagonal(p1_engine, p1):
    # a diagonal entry of 2 used to return the identity, which does not invert it
    m = p1.model
    policy = m.policy(1, max_descendant=2)
    entries = dict(build_transform(p1_engine, policy).items())
    entries[((1, 0), (1, 0))] = 2 * NovikovSeries.one(policy)
    doubled = PhaseTransform(policy, m.rank, entries)
    with pytest.raises(ValueError, match="unit diagonal"):
        doubled.inverse()
    del entries[((1, 0), (1, 0))]
    with pytest.raises(ValueError, match="unit diagonal"):
        PhaseTransform(policy, m.rank, entries).inverse()


def _power_sum_inverse(transform):
    """Reference inverse: the terminating alternating sum of the powers of the off-diagonal part."""
    policy, rank = transform.policy, transform.basis_rank
    minus_n = PhaseTransform(policy, rank, {(o, i): -s for (o, i), s in transform.items() if o != i})
    total = dict(PhaseTransform.identity(policy, rank).items())
    power = minus_n
    while power.items():
        for key, s in power.items():
            total[key] = total[key] + s if key in total else s
        power = minus_n.compose(power)
    return PhaseTransform(policy, rank, total)


def _random_raising(rng, policy, rank):
    classes = list(policy.iter_effective())
    entries = {(idx, idx): NovikovSeries.one(policy) for idx in phase_indices(policy, rank)}
    for out in phase_indices(policy, rank):
        for inp in phase_indices(policy, rank):
            if inp[0] > out[0] and rng.random() < 0.6:
                terms = {rng.choice(classes): Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)}
                entries[(out, inp)] = NovikovSeries(policy, terms)
    return PhaseTransform(policy, rank, entries)


@pytest.mark.parametrize("name", ["P1", "P2", "quadric"])
@pytest.mark.parametrize("seed", range(3))
def test_back_substitution_matches_power_sum(p1, p2, name, seed):
    model = {"P1": p1.model, "P2": p2.model, "quadric": quadric_model()}[name]
    policy = model.policy(2, max_descendant=3)
    transform = _random_raising(random.Random(seed), policy, model.rank)
    inverse = transform.inverse()
    assert inverse == _power_sum_inverse(transform)
    assert inverse.strictly_raising()
    assert transform.compose(inverse).is_identity()
    assert inverse.compose(transform).is_identity()


def test_potentials_three_point_block_agrees(p1_engine, p1):
    m = p1.model
    policy = m.policy(2, max_x_degree=3, max_descendant=2)
    standard = potential_standard(p1_engine, policy)
    modified = potential_modified(p1_engine, policy)
    for key, series in standard.items():
        if len(key) == 3 and all(d == 0 for d, _ in key):
            assert modified.coefficient(key) == series
    # three-mark coefficients with powers differ between the two potentials
    probe = ((0, 1), (0, 1), (1, 1))
    assert standard.coefficient(probe) != modified.coefficient(probe) or standard.coefficient(probe).is_zero()


def test_primary_potential_is_restriction(p2_engine, p2):
    m = p2.model
    policy = m.policy(2, max_x_degree=3, max_descendant=1)
    standard = potential_standard(p2_engine, policy)
    primary = potential_primary(p2_engine, policy)
    assert primary == standard.restricted_to_primary()
    # classical cubic block: the pairing of two hyperplanes against the unit
    classical = primary.coefficient(((0, 0), (0, 1), (0, 1)))
    assert classical == Fraction(1, 2) * NovikovSeries.one(policy)
    # first quantum correction: one line through two of three point conditions
    quantum = primary.coefficient(((0, 1), (0, 2), (0, 2)))
    assert quantum == Fraction(1, 2) * NovikovSeries.monomial(policy, (1,))


def test_potential_coefficient_normalization(p1_engine, p1):
    m = p1.model
    policy = m.policy(1, max_x_degree=3, max_descendant=0)
    standard = potential_standard(p1_engine, policy)
    triple_h = standard.coefficient(((0, 1), (0, 1), (0, 1)))
    # repeated index: the correlator value divided by 3!
    assert triple_h == Fraction(1, 6) * NovikovSeries.monomial(policy, (1,))


@pytest.mark.parametrize(
    "name, window, standard_keys, modified_keys",
    [("P2", (2, 4, 2), 64, 14), ("quadric", (2, 3, 2), 49, 5)],
)
def test_dimension_skip_matches_the_full_window(p2, name, window, standard_keys, modified_keys):
    """The checked engine assembles only the dimension-admissible (key, class)
    pairs; an unchecked engine visits every class and must agree.  On the
    quadric several classes share one value of c1·beta."""
    if name == "P2":
        model, table = p2.model, p2.primary
    else:
        model = quadric_model()
        table = quadric_table(model)
    policy = model.policy(window[0], max_x_degree=window[1], max_descendant=window[2])
    checked = CorrelatorEngine(model, table)
    unchecked = CorrelatorEngine(model, table, check_dimension=False)
    standard = potential_standard(checked, policy)
    modified = potential_modified(checked, policy)
    assert standard == potential_standard(unchecked, policy)
    assert modified == potential_modified(unchecked, policy)
    # the counts at the full-window assembly, so an emptied potential cannot pass
    assert (len(standard.items()), len(modified.items())) == (standard_keys, modified_keys)


@pytest.mark.parametrize(
    "name, window, level0, counts",
    [
        ("P2", (3, 5, 3), False, (1564, 6097)),
        ("P2", (3, 5, 3), True, (13, 46)),
        ("P1", (3, 6, 4), False, (926, 7942)),
        ("point", (0, 7, 4), False, (12, 771)),
    ],
)
def test_admissible_key_counts(p1, p2, point, name, window, level0, counts):
    """Pinned key counts, checked and unchecked engine.  A spare zero-valued key
    would leave every coefficient unchanged, so only the counts catch it."""
    fixture = {"P1": p1, "P2": p2, "point": point}[name]
    model = fixture.model
    policy = model.policy(window[0], max_x_degree=window[1], max_descendant=window[2])
    indices = [(0, a) for a in range(model.rank)] if level0 else phase_indices(policy, model.rank)
    checked = phase._admissible_keys(CorrelatorEngine(model, fixture.primary), policy, indices)
    unchecked = phase._admissible_keys(CorrelatorEngine(model, fixture.primary, check_dimension=False), policy, indices)
    assert (len(checked), len(unchecked)) == counts
    # the checked list is the unchecked one with keys dropped, order kept
    remaining = iter(unchecked)
    assert all(key in remaining for key in checked)


@pytest.mark.parametrize(
    "name, window, derived",
    [("P1", (2, 4, 2), (43, 111)), ("P2", (3, 5, 3), (1173, 3951)), ("quadric", (2, 4, 2), (333, 1035))],
)
def test_axiom_assembly_matches_the_engine(p1, p2, name, window, derived):
    """Every coefficient of the standard potential, zero or not, equals the engine's
    summed correlator over its multiplicity factor, with and without the dimension
    screen.  Most keys take their series from keys of one fewer mark by the string,
    dilaton or divisor equation; the quadric has two degree-1 divisors."""
    if name == "quadric":
        model = quadric_model()
        table = quadric_table(model)
    else:
        fixture = p1 if name == "P1" else p2
        model, table = fixture.model, fixture.primary
    policy = model.policy(window[0], max_x_degree=window[1], max_descendant=window[2])
    reference = CorrelatorEngine(model, table)
    for check, count in zip((True, False), derived):
        engine = CorrelatorEngine(model, table, check_dimension=check)
        keys = phase._admissible_keys(engine, policy, phase_indices(policy, model.rank))
        reduce = phase._axiom_reduction(model, policy)
        assert sum(reduce(key, {}) is not None for key in keys) == count
        standard = potential_standard(engine, policy)
        for key in keys:
            pairs = [(d, model.basis_class(a)) for d, a in key]
            want = summed_correlator(reference, pairs, policy) * Fraction(1, phase._multiplicity_factor(key))
            assert standard.coefficient(key) == want, key


def test_potential_keys_are_order_free(p1_engine, p1):
    m = p1.model
    policy = m.policy(2, max_x_degree=3, max_descendant=2)
    standard = potential_standard(p1_engine, policy)
    for key, series in standard.items():
        assert standard.coefficient(tuple(reversed(key))) == series


def test_compose_with_identity(p1_engine, p1):
    m = p1.model
    policy = m.policy(2, max_x_degree=3, max_descendant=2)
    modified = potential_modified(p1_engine, policy)
    assert compose_with_transform(modified, PhaseTransform.identity(policy, m.rank)) == modified


def _compose_multiplying_every_entry(potential, transform):
    """Reference substitution: every transform entry is multiplied in, the unit diagonal included."""
    out = {}
    for key, coeff in potential.items():
        expansions = {(): coeff}
        for idx in key:
            new = {}
            for xs, series in expansions.items():
                for inp, entry in transform.row(idx):
                    nk = tuple(sorted(xs + (inp,)))
                    new[nk] = new[nk] + series * entry if nk in new else series * entry
            expansions = new
        for xkey, term in expansions.items():
            out[xkey] = out[xkey] + term if xkey in out else term
    return phase.PotentialSeries(potential.policy, out)


def test_compose_matches_multiplying_every_entry(p1_engine, p1):
    # the unit diagonal is skipped by value, so a non-unit diagonal entry is still multiplied in
    m = p1.model
    policy = m.policy(2, max_x_degree=4, max_descendant=2)
    entries = dict(build_transform(p1_engine, policy).items())
    entries[((0, 1), (0, 1))] = 2 * NovikovSeries.one(policy) + NovikovSeries.monomial(policy, (1,))
    transform = PhaseTransform(policy, m.rank, entries)
    modified = potential_modified(p1_engine, policy)
    composed = compose_with_transform(modified, transform)
    assert composed == _compose_multiplying_every_entry(modified, transform)
    assert composed != compose_with_transform(modified, build_transform(p1_engine, policy))


def test_summed_builds_fraction_series_equal_to_the_public_constructor(p2_engine, p2):
    m, table = p2.model, p2.primary
    policy = m.policy(3)
    h, pt = cls(m, "h"), cls(m, "h2")
    for value in (
        lambda beta: p2_engine.descendant(0, beta, [(1, pt), (0, h), (0, h)]),
        lambda beta: phase._primary3_multilinear(m, table, beta, h, pt, pt),
    ):
        series = phase.summed(policy, value)
        assert series == NovikovSeries(policy, {beta: value(beta) for beta in policy.iter_effective()})
        assert series.items() and all(type(c) is Fraction for _, c in series.items())


def test_transform_identity_small(p1_engine, p1):
    policy = p1.model.policy(2, max_x_degree=3, max_descendant=2)
    report = transform_identity_report(p1_engine, policy)
    assert report.ok, str(report)
    assert report.transform == build_transform(p1_engine, policy)


def test_transform_identity_trivial_descendants(p2_engine, p2):
    policy = p2.model.policy(2, max_x_degree=3, max_descendant=0)
    report = transform_identity_report(p2_engine, policy)
    assert report.ok
    standard = potential_standard(p2_engine, policy)
    modified = potential_modified(p2_engine, policy)
    assert standard == modified  # no descendant slots: both potentials coincide


def test_substitution_identity_example(p1_engine, p1):
    m = p1.model
    policy = m.policy(2, max_x_degree=3, max_descendant=2)
    key = ((1, 1), (0, 1), (0, 0))  # level-one h against h and the unit
    lhs, rhs = substitution_identity(p1_engine, build_transform(p1_engine, policy), key)
    assert lhs == rhs
    assert lhs == NovikovSeries.monomial(policy, (1,))


def test_substitution_identity_rejects_a_key_without_positive_level(p1_engine, p1):
    transform = build_transform(p1_engine, p1.model.policy(2, max_x_degree=3, max_descendant=2))
    with pytest.raises(ValueError, match="no positive level"):
        substitution_identity(p1_engine, transform, ((0, 1), (0, 1), (0, 0)))


def test_substitution_identity_rejects_a_level_above_the_transform(p1_engine, p1):
    # T has no column at level 2 when its window stops at level 1
    transform = build_transform(p1_engine, p1.model.policy(2, max_x_degree=3, max_descendant=1))
    with pytest.raises(ValueError, match="above the transform's window"):
        substitution_identity(p1_engine, transform, ((2, 1), (0, 1), (0, 0)))
    lhs, rhs = substitution_identity(p1_engine, transform, ((1, 1), (0, 1), (0, 0)))
    assert lhs == rhs == NovikovSeries.monomial(transform.policy, (1,))


def test_divisor_product_identity(p1_engine, p1, p2_engine, p2):
    for engine, fx in ((p1_engine, p1), (p2_engine, p2)):
        m = fx.model
        policy = m.policy(3)
        basis = [m.basis_class(i) for i in range(m.rank)]
        for d in (1, 2):
            for x in basis:
                for y in basis:
                    lhs, rhs = divisor_product_identity(engine, policy, d, x, y)
                    assert lhs == rhs


def test_potential_records_are_canonical(p1_engine, p1):
    m = p1.model
    policy = m.policy(1, max_x_degree=3, max_descendant=1)
    potential = potential_standard(p1_engine, policy)
    records = potential.to_records(m)
    assert records == potential_standard(p1_engine, policy).to_records(m)
    keys = [(len(r["indices"]), [[d, m.label_index(a)] for d, a in r["indices"]]) for r in records]
    assert keys == sorted(keys)
    assert all(set(r) == {"indices", "beta", "value"} for r in records)


def test_equality_on_one_policy_object_skips_the_field_comparison(p1, monkeypatch):
    calls = []
    field_eq = TruncationPolicy.__eq__

    def counting(self, other):
        calls.append(other)
        return field_eq(self, other)

    monkeypatch.setattr(TruncationPolicy, "__eq__", counting)

    def containers(policy):
        q = NovikovSeries.monomial(policy, (1,), 3)
        return q, PotentialSeries(policy, {((0, 1),) * 3: q}), PhaseTransform.identity(policy, p1.model.rank)

    policy = p1.model.policy(2, max_descendant=1)
    for left, right in zip(containers(policy), containers(policy)):
        assert left == right
    assert NovikovSeries.one(policy) != NovikovSeries.monomial(policy, (1,), 3)
    assert calls == []
    twin = p1.model.policy(2, max_descendant=1)  # equal fields, a distinct object
    assert twin is not policy
    for left, right in zip(containers(policy), containers(twin)):
        assert left == right
    assert calls
