from __future__ import annotations

import gc
import json
import random
import re
import sys
import weakref
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm

import pytest
from test_quadric import quadric_model, quadric_table
from test_verify import RESCALED_PLANE, _rescaled_table

from gwdesc import CorrelatorEngine, GeometryModel, PrimaryTable, UnsupportedQueryError
from gwdesc.geometry import CohClass
from gwdesc.exact import NovikovSeries, PolicyMismatchError, TruncationPolicy, _accumulate, _accumulate_product
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
    assert summed_correlator(p1_engine, [(0, 0, h)] * 3, policy) == NovikovSeries.monomial(policy, (1,))
    assert summed_correlator(p1_engine, [(0, 0, m.unit)] * 3, policy).is_zero()
    listed = TruncationPolicy(beta_weights=list(policy.beta_weights), max_beta_degree=3)  # hashed by the screen
    assert summed_correlator(p1_engine, [(0, 0, h)] * 3, listed) == NovikovSeries.monomial(policy, (1,))
    m2 = p2.model
    policy2 = m2.policy(2)
    series = summed_correlator(p2_engine, [(0, 0, cls(m2, "h2")), (0, 0, cls(m2, "h2")), (0, 0, cls(m2, "h"))], policy2)
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
                    assert summed_correlator(engine, [(d, 0, x), (0, 0, y)], policy) == two_point_from_primaries(
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


def full_window_two_point(engine, d, x, y, policy):
    """The reference two-point series: the engine asked at every class of the window."""
    return phase.summed(policy, lambda beta: engine.two_point(d, x, y, beta))


def full_window_correlator(engine, pairs, policy):
    """The reference summed correlator: the engine asked at every class of the window."""
    return phase.summed(policy, lambda beta: engine.descendant(0, beta, pairs))


def screen_cases(p1, p2):
    """(engine, policy, classes, top level) on P1, P2 and the quadric: the basis plus the
    mixed class unit + 2·ample, the default engine, one without the dimension check and
    one reducing by gamma0 = 2·ample (the quadric gets the default engine only)."""
    quadric = quadric_model()
    cases = []
    for fx in (p1, p2):
        m = fx.model
        classes = [m.basis_class(i) for i in range(m.rank)] + [m.unit + 2 * m.ample]
        for options in ({}, {"check_dimension": False}, {"gamma0": 2 * m.ample}):
            cases.append((CorrelatorEngine(m, fx.primary, **options), m.policy(3), classes, 4))
    classes = [quadric.basis_class(i) for i in range(quadric.rank)] + [quadric.unit + 2 * quadric.ample]
    cases.append((CorrelatorEngine(quadric, quadric_table(quadric)), quadric.policy(2), classes, 2))
    return cases


def test_screened_sums_equal_full_window_sums(p1, p2):
    for engine, policy, classes, top in screen_cases(p1, p2):
        for d in range(top + 1):
            for x in classes:
                for y in classes:
                    screened = summed_correlator(engine, [(d, 0, x), (0, 0, y)], policy)
                    assert screened == full_window_two_point(engine, d, x, y, policy)
        for n in (2, 3, 4):
            for chosen in combinations_with_replacement(classes, n):
                for levels in ((0,) * n, (1,) + (0,) * (n - 1), (2, 1) + (0,) * (n - 2)):
                    pairs = list(zip(levels, chosen))
                    marks = [(d, 0, x) for d, x in pairs]
                    assert summed_correlator(engine, marks, policy) == full_window_correlator(engine, pairs, policy)
        # pulled-back powers: e on the first mark, or d on the first and e on the last
        for n in (3, 4):
            for chosen in combinations_with_replacement(classes, n):
                for first, last in (((0, 1), (0, 0)), ((1, 0), (0, 1))):
                    marks = [(*first, chosen[0])] + [(0, 0, x) for x in chosen[1:-1]] + [(*last, chosen[-1])]
                    full = phase.summed(policy, lambda beta: engine.generalized(beta, marks))
                    assert summed_correlator(engine, marks, policy) == full


def test_summed_pulled_back_marks_need_the_stable_range(p2_engine, p2):
    m = p2.model
    h, h2 = cls(m, "h"), cls(m, "h2")
    for marks in ([(0, 1, h2), (0, 0, h2)], [(0, 1, h2), (1, 0, h)], [(0, 1, h2)]):
        with pytest.raises(UnsupportedQueryError, match="stable range"):
            summed_correlator(p2_engine, marks, m.policy(2))


def test_two_point_paths_ask_the_engine_only_at_admissible_classes(p2, monkeypatch):
    # 3·beta == d + deg x + deg y - 1 on P2: 39 of the 117 series have one admissible
    # class among the 7 of the window and the rest have none (819 calls unscreened); the
    # skipped classes never reached the engine's memo either
    from gwdesc.verify import suite_two_point_paths

    engines = []
    calls = []
    original = CorrelatorEngine.descendant

    def counting(self, g, beta, pairs):
        if self not in engines:
            engines.append(self)
        calls.append(beta)
        return original(self, g, beta, pairs)

    monkeypatch.setattr(CorrelatorEngine, "descendant", counting)
    assert suite_two_point_paths(p2.model, p2.primary, qmax=6, dmax=12).ok
    monkeypatch.undo()
    assert len(calls) == 39 and len(engines) == 1

    m = p2.model
    policy = m.policy(6)
    reference = CorrelatorEngine(m, p2.primary)
    basis = [m.basis_class(i) for i in range(m.rank)]
    for d in range(13):
        for x in basis:
            for y in basis:
                full_window_two_point(reference, d, x, y, policy)
    assert set(engines[0]._memo) == set(reference._memo)


class ClassKeyedRoute:
    """The reference primary-only route, keyed by (level, class, class): each series solves
    the divisor relation for its own x and y, recursing one level per call, with the lower
    series, the quantum product gamma0 * y and the pairing gamma0·beta memoized by class."""

    def __init__(self, model, table, policy, gamma0=None):
        self.model = model
        self.table = table
        self.policy = policy
        self.gamma0 = gamma0 if gamma0 is not None else model.ample
        self._pairings = {}
        self._products = {}
        self._series = {}
        self._nonzero = [beta for beta in policy.degrees if any(beta)]

    def _pairing(self, beta):
        if beta not in self._pairings:
            self._pairings[beta] = phase.narrow(self.model.beta_pairing(self.gamma0, beta))
        return self._pairings[beta]

    def _product(self, y):
        if y not in self._products:
            self._products[y] = phase.quantum_product(self.model, self.table, self.policy, self.gamma0, y)
        return self._products[y]

    def series(self, d, x, y):
        key = (d, x, y)
        if key not in self._series:
            if d < 0:
                raise ValueError("descendant exponents must be non-negative")
            self._series[key] = self._compute(d, x, y)
        return self._series[key]

    def _compute(self, d, x, y):
        model, policy, gamma0 = self.model, self.policy, self.gamma0
        if d == 0:
            bracket = phase.summed(
                policy, lambda beta: self.table.three_point(beta, gamma0, x, y), self._nonzero
            )
        else:
            acc = {}
            for a, coeff in enumerate(self._product(y)):
                if not coeff.is_zero():
                    lower = self.series(d - 1, x, model.basis_class(a))
                    phase._accumulate_product(acc, policy.sums, coeff._terms, lower._terms)
            shifted_x = model.cup(gamma0, x)
            if not shifted_x.is_zero():
                phase._accumulate(acc, self.series(d - 1, shifted_x, y)._terms, -1)
            bracket = NovikovSeries._trusted(policy, acc)
        return phase.antiderivative_q(bracket, self._pairing)


class JFoldRoute(ClassKeyedRoute):
    """The reference route: each shifted class cupped afresh on every call, and the j-th
    bracket divided by the divisor pairing j times over."""

    def _compute(self, d, x, y):
        model, policy, gamma0 = self.model, self.policy, self.gamma0
        total = {}
        for j in range(1, d + 2):
            shifted_x = model.cup(model.cup_power(gamma0, j - 1), x)
            if shifted_x.is_zero():
                continue
            if j <= d:
                acc = {}
                for a, coeff in enumerate(self._product(y)):
                    if not coeff.is_zero():
                        lower = self.series(d - j, shifted_x, model.basis_class(a))
                        phase._accumulate_product(acc, policy.sums, coeff._terms, lower._terms)
                bracket = NovikovSeries._trusted(policy, acc)
            else:
                bracket = phase.summed(
                    policy,
                    lambda beta: self.table.three_point(beta, gamma0, shifted_x, y),
                    self._nonzero,
                )
            for _ in range(j):
                bracket = phase.antiderivative_q(bracket, lambda beta: model.beta_pairing(gamma0, beta))
            phase._accumulate(total, bracket._terms, (-1) ** (j + 1))
        return NovikovSeries._trusted(policy, total)


def test_one_division_route_equals_the_j_fold_route(p1, p2):
    quadric = quadric_model()
    cases = [(fx.model, fx.primary, 3, g) for fx in (p1, p2) for g in (1, Fraction(1, 2), 3)]
    cases.append((quadric, quadric_table(quadric), 2, 1))
    for m, table, qmax, scale in cases:
        policy = m.policy(qmax)
        gamma0 = scale * m.ample
        route = phase._PrimaryTwoPoint(m, table, policy, gamma0)
        reference = JFoldRoute(m, table, policy, gamma0)
        basis = [m.basis_class(i) for i in range(m.rank)]
        # a mixed x and the dual classes as y reach the rolled chains <tau_k(gamma0^m ∪ x) y>
        # with y outside the basis
        for d in range(7):
            for x in basis + [m.unit + 2 * m.ample]:
                for y in basis + list(m.dual_basis()):
                    assert route.series(d, x, y) == reference.series(d, x, y)


def test_index_route_equals_the_class_keyed_route(p1, p2):
    quadric = quadric_model()
    rescaled = GeometryModel.from_dict(RESCALED_PLANE)
    models = [
        (p1.model, p1.primary, 3),
        (p2.model, p2.primary, 3),
        (quadric, quadric_table(quadric), 2),
        (rescaled, PrimaryTable.from_records(rescaled, _rescaled_table("4")), 3),
    ]
    for m, table, qmax in models:
        policy = m.policy(qmax)
        classes = [m.basis_class(i) for i in range(m.rank)] + list(m.dual_basis())
        classes += [m.unit + 2 * m.ample, m.zero_class()]
        for scale in (1, Fraction(1, 2), 3):
            gamma0 = scale * m.ample
            route = phase._PrimaryTwoPoint(m, table, policy, gamma0)
            reference = ClassKeyedRoute(m, table, policy, gamma0)
            for d in range(7):
                for x in classes:
                    for y in classes:
                        assert route.series(d, x, y) == reference.series(d, x, y), (m.name, scale, d, x, y)


def test_primary_route_depth_is_not_bounded_by_the_stack(p1, p1_engine):
    # the class-keyed route recursed two frames per level and raised RecursionError from
    # level 600 on; above level 3 every P1 series of the qmax-1 window is zero
    m = p1.model
    policy = m.policy(1)
    level = 1200
    assert sys.getrecursionlimit() < level
    basis = [m.basis_class(i) for i in range(m.rank)]
    for x in basis:
        for y in basis:
            series = two_point_from_primaries(m, p1.primary, policy, level, x, y)
            assert series.is_zero()
            assert series == summed_correlator(p1_engine, [(level, 0, x), (0, 0, y)], policy)


def test_primary_route_setup_work_does_not_grow_with_the_levels(p2, monkeypatch):
    # the two-point-paths window: cup products and quantum products are formed once per
    # basis index, so their counts depend on the rank and not on the number of series
    m = p2.model
    policy = m.policy(6)
    basis = [m.basis_class(i) for i in range(m.rank)]
    m.dual_basis()  # formed once per model, by cup products, before any count is taken
    counts = {}
    original_cup, original_product = GeometryModel.cup, phase.quantum_product

    def cup(self, x, y):
        counts["cup"] += 1
        return original_cup(self, x, y)

    def product(*args):
        counts["product"] += 1
        return original_product(*args)

    monkeypatch.setattr(GeometryModel, "cup", cup)
    monkeypatch.setattr(phase, "quantum_product", product)
    seen = []
    for top in (4, 12):
        counts.update(cup=0, product=0)
        route = phase._PrimaryTwoPoint(m, p2.primary, policy)
        for d in range(top + 1):
            for x in basis:
                for y in basis:
                    route.series(d, x, y)
        seen.append(dict(counts))
    # gamma0 ∪ T_a per index, and two cups per dual class at the zero class of each product
    assert seen[0] == seen[1] == {"cup": m.rank + 2 * m.rank**2, "product": m.rank}


def test_series_entries_reject_a_negative_level(p2, p2_engine):
    m = p2.model
    policy = m.policy(2)
    h, h2 = cls(m, "h"), cls(m, "h2")
    with pytest.raises(ValueError, match="descendant exponents must be non-negative"):
        summed_correlator(p2_engine, [(-1, 0, h2), (0, 0, h2)], policy)
    with pytest.raises(ValueError, match="descendant exponents must be non-negative"):
        summed_correlator(p2_engine, [(-1, 0, h2), (0, 0, h2), (0, 0, h)], policy)
    with pytest.raises(ValueError, match="descendant exponents must be non-negative"):
        two_point_from_primaries(m, p2.primary, policy, -1, h2, h2)
    with pytest.raises(ValueError, match="descendant exponents must be non-negative"):
        phase._PrimaryTwoPoint(m, p2.primary, policy).series(-1, h, h2)


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


def engine_summed_transform(engine, policy):
    """The reference T: every off-diagonal entry summed from the engine's own two-point
    values, the construction the primary-only route must reproduce."""
    model, rank, top = engine.model, engine.model.rank, policy.max_descendant
    duals = model.dual_basis()
    entries = {(idx, idx): NovikovSeries.one(policy) for idx in phase_indices(policy, rank)}
    for k in range(top):
        for a in range(rank):
            for b in range(rank):
                series = summed_correlator(engine, [(k, 0, model.basis_class(a)), (0, 0, duals[b])], policy)
                for c in range(top - k):
                    entries[((c, b), (c + k + 1, a))] = series
    return PhaseTransform(policy, rank, entries)


@pytest.mark.parametrize("name, qmax, dmax", [("P1", 3, 3), ("P2", 3, 3), ("quadric", 2, 2), ("P2-scaled", 3, 3)])
def test_build_transform_equals_the_engine_summed_reference(p1, p2, name, qmax, dmax):
    """T is built from the primaries alone: a fresh engine's memo stays empty, and T equals
    the engine-summed construction, also with the rescaled divisor 3·ample."""
    if name == "quadric":
        model = quadric_model()
        engine = CorrelatorEngine(model, quadric_table(model))
    else:
        fixture = p1 if name == "P1" else p2
        model = fixture.model
        gamma0 = 3 * model.ample if name == "P2-scaled" else None
        engine = CorrelatorEngine(model, fixture.primary, gamma0=gamma0)
    policy = model.policy(qmax, max_descendant=dmax)
    transform = build_transform(engine, policy)
    assert engine._memo == {}
    reference = engine_summed_transform(engine, policy)
    assert engine._memo  # the reference did consult the engine
    assert transform == reference
    assert not transform.is_identity()


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
    assert primary == PotentialSeries(policy, {key: s for key, s in standard.items() if all(d == 0 for d, _ in key)})
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
        ("P2", (3, 5, 3), False, (1564, 6097, 72, 226)),
        ("P2", (3, 5, 3), True, (13, 46, 13, 46)),
        ("P1", (3, 6, 4), False, (926, 7942, 67, 149)),
        ("point", (0, 7, 4), False, (12, 771, 12, 26)),
    ],
)
def test_admissible_key_counts(p1, p2, point, name, window, level0, counts):
    """Pinned key counts, checked and unchecked engine, without and with the modified
    screen (levels summing to at most n - 3).  A spare zero-valued key would leave
    every coefficient unchanged, so only the counts catch it.  Each key maps to the
    engine's admissible classes at its degree sum."""
    fixture = {"P1": p1, "P2": p2, "point": point}[name]
    model, table = fixture.model, fixture.primary
    policy = model.policy(window[0], max_x_degree=window[1], max_descendant=window[2])
    indices = [(0, a) for a in range(model.rank)] if level0 else phase_indices(policy, model.rank)
    base, weights = phase._code_weights(policy, model.rank)
    lists = []
    for modified in (False, True):
        for check in (True, False):
            engine = CorrelatorEngine(model, table, check_dimension=check)
            keys, codes = phase._admissible_keys(engine, policy, indices, modified)
            assert len(codes) == len(keys)
            for (key, classes), code in zip(keys.items(), codes):
                total = sum(d + model.degrees[a] for d, a in key)
                assert list(classes) == list(engine.admissible_classes(policy, len(key), total)), key
                # the code's digit at each index of the window is the index's count in the key
                digits = {idx: code // w % base for idx, w in weights.items()}
                assert digits == {idx: key.count(idx) for idx in weights}, key
            lists.append(keys)
    assert tuple(map(len, lists)) == counts
    # each screened list is the unchecked standard one with keys dropped, order kept
    for keys in (lists[0], lists[2], lists[3]):
        remaining = iter(lists[1])
        assert all(key in remaining for key in keys)
    for keys in lists[2:]:
        assert all(sum(d for d, _ in key) <= len(key) - 3 for key in keys)


@pytest.mark.parametrize(
    "name, window, dropped", [("P1", (3, 6, 4), 859), ("P2", (3, 5, 3), 1492), ("quadric", (2, 4, 2), 398)]
)
def test_modified_key_screen_drops_only_zero_keys(p1, p2, name, window, dropped):
    """Every key the modified screen drops has a zero summed pulled-back correlator on a
    fresh engine, and the screened potential equals the assembly over every standard key,
    coefficient for coefficient."""
    if name == "quadric":
        model = quadric_model()
        table = quadric_table(model)
    else:
        fixture = p1 if name == "P1" else p2
        model, table = fixture.model, fixture.primary
    policy = model.policy(window[0], max_x_degree=window[1], max_descendant=window[2])
    indices = phase_indices(policy, model.rank)
    engine = CorrelatorEngine(model, table)
    every_key = phase._admissible_keys(engine, policy, indices)[0]
    screened = set(phase._admissible_keys(engine, policy, indices, modified=True)[0])
    reference = CorrelatorEngine(model, table)

    def correlator(key):  # the stored coefficient: the summed correlator over the multiplicity factor
        triples = [(0, d, model.basis_class(a)) for d, a in key]
        scale = Fraction(1, phase._multiplicity_factor(key))
        return phase.summed(policy, lambda beta: reference.generalized(beta, triples)) * scale

    assert len(every_key) - len(screened) == dropped
    for key in every_key:
        if key not in screened:
            assert correlator(key).is_zero(), key
    modified = potential_modified(engine, policy)
    assert not modified.is_zero()
    assert modified == PotentialSeries(policy, {key: correlator(key) for key in every_key})


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
        keys = phase._admissible_keys(engine, policy, phase_indices(policy, model.rank))[0]
        slot, _ = phase._axiom_reduction(model, policy)
        assert sum(slot(key) is not None for key in keys) == count
        standard = potential_standard(engine, policy)
        for key in keys:
            marks = [(d, 0, model.basis_class(a)) for d, a in key]
            want = summed_correlator(reference, marks, policy) * Fraction(1, phase._multiplicity_factor(key))
            assert standard.coefficient(key) == want, key


def test_the_standard_potential_finds_each_key_slot_once(p2, monkeypatch):
    """``_potential`` asks the axiom reduction for each key's slot once, for the engine
    keys and the reduced ones alike, and the value is unchanged."""
    model = p2.model
    policy = model.policy(3, max_x_degree=5, max_descendant=3)
    reference = potential_standard(CorrelatorEngine(model, p2.primary), policy)
    original = phase._axiom_reduction
    asked = []

    def counting_reduction(model, policy):
        slot, reduce = original(model, policy)

        def counting_slot(key):
            asked.append(key)
            return slot(key)

        return counting_slot, reduce

    monkeypatch.setattr(phase, "_axiom_reduction", counting_reduction)
    engine = CorrelatorEngine(model, p2.primary)
    assert potential_standard(engine, policy) == reference
    keys = phase._admissible_keys(engine, policy, phase_indices(policy, model.rank))[0]
    assert asked == list(keys)


@pytest.mark.parametrize("name", ["P1", "P2"])
def test_a_key_of_one_index_max_x_degree_times(p1, p2, name):
    """A key of max_x_degree copies of one index carries the largest digit a multiset code
    holds.  Such keys of the window's first and last index go through both potentials and
    the composition with their reference values; on P1 and P2 at (3,4,1) the last one,
    τ_1(p)^4, is nonzero at degree 3."""
    model, table = _model_and_table(p1, p2, name)
    policy = model.policy(3, max_x_degree=4, max_descendant=1)
    engine, reference = CorrelatorEngine(model, table), CorrelatorEngine(model, table)
    standard, modified = potential_standard(engine, policy), potential_modified(engine, policy)
    composed = compose_with_transform(modified, build_transform(engine, policy))
    assert composed == standard
    window = phase_indices(policy, model.rank)
    for idx in (window[0], window[-1]):
        key = (idx,) * policy.max_x_degree
        scale = Fraction(1, phase._multiplicity_factor(key))
        d, a = idx
        marks = [(d, 0, model.basis_class(a))] * len(key)
        assert standard.coefficient(key) == composed.coefficient(key) == summed_correlator(reference, marks, policy) * scale
        pulled = [(0, d, model.basis_class(a))] * len(key)
        assert modified.coefficient(key) == summed_correlator(reference, pulled, policy) * scale
    assert not standard.coefficient((window[-1],) * policy.max_x_degree).is_zero()


def test_the_reduction_and_compose_sort_no_key(p2, monkeypatch):
    """The axiom reduction and the composition key their terms by multiset code: the calls
    to ``sorted`` from the phase module while the standard potential is built and the
    modified one composed are as many at (2,4,2) as at (3,5,3), so none is made per key."""
    model = p2.model
    counts, sizes = [], []
    for window in ((2, 4, 2), (3, 5, 3)):
        policy = model.policy(window[0], max_x_degree=window[1], max_descendant=window[2])
        engine = CorrelatorEngine(model, p2.primary)
        modified, transform = potential_modified(engine, policy), build_transform(engine, policy)
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(phase, "sorted", lambda *args, **kwargs: calls.append(1) or sorted(*args, **kwargs), raising=False)
            standard = potential_standard(engine, policy)
            composed = compose_with_transform(modified, transform)
        assert not hasattr(phase, "sorted") and composed == standard
        counts.append(len(calls))
        sizes.append(len(standard.keys()))
    assert counts[0] == counts[1] and sizes[0] < sizes[1]


def _fraction_reference_potential(engine, policy, indices):
    """The standard potential by the per-key Fraction reduction: the keys in order, each
    reduced by its first string, dilaton or divisor insertion from the raw Fraction series
    of the keys of one fewer mark or else summed by the engine, and every kept series
    then scaled by one over its multiplicity factor."""
    model, degrees = engine.model, engine.model.degrees
    units = model.basis_of_degree(0)
    units = units if len(units) == 1 else ()
    divisors = model.basis_of_degree(1)
    lowerings = {
        a_s: [model.cup(model.basis_class(a_s), model.basis_class(a)).parts for a in range(model.rank)]
        for a_s in units + divisors
    }
    pairings = {
        a_s: {beta: model.beta_pairing(model.basis_class(a_s), beta) for beta in policy.degrees} for a_s in divisors
    }
    axiom_indices = {(0, a) for a in lowerings} | {(1, a) for a in units}
    built = {}  # the nonzero raw series of the keys so far

    def reduce(key):
        slot = next((p for p, idx in enumerate(key) if idx in axiom_indices), None) if len(key) >= 4 else None
        if slot is None:
            return None
        d_s, a_s = key[slot]
        rest = key[:slot] + key[slot + 1 :]
        acc = {}
        if d_s == 1:
            if rest in built:
                phase._accumulate(acc, built[rest]._terms, len(rest) - 2)
            return NovikovSeries._trusted(policy, acc)
        if a_s not in units and rest in built:
            acc = {beta: c * pairings[a_s][beta] for beta, c in built[rest]._terms.items()}
        for i, (d, a) in enumerate(rest):
            if d >= 1 and (i == 0 or rest[i - 1] != rest[i]):  # a run of m equal slots lowers to one key
                m = rest.count(rest[i])
                for c, idx in lowerings[a_s][a]:
                    term = built.get(tuple(sorted(rest[:i] + ((d - 1, idx),) + rest[i + 1 :])))
                    if term is not None:
                        phase._accumulate(acc, term._terms, c * m)
        return NovikovSeries._trusted(policy, acc)

    coeffs = {}
    for key in phase._admissible_keys(engine, policy, indices)[0]:
        series = reduce(key)
        if series is None:
            core = tuple((d, 0, a) for d, a in key)
            classes = engine.admissible_classes(policy, len(key), sum(d + degrees[a] for d, a in key))
            series = phase.summed(policy, lambda beta: engine._core(beta, core), classes)
        if not series.is_zero():
            built[key] = series
            coeffs[key] = series * Fraction(1, phase._multiplicity_factor(key))
    return PotentialSeries(policy, coeffs)


@pytest.mark.parametrize("variant", ["ample", "3-ample", "unchecked"])
@pytest.mark.parametrize(
    "name, window",
    [("P1", (3, 6, 4)), ("P2", (3, 5, 3)), ("quadric", (2, 4, 2)), ("P2-rescaled", (3, 5, 3)), ("P2-sevenths", (3, 5, 3))],
)
def test_integer_reduction_matches_the_fraction_reference(p1, p2, name, window, variant):
    """The standard and primary potentials, reduced over integer numerators on one common
    denominator, equal the per-key Fraction reduction in value and in order, and ask the
    engine for the same memo entries.  On the rescaled planes h∪h = p/2 or p/7, so the string
    and divisor lowerings multiply by a cup part that is not integral; the other variants
    rescale the engine's reduction divisor or switch its dimension screen off."""
    if name == "P2-rescaled":
        model = GeometryModel.from_dict(RESCALED_PLANE)
        table = PrimaryTable.from_records(model, _rescaled_table("4"))
        assert Fraction(1, 2) in [c for c, _ in model.cup(model.basis_class(1), model.basis_class(1)).parts]
    else:
        model, table = _model_and_table(p1, p2, name)
    options = {"gamma0": 3 * model.ample} if variant == "3-ample" else {}
    options["check_dimension"] = variant != "unchecked"
    policy = model.policy(window[0], max_x_degree=window[1], max_descendant=window[2])
    engine, reference_engine = CorrelatorEngine(model, table, **options), CorrelatorEngine(model, table, **options)
    for build, indices in (
        (potential_standard, phase_indices(policy, model.rank)),
        (potential_primary, [(0, a) for a in range(model.rank)]),
    ):
        potential = build(engine, policy)
        reference = _fraction_reference_potential(reference_engine, policy, indices)
        assert not potential.is_zero()
        assert potential == reference
        assert [(k, s.items()) for k, s in potential.items()] == [(k, s.items()) for k, s in reference.items()]
        # the canonical form holds ints only, on the rescaled planes too
        assert all(type(n) is int for terms in potential._numerators.values() for n in terms.values())
        # the first build ran on fresh engines, the second adds what it asks beyond the first's
        assert engine._memo.keys() == reference_engine._memo.keys()


@pytest.mark.parametrize("name", ["P2-rescaled", "P2-sevenths"])
def test_the_axiom_reduction_writes_only_ints(p1, p2, monkeypatch, name):
    """On the rescaled planes h∪h = p/2 or p/7, so a string or divisor lowering multiplies by
    a cup part that is not integral; over the one denominator D·q^(N-3) every value the
    reduction writes is still an int, also where a 5-mark key chains two lowerings."""
    model, table = _model_and_table(p1, p2, name)
    assert {c for c, _ in model.cup(model.basis_class(1), model.basis_class(1)).parts} == {
        Fraction(1, 2 if name == "P2-rescaled" else 7)
    }
    policy = model.policy(3, max_x_degree=5, max_descendant=3)
    original, written = phase._axiom_reduction, {}

    def recording_reduction(model, policy):
        slot, reduce = original(model, policy)

        def recording_reduce(key, code, at, classes, tables):
            out = reduce(key, code, at, classes, tables)
            written[key] = [tables[beta][code] for beta in out] + list(out.values())
            return out

        return slot, recording_reduce

    monkeypatch.setattr(phase, "_axiom_reduction", recording_reduction)
    potential_standard(CorrelatorEngine(model, table), policy)
    assert any(len(key) == 5 for key in written)
    assert {type(n) for values in written.values() for n in values} == {int}


@pytest.mark.parametrize("idx", [(5, 0), (0, 7)])
def test_compose_refuses_an_index_outside_the_transform_window(p2_engine, p2, idx):
    """A key whose index lies outside the transform's window, a level above it or a basis
    index past the rank, has no row there: compose raises ValueError naming the index,
    where the key was dropped and the potential composed to zero."""
    policy = p2.model.policy(1, max_x_degree=3, max_descendant=1)
    transform = build_transform(p2_engine, policy)
    potential = PotentialSeries(policy, {(idx, (0, 1), (0, 2)): NovikovSeries.one(policy)})
    with pytest.raises(ValueError, match=re.escape(f"index {idx} lies outside")):
        compose_with_transform(potential, transform)


def test_the_common_denominator_spans_engine_keys_of_every_length(p2):
    """On P2 at (3,6,4) the four-mark engine key τ_0(p)² τ_1(h) τ_4(p) sums to a series
    with a half in it, while no three-mark key over its indices has a denominator above one:
    the common denominator must span the engine keys of every number of marks."""
    model = p2.model
    policy = model.policy(3, max_x_degree=6, max_descendant=4)
    indices = [(0, 2), (1, 1), (4, 2)]
    potential = phase._potential(CorrelatorEngine(model, p2.primary), policy, indices)
    assert potential == _fraction_reference_potential(CorrelatorEngine(model, p2.primary), policy, indices)
    raw = {key: series * phase._multiplicity_factor(key) for key, series in potential.items()}
    assert {c.denominator for key, series in raw.items() if len(key) == 3 for c in series._terms.values()} <= {1}
    assert 2 in {c.denominator for c in raw[((0, 2), (0, 2), (1, 1), (4, 2))]._terms.values()}


def _model_and_table(p1, p2, name):
    if name == "quadric":
        model = quadric_model()
        return model, quadric_table(model)
    if name in ("P2-rescaled", "P2-sevenths"):
        model = GeometryModel.from_dict(RESCALED_PLANE if name == "P2-rescaled" else SEVENTHS_PLANE)
        return model, PrimaryTable.from_records(model, _rescaled_table("4" if name == "P2-rescaled" else "1"))
    fixture = p1 if name == "P1" else p2
    return fixture.model, fixture.primary


@pytest.mark.parametrize("name, window", [("P1", (2, 4, 2)), ("P2", (2, 4, 2)), ("quadric", (1, 4, 1))])
@pytest.mark.parametrize("check_dimension, use_cache", [(True, True), (False, True), (True, False)])
def test_core_assembly_matches_the_class_valued_entries(p1, p2, name, window, check_dimension, use_cache):
    """Both potentials, assembled on basis-index cores, equal coefficient for coefficient the
    class-valued ``descendant`` and ``generalized`` values summed over the whole window and
    divided by the multiplicity factor, at every key of the index window, formed or not."""
    model, table = _model_and_table(p1, p2, name)
    policy = model.policy(window[0], max_x_degree=window[1], max_descendant=window[2])
    engine = CorrelatorEngine(model, table, check_dimension=check_dimension, use_cache=use_cache)
    standard, modified = potential_standard(engine, policy), potential_modified(engine, policy)
    reference = CorrelatorEngine(model, table)
    indices = phase_indices(policy, model.rank)
    nonzero = [0, 0]
    for n in range(3, policy.max_x_degree + 1):
        for key in combinations_with_replacement(indices, n):
            scale = Fraction(1, phase._multiplicity_factor(key))
            pairs = [(d, model.basis_class(a)) for d, a in key]
            triples = [(0, d, model.basis_class(a)) for d, a in key]
            want_standard = phase.summed(policy, lambda beta: reference.descendant(0, beta, pairs)) * scale
            want_modified = phase.summed(policy, lambda beta: reference.generalized(beta, triples)) * scale
            assert standard.coefficient(key) == want_standard, key
            assert modified.coefficient(key) == want_modified, key
            nonzero[0] += not want_standard.is_zero()
            nonzero[1] += not want_modified.is_zero()
    assert nonzero == [len(standard.items()), len(modified.items())] and min(nonzero) > 0


def test_engine_core_is_the_per_core_term_of_the_class_valued_entries(p2_engine, p2):
    """``_core`` takes the constant-map closed form at the zero class for a descendant core
    and ``_gen`` otherwise, and agrees with the class-valued entries; its caller sorts the core.
    It returns ``_gen``'s value as the memo holds it, an int where integral."""
    model = p2.model
    one, h, pt = (model.label_index(label) for label in ("one", "h", "h2"))
    descendant_core = tuple(sorted(((0, 0, h), (1, 0, pt), (0, 0, h), (0, 0, one))))
    pairs = [(d, model.basis_class(a)) for d, _, a in descendant_core]
    for beta in [(0,), (1,), (2,)]:
        assert p2_engine._core(beta, descendant_core) == p2_engine.descendant(0, beta, pairs), beta
    modified_core = tuple(sorted(((1, 0, one), (0, 0, h), (0, 1, pt), (0, 0, pt))))
    triples = [(d, e, model.basis_class(a)) for d, e, a in modified_core]
    for beta in [(0,), (1,), (2,)]:
        assert p2_engine._core(beta, modified_core) == p2_engine.generalized(beta, triples), beta
    primary_core = tuple(sorted(((0, 0, h), (0, 0, one), (0, 0, h))))
    primary_pairs = [(0, model.basis_class(a)) for *_, a in primary_core]
    assert p2_engine._core((0,), primary_core) == 1 == p2_engine.descendant(0, (0,), primary_pairs)
    # the memo's int comes back as it is; the public entry still returns a Fraction
    assert type(p2_engine._core((1,), primary_core)) is int
    assert type(p2_engine.descendant(0, (1,), primary_pairs)) is Fraction


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
    """Reference substitution over Fraction series: every transform entry is multiplied in,
    the unit diagonal included."""
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


@pytest.mark.parametrize(
    "name, window", [("P1", (3, 5, 3)), ("P2", (3, 5, 4)), ("P2-half", (3, 5, 4)), ("quadric", (2, 4, 2))]
)
def test_integer_compose_matches_the_fraction_reference(p1, p2, name, window):
    """The compose over integer numerators equals the Fraction expansion, and the standard
    potential.  On P1 and P2 these windows give T entries that are not integral, so the
    common denominator DT is not 1; T does not depend on the divisor, which on P2-half is
    ½·ample, a class with a coefficient that is not integral."""
    model, table = _model_and_table(p1, p2, name)
    gamma0 = Fraction(1, 2) * model.ample if name == "P2-half" else None
    engine = CorrelatorEngine(model, table, gamma0=gamma0)
    policy = model.policy(window[0], max_x_degree=window[1], max_descendant=window[2])
    modified = potential_modified(engine, policy)
    transform = build_transform(engine, policy)
    denominators = {c.denominator for _, entry in transform.items() for _, c in entry.items()}
    if name != "quadric":
        assert max(denominators) > 1
    composed = compose_with_transform(modified, transform)
    assert composed == _compose_multiplying_every_entry(modified, transform) == potential_standard(engine, policy)
    assert all(type(n) is int for terms in composed._numerators.values() for n in terms.values())


def _kernel_compose_reference(potential, transform):
    """The composition keyed by multiset code with one dict of classes per code: each step
    adds a truncated product of an expansion's terms and an entry's numerators through
    ``_accumulate_product``, or the expansion times DT for a unit entry."""
    policy = potential.policy
    unit = {policy.zero_beta(): 1}
    coeffs = potential._numerators
    used = {idx: transform._rows.get(idx, {}) for key in coeffs for idx in key}
    dt = lcm(*(c.denominator for row in used.values() for entry in row.values() for c in entry._terms.values()))
    top = max(map(len, coeffs), default=0)
    weight = {inp: (top + 1) ** pos for pos, inp in enumerate(sorted({inp for row in used.values() for inp in row}))}
    rows = {
        idx: [(weight[inp], None if entry._terms == unit else phase._numerators(entry._terms, dt)) for inp, entry in row.items()]
        for idx, row in used.items()
    }
    shared = {}
    for key, coeff in coeffs.items():
        lift = dt ** (top - len(key))
        if not key:
            shared[0] = {beta: n * lift for beta, n in coeff.items()}
            continue
        expansions = {0: {beta: n * lift for beta, n in coeff.items()}}
        for step, idx in enumerate(key, 1):
            new = shared if step == len(key) else {}
            for code, terms in expansions.items():
                for w, entry in rows[idx]:
                    acc = new.get(code + w, {})
                    if entry is None:
                        _accumulate(acc, terms, dt)
                    else:
                        _accumulate_product(acc, policy.sums, terms, entry)
                    if acc:
                        new[code + w] = acc
            expansions = new
    numerators = dict(zip(phase._decoded_keys(shared, list(weight), top + 1), shared.values()))
    return PotentialSeries._from_numerators(policy, numerators, potential._denominator * dt**top)


def _leaves_the_window(potential, transform):
    """Whether some coefficient class and some class of a row entry the potential uses sum
    past the window, so that the composition must drop their product."""
    policy = potential.policy
    classes = {beta for terms in potential._numerators.values() for beta in terms}
    entries = {beta for key in potential._numerators for idx in key for _, s in transform.row(idx) for beta in s._terms}
    return any(b2 not in policy.sums[b1] for b1 in classes for b2 in entries)


@pytest.mark.parametrize(
    "name, window", [("P1", (3, 6, 4)), ("P2", (3, 5, 3)), ("P2-rescaled", (3, 5, 3)), ("quadric", (3, 4, 2))]
)
def test_flat_compose_matches_the_kernel_reference(p1, p2, name, window):
    """The composition keyed by code·C + class index equals the one that multiplies class
    dicts through the truncated-product kernel, and the standard potential.  On the quadric
    a coefficient class and an entry class sum past the window, and that product is
    dropped."""
    if name == "P2-rescaled":
        model = GeometryModel.from_dict(RESCALED_PLANE)
        table = PrimaryTable.from_records(model, _rescaled_table("4"))
    else:
        model, table = _model_and_table(p1, p2, name)
    engine = CorrelatorEngine(model, table)
    policy = model.policy(window[0], max_x_degree=window[1], max_descendant=window[2])
    modified, transform = potential_modified(engine, policy), build_transform(engine, policy)
    composed = compose_with_transform(modified, transform)
    assert not composed.is_zero()
    assert composed == _kernel_compose_reference(modified, transform) == potential_standard(engine, policy)
    if name == "quadric":
        assert _leaves_the_window(modified, transform)


def test_flat_compose_matches_the_kernel_reference_on_a_two_term_entry():
    """A hand-built transform whose entries have two terms each, one of them off the zero
    class, and a unit entry off the diagonal: the flat composition equals the kernel one,
    including the products it drops past the window."""
    model = quadric_model()
    policy = model.policy(2, max_x_degree=3, max_descendant=1)
    one = NovikovSeries.one(policy)
    q = {beta: NovikovSeries.monomial(policy, beta) for beta in [(1, 0), (0, 1), (1, 1)]}
    entries = {(idx, idx): one for idx in phase_indices(policy, model.rank)}
    entries[((0, 1), (1, 2))] = 2 * one - q[(0, 1)]
    entries[((0, 0), (1, 3))] = Fraction(1, 3) * q[(1, 0)] + q[(1, 1)]
    entries[((0, 3), (1, 0))] = one
    transform = PhaseTransform(policy, model.rank, entries)
    potential = PotentialSeries(
        policy,
        {
            ((0, 0), (0, 1), (0, 3)): one + q[(1, 1)],
            ((0, 1), (0, 1), (0, 0)): Fraction(1, 2) * q[(0, 1)] - q[(1, 0)],
            ((0, 3),): q[(0, 1)],
        },
    )
    composed = compose_with_transform(potential, transform)
    assert _leaves_the_window(potential, transform)
    assert composed == _kernel_compose_reference(potential, transform) == _compose_multiplying_every_entry(potential, transform)
    assert not composed.is_zero()


def test_compose_keeps_keys_of_fewer_than_three_indices(p1_engine, p1):
    """A potential is any multiset-keyed polynomial: a constant term takes no row of T and
    a one-index key takes one, as in the Fraction reference."""
    m = p1.model
    policy = m.policy(2, max_x_degree=4, max_descendant=2)
    half = NovikovSeries(policy, {(0,): Fraction(1, 2), (1,): Fraction(-1, 3)})
    potential = PotentialSeries(policy, {(): half, ((0, 1),): half, ((1, 0),): 3 * half})
    transform = build_transform(p1_engine, policy)
    composed = compose_with_transform(potential, transform)
    assert composed == _compose_multiplying_every_entry(potential, transform)
    assert composed.coefficient(()) == half and len(composed.items()) > 3


@pytest.mark.parametrize("window", [(2, 4, 2), (3, 0, 2), (3, 4, 1)])
def test_compose_refuses_a_transform_over_another_window(p1_engine, p1, window):
    m = p1.model
    modified = potential_modified(p1_engine, m.policy(3, max_x_degree=4, max_descendant=2))
    qmax, xdeg, dmax = window
    transform = build_transform(p1_engine, m.policy(qmax, max_x_degree=xdeg, max_descendant=dmax))
    with pytest.raises(PolicyMismatchError):
        compose_with_transform(modified, transform)


def test_compose_and_the_axiom_reduction_write_into_no_stored_series(p1):
    """The sums accumulate in place into dicts of their own: composing twice leaves the
    potential and the transform as they were, and a second build of the standard
    potential on a warm engine equals the build on a fresh one."""
    model = p1.model
    policy = model.policy(3, max_x_degree=5, max_descendant=3)
    engine = CorrelatorEngine(model, p1.primary)
    standard = potential_standard(engine, policy)
    modified = potential_modified(engine, policy)
    transform = build_transform(engine, policy)
    modified_before = [(key, series.items()) for key, series in modified.items()]
    transform_before = [(idx, series.items()) for idx, series in transform.items()]
    first = compose_with_transform(modified, transform)
    second = compose_with_transform(modified, transform)
    assert first == second == standard
    assert [(key, series.items()) for key, series in modified.items()] == modified_before
    assert [(idx, series.items()) for idx, series in transform.items()] == transform_before
    assert potential_standard(engine, policy) == potential_standard(CorrelatorEngine(model, p1.primary), policy)


def test_compose_stores_no_term_that_cancels():
    """Two expansion paths of one key cancel at one output key, and two keys cancel the
    q^(0,1) term at another: the cancelled key and the zero term are not stored."""
    model = quadric_model()
    policy = model.policy(2, max_x_degree=3, max_descendant=1)
    one = NovikovSeries.one(policy)
    q = {beta: NovikovSeries.monomial(policy, beta) for beta in [(1, 0), (0, 1)]}
    entries = {(idx, idx): one for idx in phase_indices(policy, model.rank)}
    # rows (0,1) and (0,2) swap a and b, one way with +1 (a unit off the diagonal), back with -1
    entries[((0, 1), (0, 2))] = one
    entries[((0, 2), (0, 1))] = -one
    entries[((0, 0), (1, 0))] = q[(0, 1)]
    transform = PhaseTransform(policy, model.rank, entries)
    potential = PotentialSeries(
        policy,
        {
            ((0, 1), (0, 2), (0, 3)): one + q[(1, 0)],
            ((0, 0), (0, 0), (1, 3)): one,
            ((0, 0), (1, 0), (1, 3)): -2 * q[(0, 1)] + q[(1, 0)],
        },
    )
    composed = compose_with_transform(potential, transform)
    assert composed == _compose_multiplying_every_entry(potential, transform)
    assert ((0, 1), (0, 2), (0, 3)) not in composed._numerators  # 1·1 + 1·(-1) on both orders
    assert composed.coefficient(((0, 0), (1, 0), (1, 3))) == q[(1, 0)]  # 2q^(0,1) - 2q^(0,1) + q^(1,0)
    assert all(terms and all(terms.values()) for terms in composed._numerators.values())


def digit_walk_keys(codes, inputs, base):
    """The reference decode: each code's base digits walked from the lowest, one per input."""
    keys = []
    for code in codes:
        key = ()
        for inp in inputs:
            code, count = divmod(code, base)
            if count:
                key += (inp,) * count
                if not code:
                    break
        keys.append(key)
    return keys


def test_compose_decodes_by_halves_as_the_digit_walk(p2, p1_engine, p1, monkeypatch):
    """Compose decodes its output codes from memoized low and high halves: on the codes it
    decodes at P2 (4,5,4), and on a hand-built P1 key of five indices, longer than the
    window's max_x_degree of 3, the keys equal the digit walk's."""
    decoded = []
    original = phase._decoded_keys

    def recording(codes, inputs, base):
        codes = list(codes)
        keys = original(codes, inputs, base)
        decoded.append((codes, inputs, base, keys))
        return keys

    monkeypatch.setattr(phase, "_decoded_keys", recording)
    engine = CorrelatorEngine(p2.model, p2.primary)
    policy = p2.model.policy(4, max_x_degree=5, max_descendant=4)
    composed = compose_with_transform(potential_modified(engine, policy), build_transform(engine, policy))
    assert composed == potential_standard(engine, policy)

    m = p1.model
    policy = m.policy(2, max_x_degree=3, max_descendant=2)
    long_key = ((0, 0), (0, 1), (1, 1), (1, 1), (2, 0))
    potential = PotentialSeries(policy, {long_key: NovikovSeries.monomial(policy, (1,), Fraction(1, 3))})
    transform = build_transform(p1_engine, policy)
    composed = compose_with_transform(potential, transform)
    assert composed == _compose_multiplying_every_entry(potential, transform)
    assert long_key in composed.keys()

    assert len(decoded) == 2 and len(decoded[0][0]) > 2000
    for codes, inputs, base, keys in decoded:
        assert len(inputs) > 1 and keys == digit_walk_keys(codes, inputs, base)
    assert max(map(len, decoded[1][3])) == len(long_key)


def test_compose_and_the_identity_test_form_no_fraction(p2):
    """On P2 at (3,5,3) the composition runs on the potential's int numerators and returns
    the int form, and the identity test compares ints: neither builds a Fraction.  Nor does
    the modified potential rebuilt on the warm engine: the memo's ints reach it as they are."""
    model = p2.model
    policy = model.policy(3, max_x_degree=5, max_descendant=3)
    engine = CorrelatorEngine(model, p2.primary)
    standard, modified = potential_standard(engine, policy), potential_modified(engine, policy)
    transform = build_transform(engine, policy)
    original = Fraction.__dict__["__new__"]
    built = []

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        composed = compose_with_transform(modified, transform)
        equal = composed == standard
        rebuilt = potential_modified(engine, policy)
    finally:
        Fraction.__new__ = original
    assert equal and not composed.is_zero() and rebuilt == modified
    assert built == []
    assert Fraction(3, 6) == Fraction(1, 2)  # the original constructor is back


def test_potential_numerators_are_canonical(p1):
    """A potential holds int numerators over one denominator in lowest terms, however its
    values were given: from Fraction series, or as numerators over a denominator that is not
    reduced, with zero terms and keys dropped."""
    model = p1.model
    policy = model.policy(2, max_x_degree=3, max_descendant=1)
    a, b = ((0, 1), (0, 1), (1, 0)), ((0, 0), (0, 1), (0, 1))
    from_series = PotentialSeries(
        policy,
        {
            a: NovikovSeries(policy, {(1,): Fraction(3, 4), (2,): Fraction(-1, 6)}),
            b: NovikovSeries(policy, {(0,): Fraction(1, 2)}),
            ((1, 1),) * 3: NovikovSeries.zero(policy),
        },
    )
    numerators = {a: {(1,): 45, (2,): -10, (0,): 0}, b: {(0,): 30}, ((1, 1),) * 3: {(1,): 0}}
    from_numerators = PotentialSeries._from_numerators(policy, numerators, 60)
    assert from_series == from_numerators
    assert (from_numerators._denominator, from_numerators._numerators) == (12, {a: {(1,): 9, (2,): -2}, b: {(0,): 6}})
    assert from_numerators.keys() == [b, a] and from_numerators.coefficient(reversed(a)) == from_series.coefficient(a)
    assert from_series != PotentialSeries._from_numerators(policy, {a: {(1,): 9, (2,): -2}}, 12)


def test_a_potential_sorts_the_keys_it_is_given(p1):
    """The constructor sorts each key, and adds the series of keys that sort to one key."""
    policy = p1.model.policy(2, max_x_degree=3, max_descendant=1)
    key, other = ((1, 0), (0, 1), (0, 1)), ((0, 1), (1, 0), (0, 1))
    series = NovikovSeries(policy, {(1,): Fraction(3, 4), (2,): Fraction(-1, 6)})
    given = PotentialSeries(policy, {key: series})
    assert given.coefficient(key) == series
    assert given == PotentialSeries(policy, {tuple(sorted(key)): series})
    assert given.keys() == [tuple(sorted(key))]
    assert PotentialSeries(policy, {key: series, other: series}) == PotentialSeries(policy, {key: 2 * series})
    assert PotentialSeries(policy, {key: series, other: -series}).is_zero()


def test_a_zero_potential_stays_zero(p1_engine, p1):
    """No terms, all-zero numerators and a composition of either are the one zero potential,
    0 over 1, with no key, no record and no difference from the empty potential."""
    policy = p1.model.policy(2, max_x_degree=3, max_descendant=2)
    empty = PotentialSeries(policy)
    cancelled = PotentialSeries._from_numerators(policy, {((0, 1),) * 3: {(1,): 0, (2,): 0}}, 7)
    composed = compose_with_transform(cancelled, build_transform(p1_engine, policy))
    for zero in (empty, cancelled, composed, PotentialSeries(policy, {((0, 1),) * 3: NovikovSeries.zero(policy)})):
        assert zero.is_zero() and zero == empty
        assert (zero._denominator, zero._numerators) == (1, {})
        assert zero.items() == [] and zero.to_records(p1.model) == [] and zero.difference(empty) == []
        assert zero.coefficient(((0, 1),) * 3).is_zero()


def _fraction_records(potential, model):
    """The dump records rendered from the potential's Fraction series, term by term."""
    return [
        {"indices": [[d, model.labels[a]] for d, a in key], "beta": list(beta), "value": str(value)}
        for key, series in potential.items()
        for beta, value in series.items()
    ]


# the plane with p = 7·pt and a table entry <h p p>_1 = 1 that is not scaled with it (49 would
# be): a key's numerators over the engine keys' common denominator times 4! would keep sevenths
# at (2,4,2), so the reduction holds every key over that denominator times 7
SEVENTHS_PLANE = {
    **RESCALED_PLANE,
    "name": "P2-sevenths",
    "cup": [{"a": "h", "b": "h", "result": {"p": "1/7"}}, *RESCALED_PLANE["cup"][1:]],
    "integral": {"p": "7"},
    "chern": [{"one": "1"}, {"h": "3"}, {"p": "3/7"}],
}


@pytest.mark.parametrize("name", ["quadric", "P2-rescaled", "P2-sevenths"])
def test_records_match_the_fraction_rendering(name):
    """``to_records`` renders each term from its numerator and the denominator exactly as the
    Fraction renders.  On the quadric's rank-2 lattice the window's order puts the class
    (1,0) before (0,2), which sorting the classes would not; on the rescaled planes the
    reduction lowers by cup parts that are not integral, and the standard potential equals
    the per-key Fraction reduction."""
    if name == "quadric":
        model = quadric_model()
        table = quadric_table(model)
        policy = model.policy(2, max_x_degree=4, max_descendant=2)
    elif name == "P2-rescaled":
        model = GeometryModel.from_dict(RESCALED_PLANE)
        table = PrimaryTable.from_records(model, _rescaled_table("4"))
        policy = model.policy(3, max_x_degree=5, max_descendant=3)
    else:
        model = GeometryModel.from_dict(SEVENTHS_PLANE)
        table = PrimaryTable.from_records(model, _rescaled_table("1"))
        policy = model.policy(2, max_x_degree=4, max_descendant=2)
    engine = CorrelatorEngine(model, table)
    potentials = [potential_standard(engine, policy), potential_modified(engine, policy)]
    if name == "quadric":  # a potential's classes share one degree, so a hand-made key mixes two
        mixed = NovikovSeries(policy, {(0, 2): Fraction(-1, 6), (1, 0): Fraction(3, 4), (0, 1): 2})
        potentials.append(PotentialSeries(policy, {((0, 1), (1, 2), (2, 3)): mixed}))
        assert [record["beta"] for record in potentials[-1].to_records(model)] == [[0, 1], [1, 0], [0, 2]]
    else:
        indices = phase_indices(policy, model.rank)
        assert potentials[0] == _fraction_reference_potential(CorrelatorEngine(model, table), policy, indices)
    for potential in potentials:
        records = potential.to_records(model)
        assert records and json.dumps(records) == json.dumps(_fraction_records(potential, model))


def test_multiplicity_factor_is_the_product_of_run_factorials():
    assert [
        phase._multiplicity_factor(key)
        for key in [(), ((0, 1),), ((0, 1), (0, 1), (0, 1)), ((0, 0), (0, 0), (0, 1), (1, 1), (1, 1), (1, 1))]
    ] == [1, 1, 6, 12]


def test_summed_builds_fraction_series_equal_to_the_public_constructor(p2_engine, p2):
    m, table = p2.model, p2.primary
    policy = m.policy(3)
    h, pt = cls(m, "h"), cls(m, "h2")
    for value in (
        lambda beta: p2_engine.descendant(0, beta, [(1, pt), (0, h), (0, h)]),
        lambda beta: table.three_point(beta, h, pt, pt),
    ):
        series = phase.summed(policy, value)
        assert series == NovikovSeries(policy, {beta: value(beta) for beta in policy.iter_effective()})
        assert series.items() and all(type(c) is Fraction for _, c in series.items())


def test_transform_identity_small(p1_engine, p1):
    policy = p1.model.policy(2, max_x_degree=3, max_descendant=2)
    report = transform_identity_report(p1_engine, policy)
    assert report.ok, str(report)
    assert report.transform == build_transform(p1_engine, policy)


def test_transform_identity_tests_equality_before_diffing(p1, monkeypatch):
    """Equal potentials give no mismatch without ``difference`` being called; with one
    transform entry perturbed, the report's mismatches are exactly the difference."""
    model = p1.model
    policy = model.policy(3, max_x_degree=5, max_descendant=3)

    def refuse(self, other):
        raise AssertionError("difference called on equal potentials")

    with monkeypatch.context() as patched:
        patched.setattr(PotentialSeries, "difference", refuse)
        report = transform_identity_report(CorrelatorEngine(model, p1.primary), policy)
    assert report.ok and report.potential_mismatches == []
    assert report.checked_keys == 270  # recorded before the equality test was added

    def perturbed(engine, policy):
        # doubling this entry keeps the composed potential's 270 keys and changes 57 of them
        entries = dict(build_transform(engine, policy).items())
        entries[((1, 0), (2, 1))] = 2 * entries[((1, 0), (2, 1))]
        return PhaseTransform(policy, model.rank, entries)

    monkeypatch.setattr(phase, "build_transform", perturbed)
    engine = CorrelatorEngine(model, p1.primary)
    report = transform_identity_report(engine, policy)
    standard = potential_standard(engine, policy)
    composed = compose_with_transform(potential_modified(engine, policy), perturbed(engine, policy))
    assert len(composed.items()) == len(standard.items()) and len(report.potential_mismatches) == 57
    assert report.potential_mismatches == standard.difference(composed)


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


@pytest.mark.parametrize("name", ["P1", "P2"])
def test_substitution_identity_with_pulled_back_powers(request, name):
    # keys of four or more marks, so the right side's pulled-back power e = j reaches
    # classes where it is nonzero: summing it at classes that drop e from the degree
    # count would lose those terms
    fx = request.getfixturevalue(name.lower())
    engine = CorrelatorEngine(fx.model, fx.primary)
    policy = fx.model.policy(3, max_x_degree=5, max_descendant=3)
    transform = build_transform(engine, policy)
    keys = [key for key, _ in potential_standard(engine, policy).items() if len(key) >= 4 and key[-1][0] >= 1]
    assert len(keys) > 100
    for key in keys:
        lhs, rhs = substitution_identity(engine, transform, key)
        assert lhs == rhs, key


def test_substitution_identity_rejects_a_key_without_positive_level(p1_engine, p1):
    transform = build_transform(p1_engine, p1.model.policy(2, max_x_degree=3, max_descendant=2))
    with pytest.raises(ValueError, match="no positive level"):
        substitution_identity(p1_engine, transform, ((0, 1), (0, 1), (0, 0)))


def test_substitution_identity_rejects_a_key_of_two_marks(p1_engine, p1):
    # the right side's classes may all be screened out, which must not turn the error into 0
    transform = build_transform(p1_engine, p1.model.policy(2, max_x_degree=3, max_descendant=2))
    for key in (((1, 1), (0, 1)), ((1, 0), (0, 0)), ((2, 1), (0, 1))):
        with pytest.raises(UnsupportedQueryError, match="stable range"):
            substitution_identity(p1_engine, transform, key)


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
    fields = TruncationPolicy._fields

    def counting(self):
        calls.append(self)
        return fields(self)

    monkeypatch.setattr(TruncationPolicy, "_fields", counting)

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


# each value type, built from P1 and a policy, with its repr when the test pins one
VALUE_TYPES = [
    (lambda m, policy: m.class_from_map({"h": 1}), "CohClass(coeffs=(Fraction(0, 1), Fraction(1, 1)))"),
    (
        lambda m, policy: m.policy(2, max_descendant=1),
        "TruncationPolicy(beta_weights=(1,), max_beta_degree=2, max_x_degree=0, max_descendant=1)",
    ),
    (lambda m, policy: NovikovSeries.monomial(policy, (1,), 3), "NovikovSeries(3·q^[1])"),
    (lambda m, policy: PotentialSeries(policy, {((0, 1),) * 3: NovikovSeries.monomial(policy, (1,), 3)}), None),
    (lambda m, policy: PhaseTransform.identity(policy, m.rank), None),
]


@pytest.mark.parametrize("position", range(len(VALUE_TYPES)))
def test_value_types_share_one_equality_rule(p1, monkeypatch, position):
    m, policy = p1.model, p1.model.policy(2, max_descendant=1)
    make, expected_repr = VALUE_TYPES[position]
    value, twin = make(m, policy), make(m, policy)
    kind = type(value)
    assert twin is not value and twin == value and value == twin
    frozen = kind in (CohClass, TruncationPolicy)
    if frozen:
        assert hash(twin) == hash(value) == hash(value._fields())
    else:
        with pytest.raises(TypeError):
            hash(value)
    if expected_repr is not None:
        assert repr(value) == expected_repr
    fields = value._fields()
    other = VALUE_TYPES[(position + 1) % len(VALUE_TYPES)][0](m, policy)
    for unlike in (fields, other):
        assert value != unlike and unlike != value
    calls = []
    read = kind._fields
    monkeypatch.setattr(kind, "_fields", lambda self: calls.append(self) or read(self))
    assert value == value and calls == []
    assert value == twin and calls


def test_engine_and_route_are_freed_by_reference_counting(p2):
    """The per-class caches close over the model and gamma0, never over the engine or the
    route, so either is freed as soon as its last reference goes, with the cycle collector off."""
    m = p2.model
    h, pt = cls(m, "h"), cls(m, "h2")
    enabled = gc.isenabled()
    gc.disable()
    try:
        engine = CorrelatorEngine(m, p2.primary)
        assert engine.two_point(1, pt, h, (1,)) == 1
        assert engine.primary((2,), [pt] * 5) == 1
        assert engine.one_point(1, pt, (1,), route="dilaton") == engine.one_point(1, pt, (1,))
        freed = weakref.ref(engine)
        del engine
        assert freed() is None
        route = phase._PrimaryTwoPoint(m, p2.primary, m.policy(3))
        assert not route.series(3, pt, pt).is_zero()
        freed = weakref.ref(route)
        del route
        assert freed() is None
    finally:
        if enabled:
            gc.enable()
