from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction

import pytest

from gwdesc.exact import (
    GwdescError,
    NovikovSeries,
    PolicyMismatchError,
    RationalFormatError,
    TruncationPolicy,
    antiderivative_q,
    beta_add,
    beta_splittings,
    derivative_q,
    format_rational,
    invert_matrix,
    parse_rational,
    solve_linear,
)

POLICY = TruncationPolicy(beta_weights=(1,), max_beta_degree=4)
POLICY2 = TruncationPolicy(beta_weights=(1, 2), max_beta_degree=4)


def series(terms, policy=POLICY):
    return NovikovSeries(policy, terms)


def random_series(rng, policy=POLICY):
    terms = {}
    for beta in policy.iter_effective():
        if rng.random() < 0.6:
            terms[beta] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return series(terms, policy)


def test_parse_and_format_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-5") == Fraction(-5)
    # a zero denominator raised ZeroDivisionError, which no input-error handler catches
    with pytest.raises(RationalFormatError, match="rational '1/0' has a zero denominator"):
        parse_rational("1/0")
    assert issubclass(RationalFormatError, GwdescError) and issubclass(RationalFormatError, ValueError)
    assert format_rational(Fraction(7, 2)) == "7/2"
    assert format_rational(Fraction(-3)) == "-3"


@pytest.mark.parametrize("text", ["x", "1/x", ""])
def test_text_that_is_not_a_rational_is_a_rational_format_error(p1, text):
    # it was a plain ValueError, so class_from_map raised no GwdescError
    with pytest.raises(RationalFormatError, match=f"^{text!r} is not a rational"):
        parse_rational(text)
    with pytest.raises(GwdescError, match=f"^{text!r} is not a rational"):
        p1.model.class_from_map({"h": text})


def test_policy_validation():
    with pytest.raises(ValueError):
        TruncationPolicy(beta_weights=(0,), max_beta_degree=2)
    with pytest.raises(ValueError):
        TruncationPolicy(beta_weights=(1,), max_beta_degree=-1)


def test_policy_is_a_frozen_value():
    policy = TruncationPolicy(beta_weights=(1, 2), max_beta_degree=4, max_x_degree=3)
    twin = TruncationPolicy((1, 2), 4, 3, 0)
    assert twin is not policy and twin == policy and hash(twin) == hash(policy)
    assert hash(policy) == hash(((1, 2), 4, 3, 0))
    assert {policy: 1}[twin] == 1
    for other in (
        TruncationPolicy(beta_weights=(1, 1), max_beta_degree=4, max_x_degree=3),
        TruncationPolicy(beta_weights=(1, 2), max_beta_degree=5, max_x_degree=3),
        TruncationPolicy(beta_weights=(1, 2), max_beta_degree=4, max_x_degree=2),
        TruncationPolicy(beta_weights=(1, 2), max_beta_degree=4, max_x_degree=3, max_descendant=1),
    ):
        assert other != policy and not other == policy
    assert policy != ((1, 2), 4, 3, 0)
    with pytest.raises(AttributeError):
        policy.max_beta_degree = 5
    with pytest.raises(AttributeError):
        del policy.max_x_degree
    assert policy.max_beta_degree == 4 and policy.max_x_degree == 3
    assert repr(policy) == "TruncationPolicy(beta_weights=(1, 2), max_beta_degree=4, max_x_degree=3, max_descendant=0)"
    assert policy.degrees is policy.degrees and policy.sums is policy.sums
    for copied in (copy.copy(policy), pickle.loads(pickle.dumps(policy))):
        assert copied == policy and hash(copied) == hash(policy) and copied.degrees == policy.degrees


def test_iter_effective_is_degree_ordered():
    found = list(POLICY2.iter_effective())
    degrees = [POLICY2.beta_degree(b) for b in found]
    assert degrees == sorted(degrees)
    assert found[0] == (0, 0)
    assert (1, 0) in found and (0, 2) in found
    assert all(POLICY2.beta_degree(b) <= 4 for b in found)


def test_window_order_is_pinned():
    # degree first, then lexicographic within a degree; the degree table keeps the same order
    policy = TruncationPolicy(beta_weights=(1, 2), max_beta_degree=4)
    expected = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (3, 0), (0, 2), (2, 1), (4, 0)]
    assert list(policy.iter_effective()) == expected
    assert list(policy.degrees) == expected
    assert list(policy.degrees.values()) == [0, 1, 2, 2, 3, 3, 4, 4, 4]
    # a series lists its terms in the window's order, whatever order they were given in
    full = series({beta: i + 1 for i, beta in enumerate(reversed(expected))}, policy)
    assert [beta for beta, _ in full.items()] == expected
    sparse = series({(4, 0): 1, (0, 2): 2, (1, 0): 3, (2, 0): 4}, policy)
    assert sparse.items() == [((1, 0), 3), ((2, 0), 4), ((0, 2), 2), ((4, 0), 1)]


def test_addition_cases():
    one = series({(0,): 1})
    assert (one + series({(0,): -1})).is_zero()
    half = series({(2,): Fraction(1, 2)})
    assert half + half == series({(2,): 1})
    rng = random.Random(7)
    a = random_series(rng)
    assert a + NovikovSeries.zero(POLICY) == a


def test_multiplication_cases():
    q1 = NovikovSeries.monomial(POLICY, (1,))
    q2 = NovikovSeries.monomial(POLICY, (2,))
    assert q1 * q2 == NovikovSeries.monomial(POLICY, (3,))

    tight = TruncationPolicy(beta_weights=(1,), max_beta_degree=2)
    one_plus = NovikovSeries(tight, {(0,): 1, (1,): 1})
    one_minus = NovikovSeries(tight, {(0,): 1, (1,): -1})
    assert one_plus * one_minus == NovikovSeries(tight, {(0,): 1, (2,): -1})

    tighter = TruncationPolicy(beta_weights=(1,), max_beta_degree=1)
    s = NovikovSeries(tighter, {(0,): 1, (1,): 1})
    assert s * s == NovikovSeries(tighter, {(0,): 1, (1,): 2})


def test_constructor_rejects_a_non_effective_class():
    # a product reads each class's degree from the window's table, which holds only effective classes
    rank2 = TruncationPolicy(beta_weights=(1, 1), max_beta_degree=3)
    with pytest.raises(ValueError, match="not effective"):
        NovikovSeries(rank2, {(2, -1): 1})
    assert NovikovSeries(rank2, {(5, -1): 1, (1, 0): 2}) == NovikovSeries.monomial(rank2, (1, 0), 2)
    assert rank2.degrees == {beta: rank2.beta_degree(beta) for beta in rank2.iter_effective()}


def test_ring_axioms_randomized():
    rng = random.Random(20240803)
    for _ in range(40):
        a, b, c = (random_series(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_truncation_is_a_quotient_map():
    wide = TruncationPolicy(beta_weights=(1,), max_beta_degree=6)
    narrow = TruncationPolicy(beta_weights=(1,), max_beta_degree=3)
    rng = random.Random(5)

    def shrink(s):
        return NovikovSeries(narrow, dict(s.items()))

    for _ in range(25):
        a = random_series(rng, wide)
        b = random_series(rng, wide)
        assert shrink(a * b) == shrink(a) * shrink(b)


def test_policy_with_list_weights_equals_its_tuple_twin():
    listed = TruncationPolicy(beta_weights=[1], max_beta_degree=2)
    twin = TruncationPolicy(beta_weights=(1,), max_beta_degree=2)
    assert listed.beta_weights == (1,) and listed == twin and hash(listed) == hash(twin)
    assert {twin: 1}[listed] == 1
    assert NovikovSeries(listed, {(1,): 1}) + NovikovSeries(twin, {(2,): 1}) == NovikovSeries(twin, {(1,): 1, (2,): 1})


def test_policy_mismatch_raises():
    a = series({(1,): 1})
    b = NovikovSeries(TruncationPolicy(beta_weights=(1,), max_beta_degree=2), {(1,): 1})
    with pytest.raises(PolicyMismatchError):
        _ = a + b
    with pytest.raises(PolicyMismatchError):
        _ = a * b
    equal = NovikovSeries(TruncationPolicy(beta_weights=(1,), max_beta_degree=4), {(1,): 1})
    assert equal.policy is not a.policy and a + equal == series({(1,): 2})


@pytest.mark.parametrize("name", ["weights (2, 3)", "P2"])
def test_sum_table_holds_exactly_the_pairs_within_the_bound(p2, name):
    policy = TruncationPolicy(beta_weights=(2, 3), max_beta_degree=9) if name != "P2" else p2.model.policy(4)
    degrees, bound = policy.degrees, policy.max_beta_degree
    table = policy.sums
    assert list(table) == list(degrees)
    pairs = {(b1, b2) for b1 in table for b2 in table[b1]}
    assert pairs == {(b1, b2) for b1 in degrees for b2 in degrees if degrees[b1] + degrees[b2] <= bound}
    assert all(total == beta_add(b1, b2) and total in degrees for b1 in table for b2, total in table[b1].items())
    # degrees 0,2,3,4,5,6,6,7,8,8,9,9 give 1+2+2+3+4+7+6+11+12 = 48 ordered pairs of sum
    # 0..9 over weights (2, 3); P2's degrees 0..4 give 5+4+3+2+1 = 15
    assert len(pairs) == {"P2": 15}.get(name, 48)
    assert policy.sums is table  # formed once per policy


def test_antiderivative():
    pair3 = lambda beta: 3 * beta[0]  # noqa: E731
    s = series({(1,): Fraction(5)})
    assert antiderivative_q(s, pair3) == series({(1,): Fraction(5, 3)})
    assert antiderivative_q(NovikovSeries.zero(POLICY), pair3).is_zero()
    with pytest.raises(ValueError):
        antiderivative_q(series({(0,): 5}), pair3)
    with pytest.raises(ValueError):
        antiderivative_q(series({(1,): 1}), lambda beta: 0)


def test_derivative_inverts_antiderivative():
    rng = random.Random(11)
    pairing = lambda beta: 2 * beta[0]  # noqa: E731
    for _ in range(20):
        s = random_series(rng)
        s = s - NovikovSeries.monomial(POLICY, (0,), s.coefficient((0,)))
        assert derivative_q(antiderivative_q(s, pairing), pairing) == s


def test_beta_splittings():
    assert list(beta_splittings((0,))) == [((0,), (0,))]
    splits = set(beta_splittings((2, 1)))
    assert ((1, 0), (1, 1)) in splits
    assert len(splits) == 6
    assert list(beta_splittings(())) == [((), ())]


def test_series_formatting():
    assert str(NovikovSeries.zero(POLICY)) == "0"
    s = series({(0,): Fraction(1, 2), (2,): -3})
    assert str(s) == "1/2 + -3·q^[2]"


def test_solve_linear_and_invert():
    matrix = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert invert_matrix(matrix) == [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert invert_matrix([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]) is None
    solution = solve_linear([[Fraction(2)]], [Fraction(5)])
    assert solution == [Fraction(5, 2)]
    assert solve_linear([[Fraction(0)]], [Fraction(1)]) is None
    tall = solve_linear([[Fraction(1)], [Fraction(2)]], [Fraction(3), Fraction(6)])
    assert tall == [Fraction(3)]


# ----------------------------------------------------------------------
# the ring operations build their results without the public constructor's
# checks; each must store exactly what the public constructor would

WEIGHTED = TruncationPolicy(beta_weights=(2, 3), max_beta_degree=9)


def rebuilt(terms, policy=WEIGHTED):
    """The public constructor's series over (class, coefficient) pairs, duplicates summed."""
    return NovikovSeries(policy, list(terms))


def assert_same_storage(got, want):
    assert got == want
    assert got._terms == want._terms
    assert all(type(c) is Fraction and c for c in got._terms.values())


def test_trusted_ring_operations_store_what_the_public_constructor_would():
    rng = random.Random(20240805)
    classes = [(i, j) for i in range(5) for j in range(4)]  # some lie past the window
    scalars = [0, 1, -2, 7, Fraction(0), Fraction(1), Fraction(-3, 4), Fraction(5, 6)]
    pairing = lambda beta: Fraction(beta[0] + 2 * beta[1], 3)  # noqa: E731  nonzero off the origin
    for _ in range(60):
        a, b = (
            NovikovSeries(WEIGHTED, {c: Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for c in rng.sample(classes, 8)})
            for _ in range(2)
        )
        a_items, b_items = list(a._terms.items()), list(b._terms.items())
        assert_same_storage(a + b, rebuilt(a_items + b_items))
        assert_same_storage(a - b, rebuilt(a_items + [(beta, -c) for beta, c in b_items]))
        assert_same_storage(-a, rebuilt((beta, -c) for beta, c in a_items))
        assert_same_storage(
            a * b, rebuilt(((x + y, p + q), c * d) for (x, p), c in a_items for (y, q), d in b_items)
        )
        for q in scalars:
            assert_same_storage(a * q, rebuilt((beta, c * q) for beta, c in a_items))
            assert_same_storage(q * a, a * q)
        no_constant = a - NovikovSeries.monomial(WEIGHTED, (0, 0), a.coefficient((0, 0)))
        assert_same_storage(
            antiderivative_q(no_constant, pairing),
            rebuilt((beta, c / pairing(beta)) for beta, c in no_constant._terms.items()),
        )
        assert (a - a)._terms == {}
