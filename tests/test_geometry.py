from __future__ import annotations

import copy
import json
import pickle
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from gwdesc.geometry import (
    CohClass,
    GeometryModel,
    ModelError,
    load_geometry,
    monomial_to_elementary,
)
from gwdesc.engine import CorrelatorEngine
from gwdesc.exact import NovikovSeries, TruncationPolicy
from gwdesc.verify import _p3_like_model
from test_quadric import quadric_model


def test_cup_identity_and_fixtures(p1, p2):
    m1, m2 = p1.model, p2.model
    h1 = m1.class_from_map({"h": 1})
    assert m1.cup(m1.unit, h1) == h1
    assert m1.cup(h1, h1).is_zero()
    h = m2.class_from_map({"h": 1})
    assert m2.cup(h, h) == m2.class_from_map({"h2": 1})


def test_integrate(p2):
    m = p2.model
    assert m.integrate(m.class_from_map({"h2": 1})) == 1
    assert m.integrate(m.class_from_map({"h": 1})) == 0
    assert m.integrate(m.unit) == 0


def test_a_class_of_another_rank_is_a_model_error(p1, p2):
    # a sum returned P1's h, a P1 cup raised IndexError, and a P2 cup and a P1 integral
    # read the class off the wrong indices
    m1, m2 = p1.model, p2.model
    h1, h2 = m1.ample, m2.basis_class(2)
    for call, wrong, needed in (
        (lambda: h1 + h2, 3, 2),
        (lambda: h1 - h2, 3, 2),
        (lambda: m1.cup(h1, h2), 3, 2),
        (lambda: m2.cup(h1, h2), 2, 3),
        (lambda: m1.integrate(h2), 3, 2),
    ):
        with pytest.raises(ModelError, match=f"^a class of rank {wrong} where rank {needed} is needed$"):
            call()
    assert h1 + h1 == 2 * h1 and (h1 - h1).is_zero() and m2.cup(h2, m2.unit) == h2


def test_dual_bases(p1, p2):
    d1 = p1.model.dual_basis()
    assert d1[0] == p1.model.class_from_map({"h": 1})
    assert d1[1] == p1.model.unit
    d2 = p2.model.dual_basis()
    assert d2[0] == p2.model.class_from_map({"h2": 1})
    assert d2[1] == p2.model.class_from_map({"h": 1})
    assert d2[2] == p2.model.unit


def test_duality_identity_random(p2):
    m = p2.model
    duals = m.dual_basis()
    rng = random.Random(3)
    for _ in range(20):
        x = CohClass(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m.rank)))
        recovered = m.zero_class()
        for a in range(m.rank):
            recovered = recovered + m.eta(duals[a], x) * m.basis_class(a)
        assert recovered == x


def test_dual_of_dual_round_trip(p2):
    m = p2.model
    duals = m.dual_basis()
    for a in range(m.rank):
        back = m.zero_class()
        for b in range(m.rank):
            back = back + m.eta(m.basis_class(b), m.basis_class(a)) * duals[b]
        assert back == m.basis_class(a)


def test_beta_pairing(p1, p2):
    m = p1.model
    h = m.class_from_map({"h": 1})
    assert m.beta_pairing(h, (5,)) == 5
    assert m.beta_pairing(h, (0,)) == 0
    assert m.beta_pairing(2 * h, (3,)) == 6
    with pytest.raises(ModelError):
        p2.model.beta_pairing(p2.model.class_from_map({"h2": 1}), (1,))


def test_frobenius_property(p2):
    m = p2.model
    basis = [m.basis_class(i) for i in range(m.rank)]
    for x in basis:
        for y in basis:
            assert m.eta(x, y) == m.eta(y, x)
            for z in basis:
                assert m.eta(m.cup(x, y), z) == m.eta(x, m.cup(y, z))


def _basis_products_from_records(m):
    """Dense table of basis products read off the model's serialized records."""
    unit = m.unit_index
    table = [[m.zero_class()] * m.rank for _ in range(m.rank)]
    for i in range(m.rank):
        table[unit][i] = table[i][unit] = m.basis_class(i)
    for record in m.to_dict()["cup"]:
        i, j = m.label_index(record["a"]), m.label_index(record["b"])
        if unit not in (i, j):
            table[i][j] = table[j][i] = m.class_from_map(record["result"])
    return table


def _random_class(rng, rank):
    # about a third of the coefficients are zero; the rest are signed rationals
    return CohClass(
        tuple(
            Fraction(0) if rng.random() < 0.35 else Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            for _ in range(rank)
        )
    )


def test_cup_matches_dense_bilinear_reference(p1, p2):
    rng = random.Random(11)
    for m in (p1.model, p2.model, _p3_like_model(), quadric_model()):
        table = _basis_products_from_records(m)
        samples = [_random_class(rng, m.rank) for _ in range(24)] + [m.zero_class(), m.unit]
        for x in samples:
            for y in samples[:10] + samples[-2:]:
                reference = m.zero_class()
                for i in range(m.rank):
                    for j in range(m.rank):
                        reference = reference + (x.coeffs[i] * y.coeffs[j]) * table[i][j]
                got = m.cup(x, y)
                assert got == reference, (m.name, x, y)
                assert all(type(c) is Fraction for c in got.coeffs)
                assert got.support() == tuple(k for k, c in enumerate(got.coeffs) if c)


def test_cached_support_keeps_value_semantics(p2):
    m = p2.model
    coeffs = (Fraction(0), Fraction(-3, 2), Fraction(5))
    read = CohClass(coeffs)
    assert read.support() == (1, 2)
    assert read.support() is read.support()
    fresh = CohClass(coeffs)
    assert read == fresh and hash(read) == hash(fresh)
    assert {read: 1}[fresh] == 1
    for other in (copy.copy(read), pickle.loads(pickle.dumps(read)), CohClass(read.coeffs)):
        assert other == fresh and hash(other) == hash(fresh)
        assert other.support() == (1, 2)
    replaced = CohClass((Fraction(1), Fraction(0), Fraction(0)))
    assert replaced.support() == (0,)
    assert replaced == m.unit and not replaced.is_zero()
    assert m.zero_class().support() == () and m.zero_class().is_zero()
    with pytest.raises(AttributeError):
        read.coeffs = coeffs


def test_hash_is_the_dataclass_hash_formed_once(monkeypatch):
    """A class hashes as the generated dataclass hash of its fields did, and its
    Fraction coefficients are hashed on the first call only."""
    read = CohClass((Fraction(0), Fraction(-3, 2), Fraction(5)))
    calls = []
    fraction_hash = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda self: calls.append(self) or fraction_hash(self))
    assert hash(read) == hash(((Fraction(0), Fraction(-3, 2), Fraction(5)),))
    calls.clear()
    assert hash(read) == hash(read)
    assert calls == []


def test_degree_of_basis_equal_scaled_zero_and_mixed_classes(p1, p2):
    # the degree is read from the class's support, so the basis class, an equal
    # instance and a scaled one read the same degree; a class over several basis
    # elements reads their common degree, or None when they differ
    for m in (p1.model, p2.model, _p3_like_model()):
        for i, label in enumerate(m.labels):
            basis = m.basis_class(i)
            equal = m.class_from_map({label: 1})
            assert equal == basis and equal is not basis
            for cls in (basis, equal, 2 * basis, Fraction(-1, 2) * basis):
                assert m.degree_of(cls) == m.degrees[i], (m.name, label, cls)
        h = m.class_from_map({"h": 1})
        assert m.degree_of(h) == 1
        assert m.degree_of(m.zero_class()) is None
        assert m.degree_of(CohClass((Fraction(0),) * m.rank)) is None
        assert m.degree_of(m.unit + h) is None
        assert m.degree_of(Fraction(-1, 2) * (m.unit - 2 * h)) is None
    m = p2.model
    assert m.degree_of(2 * m.class_from_map({"h": 1})) == 1
    assert m.degree_of(Fraction(-1, 2) * m.class_from_map({"h2": 1})) == 2
    # two basis classes of one degree
    m = quadric_model()
    a, b, pt = (m.class_from_map({label: 1}) for label in ("a", "b", "ab"))
    assert m.degree_of(a + b) == 1
    assert m.degree_of(a - 2 * b) == 1
    assert m.degree_of(a + pt) is None


# ----------------------------------------------------------------------
# symmetric functions


def _expand_elementary_oracle(t, nvars):
    out = {}
    for subset in combinations(range(nvars), t):
        exp = [0] * nvars
        for s in subset:
            exp[s] = 1
        out[tuple(exp)] = 1
    return out


def _poly_mul_oracle(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def _monomial_oracle(lam, nvars):
    padded = tuple(lam) + (0,) * (nvars - len(lam))
    return {p: 1 for p in set(permutations(padded))}


def test_monomial_to_elementary_against_bruteforce():
    for nvars in (1, 2, 3):
        parts = []
        for length in range(0, nvars + 1):
            for lam in combinations_with_repeats(range(4, 0, -1), length):
                parts.append(tuple(sorted(lam, reverse=True)))
        for lam in sorted(set(parts)):
            expansion = monomial_to_elementary(lam, nvars)
            rebuilt = {}
            for eexp, coeff in expansion.items():
                product = {(0,) * nvars: coeff}
                for t, power in enumerate(eexp, start=1):
                    for _ in range(power):
                        product = _poly_mul_oracle(product, _expand_elementary_oracle(t, nvars))
                for mono, value in product.items():
                    rebuilt[mono] = rebuilt.get(mono, 0) + value
            rebuilt = {k: v for k, v in rebuilt.items() if v}
            assert rebuilt == _monomial_oracle(lam, nvars), (lam, nvars)


def combinations_with_repeats(values, length):
    if length == 0:
        yield ()
        return
    for i, v in enumerate(values):
        for rest in combinations_with_repeats(values[i:], length - 1):
            yield (v,) + rest


def test_chern_symmetric_values(p1, p2):
    m2 = p2.model
    assert m2.chern_symmetric((0, 0), 0) == m2.unit
    # exponents (1, 0): minus the first Chern class
    assert m2.chern_symmetric((0, 1), 1) == -1 * m2.chern[1]
    # one variable, exponent 2: the square of the first Chern class
    m1 = p1.model
    assert m1.chern_symmetric((0,), 2) == m1.cup(m1.chern[1], m1.chern[1])
    with pytest.raises(ValueError):
        m1.chern_symmetric((3,), 2)
    with pytest.raises(ValueError):
        m2.chern_symmetric((1, 0), 1)


# ----------------------------------------------------------------------
# validation


def _base_p1_dict(p1):
    return p1.model.to_dict()


def test_fixture_validation_passes(p1, p2, point):
    for fx in (p1, p2, point):
        assert fx.model.validate().ok


def test_degenerate_pairing_flagged(p1):
    data = _base_p1_dict(p1)
    data["integral"] = {}
    model = GeometryModel.from_dict(data)
    report = model.validate()
    assert not report.ok
    assert any(c.name == "pairing-nondegenerate" for c in report.failures())


def test_nonassociative_cup_flagged():
    model = GeometryModel(
        name="broken",
        dimension=3,
        labels=["one", "a", "b", "c", "t"],
        degrees=[0, 1, 1, 2, 3],
        cup_records={
            ("a", "a"): {"c": Fraction(1)},
            ("a", "b"): {},
            ("b", "b"): {"c": Fraction(1)},
            ("a", "c"): {"t": Fraction(1)},
            ("b", "c"): {},
            ("a", "t"): {},
            ("b", "t"): {},
            ("c", "c"): {},
            ("c", "t"): {},
            ("t", "t"): {},
        },
        integral={"t": Fraction(1)},
        lattice_rank=0,
        divisor_pairing={},
        ample={},
        chern=[{"one": Fraction(1)}, {}, {}, {}],
    )
    report = model.validate()
    failing = {c.name: c for c in report.failures()}
    assert "cup-associative" in failing
    assert "witness" in failing["cup-associative"].detail


def test_identity_axiom_record_checked(p1):
    data = _base_p1_dict(p1)
    data["cup"].append({"a": "one", "b": "h", "result": {}})
    model = GeometryModel.from_dict(data)
    report = model.validate()
    assert any(c.name == "identity-axiom" for c in report.failures())


def _quadric_cup_dict():
    data = quadric_model().to_dict()
    assert {"a": "a", "b": "b", "result": {"ab": "1"}} in data["cup"]
    return data


@pytest.mark.parametrize("a, b", [("b", "a"), ("a", "b")])
def test_conflicting_cup_records_flagged(tmp_path, a, b):
    # a second record for the same pair, in either order, used to replace the first silently
    data = _quadric_cup_dict()
    data["cup"].append({"a": a, "b": b, "result": {"ab": "2"}})
    report = GeometryModel.from_dict(data).validate()
    assert [c.name for c in report.failures()] == ["cup-commutative"]
    assert report.failures()[0].detail == "conflicting records for a∪b"
    path = tmp_path / "conflict.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ModelError, match="cup-commutative"):
        load_geometry(path)


@pytest.mark.parametrize(
    "records",
    [
        {("a", "b"): {"ab": Fraction(1)}, ("b", "a"): {"ab": Fraction(2)}},
        [(("a", "b"), {"ab": Fraction(1)}), (("a", "b"), {"ab": Fraction(2)})],
    ],
)
def test_conflicting_cup_records_flagged_in_constructor(records):
    model = quadric_model()
    failing = GeometryModel(
        name="conflict", dimension=2, labels=list(model.labels), degrees=list(model.degrees),
        cup_records=records, integral={"ab": Fraction(1)}, lattice_rank=0, divisor_pairing={}, ample={},
        chern=[{"one": Fraction(1)}, {}, {}],
    ).validate().failures()
    assert [c.name for c in failing] == ["cup-commutative"]


def test_restated_cup_record_is_not_a_conflict():
    data = _quadric_cup_dict()
    data["cup"].append({"a": "b", "b": "a", "result": {"ab": "2/2"}})
    data["cup"].append({"a": "a", "b": "b", "result": {"ab": "1", "one": "0"}})
    assert GeometryModel.from_dict(data).validate().ok


def test_divisor_decomposition(p1, p2):
    m2 = p2.model
    decomp = m2.divisor_decomposition(m2.label_index("h2"))
    assert decomp == [(Fraction(1), 1, 1)]
    assert p1.model.divisor_decomposition(p1.model.label_index("h")) is None


def test_serialization_round_trip(p2):
    m = p2.model
    rebuilt = GeometryModel.from_dict(m.to_dict())
    assert rebuilt.labels == m.labels
    assert rebuilt.validate().ok
    h = rebuilt.class_from_map({"h": 1})
    assert rebuilt.cup(h, h) == rebuilt.class_from_map({"h2": 1})


def test_policy_from_model(p2):
    policy = p2.model.policy(3, max_x_degree=4, max_descendant=2)
    assert policy.beta_weights == (1,)
    assert policy.max_beta_degree == 3


def _line_with_integral(value) -> GeometryModel:
    return GeometryModel(
        name="line", dimension=1, labels=["one", "h"], degrees=[0, 1], cup_records={("h", "h"): {}},
        integral={"h": value}, lattice_rank=1, divisor_pairing={"h": [1]}, ample={"h": 1},
        chern=[{"one": 1}, {"h": 2}],
    )


_SCALAR_ENTRIES = {
    "class-times-scalar": (lambda m, v: m.basis_class(1) * v, TypeError),
    "scalar-times-class": (lambda m, v: v * m.basis_class(1), TypeError),
    "series": (lambda m, v: NovikovSeries(m.policy(1), {(1,): v}), TypeError),
    "monomial": (lambda m, v: NovikovSeries.monomial(m.policy(1), (1,), v), TypeError),
    "class_from_map": (lambda m, v: m.class_from_map({"h": v}), ModelError),
    "integral": (lambda m, v: _line_with_integral(v), ModelError),
}


@pytest.mark.parametrize("entry", list(_SCALAR_ENTRIES))
def test_python_numbers_become_fractions_only_when_exact(p1, entry):
    # 0.1 was stored as 3602879701896397/36028797018963968 and True as 1, without a word
    make, error = _SCALAR_ENTRIES[entry]
    for bad in (0.1, True):
        with pytest.raises(error):
            make(p1.model, bad)
    for good in (3, Fraction(1, 2)):
        make(p1.model, good)
    # class_from_map, which also reads a model's ample, chern and cup results, still takes a rational string
    assert p1.model.class_from_map({"h": "1/2"}) == Fraction(1, 2) * p1.model.basis_class(1)


def _line_with_pairing(value) -> GeometryModel:
    return GeometryModel(
        name="line", dimension=1, labels=["one", "h"], degrees=[0, 1], cup_records={("h", "h"): {}},
        integral={"h": 1}, lattice_rank=1, divisor_pairing={"h": [value]}, ample={"h": 1},
        chern=[{"one": 1}, {"h": 2}],
    )


def _three_marks(m, level=0, power=0):
    return [(level, power, m.basis_class(2)), (0, 0, m.basis_class(2)), (0, 0, m.basis_class(1))]


# (model, engine, value) -> the call; the P2 marks are pt, pt, h
_INTEGER_ENTRIES = {
    "max_beta_degree": lambda m, e, v: m.policy(v),
    "max_x_degree": lambda m, e, v: m.policy(2, max_x_degree=v),
    "max_descendant": lambda m, e, v: m.policy(2, max_descendant=v),
    "beta_weights": lambda m, e, v: TruncationPolicy((v,), 2),
    "curve class": lambda m, e, v: e.descendant(0, (v,), [(d, c) for d, _, c in _three_marks(m)]),
    "level": lambda m, e, v: e.descendant(0, (1,), [(d, c) for d, _, c in _three_marks(m, level=v)]),
    "level at the zero class": lambda m, e, v: e.descendant(0, (0,), [(d, c) for d, _, c in _three_marks(m, level=v)]),
    "pulled-back power": lambda m, e, v: e.generalized((1,), _three_marks(m, power=v)),
    "genus": lambda m, e, v: e.descendant(v, (0,), [(d, c) for d, _, c in _three_marks(m)]),
    "beta_pairing": lambda m, e, v: m.beta_pairing(m.basis_class(1), (v,)),
    "divisor pairing row": lambda m, e, v: _line_with_pairing(v),
}


@pytest.mark.parametrize("entry", list(_INTEGER_ENTRIES))
def test_integer_parameters_refuse_floats_and_bools(p2, entry):
    # 2.0 was read as 2 at first use or never, a class (0.5,) ended in an AttributeError, a
    # level of 1.5 was a silent 0 and D·(1.5,) the float 1.5; True was taken as 1
    make, engine = _INTEGER_ENTRIES[entry], CorrelatorEngine(p2.model, p2.primary)
    for bad in (2.0, 1.5, True):
        with pytest.raises(TypeError, match="must be an int"):
            make(p2.model, engine, bad)
    make(p2.model, engine, 1)
