"""Big phase space: summed correlators, the triangular coordinate change,
and the generating potentials it identifies.

Coordinates x_{d,a} are dual to a descendant level d and a basis class a.
The standard potential collects stable-range descendant correlators, the
modified potential collects the pulled-back kind, and the two are related
by an invertible change of coordinates built from two-point descendant
series.  Every object here is exact and truncated by one shared policy.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, compress
from math import factorial, gcd, lcm
from typing import Callable, Iterable, Sequence

from .exact import (
    CurveClass,
    NovikovSeries,
    PolicyMismatchError,
    TruncationPolicy,
    _accumulate,
    _accumulate_product,
    _Value,
    _slots_repr,
    antiderivative_q,
    beta_is_zero,
    format_rational,
    narrow,
)
from .engine import CorrelatorEngine, PrimaryTable, UnsupportedQueryError, _check_levels
from .geometry import CohClass, GeometryModel

PhaseIndex = tuple[int, int]  # (descendant level, basis index)


def phase_indices(policy: TruncationPolicy, basis_rank: int) -> list[PhaseIndex]:
    return [(d, a) for d in range(policy.max_descendant + 1) for a in range(basis_rank)]


# ----------------------------------------------------------------------
# summation over effective classes


def summed(
    policy: TruncationPolicy, value: Callable[[CurveClass], Fraction], classes: Sequence[CurveClass] | None = None
) -> NovikovSeries:
    """The series of ``value(beta)`` over ``classes``, by default every effective class of the window.

    ``value`` must return a Fraction or the int 0 and ``classes`` must lie inside the window: the series
    is built unchecked (see :meth:`NovikovSeries._trusted`), which drops only the zero terms."""
    betas = policy.iter_effective() if classes is None else classes
    return NovikovSeries._trusted(policy, {beta: value(beta) for beta in betas})


def summed_correlator(
    engine: CorrelatorEngine, marks: Sequence[tuple[int, int, CohClass]], policy: TruncationPolicy
) -> NovikovSeries:
    """Genus-zero correlator of the marks, (d, e, class) per mark, summed over the window: the
    generalized kind when a mark has a pulled-back power, else the descendant kind (two marks
    give the engine's two-point series).  Only the classes of ``engine.admissible_classes``
    are asked, or the whole window when a class is zero or of mixed degree."""
    _check_levels(marks)  # before the screen, which could skip every class
    if any(e for _, e, _ in marks):
        if len(marks) < 3:
            raise UnsupportedQueryError("generalized correlators need the stable range (n >= 3)")
        value = lambda beta: engine.generalized(beta, marks)
    else:
        pairs = [(d, cls) for d, _, cls in marks]
        value = lambda beta: engine.descendant(0, beta, pairs)
    degrees = [engine.model.degree_of(cls) for _, _, cls in marks]
    classes = None if None in degrees else engine.admissible_classes(
        policy, len(marks), sum(d + e for d, e, _ in marks) + sum(degrees)
    )
    return summed(policy, value, classes)


# ----------------------------------------------------------------------
# the small quantum product and the primary-only two-point route (table-only path:
# each three-point value is read by PrimaryTable.three_point)


def quantum_product(
    model: GeometryModel,
    table: PrimaryTable,
    policy: TruncationPolicy,
    x: CohClass,
    y: CohClass,
) -> tuple[NovikovSeries, ...]:
    """Small quantum product x * y as its coefficient series on the basis.

    Entry a is the coefficient of ``basis[a]``: the three-point series of x, y and the
    a-th dual class over the window.  The zero-class part is the cup product;
    corrections are read off the primary table, so this path never touches the
    reduction engine.
    """
    return tuple(
        summed(policy, lambda beta: table.three_point(beta, dual, x, y))
        for dual in model.dual_basis()
    )


def two_point_from_primaries(
    model: GeometryModel,
    table: PrimaryTable,
    policy: TruncationPolicy,
    d: int,
    x: CohClass,
    y: CohClass,
    gamma0: CohClass | None = None,
) -> NovikovSeries:
    """One series of the primary-only route, from a fresh route: it fills levels 0 to d for
    every basis pair and keeps nothing after the call; see :class:`_PrimaryTwoPoint`."""
    return _PrimaryTwoPoint(model, table, policy, gamma0).series(d, x, y)


class _PrimaryTwoPoint:
    """The primary-only two-point route at one (table, policy, gamma0).

    It stores ⟨τ_l(T_a) T_b⟩ per level l and basis index pair (a, b), and fills whole
    levels bottom-up, from 0 to the highest level asked, by the divisor relation
    (gamma0·beta) ⟨τ_l(T_a) T_b⟩_beta = [Σ_c (gamma0 * T_b)_c ⟨τ_{l-1}(T_a) T_c⟩
    − Σ_{(k, a') in gamma0 ∪ T_a} k ⟨τ_{l-1}(T_a') T_b⟩]_beta, with
    ⟨τ_0(T_a) T_b⟩_beta = ⟨gamma0 T_a T_b⟩_beta / (gamma0·beta); each series divides one
    bracket once.  The relation is linear over the basis, so :meth:`series` expands x and y
    over their parts and no step needs a class-valued key.  gamma0 ∪ T_a and gamma0 * T_b are
    formed once per index, with level 0, and the pairing gamma0·beta once per class, when a
    bracket first needs it.  No level calls another, so the depth is bounded by memory, not
    by Python's stack.  Table, policy and divisor are fixed for the life of the object, so a
    memo never crosses divisors: a divisor-independence check must compare two separate
    routes.  The route never consults the correlator engine.
    """

    def __init__(
        self,
        model: GeometryModel,
        table: PrimaryTable,
        policy: TruncationPolicy,
        gamma0: CohClass | None = None,
    ) -> None:
        self.model = model
        self.table = table
        self.policy = policy
        self.gamma0 = gamma0 = gamma0 if gamma0 is not None else model.ample
        # gamma0·beta per class, an int where integral; the cache closes over the model and
        # gamma0, not self, and looks up the pairing when called
        self._pairing = cache(lambda beta: narrow(model.beta_pairing(gamma0, beta)))
        # _levels[l][a][b] is ⟨τ_l(T_a) T_b⟩; _shift[a] the parts of gamma0 ∪ T_a and
        # _products[b] the nonzero (c, terms of (gamma0 * T_b)_c), both formed with level 0
        self._levels: list[list[list[NovikovSeries]]] = []
        self._shift: list[tuple[tuple[int | Fraction, int], ...]] = []
        self._products: list[list[tuple[int, dict[CurveClass, Fraction]]]] = []

    def series(self, d: int, x: CohClass, y: CohClass) -> NovikovSeries:
        _check_levels(((d, 0, x),))
        while len(self._levels) <= d:
            self._levels.append(self._next_level() if self._levels else self._level_zero())
        level = self._levels[d]
        acc: dict[CurveClass, Fraction] = {}
        for xi, a in x.parts:
            row = level[a]
            for yj, b in y.parts:
                _accumulate(acc, row[b]._terms, xi * yj)
        return NovikovSeries._trusted(self.policy, acc)

    def _level_zero(self) -> list[list[NovikovSeries]]:
        """⟨τ_0(T_a) T_b⟩, with the shift parts and the products every higher level reads."""
        model, policy, gamma0 = self.model, self.policy, self.gamma0
        basis = [model.basis_class(a) for a in range(model.rank)]
        self._shift = [model.cup(gamma0, t).parts for t in basis]
        self._products = [
            [(c, s._terms) for c, s in enumerate(quantum_product(model, self.table, policy, gamma0, t)) if s._terms]
            for t in basis
        ]
        nonzero = [beta for beta in policy.degrees if not beta_is_zero(beta)]
        # the antiderivative needs the bracket without its zero-class term
        return [
            [
                antiderivative_q(
                    summed(policy, lambda beta: self.table.three_point(beta, gamma0, ta, tb), nonzero),
                    self._pairing,
                )
                for tb in basis
            ]
            for ta in basis
        ]

    def _next_level(self) -> list[list[NovikovSeries]]:
        """The level above the highest one stored, by the divisor relation."""
        policy = self.policy
        below, sums = self._levels[-1], policy.sums
        level = []
        for a, shift in enumerate(self._shift):
            row = below[a]
            out = []
            for b, product in enumerate(self._products):
                acc: dict[CurveClass, Fraction] = {}
                for c, terms in product:
                    _accumulate_product(acc, sums, terms, row[c]._terms)
                for k, shifted in shift:
                    _accumulate(acc, below[shifted][b]._terms, -k)
                out.append(antiderivative_q(NovikovSeries._trusted(policy, acc), self._pairing))
            level.append(out)
        return level


# ----------------------------------------------------------------------
# the triangular coordinate change


class PhaseTransform(_Value):
    """Linear change of phase-space coordinates with series entries.

    Stored as sparse rows over the finite index window: the row of an output
    index maps each input index to its nonzero series.  The coordinate change
    has the identity on its diagonal, and its off-diagonal entries only
    connect an output level c to input levels d >= c+1 (strict weight
    raising), so its inverse is found row by row by back-substitution from
    the top level down.
    """

    def __init__(self, policy: TruncationPolicy, basis_rank: int, entries: dict[tuple[PhaseIndex, PhaseIndex], NovikovSeries]) -> None:
        self.policy = policy
        self.basis_rank = basis_rank
        self._rows: dict[PhaseIndex, dict[PhaseIndex, NovikovSeries]] = {}
        for (out, inp), s in entries.items():
            if not s.is_zero():
                self._rows.setdefault(out, {})[inp] = s

    @classmethod
    def identity(cls, policy: TruncationPolicy, basis_rank: int) -> PhaseTransform:
        one = NovikovSeries.one(policy)
        entries = {(idx, idx): one for idx in phase_indices(policy, basis_rank)}
        return cls(policy, basis_rank, entries)

    def entry(self, out: PhaseIndex, inp: PhaseIndex) -> NovikovSeries:
        return self._rows.get(out, {}).get(inp, NovikovSeries.zero(self.policy))

    def row(self, out: PhaseIndex) -> list[tuple[PhaseIndex, NovikovSeries]]:
        return sorted(self._rows.get(out, {}).items(), key=lambda kv: kv[0])

    def items(self) -> list[tuple[tuple[PhaseIndex, PhaseIndex], NovikovSeries]]:
        return [((out, inp), s) for out in sorted(self._rows) for inp, s in self.row(out)]

    def is_identity(self) -> bool:
        return self == PhaseTransform.identity(self.policy, self.basis_rank)

    def strictly_raising(self) -> bool:
        """Off-diagonal entries must raise the descendant level."""
        one = NovikovSeries.one(self.policy)
        return all(
            s == one if inp == out else inp[0] >= out[0] + 1
            for out, row in self._rows.items()
            for inp, s in row.items()
        )

    def compose(self, other: PhaseTransform) -> PhaseTransform:
        """Matrix product self . other (apply other first)."""
        entries: dict[tuple[PhaseIndex, PhaseIndex], NovikovSeries] = {}
        for out, row in self._rows.items():
            for mid, s1 in row.items():
                for inp, s2 in other._rows.get(mid, {}).items():
                    prod = s1 * s2
                    key = (out, inp)
                    entries[key] = entries[key] + prod if key in entries else prod
        return PhaseTransform(self.policy, self.basis_rank, entries)

    def inverse(self) -> PhaseTransform:
        """Exact inverse at truncation, by back-substitution from the top level down: with the
        transform 1 + N, the inverse row at ``out`` is the unit vector minus N's row at ``out``
        applied to the (higher-level) inverse rows already built.  Raises ValueError unless
        the transform is strictly raising with a unit diagonal on its index window."""
        window = phase_indices(self.policy, self.basis_rank)
        if not self.strictly_raising() or self._rows.keys() != set(window) or any(
            idx not in row or not row.keys() <= self._rows.keys() for idx, row in self._rows.items()
        ):
            raise ValueError("inverse needs a strictly raising transform with a unit diagonal on its window")
        one = NovikovSeries.one(self.policy)
        rows: dict[PhaseIndex, dict[PhaseIndex, NovikovSeries]] = {}
        for out in reversed(window):
            applied: dict[PhaseIndex, NovikovSeries] = {}  # N's row at out applied to the inverse rows
            for mid, s in self._rows[out].items():
                if mid == out:
                    continue
                for inp, t in rows[mid].items():
                    term = s if inp == mid else s * t  # t is one on the diagonal
                    applied[inp] = applied[inp] + term if inp in applied else term
            rows[out] = {out: one, **{inp: -series for inp, series in applied.items()}}
        entries = {(o, i): s for o, row in rows.items() for i, s in row.items()}
        return PhaseTransform(self.policy, self.basis_rank, entries)

    def checked_inverse(self) -> PhaseTransform | None:
        """The inverse if it exists and composes with the transform to the identity, else None."""
        try:
            inverse = self.inverse()
        except ValueError:  # no unit diagonal or not strictly raising
            return None
        return inverse if self.compose(inverse).is_identity() else None

    def _fields(self) -> tuple:
        return (self.policy, self.basis_rank, self._rows)

    def to_records(self, model: GeometryModel) -> list[dict]:
        out = []
        for (o, i), series in self.items():
            for beta, value in series.items():
                out.append(
                    {
                        "out": [o[0], model.labels[o[1]]],
                        "in": [i[0], model.labels[i[1]]],
                        "beta": list(beta),
                        "value": format_rational(value),
                    }
                )
        return out


def build_transform(engine: CorrelatorEngine, policy: TruncationPolicy) -> PhaseTransform:
    """Assemble the coordinate change from two-point descendant series.

    The (c,b) output coordinate picks up, from each input x_{d,a} with
    d >= c+1, the two-point series of level d-c-1 pairing the a-th basis
    class against the b-th dual class.  An entry depends on the levels only
    through the gap d-c, so each gap's series is formed once; the
    constructor drops the zero ones.  Every series comes from the primary-only
    route (:class:`_PrimaryTwoPoint`) at the engine's table and gamma0: T is
    determined by the three-point primaries and the cup product, and building
    it evaluates no engine correlator.
    """
    model, rank, top = engine.model, engine.model.rank, policy.max_descendant
    route = _PrimaryTwoPoint(model, engine.primary_table, policy, engine.gamma0)
    duals = model.dual_basis()
    one = NovikovSeries.one(policy)
    entries = {(idx, idx): one for idx in phase_indices(policy, rank)}
    for k in range(top):  # the gap d - c - 1
        for a in range(rank):
            for b in range(rank):
                series = route.series(k, model.basis_class(a), duals[b])
                for c in range(top - k):
                    entries[((c, b), (c + k + 1, a))] = series
    return PhaseTransform(policy, rank, entries)


# ----------------------------------------------------------------------
# potentials


class PotentialSeries(_Value):
    """Multiset-keyed polynomial with exact series coefficients.

    A key is a sorted tuple of (level, basis index) pairs (the constructor sorts the keys it is
    given and adds those that sort alike); the stored value is the correlator divided by the
    product of multiplicity factorials.  It is held in one canonical form: per key, the nonzero
    int numerators by curve class over one shared denominator, in lowest terms (the gcd of the
    denominator and every numerator is 1), so two potentials agree exactly when their
    denominators and numerator dicts agree.  The :class:`NovikovSeries` view of a key is built
    only when asked for (:meth:`coefficient`, :meth:`items`, :meth:`difference`)."""

    __slots__ = ("policy", "_numerators", "_denominator")

    def __init__(self, policy: TruncationPolicy, coeffs: dict[Sequence[PhaseIndex], NovikovSeries] | None = None) -> None:
        coeffs = coeffs or {}
        denominator = lcm(*(c.denominator for s in coeffs.values() for c in s._terms.values()))
        numerators = {}
        for key, s in coeffs.items():
            _accumulate(numerators.setdefault(tuple(sorted(key)), {}), _numerators(s._terms, denominator))
        self._store(policy, numerators, denominator)

    @classmethod
    def _from_numerators(
        cls, policy: TruncationPolicy, numerators: dict[tuple[PhaseIndex, ...], dict[CurveClass, int]], denominator: int
    ) -> PotentialSeries:
        """The potential whose key coefficients are ``numerators`` over the positive int
        ``denominator``, which need not be in lowest terms; zero numerators are dropped.  The
        caller hands its dicts over: one with no zero term may be kept as it is."""
        potential = cls.__new__(cls)
        potential._store(policy, numerators, denominator)
        return potential

    def _store(self, policy: TruncationPolicy, numerators: dict, denominator: int) -> None:
        # the keys without their zero terms, and no key left empty; then one gcd puts them in lowest terms
        kept: dict[tuple[PhaseIndex, ...], dict[CurveClass, int]] = {}
        divisor = denominator
        for key, terms in numerators.items():
            if not (terms and all(terms.values())):
                terms = {beta: n for beta, n in terms.items() if n}
                if not terms:
                    continue
            kept[key] = terms
            if divisor != 1:
                divisor = gcd(divisor, *terms.values())
        if divisor != 1:  # also when nothing is kept: the zero potential is 0 over 1
            kept = {key: {beta: n // divisor for beta, n in terms.items()} for key, terms in kept.items()}
        self.policy = policy
        self._numerators = kept
        self._denominator = denominator // divisor

    def _series(self, terms: dict[CurveClass, int]) -> NovikovSeries:
        denominator = self._denominator
        return NovikovSeries._trusted(self.policy, {beta: Fraction(n, denominator) for beta, n in terms.items()})

    def coefficient(self, key: Sequence[PhaseIndex]) -> NovikovSeries:
        terms = self._numerators.get(tuple(sorted(key)))
        return NovikovSeries.zero(self.policy) if terms is None else self._series(terms)

    def keys(self) -> list[tuple[PhaseIndex, ...]]:
        """The keys with a nonzero coefficient, by number of indices and then lexicographically."""
        return sorted(self._numerators, key=lambda key: (len(key), key))

    def items(self) -> list[tuple[tuple[PhaseIndex, ...], NovikovSeries]]:
        return [(key, self._series(self._numerators[key])) for key in self.keys()]

    def is_zero(self) -> bool:
        return not self._numerators

    def _fields(self) -> tuple:
        return (self.policy, self._denominator, self._numerators)

    def difference(self, other: PotentialSeries) -> list[tuple[tuple[PhaseIndex, ...], NovikovSeries]]:
        """Nonzero coefficients of self - other, canonically ordered."""
        keys = set(self._numerators) | set(other._numerators)
        out = []
        for key in sorted(keys, key=lambda k: (len(k), k)):
            diff = self.coefficient(key) - other.coefficient(key)
            if not diff.is_zero():
                out.append((key, diff))
        return out

    def to_records(self, model: GeometryModel) -> list[dict]:
        """One record per nonzero term, keys in :meth:`keys` order and each key's classes in
        the window's order; a value is rendered as :func:`format_rational` renders the
        Fraction, reduced from its numerator and the denominator by one gcd."""
        out = []
        denominator = self._denominator
        for key in self.keys():
            terms = self._numerators[key]
            for beta in self.policy.degrees:
                n = terms.get(beta)
                if n is not None:
                    common = gcd(n, denominator)
                    value = str(n // common) if common == denominator else f"{n // common}/{denominator // common}"
                    out.append({"indices": [[d, model.labels[a]] for d, a in key], "beta": list(beta), "value": value})
        return out


class _KeyTerms:
    """One key's stored coefficient as :func:`_potential` hands it to :func:`_assemble`: its nonzero
    int numerators by class (never a zero one) over ``denominator``, which every key shares.
    It and the per-key call remain because the benchmark tracer counts keys through :func:`_assemble`."""

    __slots__ = ("numerators", "denominator")

    def __init__(self, numerators: dict[CurveClass, int], denominator: int) -> None:
        self.numerators = numerators
        self.denominator = denominator

    def is_zero(self) -> bool:
        return not self.numerators


_NO_TERMS = _KeyTerms({}, 1)


def _multiplicity_factor(key: tuple[PhaseIndex, ...]) -> int:
    """The product of the factorials of the multiplicities of the sorted ``key``: along a
    run of equal indices the k-th one multiplies by k."""
    factor = run = 1
    for prev, idx in zip(key, key[1:]):
        run = run + 1 if idx == prev else 1
        factor *= run
    return factor


def _assemble(policy: TruncationPolicy, keys: Sequence[tuple[PhaseIndex, ...]], correlator) -> PotentialSeries:
    """Potential over the monomials ``keys``, asked for in their order: ``correlator(key)``
    is the key's stored coefficient as a :class:`_KeyTerms`, its summed correlator over its
    multiplicity factor (see :func:`_potential`), every one over the same denominator; empty
    ones are dropped."""
    numerators, denominator = {}, 1
    for key in keys:
        terms = correlator(key)
        if terms.numerators:
            numerators[key], denominator = terms.numerators, terms.denominator
    return PotentialSeries._from_numerators(policy, numerators, denominator)


def _code_weights(policy: TruncationPolicy, basis_rank: int) -> tuple[int, dict[PhaseIndex, int]]:
    """B = max_x_degree + 1 and B^pos per window index at place pos: a key's code Σ count·B^pos has its counts as digits."""
    base = policy.max_x_degree + 1
    return base, {idx: base**pos for pos, idx in enumerate(phase_indices(policy, basis_rank))}


def _admissible_keys(
    engine: CorrelatorEngine, policy: TruncationPolicy, indices: Sequence[PhaseIndex], modified: bool = False
) -> tuple[dict[tuple[PhaseIndex, ...], Sequence[CurveClass]], list[int]]:
    """The monomials of degree 3..max_x_degree in ``indices`` whose degree sum leaves the window
    some dimension-admissible class (all of them with ``check_dimension`` off): a filtered
    ``combinations_with_replacement``, in its order, each mapped to those classes,
    ``engine.admissible_classes`` at its degree sum; and their codes (:func:`_code_weights`).

    With ``modified`` the levels are pulled-back powers from M̄_{0,n}, of dimension n - 3, so
    only the monomials whose levels sum to at most n - 3 are kept: the others vanish."""
    _, weight = _code_weights(policy, engine.model.rank)
    keys, codes = {}, []
    for n in range(3, policy.max_x_degree + 1):
        pool = [(d, a) for d, a in indices if d <= n - 3] if modified else indices
        degrees = [d + engine.model.degrees[a] for d, a in pool]
        totals = list(map(sum, combinations_with_replacement(degrees, n)))
        wanted = {t: classes for t in set(totals) if (classes := engine.admissible_classes(policy, n, t))}
        mask = bytes(map(wanted.__contains__, totals))
        kept = map(sum, compress(combinations_with_replacement([weight[idx] for idx in pool], n), mask))
        for key, total, code in zip(compress(combinations_with_replacement(pool, n), mask), compress(totals, mask), kept):
            if not modified or sum(d for d, _ in key) <= n - 3:
                keys[key] = wanted[total]
                codes.append(code)
    return keys, codes


def _potential(
    engine: CorrelatorEngine, policy: TruncationPolicy, indices: Sequence[PhaseIndex], modified: bool = False
) -> PotentialSeries:
    """Potential whose key coefficient sums the key's descendant correlator (pulled-back powers
    if ``modified``) over the classes where the key's dimension count can hold; keys with no
    such class are never formed, nor, if ``modified``, keys whose levels sum past n - 3 (the
    dimension of M̄_{0,n}, so their correlators vanish).

    A descendant key of four or more marks with a string, dilaton or divisor insertion takes its
    series from the keys of one fewer mark (:func:`_axiom_reduction`), which :func:`_assemble`
    asks for first; the engine sums every other key up front, over the lcm D of its values.  The
    numerators are held in one {key code: numerator} table per window class over D·q^(N-3),
    N = max_x_degree and q the lcm of the denominators of the cup parts of the basis classes of
    degree 0 and 1 (1 on P1, P2 and the quadric), and every key is stored over D·q^(N-3)·N!,
    scaled by the int N!/(multiplicity factor), so the reduction runs on ints alone."""
    keys, codes = _admissible_keys(engine, policy, indices, modified)
    slot, reduce = (None, None) if modified else _axiom_reduction(engine.model, policy)
    slots = {code: at for key, code in zip(keys, codes) if (at := slot(key)) is not None} if slot else {}  # the reduced keys
    # the nonzero terms of every engine key, then as numerators over the common denominator
    built: dict[int, dict[CurveClass, int | Fraction]] = {}
    for (key, classes), code in zip(keys.items(), codes):
        if code not in slots:
            # the key is its own sorted basis-index core: level d as a cotangent or a pulled-back power
            core = tuple((0, d, a) for d, a in key) if modified else tuple((d, 0, a) for d, a in key)
            if terms := {beta: value for beta in classes if (value := engine._core(beta, core))}:
                built[code] = terms
    denominator = lcm(*(c.denominator for terms in built.values() for c in terms.values()))
    if slots:  # q^(N-3): a key of n marks is then divisible by q^(N-n), so each lowering by p/r is exact
        rows = [row for a, degree in enumerate(engine.model.degrees) if degree <= 1 for row in engine.model._cup_terms[a]]
        denominator *= lcm(*(c.denominator for row in rows for _, c in row)) ** (policy.max_x_degree - 3)
    for code, terms in built.items():  # in place, so each key's Fractions go as its numerators come
        built[code] = _numerators(terms, denominator)
    # per class, {code: numerator} of the engine keys, and of each reduced key once it is formed
    tables = {beta: {code: terms[beta] for code, terms in built.items() if beta in terms} for beta in policy.degrees} if slots else None
    top = factorial(policy.max_x_degree)
    denominator *= top
    next_key = zip(codes, keys.values()).__next__  # _assemble asks for each key once, in order

    def correlator(key):
        code, classes = next_key()
        at = slots.get(code)
        terms = built.get(code) if at is None else reduce(key, code, at, classes, tables)
        if not terms:
            return _NO_TERMS
        scale = top // _multiplicity_factor(key)
        return _KeyTerms({beta: n * scale for beta, n in terms.items()}, denominator)

    return _assemble(policy, keys, correlator)


def _axiom_reduction(model: GeometryModel, policy: TruncationPolicy):
    """The genus-zero string, dilaton and divisor equations on potential numerators.

    Returns ``(slot, reduce)``.  ``slot(key)`` is the position of the key's first string τ_0(1),
    dilaton τ_1(1) or divisor τ_0(D) insertion (D of degree 1), None when the key has three marks
    or none of these insertions: the engine evaluates those keys.  For any other key,
    ``reduce(key, code, slot(key), classes, tables)`` is its summed correlator at ``classes`` by
    the equation of that insertion, X the key without it:

    * string: <τ_0(1) X> = Σ_i <X with slot i lowered one level>;
    * dilaton: <τ_1(1) X> = (|X| - 2) <X>;
    * divisor: <τ_0(D) X>_β = (D·β) <X>_β + Σ_i <X with slot i lowered to τ_{d_i-1}(a_i ∪ D)>_β.

    ``tables`` holds per class the numerators of the keys with one fewer mark by code (a missing
    code reads as zero); X and each lowered key are coded once, and each class sums int lookups.
    X has at least three marks, so it is stable at every class.  A cup part c = p/r multiplies a
    numerator n as p·(n // r): the caller holds the numerators over a denominator that makes the
    division exact (see :func:`_potential`), and D·β is an int, so each nonzero sum is an int.
    The sums are returned by class and written into ``tables``."""
    units = model.basis_of_degree(0)
    units = units if len(units) == 1 else ()  # the unit is the one degree-0 basis element
    divisors = model.basis_of_degree(1)
    base, weight = _code_weights(policy, model.rank)
    # per insertion class and window index (d, a), d >= 1: its weight, and per part c·a' of the
    # class cup a (the unit's keeps a) c and the code offset of (d-1, a'); per divisor D, D·β
    lowerings = {}
    for a_s in units + divisors:
        parts = [model.cup(model.basis_class(a_s), model.basis_class(a)).parts for a in range(model.rank)]
        lowerings[a_s] = {(d, a): (w, [(c, weight[d - 1, i] - w) for c, i in parts[a]]) for (d, a), w in weight.items() if d}
    pairings = {
        a_s: {beta: narrow(model.beta_pairing(model.basis_class(a_s), beta)) for beta in policy.degrees}
        for a_s in divisors
    }
    axiom_indices = {(0, a) for a in lowerings} | {(1, a) for a in units}

    def slot(key):
        for at, idx in enumerate(key if len(key) >= 4 else ()):
            if idx in axiom_indices:
                return at

    def reduce(key, code, at, classes, tables):
        d_s, a_s = idx_s = key[at]
        rest = code - weight[idx_s]  # the code of X
        if d_s:
            pairing, lowered = None, [(rest, len(key) - 3, 1)]
        else:
            pairing, lowering, lowered = pairings.get(a_s), lowerings[a_s], []  # no pairing for the unit
            for idx in dict.fromkeys(key):  # the m slots of one index in X, m its digit, lower to one key
                if (entry := lowering.get(idx)) is not None and (m := rest // entry[0] % base):
                    for c, offset in entry[1]:
                        lowered.append((rest + offset, c.numerator * m, c.denominator))
        out = {}
        for beta in classes:
            table = tables[beta]
            total = pairing[beta] * table.get(rest, 0) if pairing else 0
            for lowered_code, p, r in lowered:
                if (n := table.get(lowered_code)) is not None:
                    total += p * (n // r)
            if total:
                table[code] = out[beta] = total
        return out

    return slot, reduce


def potential_standard(engine: CorrelatorEngine, policy: TruncationPolicy) -> PotentialSeries:
    """Stable-range descendant potential at genus zero."""
    return _potential(engine, policy, phase_indices(policy, engine.model.rank))


def potential_modified(engine: CorrelatorEngine, policy: TruncationPolicy) -> PotentialSeries:
    """Same assembly with every cotangent power replaced by a pulled-back one; only the
    monomials of n marks whose levels sum to at most n - 3 are formed, since a pulled-back
    power from M̄_{0,n} of higher degree vanishes."""
    return _potential(engine, policy, phase_indices(policy, engine.model.rank), modified=True)


def potential_primary(engine: CorrelatorEngine, policy: TruncationPolicy) -> PotentialSeries:
    """Restriction of the standard potential to the level-zero coordinates."""
    return _potential(engine, policy, [(0, a) for a in range(engine.model.rank)])


def compose_with_transform(potential: PotentialSeries, transform: PhaseTransform) -> PotentialSeries:
    """Substitute the coordinate change into a potential, exactly: each key's expansion starts
    from its coefficient and takes one transform row per index.

    The expansion runs over the potential's int numerators, over its denominator Dp: the rows
    the potential uses are put over their common denominator DT, and a key of n indices is lifted
    by DT^(top − n), top the most indices of a key, so every expansion adds as ints into one dict
    over Dp·DT^top.  A term is keyed by one int, code·C + i: code Σ count·B^pos (pos an input's
    place in the sorted inputs of the rows used, B = top + 1) and i its class's place among the
    window's C classes.  A row entry is its input's weight B^pos·C and, per term, its numerator
    and the shift of each class index i (None past the window), so a step adds ints into one dict
    entry per term; the outputs are split by ``divmod`` and their codes decoded.  Raises
    PolicyMismatchError when a row the potential uses holds an entry over another policy, and
    ValueError when a key's index lies outside the transform's window, where it has no row."""
    policy = potential.policy
    coeffs = potential._numerators
    used = {idx: transform._rows.get(idx, {}) for key in coeffs for idx in key}
    if any(entry.policy != policy for row in used.values() for entry in row.values()):
        raise PolicyMismatchError("transform built over a different truncation policy")
    if outside := used.keys() - set(phase_indices(transform.policy, transform.basis_rank)):
        raise ValueError(f"index {min(outside)} lies outside the transform's window, where it has no row")
    dt = lcm(*(c.denominator for row in used.values() for entry in row.values() for c in entry._terms.values()))
    top = max(map(len, coeffs), default=0)
    inputs = sorted({inp for row in used.values() for inp in row})
    classes = list(policy.degrees)
    width, place = len(classes), {beta: i for i, beta in enumerate(classes)}
    # per class, the change of class index that adding it makes at each index, None past the window
    shifts = {b2: [None if (s := policy.sums[b].get(b2)) is None else place[s] - i for i, b in enumerate(classes)] for b2 in classes}
    weight = {inp: (top + 1) ** pos * width for pos, inp in enumerate(inputs)}
    # T's row at each index used, as (input weight, [(class shifts, numerator over dt)])
    rows = {
        idx: [(weight[inp], [(shifts[beta], n) for beta, n in _numerators(entry._terms, dt).items()]) for inp, entry in row.items()]
        for idx, row in used.items()
    }

    shared: dict[int, int] = {}
    for key, coeff in coeffs.items():
        lift = dt ** (top - len(key))
        expansions = {place[beta]: n * lift for beta, n in coeff.items()}
        if not key:  # a constant term takes no row
            shared.update(expansions)
        for step, idx in enumerate(key, 1):
            # the last index adds its full expansions straight into the shared sums
            new = shared if step == len(key) else {}
            for flat, n in expansions.items():
                i = flat % width
                for w, entry in rows[idx]:
                    for shift, c in entry:
                        if (s := shift[i]) is not None:
                            s += flat + w
                            new[s] = new.get(s, 0) + n * c
            expansions = new
    numerators: dict[int, dict[CurveClass, int]] = {}
    for flat, n in shared.items():
        code, i = divmod(flat, width)
        numerators.setdefault(code, {})[classes[i]] = n
    numerators = dict(zip(_decoded_keys(numerators, inputs, top + 1), numerators.values()))
    return PotentialSeries._from_numerators(policy, numerators, potential._denominator * dt**top)


def _decoded_keys(codes: Iterable[int], inputs: Sequence[PhaseIndex], base: int) -> list[tuple[PhaseIndex, ...]]:
    """The sorted key of each multiset code Σ count·base^pos, pos an input's place in ``inputs``:
    a code splits into its low and high halves, base^half apart, and each distinct half is read
    digit by digit once and memoized, so a key costs two lookups and one join."""
    half = len(inputs) // 2
    split, low_inputs, high_inputs = base**half, inputs[:half], inputs[half:]
    lows: dict[int, tuple[PhaseIndex, ...]] = {}
    highs: dict[int, tuple[PhaseIndex, ...]] = {}
    keys = []
    for code in codes:
        high, low = divmod(code, split)
        if low not in lows:
            lows[low] = _digit_key(low, low_inputs, base)
        if high not in highs:
            highs[high] = _digit_key(high, high_inputs, base)
        keys.append(lows[low] + highs[high])
    return keys


def _digit_key(code: int, inputs: Sequence[PhaseIndex], base: int) -> tuple[PhaseIndex, ...]:
    """The key of one code over ``inputs``: its base digits, lowest first, are the inputs' counts."""
    key = ()
    for inp in inputs:
        if not code:
            break
        code, count = divmod(code, base)
        key += (inp,) * count
    return key


def _numerators(terms: dict[CurveClass, Fraction], denominator: int) -> dict[CurveClass, int]:
    """``terms`` times ``denominator``, a multiple of every term's denominator, as ints."""
    return {beta: c.numerator * (denominator // c.denominator) for beta, c in terms.items()}


# ----------------------------------------------------------------------
# the potential identity and the per-correlator substitution identity


class TransformIdentityReport:
    """Verdict and mismatches of both identities; ``transform`` is the coordinate change they used."""

    __slots__ = ("ok", "potential_mismatches", "substitution_mismatches", "checked_keys", "substitution_checked", "transform")

    def __init__(
        self, ok: bool, potential_mismatches: list, substitution_mismatches: list,
        checked_keys: int, substitution_checked: int, transform: PhaseTransform,
    ) -> None:
        self.ok, self.potential_mismatches, self.substitution_mismatches = ok, potential_mismatches, substitution_mismatches
        self.checked_keys, self.substitution_checked, self.transform = checked_keys, substitution_checked, transform

    __repr__ = _slots_repr  # a failing identity test prints the report


def substitution_identity(
    engine: CorrelatorEngine,
    transform: PhaseTransform,
    key: tuple[PhaseIndex, ...],
) -> tuple[NovikovSeries, NovikovSeries]:
    """Both sides of the slot-substitution identity for one correlator.

    The first slot carrying a positive level, τ_d(δ_a), is substituted by the
    transform's column at (d, a): the right side sums T[(j,b),(d,a)] times the
    correlator with the pulled-back τ_{0,j}(δ_b) in that slot, the remaining
    slots staying conventional.  Series are truncated by the transform's
    policy.  Raises ValueError when no slot has a positive level, or when d
    lies above the transform's window, where it has no column, and
    UnsupportedQueryError for fewer than three marks, where the right side's
    correlators are not defined.
    """
    model, policy = engine.model, transform.policy
    slot = next((p for p, (d, _) in enumerate(key) if d >= 1), None)
    if slot is None:
        raise ValueError(f"key {key} has no positive level to substitute")
    d_slot, a_slot = key[slot]
    if d_slot > policy.max_descendant:
        raise ValueError(f"level {d_slot} of key {key} lies above the transform's window ({policy.max_descendant})")
    if len(key) < 3:  # else only a nonzero entry of T would raise it, after the left side
        raise UnsupportedQueryError("generalized correlators need the stable range (n >= 3)")
    marks = [(d, 0, model.basis_class(a)) for d, a in key]
    lhs = summed_correlator(engine, marks, policy)
    rest = marks[:slot] + marks[slot + 1 :]
    rhs = NovikovSeries.zero(policy)
    for j, b in phase_indices(policy, model.rank):
        entry = transform.entry((j, b), (d_slot, a_slot))
        if not entry.is_zero():
            rhs = rhs + entry * summed_correlator(engine, [(0, j, model.basis_class(b))] + rest, policy)
    return lhs, rhs


def transform_identity_report(
    engine: CorrelatorEngine,
    policy: TruncationPolicy,
    substitution_keys: Sequence[tuple[PhaseIndex, ...]] | None = None,
) -> TransformIdentityReport:
    """Check that the standard potential equals the modified one composed
    with the coordinate change, and spot-check the substitution identity;
    both use one build of the change, returned as ``transform``."""
    standard = potential_standard(engine, policy)
    modified = potential_modified(engine, policy)
    transform = build_transform(engine, policy)
    composed = compose_with_transform(modified, transform)
    # equality is one dict comparison; difference subtracts and sorts every key
    mismatches = [] if standard == composed else standard.difference(composed)
    checked = len(standard._numerators.keys() | composed._numerators.keys())

    if substitution_keys is None:
        substitution_keys = [key for key in standard.keys() if any(d >= 1 for d, _ in key)][:12]
    sub_mismatches = []
    for key in substitution_keys:
        lhs, rhs = substitution_identity(engine, transform, key)
        if lhs != rhs:
            sub_mismatches.append((key, lhs, rhs))

    return TransformIdentityReport(
        ok=not mismatches and not sub_mismatches,
        potential_mismatches=mismatches,
        substitution_mismatches=sub_mismatches,
        checked_keys=checked,
        substitution_checked=len(substitution_keys),
        transform=transform,
    )


def divisor_product_identity(
    engine: CorrelatorEngine,
    policy: TruncationPolicy,
    d: int,
    x: CohClass,
    y: CohClass,
) -> tuple[NovikovSeries, NovikovSeries]:
    """Both sides of the product-compatibility identity for summed series.

    Inserting the reduction divisor against a level-d slot equals lowering
    the level by one against the quantum product with the second argument.
    """
    if d < 1:
        raise ValueError("need a positive level on the descendant slot")
    model, gamma0 = engine.model, engine.gamma0
    lhs = summed_correlator(engine, [(0, 0, gamma0), (d, 0, x), (0, 0, y)], policy)
    rhs = NovikovSeries.zero(policy)
    for a, coeff in enumerate(quantum_product(model, engine.primary_table, policy, gamma0, y)):
        if not coeff.is_zero():
            rhs = rhs + coeff * summed_correlator(engine, [(d - 1, 0, x), (0, 0, model.basis_class(a))], policy)
    return lhs, rhs
