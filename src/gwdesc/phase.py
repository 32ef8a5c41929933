"""Big phase space: summed correlators, the triangular coordinate change,
and the generating potentials it identifies.

Coordinates x_{d,a} are dual to a descendant level d and a basis class a.
The standard potential collects stable-range descendant correlators, the
modified potential collects the pulled-back kind, and the two are related
by an invertible change of coordinates built from two-point descendant
series.  Every object here is exact and truncated by one shared policy.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial
from typing import Callable, Sequence

from .exact import (
    CurveClass,
    NovikovSeries,
    TruncationPolicy,
    antiderivative_q,
    beta_is_zero,
    derivative_q,
    format_rational,
)
from .engine import CorrelatorEngine, PrimaryTable
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

    ``value`` must return a Fraction and ``classes`` must lie inside the window: the series
    is built unchecked (see :meth:`NovikovSeries._trusted`), which drops only the zero terms."""
    betas = policy.iter_effective() if classes is None else classes
    return NovikovSeries._trusted(policy, {beta: value(beta) for beta in betas})


def summed_correlator(
    engine: CorrelatorEngine,
    pairs: Sequence[tuple[int, CohClass]],
    policy: TruncationPolicy,
) -> NovikovSeries:
    """Genus-zero descendant correlator summed over effective classes."""
    return summed(policy, lambda beta: engine.descendant(0, beta, pairs))


def summed_two_point(
    engine: CorrelatorEngine,
    d: int,
    x: CohClass,
    y: CohClass,
    policy: TruncationPolicy,
) -> NovikovSeries:
    """Two-point descendant series (the zero class never contributes)."""
    return summed(policy, lambda beta: engine.two_point(d, x, y, beta))


# ----------------------------------------------------------------------
# primary three-point series and the small quantum product (table-only path)


def _primary3_multilinear(
    model: GeometryModel,
    table: PrimaryTable,
    beta: CurveClass,
    x: CohClass,
    y: CohClass,
    z: CohClass,
) -> Fraction:
    if beta_is_zero(beta):
        return model.integrate(model.cup(model.cup(x, y), z))
    total = Fraction(0)
    for ix in x.support():
        for iy in y.support():
            for iz in z.support():
                value = table.value(beta, ix, iy, iz)
                if value:
                    total += x.coeffs[ix] * y.coeffs[iy] * z.coeffs[iz] * value
    return total


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
        summed(policy, lambda beta: _primary3_multilinear(model, table, beta, dual, x, y))
        for dual in model.dual_bases().delta_dual
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
    """Two-point descendant series built from primary three-point data only.

    Alternating closed form: iterating the divisor relation trades the
    cotangent power for divisor cup powers on the descendant slot, leaving
    triple correlators that the product-compatibility identity converts
    into lower two-point series; each step ends with one formal
    antiderivative per division by the divisor pairing.  This is a second,
    engine-independent route to the same series.  Each call builds a fresh
    :class:`_PrimaryTwoPoint`, so nothing is remembered between calls.
    """
    return _PrimaryTwoPoint(model, table, policy, gamma0).series(d, x, y)


class _PrimaryTwoPoint:
    """The primary-only two-point route at one (table, policy, gamma0).

    The recursion asks for the same lower series and the same quantum
    product ``gamma0 * y`` many times over; both are memoized here, and the
    cup powers of gamma0 are formed once.  Table, policy and divisor are
    fixed for the life of the object, so a memo never crosses divisors: a
    divisor-independence check must compare two separate routes.  The
    route never consults the correlator engine.
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
        self.gamma0 = gamma0 if gamma0 is not None else model.ample
        self._powers = [model.unit]  # _powers[k] == model.cup_power(gamma0, k)
        self._products: dict[CohClass, tuple[NovikovSeries, ...]] = {}
        self._series: dict[tuple[int, CohClass, CohClass], NovikovSeries] = {}
        self._nonzero = [beta for beta in policy.degrees if not beta_is_zero(beta)]

    def _pairing(self, beta: CurveClass) -> Fraction:
        return self.model.beta_pairing(self.gamma0, beta)

    def _power(self, k: int) -> CohClass:
        while len(self._powers) <= k:
            self._powers.append(self.model.cup(self._powers[-1], self.gamma0))
        return self._powers[k]

    def _product(self, y: CohClass) -> tuple[NovikovSeries, ...]:
        if y not in self._products:
            self._products[y] = quantum_product(self.model, self.table, self.policy, self.gamma0, y)
        return self._products[y]

    def series(self, d: int, x: CohClass, y: CohClass) -> NovikovSeries:
        key = (d, x, y)
        if key not in self._series:
            self._series[key] = self._compute(d, x, y)
        return self._series[key]

    def _compute(self, d: int, x: CohClass, y: CohClass) -> NovikovSeries:
        model, policy, gamma0 = self.model, self.policy, self.gamma0
        total = NovikovSeries.zero(policy)
        for j in range(1, d + 2):
            sign = Fraction((-1) ** (j + 1))
            shifted_x = model.cup(self._power(j - 1), x)
            if shifted_x.is_zero():
                continue
            if j <= d:
                bracket = NovikovSeries.zero(policy)
                for a, coeff in enumerate(self._product(y)):
                    if not coeff.is_zero():
                        bracket = bracket + coeff * self.series(d - j, shifted_x, model.basis_class(a))
            else:  # the antiderivatives below need the bracket without its zero-class term
                bracket = summed(
                    policy,
                    lambda beta: _primary3_multilinear(model, self.table, beta, gamma0, shifted_x, y),
                    self._nonzero,
                )
            for _ in range(j):
                bracket = antiderivative_q(bracket, self._pairing)
            total = total + sign * bracket
        return total


# ----------------------------------------------------------------------
# the triangular coordinate change


class PhaseTransform:
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhaseTransform):
            return NotImplemented
        return (
            (self.policy is other.policy or self.policy == other.policy)
            and self.basis_rank == other.basis_rank
            and self._rows == other._rows
        )

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
    through the gap d-c, so each gap's series are summed once; the
    constructor drops the zero ones.
    """
    model, rank, top = engine.model, engine.model.rank, policy.max_descendant
    duals = model.dual_bases()
    one = NovikovSeries.one(policy)
    entries = {(idx, idx): one for idx in phase_indices(policy, rank)}
    for k in range(top):  # the gap d - c - 1
        for a in range(rank):
            for b in range(rank):
                series = summed_two_point(engine, k, duals.delta[a], duals.delta_dual[b], policy)
                for c in range(top - k):
                    entries[((c, b), (c + k + 1, a))] = series
    return PhaseTransform(policy, rank, entries)


# ----------------------------------------------------------------------
# potentials


class PotentialSeries:
    """Multiset-keyed polynomial with exact series coefficients.

    A key is a sorted tuple of (level, basis index) pairs; the stored value
    is the correlator divided by the product of multiplicity factorials, so
    two potentials agree exactly when their dicts agree.
    """

    def __init__(self, policy: TruncationPolicy, coeffs: dict[tuple[PhaseIndex, ...], NovikovSeries] | None = None) -> None:
        self.policy = policy
        self._coeffs = {key: s for key, s in (coeffs or {}).items() if not s.is_zero()}

    def coefficient(self, key: Sequence[PhaseIndex]) -> NovikovSeries:
        return self._coeffs.get(tuple(sorted(key)), NovikovSeries.zero(self.policy))

    def items(self) -> list[tuple[tuple[PhaseIndex, ...], NovikovSeries]]:
        return sorted(self._coeffs.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, PotentialSeries):
            return NotImplemented
        return (self.policy is other.policy or self.policy == other.policy) and self._coeffs == other._coeffs

    def difference(self, other: PotentialSeries) -> list[tuple[tuple[PhaseIndex, ...], NovikovSeries]]:
        """Nonzero coefficients of self - other, canonically ordered."""
        keys = set(self._coeffs) | set(other._coeffs)
        out = []
        for key in sorted(keys, key=lambda k: (len(k), k)):
            diff = self.coefficient(key) - other.coefficient(key)
            if not diff.is_zero():
                out.append((key, diff))
        return out

    def restricted_to_primary(self) -> PotentialSeries:
        return PotentialSeries(
            self.policy,
            {key: s for key, s in self._coeffs.items() if all(d == 0 for d, _ in key)},
        )

    def to_records(self, model: GeometryModel) -> list[dict]:
        out = []
        for key, series in self.items():
            for beta, value in series.items():
                out.append(
                    {
                        "indices": [[d, model.labels[a]] for d, a in key],
                        "beta": list(beta),
                        "value": format_rational(value),
                    }
                )
        return out


def _multiplicity_factor(key: tuple[PhaseIndex, ...]) -> int:
    factor = 1
    for count in Counter(key).values():
        factor *= factorial(count)
    return factor


def _assemble(policy: TruncationPolicy, keys: Sequence[tuple[PhaseIndex, ...]], correlator) -> PotentialSeries:
    """Potential over the monomials ``keys``, each weighted by its multiplicity factor."""
    coeffs: dict[tuple[PhaseIndex, ...], NovikovSeries] = {}
    for key in keys:
        series = correlator(key)
        if series.is_zero():
            continue
        coeffs[key] = series * Fraction(1, _multiplicity_factor(key))
    return PotentialSeries(policy, coeffs)


def _admissible_keys(
    engine: CorrelatorEngine, policy: TruncationPolicy, indices: Sequence[PhaseIndex]
) -> list[tuple[PhaseIndex, ...]]:
    """The monomials of degree 3..max_x_degree in ``indices`` whose degree sum leaves the
    window some dimension-admissible class (all of them with ``check_dimension`` off): a
    filtered ``combinations_with_replacement``, in its order."""
    weights = [d + engine.model.degrees[a] for d, a in indices]
    keys: list[tuple[PhaseIndex, ...]] = []
    for n in range(3, policy.max_x_degree + 1):
        totals = list(map(sum, combinations_with_replacement(weights, n)))
        wanted = {t for t in set(totals) if engine.admissible_classes(policy, n, t)}
        for key, total in zip(combinations_with_replacement(indices, n), totals):
            if total in wanted:
                keys.append(key)
    return keys


def _potential(
    engine: CorrelatorEngine, policy: TruncationPolicy, indices: Sequence[PhaseIndex], modified: bool = False
) -> PotentialSeries:
    """Potential whose key coefficient sums the key's descendant correlator (pulled-back
    powers if ``modified``) over the classes where the key's dimension count can hold;
    keys with no such class are never formed.

    Keys are assembled in increasing number of marks.  A descendant key of four or more
    marks with a string, dilaton or divisor insertion takes its series from the keys of
    one fewer mark by that genus-zero equation (see :func:`_axiom_reduction`); every
    other key is summed from the engine."""
    model = engine.model
    reduce = None if modified else _axiom_reduction(model, policy)
    built: dict[tuple[PhaseIndex, ...], NovikovSeries] = {}  # the raw series of every key so far

    def correlator(key):
        series = None if reduce is None else reduce(key, built)
        if series is None:
            classes = engine.admissible_classes(policy, len(key), sum(d + model.degrees[a] for d, a in key))
            if modified:
                triples = [(0, d, model.basis_class(a)) for d, a in key]
                series = summed(policy, lambda beta: engine.generalized(beta, triples), classes)
            else:
                pairs = [(d, model.basis_class(a)) for d, a in key]
                series = summed(policy, lambda beta: engine.descendant(0, beta, pairs), classes)
        built[key] = series
        return series

    # _assemble asks for the keys in their order, so the keys of n - 1 marks are built first
    return _assemble(policy, _admissible_keys(engine, policy, indices), correlator)


def _axiom_reduction(model: GeometryModel, policy: TruncationPolicy):
    """The genus-zero string, dilaton and divisor equations on raw potential series.

    Returns ``reduce(key, built)``: the summed correlator of ``key`` from the raw series
    ``built`` of keys with one fewer mark, by the equation of its first string τ_0(1),
    dilaton τ_1(1) or divisor τ_0(D) insertion (D of degree 1), where X is the key
    without that insertion:

    * string: <τ_0(1) X> = Σ_i <X with slot i lowered one level>;
    * dilaton: <τ_1(1) X> = (|X| - 2) <X>;
    * divisor: <τ_0(D) X>_β = (D·β) <X>_β + Σ_i <X with slot i lowered to τ_{d_i-1}(a_i ∪ D)>_β.

    X has at least three marks, so it is stable at every class.  A key missing from
    ``built`` has no admissible class and reads as zero.  ``reduce`` returns None when
    the key has three marks or none of these insertions: the engine evaluates it."""
    units = model.basis_of_degree(0)
    units = units if len(units) == 1 else ()  # the unit is the one degree-0 basis element
    divisors = model.basis_of_degree(1)
    # per insertion class: the parts of it cup each basis element (the unit's lowering keeps
    # the class), and for a divisor D its pairing D·β on the window
    lowerings = {
        a_s: [model.cup(model.basis_class(a_s), model.basis_class(a)).parts for a in range(model.rank)]
        for a_s in units + divisors
    }
    pairings = {
        a_s: {beta: model.beta_pairing(model.basis_class(a_s), beta) for beta in policy.degrees} for a_s in divisors
    }
    axiom_indices = {(0, a) for a in lowerings} | {(1, a) for a in units}
    zero = NovikovSeries.zero(policy)

    def reduce(key, built):
        slot = next((p for p, idx in enumerate(key) if idx in axiom_indices), None) if len(key) >= 4 else None
        if slot is None:
            return None
        d_s, a_s = key[slot]
        rest = key[:slot] + key[slot + 1 :]
        if d_s == 1:
            return (len(rest) - 2) * built.get(rest, zero)
        total = zero if a_s in units else derivative_q(built.get(rest, zero), pairings[a_s].__getitem__)
        for i, (d, a) in enumerate(rest):
            if d >= 1:
                for c, idx in lowerings[a_s][a]:
                    term = built.get(tuple(sorted(rest[:i] + ((d - 1, idx),) + rest[i + 1 :])), zero)
                    total = total + (term if c == 1 else c * term)
        return total

    return reduce


def potential_standard(engine: CorrelatorEngine, policy: TruncationPolicy) -> PotentialSeries:
    """Stable-range descendant potential at genus zero."""
    return _potential(engine, policy, phase_indices(policy, engine.model.rank))


def potential_modified(engine: CorrelatorEngine, policy: TruncationPolicy) -> PotentialSeries:
    """Same assembly with every cotangent power replaced by a pulled-back one."""
    return _potential(engine, policy, phase_indices(policy, engine.model.rank), modified=True)


def potential_primary(engine: CorrelatorEngine, policy: TruncationPolicy) -> PotentialSeries:
    """Restriction of the standard potential to the level-zero coordinates."""
    return _potential(engine, policy, [(0, a) for a in range(engine.model.rank)])


def compose_with_transform(potential: PotentialSeries, transform: PhaseTransform) -> PotentialSeries:
    """Substitute the coordinate change into a potential, exactly: each key's
    expansion starts from its coefficient and takes one transform row per index."""
    out: dict[tuple[PhaseIndex, ...], NovikovSeries] = {}
    one = NovikovSeries.one(potential.policy)
    for key, coeff in potential.items():
        expansions: dict[tuple[PhaseIndex, ...], NovikovSeries] = {(): coeff}
        for idx in key:
            new: dict[tuple[PhaseIndex, ...], NovikovSeries] = {}
            for xs, series in expansions.items():
                for inp, entry in transform._rows.get(idx, {}).items():
                    prod = series if entry == one else series * entry
                    if prod.is_zero():
                        continue
                    nk = tuple(sorted(xs + (inp,)))
                    new[nk] = new[nk] + prod if nk in new else prod
            expansions = new
        for xkey, term in expansions.items():
            out[xkey] = out[xkey] + term if xkey in out else term
    return PotentialSeries(potential.policy, out)


# ----------------------------------------------------------------------
# the potential identity and the per-correlator substitution identity


@dataclass
class TransformIdentityReport:
    ok: bool
    potential_mismatches: list = field(default_factory=list)
    substitution_mismatches: list = field(default_factory=list)
    checked_keys: int = 0
    substitution_checked: int = 0
    transform: PhaseTransform | None = None  # the coordinate change both identities used

    def __str__(self) -> str:
        lines = [
            f"potential identity: {'PASS' if not self.potential_mismatches else 'FAIL'} "
            f"({self.checked_keys} coefficients compared)",
            f"substitution identity: {'PASS' if not self.substitution_mismatches else 'FAIL'} "
            f"({self.substitution_checked} correlators compared)",
        ]
        for key, diff in self.potential_mismatches[:5]:
            lines.append(f"  mismatch at {key}: {diff}")
        for key, lhs, rhs in self.substitution_mismatches[:5]:
            lines.append(f"  substitution mismatch at {key}: {lhs} vs {rhs}")
        return "\n".join(lines)


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
    lies above the transform's window, where it has no column.
    """
    model, policy = engine.model, transform.policy
    slot = next((p for p, (d, _) in enumerate(key) if d >= 1), None)
    if slot is None:
        raise ValueError(f"key {key} has no positive level to substitute")
    d_slot, a_slot = key[slot]
    if d_slot > policy.max_descendant:
        raise ValueError(f"level {d_slot} of key {key} lies above the transform's window ({policy.max_descendant})")
    lhs = summed_correlator(engine, [(d, model.basis_class(a)) for d, a in key], policy)
    rest = [(d, 0, model.basis_class(a)) for p, (d, a) in enumerate(key) if p != slot]
    rhs = NovikovSeries.zero(policy)
    for j, b in phase_indices(policy, model.rank):
        entry = transform.entry((j, b), (d_slot, a_slot))
        if not entry.is_zero():
            triples = [(0, j, model.basis_class(b))] + rest
            rhs = rhs + entry * summed(policy, lambda beta: engine.generalized(beta, triples))
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
    mismatches = standard.difference(composed)
    checked = len({k for k, _ in standard.items()} | {k for k, _ in composed.items()})

    if substitution_keys is None:
        substitution_keys = [
            key for key, _ in standard.items() if any(d >= 1 for d, _ in key)
        ][:12]
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
    model = engine.model
    gamma0 = engine.gamma0
    lhs = summed(policy, lambda beta: engine.three_point_descendant(beta, [(0, gamma0), (d, x), (0, y)]))
    rhs = NovikovSeries.zero(policy)
    for a, coeff in enumerate(quantum_product(model, engine.primary_table, policy, gamma0, y)):
        if not coeff.is_zero():
            rhs = rhs + coeff * summed_two_point(engine, d - 1, x, model.basis_class(a), policy)
    return lhs, rhs
