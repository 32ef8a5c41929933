"""Genus-zero correlator engine: descendant reduction over exact rationals.

Evaluation strategy, in reduction order:

* a cotangent power on the space of maps is traded for the same power
  pulled back from the curve moduli, plus two-point contractions over
  dual bases and over all effective splittings of the curve class;
* pulled-back powers are expanded into boundary divisors of the curve
  moduli, splitting the correlator into contracted pairs of smaller ones;
* pure primary queries with four or more marks reduce by the divisor
  relation, and non-divisor insertions are rewritten through a one-step
  descendant detour for a cup-product decomposition;
* a generalized correlator whose pulled-back powers sum past n - 3 is zero
  without evaluation, since they come from the curve moduli of n marks,
  whose dimension is n - 3;
* base cases: the three-point values, all read by ``PrimaryTable.three_point``
  (the integral of the cup product at the zero class, the table elsewhere),
  and the constant-map closed forms;
* the unstable range (two-, one- and zero-point at nonzero class) is one
  divisor-relation step with the ample divisor.  For two marks the value
  with the divisor added is one step of the first reduction above (its
  pulled-back term vanishes at three marks) or a table value; for fewer it
  is again unstable, and the dilaton relation gives an independent route.

The dimension count is screened once per query, at the entry.  Everything
is memoized on canonically sorted keys, so values are independent of
insertion order and of evaluation interleaving.  The pairings c1·beta and
gamma0·beta, the divisor pairings D·beta of the n-point primaries and each
class's splittings are formed once per engine, in ``functools.cache``
wrappers.  The pairings and the basis coefficients of a class are held as
ints where integral (a factor 1 is skipped).  The memo holds an integral
value as an int too (see exact.narrow), and the sums start at the int 0;
every public entry returns a Fraction, and ``_core`` returns the memo's int
or Fraction as it is.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache, cached_property
from itertools import islice, product as _cartesian
from math import comb
from pathlib import Path
from typing import Iterator, Sequence

from .exact import (
    CurveClass, GwdescError, TableFormatError, TruncationPolicy, beta_splittings, format_rational, is_exact,
    json_int_list, json_rational, narrow,
)
from .geometry import CohClass, GeometryModel, ModelError
from .moduli import TautTable, constant_map_correlator


class UnsupportedQueryError(GwdescError, ValueError):
    """Query outside the supported range (positive genus at nonzero class)."""


class ReconstructionError(GwdescError, RuntimeError):
    """An n-point primary value is not reachable from the three-point table."""


Insertion = tuple[int, int, int]  # (d, e, basis index)


def _check_levels(marks: Sequence[tuple[int, int, object]]) -> None:
    """Raise ValueError unless every mark's cotangent power d and pulled-back power e,
    (d, e, class) per mark, is non-negative: a negative level is an input error, never 0."""
    for d, e, _ in marks:
        if d < 0 or e < 0:
            raise ValueError("descendant exponents must be non-negative")


_ZERO = Fraction(0)  # the value of every table miss, shared since a Fraction is immutable


class PrimaryTable:
    """Three-point primary values at nonzero curve classes.

    Entries are symmetrized on load and screened against the genus-zero
    dimension constraint; zero-class records, records with an identity
    insertion (those values are never table data) and values that are not an
    int or a Fraction are rejected.  :meth:`three_point` is the one reader of
    three-point values, at every class.
    """

    def __init__(self, model: GeometryModel, records: Sequence[tuple[CurveClass, tuple[int, int, int], Fraction]] = ()) -> None:
        self.model = model
        self._table: dict[tuple[CurveClass, tuple[int, int, int]], Fraction] = {}
        seen: dict[tuple[CurveClass, tuple[int, int, int]], Fraction] = {}  # zero values too, unlike _table
        for beta, triple, value in records:
            beta = tuple(beta)
            triple = tuple(sorted(triple))
            if type(value) is not Fraction:
                if not is_exact(value):
                    raise TableFormatError(f"record {beta}/{triple}: value must be an int or a Fraction, got {value!r}")
                value = Fraction(value)
            if len(beta) != model.lattice_rank:
                raise TableFormatError(f"record {beta}: wrong lattice rank")
            if not any(beta):
                raise TableFormatError("zero-class three-point values are integrals, not table data")
            if any(b < 0 for b in beta):
                raise TableFormatError(f"record {beta}: curve class not effective")
            degrees = [model.degrees[i] for i in triple]
            if 0 in degrees and value:
                raise TableFormatError(
                    f"record {beta}/{triple}: identity insertions vanish at nonzero classes"
                )
            expected = model.dimension + model.c1_pairing(beta)
            if sum(degrees) != expected and value:
                raise TableFormatError(
                    f"record {beta}/{[model.labels[i] for i in triple]}: degree sum {sum(degrees)} "
                    f"violates the dimension constraint {expected}"
                )
            key = (beta, triple)
            if seen.setdefault(key, value) != value:
                raise TableFormatError(f"conflicting values for {key}")
            if value:
                self._table[key] = value

    def value(self, beta: CurveClass, ia: int, ib: int, ic: int) -> Fraction:
        return self._table.get((tuple(beta), tuple(sorted((ia, ib, ic)))), _ZERO)

    def three_point(self, beta: CurveClass, x: CohClass, y: CohClass, z: CohClass) -> int | Fraction:
        """The three-point primary <x y z>_beta, multilinear in the classes: the integral of
        x ∪ y ∪ z at the zero class, else the sum from the int 0 of the table's values at each
        triple of basis indices, weighted by the classes' parts.  The table is read only at a
        nonzero class."""
        if not any(beta):
            return self.model.integrate(self.model.cup(self.model.cup(x, y), z))
        total = 0
        for cx, ix in x.parts:
            for cy, iy in y.parts:
                for cz, iz in z.parts:
                    value = self.value(beta, ix, iy, iz)
                    if value:
                        coeff = cx * cy * cz
                        total += value if coeff == 1 else coeff * value
        return total

    def records(self) -> list[dict]:
        out = []
        for (beta, triple), value in sorted(self._table.items()):
            out.append(
                {
                    "beta": list(beta),
                    "classes": [self.model.labels[i] for i in triple],
                    "value": format_rational(value),
                }
            )
        return out

    @classmethod
    def from_records(cls, model: GeometryModel, rows: Sequence[dict]) -> PrimaryTable:
        if not isinstance(rows, list):
            raise TableFormatError(f"a primary table is a list of records, not {type(rows).__name__}")
        records = []
        for row in rows:
            if not isinstance(row, dict) or not {"beta", "classes", "value"} <= row.keys():
                raise TableFormatError(f"record {row!r}: a record is an object with beta, classes and value")
            classes = row["classes"]
            try:
                beta = tuple(json_int_list(row["beta"], "beta"))
                value = json_rational(row["value"], "value")
                if not isinstance(classes, list):
                    raise ValueError("beta must be a list of integers and classes a list of labels")
                if len(classes) != 3:
                    raise ValueError(f"a three-point record needs 3 classes, got {len(classes)}")
                triple = tuple(model.label_index(str(label)) for label in classes)
            except ValueError as exc:
                raise TableFormatError(f"record {row}: {exc}") from exc
            records.append((beta, triple, value))
        return cls(model, records)

    @classmethod
    def from_file(cls, model: GeometryModel, path: str | Path) -> PrimaryTable:
        with open(path, encoding="utf-8") as handle:
            return cls.from_records(model, json.load(handle))


class _NoMemo(dict):
    """The memo of an uncached engine: a dict that stores nothing."""

    def __setitem__(self, key, value) -> None:
        pass


class CorrelatorEngine:
    """Evaluates primary, descendant, generalized and modified correlators.

    Values depend only on (model, primary table, tautological table); the
    reduction divisor ``gamma0`` is a computational choice and must not
    change any value, which the verification suites check literally.
    """

    def __init__(
        self,
        model: GeometryModel,
        primary: PrimaryTable | None = None,
        taut: TautTable | None = None,
        gamma0: CohClass | None = None,
        use_cache: bool = True,
        check_dimension: bool = True,
    ) -> None:
        self.model = model
        self.primary_table = primary if primary is not None else PrimaryTable(model)
        self.taut = taut
        self.check_dimension = check_dimension
        self.gamma0 = gamma0 if gamma0 is not None else model.ample
        if model.lattice_rank > 0 and model.degree_of(self.gamma0) != 1:
            raise ValueError("the reduction divisor must be a degree-1 class")
        # gamma0 and gamma0 ∪ basis[a] (the lowering terms) as (coefficient, index) parts
        self._gamma0_parts = self.gamma0.parts
        self._lowered = [model.cup(self.gamma0, model.basis_class(a)).parts for a in range(model.rank)]
        self._memo: dict = {} if use_cache else _NoMemo()
        self._active: set = set()
        # c1·beta and gamma0·beta per class and basis[a]·beta per (a, class), an int where integral
        # (see exact.narrow), and beta_splittings(beta) per class, whose first splitting is (0, beta),
        # each formed once.  The caches close over the model and gamma0, not self, so reference
        # counting frees the engine, and look up beta_splittings and the pairings when called.
        gamma0 = self.gamma0
        self._c1_beta = cache(lambda beta: narrow(model.c1_pairing(beta)))
        self._g0 = cache(lambda beta: narrow(model.beta_pairing(gamma0, beta)))
        self._basis_pairing = cache(lambda a, beta: narrow(model.beta_pairing(model.basis_class(a), beta)))
        self._splittings = cache(lambda beta: tuple(beta_splittings(beta)))
        # each window's classes grouped by c1·beta
        self._windows: dict[TruncationPolicy, dict[int | Fraction, list[CurveClass]]] = {}

    # ------------------------------------------------------------------
    # small helpers

    def _effective(self, beta: CurveClass) -> CurveClass:
        beta = tuple(beta)
        if len(beta) != self.model.lattice_rank:
            raise ModelError(f"curve class {beta!r} has rank != {self.model.lattice_rank}")
        if any(b < 0 for b in beta):
            raise ValueError("curve classes must be effective")
        return beta

    def _gamma0_pairing(self, beta: CurveClass) -> int | Fraction:
        pairing = self._g0(beta)
        if pairing == 0:
            raise ValueError(f"reduction divisor pairs to zero with {beta}; not ample there")
        return pairing

    @cached_property
    def _dual_parts(self) -> list[tuple[tuple[int | Fraction, int], ...]]:
        """The pairing-dual basis as parts, built on first use (it needs a nondegenerate pairing)."""
        return [dual.parts for dual in self.model.dual_basis()]

    def _c1_needed(self, n: int, total: int) -> int:
        """The c1·beta at which n insertions of degree sum total pass dimension + c1·beta + n - 3 == total."""
        return total - self.model.dimension - n + 3

    def _dimension_ok(self, beta: CurveClass, ins: tuple[Insertion, ...]) -> bool:
        return self._c1_beta(beta) == self._c1_needed(len(ins), sum(d + e + self.model.degrees[a] for d, e, a in ins))

    def admissible_classes(self, policy: TruncationPolicy, n: int, total: int) -> Sequence[CurveClass]:
        """The window's classes, in window order, at which n insertions of total
        degree ``total`` can be nonzero: all of them with ``check_dimension`` off."""
        if not self.check_dimension:
            return tuple(policy.iter_effective())
        if policy not in self._windows:
            self._windows[policy] = {}
            for beta in policy.iter_effective():
                self._windows[policy].setdefault(self._c1_beta(beta), []).append(beta)
        return self._windows[policy].get(self._c1_needed(n, total), ())

    def _expand(
        self, triples: Sequence[tuple[int, int, CohClass]]
    ) -> Iterator[tuple[int | Fraction, tuple[Insertion, ...]]]:
        """Multilinear expansion of class-valued insertions over the basis."""
        slots = []
        for d, e, cls in triples:
            comps = [(c, (d, e, idx)) for c, idx in cls.parts]
            if not comps:
                return
            slots.append(comps)
        for combo in _cartesian(*slots):
            coeff = 1
            core = []
            for c, ins in combo:
                if c != 1:
                    coeff *= c
                core.append(ins)
            yield coeff, tuple(sorted(core))

    def _candidates(self, beta: CurveClass, n: int, others: int) -> Sequence[int]:
        """Basis indices a node class at class beta may take: those completing the
        dimension count of n marks whose other marks' degrees sum to ``others``."""
        if not self.check_dimension:
            return range(self.model.rank)
        return self.model.basis_of_degree(self._c1_beta(beta) - self._c1_needed(n, others))

    # ------------------------------------------------------------------
    # unstable range at nonzero class: one divisor-relation step

    def _unstable(self, beta: CurveClass, ins: tuple[Insertion, ...], route: str = "divisor") -> int | Fraction:
        """Two-, one- or zero-point correlator at a nonzero class.

        The divisor route solves the divisor relation with gamma0,
        <gamma0·ins> = (gamma0·beta)<ins> + sum_i <ins, slot i lowered to tau_{d_i-1}(gamma0 ∪ a_i)>,
        for <ins>.  For two-point values the gamma0 side is a three-mark lowering step,
        ``_gen_apply_relation`` called directly (two frames per level of the chain);
        for fewer marks it is unstable again.  Below two marks the dilaton route
        divides <tau_1(1)·ins> by the dilaton factor 2g-2+n = n-2 instead.
        """
        if not any(beta):
            return 0
        n = len(ins)
        # two-point values do not depend on the route, so their key leaves it out
        key = ("2", beta, ins) if n == 2 else (str(n), beta, ins, route)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if n < 2 and route == "dilaton":
            with_dilaton = tuple(sorted(ins + ((1, 0, self.model.unit_index),)))
            self._memo[key] = value = narrow(Fraction(self._unstable(beta, with_dilaton, route), n - 2))
            return value
        pairing = self._gamma0_pairing(beta)
        total = 0
        for c, gi in self._gamma0_parts:
            with_divisor = tuple(sorted(ins + ((0, 0, gi),)))
            if n == 2:
                j = next((p for p, (d, _, _) in enumerate(with_divisor) if d >= 1), None)
                if j is None:
                    basis = self.model.basis_class
                    value = self.primary_table.three_point(beta, *(basis(a) for _, _, a in with_divisor))
                else:
                    value = self._gen_apply_relation(beta, with_divisor, j)
            else:
                value = self._unstable(beta, with_divisor, route)
            total += value if c == 1 else c * value
        for slot, (d, e, a) in enumerate(ins):
            if d >= 1:
                for c, idx in self._lowered[a]:
                    lowered = list(ins)
                    lowered[slot] = (d - 1, e, idx)
                    value = self._unstable(beta, tuple(sorted(lowered)), route)
                    total -= value if c == 1 else c * value
        self._memo[key] = value = narrow(Fraction(total, pairing))
        return value

    # ------------------------------------------------------------------
    # generalized correlators (stable range)

    def _gen(self, beta: CurveClass, ins: tuple[Insertion, ...]) -> int | Fraction:
        """The memoized correlator of a sorted core.  Theorem 1.2 holds at every slot, so a core with a
        cotangent power is lowered at its d >= 1 slot of least d + deg(a), the first on a tie."""
        key = ("g", beta, ins)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        j, pulled, degrees = None, 0, self.model.degrees
        for p, (d, e, a) in enumerate(ins):
            if d >= 1 and (j is None or d + degrees[a] < least):
                j, least = p, d + degrees[a]
            pulled += e
        if pulled > len(ins) - 3:  # powers pulled back from M̄_{0,n}, n >= 3, of dimension n - 3
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

    def _gen_apply_relation(self, beta: CurveClass, ins: tuple[Insertion, ...], j: int) -> int | Fraction:
        """One application of the descendant-lowering relation at slot j; also the unstable
        range's three-mark step, where ``_gen`` screens the shifted term (e = 1 > n - 3) to zero."""
        d_j, e_j, a_j = ins[j]
        shifted = list(ins)
        shifted[j] = (d_j - 1, e_j + 1, a_j)
        total = self._gen(beta, tuple(sorted(shifted)))
        others = -d_j - self.model.degrees[a_j]  # slot j counts with its pulled-back power only
        for d, e, a in ins:
            others += d + e + self.model.degrees[a]
        for beta1, beta2 in islice(self._splittings(beta), 1, None):  # beta1 != 0
            for a in self._candidates(beta2, len(ins), others):
                tp = 0
                for c, b in self._dual_parts[a]:
                    value = self._unstable(beta1, tuple(sorted(((d_j - 1, 0, a_j), (0, 0, b)))))
                    tp += value if c == 1 else c * value
                if not tp:
                    continue
                replaced = list(ins)
                replaced[j] = (0, e_j, a)
                rest = self._gen(beta2, tuple(sorted(replaced)))
                if rest:
                    total += tp * rest
        return total

    # ------------------------------------------------------------------
    # modified correlators: boundary splitting of pulled-back powers

    def _modified_core(
        self,
        beta: CurveClass,
        ins: tuple[Insertion, ...],
        refs: tuple[int, int, int] | None = None,
    ) -> int | Fraction:
        n = len(ins)
        if refs is None:
            i = next(p for p, (_, e, _) in enumerate(ins) if e >= 1)
            j, k = [p for p in range(n) if p != i][:2]
        else:
            i, j, k = refs
            if len({i, j, k}) != 3 or not {i, j, k} <= set(range(n)) or ins[i][1] < 1:
                raise ValueError("refs must be three distinct positions, the first carrying a power")
        _, e_i, a_i = ins[i]
        rest_positions = [p for p in range(n) if p not in (i, j, k)]
        groups: dict[Insertion, int] = {}
        for p in rest_positions:
            groups[ins[p]] = groups.get(ins[p], 0) + 1
        group_items = sorted(groups.items())
        total = 0
        for svec in _cartesian(*(range(count + 1) for _, count in group_items)):
            taken = sum(svec)
            if taken == 0:
                continue  # one side of the split must keep two original marks
            mult = 1
            side_s: list[Insertion] = [(0, e_i - 1, a_i)]
            side_c: list[Insertion] = [ins[j], ins[k]]
            for (val, count), s in zip(group_items, svec):
                mult *= comb(count, s)
                side_s.extend([val] * s)
                side_c.extend([val] * (count - s))
            # the node class on side S completes S's dimension count; on a
            # dimension-valid query its dual then completes the other side's
            others = sum(d + e + self.model.degrees[a] for d, e, a in side_s)
            for beta1, beta2 in self._splittings(beta):
                for a in self._candidates(beta1, len(side_s) + 1, others):
                    left = self._gen(beta1, tuple(sorted(side_s + [(0, 0, a)])))
                    if not left:
                        continue
                    right = 0
                    for c, b in self._dual_parts[a]:
                        piece = self._gen(beta2, tuple(sorted(side_c + [(0, 0, b)])))
                        if piece:
                            right += piece if c == 1 else c * piece
                    if right:
                        total += left * right if mult == 1 else mult * left * right
        return total

    # ------------------------------------------------------------------
    # n-point primaries from the three-point table

    def _primary(self, beta: CurveClass, classes: tuple[int, ...]) -> int | Fraction:
        if len(classes) == 3:
            return self.primary_table.three_point(beta, *map(self.model.basis_class, classes))
        if not any(beta):
            return 0
        degrees = [self.model.degrees[a] for a in classes]
        if 0 in degrees:
            # identity insertions kill stable primaries at nonzero classes
            return 0
        if 1 in degrees:
            slot = degrees.index(1)
            rest = classes[:slot] + classes[slot + 1 :]
            return self._basis_pairing(classes[slot], beta) * self._gen(beta, tuple((0, 0, a) for a in rest))
        target = classes[0]
        decomp = self.model.divisor_decomposition(target)
        if decomp is None:
            raise ReconstructionError(
                f"cannot decompose {self.model.labels[target]!r} into divisor cup products; "
                "n-point primaries need divisor-generated cohomology"
            )
        rest = tuple((0, 0, a) for a in classes[1:])
        total = 0
        for coeff, d_idx, x_idx in decomp:
            with_divisor = self._gen(beta, tuple(sorted(((0, 0, d_idx), (1, 0, x_idx)) + rest)))
            without = self._gen(beta, tuple(sorted(((1, 0, x_idx),) + rest)))
            total += coeff * (with_divisor - self._basis_pairing(d_idx, beta) * without)
        return total

    # ------------------------------------------------------------------
    # the one multilinear entry: every class-valued public correlator sums over the basis here

    def _sum(self, beta: CurveClass, triples: Sequence[tuple[int, int, CohClass]], value, *args) -> Fraction:
        """Sum ``value(beta, core, *args)`` over the basis expansion of the insertions,
        skipping, with ``check_dimension`` on, each core that fails the dimension count.
        This is the engine's one screen: every reduction step maps a dimension-valid node
        to dimension-valid nodes (lowering, the divisor, dilaton and detour steps and the
        shifted term keep the count, and every split node takes its class from ``_candidates``).
        A negative level raises ValueError, at every class."""
        beta = self._effective(beta)
        _check_levels(triples)
        total = Fraction(0)
        for coeff, core in self._expand(triples):
            if self.check_dimension and not self._dimension_ok(beta, core):
                continue
            term = value(beta, core, *args)
            if term:
                total += term if coeff == 1 else coeff * term
        return total

    def _core(self, beta: CurveClass, ins: tuple[Insertion, ...]) -> int | Fraction:
        """One term of the multilinear sum :meth:`_sum` forms, for the potential assembly: the
        genus-zero correlator of the sorted basis-index core ``ins`` of n >= 3 marks with
        non-negative levels, at an effective class.  At the zero class a core with a cotangent
        power and no pulled-back one goes to :meth:`descendant`, which dispatches it to the
        constant-map closed form; every other core goes to ``_gen``, its value returned as the memo
        holds it, an int where integral.  The caller screens dimensions by :meth:`admissible_classes`."""
        if not any(beta) and any(d for d, _, _ in ins) and not any(e for _, e, _ in ins):
            return self.descendant(0, beta, [(d, self.model.basis_class(a)) for d, _, a in ins])
        return self._gen(beta, ins)

    # ------------------------------------------------------------------
    # public interface (class-valued, multilinear)

    def descendant(self, g: int, beta: CurveClass, pairs: Sequence[tuple[int, CohClass]]) -> Fraction:
        """Conventional descendant correlator, dispatching on (g, beta, n)."""
        beta = self._effective(beta)
        if g < 0:
            raise ValueError("genus must be non-negative")
        if g >= 1 and any(beta):
            raise UnsupportedQueryError("out of scope: positive genus needs curve class zero here")
        if not any(beta):
            return constant_map_correlator(g, list(pairs), self.model, self.taut)
        value = self._gen if len(pairs) >= 3 else self._unstable
        return self._sum(beta, [(d, 0, cls) for d, cls in pairs], value)

    def generalized(
        self,
        beta: CurveClass,
        triples: Sequence[tuple[int, int, CohClass]],
        reduce_at: int | None = None,
    ) -> Fraction:
        """Correlator with both cotangent and pulled-back powers (stable range).

        ``reduce_at`` forces the first descendant-lowering step to happen at
        the given position of the canonically sorted expansion; the result
        must not depend on it, which the identity suites verify.
        """
        if len(triples) < 3:
            raise UnsupportedQueryError("generalized correlators need the stable range (n >= 3)")
        if reduce_at is None:
            return self._sum(beta, triples, self._gen)
        # every expanded core sorts its slots by cotangent power first, so all share these powers
        powers = sorted(d for d, _, _ in triples)
        if not (0 <= reduce_at < len(powers)) or powers[reduce_at] < 1:
            raise ValueError("reduce_at must point at a slot with a positive cotangent power")
        return self._sum(beta, triples, self._gen_apply_relation, reduce_at)

    def modified(
        self,
        beta: CurveClass,
        pairs: Sequence[tuple[int, CohClass]],
        refs: tuple[int, int, int] | None = None,
    ) -> Fraction:
        """Correlator with pulled-back powers only (the modified kind).

        ``refs`` fixes the three marks (i, j, k) of the first boundary splitting, i carrying
        a power.  They are positions in the canonically sorted expansion of each basis core
        (by power, then basis index), not in the caller's ``pairs``: for P2 and
        ``pairs = [(1, h2), (0, h2), (0, h), (0, one)]`` the power carrier is position 3.
        The result must not depend on them.  No ``gwdesc verify`` suite passes ``refs``; the
        check lives in ``tests/test_engine.py`` (``test_modified_reference_choice_is_free``
        and the other ``refs=`` cases there).
        """
        if len(pairs) < 3:
            raise UnsupportedQueryError("modified correlators need at least three marks")
        triples = [(0, e, cls) for e, cls in pairs]
        if refs is None or not any(e for e, _ in pairs):
            return self._sum(beta, triples, self._gen)
        return self._sum(beta, triples, self._modified_core, refs)

    def two_point(self, d: int, x: CohClass, y: CohClass, beta: CurveClass) -> Fraction:
        """Two-point correlator with the cotangent power on the first slot."""
        return self.two_point_general(d, x, 0, y, beta)

    def two_point_general(self, d1: int, x: CohClass, d2: int, y: CohClass, beta: CurveClass) -> Fraction:
        return self._sum(beta, [(d1, 0, x), (d2, 0, y)], self._unstable)

    def primary(self, beta: CurveClass, classes: Sequence[CohClass]) -> Fraction:
        """Primary n-point correlator (n >= 3)."""
        return self.descendant(0, beta, [(0, cls) for cls in classes])

    def one_point(self, d: int, x: CohClass, beta: CurveClass, route: str = "divisor") -> Fraction:
        if route not in ("divisor", "dilaton"):
            raise ValueError("route must be 'divisor' or 'dilaton'")
        return self._sum(beta, [(d, 0, x)], self._unstable, route)

    def zero_point(self, beta: CurveClass, route: str = "divisor") -> Fraction:
        if route not in ("divisor", "dilaton"):
            raise ValueError("route must be 'divisor' or 'dilaton'")
        return self._sum(beta, [], self._unstable, route)

    # ------------------------------------------------------------------
    # relation checks (both sides evaluated independently)

    def check_divisor_relation(
        self, beta: CurveClass, pairs: Sequence[tuple[int, CohClass]]
    ) -> tuple[Fraction, Fraction]:
        """Both sides of the divisor relation for a genus-0 query.

        The relation needs a stable or reducible base: at curve class zero
        the base must have at least three marks, since a two-mark base
        compares a nonempty three-mark space against an empty one.
        """
        beta, gamma0 = tuple(beta), self.gamma0
        lhs = self.descendant(0, beta, [(0, gamma0)] + list(pairs))
        rhs = self.model.beta_pairing(gamma0, beta) * self.descendant(0, beta, list(pairs))
        for slot, (d, cls) in enumerate(pairs):
            if d >= 1:
                lowered = list(pairs)
                lowered[slot] = (d - 1, self.model.cup(gamma0, cls))
                rhs += self.descendant(0, beta, lowered)
        return lhs, rhs

    def check_dilaton_relation(
        self, beta: CurveClass, pairs: Sequence[tuple[int, CohClass]]
    ) -> tuple[Fraction, Fraction]:
        """Both sides of the dilaton relation for a genus-0 query."""
        beta = tuple(beta)
        n = len(pairs)
        lhs = self.descendant(0, beta, [(1, self.model.unit)] + list(pairs))
        # genus zero: the dilaton factor 2g-2+n is n-2
        rhs = Fraction(n - 2) * self.descendant(0, beta, list(pairs))
        return lhs, rhs
