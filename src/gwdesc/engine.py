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
* base cases: the three-point table, constant-map closed forms, and the
  unstable-range reductions (two-, one- and zero-point at nonzero class).

Everything is memoized on canonically sorted keys, so values are
independent of insertion order and of evaluation interleaving.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product as _cartesian
from math import comb
from pathlib import Path
from typing import Iterator, Sequence

from .exact import CurveClass, beta_splittings, format_rational, parse_rational
from .geometry import CohClass, GeometryModel
from .moduli import TautTable, constant_map_correlator


class UnsupportedQueryError(ValueError):
    """Query outside the supported range (positive genus at nonzero class)."""


class ReconstructionError(RuntimeError):
    """An n-point primary value is not reachable from the three-point table."""


class TableFormatError(ValueError):
    """A primary-table record is malformed or violates its invariants."""


Insertion = tuple[int, int, int]  # (d, e, basis index)


class PrimaryTable:
    """Three-point primary values at nonzero curve classes.

    Entries are symmetrized on load and screened against the genus-zero
    dimension constraint; zero-class records and records with an identity
    insertion are rejected (those values are never table data).
    """

    def __init__(self, model: GeometryModel, records: Sequence[tuple[CurveClass, tuple[int, int, int], Fraction]] = ()) -> None:
        self.model = model
        self._table: dict[tuple[CurveClass, tuple[int, int, int]], Fraction] = {}
        for beta, triple, value in records:
            beta = tuple(beta)
            triple = tuple(sorted(triple))
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
            if key in self._table and self._table[key] != value:
                raise TableFormatError(f"conflicting values for {key}")
            if value:
                self._table[key] = value

    def value(self, beta: CurveClass, ia: int, ib: int, ic: int) -> Fraction:
        return self._table.get((tuple(beta), tuple(sorted((ia, ib, ic)))), Fraction(0))

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
        records = []
        for row in rows:
            triple = tuple(model.label_index(label) for label in row["classes"])
            records.append((tuple(int(b) for b in row["beta"]), triple, parse_rational(row["value"])))
        return cls(model, records)

    @classmethod
    def from_file(cls, model: GeometryModel, path: str | Path) -> PrimaryTable:
        with open(path, encoding="utf-8") as handle:
            return cls.from_records(model, json.load(handle))


def _effective(beta: CurveClass) -> CurveClass:
    beta = tuple(beta)
    if any(b < 0 for b in beta):
        raise ValueError("curve classes must be effective")
    return beta


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
        self.use_cache = use_cache
        self.check_dimension = check_dimension
        self.gamma0 = gamma0 if gamma0 is not None else model.ample
        if model.lattice_rank > 0 and model.degree_of(self.gamma0) != 1:
            raise ValueError("the reduction divisor must be a degree-1 class")
        # gamma0 ∪ basis[a] as (coefficient, index) parts: the lowering terms
        self._lowered = [
            self._components(model.cup(self.gamma0, model.basis_class(a))) for a in range(model.rank)
        ]
        self._memo: dict = {}
        self._active: set = set()

    # ------------------------------------------------------------------
    # small helpers

    def _deg(self, idx: int) -> int:
        return self.model.degrees[idx]

    def _c1_beta(self, beta: CurveClass) -> Fraction:
        return self.model.c1_pairing(beta)

    def _gamma0_pairing(self, beta: CurveClass) -> Fraction:
        pairing = self.model.beta_pairing(self.gamma0, beta)
        if pairing == 0:
            raise ValueError(f"reduction divisor pairs to zero with {beta}; not ample there")
        return pairing

    def _duals(self) -> tuple[CohClass, ...]:
        return self.model.dual_bases().delta_dual

    def _memo_get(self, key):
        if self.use_cache:
            return self._memo.get(key)
        return None

    def _memo_put(self, key, value: Fraction) -> Fraction:
        if self.use_cache:
            self._memo[key] = value
        return value

    def clear_cache(self) -> None:
        self._memo.clear()

    def _expand(self, triples: Sequence[tuple[int, int, CohClass]]) -> Iterator[tuple[Fraction, tuple[Insertion, ...]]]:
        """Multilinear expansion of class-valued insertions over the basis."""
        slots = []
        for d, e, cls in triples:
            comps = [(cls.coeffs[idx], (d, e, idx)) for idx in cls.support()]
            if not comps:
                return
            slots.append(comps)
        for combo in _cartesian(*slots):
            coeff = Fraction(1)
            core = []
            for c, ins in combo:
                coeff *= c
                core.append(ins)
            yield coeff, tuple(sorted(core))

    def _components(self, cls: CohClass) -> list[tuple[Fraction, int]]:
        return [(cls.coeffs[idx], idx) for idx in cls.support()]

    def _candidates(self, beta: CurveClass, need: int) -> Sequence[int]:
        """Basis indices a node class at class beta may take: those of degree need + c1·beta."""
        if not self.check_dimension:
            return range(self.model.rank)
        return self.model.basis_of_degree(need + self._c1_beta(beta))

    # ------------------------------------------------------------------
    # base values

    def _primary3(self, beta: CurveClass, triple: tuple[int, int, int]) -> Fraction:
        if not any(beta):
            x = self.model.unit
            for idx in triple:
                x = self.model.cup(x, self.model.basis_class(idx))
            return self.model.integrate(x)
        return self.primary_table.value(beta, *triple)

    # ------------------------------------------------------------------
    # two-point reductions (nonzero class only)

    def _two(self, beta: CurveClass, d1: int, a1: int, d2: int, a2: int) -> Fraction:
        if not any(beta):
            return Fraction(0)
        if (d2, a2) < (d1, a1):
            d1, a1, d2, a2 = d2, a2, d1, a1
        if self.check_dimension:
            need = self.model.dimension + self._c1_beta(beta) - 1
            if d1 + self._deg(a1) + d2 + self._deg(a2) != need:
                return Fraction(0)
        key = ("2", beta, d1, a1, d2, a2)
        cached = self._memo_get(key)
        if cached is not None:
            return cached
        pairing = self._gamma0_pairing(beta)
        three = Fraction(0)
        for cg, gi in self._components(self.gamma0):
            three += cg * self._three_desc(beta, tuple(sorted(((0, gi), (d1, a1), (d2, a2)))))
        lowered = Fraction(0)
        if d1 >= 1:
            for c, idx in self._lowered[a1]:
                lowered += c * self._two(beta, d1 - 1, idx, d2, a2)
        if d2 >= 1:
            for c, idx in self._lowered[a2]:
                lowered += c * self._two(beta, d1, a1, d2 - 1, idx)
        return self._memo_put(key, (three - lowered) / pairing)

    def _two_vs_class(self, beta: CurveClass, d: int, a_idx: int, cls: CohClass) -> Fraction:
        total = Fraction(0)
        for idx in cls.support():
            value = self._two(beta, d, a_idx, 0, idx)
            if value:
                total += cls.coeffs[idx] * value
        return total

    # ------------------------------------------------------------------
    # three-point descendants (dedicated contraction route)

    def _three_desc(self, beta: CurveClass, ins: tuple[tuple[int, int], ...]) -> Fraction:
        """Three-point correlator with descendants via dual-basis contraction."""
        if not any(beta):
            return constant_map_correlator(
                0, [(d, self.model.basis_class(a)) for d, a in ins], self.model, self.taut
            )
        if self.check_dimension:
            need = self.model.dimension + self._c1_beta(beta)
            if sum(d + self._deg(a) for d, a in ins) != need:
                return Fraction(0)
        if all(d == 0 for d, _ in ins):
            return self._primary3(beta, tuple(a for _, a in ins))
        key = ("3", beta, ins)
        cached = self._memo_get(key)
        if cached is not None:
            return cached
        j = next(p for p, (d, _) in enumerate(ins) if d >= 1)
        d_j, a_j = ins[j]
        duals = self._duals()
        need = self.model.dimension - sum(d + self._deg(a) for p, (d, a) in enumerate(ins) if p != j)
        total = Fraction(0)
        for beta1, beta2 in beta_splittings(beta):
            if not any(beta1):
                continue
            for a in self._candidates(beta2, need):
                tp = self._two_vs_class(beta1, d_j - 1, a_j, duals[a])
                if not tp:
                    continue
                replaced = list(ins)
                replaced[j] = (0, a)
                rest = self._three_desc(beta2, tuple(sorted(replaced)))
                if rest:
                    total += tp * rest
        return self._memo_put(key, total)

    # ------------------------------------------------------------------
    # unstable range at nonzero class

    def _one(self, beta: CurveClass, d: int, a: int, route: str = "divisor") -> Fraction:
        if not any(beta):
            return Fraction(0)
        if self.check_dimension:
            if d + self._deg(a) != self.model.dimension + self._c1_beta(beta) - 2:
                return Fraction(0)
        key = ("1", beta, d, a, route)
        cached = self._memo_get(key)
        if cached is not None:
            return cached
        if route == "dilaton":
            # inserting the dilaton class multiplies by 2g-2+n = -1 here
            return self._memo_put(key, -self._two(beta, 1, self.model.unit_index, d, a))
        pairing = self._gamma0_pairing(beta)
        with_divisor = Fraction(0)
        for cg, gi in self._components(self.gamma0):
            with_divisor += cg * self._two(beta, 0, gi, d, a)
        lowered = Fraction(0)
        if d >= 1:
            for c, idx in self._lowered[a]:
                lowered += c * self._one(beta, d - 1, idx, route)
        return self._memo_put(key, (with_divisor - lowered) / pairing)

    def _zero(self, beta: CurveClass, route: str = "divisor") -> Fraction:
        if not any(beta):
            return Fraction(0)
        if self.check_dimension:
            if self.model.dimension + self._c1_beta(beta) - 3 != 0:
                return Fraction(0)
        key = ("0", beta, route)
        cached = self._memo_get(key)
        if cached is not None:
            return cached
        if route == "dilaton":
            # 2g-2+n = -2 for the empty correlator
            value = -self._one(beta, 1, self.model.unit_index, route) / 2
            return self._memo_put(key, value)
        pairing = self._gamma0_pairing(beta)
        total = Fraction(0)
        for cg, gi in self._components(self.gamma0):
            total += cg * self._one(beta, 0, gi, route)
        return self._memo_put(key, total / pairing)

    # ------------------------------------------------------------------
    # generalized correlators (stable range)

    def _dimension_ok(self, beta: CurveClass, ins: tuple[Insertion, ...]) -> bool:
        need = self.model.dimension + self._c1_beta(beta) + len(ins) - 3
        return sum(d + e + self._deg(a) for d, e, a in ins) == need

    def _gen(self, beta: CurveClass, ins: tuple[Insertion, ...]) -> Fraction:
        if self.check_dimension and not self._dimension_ok(beta, ins):
            return Fraction(0)
        key = ("g", beta, ins)
        cached = self._memo_get(key)
        if cached is not None:
            return cached
        if key in self._active:
            raise ReconstructionError(f"reduction cycle at {key}")
        self._active.add(key)
        try:
            j = next((p for p, (d, _, _) in enumerate(ins) if d >= 1), None)
            if j is not None:
                value = self._gen_apply_relation(beta, ins, j)
            elif any(e for _, e, _ in ins):
                value = self._modified_core(beta, ins)
            else:
                value = self._primary(beta, tuple(a for _, _, a in ins))
        finally:
            self._active.discard(key)
        return self._memo_put(key, value)

    def _gen_apply_relation(self, beta: CurveClass, ins: tuple[Insertion, ...], j: int) -> Fraction:
        """One application of the descendant-lowering relation at slot j."""
        d_j, e_j, a_j = ins[j]
        if d_j < 1:
            raise ValueError("the reduction slot must carry a positive cotangent power")
        shifted = list(ins)
        shifted[j] = (d_j - 1, e_j + 1, a_j)
        total = self._gen(beta, tuple(sorted(shifted)))
        duals = self._duals()
        need = self.model.dimension + len(ins) - 3 - e_j
        need -= sum(d + e + self._deg(a) for p, (d, e, a) in enumerate(ins) if p != j)
        for beta1, beta2 in beta_splittings(beta):
            if not any(beta1):
                continue
            for a in self._candidates(beta2, need):
                replaced = list(ins)
                replaced[j] = (0, e_j, a)
                tp = self._two_vs_class(beta1, d_j - 1, a_j, duals[a])
                if not tp:
                    continue
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
    ) -> Fraction:
        n = len(ins)
        if n == 3:
            # the curve moduli with three marks is a point, so any pulled-back
            # power kills the correlator
            return Fraction(0)
        if refs is None:
            i = next(p for p, (_, e, _) in enumerate(ins) if e >= 1)
            j, k = [p for p in range(n) if p != i][:2]
        else:
            i, j, k = refs
            if len({i, j, k}) != 3 or ins[i][1] < 1:
                raise ValueError("refs must be three distinct positions, the first carrying a power")
        _, e_i, a_i = ins[i]
        rest_positions = [p for p in range(n) if p not in (i, j, k)]
        groups: dict[Insertion, int] = {}
        for p in rest_positions:
            groups[ins[p]] = groups.get(ins[p], 0) + 1
        group_items = sorted(groups.items())
        duals = self._duals()
        total = Fraction(0)
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
            need = self.model.dimension + len(side_s) - 2 - sum(d + e + self._deg(a) for d, e, a in side_s)
            for beta1, beta2 in beta_splittings(beta):
                for a in self._candidates(beta1, need):
                    left = self._gen(beta1, tuple(sorted(side_s + [(0, 0, a)])))
                    if not left:
                        continue
                    right = Fraction(0)
                    dual = duals[a]
                    for b in dual.support():
                        piece = self._gen(beta2, tuple(sorted(side_c + [(0, 0, b)])))
                        if piece:
                            right += dual.coeffs[b] * piece
                    if right:
                        total += mult * left * right
        return total

    # ------------------------------------------------------------------
    # n-point primaries from the three-point table

    def _primary(self, beta: CurveClass, classes: tuple[int, ...]) -> Fraction:
        n = len(classes)
        if not any(beta):
            if n == 3:
                return self._primary3(beta, classes)
            return Fraction(0)
        if n == 3:
            return self._primary3(beta, classes)
        degrees = [self._deg(a) for a in classes]
        if 0 in degrees:
            # identity insertions kill stable primaries at nonzero classes
            return Fraction(0)
        if 1 in degrees:
            slot = degrees.index(1)
            row = self.model.pairing_row(classes[slot])
            pairing = Fraction(sum(r * b for r, b in zip(row, beta)))
            rest = classes[:slot] + classes[slot + 1 :]
            return pairing * self._gen(beta, tuple((0, 0, a) for a in rest))
        target = classes[0]
        decomp = self.model.divisor_decomposition(target)
        if decomp is None:
            raise ReconstructionError(
                f"cannot decompose {self.model.labels[target]!r} into divisor cup products; "
                "n-point primaries need divisor-generated cohomology"
            )
        rest = tuple((0, 0, a) for a in classes[1:])
        total = Fraction(0)
        for coeff, d_idx, x_idx in decomp:
            with_divisor = self._gen(beta, tuple(sorted(((0, 0, d_idx), (1, 0, x_idx)) + rest)))
            row = self.model.pairing_row(d_idx)
            pairing = Fraction(sum(r * b for r, b in zip(row, beta)))
            without = self._gen(beta, tuple(sorted(((1, 0, x_idx),) + rest)))
            total += coeff * (with_divisor - pairing * without)
        return total

    # ------------------------------------------------------------------
    # the one multilinear entry: every public correlator sums over the basis here

    def _sum(self, beta: CurveClass, triples: Sequence[tuple[int, int, CohClass]], value, *args) -> Fraction:
        """Sum ``value(beta, core, *args)`` over the basis expansion of the insertions."""
        beta = _effective(beta)
        total = Fraction(0)
        for coeff, core in self._expand(triples):
            term = value(beta, core, *args)
            if term:
                total += coeff * term
        return total

    def _gen_at(self, beta: CurveClass, core: tuple[Insertion, ...], reduce_at: int | None) -> Fraction:
        if reduce_at is None:
            return self._gen(beta, core)
        if not (0 <= reduce_at < len(core)) or core[reduce_at][0] < 1:
            raise ValueError("reduce_at must point at a slot with a positive cotangent power")
        if self.check_dimension and not self._dimension_ok(beta, core):
            return Fraction(0)
        return self._gen_apply_relation(beta, core, reduce_at)

    def _modified_at(self, beta: CurveClass, core: tuple[Insertion, ...], refs) -> Fraction:
        if refs is None or not any(e for _, e, _ in core):
            return self._gen(beta, core)
        if self.check_dimension and not self._dimension_ok(beta, core):
            return Fraction(0)
        return self._modified_core(beta, core, refs=refs)

    def _three_at(self, beta: CurveClass, core: tuple[Insertion, ...]) -> Fraction:
        return self._three_desc(beta, tuple((d, a) for d, _, a in core))

    def _primary3_at(self, beta: CurveClass, core: tuple[Insertion, ...]) -> Fraction:
        return self._primary3(beta, tuple(a for _, _, a in core))

    def _two_at(self, beta: CurveClass, core: tuple[Insertion, ...]) -> Fraction:
        (d1, _, a1), (d2, _, a2) = core
        return self._two(beta, d1, a1, d2, a2)

    def _one_at(self, beta: CurveClass, core: tuple[Insertion, ...], route: str) -> Fraction:
        ((d, _, a),) = core
        return self._one(beta, d, a, route)

    def _zero_at(self, beta: CurveClass, core: tuple[Insertion, ...], route: str) -> Fraction:
        return self._zero(beta, route)

    # ------------------------------------------------------------------
    # public interface (class-valued, multilinear)

    def descendant(self, g: int, beta: CurveClass, pairs: Sequence[tuple[int, CohClass]]) -> Fraction:
        """Conventional descendant correlator, dispatching on (g, beta, n)."""
        beta = _effective(beta)
        if g >= 1:
            if any(beta):
                raise UnsupportedQueryError(
                    "out of scope: positive genus needs curve class zero here"
                )
            return constant_map_correlator(g, list(pairs), self.model, self.taut)
        if not any(beta):
            return constant_map_correlator(0, list(pairs), self.model, self.taut)
        n = len(pairs)
        if n >= 3:
            return self._sum(beta, [(d, 0, cls) for d, cls in pairs], self._gen)
        if n == 2:
            (d1, x), (d2, y) = pairs
            return self.two_point_general(d1, x, d2, y, beta)
        if n == 1:
            (d, x) = pairs[0]
            return self.one_point(d, x, beta)
        return self.zero_point(beta)

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
        return self._sum(beta, triples, self._gen_at, reduce_at)

    def modified(
        self,
        beta: CurveClass,
        pairs: Sequence[tuple[int, CohClass]],
        refs: tuple[int, int, int] | None = None,
    ) -> Fraction:
        """Correlator with pulled-back powers only (the modified kind)."""
        if len(pairs) < 3:
            raise UnsupportedQueryError("modified correlators need at least three marks")
        return self._sum(beta, [(0, e, cls) for e, cls in pairs], self._modified_at, refs)

    def three_point_descendant(self, beta: CurveClass, pairs: Sequence[tuple[int, CohClass]]) -> Fraction:
        """Three-point descendant correlator by the contraction recursion."""
        if len(pairs) != 3:
            raise ValueError("exactly three insertions required")
        return self._sum(beta, [(d, 0, cls) for d, cls in pairs], self._three_at)

    def two_point(self, d: int, x: CohClass, y: CohClass, beta: CurveClass) -> Fraction:
        """Two-point correlator with the cotangent power on the first slot."""
        return self.two_point_general(d, x, 0, y, beta)

    def two_point_general(self, d1: int, x: CohClass, d2: int, y: CohClass, beta: CurveClass) -> Fraction:
        return self._sum(beta, [(d1, 0, x), (d2, 0, y)], self._two_at)

    def primary3(self, beta: CurveClass, x: CohClass, y: CohClass, z: CohClass) -> Fraction:
        return self._sum(beta, [(0, 0, x), (0, 0, y), (0, 0, z)], self._primary3_at)

    def primary(self, beta: CurveClass, classes: Sequence[CohClass]) -> Fraction:
        """Primary n-point correlator (n >= 3)."""
        return self.descendant(0, beta, [(0, cls) for cls in classes])

    def one_point(self, d: int, x: CohClass, beta: CurveClass, route: str = "divisor") -> Fraction:
        if route not in ("divisor", "dilaton"):
            raise ValueError("route must be 'divisor' or 'dilaton'")
        return self._sum(beta, [(d, 0, x)], self._one_at, route)

    def zero_point(self, beta: CurveClass, route: str = "divisor") -> Fraction:
        if route not in ("divisor", "dilaton"):
            raise ValueError("route must be 'divisor' or 'dilaton'")
        return self._sum(beta, [], self._zero_at, route)

    # ------------------------------------------------------------------
    # relation checks (both sides evaluated independently)

    def check_divisor_relation(
        self,
        beta: CurveClass,
        pairs: Sequence[tuple[int, CohClass]],
        gamma0: CohClass | None = None,
    ) -> tuple[Fraction, Fraction]:
        """Both sides of the divisor relation for a genus-0 query.

        The relation needs a stable or reducible base: at curve class zero
        the base must have at least three marks, since a two-mark base
        compares a nonempty three-mark space against an empty one.
        """
        beta = tuple(beta)
        gamma0 = gamma0 if gamma0 is not None else self.gamma0
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
