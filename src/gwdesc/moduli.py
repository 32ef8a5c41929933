"""Intersection numbers on moduli of stable curves and constant-map correlators.

Genus zero has a closed multinomial form for pure cotangent-power integrals;
genus one reduces to tangent-bundle Chern data paired with injected psi and
lambda-psi integrals; higher genus runs the full Chern-root expansion of the
obstruction bundle against an injected table of tautological integrals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import factorial
from pathlib import Path
from typing import Sequence

from .exact import GwdescError, format_rational, json_int, json_int_list, parse_rational
from .geometry import CohClass, GeometryModel


class TautTableError(GwdescError, KeyError):
    """A tautological integral needed for a non-vanishing term is missing."""

    def __str__(self) -> str:
        # KeyError's str() is the repr of its key; this error carries a message
        return Exception.__str__(self)


def psi_integral_genus0(exponents: Sequence[int]) -> Fraction:
    """Integral of a cotangent-power monomial over genus-0 stable curves.

    Vanishes unless the exponents sum to n-3; otherwise equals the
    multinomial coefficient (sum d_i)! / prod d_i!.
    """
    n = len(exponents)
    if n < 3:
        raise ValueError("genus-0 moduli need at least three marked points")
    if any(d < 0 for d in exponents):
        raise ValueError("exponents must be non-negative")
    total = sum(exponents)
    if total != n - 3:
        return Fraction(0)
    value = factorial(total)
    for d in exponents:
        value //= factorial(d)
    return Fraction(value)


def psi_boundary_partitions(i: int, j: int, k: int, n: int) -> list[tuple[int, ...]]:
    """Mark subsets S expanding the i-th cotangent class into boundary divisors.

    On the genus-0 moduli with marks 1..n, the cotangent class at mark i is
    the sum of the boundary divisors separating i from two chosen reference
    marks j and k; the admissible subsets contain i, avoid j and k, and have
    between 2 and n-2 elements so both sides stay stable.
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


@dataclass(frozen=True)
class TautRecord:
    g: int
    n: int
    psi: tuple[int, ...]
    lambdas: tuple[int, ...]
    value: Fraction


class TautTable:
    """Injected tautological integrals for genus >= 1 moduli of curves.

    Keys are (g, n, sorted psi exponents, sorted lambda indices); the psi
    exponent vector is stored sorted because the integrals are symmetric
    under relabeling the marks.
    """

    def __init__(self, records: Sequence[TautRecord] = ()) -> None:
        self._table: dict[tuple[int, int, tuple[int, ...], tuple[int, ...]], Fraction] = {}
        for rec in records:
            if rec.g < 1:
                raise ValueError("tautological tables hold genus >= 1 entries only")
            dim = 3 * rec.g - 3 + rec.n
            if sum(rec.psi) + sum(rec.lambdas) != dim:
                raise ValueError(f"entry {rec} does not match the moduli dimension {dim}")
            key = self._key(rec.g, rec.n, rec.psi, rec.lambdas)
            if key in self._table and self._table[key] != rec.value:
                raise ValueError(f"conflicting values for {key}")
            self._table[key] = rec.value

    @staticmethod
    def _key(g: int, n: int, psi: Sequence[int], lambdas: Sequence[int]):
        return (g, n, tuple(sorted(psi, reverse=True)), tuple(sorted(lambdas)))

    def lookup(self, g: int, n: int, psi: Sequence[int], lambdas: Sequence[int]) -> Fraction:
        if sum(psi) + sum(lambdas) != 3 * g - 3 + n:
            return Fraction(0)
        key = self._key(g, n, psi, lambdas)
        if key not in self._table:
            raise TautTableError(
                f"table incomplete: need integral g={g} n={n} psi={list(key[2])} lambda={list(key[3])}"
            )
        return self._table[key]

    def records(self) -> list[TautRecord]:
        return [
            TautRecord(g, n, psi, lams, value)
            for (g, n, psi, lams), value in sorted(self._table.items())
        ]

    @classmethod
    def from_records(cls, rows: Sequence[dict]) -> TautTable:
        if not isinstance(rows, list):
            raise ValueError(f"a tautological table is a list of records, not {type(rows).__name__}")
        records = []
        for row in rows:
            if not isinstance(row, dict) or not {"g", "n", "psi", "lambda", "value"} <= row.keys():
                raise ValueError(f"tautological record {row!r}: a record is an object with g, n, psi, lambda and value")
            try:
                records.append(
                    TautRecord(
                        g=json_int(row["g"], "g"),
                        n=json_int(row["n"], "n"),
                        psi=tuple(json_int_list(row["psi"], "psi")),
                        lambdas=tuple(json_int_list(row["lambda"], "lambda")),
                        value=parse_rational(row["value"]),
                    )
                )
            except (TypeError, ValueError) as exc:
                raise ValueError(f"tautological record {row!r}: {exc}") from exc
        return cls(records)

    @classmethod
    def from_file(cls, path: str | Path) -> TautTable:
        with open(path, encoding="utf-8") as handle:
            return cls.from_records(json.load(handle))

    def to_records(self) -> list[dict]:
        return [
            {
                "g": rec.g,
                "n": rec.n,
                "psi": list(rec.psi),
                "lambda": list(rec.lambdas),
                "value": format_rational(rec.value),
            }
            for rec in self.records()
        ]


def constant_map_correlator(
    g: int,
    insertions: Sequence[tuple[int, CohClass]],
    model: GeometryModel,
    table: TautTable | None = None,
) -> Fraction:
    """Descendant correlator of constant maps (curve class zero).

    The moduli of constant maps is the product of the curve moduli with the
    target, virtually cut by the top Chern class of the obstruction bundle.
    Genus zero has the closed multinomial form; genus one keeps the two
    surviving terms of the obstruction expansion; higher genus feeds the
    full Chern-root expansion with tautological integrals from the injected
    table.  Queries outside the dimension constraints return exactly zero.

    Once every insertion is homogeneous, the dimension constraints are
    screened on the integer degrees before any cup product is formed.  The
    screen gives the same value as cupping first on any model that passes
    ``validate()``: by ``cup-graded`` the product of the insertions is zero
    or homogeneous of the summed degree, by ``degrees-in-range`` it is zero
    when that degree exceeds the dimension, and by ``integral-top-degree``
    it integrates to zero off the top degree.
    """
    if g < 0:
        raise ValueError("genus must be non-negative")
    exponents = [d for d, _ in insertions]
    if any(d < 0 for d in exponents):
        raise ValueError("descendant exponents must be non-negative")

    # multilinearity: split any mixed-degree insertion into its homogeneous
    # components, one per degree, so that terms of one degree still cancel
    degrees: list[int] = []
    for slot, (d, cls) in enumerate(insertions):
        if cls.is_zero():
            return Fraction(0)
        degree = model.degree_of(cls)
        if degree is None:
            total = Fraction(0)
            for part_degree in sorted({model.degrees[idx] for idx in cls.support()}):
                part = CohClass(
                    tuple(c if model.degrees[i] == part_degree else Fraction(0) for i, c in enumerate(cls.coeffs))
                )
                rest = list(insertions)
                rest[slot] = (d, part)
                total += constant_map_correlator(g, rest, model, table)
            return total
        degrees.append(degree)

    n = len(insertions)
    delta = model.dimension
    if g == 0:
        if n < 3 or sum(exponents) != n - 3 or sum(degrees) != delta:
            return Fraction(0)
        return _constant_maps_genus0(insertions, model)
    if g == 1:
        return _constant_maps_genus1(insertions, degrees, model, table)
    if delta >= 4 or sum(degrees) > delta or sum(exponents) + sum(degrees) != (g - 1) * (3 - delta) + n:
        return Fraction(0)
    return _constant_maps_higher(g, insertions, model, table)


def _cup_all(insertions, model: GeometryModel) -> CohClass:
    product = model.unit
    for _, cls in insertions:
        product = model.cup(product, cls)
    return product


def _constant_maps_genus0(insertions, model: GeometryModel) -> Fraction:
    """Genus-0 value of a pattern that passed the degree screen."""
    value = model.integrate(_cup_all(insertions, model))
    if not value:
        return Fraction(0)
    return psi_integral_genus0([d for d, _ in insertions]) * value


def _constant_maps_genus1(insertions, degrees: list[int], model: GeometryModel, table: TautTable | None) -> Fraction:
    n = len(insertions)
    if n < 1:
        return Fraction(0)
    delta = model.dimension
    exponents = [d for d, _ in insertions]
    unit_idx = model.unit_index
    total = Fraction(0)

    if sum(exponents) == n and all(deg == 0 for deg in degrees):
        scale = Fraction(1)
        for _, cls in insertions:
            scale *= cls.coeffs[unit_idx]
        euler = model.integrate(model.chern[delta])
        if scale and euler:
            if table is None:
                raise TautTableError("table incomplete: genus-1 psi integrals required")
            total += scale * euler * table.lookup(1, n, exponents, ())

    if delta >= 1 and sum(exponents) == n - 1 and degrees.count(1) == 1 and degrees.count(0) == n - 1:
        slot = degrees.index(1)
        scale = Fraction(1)
        for other, (_, cls) in enumerate(insertions):
            if other != slot:
                scale *= cls.coeffs[unit_idx]
        pairing = model.integrate(model.cup(model.chern[delta - 1], insertions[slot][1]))
        if scale and pairing:
            if table is None:
                raise TautTableError("table incomplete: genus-1 lambda-psi integrals required")
            total -= scale * pairing * table.lookup(1, n, exponents, (1,))

    return total


def _constant_maps_higher(g: int, insertions, model: GeometryModel, table: TautTable | None) -> Fraction:
    """Genus >= 2 value of a pattern that passed the degree screen."""
    delta = model.dimension
    n = len(insertions)
    exponents = [d for d, _ in insertions]
    product = _cup_all(insertions, model)
    if product.is_zero():
        return Fraction(0)

    total = Fraction(0)
    for tup in combinations_with_replacement(range(g + 1), delta):
        target = model.chern_symmetric(tup, g)
        target_value = model.integrate(model.cup(target, product))
        if not target_value:
            continue
        lambdas = tuple(i for i in tup if i)
        if table is None:
            raise TautTableError(
                f"table incomplete: need integral g={g} n={n} "
                f"psi={sorted(exponents, reverse=True)} lambda={list(lambdas)}"
            )
        moduli_value = table.lookup(g, n, exponents, lambdas)
        if moduli_value:
            total += moduli_value * target_value
    return Fraction((-1) ** (g * delta)) * total
