"""Intersection numbers on moduli of stable curves and constant-map correlators.

Genus zero has a closed multinomial form for pure cotangent-power integrals.
At every genus a constant-map correlator is one Chern-root expansion of the
obstruction bundle: each root tuple pairs a target Chern class with the
insertions' product, times a psi-lambda integral over the curve moduli taken
from the closed form at genus 0 and from an injected table above it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial
from pathlib import Path
from typing import Sequence

from .exact import GwdescError, TableFormatError, _slots_repr, is_exact, json_int, json_int_list, json_rational
from .geometry import CohClass, GeometryModel


# the value of every query the dimension screen rules out; a Fraction is immutable,
# so callers share it
_ZERO = Fraction(0)


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


class TautRecord:
    __slots__ = ("g", "n", "psi", "lambdas", "value")

    def __init__(self, g: int, n: int, psi: tuple[int, ...], lambdas: tuple[int, ...], value: Fraction) -> None:
        self.g, self.n, self.psi, self.lambdas, self.value = g, n, psi, lambdas, value

    __repr__ = _slots_repr  # a table error prints the record


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
                raise TableFormatError("tautological tables hold genus >= 1 entries only")
            dim = 3 * rec.g - 3 + rec.n
            if sum(rec.psi) + sum(rec.lambdas) != dim:
                raise TableFormatError(f"entry {rec} does not match the moduli dimension {dim}")
            value = rec.value
            if type(value) is not Fraction:
                if not is_exact(value):
                    raise TableFormatError(f"entry {rec}: value must be an int or a Fraction")
                value = Fraction(value)
            key = self._key(rec.g, rec.n, rec.psi, rec.lambdas)
            if key in self._table and self._table[key] != value:
                raise TableFormatError(f"conflicting values for {key}")
            self._table[key] = value

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

    @classmethod
    def from_records(cls, rows: Sequence[dict]) -> TautTable:
        if not isinstance(rows, list):
            raise TableFormatError(f"a tautological table is a list of records, not {type(rows).__name__}")
        records = []
        for row in rows:
            if not isinstance(row, dict) or not {"g", "n", "psi", "lambda", "value"} <= row.keys():
                raise TableFormatError(
                    f"tautological record {row!r}: a record is an object with g, n, psi, lambda and value"
                )
            try:
                records.append(
                    TautRecord(
                        g=json_int(row["g"], "g"),
                        n=json_int(row["n"], "n"),
                        psi=tuple(json_int_list(row["psi"], "psi")),
                        lambdas=tuple(json_int_list(row["lambda"], "lambda")),
                        value=json_rational(row["value"], "value"),
                    )
                )
            except (TypeError, ValueError) as exc:
                raise TableFormatError(f"tautological record {row!r}: {exc}") from exc
        return cls(records)

    @classmethod
    def from_file(cls, path: str | Path) -> TautTable:
        with open(path, encoding="utf-8") as handle:
            return cls.from_records(json.load(handle))


def constant_map_correlator(
    g: int,
    insertions: Sequence[tuple[int, CohClass]],
    model: GeometryModel,
    table: TautTable | None = None,
) -> Fraction:
    """Descendant correlator of constant maps (curve class zero).

    The moduli of constant maps is the product of the curve moduli with the
    target, virtually cut by the top Chern class of the obstruction bundle
    E^∨ ⊠ T_X, of rank g·dim.  One Chern-root expansion of that class serves
    every genus: at genus 0 the bundle has rank 0 and the one term is the
    closed multinomial form; at genus 1 the screen leaves only the lambda-free
    and the single-lambda_1 terms; above, the tautological integrals come
    from the injected table.  Queries outside the dimension constraints
    return exactly zero.

    The dimension constraints are screened in two halves before any cup
    product is formed.  The exponent half runs first and reads no class: it
    returns zero when the descendant exponents alone rule the pattern out,
    whatever the classes' degrees (which are >= 0).  The degree half runs on
    the integer degrees; a zero insertion returns zero, and a mixed one skips
    it, since the cup-first expansion is multilinear.  The screen gives the
    same value as cupping first on any model that passes ``validate()``: by
    ``cup-graded`` the product of the insertions is zero or homogeneous of the
    summed degree, by ``degrees-in-range`` it is zero when that degree exceeds
    the dimension, and by ``integral-top-degree`` it integrates to zero off the
    top degree.
    """
    if g < 0:
        raise ValueError("genus must be non-negative")

    # exponent half of the screen: no choice of classes meets these counts; a
    # negative exponent raises before any pattern is screened out
    exponent_sum = 0
    for d, _ in insertions:
        if d < 0:
            raise ValueError("descendant exponents must be non-negative")
        exponent_sum += d
    n = len(insertions)
    delta = model.dimension
    if g == 0:
        if n < 3 or exponent_sum != n - 3:
            return _ZERO
    elif g == 1:
        if n < 1 or exponent_sum not in (n, n - 1):
            return _ZERO
    elif delta >= 4 or exponent_sum > (g - 1) * (3 - delta) + n:
        return _ZERO

    # degree half of the screen; degree_of is None only for a zero or a mixed class
    degree_sum = 0
    mixed = False
    for _, cls in insertions:
        degree = model.degree_of(cls)
        if degree is not None:
            degree_sum += degree
        elif cls.is_zero():
            return _ZERO
        else:
            mixed = True
    if not mixed and (degree_sum > delta or exponent_sum + degree_sum != (g - 1) * (3 - delta) + n):
        return _ZERO
    return _constant_maps(g, insertions, model, table)


_NO_TABLE = TautTable()


def _constant_maps(g: int, insertions, model: GeometryModel, table: TautTable | None) -> Fraction:
    """Chern-root expansion of a pattern that passed the degree screen: per root
    tuple, the target integral of its Chern class against the insertions'
    product times the psi-lambda integral over the curve moduli."""
    product = model.unit
    for _, cls in insertions:
        product = model.cup(product, cls)
    if product.is_zero():
        return Fraction(0)

    delta = model.dimension
    n = len(insertions)
    exponents = [d for d, _ in insertions]
    total = Fraction(0)
    for tup in combinations_with_replacement(range(g + 1), delta):
        target_value = model.integrate(model.cup(model.chern_symmetric(tup, g), product))
        if not target_value:
            continue
        lambdas = tuple(i for i in tup if i)
        if g == 0:
            moduli_value = psi_integral_genus0(exponents)
        else:  # no table reads as an empty one, which names the missing integral
            moduli_value = (_NO_TABLE if table is None else table).lookup(g, n, exponents, lambdas)
        total += moduli_value * target_value
    return Fraction((-1) ** (g * delta)) * total
