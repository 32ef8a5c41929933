"""Exact coefficient arithmetic: curve classes, truncation, Novikov-type series.

All coefficients this package returns are `fractions.Fraction`; curve
classes are short integer vectors in the effective cone of a rank-m lattice;
a series is a finite map from curve classes to rationals, truncated by a
weighted degree (the pairing with a fixed ample divisor).  No floating point
anywhere.  Inside the engine an integral coefficient may be held as a plain
``int`` (see :func:`narrow`), which equals, hashes and combines with
Fractions exactly as the Fraction would.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as _cartesian
from typing import Iterable, Iterator, Mapping

Rational = Fraction
CurveClass = tuple[int, ...]


class GwdescError(Exception):
    """Base of the package's own errors; each also keeps a builtin base (ValueError, KeyError or RuntimeError)."""


class PolicyMismatchError(GwdescError, ValueError):
    """Combining series that were built over different truncation policies."""


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or "p") into an exact rational."""
    return Fraction(str(text).strip())


def json_int(value, what: str) -> int:
    """An integer field of an input file: a JSON integer only, so a float, a bool or a
    string is a ValueError naming ``what``, never a truncated value."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_int_list(value, what: str) -> list[int]:
    """A list of integers in an input file, by the rule of :func:`json_int`."""
    if not (isinstance(value, list) and all(type(v) is int for v in value)):
        raise ValueError(f"{what} must be a list of integers, got {value!r}")
    return value


def format_rational(value: Fraction) -> str:
    """Render an exact rational as "p/q", or "p" when the denominator is 1."""
    return str(value)


def narrow(value: Fraction) -> int | Fraction:
    """``value`` as an ``int`` when it is integral: the int is equal, hashes the
    same and multiplies and hashes faster, and any sum or product with a
    Fraction is again a Fraction."""
    return value.numerator if value.denominator == 1 else value


def beta_add(a: CurveClass, b: CurveClass) -> CurveClass:
    return tuple(x + y for x, y in zip(a, b))


def beta_is_zero(beta: CurveClass) -> bool:
    return not any(beta)


def beta_splittings(beta: CurveClass) -> Iterator[tuple[CurveClass, CurveClass]]:
    """All ordered decompositions beta = left + right with both effective."""
    for left in _cartesian(*(range(c + 1) for c in beta)):
        yield left, tuple(c - l for c, l in zip(beta, left))


@dataclass(frozen=True)
class TruncationPolicy:
    """Finite working window for all series-level computations.

    ``beta_weights`` records the degree of each lattice generator against the
    model's ample divisor; the degree of a curve class is the weighted
    coordinate sum, which is additive.  Series terms above
    ``max_beta_degree`` are dropped on construction and after every
    operation, so truncation commutes with the ring structure.
    """

    beta_weights: tuple[int, ...]
    max_beta_degree: int
    max_x_degree: int = 0
    max_descendant: int = 0

    def __post_init__(self) -> None:
        if any(w < 1 for w in self.beta_weights):
            raise ValueError("every lattice generator needs ample degree >= 1")
        if min(self.max_beta_degree, self.max_x_degree, self.max_descendant) < 0:
            raise ValueError("truncation bounds must be non-negative")

    @property
    def rank(self) -> int:
        return len(self.beta_weights)

    def zero_beta(self) -> CurveClass:
        return (0,) * self.rank

    def beta_degree(self, beta: CurveClass) -> int:
        if len(beta) != self.rank:
            raise ValueError(f"curve class {beta!r} has wrong rank (expected {self.rank})")
        return sum(w * b for w, b in zip(self.beta_weights, beta))

    def reject_non_effective(self, beta: CurveClass) -> None:
        """For a class outside :attr:`degrees`: raise ValueError when it lies within the
        degree bound, where it can only be non-effective; a class above the bound passes
        (callers drop it)."""
        if self.beta_degree(beta) <= self.max_beta_degree:
            raise ValueError(f"curve class {beta!r} is not effective")

    @cached_property
    def degrees(self) -> dict[CurveClass, int]:
        """The degree of each effective class of the window, formed once per policy
        (cached_property writes past the frozen dataclass's ``__setattr__``)."""
        return {beta: self.beta_degree(beta) for beta in self.iter_effective()}

    def iter_effective(self) -> Iterator[CurveClass]:
        """All effective classes of degree <= max_beta_degree, degree order."""
        found = []
        ranges = (range(self.max_beta_degree // w + 1) for w in self.beta_weights)
        for beta in _cartesian(*ranges):
            d = self.beta_degree(beta)
            if d <= self.max_beta_degree:
                found.append((d, beta))
        found.sort()
        for _, beta in found:
            yield beta


class NovikovSeries:
    """Truncated exact series with one monomial q^beta per effective class.

    Instances are immutable by convention: every operation returns a new
    series, re-truncated against the shared policy.  Zero coefficients are
    never stored.  The public constructor truncates its terms, rejects a
    class that is not effective and coerces the coefficients to Fraction;
    the ring operations, whose terms are already in the window and
    Fractions, build their results through :meth:`_trusted`.
    """

    __slots__ = ("policy", "_terms")

    def __init__(
        self,
        policy: TruncationPolicy,
        terms: Mapping[CurveClass, Fraction] | Iterable[tuple[CurveClass, Fraction]] = (),
    ) -> None:
        self.policy = policy
        acc: dict[CurveClass, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for beta, coeff in items:
            beta = tuple(beta)
            if beta not in policy.degrees:
                policy.reject_non_effective(beta)  # above the window: dropped
                continue
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            if coeff:
                acc[beta] = acc[beta] + coeff if beta in acc else coeff
        self._terms = {b: c for b, c in acc.items() if c}

    @classmethod
    def _trusted(cls, policy: TruncationPolicy, terms: dict[CurveClass, Fraction]) -> NovikovSeries:
        """A series over Fraction terms already inside the window; only zero terms are dropped."""
        series = cls.__new__(cls)
        series.policy = policy
        series._terms = {b: c for b, c in terms.items() if c}
        return series

    @classmethod
    def zero(cls, policy: TruncationPolicy) -> NovikovSeries:
        return cls(policy)

    @classmethod
    def one(cls, policy: TruncationPolicy) -> NovikovSeries:
        return cls(policy, {policy.zero_beta(): Fraction(1)})

    @classmethod
    def monomial(cls, policy: TruncationPolicy, beta: CurveClass, coeff: Fraction | int = 1) -> NovikovSeries:
        return cls(policy, {tuple(beta): Fraction(coeff)})

    def coefficient(self, beta: CurveClass) -> Fraction:
        return self._terms.get(tuple(beta), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.coefficient(self.policy.zero_beta())

    def is_zero(self) -> bool:
        return not self._terms

    def items(self) -> list[tuple[CurveClass, Fraction]]:
        """Terms in canonical order: by degree, then lexicographically."""
        return sorted(self._terms.items(), key=lambda kv: (self.policy.beta_degree(kv[0]), kv[0]))

    def _check_policy(self, other: NovikovSeries) -> None:
        if self.policy is not other.policy and self.policy != other.policy:
            raise PolicyMismatchError("series built over different truncation policies")

    def __add__(self, other: NovikovSeries) -> NovikovSeries:
        if not isinstance(other, NovikovSeries):
            return NotImplemented
        self._check_policy(other)
        acc = dict(self._terms)
        for beta, coeff in other._terms.items():
            acc[beta] = acc[beta] + coeff if beta in acc else coeff
        return NovikovSeries._trusted(self.policy, acc)

    def __neg__(self) -> NovikovSeries:
        return NovikovSeries._trusted(self.policy, {b: -c for b, c in self._terms.items()})

    def __sub__(self, other: NovikovSeries) -> NovikovSeries:
        if not isinstance(other, NovikovSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, NovikovSeries):
            self._check_policy(other)
            bound = self.policy.max_beta_degree
            deg = self.policy.degrees  # every term lies inside the window
            right = [(b2, c2, deg[b2]) for b2, c2 in other._terms.items()]
            acc: dict[CurveClass, Fraction] = {}
            for b1, c1 in self._terms.items():
                room = bound - deg[b1]
                for b2, c2, d2 in right:
                    if d2 > room:
                        continue
                    b = beta_add(b1, b2)
                    acc[b] = acc[b] + c1 * c2 if b in acc else c1 * c2
            return NovikovSeries._trusted(self.policy, acc)
        if isinstance(other, (int, Fraction)):
            # a Fraction times an int is a Fraction, so only the zero terms need dropping
            return NovikovSeries._trusted(self.policy, {b: c * other for b, c in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, beta: CurveClass) -> NovikovSeries:
        """Multiply by the monomial q^beta; the window rule of the constructor applies to beta."""
        beta = tuple(beta)
        deg = self.policy.degrees
        if beta not in deg:
            self.policy.reject_non_effective(beta)
            return NovikovSeries.zero(self.policy)  # above the window
        room = self.policy.max_beta_degree - deg[beta]
        terms = {beta_add(b, beta): c for b, c in self._terms.items() if deg[b] <= room}
        return NovikovSeries._trusted(self.policy, terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NovikovSeries):
            return NotImplemented
        # identity first: the dataclass __eq__ compares field by field
        return (self.policy is other.policy or self.policy == other.policy) and self._terms == other._terms

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for beta, coeff in self.items():
            if beta_is_zero(beta):
                parts.append(format_rational(coeff))
            else:
                parts.append(f"{format_rational(coeff)}·q^{list(beta)}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"NovikovSeries({self})"


def derivative_q(series: NovikovSeries, pairing) -> NovikovSeries:
    """Multiply the q^beta coefficient by pairing(beta)."""
    return NovikovSeries._trusted(series.policy, {b: c * pairing(b) for b, c in series._terms.items()})


def antiderivative_q(series: NovikovSeries, pairing) -> NovikovSeries:
    """Divide the q^beta coefficient by pairing(beta).

    The series must have no constant term, and pairing(beta) must be nonzero
    on every class present (true for any ample divisor pairing).
    """
    acc: dict[CurveClass, Fraction] = {}
    for beta, coeff in series._terms.items():
        if beta_is_zero(beta):
            raise ValueError("antiderivative needs a series with zero constant term")
        p = pairing(beta)
        if p == 0:
            raise ValueError(f"pairing vanishes on the nonzero class {beta!r}; divisor not ample here")
        acc[beta] = coeff / p
    return NovikovSeries._trusted(series.policy, acc)


def _row_reduce(aug: list[list[Fraction]], ncols: int) -> list[tuple[int, int]]:
    """Exact Gauss-Jordan elimination, in place, over the first ncols columns.

    Each pivot row is scaled to a leading 1 and its column cleared in every
    other row; returns the (row, column) pivot positions in order.
    """
    pivots: list[tuple[int, int]] = []
    for col in range(ncols):
        row = len(pivots)
        pivot = next((r for r in range(row, len(aug)) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = aug[row][col]
        aug[row] = [v / inv for v in aug[row]]
        for r in range(len(aug)):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[row])]
        pivots.append((row, col))
    return pivots


def solve_linear(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """One exact solution of matrix·x = rhs, or None when inconsistent.

    Plain fraction Gauss elimination; fine for the tiny systems this package
    meets (Gram matrices, cup-product decompositions).
    """
    n = len(matrix[0]) if matrix else 0
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    pivots = _row_reduce(aug, n)
    if any(row[n] != 0 for row in aug[len(pivots):]):
        return None
    solution = [Fraction(0)] * n
    for r, c in pivots:
        solution[c] = aug[r][n]
    return solution


def invert_matrix(matrix: list[list[Fraction]]) -> list[list[Fraction]] | None:
    """Exact inverse of a square matrix, or None when singular."""
    n = len(matrix)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    if len(_row_reduce(aug, n)) < n:
        return None
    return [row[n:] for row in aug]
