"""Exact coefficient arithmetic: curve classes, truncation, Novikov-type series.

All coefficients this package returns are `fractions.Fraction`; curve
classes are short integer vectors in the effective cone of a rank-m lattice;
a series is a finite map from curve classes to rationals, truncated by a
weighted degree (the pairing with a fixed ample divisor).  No floating point
anywhere.  Inside a layer an exact rational is kept as a plain ``int`` where
it can be, and a Fraction is built only where a value leaves the layer: the
engine memoizes an integral value as an ``int`` (see :func:`narrow`), which
equals, hashes and combines with Fractions exactly as the Fraction would,
and a potential (``phase.PotentialSeries``) holds int numerators over one
shared denominator.  A quotient of two ints is never ``/`` (a float): it is
``Fraction(numerator, denominator)``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product as _cartesian
from typing import Iterable, Iterator, Mapping, Sequence

CurveClass = tuple[int, ...]


class GwdescError(Exception):
    """Base of the package's own errors; each also keeps a builtin base (ValueError, KeyError or RuntimeError)."""


class PolicyMismatchError(GwdescError, ValueError):
    """Combining series that were built over different truncation policies."""


class RationalFormatError(GwdescError, ValueError):
    """An input text is not a rational "p/q" (or "p") with q nonzero."""


class TableFormatError(GwdescError, ValueError):
    """A primary or tautological table record is malformed or violates its invariants."""


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or "p") into an exact rational; a zero q is a RationalFormatError."""
    try:
        return Fraction(str(text).strip())
    except ZeroDivisionError:
        raise RationalFormatError(f"rational {text!r} has a zero denominator") from None


def json_int(value, what: str) -> int:
    """An integer field of an input file: a JSON integer only, so a float, a bool or a
    string is a ValueError naming ``what``, never a truncated value."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_rational(value, what: str) -> Fraction:
    """A rational field of an input file: a string "p/q" (or "p") or a JSON integer, so a
    float or a bool is a ValueError naming ``what``, never the rational of its decimal repr."""
    if type(value) is int:
        return Fraction(value)
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a rational string \"p/q\" or an integer, got {value!r}")
    return parse_rational(value)


def json_int_list(value, what: str) -> list[int]:
    """A list of integers in an input file, by the rule of :func:`json_int`."""
    if not (isinstance(value, list) and all(type(v) is int for v in value)):
        raise ValueError(f"{what} must be a list of integers, got {value!r}")
    return value


def json_object(value, what: str) -> dict:
    """An object field of an input file, by the rule of :func:`json_int`: a list or a
    string is a ValueError naming ``what``."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, got {value!r}")
    return value


def is_exact(value) -> bool:
    """Whether a Python number is taken as an exact rational: an int or a Fraction.  A bool
    is not (``True`` is no coefficient), nor a float, whose binary value is not its decimal."""
    return type(value) is int or isinstance(value, Fraction)


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


class _Frozen:
    """Base of the frozen value classes: ``__init__`` writes the fields to ``__dict__``,
    and assigning or deleting an attribute afterwards raises AttributeError.  A
    ``cached_property`` still fills in, since it writes to ``__dict__`` too, and copy
    and pickle restore ``__dict__`` the same way."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _slots_repr(self) -> str:
    """The ``Name(field=value, ...)`` repr over the fields in ``__slots__``."""
    return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self.__slots__)})"


class TruncationPolicy(_Frozen):
    """Finite working window for all series-level computations.

    ``beta_weights`` records the degree of each lattice generator against the
    model's ample divisor; the degree of a curve class is the weighted
    coordinate sum, which is additive.  Series terms above
    ``max_beta_degree`` are dropped on construction and after every
    operation, so truncation commutes with the ring structure.  A policy is
    a frozen value that equals and hashes as the tuple of its four fields.
    """

    def __init__(
        self, beta_weights: Sequence[int], max_beta_degree: int, max_x_degree: int = 0, max_descendant: int = 0
    ) -> None:
        beta_weights = tuple(beta_weights)  # a list would neither hash nor equal its tuple
        if any(w < 1 for w in beta_weights):
            raise ValueError("every lattice generator needs ample degree >= 1")
        if min(max_beta_degree, max_x_degree, max_descendant) < 0:
            raise ValueError("truncation bounds must be non-negative")
        self.__dict__.update(
            beta_weights=beta_weights,
            max_beta_degree=max_beta_degree,
            max_x_degree=max_x_degree,
            max_descendant=max_descendant,
        )

    def _fields(self) -> tuple:
        return (self.beta_weights, self.max_beta_degree, self.max_x_degree, self.max_descendant)

    def __eq__(self, other) -> bool:
        if other is self:  # the common case: series of one window share its policy
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"TruncationPolicy(beta_weights={self.beta_weights!r}, max_beta_degree={self.max_beta_degree!r}, "
            f"max_x_degree={self.max_x_degree!r}, max_descendant={self.max_descendant!r})"
        )

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
        """The degree of each effective class of the window, in degree order and then
        lexicographically, formed once per policy (cached_property writes to ``__dict__``,
        past the frozen ``__setattr__``)."""
        ranges = (range(self.max_beta_degree // w + 1) for w in self.beta_weights)
        found = sorted((self.beta_degree(beta), beta) for beta in _cartesian(*ranges))
        return {beta: d for d, beta in found if d <= self.max_beta_degree}

    @cached_property
    def sums(self) -> dict[CurveClass, dict[CurveClass, CurveClass]]:
        """For each class b1 of the window, the map b2 -> b1 + b2 over the classes b2 whose
        sum with b1 stays within the degree bound, formed once per policy like :attr:`degrees`."""
        bound = self.max_beta_degree
        return {
            b1: {b2: beta_add(b1, b2) for b2, d2 in self.degrees.items() if d1 + d2 <= bound}
            for b1, d1 in self.degrees.items()
        }

    def iter_effective(self) -> Iterator[CurveClass]:
        """All effective classes of degree <= max_beta_degree, in the order of :attr:`degrees`."""
        return iter(self.degrees)


class NovikovSeries:
    """Truncated exact series with one monomial q^beta per effective class.

    Instances are immutable by convention: every operation returns a new
    series, re-truncated against the shared policy.  Zero coefficients are
    never stored.  The public constructor truncates its terms, rejects a
    class that is not effective and turns int coefficients into Fractions
    (any other coefficient is a TypeError);
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
                if not is_exact(coeff):
                    raise TypeError(f"series coefficient must be an int or a Fraction, got {coeff!r}")
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
        return cls(policy, {tuple(beta): coeff})

    def coefficient(self, beta: CurveClass) -> Fraction:
        return self._terms.get(tuple(beta), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def items(self) -> list[tuple[CurveClass, Fraction]]:
        """Terms in canonical order: by degree, then lexicographically, which is the
        order of the window :attr:`TruncationPolicy.degrees` that holds every term."""
        terms = self._terms
        return [(beta, terms[beta]) for beta in self.policy.degrees if beta in terms]

    def _check_policy(self, other: NovikovSeries) -> None:
        if self.policy != other.policy:
            raise PolicyMismatchError("series built over different truncation policies")

    def __add__(self, other: NovikovSeries) -> NovikovSeries:
        if not isinstance(other, NovikovSeries):
            return NotImplemented
        self._check_policy(other)
        acc = dict(self._terms)
        _accumulate(acc, other._terms)
        return NovikovSeries._trusted(self.policy, acc)

    def __neg__(self) -> NovikovSeries:
        return NovikovSeries._trusted(self.policy, {b: -c for b, c in self._terms.items()})

    def __sub__(self, other: NovikovSeries) -> NovikovSeries:
        if not isinstance(other, NovikovSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        acc: dict[CurveClass, Fraction] = {}
        if isinstance(other, NovikovSeries):
            self._check_policy(other)
            _accumulate_product(acc, self.policy.sums, self._terms, other._terms)
        elif isinstance(other, (int, Fraction)):
            # a Fraction times an int is a Fraction, so only the zero terms need dropping
            _accumulate(acc, self._terms, other)
        else:
            return NotImplemented
        return NovikovSeries._trusted(self.policy, acc)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, NovikovSeries):
            return NotImplemented
        return self.policy == other.policy and self._terms == other._terms

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


def _accumulate(acc: dict[CurveClass, Fraction], terms: Mapping[CurveClass, Fraction], scale=1) -> None:
    """Add ``scale`` times ``terms`` into the raw dict ``acc``, in place; a zero sum stays
    stored until the caller wraps ``acc`` (see :meth:`NovikovSeries._trusted`).  ``acc``
    must be the caller's own dict, never the terms of a series."""
    if scale == 1:
        for beta, coeff in terms.items():
            acc[beta] = acc[beta] + coeff if beta in acc else coeff
    else:
        for beta, coeff in terms.items():
            coeff = coeff * scale
            acc[beta] = acc[beta] + coeff if beta in acc else coeff


def _accumulate_product(
    acc: dict[CurveClass, Fraction],
    sums: dict[CurveClass, dict[CurveClass, CurveClass]],
    left: Mapping[CurveClass, Fraction],
    right: Mapping[CurveClass, Fraction],
) -> None:
    """Add the product ``left`` * ``right``, truncated through the policy's table
    :attr:`TruncationPolicy.sums`, into the raw dict ``acc``, in place, by the rule of
    :func:`_accumulate`; both factors must lie inside the window."""
    for b1, c1 in left.items():
        row = sums[b1]
        for b2, c2 in right.items():
            beta = row.get(b2)
            if beta is not None:
                coeff = c1 * c2
                acc[beta] = acc[beta] + coeff if beta in acc else coeff


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
