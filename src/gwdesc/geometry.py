"""Target geometry input: graded basis, cup product, pairing, Chern data.

A :class:`GeometryModel` is the finite input datum the whole package runs
on: an ordered cohomology basis with complex-unit degrees, exact structure
constants for the cup product, the integration functional on top degree, a
curve-class lattice with its divisor pairing, a designated ample divisor,
and the Chern classes of the tangent bundle.  Only even cohomology is
supported, so no sign bookkeeping is needed anywhere.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, permutations
from pathlib import Path

from .exact import (
    CurveClass,
    GwdescError,
    TruncationPolicy,
    _Frozen,
    format_rational,
    invert_matrix,
    is_exact,
    json_int,
    json_int_list,
    json_object,
    json_rational,
    narrow,
    parse_rational,
    solve_linear,
)


_ZERO = Fraction(0)


class ModelError(GwdescError, ValueError):
    """A geometry input failed to load or validate."""


def _check_rank(rank: int, *classes: CohClass) -> None:
    """Raise ModelError unless each class has ``rank`` coefficients, never read one off the wrong indices."""
    for x in classes:
        if len(x.coeffs) != rank:
            raise ModelError(f"a class of rank {len(x.coeffs)} where rank {rank} is needed")


class CohClass(_Frozen):
    """Cohomology class as an exact coefficient vector over the model basis; a frozen
    value whose one field is its coefficient tuple."""

    _FIELD_NAMES = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]) -> None:
        self.__dict__["coeffs"] = coeffs

    def __add__(self, other: CohClass) -> CohClass:
        _check_rank(len(self.coeffs), other)
        return CohClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: CohClass) -> CohClass:
        _check_rank(len(self.coeffs), other)
        return CohClass(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> CohClass:
        return CohClass(tuple(-a for a in self.coeffs))

    def __mul__(self, scalar) -> CohClass:
        if not is_exact(scalar):  # a float or a bool is a TypeError, not its binary rational
            return NotImplemented
        q = Fraction(scalar)
        return CohClass(tuple(a * q for a in self.coeffs))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.support()

    def support(self) -> tuple[int, ...]:
        """Indices of the nonzero coefficients, in basis order."""
        return self._support

    @cached_property
    def _support(self) -> tuple[int, ...]:
        # computed once per instance; cached_property writes to __dict__, past the
        # frozen __setattr__, and equality and hashing read only coeffs
        return tuple(i for i, a in enumerate(self.coeffs) if a)

    @cached_property
    def parts(self) -> tuple[tuple[int | Fraction, int], ...]:
        """The class as (coefficient, basis index) pairs over its support, an
        integral coefficient as an ``int`` (see :func:`gwdesc.exact.narrow`)."""
        return tuple((narrow(self.coeffs[i]), i) for i in self._support)


class ValidationCheck:
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = "") -> None:
        self.name, self.passed, self.detail = name, passed, detail


class ValidationReport:
    __slots__ = ("checks",)

    def __init__(self, checks: list[ValidationCheck]) -> None:
        self.checks = checks

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[ValidationCheck]:
        return [c for c in self.checks if not c.passed]

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            suffix = f" ({c.detail})" if c.detail else ""
            lines.append(f"{status} {c.name}{suffix}")
        return "\n".join(lines)


class GeometryModel:
    """Finite description of the target: basis, cup table, pairing, lattice.

    Degrees are stored in complex units, so the top degree equals the
    complex dimension and all dimension counts downstream are integer
    arithmetic.
    """

    def __init__(
        self,
        name: str,
        dimension: int,
        labels: list[str],
        degrees: list[int],
        cup_records: dict[tuple[str, str], dict[str, Fraction]] | list[tuple[tuple[str, str], dict[str, Fraction]]],
        integral: dict[str, Fraction],
        lattice_rank: int,
        divisor_pairing: dict[str, list[int]],
        ample: dict[str, Fraction],
        chern: list[dict[str, Fraction]],
    ) -> None:
        if len(labels) != len(set(labels)):
            raise ModelError("basis labels must be distinct")
        if len(labels) != len(degrees):
            raise ModelError("labels and degrees disagree in length")
        self.name = name
        self.dimension = dimension
        self.labels = tuple(labels)
        self.degrees = tuple(degrees)
        self.rank = len(labels)
        self._basis = tuple(CohClass(tuple(Fraction(int(j == i)) for j in range(self.rank))) for i in range(self.rank))
        self.lattice_rank = lattice_rank
        self._index = {label: i for i, label in enumerate(labels)}
        self._by_degree = {d: tuple(i for i, e in enumerate(degrees) if e == d) for d in set(degrees)}
        # cup records come by ordered pair, as a dict or as a file's list (where a pair may
        # repeat); they are kept by unordered pair, the last one winning, and a pair whose
        # records disagree is a conflict that validate() reports
        self._cup_records: dict[tuple[str, str], dict[str, Fraction]] = {}
        self._cup_conflicts: set[tuple[str, str]] = set()
        for pair, result in cup_records.items() if isinstance(cup_records, dict) else cup_records:
            # a file's `a` and `b` may be any JSON value, a list too, so they are
            # looked up in the label tuple, which needs no hash
            for label in pair:
                if label not in self.labels:
                    raise ModelError(f"cup record {pair[0]!r}∪{pair[1]!r}: unknown basis label {label!r}")
            key = tuple(sorted(pair))
            if key in self._cup_records and self.class_from_map(result) != self.class_from_map(self._cup_records[key]):
                self._cup_conflicts.add(key)
            self._cup_records[key] = dict(result)
        for field, by_label in (("integral", integral), ("divisor_pairing", divisor_pairing)):
            for label in by_label:
                if label not in self._index:
                    raise ModelError(f"{field}: unknown basis label {label!r}")
        self._integral = self.class_from_map(integral).coeffs
        self._pairing_rows = {label: tuple(row) for label, row in divisor_pairing.items()}
        self.ample = self.class_from_map(ample)
        self.chern = tuple(self.class_from_map(c) for c in chern)
        self._cup_terms = self._build_cup_terms()
        self._dual: tuple[CohClass, ...] | None = None
        self._decomp_cache: dict[int, list[tuple[Fraction, int, int]] | None] = {}

    # ------------------------------------------------------------------
    # construction helpers

    def _build_cup_terms(self) -> tuple[tuple[tuple[tuple[int, Fraction], ...], ...], ...]:
        """Sparse structure constants: [i][j] lists (k, c) with basis[i] ∪ basis[j] = Σ c · basis[k], c nonzero."""
        table = [[()] * self.rank for _ in range(self.rank)]
        # without exactly one degree-0 element there is no unit row to fill;
        # validate() reports that as identity-unique
        zeros = self.basis_of_degree(0)
        unit = zeros[0] if len(zeros) == 1 else None
        if unit is not None:
            for i in range(self.rank):
                table[unit][i] = ((i, Fraction(1)),)
                table[i][unit] = ((i, Fraction(1)),)
        for (la, lb), result in self._cup_records.items():
            i, j = self._index[la], self._index[lb]
            value = self.class_from_map(result)
            if unit in (i, j):
                # identity products are fixed by the axiom; records may
                # restate them and are checked in validate()
                continue
            table[i][j] = tuple((k, value.coeffs[k]) for k in value.support())
            table[j][i] = table[i][j]
        return tuple(tuple(row) for row in table)

    def basis_of_degree(self, d: int) -> tuple[int, ...]:
        """Indices of the basis elements of degree d, in basis order."""
        return self._by_degree.get(d, ())

    @property
    def unit_index(self) -> int:
        zeros = self.basis_of_degree(0)
        if len(zeros) != 1:
            raise ModelError("need exactly one degree-0 basis element")
        return zeros[0]

    def zero_class(self) -> CohClass:
        return CohClass((Fraction(0),) * self.rank)

    @property
    def unit(self) -> CohClass:
        return self.basis_class(self.unit_index)

    def basis_class(self, i: int) -> CohClass:
        """The i-th basis class, built once (CohClass is frozen, so callers share it)."""
        return self._basis[i]

    def class_from_map(self, coeffs: dict[str, Fraction | int | str]) -> CohClass:
        vec = [Fraction(0)] * self.rank
        for label, value in coeffs.items():
            if label not in self._index:
                raise ModelError(f"unknown basis label {label!r}")
            if not (isinstance(value, str) or is_exact(value)):
                raise ModelError(f"coefficient of {label!r} must be an int, a Fraction or a rational string, got {value!r}")
            vec[self._index[label]] = parse_rational(value) if isinstance(value, str) else Fraction(value)
        return CohClass(tuple(vec))

    def label_index(self, label: str) -> int:
        if label not in self._index:
            raise ModelError(f"unknown basis label {label!r} (basis: {', '.join(self.labels)})")
        return self._index[label]

    # ------------------------------------------------------------------
    # algebra

    def cup(self, x: CohClass, y: CohClass) -> CohClass:
        _check_rank(self.rank, x, y)
        # Fraction is immutable, so every slot may start from one shared zero
        out = [_ZERO] * self.rank
        y_coeffs, y_support = y.coeffs, y.support()
        for i in x.support():
            xi, row = x.coeffs[i], self._cup_terms[i]
            for j in y_support:
                terms = row[j]
                if terms:
                    xy = xi * y_coeffs[j]
                    for k, c in terms:
                        out[k] += xy * c
        return CohClass(tuple(out))

    def cup_power(self, x: CohClass, n: int) -> CohClass:
        out = self.unit
        for _ in range(n):
            out = self.cup(out, x)
        return out

    def integrate(self, x: CohClass) -> Fraction:
        _check_rank(self.rank, x)
        return sum((c * w for c, w in zip(x.coeffs, self._integral)), Fraction(0))

    def eta(self, x: CohClass, y: CohClass) -> Fraction:
        return self.integrate(self.cup(x, y))

    def degree_of(self, x: CohClass) -> int | None:
        """Degree of a homogeneous class, read from its cached support: one basis
        index gives that element's degree; the zero class and a mixed class give None."""
        try:
            (i,) = x._support
        except ValueError:  # no index, or several: a same-degree class still has one
            degrees = {self.degrees[j] for j in x._support}
            return degrees.pop() if len(degrees) == 1 else None
        return self.degrees[i]

    def gram_matrix(self) -> list[list[Fraction]]:
        basis = [self.basis_class(i) for i in range(self.rank)]
        return [[self.eta(a, b) for b in basis] for a in basis]

    def dual_basis(self) -> tuple[CohClass, ...]:
        """The pairing-dual basis, eta(basis[a], dual[b]) = delta_ab, computed once by
        exact Gram inversion."""
        if self._dual is None:
            inverse = invert_matrix(self.gram_matrix())
            if inverse is None:
                raise ModelError("pairing is degenerate; no dual basis exists")
            self._dual = tuple(
                CohClass(tuple(inverse[j][a] for j in range(self.rank)))
                for a in range(self.rank)
            )
        return self._dual

    # ------------------------------------------------------------------
    # lattice

    def pairing_row(self, i: int) -> tuple[int, ...]:
        label = self.labels[i]
        if label not in self._pairing_rows:
            raise ModelError(f"no divisor pairing row for degree-1 class {label!r}")
        return self._pairing_rows[label]

    def beta_pairing(self, gamma: CohClass, beta: CurveClass) -> Fraction:
        """Pairing of a degree-1 class with a curve class; linear in both."""
        if len(beta) != self.lattice_rank:
            raise ModelError(f"curve class {beta!r} has rank != {self.lattice_rank}")
        total = Fraction(0)
        for i in gamma.support():
            if self.degrees[i] != 1:
                raise ModelError("beta pairing needs a class supported in degree 1")
            row = self.pairing_row(i)
            total += gamma.coeffs[i] * sum(r * b for r, b in zip(row, beta))
        return total

    def c1_pairing(self, beta: CurveClass) -> Fraction:
        if self.dimension == 0:
            return Fraction(0)
        return self.beta_pairing(self.chern[1], beta)

    def ample_weights(self) -> tuple[int, ...]:
        weights = []
        for j in range(self.lattice_rank):
            generator = tuple(int(j == t) for t in range(self.lattice_rank))
            w = self.beta_pairing(self.ample, generator)
            if w.denominator != 1 or w < 1:
                raise ModelError(f"ample degree of lattice generator {j} is {w}, need a positive integer")
            weights.append(int(w))
        return tuple(weights)

    def policy(self, max_beta_degree: int, max_x_degree: int = 0, max_descendant: int = 0) -> TruncationPolicy:
        return TruncationPolicy(
            beta_weights=self.ample_weights(),
            max_beta_degree=max_beta_degree,
            max_x_degree=max_x_degree,
            max_descendant=max_descendant,
        )

    # ------------------------------------------------------------------
    # Chern-root symmetric functions

    def chern_symmetric(self, indices: tuple[int, ...], g: int) -> CohClass:
        """Monomial symmetric function of the negated Chern roots.

        For a weakly increasing index tuple (i_1 <= ... <= i_dim) with
        entries in [0, g], returns the symmetrization of the monomial with
        exponents (g - i_k) evaluated at the negated Chern roots and
        expanded into the model's Chern classes.  The expansion goes through
        the elementary-symmetric basis, where the k-th elementary function
        of the negated roots is (-1)^k times the k-th Chern class.
        """
        delta = self.dimension
        if len(indices) != delta:
            raise ValueError(f"need exactly {delta} indices, got {len(indices)}")
        if any(i < 0 or i > g for i in indices):
            raise ValueError("indices must lie in [0, g]")
        if list(indices) != sorted(indices):
            raise ValueError("indices must be weakly increasing")
        if delta == 0:
            return self.unit
        lam = tuple(sorted((g - i for i in indices), reverse=True))
        out = self.zero_class()
        for e_exponents, coeff in monomial_to_elementary(lam, delta).items():
            term = self.unit
            for t, power in enumerate(e_exponents, start=1):
                if power:
                    signed = self.chern[t] * Fraction((-1) ** t)
                    term = self.cup(term, self.cup_power(signed, power))
            out = out + coeff * term
        return out

    # ------------------------------------------------------------------
    # cup-product decompositions (used by the n-point primary reduction)

    def divisor_decomposition(self, i: int) -> list[tuple[Fraction, int, int]] | None:
        """Write basis class i as a combination of products divisor ∪ class.

        Returns [(coeff, divisor_index, class_index), ...] with
        sum coeff · (basis[div] ∪ basis[cls]) equal to basis[i], or None when
        the class is not expressible that way (cohomology not generated by
        divisors in that degree).
        """
        if i not in self._decomp_cache:
            self._decomp_cache[i] = self._solve_decomposition(i)
        return self._decomp_cache[i]

    def _solve_decomposition(self, i: int) -> list[tuple[Fraction, int, int]] | None:
        deg = self.degrees[i]
        if deg < 2:
            return None
        pairs = [(d, x) for d in self.basis_of_degree(1) for x in self.basis_of_degree(deg - 1)]
        if not pairs:
            return None
        columns = [dict(self._cup_terms[d][x]) for d, x in pairs]
        matrix = [[col.get(row, _ZERO) for col in columns] for row in range(self.rank)]
        rhs = list(self.basis_class(i).coeffs)
        solution = solve_linear(matrix, rhs)
        if solution is None:
            return None
        return [(c, d, x) for c, (d, x) in zip(solution, pairs) if c]

    # ------------------------------------------------------------------
    # validation

    def validate(self) -> ValidationReport:
        checks: list[ValidationCheck] = []

        zeros = self.basis_of_degree(0)
        checks.append(
            ValidationCheck(
                "identity-unique",
                len(zeros) == 1,
                "" if len(zeros) == 1 else f"degree-0 elements: {len(zeros)}",
            )
        )

        bad_degree = [d for d in self.degrees if d < 0 or d > self.dimension]
        checks.append(
            ValidationCheck(
                "degrees-in-range", not bad_degree, f"out of range: {bad_degree}" if bad_degree else ""
            )
        )

        identity_ok, identity_detail = True, ""
        if zeros:
            unit = zeros[0]
            for (la, lb), result in self._cup_records.items():
                i, j = self._index[la], self._index[lb]
                if unit not in (i, j):
                    continue
                other = j if i == unit else i
                if self.class_from_map(result) != self.basis_class(other):
                    identity_ok = False
                    identity_detail = f"record ({la},{lb}) breaks the identity axiom"
                    break
        checks.append(ValidationCheck("identity-axiom", identity_ok, identity_detail))

        grading_ok, grading_detail = True, ""
        for i in range(self.rank):
            for j in range(self.rank):
                expected = self.degrees[i] + self.degrees[j]
                for s, _ in self._cup_terms[i][j]:
                    if self.degrees[s] != expected:
                        grading_ok = False
                        grading_detail = f"{self.labels[i]}∪{self.labels[j]} hits degree {self.degrees[s]}"
        checks.append(ValidationCheck("cup-graded", grading_ok, grading_detail))

        assoc_ok, assoc_detail = True, ""
        basis = [self.basis_class(i) for i in range(self.rank)]
        for i in range(self.rank):
            for j in range(i, self.rank):
                for k in range(j, self.rank):
                    left = self.cup(self.cup(basis[i], basis[j]), basis[k])
                    right = self.cup(basis[i], self.cup(basis[j], basis[k]))
                    if left != right:
                        assoc_ok = False
                        assoc_detail = f"witness ({self.labels[i]},{self.labels[j]},{self.labels[k]})"
        checks.append(ValidationCheck("cup-associative", assoc_ok, assoc_detail))

        # the table is symmetric by construction, so only conflicting records can break commutativity
        conflicts = ", ".join(f"{a}∪{b}" for a, b in sorted(self._cup_conflicts))
        checks.append(ValidationCheck("cup-commutative", not conflicts, conflicts and f"conflicting records for {conflicts}"))

        top_ok = all(
            self._integral[i] == 0 or self.degrees[i] == self.dimension
            for i in range(self.rank)
        )
        checks.append(ValidationCheck("integral-top-degree", top_ok))

        nondeg = invert_matrix(self.gram_matrix()) is not None
        checks.append(ValidationCheck("pairing-nondegenerate", nondeg))

        dual_ok = False
        if nondeg:
            duals = self.dual_basis()
            dual_ok = all(
                self.eta(self.basis_class(a), duals[b]) == Fraction(int(a == b))
                for a in range(self.rank)
                for b in range(self.rank)
            )
        checks.append(ValidationCheck("dual-consistency", dual_ok))

        chern_ok = len(self.chern) == self.dimension + 1 and (
            not self.chern or (len(zeros) == 1 and self.chern[0] == self.unit)
        )
        checks.append(
            ValidationCheck(
                "chern-normalized", chern_ok, "" if chern_ok else "need c_0 = unit and dimension+1 classes"
            )
        )

        chern_deg_ok = all(
            c.is_zero() or self.degree_of(c) == j for j, c in enumerate(self.chern)
        )
        checks.append(ValidationCheck("chern-degrees", chern_deg_ok))

        if self.lattice_rank == 0:
            checks.append(ValidationCheck("ample-positive", True, "trivial lattice"))
        else:
            ample_ok, ample_detail = True, ""
            try:
                if self.degree_of(self.ample) != 1:
                    ample_ok, ample_detail = False, "ample class not of degree 1"
                else:
                    self.ample_weights()
            except ModelError as exc:
                ample_ok, ample_detail = False, str(exc)
            checks.append(ValidationCheck("ample-positive", ample_ok, ample_detail))

            rows_ok = all(
                self.labels[i] in self._pairing_rows and len(self._pairing_rows[self.labels[i]]) == self.lattice_rank
                for i in self.basis_of_degree(1)
            )
            checks.append(ValidationCheck("divisor-pairing-complete", rows_ok))

        return ValidationReport(checks)

    # ------------------------------------------------------------------
    # serialization

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "dimension": self.dimension,
            "basis": [{"label": l, "degree": d} for l, d in zip(self.labels, self.degrees)],
            "cup": [
                {"a": a, "b": b, "result": {l: format_rational(v) for l, v in sorted(result.items())}}
                for (a, b), result in sorted(self._cup_records.items())
            ],
            "integral": {
                self.labels[i]: format_rational(self._integral[i])
                for i in range(self.rank)
                if self._integral[i]
            },
            "lattice_rank": self.lattice_rank,
            "divisor_pairing": {l: list(row) for l, row in sorted(self._pairing_rows.items())},
            "ample": {
                self.labels[i]: format_rational(self.ample.coeffs[i])
                for i in self.ample.support()
            },
            "chern": [
                {self.labels[i]: format_rational(c.coeffs[i]) for i in c.support()}
                for c in self.chern
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> GeometryModel:
        def rationals(value, what: str) -> dict[str, Fraction]:
            return {l: json_rational(v, f"{what}[{l!r}]") for l, v in json_object(value, what).items()}

        try:
            labels = [entry["label"] for entry in data["basis"]]
            for label in labels:
                if not isinstance(label, str):
                    raise ValueError(f"basis label {label!r} must be a string")
            degrees = [json_int(entry["degree"], f"degree of {entry['label']!r}") for entry in data["basis"]]
            cup_records = [
                ((rec["a"], rec["b"]), rationals(rec["result"], f"cup result of {rec['a']!r}∪{rec['b']!r}"))
                for rec in data.get("cup", [])
            ]
            integral = rationals(data.get("integral", {}), "integral")
            ample = rationals(data.get("ample", {}), "ample")
            chern = [rationals(entry, f"chern entry {j}") for j, entry in enumerate(data.get("chern", []))]
            pairing = json_object(data.get("divisor_pairing", {}), "divisor_pairing")
            return cls(
                name=data.get("name", "unnamed"),
                dimension=json_int(data["dimension"], "dimension"),
                labels=labels,
                degrees=degrees,
                cup_records=cup_records,
                integral=integral,
                lattice_rank=json_int(data["lattice_rank"], "lattice_rank"),
                divisor_pairing={l: json_int_list(row, f"divisor_pairing row {l!r}") for l, row in pairing.items()},
                ample=ample,
                chern=chern,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"malformed geometry file: {exc}") from exc


def load_geometry(path: str | Path) -> GeometryModel:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    model = GeometryModel.from_dict(data)
    report = model.validate()
    if not report.ok:
        failed = ", ".join(c.name for c in report.failures())
        raise ModelError(f"geometry {model.name!r} failed validation: {failed}")
    return model


# ----------------------------------------------------------------------
# symmetric-function plumbing (integer exponent-dict polynomials)


def _expand_elementary(t: int, nvars: int) -> dict[tuple[int, ...], int]:
    out: dict[tuple[int, ...], int] = {}
    for subset in combinations(range(nvars), t):
        expo = [0] * nvars
        for s in subset:
            expo[s] = 1
        out[tuple(expo)] = 1
    return out


def _expand_monomial_symmetric(lam: tuple[int, ...], nvars: int) -> dict[tuple[int, ...], int]:
    padded = tuple(lam) + (0,) * (nvars - len(lam))
    return {perm: 1 for perm in set(permutations(padded))}


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


@lru_cache(maxsize=None)
def monomial_to_elementary(lam: tuple[int, ...], nvars: int) -> dict[tuple[int, ...], int]:
    """Expand a monomial symmetric function over the elementary basis.

    The key of the result records the exponent of each e_1 ... e_nvars; the
    classical leading-term subtraction is exact over the integers and
    terminates because the lex-leading monomial strictly drops.
    """
    if len(lam) > nvars:
        raise ValueError("partition longer than the variable count")
    current = _expand_monomial_symmetric(tuple(lam), nvars)
    result: dict[tuple[int, ...], int] = {}
    elementary = [_expand_elementary(t, nvars) for t in range(nvars + 1)]
    while current:
        alpha = max(current)
        coeff = current[alpha]
        exps = tuple(
            alpha[t] - (alpha[t + 1] if t + 1 < nvars else 0)
            for t in range(nvars)
        )
        result[exps] = result.get(exps, 0) + coeff
        product: dict[tuple[int, ...], int] = {(0,) * nvars: 1}
        for t, power in enumerate(exps, start=1):
            for _ in range(power):
                product = _poly_mul(product, elementary[t])
        current = {
            e: c
            for e, c in (
                (e, current.get(e, 0) - coeff * product.get(e, 0))
                for e in set(current) | set(product)
            )
            if c
        }
    return {e: c for e, c in result.items() if c}
