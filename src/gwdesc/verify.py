"""Identity verification suites.

Each suite re-derives an exact identity along two independent evaluation
paths and reports literal equality, never tolerances.  Suites return
deterministic line-based reports so repeated runs are byte-identical.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable, Iterator

from .engine import CorrelatorEngine, PrimaryTable
from .fixtures import load_fixture, plane_curve_counts
from .geometry import GeometryModel
from .moduli import _ZERO, TautTableError, constant_map_correlator, psi_integral_genus0
from .phase import (
    _PrimaryTwoPoint,
    divisor_product_identity,
    summed_correlator,
    transform_identity_report,
)


class SuiteResult:
    __slots__ = ("name", "ok", "lines")

    def __init__(self, name: str, ok: bool, lines: list[str]) -> None:
        self.name, self.ok, self.lines = name, ok, lines

    def render(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        body = "\n".join(f"  {line}" for line in self.lines)
        head = f"[{status}] suite {self.name}"
        return f"{head}\n{body}" if body else head


def _verdict(name: str, head: list[str], failures: list[str], checked: int) -> SuiteResult:
    """Every suite's verdict: FAIL when a check failed or none ran.  The report is
    the head lines, at most ten failure lines, then "no checks ran" if nothing ran."""
    lines = head + failures[:10]
    if not checked:
        lines.append("no checks ran")
    return SuiteResult(name, not failures and checked > 0, lines)


# ----------------------------------------------------------------------


def _exponent_multisets(n: int) -> Iterator[tuple[int, ...]]:
    """The nondecreasing n-tuples (n ≥ 1) of cotangent exponents with sum at most n − 1,
    in ``combinations_with_replacement(range(n), n)`` order.

    Each step raises the rightmost slot it can and fills the slots after it with the
    raised value.  A slot can be raised while the prefix sum plus (remaining slots ×
    raised value), the least sum any completion can have, stays within n − 1.  So
    the walk forms no tuple it then drops, and the sum bound alone keeps every value
    below n.
    """
    bound = n - 1
    exps = [0] * n
    while True:
        yield tuple(exps)
        total = sum(exps)
        for i in range(n - 1, -1, -1):
            total -= exps[i]
            value = exps[i] + 1
            if total + (n - i) * value <= bound:
                exps[i:] = [value] * (n - i)
                break
        else:
            return


def suite_point_oracle(model: GeometryModel, primary: PrimaryTable, nmax: int = 7) -> SuiteResult:
    """Boundary-splitting recursion against the closed multinomial form.

    Checks every exponent multiset of 3 ≤ n ≤ ``nmax`` marks whose sum is at
    most n − 1: the dimension n − 3, where the value is a multinomial, and the
    off-dimension sums n − 2 and n − 1, which must give 0.  The closed form
    holds on a zero-dimensional model, the only kind this suite checks.
    """
    require_applicable("point-oracle", model)
    engine = CorrelatorEngine(model, primary)
    one = model.unit
    checked = 0
    failures: list[str] = []
    for n in range(3, nmax + 1):
        for exps in _exponent_multisets(n):
            checked += 1
            got = engine.modified((0,) * model.lattice_rank, [(e, one) for e in exps])
            want = psi_integral_genus0(list(exps))
            if got != want:
                failures.append(f"exponents {exps}: got {got}, expected {want}")
    return _verdict("point-oracle", [f"checked {checked} exponent multisets up to n={nmax}"], failures, checked)


def suite_transform(
    model: GeometryModel,
    primary: PrimaryTable,
    qmax: int = 3,
    xdeg: int = 4,
    dmax: int = 3,
) -> SuiteResult:
    """Standard potential against the composed modified potential."""
    engine = CorrelatorEngine(model, primary)
    policy = model.policy(qmax, max_x_degree=xdeg, max_descendant=dmax)
    report = transform_identity_report(engine, policy)
    triangular = report.transform.strictly_raising()
    inverse_ok = report.transform.checked_inverse() is not None
    lines = [
        f"coefficients compared: {report.checked_keys}",
        f"substitution identities compared: {report.substitution_checked}",
        f"triangular shape: {'ok' if triangular else 'violated'}",
        f"inverse composes to identity: {'ok' if inverse_ok else 'violated'}",
    ]
    structural = (("triangular shape", triangular), ("inverse composition", inverse_ok))
    failures = [f"{check} violated" for check, ok in structural if not ok]
    failures += [f"potential mismatch at {key}: {diff}" for key, diff in report.potential_mismatches]
    failures += [f"substitution mismatch at {key}: {lhs} vs {rhs}" for key, lhs, rhs in report.substitution_mismatches]
    return _verdict("transform", lines, failures, report.checked_keys)


def suite_enumerative(model: GeometryModel, primary: PrimaryTable, dmax: int = 4) -> SuiteResult:
    """Engine-summed plane counts against the associativity oracle, on a
    plane-shaped model (so user-supplied plane tables are screened too)."""
    require_applicable("enumerative", model)
    lines: list[str] = []
    engine = CorrelatorEngine(model, primary)
    oracle = plane_curve_counts(dmax) if dmax >= 1 else {}  # below degree 1 no check runs
    top = next(model.basis_class(i) for i, d in enumerate(model.degrees) if d == 2)
    point = top * (1 / model.integrate(top))  # the point class, of integral 1
    failures = []
    for d in range(1, dmax + 1):
        got = engine.primary((d,), [point] * (3 * d - 1))
        want = oracle[d]
        lines.append(f"degree {d}: engine {got}, oracle {want}")
        if got != want:
            failures.append(f"degree {d}: engine and oracle differ")
    return _verdict("enumerative", lines, failures, dmax)


def suite_divisor_independence(
    model: GeometryModel, primary: PrimaryTable, qmax: int = 3, dmax: int = 3
) -> SuiteResult:
    """Reductions with the ample divisor against a rescaled one, and the dilaton route of the
    one- and zero-point values against the divisor route."""
    base = CorrelatorEngine(model, primary)
    scaled = CorrelatorEngine(model, primary, gamma0=3 * model.ample)
    policy = model.policy(qmax)
    failures = []
    checked = 0
    basis = [model.basis_class(i) for i in range(model.rank)]
    for beta in policy.iter_effective():
        if not any(beta):
            continue
        for d1 in range(dmax + 1):
            for d2 in range(dmax + 1):
                for x in basis:
                    for y in basis:
                        checked += 1
                        v1 = base.two_point_general(d1, x, d2, y, beta)
                        v2 = scaled.two_point_general(d1, x, d2, y, beta)
                        if v1 != v2:
                            failures.append(f"two-point {beta} {d1} {d2}: {v1} vs {v2}")
        for d in range(dmax + 1):
            for x in basis:
                checked += 2
                v1 = base.one_point(d, x, beta)
                if v1 != scaled.one_point(d, x, beta):
                    failures.append(f"one-point {beta} {d}")
                v2 = base.one_point(d, x, beta, route="dilaton")
                if v1 != v2:
                    failures.append(f"one-point {beta} {d}: divisor {v1} vs dilaton {v2}")
        checked += 2
        v1 = base.zero_point(beta)
        if v1 != scaled.zero_point(beta):
            failures.append(f"zero-point {beta}")
        v2 = base.zero_point(beta, route="dilaton")
        if v1 != v2:
            failures.append(f"zero-point {beta}: divisor {v1} vs dilaton {v2}")
    # the primary-only route must not depend on the divisor choice either;
    # each divisor gets its own route, so no memo is shared between them
    ample_route = _PrimaryTwoPoint(model, primary, policy)
    scaled_route = _PrimaryTwoPoint(model, primary, policy, 3 * model.ample)
    for d in range(dmax + 1):
        for x in basis:
            for y in basis:
                checked += 1
                with_ample = ample_route.series(d, x, y)
                with_scaled = scaled_route.series(d, x, y)
                if with_ample != with_scaled:
                    failures.append(f"primary-route series d={d}: divisor choice leaked")
    head = [f"checked {checked} reductions with both divisors and both unstable routes"]
    return _verdict("divisor-independence", head, failures, checked)


# ----------------------------------------------------------------------
# randomized identity battery


def _dimension_valid(model: GeometryModel, beta, raw) -> bool:
    """Whether (cotangent power, basis index) pairs at beta pass degree sum == dimension + c1·beta + n - 3;
    written apart from the engine's own count, which the dimension-vanishing check tests."""
    return sum(d + model.degrees[a] for d, a in raw) == model.dimension + model.c1_pairing(beta) + len(raw) - 3


def _random_query(rng: random.Random, model: GeometryModel, qmax: int, force_valid: bool):
    """A random small genus-0 stable query; optionally dimension-valid."""
    for _ in range(200):
        n = rng.randint(3, 5)
        beta = tuple(
            rng.randint(0, max(0, qmax // w))
            for w in (model.ample_weights() if model.lattice_rank else ())
        )
        pairs = []
        for _ in range(n):
            d = rng.choice((0, 0, 0, 1, 1, 2))
            a = rng.randrange(model.rank)
            pairs.append((d, a))
        if force_valid and not _dimension_valid(model, beta, pairs):
            continue
        return beta, pairs
    return None


def suite_identities(
    model: GeometryModel,
    primary: PrimaryTable,
    count: int = 200,
    seed: int = 20240801,
    qmax: int = 3,
) -> SuiteResult:
    """Randomized identity battery, each identity along two paths.

    Per query: the divisor relation, the dilaton relation, permutation
    invariance, dimension vanishing against the unchecked recursion, the
    reduction-slot independence of the descendant relation, and the summed
    product-compatibility identity.
    """
    engine = CorrelatorEngine(model, primary)
    unchecked = CorrelatorEngine(model, primary, check_dimension=False)
    policy = model.policy(qmax)
    rng = random.Random(seed)
    counters = {
        "divisor": 0,
        "dilaton": 0,
        "permutation": 0,
        "dimension-vanishing": 0,
        "slot-independence": 0,
        "product-compatibility": 0,
    }
    failures: list[str] = []
    basis = [model.basis_class(i) for i in range(model.rank)]

    for case in range(count):
        force_valid = case % 2 == 0
        query = _random_query(rng, model, qmax, force_valid)
        if query is None:
            continue
        beta, raw = query
        pairs = [(d, basis[a]) for d, a in raw]

        lhs, rhs = engine.check_divisor_relation(beta, pairs)
        counters["divisor"] += 1
        if lhs != rhs:
            failures.append(f"divisor relation {beta} {raw}: {lhs} vs {rhs}")

        lhs, rhs = engine.check_dilaton_relation(beta, pairs)
        counters["dilaton"] += 1
        if lhs != rhs:
            failures.append(f"dilaton relation {beta} {raw}: {lhs} vs {rhs}")

        value = engine.descendant(0, beta, pairs)
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        counters["permutation"] += 1
        if engine.descendant(0, beta, shuffled) != value:
            failures.append(f"permutation {beta} {raw}")

        if not _dimension_valid(model, beta, raw):
            counters["dimension-vanishing"] += 1
            if value != 0:
                failures.append(f"dimension short-circuit violated {beta} {raw}")
            if unchecked.descendant(0, beta, shuffled) != 0:
                failures.append(f"dimension vanishing violated by recursion {beta} {raw}")

        hot = [p for p, (d, _) in enumerate(sorted(raw)) if d >= 1]
        if any(beta) and len(hot) >= 2:
            core = [(d, 0, basis[a]) for d, a in sorted(raw)]
            values = {engine.generalized(beta, core, reduce_at=j) for j in hot}
            counters["slot-independence"] += 1
            if len(values) != 1:
                failures.append(f"slot choice changed the value {beta} {raw}: {values}")

        if case % 10 == 0 and model.lattice_rank:
            d = rng.randint(1, 3)
            x = basis[rng.randrange(model.rank)]
            y = basis[rng.randrange(model.rank)]
            lhs_s, rhs_s = divisor_product_identity(engine, policy, d, x, y)
            counters["product-compatibility"] += 1
            if lhs_s != rhs_s:
                failures.append(f"product compatibility d={d}: {lhs_s} vs {rhs_s}")

    lines = [f"{name}: {done} checks" for name, done in sorted(counters.items())]
    return _verdict("identities", lines, failures, sum(counters.values()))


def suite_two_point_paths(
    model: GeometryModel, primary: PrimaryTable, qmax: int = 3, dmax: int = 3
) -> SuiteResult:
    """Two-point series: engine reductions against the primary-only route."""
    engine = CorrelatorEngine(model, primary)
    policy = model.policy(qmax)
    failures = []
    checked = 0
    basis = [model.basis_class(i) for i in range(model.rank)]
    route = _PrimaryTwoPoint(model, primary, policy)
    for d in range(dmax + 1):
        for x in basis:
            for y in basis:
                checked += 1
                via_engine = summed_correlator(engine, [(d, 0, x), (0, 0, y)], policy)
                via_primaries = route.series(d, x, y)
                if via_engine != via_primaries:
                    failures.append(f"d={d}: {via_engine} vs {via_primaries}")
    head = [f"checked {checked} series at levels up to {dmax}"]
    return _verdict("two-point-paths", head, failures, checked)


def suite_degree_zero_collapse(model: GeometryModel, primary: PrimaryTable, nmax: int = 5) -> SuiteResult:
    """Mixed powers at curve class zero, their levels d + e summing to at most 3,
    against the merged-level closed form."""
    total_max = 3
    engine = CorrelatorEngine(model, primary)
    beta0 = (0,) * model.lattice_rank
    checked = 0
    failures = []
    basis_indices = list(range(model.rank))
    carrying = [
        (d, e, a)
        for d in range(total_max + 1)
        for e in range(total_max + 1)
        for a in basis_indices
        if 1 <= d + e <= total_max
    ]
    plain = [(0, 0, a) for a in basis_indices]
    for n in range(3, nmax + 1):
        for k in range(1, min(n, total_max) + 1):
            for deco in combinations_with_replacement(carrying, k):
                if sum(d + e for d, e, _ in deco) > total_max:
                    continue
                if all(e == 0 for _, e, _ in deco):
                    continue
                for fill in combinations_with_replacement(plain, n - k):
                    key = deco + fill
                    checked += 1
                    triples = [(d, e, model.basis_class(a)) for d, e, a in key]
                    got = engine.generalized(beta0, triples)
                    merged = [(d + e, model.basis_class(a)) for d, e, a in key]
                    want = constant_map_correlator(0, merged, model)
                    if got != want:
                        failures.append(f"{key}: {got} vs {want}")
    head = [f"checked {checked} mixed-power queries at curve class zero"]
    return _verdict("degree-zero-collapse", head, failures, checked)


def _p3_like_model() -> GeometryModel:
    """Throwaway three-fold with divisor-generated cohomology, class zero only."""
    return GeometryModel(
        name="P3",
        dimension=3,
        labels=["one", "h", "h2", "h3"],
        degrees=[0, 1, 2, 3],
        cup_records={
            ("h", "h"): {"h2": Fraction(1)},
            ("h", "h2"): {"h3": Fraction(1)},
            ("h", "h3"): {},
            ("h2", "h2"): {},
            ("h2", "h3"): {},
            ("h3", "h3"): {},
        },
        integral={"h3": Fraction(1)},
        lattice_rank=0,
        divisor_pairing={},
        ample={},
        chern=[
            {"one": Fraction(1)},
            {"h": Fraction(4)},
            {"h2": Fraction(6)},
            {"h3": Fraction(4)},
        ],
    )


def suite_point_vanishing(models: list[GeometryModel] | None = None) -> SuiteResult:
    """Exhaustive vanishing scan for constant-map correlators.

    Every degree pattern outside the three admissible genus cases must give
    exactly zero; admissible patterns may need table entries and are only
    counted, not evaluated.  Each pattern is formed once and read at every
    genus; the patterns are streamed from parallel per-slot tables, not
    stored, and the failure lines are gathered per genus so that the report
    lists them genus by genus within each model.
    """
    if models is None:
        models = [load_fixture(name).model for name in ("point", "P1", "P2")]
        models.append(_p3_like_model())
    checked = 0
    skipped = 0
    failures = []
    for model in models:
        delta = model.dimension
        slots = [(d, a) for d in range(0, 4) for a in range(model.rank)]
        tables = (
            slots,
            [(d, model.basis_class(a)) for d, a in slots],
            [d for d, _ in slots],
            [model.degrees[a] for _, a in slots],
        )
        by_genus: tuple[list[str], ...] = ([], [], [])
        for n in range(0, 6):
            for key, pairs, exps, degs in zip(*(combinations_with_replacement(t, n) for t in tables)):
                exponent_sum = sum(exps)
                degree_sum = sum(degs)
                ones = degs.count(1)
                checked += len(by_genus)
                for g, failed in enumerate(by_genus):
                    if _admissible_pattern(g, n, exponent_sum, degree_sum, ones, delta):
                        skipped += 1
                        continue
                    try:
                        value = constant_map_correlator(g, pairs, model, None)
                    except TautTableError:
                        failed.append(f"{model.name} g={g} pattern {key}: table requested outside the admissible cases")
                        continue
                    # the screen returns one shared zero; any other value takes the full test
                    if value is not _ZERO and value != 0:
                        failed.append(f"{model.name} g={g} pattern {key}: nonzero {value}")
        for failed in by_genus:
            failures.extend(failed)
    dims = [model.dimension for model in models]
    span = f" (dimensions {min(dims)}..{max(dims)})" if dims else ""
    scope = f"model {models[0].name} (dimension {dims[0]})" if len(models) == 1 else f"{len(models)} models{span}"
    head = [
        f"checked {checked} patterns over {scope}",
        f"admissible patterns skipped: {skipped}",
    ]
    return _verdict("point-vanishing", head, failures, checked - skipped)


def _admissible_pattern(g: int, n: int, exponent_sum: int, degree_sum: int, ones: int, delta: int) -> bool:
    """Whether a constant-map pattern of n insertions at genus g can be nonzero on a
    target of dimension ``delta``, read from its integer counts: the exponent sum,
    the degree sum and the number of degree-1 insertions.

    This restates the integer dimension screen of
    :func:`gwdesc.moduli.constant_map_correlator`, so for the patterns it rules out
    the scan checks the screen against a copy of itself (and, at genus 1, that no
    table entry is asked for).  ROADMAP item 7, which makes the scan check
    something the screen does not already say, will narrow it to the patterns
    the scan then still skips.
    """
    if g == 0:
        return n >= 3 and exponent_sum == n - 3 and degree_sum == delta
    if g == 1:
        if n < 1:
            return False
        if exponent_sum == n and degree_sum == 0:
            return True
        return exponent_sum == n - 1 and degree_sum == 1 and ones == 1
    if delta > 3:
        return False
    return degree_sum <= delta and exponent_sum + degree_sum == (g - 1) * (3 - delta) + n


def suite_determinism(model: GeometryModel, primary: PrimaryTable, qmax: int = 2) -> SuiteResult:
    """Byte-identical reports on repeat; cache on and off agree."""
    first = suite_identities(model, primary, count=40, qmax=qmax).render()
    second = suite_identities(model, primary, count=40, qmax=qmax).render()
    failures = [] if first == second else ["repeated identity suite reports differ"]
    cached = CorrelatorEngine(model, primary)
    uncached = CorrelatorEngine(model, primary, use_cache=False)
    policy = model.policy(qmax, max_x_degree=3, max_descendant=2)
    basis = [model.basis_class(i) for i in range(model.rank)]
    mismatch = 0
    checked = 0
    for beta in policy.iter_effective():
        for key in combinations_with_replacement([(d, a) for d in range(3) for a in range(model.rank)], 3):
            pairs = [(d, basis[a]) for d, a in key]
            checked += 1
            if cached.descendant(0, beta, pairs) != uncached.descendant(0, beta, pairs):
                mismatch += 1
    if mismatch:
        failures.append(f"cache on/off disagreed on {mismatch} queries")
    head = [
        f"report stability: {'ok' if first == second else 'broken'}",
        f"cache transparency: {checked} queries compared",
    ]
    return _verdict("determinism", head, failures, checked)


# ----------------------------------------------------------------------

# What a suite needs of its model, read by ``require_applicable`` only; a suite not named here checks any model.
NEEDS: dict[str, tuple[str, Callable[[GeometryModel], bool]]] = {
    "point-oracle": ("a zero-dimensional model", lambda m: m.dimension == 0),
    "enumerative": ("a plane-shaped model (dimension 2, lattice rank 1 and a degree-2 class)",
                    lambda m: (m.dimension, m.lattice_rank) == (2, 1) and 2 in m.degrees),
}


def require_applicable(name: str, model: GeometryModel) -> None:
    """The one applicability rule: a suite checks only the model it is given, so this raises
    ``ValueError`` ("suite NAME: needs …"), before any check runs, when ``name`` does not apply."""
    need = NEEDS.get(name)
    if need is not None and not need[1](model):
        raise ValueError(f"suite {name}: needs {need[0]}")


# Each runner takes the ``gwdesc verify`` window options and calls its suite with them.
SUITES: dict[str, Callable[..., SuiteResult]] = {
    "point-oracle": lambda model, primary, nmax, **_: suite_point_oracle(model, primary, nmax=nmax),
    "transform": lambda model, primary, qmax, xdeg, dmax, **_: suite_transform(model, primary, qmax, xdeg, dmax),
    "enumerative": lambda model, primary, qmax, **_: suite_enumerative(model, primary, dmax=min(4, max(2, qmax + 1))),
    "divisor-independence": lambda model, primary, qmax, dmax, **_: suite_divisor_independence(model, primary, qmax, dmax),
    "identities": lambda model, primary, qmax, count, seed, **_: suite_identities(model, primary, count, seed, qmax),
    "two-point-paths": lambda model, primary, qmax, dmax, **_: suite_two_point_paths(model, primary, qmax, dmax),
    "degree-zero-collapse": lambda model, primary, **_: suite_degree_zero_collapse(model, primary),
    "point-vanishing": lambda model, primary, **_: suite_point_vanishing([model]),
    "determinism": lambda model, primary, qmax, **_: suite_determinism(model, primary, qmax=min(qmax, 2)),
}
SUITE_NAMES = tuple(SUITES)


def run_suite(
    name: str,
    model: GeometryModel,
    primary: PrimaryTable,
    qmax: int = 3,
    xdeg: int = 4,
    dmax: int = 3,
    nmax: int = 7,
    count: int = 200,
    seed: int = 20240801,
) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}")
    require_applicable(name, model)
    return SUITES[name](model, primary, qmax=qmax, xdeg=xdeg, dmax=dmax, nmax=nmax, count=count, seed=seed)
