"""Acceptance gate: every criterion as one test with a printed verdict.

All comparisons are exact (Fraction equality or literal series equality);
the time bounds are generous ceilings, asserted to keep the suite honest
about the desk-scale promise.  Run with ``pytest tests/test_acceptance.py -v -s``
to see one line per criterion.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import product

import pytest

from gwdesc import CorrelatorEngine, plane_curve_counts
from gwdesc.moduli import psi_integral_genus0
from gwdesc.phase import summed_correlator, transform_identity_report, two_point_from_primaries
from gwdesc.verify import (
    suite_degree_zero_collapse,
    suite_determinism,
    suite_divisor_independence,
    suite_identities,
    suite_point_vanishing,
)


def _verdict(number: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {text}")
    assert ok, text


def test_criterion_1_point_oracle(point_engine, point):
    """Boundary splitting equals the multinomial form, all vectors n <= 7."""
    start = time.time()
    one = point.model.unit
    checked = 0
    ok = True
    for n in range(3, 8):
        for exps in product(range(n - 2), repeat=n):
            if sum(exps) > n - 3:
                continue
            got = point_engine.modified((), [(e, one) for e in exps])
            want = psi_integral_genus0(list(exps))
            checked += 1
            if got != want:
                ok = False
    elapsed = time.time() - start
    ok = ok and elapsed < 5.0
    _verdict(1, ok, f"point-target oracle, {checked} exponent vectors, {elapsed:.2f}s (< 5s)")


def test_criterion_2_potential_transform(p1_engine, p2_engine, p1, p2):
    """Standard potential equals the composed modified potential, exactly."""
    start = time.time()
    ok = True
    details = []
    for engine, fixture in ((p1_engine, p1), (p2_engine, p2)):
        policy = fixture.model.policy(3, max_x_degree=4, max_descendant=3)
        report = transform_identity_report(engine, policy)
        ok = ok and report.ok
        details.append(f"{fixture.model.name}: {report.checked_keys} coefficients")
    elapsed = time.time() - start
    ok = ok and elapsed < 60.0
    _verdict(2, ok, f"coordinate-change identity, {'; '.join(details)}, {elapsed:.2f}s (< 60s)")


def test_criterion_3_enumerative(p2_engine, p2):
    """Engine-summed plane correlators reproduce the curve counts."""
    start = time.time()
    oracle = plane_curve_counts(4)
    point_class = p2.model.class_from_map({"h2": 1})
    ok = True
    for d in (2, 3, 4):
        got = p2_engine.primary((d,), [point_class] * (3 * d - 1))
        if got != oracle[d]:
            ok = False
    elapsed = time.time() - start
    ok = ok and elapsed < 30.0
    _verdict(3, ok, f"plane counts 1, 12, 620 match the associativity oracle, {elapsed:.2f}s (< 30s)")


def test_criterion_4_divisor_independence(p2):
    """Reductions agree literally for the ample divisor and its triple."""
    result = suite_divisor_independence(p2.model, p2.primary, qmax=3, dmax=3)
    _verdict(4, result.ok, result.lines[0])


def test_criterion_5_identity_suites(p1, p2):
    """200+ randomized queries per fixture through every relation check."""
    ok = True
    totals = []
    for fixture in (p1, p2):
        result = suite_identities(fixture.model, fixture.primary, count=200, qmax=3)
        ok = ok and result.ok
        totals.append(f"{fixture.model.name} ok" if result.ok else f"{fixture.model.name} FAILED")
    _verdict(5, ok, f"randomized identity battery: {', '.join(totals)}")


def test_criterion_6_two_point_path_equivalence(p1, p2):
    """Engine-route series equal the primary-table closed form."""
    ok = True
    checked = 0
    for fixture in (p1, p2):
        model = fixture.model
        policy = model.policy(3)
        engine = CorrelatorEngine(model, fixture.primary)
        basis = [model.basis_class(i) for i in range(model.rank)]
        for d in range(4):
            for x in basis:
                for y in basis:
                    checked += 1
                    if summed_correlator(engine, [(d, 0, x), (0, 0, y)], policy) != two_point_from_primaries(
                        model, fixture.primary, policy, d, x, y
                    ):
                        ok = False
    _verdict(6, ok, f"two-point series agree along both routes ({checked} series)")


def test_criterion_7_degree_zero_collapse(p1, p2):
    """Mixed powers at class zero equal the merged-level constant maps."""
    ok = True
    counts = []
    for fixture in (p1, p2):
        result = suite_degree_zero_collapse(fixture.model, fixture.primary, nmax=5)
        ok = ok and result.ok
        counts.append(result.lines[0])
    _verdict(7, ok, "; ".join(counts))


def test_criterion_8_constant_map_vanishing():
    """Exhaustive scan confirms zero outside the admissible cases."""
    result = suite_point_vanishing()
    _verdict(8, result.ok, "; ".join(result.lines[:2]))


def test_criterion_9_determinism(p1, p2):
    """Byte-identical reports on repeat; cache on and off agree."""
    ok = True
    for fixture in (p1, p2):
        result = suite_determinism(fixture.model, fixture.primary, qmax=2)
        ok = ok and result.ok
    _verdict(9, ok, "repeated suites byte-identical, cache transparent")
