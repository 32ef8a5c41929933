"""Built-in geometries (projective line, projective plane, point).

The fixture data lives in JSON files with the same schema a user would
supply; the plane's primary table is cross-checked against the classical
associativity recursion for rational plane curve counts, which acts as the
independent oracle for everything enumerative in the test suite.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb
from pathlib import Path

from .engine import PrimaryTable
from .geometry import GeometryModel, ModelError
from .moduli import TautTable

FIXTURE_NAMES = ("P1", "P2", "point")


class FixtureModel:
    __slots__ = ("model", "primary")

    def __init__(self, model: GeometryModel, primary: PrimaryTable) -> None:
        self.model, self.primary = model, primary


_DATA = Path(__file__).with_name("data")


def _data_text(filename: str) -> str:
    return (_DATA / filename).read_text(encoding="utf-8")


def load_fixture(name: str) -> FixtureModel:
    """Load a built-in geometry with its primary table.  The fixture files ship with the
    package, so they are validated by the tests, not at every load."""
    if name not in FIXTURE_NAMES:
        raise ModelError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    stem = name.lower()
    model = GeometryModel.from_dict(json.loads(_data_text(f"{stem}.geometry.json")))
    try:
        rows = json.loads(_data_text(f"{stem}.primary.json"))
    except FileNotFoundError:
        rows = []
    primary = PrimaryTable.from_records(model, rows)
    return FixtureModel(model=model, primary=primary)


def genus1_taut_table() -> TautTable:
    """Small table of genus-1 psi and lambda-psi integrals (n <= 2)."""
    return TautTable.from_records(json.loads(_data_text("taut.genus1.json")))


def plane_curve_counts(dmax: int) -> dict[int, Fraction]:
    """Counts of rational plane curves of degree d through 3d-1 points.

    The classical recursion coming from associativity of the quantum
    product, seeded with a single line through two points.  Used only as an
    oracle: it is independent of the correlator engine.
    """
    if dmax < 1:
        raise ValueError("need dmax >= 1")
    counts: dict[int, Fraction] = {1: Fraction(1)}
    for d in range(2, dmax + 1):
        total = Fraction(0)
        for d1 in range(1, d):
            d2 = d - d1
            total += (
                counts[d1]
                * counts[d2]
                * d1 ** 2
                * d2
                * (d2 * comb(3 * d - 4, 3 * d1 - 2) - d1 * comb(3 * d - 4, 3 * d1 - 1))
            )
        counts[d] = total
    return counts

