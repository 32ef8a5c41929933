"""Workload names and the seeded input generator.

The generator knows the shape of each job (the model, its truncation and,
where a workload has a free choice, what the seed picks) but never calls
the library: the job process receives only the inputs returned here.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement

DEFAULT_SEED = 20240801

# P2 at (qmax, xdeg, dmax) = (3, 5, 3): basis one, h, h2 of degrees 0, 1, 2;
# dimension 2 and c1 = 3h, so a key of n insertions can be nonzero only when
# its total degree sum(level + degree) equals 2 + 3*beta + n - 3 for some
# beta <= qmax.
P2_QMAX, P2_XDEG, P2_DMAX = 3, 5, 3
P2_DEGREES = (0, 1, 2)
P2_SUBSTITUTION_KEYS = 12

# unstable-deep: two mirrored rungs in each band of classes, low + o and
# high - o for a seeded offset o.  A rung's cost grows with the class; a
# mirrored pair's cost changes only to second order in o, so the seed barely
# moves the job's cost.
LADDER_TOP = 150
LADDER_BANDS = 5
LADDER_BAND_WIDTH = 10

# The vanishing scan and the point oracle at nmax 10; the two-point paths
# at qmax 6 through level 12 (9 class pairs x 13 levels = 117 series).
POINT_ORACLE_NMAX = 10
TWO_POINT_QMAX, TWO_POINT_DMAX = 6, 12

WORKLOADS = ("p2-transform", "constant-maps", "two-point-paths", "unstable-deep")


def _p2_admissible_keys() -> list[tuple[tuple[int, int], ...]]:
    indices = [(d, a) for d in range(P2_DMAX + 1) for a in range(len(P2_DEGREES))]
    keys = []
    for n in range(3, P2_XDEG + 1):
        for key in combinations_with_replacement(indices, n):
            if not any(d >= 1 for d, _ in key):
                continue
            total = sum(d + P2_DEGREES[a] for d, a in key)
            if any(total == 2 + 3 * beta + n - 3 for beta in range(P2_QMAX + 1)):
                keys.append(key)
    return keys


def generate(workload: str, seed: int) -> dict:
    """JSON-ready inputs of one job; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "p2-transform":
        keys = sorted(rng.sample(_p2_admissible_keys(), P2_SUBSTITUTION_KEYS))
        return {
            "qmax": P2_QMAX,
            "xdeg": P2_XDEG,
            "dmax": P2_DMAX,
            "substitution_keys": [[list(idx) for idx in key] for key in keys],
        }
    if workload == "constant-maps":
        # no free choice: the scan is exhaustive and the oracle enumerates
        # every exponent multiset, so the seed changes nothing
        return {"nmax": POINT_ORACLE_NMAX}
    if workload == "two-point-paths":
        # no free choice: every class pair at every level is compared
        return {"qmax": TWO_POINT_QMAX, "dmax": TWO_POINT_DMAX}
    if workload == "unstable-deep":
        ladder = []
        for band in range(LADDER_BANDS):
            high = LADDER_TOP - band * LADDER_BAND_WIDTH
            low = high - LADDER_BAND_WIDTH + 1
            offset = rng.randrange(LADDER_BAND_WIDTH // 2)
            ladder += [low + offset, high - offset]
        return {"ladder": sorted(ladder)}
    raise ValueError(f"unknown workload {workload!r}; available: {', '.join(WORKLOADS)}")
