"""One benchmark job in a fresh interpreter.

Reads a request (workload, generated inputs, expected digests, trace and
host-speed flags) as JSON on standard input and prints one JSON result line:
set-up and solve seconds (scaled to the host's reference speed when the
request asks for it, see ``hostspeed.py``) and their wall seconds, peak
resident memory, and every check with its outcome.  ``run.py``
starts one of these per job; run it by hand as

    echo '{"workload": "two-point-paths", "inputs": {"qmax": 1, "dmax": 1}}' \
        | PYTHONPATH=src python3 perfbench/job.py
"""

from __future__ import annotations

import json
import re
import resource
import sys
import time
import traceback
from fractions import Fraction
from math import factorial

import dumps
import hostspeed

FIXTURE = {
    "p2-transform": "P2",
    "constant-maps": "point",
    "two-point-paths": "P2",
    "unstable-deep": "P1",
}


class Outcome:
    """Checks made by one job, and what it rendered."""

    def __init__(self, expected_digests: dict[str, str]) -> None:
        self.expected = expected_digests
        self.checks: list[list] = []
        self.verify_checks = 0
        self.render_bytes = 0
        self.digests: dict[str, str] = {}

    def check(self, name: str, ok: bool) -> None:
        self.checks.append([name, bool(ok)])

    def digest(self, name: str, data: bytes) -> None:
        self.digests[name] = dumps.digest(data)
        self.check(f"digest {name}", self.digests[name] == self.expected.get(name))

    def suite(self, result) -> None:
        """A verify suite: its verdict, its report digest and its size."""
        self.check(f"suite {result.name}", result.ok)
        self.digest(f"report {result.name}", result.render().encode("utf-8"))
        match = re.match(r"checked (\d+)", result.lines[0]) if result.lines else None
        if match:
            self.verify_checks += int(match.group(1))


def p2_transform(fixture, inputs: dict, out: Outcome) -> None:
    from gwdesc import CorrelatorEngine, phase

    model, primary = fixture.model, fixture.primary
    qmax, xdeg, dmax = inputs["qmax"], inputs["xdeg"], inputs["dmax"]
    keys = [tuple(tuple(idx) for idx in key) for key in inputs["substitution_keys"]]
    engine = CorrelatorEngine(model, primary)
    policy = model.policy(qmax, max_x_degree=xdeg, max_descendant=dmax)
    report = phase.transform_identity_report(engine, policy, substitution_keys=keys)
    out.check("standard potential = modified potential composed with the transform", not report.potential_mismatches)
    out.check("substitution identity on the seeded keys", not report.substitution_mismatches)
    out.verify_checks += report.checked_keys + report.substitution_checked
    # the dumps `gwdesc potential` and `gwdesc transform` would write
    standard = phase.potential_standard(engine, policy)
    modified = phase.potential_modified(engine, policy)
    transform = phase.build_transform(engine, model.policy(qmax, max_descendant=dmax))
    inverse = transform.inverse()
    out.check("inverse composes to the identity", transform.compose(inverse).is_identity())
    out.verify_checks += 1
    for name, payload in (
        ("potential-standard", dumps.potential_payload(model, "standard", qmax, xdeg, dmax, standard)),
        ("potential-modified", dumps.potential_payload(model, "modified", qmax, xdeg, dmax, modified)),
        ("transform", dumps.transform_payload(model, qmax, dmax, transform, inverse)),
    ):
        data = dumps.render(payload)
        out.render_bytes += len(data)
        out.digest(name, data)


def constant_maps(fixture, inputs: dict, out: Outcome) -> None:
    from gwdesc import verify

    out.suite(verify.suite_point_vanishing())
    out.suite(verify.suite_point_oracle(fixture.model, fixture.primary, nmax=inputs["nmax"]))


def two_point_paths(fixture, inputs: dict, out: Outcome) -> None:
    from gwdesc import verify

    out.suite(verify.suite_two_point_paths(fixture.model, fixture.primary, qmax=inputs["qmax"], dmax=inputs["dmax"]))


def unstable_deep(fixture, inputs: dict, out: Outcome) -> None:
    """Unstable-range values on P1, one fresh engine per class.

    Closed form on P1: <tau_{2b-2}(pt)>_b = 1/(b!)^2, and by the divisor
    relation the two-point value <tau_{2b-2}(pt) pt>_b is b times that.
    """
    from gwdesc import CorrelatorEngine

    model, primary = fixture.model, fixture.primary
    point = model.class_from_map({"h": 1})
    for beta in inputs["ladder"]:
        engine = CorrelatorEngine(model, primary)
        level = 2 * beta - 2
        want = Fraction(1, factorial(beta) ** 2)
        two = engine.two_point(level, point, point, (beta,))
        divisor = engine.one_point(level, point, (beta,), route="divisor")
        dilaton = engine.one_point(level, point, (beta,), route="dilaton")
        out.check(f"beta {beta}: two-point value against the closed form", two == beta * want)
        out.check(f"beta {beta}: divisor route equals dilaton route", divisor == dilaton)
        out.check(f"beta {beta}: one-point value against the closed form", divisor == want)
        out.verify_checks += 3


JOBS = {
    "p2-transform": p2_transform,
    "constant-maps": constant_maps,
    "two-point-paths": two_point_paths,
    "unstable-deep": unstable_deep,
}


def depth_probe(ladder: list[int]) -> int:
    """Largest class on the ladder whose P1 two-point chain evaluates at the
    default recursion limit; stops at the first rung that fails."""
    from gwdesc import CorrelatorEngine, load_fixture

    fixture = load_fixture("P1")
    point = fixture.model.class_from_map({"h": 1})
    best = 0
    for beta in ladder:
        try:
            CorrelatorEngine(fixture.model, fixture.primary).two_point(2 * beta - 2, point, point, (beta,))
        except RecursionError:
            break
        best = beta
    return best


def measure(work, host_speed: bool) -> tuple[object, float, float]:
    """work()'s value, its seconds and its wall seconds; with host_speed the
    seconds are scaled to the host's reference speed (see hostspeed.py)."""
    if host_speed:
        with hostspeed.HostSpeed() as speed:
            value = work()
        return value, speed.scaled_s, speed.wall_s
    start = time.perf_counter()
    value = work()
    wall_s = time.perf_counter() - start
    return value, wall_s, wall_s


def set_up(request: dict):
    """Import the library and load the workload's fixture; (tracer, fixture)."""
    import gwdesc.fixtures

    tracer = None
    if request.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer(request.get("run_id", request["workload"]))
        tracer.install(extra=((dumps, "render", "cli.render"),))
    return tracer, gwdesc.fixtures.load_fixture(FIXTURE[request["workload"]])


def solve(fixture, request: dict, out: Outcome) -> None:
    try:
        JOBS[request["workload"]](fixture, request["inputs"], out)
    except Exception as exc:  # a failed job is a failed check, not a crash
        traceback.print_exc()
        out.check(f"exception {type(exc).__name__}: {exc}", False)


def main() -> int:
    request = json.loads(sys.stdin.read())
    workload = request["workload"]
    if workload == "depth-probe":
        print(json.dumps({"deep_ok_beta": depth_probe(request["inputs"]["ladder"])}))
        return 0
    host_speed = bool(request.get("host_speed"))
    (tracer, fixture), setup_s, setup_wall_s = measure(lambda: set_up(request), host_speed)
    if request.get("setup_only"):
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    out = Outcome(request.get("digests", {}))
    _, solve_s, solve_wall_s = measure(lambda: solve(fixture, request, out), host_speed)

    result = {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "setup_wall_s": setup_wall_s,
        "solve_wall_s": solve_wall_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks": out.checks,
        "verify_checks": out.verify_checks,
        "render_bytes": out.render_bytes,
        "digests": out.digests,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        if request.get("spans_path"):
            tracer.write(request["spans_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
