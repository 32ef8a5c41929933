"""The traced benchmark reads every per-layer metric of BENCHMARK.json.

``perfbench/tracer.py`` wraps library functions by name, and a target that
no longer exists makes its metric read ``None``: the traced run then prints
no usable result.  Renaming or deleting a wrapped function fails here first.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import job  # noqa: E402
from gwdesc import CorrelatorEngine, phase  # noqa: E402

# per-layer metrics that perfbench/run.py adds to the tracer's own
RUN_METRICS = {
    "engine.deep_ok_beta",
    "verify.checks",
    "cli.render.bytes",
    "trace.solve_s",
    "trace.untraced_solve_s",
    "trace.overhead",
}


def test_every_per_layer_metric_has_a_live_target():
    listed = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]]
    # the traced job's set-up: the tracer installed with the job's extra render span
    tracer, fixture = job.set_up({"workload": "p2-transform", "trace": True, "run_id": "targets"})
    try:
        model = fixture.model
        engine = CorrelatorEngine(model, fixture.primary)
        policy = model.policy(1, max_x_degree=4, max_descendant=2)
        report = phase.transform_identity_report(engine, policy)
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert report.ok
    assert set(listed) - set(metrics) == RUN_METRICS
    assert [name for name in listed if name in metrics and metrics[name] is None] == []
    # the assembly wrapper calls _assemble positionally and saw every key of both potentials
    # the report built, so a potential that bypasses _assemble fails here
    indices = phase.phase_indices(policy, model.rank)
    keys = [phase._admissible_keys(engine, policy, indices, modified)[0] for modified in (False, True)]
    kept = [len(build(engine, policy).items()) for build in (phase.potential_standard, phase.potential_modified)]
    assert metrics["phase.assemble.keys"] == sum(map(len, keys))
    assert metrics["phase.assemble.kept"] == sum(kept) > 0
    assert metrics["engine.generalized.calls"] > 0
    # T is built by the primary-only route, whose quantum products the tracer sees
    assert metrics["phase.quantum_product.calls"] > 0
