"""Checks of the benchmark's own pieces.

The dump test shows that the bytes the benchmark hashes are the bytes
``gwdesc potential`` and ``gwdesc transform`` write, so a matching digest
means a byte-identical dump.
"""

from __future__ import annotations

import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import dumps  # noqa: E402
import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from gwdesc import CorrelatorEngine, load_fixture, phase  # noqa: E402
from gwdesc.cli import main  # noqa: E402


@pytest.mark.parametrize("which", ["standard", "modified"])
def test_potential_dump_bytes_match_cli(tmp_path, which):
    out = tmp_path / "potential.json"
    assert main(["potential", "--model", "P1", "--which", which, "--qmax", "1", "--xdeg", "3",
                 "--dmax", "2", "--out", str(out)]) == 0
    fixture = load_fixture("P1")
    engine = CorrelatorEngine(fixture.model, fixture.primary)
    policy = fixture.model.policy(1, max_x_degree=3, max_descendant=2)
    build = phase.potential_standard if which == "standard" else phase.potential_modified
    payload = dumps.potential_payload(fixture.model, which, 1, 3, 2, build(engine, policy))
    assert dumps.render(payload) == out.read_bytes()


def test_transform_dump_bytes_match_cli(tmp_path):
    out = tmp_path / "transform.json"
    assert main(["transform", "--model", "P1", "--qmax", "1", "--dmax", "2", "--out", str(out)]) == 0
    fixture = load_fixture("P1")
    engine = CorrelatorEngine(fixture.model, fixture.primary)
    transform = phase.build_transform(engine, fixture.model.policy(1, max_descendant=2))
    payload = dumps.transform_payload(fixture.model, 1, 2, transform, transform.inverse())
    assert dumps.render(payload) == out.read_bytes()


def test_generator_is_seeded():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 7) == workloads.generate(name, 7)
    keys = workloads.generate("p2-transform", 7)["substitution_keys"]
    assert len({str(key) for key in keys}) == workloads.P2_SUBSTITUTION_KEYS
    assert keys != workloads.generate("p2-transform", 8)["substitution_keys"]
    ladder = workloads.generate("unstable-deep", 7)["ladder"]
    assert len(set(ladder)) == 2 * workloads.LADDER_BANDS and max(ladder) <= workloads.LADDER_TOP


def test_tracer_counts_repeat_and_uninstall_restores():
    original_new = Fraction.__dict__["__new__"]
    original_descendant = CorrelatorEngine.descendant
    runs = []
    for run in range(2):
        trace = tracer.Tracer(f"test{run}")
        trace.install()
        try:
            fixture = load_fixture("P1")
            engine = CorrelatorEngine(fixture.model, fixture.primary)
            phase.potential_standard(engine, fixture.model.policy(1, max_x_degree=3, max_descendant=1))
        finally:
            trace.uninstall()
        runs.append({k: v for k, v in trace.metrics().items() if isinstance(v, int)})
    assert runs[0] == runs[1]
    assert runs[0]["engine.descendant.calls"] > 0 and runs[0]["engine.memo.g"] > 0
    assert Fraction.__dict__["__new__"] is original_new
    assert CorrelatorEngine.descendant is original_descendant


def test_host_speed_samples_and_restores_the_alarm_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed() as speed:
        deadline = time.perf_counter() + 3 * hostspeed.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(speed.samples) >= hostspeed.MIN_SAMPLES
    # bursts ran inside the block and are taken out of its time
    assert 0 < speed.inside_s < speed.wall_s and speed.scaled_s > 0
