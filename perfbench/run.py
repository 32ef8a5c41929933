"""gwdesc benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload p2-transform --seed 1 --seconds 30 --trace 0

Timed mode (``--trace 0``) first starts a few interpreters that only set up,
then runs jobs one after another, each in a fresh interpreter started only
after the previous one ended, while another job still fits in ``--seconds``
(at least three jobs).  Set-up and solve times are scaled to the host's
reference speed, measured during each job (``hostspeed.py``).  It prints the
median of each end-to-end metric with its quartiles and sample count, the
unscaled wall times beside them, and checks every job's outputs.

Traced mode (``--trace 1``) runs one untraced job, two traced jobs whose
exact counts must agree, and the recursion-depth probe, then prints the
per-layer metrics.  Spans go to ``.perfbench_out/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
MIN_JOBS = 3
SETUP_ONLY_SAMPLES = 16
JOB_TIMEOUT_S = 60
# stop starting jobs once this much of the 180 s budget of a run is spent
START_DEADLINE_S = 100
PROBE_LADDER = (160, 180, 200, 240, 300)
# traced metrics of these types are exact counts (None: the target is gone)
COUNT_TYPES = (int, type(None))


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result (no library, no job output)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # the preflight import writes the bytecode cache, as installing the
    # package does, so every job's set-up reads compiled modules
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_job(request: dict) -> dict | None:
    """One job in a fresh interpreter; None when it printed no result."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "job.py")],
            input=json.dumps(request),
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=child_env(),
            timeout=JOB_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"job {request['workload']} timed out after {JOB_TIMEOUT_S} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def preflight() -> None:
    """Fail before any run when the library is not importable from src/."""
    if not (ROOT / "src" / "gwdesc" / "__init__.py").is_file():
        raise BenchmarkError(f"no gwdesc package under {ROOT / 'src'}")
    proc = subprocess.run(
        [sys.executable, "-c", "import gwdesc.cli"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=child_env(),
        timeout=JOB_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"cannot import gwdesc: {proc.stderr.strip()}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def tally(result: dict | None) -> tuple[int, int]:
    """(attempted, failed) checks of one job; a job without output is one failure."""
    if result is None:
        return 1, 1
    return len(result["checks"]), sum(not ok for _, ok in result["checks"])


def report_failures(result: dict | None) -> None:
    for name, ok in (result or {}).get("checks", []):
        if not ok:
            print(f"  FAILED check: {name}")


def timed_run(request: dict, seconds: float) -> tuple[dict, int, int]:
    start = time.perf_counter()
    # times scaled to the host's reference speed; traced runs leave this off,
    # because the bursts' Fractions would count in exact.fraction_new.calls
    request = {**request, "host_speed": True}
    # set-up alone, a few more times, so that its median rests on more samples
    setups = [run_job({**request, "setup_only": True}) for _ in range(SETUP_ONLY_SAMPLES)]
    results: list[dict] = []
    durations: list[float] = []
    attempted = failed = jobs = 0
    while jobs < MIN_JOBS or time.perf_counter() - start + statistics.median(durations) <= seconds:
        if jobs and time.perf_counter() - start > START_DEADLINE_S:
            break
        began = time.perf_counter()
        result = run_job(request)
        durations.append(time.perf_counter() - began)
        jobs += 1
        done, bad = tally(result)
        attempted += done
        failed += bad
        report_failures(result)
        if result is not None:
            results.append(result)
    if not results:
        raise BenchmarkError("no job printed a result")
    elapsed = time.perf_counter() - start
    print(
        f"closed loop, 1 client: {jobs} jobs in {elapsed:.1f} s, each in a fresh interpreter "
        f"started after the previous one ended"
    )
    set_ups = [r for r in results + setups if r is not None]
    samples = {
        "setup_s": [r["setup_s"] for r in set_ups],
        "solve_s": [r["solve_s"] for r in results],
        "peak_rss_mib": [r["peak_rss_mib"] for r in results],
        "setup_wall_s": [r["setup_wall_s"] for r in set_ups],
        "solve_wall_s": [r["solve_wall_s"] for r in results],
    }
    metrics = {}
    for (name, values), unit in zip(samples.items(), ("s", "s", "MiB", "s", "s")):
        q1, median, q3 = quartiles(values)
        print(
            f"  {name:<13} {unit:<3} median {median:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
            f"min {min(values):.4f}  ({len(values)} samples)"
        )
        if not name.endswith("_wall_s"):
            metrics[name] = median
    print("  setup_s and solve_s are scaled to the host's reference speed; *_wall_s are unscaled")
    print(
        "  solve_s is one sample per job (a batch job), so no percentile above the median "
        f"has ten samples beyond it at {len(samples['solve_s'])} samples; the median is reported"
    )
    print(f"  verify.checks {results[0]['verify_checks']} identities compared per job")
    return metrics, attempted, failed


def traced_run(request: dict, workload: str, seed: int) -> tuple[dict, int, int]:
    OUT_DIR.mkdir(exist_ok=True)
    untraced = run_job(request)
    traced = []
    for k in (1, 2):
        run_id = f"{workload}-seed{seed}-traced{k}"
        spans = OUT_DIR / f"{workload}.traced{k}.spans.jsonl"
        traced.append(run_job({**request, "trace": True, "run_id": run_id, "spans_path": str(spans)}))
    probe = run_job({"workload": "depth-probe", "inputs": {"ladder": list(PROBE_LADDER)}})
    attempted = failed = 0
    for result in [untraced, *traced]:
        done, bad = tally(result)
        attempted += done
        failed += bad
        report_failures(result)
    if untraced is None or None in traced:
        raise BenchmarkError("a job printed no result")

    first, second = (t["layers"] for t in traced)
    differing = [
        name
        for name, value in first.items()
        if isinstance(value, COUNT_TYPES) and value != second.get(name)
    ]
    attempted += 1
    if differing:
        failed += 1
        print(f"  FAILED check: counts differ between the two traced runs: {', '.join(differing)}")
    else:
        print("  counts identical across the two traced runs")

    metrics: dict = {}
    for name, value in first.items():
        if isinstance(value, COUNT_TYPES):
            metrics[name] = value
        else:
            metrics[name] = statistics.median([value, second[name]])
    metrics["engine.deep_ok_beta"] = probe["deep_ok_beta"] if probe else None
    metrics["verify.checks"] = traced[0]["verify_checks"]
    metrics["cli.render.bytes"] = traced[0]["render_bytes"]
    traced_solve = statistics.median([t["solve_s"] for t in traced])
    metrics["trace.solve_s"] = traced_solve
    metrics["trace.untraced_solve_s"] = untraced["solve_s"]
    metrics["trace.overhead"] = traced_solve / untraced["solve_s"]
    print(
        f"  tracing overhead: traced solve_s {traced_solve:.4f} s against untraced "
        f"{untraced['solve_s']:.4f} s ({metrics['trace.overhead']:.2f}x)"
    )
    print(f"  spans written to {OUT_DIR.relative_to(ROOT)}/{workload}.traced{{1,2}}.spans.jsonl")
    return metrics, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        preflight()
        digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
        request = {
            "workload": args.workload,
            "inputs": workloads.generate(args.workload, args.seed),
            "digests": digests.get(args.workload, {}),
        }
        print(f"gwdesc benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
        if args.trace:
            values, attempted, failed = traced_run(request, args.workload, args.seed)
            listed = spec["per_layer"]
        else:
            values, attempted, failed = timed_run(request, args.seconds)
            listed = spec["end_to_end"]
    except (BenchmarkError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    names = [m["name"] for m in listed]
    if set(names) != set(values):
        print(f"error: metrics {sorted(set(values) ^ set(names))} disagree with BENCHMARK.json", file=sys.stderr)
        return 2
    for m in listed:
        if values[m["name"]] is None:
            print(f"  {m['name']}: missing (its target is gone from the library)")
    print(f"  fail_ratio    {failed}/{attempted} = {failed / attempted:.4g} ratio")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
