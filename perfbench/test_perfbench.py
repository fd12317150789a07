"""The benchmark's own tests: determinism of its counters and its sensitivity.

Run from the repository root (they take several minutes and are not part
of the tier-1 suite)::

    python3 -m pytest perfbench -q

Each test runs ``perfbench/run.py`` in a subprocess, as the benchmark
is run for real.  The sensitivity tests inject extra cost into one public
function with ``--slowdown`` and check three things: the end-to-end gate
of the exercising workload fails, the traced run blames the right layer,
and a workload that bypasses the function stays inside its bounds.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import SELF_TIME_SPANS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUND = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}

#: extra cost per call, as a fraction of the call's own duration, sized
#: from each function's measured inclusive share of the workload so that
#: every injection adds roughly 50% to the workload's host time.  The
#: tasks_per_s bound (25%, set by the drift of host speed on small shared
#: boxes) is a rate bound: +30% time is only -23% rate, inside it.
END_TO_END_SLOWDOWN = {
    "core.task_ready": ("node-paper", 1.0),
    "runtime.dispatch": ("node-paper", 3.3),
    "sim.engine": ("cluster-sharded", 1.0),
}
#: the layer metric each target's extra cost lands in
BLAMED = {
    "core.task_ready": "core.task_ready_us",
    "runtime.dispatch": "runtime.dispatch_us",
    "sim.engine": "sim.engine_us",
}


def bench(workload: str, seed: int, seconds: float, trace: int = 0,
          slowdown: "str | None" = None) -> tuple[dict, dict]:
    """One benchmark run: (result line, info line)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if slowdown:
        cmd += ["--slowdown", slowdown]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    info = json.loads(next(line for line in lines if line.startswith("info "))[5:])
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr[-2000:]
    return result, info


def value(result: dict, name: str) -> float:
    return result["metrics"][name]["value"]


@pytest.mark.parametrize("workload", ["node-paper", "cluster-sharded"])
def test_counters_repeat_and_tracing_perturbs_nothing(workload):
    """Same seed -> same counters and digests; the traced run's too."""
    _, plain = bench(workload, 5, 2)
    _, again = bench(workload, 5, 2)
    _, traced = bench(workload, 5, 2, trace=1)
    assert plain["digests"] == again["digests"]
    assert plain["counters"] == again["counters"] == traced["counters"]


def test_service_counters_repeat():
    """Same seed -> same service work; ``--trace 1`` itself fails the run
    when its traced half does different work from its untraced half."""
    _, a = bench("service-mixed", 5, 4)
    _, b = bench("service-mixed", 5, 4)
    _, traced = bench("service-mixed", 5, 8, trace=1)
    assert a["counters"] == b["counters"] == traced["counters"]


@pytest.mark.parametrize("target", sorted(END_TO_END_SLOWDOWN))
def test_slowdown_fails_the_end_to_end_gate(target):
    workload, frac = END_TO_END_SLOWDOWN[target]
    base, slow = [], []
    for seed in (11, 12, 13):  # interleaved, so drift hits both sides
        base.append(value(bench(workload, seed, 6)[0], "tasks_per_s"))
        slow.append(value(bench(workload, seed, 6, slowdown=f"{target}:{frac}")[0],
                          "tasks_per_s"))
    worse = 1.0 - statistics.median(slow) / statistics.median(base)
    print(f"{target} on {workload}: tasks_per_s {base} -> {slow}, {worse:.1%} worse")
    assert worse > BOUND["tasks_per_s"], (target, base, slow)


@pytest.mark.parametrize("target", sorted(END_TO_END_SLOWDOWN))
def test_traced_run_blames_the_slowed_layer(target):
    """A genuine 30% slowdown of one function shows as its layer's self time."""
    workload = END_TO_END_SLOWDOWN[target][0]
    base, _ = bench(workload, 21, 6, trace=1)
    slow, _ = bench(workload, 21, 6, trace=1, slowdown=f"{target}:0.3")
    growth = {m: value(slow, m) / value(base, m) for m in SELF_TIME_SPANS if value(base, m) > 0}
    print(target, {m: round(g, 2) for m, g in growth.items()})
    assert max(growth, key=growth.get) == BLAMED[target], growth


def test_service_hits_bypass_a_scheduler_slowdown():
    """The cached path never enters the scheduler: ``hit_p50_ms`` holds
    while the same slowdown that fails node-paper's gate is injected."""
    target = "core.task_ready"
    frac = END_TO_END_SLOWDOWN[target][1]
    base, slow = [], []
    for seed in (31, 32, 33):
        base.append(bench("service-mixed", seed, 20)[0])
        slow.append(bench("service-mixed", seed, 20, slowdown=f"{target}:{frac}")[0])
    hit_base = statistics.median(value(r, "hit_p50_ms") for r in base)
    hit_slow = statistics.median(value(r, "hit_p50_ms") for r in slow)
    assert hit_slow <= hit_base * (1.0 + BOUND["hit_p50_ms"]), (hit_base, hit_slow)
    cold_base = statistics.median(value(r, "cold_p50_ms") for r in base)
    cold_slow = statistics.median(value(r, "cold_p50_ms") for r in slow)
    print(f"hit_p50_ms {hit_base:.2f} -> {hit_slow:.2f}, cold_p50_ms {cold_base:.1f} -> {cold_slow:.1f}")
    assert cold_slow > cold_base, (cold_base, cold_slow)
