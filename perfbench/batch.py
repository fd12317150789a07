"""The batch workloads: whole apps simulated in this process.

``node-paper``
    The paper's three apps (matmul 16x16 tiles, Cholesky 16 blocks, PBPI
    60 generations x 16 blocks), all ``hyb``, under ``versioning`` on
    ``minotauro_node(12, 2)``: 6,892 tasks per iteration.  The versioning
    decision, profile update and dependence tracking do most of the work;
    there is no cluster and no service.
``cluster-sharded``
    16x16 ``hyb`` matmul on ``cluster_machine(16, 2 SMP + 1 GPU per
    node)`` under ``cluster`` with affinity partitioning and stealing:
    4,096 tasks and ~14.8k events per iteration, with cross-node transfers
    and notifications, while each per-node decision scores 3 workers.

The seed is the machine's noise seed.  Each app run is one "request":
build and simulate it (cold), then serialize and encode the result (the
work a cache replay repeats).  Apps and machines are rebuilt before each
run, outside the timed region.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from common import (
    OUT,
    HostSpeed,
    PER_LAYER,
    ROOT,
    SELF_TIME_SPANS,
    canonical,
    digest,
    log,
    median,
    peak_rss_mb,
    percentile,
    timed_setups,
)

#: a batch request answered later than this does not count as goodput
LATENCY_LIMIT_MS = 2000.0
#: set-up is timed in this many fresh processes; the median is reported
SETUP_REPEATS = 5


def _apps(workload: str) -> list[tuple[str, Callable[[], Any]]]:
    from repro.apps.cholesky import CholeskyApp
    from repro.apps.matmul import MatmulApp
    from repro.apps.pbpi import PBPIApp

    matmul = ("matmul", lambda: MatmulApp(n_tiles=16, variant="hyb"))
    if workload == "cluster-sharded":
        return [matmul]
    return [
        matmul,
        ("cholesky", lambda: CholeskyApp(n_blocks=16, variant="hyb")),
        ("pbpi", lambda: PBPIApp(generations=60, n_blocks=16, variant="hyb")),
    ]


def _machine(workload: str, seed: int) -> Any:
    from repro.sim.topology import cluster_machine, minotauro_node

    if workload == "cluster-sharded":
        return cluster_machine(16, smp_per_node=2, gpus_per_node=1, seed=seed)
    return minotauro_node(12, 2, seed=seed)


def _scheduler(workload: str) -> tuple[str, Optional[dict]]:
    if workload == "cluster-sharded":
        return "cluster", {"partition": "affinity", "steal": True}
    return "versioning", None


def build(workload: str, seed: int) -> list[tuple[str, Any, Any]]:
    """Fresh (name, app, machine) triples with cost models registered."""
    out = []
    for name, factory in _apps(workload):
        app = factory()
        machine = _machine(workload, seed)
        app.register_cost_models(machine)
        out.append((name, app, machine))
    return out


@dataclass
class AppRun:
    name: str
    run_s: float
    encode_s: float
    digest: str
    makespan: float
    tasks: int
    counters: dict
    stats: dict = field(default_factory=dict)


def run_app(workload: str, name: str, app: Any, machine: Any, validate: bool) -> AppRun:
    """Simulate one app (timed), then encode and digest its result (timed)."""
    from repro.runtime.runtime import OmpSsRuntime
    from repro.runtime.serialize import run_result_to_dict

    scheduler, options = _scheduler(workload)
    t0 = time.perf_counter()
    rt = OmpSsRuntime(machine, scheduler, scheduler_options=options)
    with rt:
        app.master(rt)
    result = rt.result()
    t1 = time.perf_counter()
    blob = canonical(run_result_to_dict(result))
    t2 = time.perf_counter()

    if validate:
        from repro.sanitizer.diagnostics import Severity
        from repro.sanitizer.invariants import validate_run

        errors = [d for d in validate_run(result) if d.severity is Severity.ERROR]
        if errors:
            raise AssertionError(f"{name}: validate_run reported {errors[0]}")

    cluster = getattr(result.scheduler_state, "stats", None)
    gpu_tasks = sum(
        int(s["tasks_run"]) for w, s in result.worker_stats.items() if "gpu" in w
    )
    counters = {
        "events": rt.engine.events_processed,
        "tasks": result.tasks_completed,
        "decisions": sum(sum(c.values()) for c in result.version_counts.values()),
        "dep_edges": sum(result.graph.edge_counts().values()),
        "transfers": result.transfer_stats.total_count,
        "bytes_moved": result.transfer_stats.total_bytes,
        "notifications": getattr(cluster, "notifications_sent", 0),
        "steals": getattr(cluster, "steals", 0),
        "trace_records": len(result.trace),
        "response_bytes": len(blob),
    }
    from repro.analysis.metrics import time_to_reliable_phase

    stats = {
        "gpu_tasks": gpu_tasks,
        "time_to_reliable": time_to_reliable_phase(result) or 0.0,
    }
    return AppRun(
        name, t1 - t0, t2 - t1, digest(blob),
        result.makespan, result.tasks_completed, counters, stats,
    )


class BatchRun:
    """Iterations of one batch workload, with the output checks."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.reference: dict[str, AppRun] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: set during the traced half: spans are tagged with the app run
        self.tracer: Optional[Any] = None

    def _fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(msg)
        log(f"[{self.workload}] FAIL {msg}")

    def iteration(self, *, first: bool = False) -> Optional[list[AppRun]]:
        """One iteration; None when any app run failed or mismatched."""
        runs = []
        ok = True
        for name, app, machine in build(self.workload, self.seed):
            self.attempted += 1
            if self.tracer is not None:
                self.tracer.set_rid(f"run{self.attempted}/{name}")
            try:
                run = run_app(self.workload, name, app, machine, validate=first)
            except Exception as exc:  # a failed run is counted, not fatal
                self._fail(f"{name}: {type(exc).__name__}: {exc}")
                ok = False
                continue
            if first:
                self.reference[name] = run
            else:
                ref = self.reference.get(name)
                if ref is None or run.digest != ref.digest:
                    self._fail(f"{name}: result digest differs from the first iteration")
                    ok = False
                elif run.counters != ref.counters:
                    self._fail(f"{name}: work counters differ from the first iteration")
                    ok = False
            runs.append(run)
        return runs if ok else None

    def loop(
        self, seconds: float, min_iterations: int, speed: Optional[HostSpeed] = None
    ) -> tuple[list[list[AppRun]], float, list[float]]:
        """Iterate for ``seconds``; returns the good iterations, the time
        spent in iterations (host-speed samples excluded) and, with
        ``speed``, each good iteration's host-speed factor from the passes
        just before and just after it (the host drifts within a run)."""
        iterations, factors = [], []
        busy = 0.0
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds or (
            len(iterations) < min_iterations and self.failed < 10
        ):
            t_it = time.perf_counter()
            runs = self.iteration()
            busy += time.perf_counter() - t_it
            if speed is not None:
                speed.sample()
            if runs is not None:
                iterations.append(runs)
                if speed is not None:
                    factors.append(speed.factor_of(speed.samples[-2:]))
        return iterations, busy, factors


def _tasks_per_s(iterations: list[list[AppRun]]) -> list[float]:
    return [sum(r.tasks for r in it) / sum(r.run_s for r in it) for it in iterations]


def _timings(iterations: list[list[AppRun]], factors: list[float]) -> dict:
    """The timing metrics, each iteration's times multiplied (its rate
    divided) by its host-speed factor."""
    scaled = [(r, f) for it, f in zip(iterations, factors) for r in it]
    req_ms = [(r.run_s + r.encode_s) * f * 1e3 for r, f in scaled]
    return {
        "tasks_per_s": median(x / f for x, f in zip(_tasks_per_s(iterations), factors)),
        "req_p50_ms": median(req_ms),
        "req_p90_ms": percentile(req_ms, 0.9),
        "cold_p50_ms": median(r.run_s * f * 1e3 for r, f in scaled),
        "hit_p50_ms": median(r.encode_s * f * 1e3 for r, f in scaled),
    }


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, BatchRun, dict]:
    speed = HostSpeed()
    speed.sample()
    t_setup = timed_setups(
        [sys.executable, "perfbench/setup_child.py", "--workload", workload,
         "--seed", str(seed)],
        SETUP_REPEATS,
    )
    speed.sample()
    bench = BatchRun(workload, seed)
    bench.iteration(first=True)  # warm-up, validation and the reference digests
    iterations, wall, factors = bench.loop(seconds, min_iterations=5, speed=speed)
    if not iterations:
        raise RuntimeError("no batch iteration completed")
    runs = [r for it in iterations for r in it]
    ok_runs = sum(1 for r in runs if (r.run_s + r.encode_s) * 1e3 <= LATENCY_LIMIT_MS)
    raw = {
        **_timings(iterations, [1.0] * len(iterations)),
        "sim_makespan_s": sum(r.makespan for r in bench.reference.values()),
        "goodput_rps": ok_runs / wall,
        "ok_frac": (bench.attempted - bench.failed) / bench.attempted,
        "setup_s": median(t_setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics = dict(raw, **_timings(iterations, factors))
    metrics["goodput_rps"] = raw["goodput_rps"] / speed.factor()
    info = {
        "raw": raw,
        "host_pass_s": speed.samples,
        "iterations": len(iterations),
        "iteration_tasks_per_s": [round(x) for x in _tasks_per_s(iterations)],
        "setup_samples_s": t_setup,
        "counters": {n: r.counters for n, r in bench.reference.items()},
        "digests": {n: r.digest for n, r in bench.reference.items()},
    }
    return metrics, bench, info


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, BatchRun, dict]:
    """Untraced half, then a traced half; per-layer numbers per task.

    The traced half's spans are written to ``perfbench/out``.
    """
    from probes import Probes, Tracer, install

    bench = BatchRun(workload, seed)
    bench.iteration(first=True)
    plain, _, _ = bench.loop(seconds / 2, min_iterations=3)
    tracer, probes = Tracer(), Probes()
    install(tracer, probes)
    bench.tracer = tracer
    try:
        spans_iters, _, _ = bench.loop(seconds / 2, min_iterations=2)
    finally:
        probes.uninstall()
    if not plain or not spans_iters:
        raise RuntimeError("no batch iteration completed")
    totals = tracer.totals()
    per_it_tasks = sum(r.tasks for r in spans_iters[0])
    tasks = per_it_tasks * len(spans_iters)
    decisions = sum(r.counters["decisions"] for r in spans_iters[0]) * len(spans_iters)
    traced_run_s = sum(r.run_s for it in spans_iters for r in it)
    self_s, calls, counts = totals["self_s"], totals["calls"], totals["counts"]

    out = {name: 0.0 for name in PER_LAYER}
    for metric_name, names in SELF_TIME_SPANS.items():
        out[metric_name] = sum(self_s.get(n, 0.0) for n in names) / tasks * 1e6
    ref = list(bench.reference.values())
    out.update({
        "core.capable_workers_per_decision": counts.get("core.capable_workers", 0) / decisions,
        "core.group_key_per_task": counts.get("core.group_key", 0) / tasks,
        "core.mean_time_per_decision": counts.get("core.mean_time", 0) / decisions,
        "core.gpu_task_frac": sum(r.stats["gpu_tasks"] for r in ref) / per_it_tasks,
        "core.time_to_reliable_sim_s": sum(r.stats["time_to_reliable"] for r in ref),
        "memory.transfers_per_task": sum(r.counters["transfers"] for r in ref) / per_it_tasks,
        "memory.mb_moved": sum(r.counters["bytes_moved"] for r in ref) / 1e6,
        "sim.events_per_task": counts.get("sim.events", 0) / tasks,
        "cluster.notifications": sum(r.counters["notifications"] for r in ref),
        "cluster.steals": sum(r.counters["steals"] for r in ref),
        "trace.residual_us": (traced_run_s - sum(self_s.values())) / tasks * 1e6,
        "trace.overhead_pct": (
            median(1 / x for x in _tasks_per_s(spans_iters))
            / median(1 / x for x in _tasks_per_s(plain)) - 1.0
        ) * 100.0,
    })
    engine_events = sum(r.counters["events"] for r in ref) * len(spans_iters)
    if counts.get("sim.events", 0) != engine_events:
        bench._fail(
            f"traced callbacks ({counts.get('sim.events', 0)}) != engine events ({engine_events})"
        )
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}.json"
    tracer.dump(str(spans))
    info = {
        "iterations_untraced": len(plain),
        "iterations_traced": len(spans_iters),
        "span_calls": dict(sorted(calls.items())),
        "spans_file": str(spans.relative_to(ROOT)),
        "counters": {n: r.counters for n, r in bench.reference.items()},
    }
    return out, bench, info
