"""Work counters of the versioning decision, and plan invalidation.

The scheduler caches a per-definition plan (runnable versions and their
capable workers), computes each task's size-group key once and reuses
each group's recorded means.  These deterministic call counts pin that
work down, so a change that silently brings back the per-scan key,
per-version ``capable_workers`` or per-decision ``mean_time`` calls
fails here rather than only in a timing benchmark.
"""

from __future__ import annotations

import collections
from contextlib import ExitStack
from unittest import mock

import repro.core.versioning as versioning
from repro.apps.cholesky import CholeskyApp
from repro.apps.matmul import MatmulApp
from repro.core import grouping
from repro.core.profile import SizeGroupProfile
from repro.core.versioning import VersioningScheduler
from repro.resilience import FaultPlan, WorkerFailure
from repro.runtime.runtime import OmpSsRuntime
from repro.schedulers.base import Scheduler
from repro.sim.devices import DeviceKind
from repro.sim.topology import minotauro_node
from tests.conftest import make_machine, make_two_version_task, region


def counted(calls: collections.Counter, owner, attr: str, name: str):
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    return mock.patch.object(owner, attr, wrapper)


def run_apps(fault_plan_for=None):
    """Hyb matmul 6x6 plus Cholesky 8 blocks under ``versioning`` on a
    4 SMP + 2 GPU node; returns (results, call counts)."""
    calls: collections.Counter = collections.Counter()
    results = []
    with ExitStack() as stack:
        stack.enter_context(counted(calls, grouping.ExactSizeGrouping, "key", "key"))
        stack.enter_context(counted(calls, Scheduler, "capable_workers", "capable"))
        stack.enter_context(counted(calls, SizeGroupProfile, "mean_time", "mean"))
        for app in (MatmulApp(n_tiles=6, variant="hyb"), CholeskyApp(n_blocks=8, variant="hyb")):
            machine = minotauro_node(4, 2, seed=3)
            app.register_cost_models(machine)
            plan = fault_plan_for(app) if fault_plan_for else None
            rt = OmpSsRuntime(machine, "versioning", fault_plan=plan)
            with rt:
                app.master(rt)
            results.append(rt.result())
    return results, calls


def test_decision_work_per_task_and_per_decision():
    results, calls = run_apps()
    tasks = sum(r.tasks_completed for r in results)
    decisions = sum(sum(c.values()) for r in results for c in r.version_counts.values())
    assert tasks == decisions == 216 + 120
    # Today: 341 key calls (1.01 per task), 8 capable_workers calls
    # (0.024 per decision: one per version per definition) and 344
    # mean_time calls (1.02 per decision: one re-read per recorded
    # run).  Before the decision kernel the same runs made 23.6, 9.8
    # and 5.7 of them.
    assert calls["key"] / tasks <= 1.1
    assert calls["capable"] / decisions <= 0.05
    assert calls["mean"] / decisions <= 1.1


def test_dead_gpus_drop_the_gpu_version_from_the_plan():
    # matmul: every tile task keeps an SMP version (Cholesky's
    # GPU-only kernels could not survive losing both GPUs)
    baseline, _ = run_matmul(None)
    at = 0.4 * baseline.makespan
    fault_plan = FaultPlan(
        worker_failures=(WorkerFailure("gpu0", at), WorkerFailure("gpu1", at))
    )
    cuda = DeviceKind.parse("cuda")
    gpus: list = []
    seen: list = []  # (both GPUs dead, plan versions, chosen worker, its liveness)
    real = versioning.decide

    def recording_decide(plan, group, means, busy, now, **kw):
        got = real(plan, group, means, busy, now, **kw)
        if got is not None:
            dead = not any(g.alive for g in gpus)
            seen.append((dead, plan.versions, got[1], got[1].alive))
        return got

    with mock.patch.object(versioning, "decide", recording_decide):
        result, calls = run_matmul(fault_plan, gpus)
    assert result.tasks_completed == baseline.tasks_completed == 216
    assert result.resilience.worker_failures == 2
    # no decision ever targets a dead worker
    assert all(alive for *_, alive in seen)
    late = [(versions, w) for dead, versions, w, _ in seen if dead]
    assert len(late) > 20
    # once both GPUs are dead the cached plan is rebuilt without the
    # CUDA versions, as if the machine had no GPU
    for versions, w in late:
        assert [v.name for v in versions] == ["matmul_tile_cblas"]
        assert w.device.kind is not cuda
    # the rebuilds are the only extra capable_workers work: one call
    # per version per liveness change (3 versions, 2 deaths)
    assert calls["capable"] == 3 + 3 + 3


def run_matmul(fault_plan, gpus=None):
    """Hyb matmul 6x6 on the same node; ``gpus`` receives the run's GPU
    workers."""
    calls: collections.Counter = collections.Counter()
    with counted(calls, Scheduler, "capable_workers", "capable"):
        app = MatmulApp(n_tiles=6, variant="hyb")
        machine = minotauro_node(4, 2, seed=3)
        app.register_cost_models(machine)
        rt = OmpSsRuntime(machine, "versioning", fault_plan=fault_plan)
        if gpus is not None:
            gpus.extend(w for w in rt.workers if w.device.kind is DeviceKind.parse("cuda"))
        with rt:
            app.master(rt)
    return rt.result(), calls


def test_a_steal_during_dispatch_restarts_the_pump_scan():
    # a scheduler hook run inside a dispatch may edit the pool (the
    # cluster scheduler steals from task_started); the pump must not go
    # on with its stale snapshot of the pool
    machine = make_machine(2, 1)
    work, _ = make_two_version_task(machine=machine)
    sched = VersioningScheduler()
    rt = OmpSsRuntime(machine, sched)
    stolen: list = []
    real_dispatch = rt.dispatch

    def stealing_dispatch(t, worker, version):
        if not stolen and sched.pool_size() > 1:
            stolen.append(sched.steal_ready_task(lambda task: True))
            # hand it back later, as a thief that gave up would
            rt.engine.schedule_after(1e-4, lambda: sched.task_ready(stolen[0]))
        real_dispatch(t, worker, version)

    rt.dispatch = stealing_dispatch
    with rt:
        for i in range(12):
            work(region(("x", i)), region(("y", i)))
    assert stolen
    assert rt.result().tasks_completed == 12
