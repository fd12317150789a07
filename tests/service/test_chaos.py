"""Service hardening under seeded fault injection.

The robustness claims of :mod:`repro.service` — supervised workers,
deadlines, the poisoned-submission breaker, graceful drain, journal
recovery, and retrying clients — each reproduced deterministically
under a :class:`ServiceFaultPlan`.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.service.chaos import (
    CachePersistRule,
    ConnectionFaultRule,
    FrameFaultRule,
    ServiceFaultPlan,
    WorkerCrashRule,
    WorkerStallRule,
)
from repro.service.client import (
    HarnessClient,
    RetryPolicy,
    ServiceClient,
    ServiceError,
)
from repro.service.loadgen import run_loadgen_sync, spec_pool
from repro.service.server import SchedulerService, ServiceConfig, ServiceHarness

SPEC = {
    "app": "matmul",
    "app_args": {"n_tiles": 2, "variant": "hyb"},
    "machine_args": {"n_smp": 2, "n_gpus": 1},
    "seed": 11,
}

#: A spec that deterministically fails at run time (not at spec
#: validation): GPU-only tasks on a machine with no GPUs cannot be
#: placed, so every run raises — exactly what the breaker quarantines.
POISON = {
    "app": "matmul",
    "app_args": {"n_tiles": 2, "variant": "gpu"},
    "machine_args": {"n_smp": 2, "n_gpus": 0},
    "seed": 11,
}


# ----------------------------------------------------------------------
# Plan and injector semantics
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_rules_that_can_never_fire_are_rejected(self):
        with pytest.raises(ValueError, match="never fire"):
            WorkerCrashRule()
        with pytest.raises(ValueError, match="never fire"):
            ConnectionFaultRule()
        with pytest.raises(ValueError, match="never fire"):
            FrameFaultRule()
        with pytest.raises(ValueError, match="never fire"):
            CachePersistRule()

    def test_probabilities_validated_eagerly(self):
        with pytest.raises(ValueError, match="probability"):
            WorkerCrashRule(probability=1.5)
        with pytest.raises(ValueError, match="exceed"):
            ConnectionFaultRule(drop=0.7, reset=0.7)
        with pytest.raises(ValueError, match="stall_s"):
            WorkerStallRule(stall_s=0.0, probability=0.5)
        with pytest.raises(ValueError, match="non-negative"):
            WorkerCrashRule(at_jobs=(-1,))
        with pytest.raises(ValueError, match="when"):
            ConnectionFaultRule(drop=0.5, when="sometimes")

    def test_plan_rejects_wrong_rule_kinds(self):
        with pytest.raises(ValueError, match="WorkerCrashRule"):
            ServiceFaultPlan(worker_crashes=(FrameFaultRule(corrupt=0.5),))

    def test_empty_plan_is_empty(self):
        assert ServiceFaultPlan().empty
        assert not ServiceFaultPlan(
            worker_crashes=(WorkerCrashRule(at_jobs=(0,)),)
        ).empty

    def test_injector_streams_are_deterministic(self):
        plan = ServiceFaultPlan(
            seed=42,
            worker_crashes=(WorkerCrashRule(probability=0.3),),
            frame_faults=(FrameFaultRule(corrupt=0.2, truncate=0.2),),
        )
        a, b = plan.injector(), plan.injector()
        seq_a = [a.worker_fault() for _ in range(50)] + [a.frame_fault() for _ in range(50)]
        seq_b = [b.worker_fault() for _ in range(50)] + [b.frame_fault() for _ in range(50)]
        assert seq_a == seq_b
        assert any(f is not None for f in seq_a)  # the seed actually fires

    def test_exact_ordinals_fire_exactly(self):
        plan = ServiceFaultPlan(
            worker_crashes=(WorkerCrashRule(at_jobs=(2,)),),
            connection_faults=(ConnectionFaultRule(at_requests=(1,), when="response"),),
        )
        inj = plan.injector()
        assert [inj.worker_fault() for _ in range(4)] == [
            None, None, ("crash", 0.0), None
        ]
        ordinals = [inj.request_ordinal() for _ in range(3)]
        assert ordinals == [0, 1, 2]
        assert inj.connection_fault("response", 0) is None
        assert inj.connection_fault("response", 1) == "drop"
        assert inj.connection_fault("request", 1) is None  # wrong point
        assert inj.counters()["fired"]["worker-crash"] == 1
        assert inj.counters()["fired"]["connection-drop"] == 1


# ----------------------------------------------------------------------
# Worker supervision
# ----------------------------------------------------------------------
def test_crashed_worker_fails_job_typed_and_is_replaced():
    plan = ServiceFaultPlan(worker_crashes=(WorkerCrashRule(at_jobs=(0,)),))
    with ServiceHarness(ServiceConfig(workers=2, fault_plan=plan)) as h:
        client = HarnessClient(h, tenant="crash")
        with pytest.raises(ServiceError) as err:
            client.submit(SPEC)
        assert err.value.code == "internal-error"
        # the pool healed: the next submission runs on a replacement
        assert client.submit(SPEC).result().tasks_completed == 8
        health = client.health()
        assert health["workers"]["replaced"] >= 1
        assert health["workers"]["live"] == health["workers"]["configured"] == 2


def test_worker_stall_fault_delays_but_completes():
    plan = ServiceFaultPlan(worker_stalls=(WorkerStallRule(stall_s=0.2, at_jobs=(0,)),))
    with ServiceHarness(ServiceConfig(workers=1, fault_plan=plan)) as h:
        client = HarnessClient(h, tenant="stall")
        t0 = time.perf_counter()
        outcome = client.submit(SPEC)
        assert time.perf_counter() - t0 >= 0.2
        assert outcome.result().tasks_completed == 8


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
def test_deadline_exceeded_while_queued_is_typed():
    # a stalled worker holds the only slot past the job's budget
    plan = ServiceFaultPlan(worker_stalls=(WorkerStallRule(stall_s=0.3, at_jobs=(0,)),))
    with ServiceHarness(ServiceConfig(workers=1, fault_plan=plan)) as h:
        client = HarnessClient(h, tenant="deadline")
        with pytest.raises(ServiceError) as err:
            client.submit(dict(SPEC, deadline_s=0.05))
        assert err.value.code == "deadline-exceeded"
        stats = client.stats()
        assert stats["sessions"]["deadline"]["deadline_exceeded"] == 1


def test_deadline_is_not_part_of_the_cache_key():
    with ServiceHarness(ServiceConfig(workers=1)) as h:
        client = HarnessClient(h, tenant="deadline-key")
        first = client.submit(dict(SPEC, seed=77))
        second = client.submit(dict(SPEC, seed=77, deadline_s=60.0))
        assert not first.cached and second.cached


def test_deadline_must_be_positive():
    with ServiceHarness(ServiceConfig(workers=1)) as h:
        client = HarnessClient(h, tenant="deadline-bad")
        with pytest.raises(ServiceError) as err:
            client.submit(dict(SPEC, deadline_s=-1.0))
        assert err.value.code == "bad-spec"


# ----------------------------------------------------------------------
# Poisoned-submission breaker
# ----------------------------------------------------------------------
def test_breaker_quarantines_after_consecutive_failures():
    config = ServiceConfig(workers=1, breaker_threshold=2, breaker_cooldown_s=60.0)
    with ServiceHarness(config) as h:
        client = HarnessClient(h, tenant="poison")
        for _ in range(2):
            with pytest.raises(ServiceError) as err:
                client.submit(POISON)
            assert err.value.code == "run-failed"
        # the circuit is open: identical submissions fast-fail typed
        with pytest.raises(ServiceError) as err:
            client.submit(POISON)
        assert err.value.code == "quarantined"
        assert err.value.response.get("retry_after", 0) > 0
        # a different submission is unaffected
        assert client.submit(SPEC).result().tasks_completed == 8
        assert client.health()["breaker"]["active"] == 1
        assert client.health()["breaker"]["tripped"] == 1


def test_breaker_quarantines_a_differently_spelled_poison():
    """An explicit default argument builds the same graph and machine, so
    it shares the tripped cache key and is answered quarantined, not
    run-failed — and refused before it runs, so it neither burns a
    worker nor ends the quarantine early."""
    config = ServiceConfig(workers=1, breaker_threshold=2, breaker_cooldown_s=60.0)
    respelled = dict(POISON, app_args=dict(POISON["app_args"], tile_size=1024))
    with ServiceHarness(config) as h:
        runs = []
        simulate = h.service._simulate

        def counting_simulate(*args, **kwargs):
            runs.append(args[1])
            return simulate(*args, **kwargs)

        h.service._simulate = counting_simulate
        client = HarnessClient(h, tenant="poison-spelling")
        for _ in range(2):
            with pytest.raises(ServiceError) as err:
                client.submit(POISON)
            assert err.value.code == "run-failed"
        assert len(runs) == 2
        with pytest.raises(ServiceError) as err:
            client.submit(respelled)
        assert err.value.code == "quarantined"
        assert len(runs) == 2  # not simulated during the cooldown
        assert client.health()["breaker"]["active"] == 1
        assert client.health()["breaker"]["tripped"] == 1


def test_breaker_readmits_on_probation_after_cooldown():
    config = ServiceConfig(workers=1, breaker_threshold=2, breaker_cooldown_s=0.05)
    with ServiceHarness(config) as h:
        client = HarnessClient(h, tenant="probation")
        for _ in range(2):
            with pytest.raises(ServiceError):
                client.submit(POISON)
        time.sleep(0.1)
        # cooldown over: one probationary attempt actually runs...
        with pytest.raises(ServiceError) as err:
            client.submit(POISON)
        assert err.value.code == "run-failed"
        # ...and its failure re-trips immediately
        with pytest.raises(ServiceError) as err:
            client.submit(POISON)
        assert err.value.code == "quarantined"


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------
def test_drain_finishes_inflight_and_rejects_new():
    async def scenario():
        service = SchedulerService(ServiceConfig(workers=2))
        await service.start()
        inflight = [
            asyncio.create_task(
                service.handle_request(
                    {"op": "submit", "id": f"j{i}", "spec": dict(SPEC, seed=30 + i)},
                    "drain",
                )
            )
            for i in range(3)
        ]
        await asyncio.sleep(0.05)  # let them enter the pipeline
        drain = asyncio.create_task(service.shutdown(drain=True, timeout=30))
        await asyncio.sleep(0)  # shutdown() closes admission synchronously
        late = await service.handle_request(
            {"op": "submit", "id": "late", "spec": SPEC}, "drain"
        )
        assert late["ok"] is False
        assert late["error"]["code"] == "shutting-down"
        results = await asyncio.gather(*inflight)
        assert all(r["ok"] for r in results), [r.get("error") for r in results]
        await drain
        assert service.health()["status"] == "draining"

    asyncio.run(scenario())


def test_harness_drain_flushes_cache(tmp_path):
    path = tmp_path / "cache.json"
    h = ServiceHarness(ServiceConfig(workers=1, cache_path=str(path))).start()
    HarnessClient(h).submit(SPEC)
    h.drain(timeout=30)
    assert path.exists()  # drain ends in a snapshot
    assert not (tmp_path / "cache.json.journal").exists()  # folded in
    reloaded = ServiceHarness(ServiceConfig(workers=1, cache_path=str(path))).start()
    try:
        assert HarnessClient(reloaded).submit(SPEC).cached
    finally:
        reloaded.stop()


def test_sigterm_drains_a_foreground_server():
    import os
    import signal
    import subprocess
    import sys

    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve", "--port", "0", "--workers", "1"],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        banner = proc.stdout.readline()
        assert "listening on" in banner
        host, port = banner.rsplit(" ", 1)[-1].strip().rsplit(":", 1)
        client = ServiceClient(host, int(port), timeout=60)
        assert client.submit(SPEC).result().tasks_completed == 8
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
        assert "draining" in out and "stopped" in out
        assert proc.returncode == 0
        client.close()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)


# ----------------------------------------------------------------------
# Health
# ----------------------------------------------------------------------
def test_health_op_shape():
    with ServiceHarness(ServiceConfig(workers=2)) as h:
        client = HarnessClient(h, tenant="health")
        client.submit(SPEC)
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == {"configured": 2, "live": 2, "replaced": 0}
        assert health["queues"]["health"] == 0
        assert health["inflight"] == 0
        assert health["cache"]["insertions"] == 1
        assert health["breaker"] == {"active": 0, "tripped": 0}
        assert health["chaos"] is None  # no fault plan armed


# ----------------------------------------------------------------------
# Crash-safe cache: kill, restart, recover from the journal
# ----------------------------------------------------------------------
def test_kill_and_restart_recovers_results_from_journal(tmp_path):
    path = tmp_path / "cache.json"
    pool = spec_pool(seed=5, share_scheduler=False)[:3]
    h = ServiceHarness(ServiceConfig(workers=2, cache_path=str(path))).start()
    try:
        client = HarnessClient(h, tenant="crashy")
        payloads = {i: client.submit(s).result_payload for i, s in enumerate(pool)}
    finally:
        h.kill()  # abrupt: no drain, no snapshot
    assert not path.exists()  # never snapshotted...
    assert (tmp_path / "cache.json.journal").exists()  # ...only journaled

    restarted = ServiceHarness(ServiceConfig(workers=2, cache_path=str(path))).start()
    try:
        assert restarted.service.cache.stats.journal_replayed == len(pool)
        client = HarnessClient(restarted, tenant="reborn")
        for i, spec in enumerate(pool):
            outcome = client.submit(spec)
            assert outcome.cached  # recovered, not re-simulated
            assert outcome.result_payload == payloads[i]
        # the memo was rebuilt from the journal's meta: no spec was
        # simulated again just to find its cache key
        assert restarted.service.cold_runs == 0
    finally:
        restarted.stop()


def test_persist_faults_degrade_without_losing_submissions(tmp_path):
    plan = ServiceFaultPlan(
        cache_persist_faults=(CachePersistRule(probability=1.0),)
    )
    path = tmp_path / "cache.json"
    with ServiceHarness(ServiceConfig(workers=1, cache_path=str(path), fault_plan=plan)) as h:
        client = HarnessClient(h, tenant="nostorage")
        first = client.submit(SPEC)
        second = client.submit(SPEC)
        assert not first.cached and second.cached  # memory still serves
        assert h.service.cache.stats.persist_errors > 0
    assert not path.exists()  # every write failed, nothing persisted


# ----------------------------------------------------------------------
# The acceptance soak: seeded chaos + retrying clients
# ----------------------------------------------------------------------
SOAK_PLAN = ServiceFaultPlan(
    seed=3,
    worker_crashes=(WorkerCrashRule(probability=0.2),),
    connection_faults=(
        ConnectionFaultRule(drop=0.1, when="response"),
        ConnectionFaultRule(drop=0.1, when="request"),
    ),
    frame_faults=(FrameFaultRule(corrupt=0.1),),
)


def _soak_load(pool):
    return dict(
        n_clients=4,
        requests_per_client=3,
        duplicate_fraction=0.5,
        seed=3,
        pool=pool,
    )


def test_chaos_soak_with_retries_completes_byte_identical():
    # pooled schedulers are history-dependent; byte-identical comparison
    # across servers needs fresh-scheduler runs
    pool = spec_pool(seed=3, share_scheduler=False)
    with ServiceHarness(ServiceConfig(workers=2), tcp=True) as h:
        assert h.address is not None
        baseline = run_loadgen_sync(*h.address, **_soak_load(pool))
    assert baseline.completed == baseline.requests

    with ServiceHarness(ServiceConfig(workers=2, fault_plan=SOAK_PLAN), tcp=True) as h:
        assert h.address is not None
        soak = run_loadgen_sync(
            *h.address,
            retry=RetryPolicy(max_attempts=8, base_s=0.01, cap_s=0.2, seed=3),
            **_soak_load(pool),
        )
        fired = h.service.chaos.counters()["fired"]
    assert sum(fired.values()) > 0, "the fault plan fired nothing; soak proved nothing"
    assert soak.retries > 0, "no retries under faults; soak proved nothing"
    assert soak.completed == soak.requests
    assert soak.result_digests == baseline.result_digests


def test_chaos_soak_without_retries_observably_fails():
    pool = spec_pool(seed=3, share_scheduler=False)
    with ServiceHarness(ServiceConfig(workers=2, fault_plan=SOAK_PLAN), tcp=True) as h:
        assert h.address is not None
        bare = run_loadgen_sync(*h.address, **_soak_load(pool))
    assert bare.errors > 0  # the same faults, no retry: submissions are lost
