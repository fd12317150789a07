"""End-to-end service semantics: caching, concurrency, admission control."""

from __future__ import annotations

import asyncio
import dataclasses
import json
import socket
import threading
import time

import pytest

from repro.sanitizer.invariants import validate_run
from repro.service.cache import CacheKey
from repro.service.client import AsyncServiceClient, HarnessClient
from repro.service.loadgen import run_loadgen, spec_pool
from repro.service.server import SchedulerService, ServiceConfig, ServiceHarness
from repro.service.spec import SubmissionSpec

SPEC = {
    "app": "matmul",
    "app_args": {"n_tiles": 2, "variant": "hyb"},
    "machine_args": {"n_smp": 2, "n_gpus": 1},
    "seed": 11,
}


@pytest.fixture(scope="module")
def harness():
    with ServiceHarness(ServiceConfig(workers=2), tcp=True) as h:
        yield h


def test_second_submission_served_from_cache_byte_identical(harness):
    client = HarnessClient(harness, tenant="cache-test")
    spec = dict(SPEC, seed=21)
    first = client.submit(spec)
    second = client.submit(spec)
    assert not first.cached
    assert second.cached
    assert json.dumps(first.result_payload, sort_keys=True) == json.dumps(
        second.result_payload, sort_keys=True
    )
    # and through the deserializer: the replayed trace is the original
    assert second.result().trace.to_json() == first.result().trace.to_json()


def test_in_process_answers_do_not_alias_the_cache(harness):
    """Each in-process answer decodes its own result: a caller mutating
    one answer must not change any later answer."""
    spec = dict(SPEC, seed=24)
    first = harness.request({"op": "submit", "spec": spec})
    makespan = first["result"]["makespan"]
    first["result"]["makespan"] = -1.0
    first["result"]["trace"]["records"].clear()
    second = harness.request({"op": "submit", "spec": spec})
    assert second["cached"]
    assert second["result"]["makespan"] == makespan
    assert second["result"]["trace"]["records"]


def test_no_cache_forces_a_fresh_run(harness):
    client = HarnessClient(harness, tenant="nocache-test")
    spec = dict(SPEC, seed=22)
    assert not client.submit(spec).cached
    assert client.submit(spec).cached
    assert not client.submit(spec, no_cache=True).cached


def test_config_changes_miss_the_cache(harness):
    """Submissions differing only in runtime config are different
    experiments — an overlap on/off ablation must not collide into one
    cache entry."""
    client = HarnessClient(harness, tenant="config-test")
    base = dict(SPEC, seed=60)
    ablated = dict(base, config={"overlap_transfers": False, "prefetch": False})
    assert not client.submit(base).cached
    assert not client.submit(ablated).cached  # not served the base run
    assert client.submit(ablated).cached      # but cached under its own key
    assert client.submit(base).cached         # and the base entry survives


def test_cached_results_validate_cleanly(harness):
    client = HarnessClient(harness, tenant="validate-test")
    spec = dict(SPEC, seed=23)
    client.submit(spec)
    restored = client.submit(spec).result()
    assert restored.tasks_completed == 8
    assert validate_run(restored) == []


def test_bad_spec_is_a_typed_error(harness):
    from repro.service.client import ServiceError

    client = HarnessClient(harness, tenant="bad-spec")
    with pytest.raises(ServiceError) as exc:
        client.submit({"app": "no-such-app"})
    assert exc.value.code == "bad-spec"


def test_unknown_op_is_bad_request(harness):
    response = harness.request({"op": "self-destruct"})
    assert response["ok"] is False
    assert response["error"]["code"] == "bad-request"


def test_stats_shape(harness):
    client = HarnessClient(harness, tenant="stats-test")
    client.submit(dict(SPEC, seed=24))
    stats = client.stats()
    assert stats["jobs_completed"] >= 1
    assert 0.0 <= stats["cache"]["hit_rate"] <= 1.0
    assert "scheduler_pool" in stats and "sessions" in stats


def test_session_stats_track_completed_and_failed(harness):
    from repro.service.client import ServiceError

    client = HarnessClient(harness, tenant="session-stats")
    client.submit(dict(SPEC, seed=61))
    with pytest.raises(ServiceError):
        client.submit(
            dict(SPEC, seed=62, app_args={"n_tiles": 2, "variant": "hyb", "bogus": 1})
        )
    stats = client.stats()["sessions"]["session-stats"]
    assert stats["submitted"] >= 2
    assert stats["completed"] >= 1
    assert stats["failed"] >= 1


def test_tcp_session_released_on_disconnect(harness):
    """A connection-scoped tenant (conn-N) must leave self.sessions when
    its connection closes — a long-running server must not accumulate
    one dead session per connection ever made."""
    assert harness.address is not None
    host, port = harness.address

    async def scenario():
        async with AsyncServiceClient(host, port) as client:
            outcome = await client.submit(dict(SPEC, seed=63))
            tenant = outcome.raw["tenant"]
            assert tenant.startswith("conn-")
            # while connected (and having submitted), the session exists
            assert tenant in (await client.request({"op": "stats"}))["stats"]["sessions"]
            return tenant

    tenant = asyncio.run(scenario())
    # the handler's finally block runs on the service loop shortly after
    # the client-side close returns; poll with a deadline
    deadline = time.perf_counter() + 10
    while time.perf_counter() < deadline:
        if tenant not in harness.request({"op": "stats"})["stats"]["sessions"]:
            break
        time.sleep(0.05)
    else:
        pytest.fail(f"session {tenant!r} not released after disconnect")


def test_oversized_request_line_handled_cleanly(harness):
    """A line beyond the stream limit (readline raises ValueError) must
    not crash the handler: the connection drops — with a typed error if
    the response can still be delivered — and the server keeps serving."""
    from repro.service.server import MAX_LINE

    assert harness.address is not None
    host, port = harness.address

    async def scenario():
        reader, writer = await asyncio.open_connection(host, port)
        line = b""
        try:
            writer.write(b"x" * (MAX_LINE + 64) + b"\n")
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass
            try:
                line = await asyncio.wait_for(reader.readline(), timeout=30)
            except (ConnectionResetError, asyncio.IncompleteReadError):
                pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        if line:  # the error response outran the close
            response = json.loads(line)
            assert response["ok"] is False
            assert response["error"]["code"] == "bad-request"
        # the server survived: a fresh connection still answers
        async with AsyncServiceClient(host, port) as client:
            assert (await client.request({"op": "ping"}))["ok"]

    asyncio.run(scenario())


@pytest.mark.parametrize("held_at", ["wait_closed", "pending-answer"])
def test_teardown_cancelling_a_closing_connection_logs_no_error(monkeypatch, held_at):
    """A connection handler cancelled by teardown while it waits, after
    the client hung up, for its socket to close or for an answer still
    pending must finish cleanly, not leave a CancelledError for the
    loop's exception handler."""
    harness = ServiceHarness(ServiceConfig(workers=1), tcp=True)
    waiting = threading.Event()
    # referenced here, like a real job's future, so the collector cannot
    # reap the held task as an unreachable cycle before teardown
    held_futures = []

    async def hold(*args, **kwargs):
        fut = asyncio.get_running_loop().create_future()  # only teardown ends this
        held_futures.append(fut)
        waiting.set()
        await fut

    if held_at == "wait_closed":
        wait_closed = asyncio.StreamWriter.wait_closed

        async def held(self):
            if asyncio.get_running_loop() is not harness._loop:
                return await wait_closed(self)
            await hold()

        monkeypatch.setattr(asyncio.StreamWriter, "wait_closed", held)
    else:
        monkeypatch.setattr(harness.service, "respond", hold)
    harness.start()
    try:
        with socket.create_connection(harness.address, timeout=10) as sock:
            if held_at == "pending-answer":
                sock.sendall(b'{"op": "ping"}\n')
        assert waiting.wait(timeout=10), f"handler never reached {held_at}"
        time.sleep(0.1)  # let the handler see the hang-up and enter its finally
    finally:
        harness.stop()
    assert harness.loop_errors == []


@pytest.mark.parametrize("cmd", ["smoke", "chaos-smoke"])
def test_smoke_commands_fail_on_loop_errors(monkeypatch, capsys, cmd):
    """The CI smokes exit non-zero when a cleanly stopped server's event
    loop recorded an unhandled error, and say so."""
    from repro.service.__main__ import main

    wait_closed = asyncio.StreamWriter.wait_closed

    async def broken(self):
        if threading.current_thread().name == "repro-service":
            raise RuntimeError("injected server-side wait_closed failure")
        return await wait_closed(self)

    monkeypatch.setattr(asyncio.StreamWriter, "wait_closed", broken)
    assert main([cmd]) == 1
    fails = [ln for ln in capsys.readouterr().err.splitlines() if "FAIL" in ln]
    assert fails
    assert all("unhandled event-loop error" in ln for ln in fails)


def test_shared_scheduler_pool_reuses_instances(harness):
    client = HarnessClient(harness, tenant="pool-test")
    # distinct graphs, same (scheduler, machine) -> one pooled scheduler
    client.submit(dict(SPEC, seed=25, app_args={"n_tiles": 2, "variant": "hyb"}))
    before = client.stats()["scheduler_pool"]["reuses"]
    client.submit(dict(SPEC, seed=25, app_args={"n_tiles": 3, "variant": "hyb"}))
    assert client.stats()["scheduler_pool"]["reuses"] == before + 1


def test_concurrent_clients_all_complete_clean(harness):
    """N concurrent TCP clients, distinct specs: every submission comes
    back ok and every deserialized RunResult passes the sanitizer."""
    assert harness.address is not None
    host, port = harness.address
    n_clients = 6

    async def one(cid: int):
        spec = SubmissionSpec.from_dict(
            {
                "app": "cholesky",
                "app_args": {"n_blocks": 3, "variant": "hyb"},
                "machine_args": {"n_smp": 2, "n_gpus": 1},
                "seed": 100 + cid,
            }
        )
        async with AsyncServiceClient(host, port) as client:
            return await client.submit(spec, rid=f"cc-{cid}")

    async def scenario():
        return await asyncio.gather(*(one(c) for c in range(n_clients)))

    outcomes = asyncio.run(scenario())
    assert len(outcomes) == n_clients
    for outcome in outcomes:
        result = outcome.result()
        assert result.tasks_completed > 0
        assert validate_run(result) == []


def test_loadgen_reports_cache_hits(harness):
    assert harness.address is not None
    host, port = harness.address
    report = asyncio.run(
        run_loadgen(
            host,
            port,
            n_clients=4,
            requests_per_client=4,
            duplicate_fraction=0.6,
            seed=3,
            pool=spec_pool(seed=3),
        )
    )
    assert report.completed == report.requests == 16
    assert report.errors == 0
    assert report.cached > 0
    assert report.hit_rate > 0.0


def test_admission_overflow_rejects_not_hangs():
    """One tenant floods a tiny service: overflow submissions fail with
    the typed admission error, within a bounded wall-clock."""

    async def scenario():
        service = SchedulerService(
            ServiceConfig(workers=1, max_pending=2, admission="reject")
        )
        await service.start()
        try:
            requests = [
                service.handle_request(
                    {"op": "submit", "id": f"flood-{i}", "spec": dict(SPEC, seed=30)},
                    tenant="flood",
                )
                for i in range(8)
            ]
            return await asyncio.wait_for(asyncio.gather(*requests), timeout=60)
        finally:
            await service.stop()

    responses = asyncio.run(scenario())
    rejected = [r for r in responses if not r["ok"]]
    completed = [r for r in responses if r["ok"]]
    assert completed, "some submissions must get through"
    assert rejected, "overflow must produce rejections"
    for r in rejected:
        assert r["error"]["code"] == "admission-rejected"
        assert "flood" in r["error"]["message"]


def test_admission_wait_policy_backpressures_instead():
    async def scenario():
        service = SchedulerService(
            ServiceConfig(workers=1, max_pending=2, admission="wait")
        )
        await service.start()
        try:
            requests = [
                service.handle_request(
                    {"op": "submit", "spec": dict(SPEC, seed=31 + i)}, tenant="patient"
                )
                for i in range(6)
            ]
            return await asyncio.wait_for(asyncio.gather(*requests), timeout=120)
        finally:
            await service.stop()

    responses = asyncio.run(scenario())
    assert all(r["ok"] for r in responses)


def test_machine_invalidation_drops_entries(harness):
    client = HarnessClient(harness, tenant="invalidate-test")
    outcome = client.submit(dict(SPEC, seed=40))
    response = harness.request(
        {"op": "invalidate-machine", "machine_fp": outcome.machine_fp}
    )
    assert response["ok"] and response["invalidated"] >= 1
    assert not client.submit(dict(SPEC, seed=40)).cached  # cold again


def test_cache_persists_across_service_instances(tmp_path):
    path = str(tmp_path / "service-cache.json")
    spec = dict(SPEC, seed=50)
    with ServiceHarness(ServiceConfig(workers=1, cache_path=path)) as h:
        assert not HarnessClient(h).submit(spec).cached
    with ServiceHarness(ServiceConfig(workers=1, cache_path=path)) as h:
        assert HarnessClient(h).submit(spec).cached
        # answered through the memo rebuilt from the cache, not re-run
        assert h.service.cold_runs == 0


def test_entries_without_memo_meta_still_answer_cached(tmp_path):
    """A cache written before entries carried their memo key: the one
    run finds the persisted answer and returns it, byte-equal."""
    path = tmp_path / "service-cache.json"
    spec = dict(SPEC, seed=64)
    with ServiceHarness(ServiceConfig(workers=1, cache_path=str(path))) as h:
        first = HarnessClient(h).submit(spec)
    snapshot = json.loads(path.read_text())
    for record in snapshot["entries"].values():
        del record["meta"]["memo"]
    path.write_text(json.dumps(snapshot))
    with ServiceHarness(ServiceConfig(workers=1, cache_path=str(path))) as h:
        again = HarnessClient(h).submit(spec)
        assert again.cached
        assert again.result_payload == first.result_payload
        assert h.service.cold_runs == 1


def test_explicit_default_spelling_is_answered_from_cache(harness):
    """A spec spelling out a default builds the same graph and machine:
    the one run finds the first answer cached and returns it."""
    client = HarnessClient(harness, tenant="spelling-test")
    spec = dict(SPEC, seed=62)
    respelled = dict(spec, app_args=dict(spec["app_args"], tile_size=1024))
    first = client.submit(spec)
    second = client.submit(respelled)
    assert not first.cached
    assert second.cached
    assert json.dumps(second.result_payload, sort_keys=True) == json.dumps(
        first.result_payload, sort_keys=True
    )


def test_graph_captures_only_recheck_a_restarted_memo(tmp_path, monkeypatch):
    """Cold misses key the cache by the run's own graph and memo hits
    build nothing; after a restart, the first hit per spelling captures
    the graph once to re-check the key the cache was written under."""
    from repro.runtime.fingerprint import GraphCapture, app_graph_fingerprint

    captured = []
    submit = GraphCapture.submit

    def spy(self, t):
        captured.append(t)
        submit(self, t)

    monkeypatch.setattr(GraphCapture, "submit", spy)
    path = str(tmp_path / "service-cache.json")
    spec = dict(SPEC, seed=63)
    with ServiceHarness(ServiceConfig(workers=1, cache_path=path)) as h:
        client = HarnessClient(h)
        assert not client.submit(spec).cached  # cold miss
        assert client.submit(spec).cached      # memo hit
    assert captured == []
    with ServiceHarness(ServiceConfig(workers=1, cache_path=path)) as h:
        client = HarnessClient(h)
        assert client.submit(spec).cached  # first hit after restart
        assert len(captured) == 8          # one capture of the 8-task graph
        assert client.submit(spec).cached  # the key is verified now
        assert h.service.cold_runs == 0
    assert len(captured) == 8
    # the spy sees a capture's every task
    app_graph_fingerprint(SubmissionSpec.from_dict(spec).build_app())
    assert len(captured) == 16


@pytest.mark.parametrize("stale", ["graph_fp", "machine_fp"])
def test_restart_never_answers_from_a_stale_key(tmp_path, stale):
    """A persisted entry keyed by older code — its graph or machine
    fingerprint no longer what this code builds for the spec — must not
    answer the spec after a restart, though its meta names the spec."""
    path = tmp_path / "service-cache.json"
    spec = dict(SPEC, seed=65)
    with ServiceHarness(ServiceConfig(workers=1, cache_path=str(path))) as h:
        first = HarnessClient(h).submit(spec)
    snapshot = json.loads(path.read_text())
    (encoded, record), = snapshot["entries"].items()
    key = CacheKey.decode(encoded)
    old_key = dataclasses.replace(key, **{stale: "old:" + getattr(key, stale)})
    record["result"]["stale"] = True
    snapshot["entries"] = {old_key.encode(): record}
    path.write_text(json.dumps(snapshot))
    with ServiceHarness(ServiceConfig(workers=1, cache_path=str(path))) as h:
        client = HarnessClient(h)
        again = client.submit(spec)
        assert not again.cached
        assert "stale" not in again.result_payload
        assert again.result_payload == first.result_payload
        assert h.service.cold_runs == 1
        assert client.submit(spec).cached  # memoised under the current key
        assert h.service.cold_runs == 1
