"""Command-line entry points for the scheduler service.

* ``serve`` — run a TCP server in the foreground.  SIGTERM (and the
  first Ctrl-C) triggers a graceful drain: admission closes with typed
  ``shutting-down`` errors, in-flight submissions finish, the cache is
  flushed, then the process exits.
* ``submit`` — send one submission spec (inline JSON or a file).
* ``health`` — print a running server's health report as JSON.
* ``loadgen`` — drive a running server with concurrent clients.
* ``smoke`` — self-contained end-to-end check: start a server on an
  ephemeral port, run the load generator against it over TCP, assert
  the invariants CI cares about (everything completes, the cache gets
  hits, cached answers are byte-identical, the stopped server's event
  loop recorded no unhandled error), print the report.  Exits non-zero
  on any violation, so CI needs no shell plumbing.
* ``chaos-smoke`` — the same idea under seeded fault injection: a
  fault-free baseline, then a soak with worker crashes, connection
  drops and corrupt frames with retrying clients, then an abrupt kill
  and a restart on the same cache path.  Asserts 100% completion,
  byte-identical results across all three phases, journal-recovered
  cache hits after the crash, and no unhandled event-loop error in the
  cleanly stopped phases.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import Optional

from repro.service.client import RetryPolicy, ServiceClient, ServiceError
from repro.service.loadgen import run_loadgen_sync, spec_pool
from repro.service.server import ServiceConfig, ServiceHarness


def _add_server_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=int, default=4, help="simulator worker count")
    p.add_argument("--max-pending", type=int, default=16, help="per-tenant queue bound")
    p.add_argument(
        "--admission", choices=("reject", "wait"), default="reject",
        help="what a full tenant queue does to new submissions",
    )
    p.add_argument("--cache-path", default=None, help="persist the result cache here")


def _config_from(args: argparse.Namespace) -> ServiceConfig:
    return ServiceConfig(
        workers=args.workers,
        max_pending=args.max_pending,
        admission=args.admission,
        cache_path=args.cache_path,
    )


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.service.server import SchedulerService, serve_tcp

    async def main() -> None:
        service = SchedulerService(_config_from(args))
        await service.start()
        server = await serve_tcp(service, args.host, args.port)
        host, port = server.sockets[0].getsockname()[:2]
        print(f"repro.service listening on {host}:{port}", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # platform without loop signal handlers
        await stop.wait()
        print("repro.service draining...", flush=True)
        server.close()
        await server.wait_closed()
        await service.shutdown(drain=True, timeout=args.drain_timeout)
        print("repro.service stopped", flush=True)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_health(args: argparse.Namespace) -> int:
    with ServiceClient(args.host, args.port) as client:
        try:
            health = client.health()
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(health, sort_keys=True, indent=2))
    return 0 if health.get("status") in ("ok", "draining") else 1


def cmd_submit(args: argparse.Namespace) -> int:
    if args.spec.startswith("@"):
        with open(args.spec[1:]) as fh:
            spec = json.load(fh)
    else:
        spec = json.loads(args.spec)
    with ServiceClient(args.host, args.port) as client:
        try:
            outcome = client.submit(spec, no_cache=args.no_cache)
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    result = outcome.result()
    print(
        f"{outcome.id}: {'cached' if outcome.cached else 'cold'} "
        f"{outcome.graph_fp} makespan={result.makespan:.6f}s "
        f"tasks={result.tasks_completed} ({outcome.latency * 1e3:.1f}ms)"
    )
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    report = run_loadgen_sync(
        args.host,
        args.port,
        n_clients=args.clients,
        requests_per_client=args.requests,
        duplicate_fraction=args.duplicates,
        seed=args.seed,
    )
    print(report.summary())
    if args.json:
        print(json.dumps(report.as_dict(), sort_keys=True))
    return 0 if report.errors == 0 else 1


def _loop_error_failures(harness: ServiceHarness, phase: str) -> list[str]:
    """A cleanly stopped harness must have recorded no event-loop errors."""
    return [
        f"{phase}: unhandled event-loop error: {ctx.get('message')} "
        f"({ctx.get('exception')!r})"
        for ctx in harness.loop_errors
    ]


def cmd_smoke(args: argparse.Namespace) -> int:
    failures: list[str] = []
    config = _config_from(args)
    with ServiceHarness(config, tcp=True) as harness:
        assert harness.address is not None
        host, port = harness.address
        pool = spec_pool(seed=args.seed)
        report = run_loadgen_sync(
            host,
            port,
            n_clients=args.clients,
            requests_per_client=args.requests,
            duplicate_fraction=args.duplicates,
            seed=args.seed,
            pool=pool,
        )
        print(report.summary())

        if report.completed != report.requests:
            failures.append(
                f"{report.requests - report.completed} of {report.requests} "
                "submissions did not complete cleanly"
            )
        if report.cached == 0:
            failures.append("cache hit rate is zero under duplicate load")
        # byte-identical replay: a fresh submission of the hot spec must
        # reproduce the exact cached payload
        with ServiceClient(host, port) as client:
            first = client.submit(pool[0])
            second = client.submit(pool[0])
            if not (first.cached and second.cached):
                failures.append("post-loadgen resubmission missed the cache")
            a = json.dumps(first.result_payload, sort_keys=True)
            b = json.dumps(second.result_payload, sort_keys=True)
            if a != b:
                failures.append("cached resubmission payloads differ")
            stats = client.stats()
        print(
            "server: "
            f"{stats['jobs_completed']} jobs, {stats['cold_runs']} cold runs, "
            f"cache hit rate {stats['cache']['hit_rate']:.0%}, "
            f"{stats['scheduler_pool']['reuses']} scheduler reuses"
        )
        if stats["jobs_failed"]:
            failures.append(f"{stats['jobs_failed']} jobs failed server-side")
    failures += _loop_error_failures(harness, "server")

    for f in failures:
        print(f"SMOKE FAIL: {f}", file=sys.stderr)
    if not failures:
        print("service smoke: OK")
    return 1 if failures else 0


def cmd_chaos_smoke(args: argparse.Namespace) -> int:
    """Seeded chaos soak (see module docstring). Exits non-zero on any
    lost submission, divergent result, or failed journal recovery."""
    from repro.service.chaos import (
        ConnectionFaultRule,
        FrameFaultRule,
        ServiceFaultPlan,
        WorkerCrashRule,
    )

    failures: list[str] = []
    # share_scheduler=False: pooled schedulers are history-dependent, and
    # this soak's whole point is byte-identical results across phases
    pool = spec_pool(seed=args.seed, share_scheduler=False)
    retry = RetryPolicy(max_attempts=8, base_s=0.02, cap_s=0.5, seed=args.seed)
    load = dict(
        n_clients=args.clients,
        requests_per_client=args.requests,
        duplicate_fraction=args.duplicates,
        seed=args.seed,
        pool=pool,
    )

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        cache_path = os.path.join(tmp, "cache.json")

        # phase 1 — fault-free baseline (no persistence; just the truth)
        with ServiceHarness(ServiceConfig(workers=args.workers), tcp=True) as h:
            assert h.address is not None
            baseline = run_loadgen_sync(*h.address, **load)
        failures += _loop_error_failures(h, "baseline")
        print(f"baseline: {baseline.summary()}")
        if baseline.completed != baseline.requests:
            failures.append("baseline loadgen did not complete cleanly")

        # phase 2 — chaos soak: crashes, drops, corrupt frames; retries on
        plan = ServiceFaultPlan(
            seed=args.seed,
            worker_crashes=(WorkerCrashRule(probability=args.fault_rate),),
            connection_faults=(
                ConnectionFaultRule(drop=args.fault_rate / 2, when="response"),
                ConnectionFaultRule(drop=args.fault_rate / 2, when="request"),
            ),
            frame_faults=(FrameFaultRule(corrupt=args.fault_rate / 2),),
        )
        chaos_harness = ServiceHarness(
            ServiceConfig(workers=args.workers, cache_path=cache_path, fault_plan=plan),
            tcp=True,
        ).start()
        assert chaos_harness.address is not None
        soak = run_loadgen_sync(*chaos_harness.address, retry=retry, **load)
        fired = chaos_harness.service.chaos.counters()["fired"]
        print(f"chaos soak: {soak.summary()}")
        print(f"faults fired: {json.dumps(fired, sort_keys=True)}")
        # phase 3 — mid-soak crash: abrupt kill, no cache flush; the
        # append-only journal is all the restarted server inherits
        chaos_harness.kill()

        if soak.completed != soak.requests:
            failures.append(
                f"chaos soak lost {soak.requests - soak.completed} of "
                f"{soak.requests} submissions despite retries"
            )
        if soak.result_digests != baseline.result_digests:
            failures.append("chaos soak results are not byte-identical to baseline")
        if sum(fired.values()) == 0:
            failures.append("fault plan fired nothing; soak proved nothing")

        with ServiceHarness(
            ServiceConfig(workers=args.workers, cache_path=cache_path), tcp=True
        ) as h2:
            assert h2.address is not None
            replay = run_loadgen_sync(*h2.address, **load)
        failures += _loop_error_failures(h2, "post-restart replay")
        print(f"post-restart replay: {replay.summary()}")
        if replay.completed != replay.requests:
            failures.append("post-restart replay did not complete cleanly")
        if replay.result_digests != baseline.result_digests:
            failures.append("post-restart results are not byte-identical to baseline")
        if replay.cached == 0:
            failures.append(
                "no cache hits after restart: journal recovery recovered nothing"
            )

    for f in failures:
        print(f"CHAOS SMOKE FAIL: {f}", file=sys.stderr)
    if not failures:
        print("service chaos smoke: OK")
    return 1 if failures else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.service")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("serve", help="run a TCP server in the foreground")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8750)
    p.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="max seconds to wait for in-flight jobs on SIGTERM",
    )
    _add_server_opts(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("health", help="print a running server's health report")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8750)
    p.set_defaults(fn=cmd_health)

    p = sub.add_parser("submit", help="send one submission spec")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8750)
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("spec", help="inline JSON, or @path/to/spec.json")
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser("loadgen", help="drive a running server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8750)
    p.add_argument("--clients", type=int, default=8)
    p.add_argument("--requests", type=int, default=6)
    p.add_argument("--duplicates", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="also print the report as JSON")
    p.set_defaults(fn=cmd_loadgen)

    p = sub.add_parser("smoke", help="end-to-end TCP smoke check (CI)")
    p.add_argument("--clients", type=int, default=8)
    p.add_argument("--requests", type=int, default=6)
    p.add_argument("--duplicates", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    _add_server_opts(p)
    p.set_defaults(fn=cmd_smoke)

    p = sub.add_parser(
        "chaos-smoke", help="seeded fault-injection soak with kill/restart (CI)"
    )
    p.add_argument("--clients", type=int, default=6)
    p.add_argument("--requests", type=int, default=4)
    p.add_argument("--duplicates", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--fault-rate", type=float, default=0.08,
        help="worker-crash probability; halved for drops and corrupt frames",
    )
    p.add_argument("--workers", type=int, default=4)
    p.set_defaults(fn=cmd_chaos_smoke)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
