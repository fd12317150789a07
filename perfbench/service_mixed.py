"""The ``service-mixed`` workload: an open loop against a real server.

``python -m repro.service serve --workers 2`` runs in its own process
(through ``serve.py``, which can add probes).  This process sends a
seeded Poisson stream of submissions at :data:`RATE_RPS` over two TCP
connections, without waiting for answers — independent tenants, so an
open loop.  Each request's latency is timed from when it was due.

* About 75% of requests resubmit a hot set of four specs, warmed before
  the loop: cache hits (spec decode, memoised fingerprint, cache lookup,
  encode, transport).
* The rest are cold: distinct matmul / Cholesky / PBPI shapes with varied
  tile counts, variants and machine sizes, taken in a fixed app rotation
  so every seed gets the same app mix.  Each misses the fingerprint memo
  and the result cache, then runs build, simulate, validate, serialize
  and cache insert.

Every spec has ``share_scheduler: false``, so each cold answer must equal
a local batch run of the same spec, and every hit must be byte-equal to
the cold answer it replays.  Those checks run after the loop, with the
server idle.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

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
    src_env,
    stop_process,
)

#: offered load, about 30% of the capacity measured on a 2-core x86 box:
#: nearer half capacity, GIL contention and queueing amplified the box's
#: drift in host speed past every bound (see README.md)
RATE_RPS = 12.0
#: a request answered later than this (from its due time) is not goodput
LATENCY_LIMIT_MS = 500.0
HOT_FRACTION = 0.75
CONNECTIONS = 2
SETUP_REPEATS = 5
#: keys of one host-speed pass in an idle gap of the loop (about 25 ms)
GAP_PASS_KEYS = 12_500
#: a gap pass runs only if the next request is due later than this many
#: times the last pass's duration
GAP_MARGIN = 2.0
#: each latency is scaled by the mean of the host-speed passes within
#: this many seconds of its due time: the host drifts within a run, too
SCALE_WINDOW_S = 1.5
SERVER_ARGS = ["--workers", "2", "--max-pending", "64", "--port", "0"]

#: cold shapes: (app, app_args, machine) templates.  Each template keeps
#: its host cost; its instances differ in data size and machine noise,
#: and no two share a data size, so every cold request misses the
#: fingerprint memo and the cache
_TEMPLATES = [
    ("matmul", {"n_tiles": 6, "variant": "hyb"}, (4, 2)),
    ("matmul", {"n_tiles": 6, "variant": "gpu"}, (4, 1)),
    ("matmul", {"n_tiles": 7, "variant": "hyb"}, (3, 2)),
    ("matmul", {"n_tiles": 7, "variant": "gpu"}, (6, 2)),
    ("cholesky", {"n_blocks": 10, "variant": "hyb"}, (4, 2)),
    ("cholesky", {"n_blocks": 10, "variant": "smp"}, (6, 1)),
    ("cholesky", {"n_blocks": 12, "variant": "hyb"}, (5, 2)),
    ("cholesky", {"n_blocks": 12, "variant": "gpu"}, (3, 1)),
    ("pbpi", {"generations": 15, "n_blocks": 8, "variant": "hyb"}, (4, 2)),
    ("pbpi", {"generations": 15, "n_blocks": 8, "variant": "smp"}, (5, 1)),
    ("pbpi", {"generations": 20, "n_blocks": 8, "variant": "hyb"}, (6, 2)),
    ("pbpi", {"generations": 20, "n_blocks": 8, "variant": "gpu"}, (3, 2)),
]
#: per-app data-size argument and its values
_SIZES = {
    "matmul": ("tile_size", (512, 768, 1024, 1536)),
    "cholesky": ("block_size", (1024, 1536, 2048, 3072)),
    "pbpi": ("dataset_bytes", tuple(m * 1024**2 for m in (250, 500, 750, 1000))),
}
_NOISE_CV = (0.02, 0.03, 0.04, 0.05)


def _instances(rng: random.Random, app: str, app_args: dict, machine: tuple[int, int]):
    """The (app_args, machine_args) instances of one template.

    Each round of four takes every data size once, in a seeded order, so
    any whole number of rounds has the same shapes for every seed; later
    rounds add an eighth of the smallest size per round, keeping every
    size distinct.  The machine noise is drawn per instance.
    """
    arg, sizes = _SIZES[app]
    for r in itertools.count():
        for size in rng.sample(sizes, len(sizes)):
            yield (dict(app_args, **{arg: size + r * (sizes[0] // 8)}),
                   {"n_smp": machine[0], "n_gpus": machine[1],
                    "noise_cv": rng.choice(_NOISE_CV)})


def _spec(app: str, app_args: dict, machine_args: dict, seed: int) -> dict:
    return {
        "app": app,
        "app_args": app_args,
        "machine": "minotauro",
        "machine_args": machine_args,
        "scheduler": "versioning",
        "seed": seed,
        "share_scheduler": False,
    }


def hot_set(rng: random.Random) -> list[dict]:
    """Four 512-task matmuls: every hit replays a ~95 KB answer.

    One answer size keeps the hit path's encode and transport cost the
    same for every hit, so the hit latency is one population.
    """
    return [
        _spec("matmul", {"n_tiles": 8, "variant": v}, {"n_smp": s, "n_gpus": 2},
              rng.randrange(1_000_000))
        for v, s in (("hyb", 4), ("gpu", 4), ("hyb", 6), ("gpu", 6))
    ]


def _blocks(rng: random.Random, k: int):
    """Indices 0..k-1 in a fresh random order per block of k."""
    while True:
        yield from rng.sample(range(k), k)


@dataclass
class Planned:
    at: float           # due time, seconds after the loop starts
    spec: dict
    hot: int            # index into the hot set, -1 for cold


def plan(seed: int, seconds: float) -> tuple[list[dict], list[Planned]]:
    """The seeded hot set and the open-loop arrival schedule.

    ``RATE_RPS * seconds`` arrivals, about a quarter of them cold, in
    whole rounds of the templates.  Hits are a Poisson stream conditioned
    on its count (uniform random times).  Colds are stratified: one in the
    middle half of each of equal slots, so two colds never arrive closer
    than half a slot (about 160 ms) and a cold's latency is its own run,
    not a wait for the GIL behind another cold, whose frequency would
    swing with the seed and with host speed.  Cold requests walk the
    templates and hits walk the hot set in shuffled blocks, so every seed
    offers the same load and the same mix of cold shapes; the seed picks
    the arrival times, the order, which instance of a template gets which
    data size, the machine noise and each noise seed.
    """
    rng = random.Random(seed)
    hot = hot_set(rng)
    instances = [_instances(rng, *template) for template in _TEMPLATES]
    cold_order, hot_order = _blocks(rng, len(_TEMPLATES)), _blocks(rng, len(hot))
    n = max(4, round(RATE_RPS * seconds))
    rounds = max(1, round(n * (1.0 - HOT_FRACTION) / len(_TEMPLATES)))
    n_cold = min(n, rounds * len(_TEMPLATES))
    slot = seconds / n_cold
    arrivals = sorted(
        [((j + rng.uniform(0.25, 0.75)) * slot, True) for j in range(n_cold)]
        + [(rng.uniform(0.0, seconds), False) for _ in range(n - n_cold)]
    )
    out: list[Planned] = []
    for t, cold in arrivals:
        if cold:
            i = next(cold_order)
            app_args, machine_args = next(instances[i])
            spec = _spec(_TEMPLATES[i][0], app_args, machine_args, rng.randrange(1_000_000))
            out.append(Planned(t, spec, -1))
        else:
            i = next(hot_order)
            out.append(Planned(t, hot[i], i))
    return hot, out


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
def _ping(port: int, timeout: float = 10.0) -> None:
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(b'{"op": "ping", "id": "ping"}\n')
        reply = json.loads(sock.makefile("rb").readline())
    if not reply.get("ok"):
        raise RuntimeError(f"ping failed: {reply}")


class Server:
    """One ``serve.py`` process; ``setup_s`` runs from spawn to first ping."""

    def __init__(self, trace_out: Optional[str] = None, slowdown: Optional[str] = None) -> None:
        cmd = [sys.executable, "perfbench/serve.py"]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        if slowdown:
            cmd += ["--slowdown", slowdown]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd + SERVER_ARGS, cwd=ROOT, env=src_env(), stdout=subprocess.PIPE, text=True
        )
        try:
            assert self.proc.stdout is not None
            line = self.proc.stdout.readline()
            if "listening on" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
            _ping(self.port)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        stop_process(self.proc)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


# ----------------------------------------------------------------------
# Open-loop client
# ----------------------------------------------------------------------
@dataclass
class Answer:
    due: float
    sent: float
    recv: float
    raw: bytes
    resp: Optional[dict]


async def _exchange(
    port: int, items: list[tuple[float, bytes]], wait_s: float,
    speed: Optional[HostSpeed] = None,
) -> list[Answer]:
    """Send ``(due offset, line)`` items on schedule; collect raw answers.

    Answers are only timestamped here; decoding waits until the loop is
    over, so the client spends as little time as possible between reads.
    With ``speed``, one host-speed pass runs in each gap in which every
    request sent has been answered and the next is not due for a while:
    the server is idle then and no answer can arrive, so the pass
    measures the host under the loop's conditions and delays nothing.
    """
    conns = [
        await asyncio.open_connection("127.0.0.1", port, limit=1 << 26)
        for _ in range(CONNECTIONS)
    ]
    got: list[list[tuple[float, bytes]]] = [[] for _ in conns]
    sent: list[float] = []
    idle = asyncio.Event()  # set while every request sent has its answer

    async def read(i: int, expected: int) -> None:
        reader = conns[i][0]
        while len(got[i]) < expected:
            line = await reader.readline()
            if not line:
                return
            got[i].append((time.perf_counter(), line))
            if sum(map(len, got)) == len(sent):
                idle.set()

    per_conn = [len(items[i::CONNECTIONS]) for i in range(CONNECTIONS)]
    readers = [asyncio.create_task(read(i, n)) for i, n in enumerate(per_conn)]
    start = time.perf_counter() + 0.05
    due: list[float] = []
    idle.set()
    pass_s = 0.05
    for k, (at, line) in enumerate(items):
        t_due = start + at
        if speed is not None:
            try:
                await asyncio.wait_for(idle.wait(), t_due - time.perf_counter())
            except asyncio.TimeoutError:
                pass
            if idle.is_set() and t_due - time.perf_counter() > GAP_MARGIN * pass_s:
                speed.sample()
                pass_s = speed.samples[-1]
        delay = t_due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        writer = conns[k % CONNECTIONS][1]
        idle.clear()
        writer.write(line)
        due.append(t_due)
        sent.append(time.perf_counter())
        if writer.transport.get_write_buffer_size() > 1 << 20:
            await writer.drain()
    try:
        await asyncio.wait_for(asyncio.gather(*readers), timeout=wait_s)
    except asyncio.TimeoutError:
        log("service-mixed: timed out waiting for answers")
    for _, writer in conns:
        writer.close()
    for _, writer in conns:
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    # answers on one connection may come back in any order: match by id
    by_id: dict[str, Answer] = {}
    for answers in got:
        for t, raw in answers:
            resp = json.loads(raw)
            by_id[resp.get("id")] = Answer(0.0, 0.0, t, raw, resp)
    out = []
    for k in range(len(items)):
        a = by_id.get(f"r{k}", Answer(0.0, 0.0, float("nan"), b"", None))
        a.due, a.sent = due[k], sent[k]
        out.append(a)
    return out


def _request(k: int, spec: dict) -> bytes:
    return canonical({"op": "submit", "id": f"r{k}", "spec": spec}) + b"\n"


def local_digest(spec_dict: dict) -> str:
    """Digest of a local batch run of ``spec_dict`` (what a cold answer must equal)."""
    from repro.runtime.runtime import OmpSsRuntime
    from repro.runtime.serialize import run_result_to_dict
    from repro.service.spec import SubmissionSpec

    spec = SubmissionSpec.from_dict(spec_dict)
    machine = spec.build_machine()
    app = spec.build_app()
    app.register_cost_models(machine)
    rt = OmpSsRuntime(
        machine, spec.scheduler, config=spec.build_config(),
        scheduler_options=dict(spec.scheduler_options),
    )
    with rt:
        app.master(rt)
    return digest(canonical(run_result_to_dict(rt.result())))


@dataclass
class Reply:
    kind: str           # "hot" or "cold"
    due: float          # perf_counter seconds
    latency_ms: float   # from the due time
    late_ms: float      # how late the generator sent it
    wire_ms: float      # client round trip minus server ``elapsed``
    elapsed_ms: float
    rid: str
    ok: bool
    size: int
    payload: Optional[dict]


class Session:
    """One loaded server: warm-up, the open loop, and the output checks."""

    def __init__(self, seed: int, seconds: float, server: Server) -> None:
        self.hot, self.plan = plan(seed, seconds)
        self.seconds = seconds
        self.server = server
        self.failures: list[str] = []
        self.hot_digests: list[str] = []
        self.warm_payloads: list[dict] = []

    def fail(self, msg: str) -> None:
        if len(self.failures) < 20:
            log(f"[service-mixed] FAIL {msg}")
        self.failures.append(msg)

    def warm(self) -> None:
        """Submit the hot set once (cold misses) and keep their answers."""
        for k, spec in enumerate(self.hot):
            line = canonical({"op": "submit", "id": f"w{k}", "spec": spec}) + b"\n"
            with socket.create_connection(("127.0.0.1", self.server.port), timeout=120) as sock:
                sock.sendall(line)
                answer = json.loads(sock.makefile("rb").readline())
            if not answer.get("ok") or answer.get("cached"):
                self.fail(f"warm-up of hot spec {k} failed or was cached: {answer.get('error')}")
                self.hot_digests.append("")
                continue
            self.hot_digests.append(digest(canonical(answer["result"])))
            self.warm_payloads.append(answer["result"])

    def run(self, speed: Optional[HostSpeed] = None) -> list[Reply]:
        items = [(p.at, _request(k, p.spec)) for k, p in enumerate(self.plan)]
        answers = asyncio.run(_exchange(self.server.port, items, self.seconds + 90.0, speed))
        replies = []
        for k, (p, a) in enumerate(zip(self.plan, answers)):
            kind = "hot" if p.hot >= 0 else "cold"
            resp = a.resp
            if resp is None:
                self.fail(f"r{k} ({kind}): no answer")
                replies.append(Reply(kind, a.due, float("inf"), 0.0, 0.0, 0.0, f"r{k}", False, 0, None))
                continue
            ok = bool(resp.get("ok"))
            elapsed = resp.get("elapsed", 0.0) * 1e3
            rep = Reply(
                kind, a.due, (a.recv - a.due) * 1e3, (a.sent - a.due) * 1e3,
                (a.recv - a.sent) * 1e3 - elapsed, elapsed, f"r{k}", ok, len(a.raw),
                resp.get("result") if ok else None,
            )
            if not ok:
                self.fail(f"r{k} ({kind}): {resp.get('error')}")
            elif resp.get("cached") != (kind == "hot"):
                self.fail(f"r{k} ({kind}): cached={resp.get('cached')}")
                rep.ok = False
            replies.append(rep)
        return replies

    def check(self, replies: list[Reply]) -> None:
        """Hits equal their warm-up answer; colds equal a local batch run."""
        for p, r in zip(self.plan, replies):
            if not r.ok:
                continue
            got = digest(canonical(r.payload))
            if r.kind == "hot":
                want = self.hot_digests[p.hot]
                what = "its cold answer"
            else:
                want = local_digest(p.spec)
                what = "a local batch run"
            if got != want:
                self.fail(f"{r.rid} ({r.kind}): answer differs from {what}")
                r.ok = False
        for k, spec in enumerate(self.hot):
            if self.hot_digests[k] and self.hot_digests[k] != local_digest(spec):
                self.fail(f"hot spec {k}: cold answer differs from a local batch run")


def counters(replies: list[Reply]) -> dict:
    """Deterministic work counts of one loop (identical run to run)."""
    colds = [r.payload for r in replies if r.kind == "cold" and r.payload]
    return {
        "requests": len(replies),
        "cold": len(colds),
        "tasks": sum(p["tasks_completed"] for p in colds),
        "trace_records": sum(len(p["trace"]["records"]) for p in colds),
        "transfers": sum(sum(p["transfer_stats"]["counts"].values()) for p in colds),
        "bytes_moved": sum(sum(p["transfer_stats"]["bytes"].values()) for p in colds),
        "result_bytes": sum(len(canonical(r.payload)) for r in replies if r.payload),
    }


def _loop_stats(replies: list[Reply]) -> dict:
    lat = [r.latency_ms for r in replies]
    cold = [r for r in replies if r.kind == "cold" and r.ok]
    hot = [r for r in replies if r.kind == "hot" and r.ok]
    return {
        "lat": lat,
        "cold": cold,
        "hot": hot,
        "cold_p50_ms": median(r.latency_ms for r in cold),
        "hit_p50_ms": median(r.latency_ms for r in hot),
    }


def _latency_metrics(replies: list[Reply], scale=lambda r: 1.0) -> dict:
    """The latency metrics, each latency multiplied by ``scale(reply)``."""
    lat = {id(r): r.latency_ms * scale(r) for r in replies}
    cold = [r for r in replies if r.kind == "cold" and r.ok]
    hot = [r for r in replies if r.kind == "hot" and r.ok]
    return {
        # every seed has the same cold mix: its tasks over its summed latency
        "tasks_per_s": sum(r.payload["tasks_completed"] for r in cold)
        / sum(lat[id(r)] / 1e3 for r in cold),
        "req_p50_ms": median(lat.values()),
        "req_p90_ms": percentile(lat.values(), 0.9),
        "cold_p50_ms": median(lat[id(r)] for r in cold),
        "hit_p50_ms": median(lat[id(r)] for r in hot),
    }


def _backlog_max(answers: list[Reply]) -> int:
    """Most requests outstanding at once (sent, not yet answered)."""
    events = []
    for r in answers:
        events.append((r.due + r.late_ms / 1e3, 1))
        events.append((r.due + r.latency_ms / 1e3, -1))
    depth = best = 0
    for _, d in sorted(events):
        depth += d
        best = max(best, depth)
    return best


def end_to_end(seed: int, seconds: float, slowdown: Optional[str] = None) -> tuple[dict, dict, list]:
    speed = HostSpeed(m=GAP_PASS_KEYS)
    setups = []
    server = None
    for i in range(SETUP_REPEATS):
        server = Server(slowdown=slowdown)
        setups.append(server.setup_s)
        if i < SETUP_REPEATS - 1:
            server.stop()
    assert server is not None
    try:
        session = Session(seed, seconds, server)
        session.warm()
        replies = session.run(speed)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    if not speed.samples:  # a loop too short for an idle gap
        speed.sample()
    session.check(replies)
    n = len(replies)
    good = sum(1 for r in replies if r.ok and r.latency_ms <= LATENCY_LIMIT_MS)
    # the loop's wall time: from the first due time to the last answer
    wall = max(r.due + r.latency_ms / 1e3 for r in replies if r.ok) - min(r.due for r in replies)
    raw = {
        **_latency_metrics(replies),
        "sim_makespan_s": sum(p["makespan"] for p in session.warm_payloads),
        "goodput_rps": good / wall,
        "ok_frac": (n - len(session.failures)) / n,
        "setup_s": median(setups),
        "peak_rss_mb": rss,
    }
    # goodput is not scaled: the open loop fixes the offered rate
    metrics = dict(raw, **_latency_metrics(
        replies, lambda r: speed.factor_near(r.due, SCALE_WINDOW_S)
    ))
    info = {
        "raw": raw,
        "host_pass_s": {
            "passes": len(speed.samples),
            "quartiles": [round(q, 5) for q in statistics.quantiles(speed.samples, n=4)]
            if len(speed.samples) > 1 else speed.samples,
        },
        "requests": n,
        "cold_requests": sum(1 for r in replies if r.kind == "cold"),
        "hit_requests": sum(1 for r in replies if r.kind == "hot"),
        "late_p90_ms": percentile([r.late_ms for r in replies], 0.9),
        "backlog_max": _backlog_max(replies),
        "setup_samples_s": setups,
        "counters": counters(replies),
    }
    return metrics, info, session.failures


def traced(seed: int, seconds: float, slowdown: Optional[str] = None) -> tuple[dict, dict, list]:
    """Untraced half, then the same plan against a traced server."""
    half = seconds / 2
    plain = Server(slowdown=slowdown)
    try:
        s0 = Session(seed, half, plain)
        s0.warm()
        r0 = s0.run()
    finally:
        plain.stop()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-service-mixed-seed{seed}.json"
    server = Server(trace_out=str(spans_path), slowdown=slowdown)
    try:
        s1 = Session(seed, half, server)
        s1.warm()
        r1 = s1.run()
    finally:
        server.stop()
    s1.check(r1)
    failures = s0.failures + s1.failures
    c0, c1 = counters(r0), counters(r1)
    if c0 != c1:
        failures.append(f"work counters differ between untraced and traced runs: {c0} != {c1}")
    doc = json.loads(spans_path.read_text())
    totals = doc["totals"]
    self_s, incl, calls, counts = (
        totals["self_s"], totals["incl_s"], totals["calls"], totals["counts"]
    )
    st0, st1 = _loop_stats(r0), _loop_stats(r1)
    # the warm-up answers are cold runs on the same server: count them
    cold_payloads = [r.payload for r in st1["cold"]] + s1.warm_payloads
    n_cold = len(cold_payloads)
    n_req = len(r1) + len(s1.hot)
    tasks_all = max(1, sum(p["tasks_completed"] for p in cold_payloads))
    decisions = max(1, calls.get("runtime.dispatch", 0))
    rid_incl = totals["rid_incl_s"]
    phases = ("service.fingerprint", "service.build", "service.simulate",
              "service.serialize", "service.cache_lookup", "service.cache_insert")

    def per_cold_ms(name: str) -> float:
        return incl.get(name, 0.0) / n_cold * 1e3

    out = {name: 0.0 for name in PER_LAYER}
    for metric_name, names in SELF_TIME_SPANS.items():
        out[metric_name] = sum(self_s.get(n, 0.0) for n in names) / n_cold * 1e6
    loop_ids = [r.rid for r in r1 if r.ok]
    out.update({
        "core.capable_workers_per_decision": counts.get("core.capable_workers", 0) / decisions,
        "core.group_key_per_task": counts.get("core.group_key", 0) / tasks_all,
        "core.mean_time_per_decision": counts.get("core.mean_time", 0) / decisions,
        "core.gpu_task_frac": sum(
            s["tasks_run"] for p in cold_payloads
            for w, s in p["worker_stats"].items() if "gpu" in w
        ) / tasks_all,
        "memory.transfers_per_task": sum(
            sum(p["transfer_stats"]["counts"].values()) for p in cold_payloads
        ) / tasks_all,
        "memory.mb_moved": sum(
            sum(p["transfer_stats"]["bytes"].values()) for p in cold_payloads
        ) / max(1, len(cold_payloads)) / 1e6,
        "sim.events_per_task": counts.get("sim.events", 0) / tasks_all,
        "sanitizer.validate_ms": per_cold_ms("sanitizer.validate"),
        "service.spec_us": incl.get("service.spec", 0.0) / n_req * 1e6,
        "service.fingerprint_ms": per_cold_ms("service.fingerprint"),
        "service.build_ms": per_cold_ms("service.build"),
        "service.simulate_ms": (
            incl.get("service.simulate", 0.0) - incl.get("sanitizer.validate", 0.0)
        ) / n_cold * 1e3,
        "service.serialize_ms": per_cold_ms("service.serialize"),
        "service.cache_lookup_us": incl.get("service.cache_lookup", 0.0) / n_req * 1e6,
        "service.cache_insert_ms": per_cold_ms("service.cache_insert"),
        "service.server_other_ms": sum(
            r.elapsed_ms - rid_incl.get(r.rid, {}).get("service.execute", 0.0) * 1e3
            for r in r1 if r.ok
        ) / max(1, len(loop_ids)),
        "service.wire_ms": sum(r.wire_ms for r in r1 if r.ok) / max(1, len(loop_ids)),
        "service.response_kb": sum(r.size for r in r1) / len(r1) / 1e3,
        "service.fp_memo_hit_ratio": 1.0 - calls.get("service.fingerprint", 0) / max(
            1, calls.get("service.execute", 0)
        ),
        "service.cache_hit_ratio": len(st1["hot"]) / len(r1),
        "loadgen.late_p90_ms": percentile([r.late_ms for r in r1], 0.9),
        "loadgen.backlog_max": _backlog_max(r1),
        "trace.residual_us": (
            incl.get("service.execute", 0.0) - sum(incl.get(n, 0.0) for n in phases)
        ) / n_req * 1e6,
        "trace.overhead_pct": (st1["cold_p50_ms"] / st0["cold_p50_ms"] - 1.0) * 100.0,
    })
    info = {
        "requests": len(r1),
        "cold_requests": len(st1["cold"]),
        "untraced_cold_p50_ms": st0["cold_p50_ms"],
        "traced_cold_p50_ms": st1["cold_p50_ms"],
        "span_calls": dict(sorted(calls.items())),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "counters": c1,
    }
    return out, info, failures
