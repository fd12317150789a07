"""Shared pieces of the benchmark: metric names, statistics, run context."""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Iterable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: end-to-end metrics every workload reports with ``--trace 0``.  The
#: median request latency is printed with the raw values only: on
#: service-mixed it is the hits' 67th percentile, the knee between hits
#: that wait behind a cold run and hits that do not, and it moved by 28%
#: (IQR over median) across ten seeds
END_TO_END = {
    "tasks_per_s": "tasks/s",
    "sim_makespan_s": "sim_s",
    "req_p90_ms": "ms",
    "cold_p50_ms": "ms",
    "hit_p50_ms": "ms",
    "goodput_rps": "req/s",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics every workload reports with ``--trace 1``; the
#: value is 0 where a layer is not on the workload's path
PER_LAYER = {
    "runtime.submit_us": "us",
    "runtime.directives_us": "us",
    "runtime.deps_us": "us",
    "runtime.dispatch_us": "us",
    "runtime.callbacks_us": "us",
    "core.task_ready_us": "us",
    "core.task_finished_us": "us",
    "core.capable_workers_per_decision": "count",
    "core.group_key_per_task": "count",
    "core.mean_time_per_decision": "count",
    "core.gpu_task_frac": "ratio",
    "core.time_to_reliable_sim_s": "sim_s",
    "memory.transfer_us": "us",
    "memory.directory_us": "us",
    "memory.cache_us": "us",
    "memory.transfers_per_task": "count",
    "memory.mb_moved": "MB",
    "sim.engine_us": "us",
    "sim.events_per_task": "count",
    "cluster.sharded_us": "us",
    "cluster.protocol_us": "us",
    "cluster.notifications": "count",
    "cluster.steals": "count",
    "sanitizer.validate_ms": "ms",
    "service.spec_us": "us",
    "service.fingerprint_ms": "ms",
    "service.build_ms": "ms",
    "service.simulate_ms": "ms",
    "service.serialize_ms": "ms",
    "service.cache_lookup_us": "us",
    "service.cache_insert_ms": "ms",
    "service.server_other_ms": "ms",
    "service.wire_ms": "ms",
    "service.response_kb": "kB",
    "service.fp_memo_hit_ratio": "ratio",
    "service.cache_hit_ratio": "ratio",
    "loadgen.late_p90_ms": "ms",
    "loadgen.backlog_max": "count",
    "trace.residual_us": "us",
    "trace.overhead_pct": "%",
}

#: per-layer self-time metric -> the span names it sums
SELF_TIME_SPANS = {
    "runtime.submit_us": ["runtime.submit"],
    "runtime.directives_us": ["runtime.directives"],
    "runtime.deps_us": ["runtime.deps"],
    "runtime.dispatch_us": ["runtime.dispatch"],
    "runtime.callbacks_us": ["runtime.callbacks"],
    "core.task_ready_us": ["core.task_ready"],
    "core.task_finished_us": ["core.task_finished"],
    "memory.transfer_us": ["memory.transfer"],
    "memory.directory_us": ["memory.directory"],
    "memory.cache_us": ["memory.cache"],
    "sim.engine_us": ["sim.engine"],
    "cluster.sharded_us": ["cluster.sharded"],
    "cluster.protocol_us": ["cluster.protocol"],
}


#: timings are scaled to a host on which one :class:`HostSpeed` pass of
#: :data:`PASS_KEYS` keys takes this long
NOMINAL_PASS_S = 0.1
PASS_KEYS = 50_000


class _Rec:
    __slots__ = ("key", "val", "nxt", "hits")

    def __init__(self, key: Any, val: float, nxt: "Optional[_Rec]") -> None:
        self.key, self.val, self.nxt, self.hits = key, val, nxt, 0


class HostSpeed:
    """How fast the host runs right now, from a fixed pure-Python pass.

    Small shared boxes drift in speed by tens of percent over minutes,
    which moves every wall-clock metric of a run together.  The pass does
    the simulator's kind of work (dict lookups over a working set of
    slotted objects, a heap, small allocations) with none of the
    program's code, so a change to the program cannot move it.  Runs
    sample it between iterations (the service workload in the gaps of its
    loop while the server is idle, with a shorter pass of ``m`` keys) and
    scale each timing by the passes nearest to it; the raw values are
    printed beside the scaled ones.
    """

    def __init__(self, n: int = 60_000, m: int = PASS_KEYS) -> None:
        rng = random.Random(1)
        self._table = {("r", i): _Rec(i, float(i), None) for i in range(n)}
        self._keys = [("r", rng.randrange(n)) for _ in range(m)]
        self.samples: list[float] = []
        self.stamps: list[float] = []  # perf_counter at the end of each pass

    def _pass(self) -> float:
        table, heap, acc = self._table, [], 0.0
        for j, key in enumerate(self._keys):
            rec = table[key]
            rec.hits += 1
            acc += rec.val
            heapq.heappush(heap, (rec.val, j, _Rec(key, acc, rec)))
            if len(heap) > 512:
                acc += heapq.heappop(heap)[2].nxt.val
        return acc

    def sample(self) -> None:
        gc.disable()  # the program's live objects must not slow the pass
        try:
            t0 = time.perf_counter()
            self._pass()
            t1 = time.perf_counter()
            self.samples.append(t1 - t0)
            self.stamps.append(t1)
        finally:
            gc.enable()

    def factor(self) -> float:
        """Nominal over measured pass time: times are multiplied by it,
        rates divided, giving the values on the nominal host."""
        return self._nominal() / median(self.samples)

    def factor_near(self, t: float, window_s: float, min_samples: int = 3) -> float:
        """:meth:`factor` from the mean of the passes within ``window_s``
        of ``t`` (a ``perf_counter`` time), or of all if there are too few.

        The mean, not the median: on a shared host pass times fall into a
        fast and a slow group (periods when other tenants take the CPU),
        and a median jumps between the groups as their shares shift.
        """
        near = [x for x, u in zip(self.samples, self.stamps) if abs(u - t) <= window_s]
        return self.factor_of(near if len(near) >= min_samples else self.samples)

    def factor_of(self, passes: Iterable[float]) -> float:
        """Nominal over the mean of the given pass times."""
        return self._nominal() / statistics.fmean(passes)

    def _nominal(self) -> float:
        return NOMINAL_PASS_S * len(self._keys) / PASS_KEYS


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    k = max(0, min(len(xs) - 1, int(round(q * len(xs) + 0.5)) - 1))
    return xs[k]


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def canonical(payload: Any) -> bytes:
    """The canonical encoding results are compared by."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def git_commit() -> str:
    """The checked-out commit, or ``unknown`` outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def sim_backend() -> str:
    """The resolved event-core backend (never builds anything)."""
    requested = os.environ.get("REPRO_SIM_BACKEND", "pure").strip().lower() or "pure"
    if requested == "pure":
        return "pure"
    from repro.sim.backend import resolve

    return resolve()


def context(workload: str, seed: int, seconds: float, trace: bool, **extra: Any) -> dict:
    ctx = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "sim_backend": sim_backend(),
        "commit": git_commit(),
    }
    ctx.update(extra)
    return ctx


def src_env() -> dict:
    """Environment for child processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def stop_process(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """SIGTERM, wait, and SIGKILL if it does not end; always reaps."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set of ``pid`` (or this process), in MB."""
    if pid is None:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def timed_setups(cmd: list[str], repeats: int, ready: str = "ready") -> list[float]:
    """Spawn ``cmd`` ``repeats`` times; seconds from spawn to its ``ready`` line."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=src_env(), stdout=subprocess.PIPE, text=True
        )
        try:
            assert proc.stdout is not None
            line = proc.stdout.readline()
            if line.strip() != ready:
                raise RuntimeError(f"set-up child said {line!r}")
            times.append(time.perf_counter() - t0)
        finally:
            stop_process(proc)
            if proc.stdout is not None:
                proc.stdout.close()
    return times


def emit(result: dict) -> None:
    print(json.dumps(result, sort_keys=True), flush=True)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def log(*parts: Any) -> None:
    print(*parts, file=sys.stderr, flush=True)
