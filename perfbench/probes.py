"""Probes the benchmark installs around the public calls of each layer.

Nothing under ``src/`` knows about them: :func:`install` replaces class
and module attributes of the ``repro`` package with timing wrappers and
:meth:`Probes.uninstall` puts the originals back.  Two kinds of probe:

* **spans** — start, end, parent and request id of one call.  Self time
  (the span minus the part of it its child spans cover) and inclusive
  time are summed per span name as calls return, per thread, so the
  service's worker threads never share a counter.  The first
  ``keep_spans`` span records are kept in memory and written out by
  :meth:`Tracer.dump` when the run ends.
* **counters** — plain call counts at a boundary (``capable_workers``,
  ``SizeGrouping.key``, ``mean_time``), the work counts the versioning
  kernel is judged by.

:func:`inject_slowdown` is the benchmark's own fault: it makes one
public function cost a fixed fraction more than it measured, so the
sensitivity test can show a gate failing on a real-looking regression.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Optional

_now = time.perf_counter


class _ThreadState:
    __slots__ = ("stack", "self_s", "incl_s", "calls", "counts", "rid_incl", "rid")

    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        # (request id, span name) -> inclusive seconds, service spans only
        self.rid_incl: dict[tuple[str, str], float] = defaultdict(float)
        self.rid: Optional[str] = None


class Tracer:
    """In-memory span and counter store (see module docstring)."""

    def __init__(self, keep_spans: int = 100_000) -> None:
        self.keep_spans = keep_spans
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        st = getattr(self._tls, "st", None)
        if st is None:
            st = _ThreadState()
            self._tls.st = st
            with self._lock:
                self._states.append(st)
        return st

    def set_rid(self, rid: Optional[str]) -> None:
        """Tag the spans this thread records next with request ``rid``."""
        self._state().rid = rid

    # ------------------------------------------------------------------
    def span(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        keep = self.keep_spans
        ids = self._ids
        per_rid = name.startswith("service.")

        def traced(*args: Any, **kwargs: Any) -> Any:
            st = self._state()
            stack = st.stack
            sid = next(ids)
            frame = [0.0, sid]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                dur = t1 - t0
                st.self_s[name] += dur - frame[0]
                st.incl_s[name] += dur
                st.calls[name] += 1
                if stack:
                    stack[-1][0] += dur
                if per_rid and st.rid is not None:
                    st.rid_incl[(st.rid, name)] += dur
                if len(spans) < keep:
                    spans.append((sid, name, t0, t1, parent, st.rid))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        def counted(*args: Any, **kwargs: Any) -> Any:
            self._state().counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn  # type: ignore[attr-defined]
        return counted

    def request_span(self, name: str, fn: Callable, rid_of: Callable[..., str]) -> Callable:
        """A span that also tags everything beneath it with a request id."""
        inner = self.span(name, fn)

        def tagged(*args: Any, **kwargs: Any) -> Any:
            st = self._state()
            prev, st.rid = st.rid, rid_of(*args, **kwargs)
            try:
                return inner(*args, **kwargs)
            finally:
                st.rid = prev

        return tagged

    # ------------------------------------------------------------------
    def totals(self) -> dict:
        """Merged per-name aggregates over every thread that traced."""
        out: dict[str, dict] = {
            "self_s": defaultdict(float),
            "incl_s": defaultdict(float),
            "calls": defaultdict(int),
            "counts": defaultdict(int),
        }
        rid_incl: dict[str, dict[str, float]] = defaultdict(dict)
        with self._lock:
            states = list(self._states)
        for st in states:
            for key in ("self_s", "incl_s", "calls", "counts"):
                for name, v in getattr(st, key).items():
                    out[key][name] += v
            for (rid, name), v in st.rid_incl.items():
                rid_incl[rid][name] = rid_incl[rid].get(name, 0.0) + v
        res = {k: dict(v) for k, v in out.items()}
        res["rid_incl_s"] = dict(rid_incl)
        return res

    def dump(self, path: str) -> None:
        """Write the kept spans and the aggregates as one JSON document."""
        doc = {
            "fields": ["id", "name", "start", "end", "parent", "rid"],
            "spans": self.spans,
            "totals": self.totals(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# ----------------------------------------------------------------------
# What is probed
# ----------------------------------------------------------------------
def _public(cls: type) -> list[str]:
    return [
        n for n, v in vars(cls).items()
        if not n.startswith("_") and callable(v) and not isinstance(v, (staticmethod, type))
    ]


def _span_table(service: bool) -> list[tuple[str, Any, list[str]]]:
    """(span name, owner class or module, attribute names) per boundary."""
    from repro.apps.cholesky import CholeskyApp
    from repro.apps.matmul import MatmulApp
    from repro.apps.pbpi import PBPIApp
    from repro.cluster.protocol import NotificationRouter
    from repro.cluster.sharded import ShardedClusterScheduler
    from repro.core.versioning import VersioningScheduler
    from repro.memory.cache import CacheManager
    from repro.memory.directory import Directory
    from repro.memory.transfers import TransferEngine
    from repro.runtime.dependences import DependenceGraph
    from repro.runtime.runtime import OmpSsRuntime
    from repro.sim.engine import SimEngine

    table: list[tuple[str, Any, list[str]]] = [
        ("runtime.submit", OmpSsRuntime, ["submit"]),
        ("runtime.dispatch", OmpSsRuntime, ["dispatch"]),
        ("runtime.deps", DependenceGraph, ["add_task", "task_finished"]),
        ("core.task_ready", VersioningScheduler, ["task_ready"]),
        ("core.task_finished", VersioningScheduler, ["task_finished"]),
        ("memory.transfer", TransferEngine, ["issue", "send_message"]),
        ("memory.directory", Directory, _public(Directory)),
        ("memory.cache", CacheManager, _public(CacheManager)),
        ("sim.engine", SimEngine, ["run", "run_while", "step"]),
        ("cluster.sharded", ShardedClusterScheduler,
         ["task_submitted", "task_ready", "task_started", "task_finished"]),
        # deliveries and acks are the protocol's event-side entry points
        ("cluster.protocol", NotificationRouter, ["send", "_on_wire_delivered", "_on_ack"]),
    ]
    # the master thread's own work: task-wrapper calls, region lookups
    for app in (MatmulApp, CholeskyApp, PBPIApp):
        table.append(("runtime.directives", app, ["master"]))
    if service:
        import repro.runtime.serialize as serialize
        import repro.sanitizer.invariants as invariants
        import repro.service.server as server
        from repro.service.cache import ResultCache
        from repro.service.spec import SubmissionSpec

        table += [
            ("sanitizer.validate", invariants, ["validate_run"]),
            ("service.spec", SubmissionSpec, ["from_dict"]),
            ("service.fingerprint", server, ["app_graph_fingerprint"]),
            ("service.build", SubmissionSpec, ["build_app", "build_machine"]),
            ("service.simulate", server.SchedulerService, ["_simulate"]),
            ("service.serialize", serialize, ["run_result_to_dict"]),
            ("service.cache_lookup", ResultCache, ["lookup"]),
            ("service.cache_insert", ResultCache, ["insert"]),
        ]
        for app in (MatmulApp, CholeskyApp, PBPIApp):
            table.append(("service.build", app, ["register_cost_models"]))
    return table


def _counter_table() -> list[tuple[str, Any, list[str]]]:
    from repro.core import grouping
    from repro.core.profile import SizeGroupProfile
    from repro.schedulers.base import Scheduler

    table: list[tuple[str, Any, list[str]]] = [
        ("core.capable_workers", Scheduler, ["capable_workers"]),
        ("core.mean_time", SizeGroupProfile, ["mean_time"]),
    ]
    for cls in vars(grouping).values():
        if isinstance(cls, type) and issubclass(cls, grouping.SizeGrouping) and "key" in vars(cls):
            table.append(("core.group_key", cls, ["key"]))
    return table


class Probes:
    """Installed wrappers; :meth:`uninstall` restores every original."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new: Any = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def install(tracer: Tracer, probes: Probes, *, service: bool = False) -> None:
    """Wrap every layer boundary (and, with ``service``, the service phases)."""
    from repro.sim.engine import SimEngine

    for name, owner, attrs in _span_table(service):
        for attr in attrs:
            probes.patch(owner, attr, lambda fn, n=name: tracer.span(n, fn))
    for name, owner, attrs in _counter_table():
        for attr in attrs:
            probes.patch(owner, attr, lambda fn, n=name: tracer.counter(n, fn))

    # event callbacks are wrapped where they are handed to the engine, so
    # every callback the engine fires is one span and one counted event
    def wrap_schedule(schedule: Callable) -> Callable:
        def schedule_traced(engine: Any, when: float, callback: Callable, **kw: Any) -> Any:
            cb = tracer.counter("sim.events", tracer.span("runtime.callbacks", callback))
            return schedule(engine, when, cb, **kw)

        return schedule_traced

    probes.patch(SimEngine, "schedule", wrap_schedule)

    if service:
        from repro.service.server import SchedulerService

        probes.patch(
            SchedulerService, "_execute",
            lambda fn: tracer.request_span("service.execute", fn, lambda svc, job: job.id),
        )


# ----------------------------------------------------------------------
# Injected slowdown (sensitivity test)
# ----------------------------------------------------------------------
def _slowdown_targets() -> dict[str, list[tuple[Any, str]]]:
    from repro.core.versioning import VersioningScheduler
    from repro.runtime.runtime import OmpSsRuntime
    from repro.sim.engine import SimEngine

    return {
        "core.task_ready": [(VersioningScheduler, "task_ready")],
        "runtime.dispatch": [(OmpSsRuntime, "dispatch")],
        "sim.engine": [(SimEngine, "run"), (SimEngine, "run_while"), (SimEngine, "step")],
    }


def inject_slowdown(probes: Probes, target: str, frac: float) -> None:
    """Make each call of ``target`` spin ``frac`` times its own duration."""
    targets = _slowdown_targets()
    if target not in targets:
        raise ValueError(f"unknown slowdown target {target!r}; known: {sorted(targets)}")

    def make(fn: Callable) -> Callable:
        def slowed(*args: Any, **kwargs: Any) -> Any:
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                until = end + (end - t0) * frac
                while _now() < until:
                    pass

        return slowed

    for owner, attr in targets[target]:
        probes.patch(owner, attr, make)


def parse_slowdown(spec: Optional[str]) -> Optional[tuple[str, float]]:
    """``"core.task_ready:0.3"`` -> ("core.task_ready", 0.3)."""
    if not spec:
        return None
    target, _, frac = spec.partition(":")
    return target, float(frac or 0.3)
