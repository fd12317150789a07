"""Canonical, process-stable task-graph fingerprints.

The service's result cache is keyed by *what was submitted*: two
submissions that build the same task graph must hash identically in any
process — independent of ``PYTHONHASHSEED``, dict iteration order, the
run-global ``TaskInstance.uid`` counter, and run-local artifacts such as
region labels derived from array addresses.  The canonicalization
therefore never hashes raw identifiers:

* tasks are numbered by **submission order** (position, not uid),
* regions are numbered by **first appearance** while walking the tasks'
  access lists in submission order; only that index plus the region's
  byte size enters the hash (keys are identity, not content),
* per task: definition name, version names in registration order, the
  access list (region index, clause kind), cost-model params (sorted),
  and the ``priority`` clause,
* dependence edges as (src position, dst position, kind, region index),
  in the deterministic order the dependence analysis discovered them.

The result is hashed as canonical JSON (sorted keys, fixed separators)
under SHA-256.

The service fingerprints a successful run from the run's own graph
(:func:`graph_fingerprint` of ``RunResult.graph``): the runtime's
dependence graph keeps every task and edge, finished or not, in
submission order, so it hashes exactly like a capture.
:class:`GraphCapture` runs an application's master body against a
recording stub — dependence analysis only, no simulation.  The service
captures only when it must know a key without a whole run: to key a
failed run (its own graph may be partial), to re-check a key rebuilt
from a persisted cache on its first use, and to key a new spelling
before it runs while the breaker holds some key in cooldown.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any, Iterable, Optional

from repro.runtime import context
from repro.runtime.dataregion import AccessKind
from repro.runtime.dependences import DependenceGraph, DepKind
from repro.runtime.task import TaskInstance

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.base import Application

#: clause and dependence kinds by name, looked up once per access/edge
#: instead of through ``Enum.value``
_ACCESS_NAMES = {k: k.value for k in AccessKind}
_DEP_NAMES = {k: k.value for k in DepKind}


def canonical_graph_dict(
    tasks: Iterable[TaskInstance], edges: Iterable[Any]
) -> dict:
    """The canonical JSON-compatible form of a task graph.

    ``tasks`` must be in submission order; ``edges`` are
    :class:`~repro.runtime.dependences.DepEdge` objects between them.
    Raises :class:`KeyError` if an edge references an unknown task.

    Regions are indexed by their interned ``rid`` (one per distinct
    key), clause kinds go through the precomputed name tables, and each
    definition's version names are listed once per call; tasks of one
    definition share that list, which serialises to the same bytes.
    """
    task_index: dict[int, int] = {}
    region_index: dict[int, int] = {}
    region_sizes: list[int] = []
    version_names: dict[int, list[str]] = {}
    out_tasks: list[list] = []

    for pos, t in enumerate(tasks):
        task_index[t.uid] = pos
        accesses = []
        for acc in t.accesses:
            region = acc.region
            rid = region_index.get(region.rid)
            if rid is None:
                rid = region_index[region.rid] = len(region_sizes)
                region_sizes.append(int(region.nbytes))
            accesses.append([rid, _ACCESS_NAMES[acc.kind]])
        definition = t.definition
        names = version_names.get(id(definition))
        if names is None:
            names = version_names[id(definition)] = [
                v.name for v in definition.versions
            ]
        out_tasks.append(
            [
                definition.name,
                names,
                accesses,
                sorted((str(k), float(v)) for k, v in t.params.items()),
                int(t.priority),
            ]
        )

    out_edges = [
        [
            task_index[e.src],
            task_index[e.dst],
            _DEP_NAMES[e.kind],
            region_index[e.region.rid],
        ]
        for e in edges
    ]
    return {
        "version": 1,
        "tasks": out_tasks,
        "regions": region_sizes,
        "edges": out_edges,
    }


def graph_fingerprint(graph: DependenceGraph) -> str:
    """SHA-256 digest (``gfp:`` prefixed, 16 hex chars) of a graph."""
    canonical = canonical_graph_dict(graph._tasks.values(), graph.edges)
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return "gfp:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class GraphCapture:
    """A stub runtime that records submissions without simulating.

    Exposes exactly the surface a master-thread body touches — ``submit``
    via the ``@task`` call protocol, plus no-op ``taskwait`` variants —
    and feeds every task through the real dependence analysis.  Use as a
    context manager, like the runtime it impersonates::

        cap = GraphCapture()
        with cap:
            app.master(cap)
        print(cap.fingerprint())
    """

    def __init__(self) -> None:
        self.graph = DependenceGraph()
        self.tasks: list[TaskInstance] = []

    # -- the surface @task and master bodies use -----------------------
    def submit(self, t: TaskInstance) -> None:
        self.tasks.append(t)
        self.graph.add_task(t)

    def taskwait(self, *, noflush: bool = False) -> None:
        """No-op: capture has no clock to advance."""

    def taskwait_on(self, *data: Any, noflush: bool = False) -> None:
        """No-op: capture has no clock to advance."""

    def __enter__(self) -> "GraphCapture":
        context.push_runtime(self)  # type: ignore[arg-type]
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        context.pop_runtime(self)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        return graph_fingerprint(self.graph)


def app_graph_fingerprint(app: "Application") -> str:
    """Fingerprint of the graph an application's master body submits.

    The application instance must be freshly constructed (masters may
    consume instance state); the capture does not simulate, so this is
    cheap relative to a run.  It equals :func:`graph_fingerprint` of a
    completed run's graph, which is how the service keys successful
    runs (see the module docstring for when it captures instead).
    """
    cap = GraphCapture()
    with cap:
        app.master(cap)  # type: ignore[arg-type]
    return cap.fingerprint()


__all__ = [
    "GraphCapture",
    "app_graph_fingerprint",
    "canonical_graph_dict",
    "graph_fingerprint",
]
