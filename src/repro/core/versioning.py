"""The versioning scheduler — the paper's contribution (§IV-B).

Policy summary:

* **Learning phase** (per task, per data-set-size group): "picking task
  versions from ready tasks in a Round-Robin fashion and distributing
  them among OmpSs workers.  ...  We force the scheduler to run each
  task version at least λ times."  Each version is dispatched until λ
  runs are underway; the group then graduates as soon as all versions
  have λ *recorded* executions.

* **Reliable-information phase**: each ready task goes to its
  **earliest executor** — over all (version, worker) pairs, minimise
  *worker estimated busy time* + *version mean execution time*.  The
  fastest executor usually wins, but a busy fastest executor loses to an
  idle slower one, exactly the Figure 5 scenario.

* The scheduler never stops learning: every completed task updates its
  version's running mean, and an unseen data-set size sends that group
  back to the learning phase.

The placement rule itself is one pure function,
:func:`repro.core.decision.decide`; this class keeps the bookkeeping
around it: the ready pool, per-worker busy estimates, pending
assignments, per-definition plans and per-group state.

Dispatch discipline
-------------------
Ready tasks enter the scheduler's pool and are *pumped* into per-worker
queues only while a worker has queue room (``queue_depth``, default 2 =
one running + one prefetching).  This bounded look-ahead mirrors how the
Nanos++ workers pick work and is what produces two emergent behaviours
the paper reports: "the SMP worker threads keep picking the SMP version
while the GPUs are busy", and "for the final part of the computation ...
only the GPUs run the fastest implementation to avoid losing
performance" — once the pool drains, the earliest executor of the few
remaining tasks is always a GPU.

Tunables (all exposed to the ablation benches): λ (``lam``), the
estimator kind (arithmetic mean / EWMA), the size-grouping strategy
(exact / relative range / fixed bins), ``queue_depth`` and an optional
warm-start profile table loaded from a hints file or profile store.

Warm-start policies
-------------------
``warm_start`` governs how much λ-credit preloaded (hints/store)
executions carry:

* ``trust`` — preloaded executions count fully toward λ: a group whose
  every version was preloaded with ≥ λ executions skips the learning
  phase outright,
* ``probation`` — preloaded credit is capped at ``λ - probation_lam``,
  so each preloaded version must still be re-validated by at least
  ``probation_lam`` live executions before the group graduates (a
  shortened learning phase),
* ``cold`` — hints are ignored entirely; full learning from scratch.

Fault-aware cost estimation
---------------------------
With ``fault_aware`` enabled the earliest-executor computation inflates
a worker's (busy time + mean) by ``1 / (1 - fault_rate)`` using the
observed transient-fault rate from the resilience counters: a
flaky-but-fast device is discounted before it faults again, because the
expected number of attempts per completed task there is ``1/(1-rate)``.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Deque, Hashable, Optional

from repro.core.decision import Decision, VersionPlan, decide, learning_credit
from repro.core.grouping import SizeGrouping, make_grouping
from repro.core.profile import SizeGroupProfile, VersionProfileTable
from repro.runtime.task import TaskDefinition, TaskInstance, TaskVersion
from repro.schedulers.base import Scheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.worker import Worker

#: Default λ: "we force the scheduler to run each task version at least
#: λ times during the initial learning phase" — configurable by the user
#: (footnote 4); three runs is the value our benches default to.
DEFAULT_LAMBDA = 3

#: Default per-worker queue bound (running + prefetching).
DEFAULT_QUEUE_DEPTH = 2

#: Valid warm-start policies for preloaded profile entries.
WARM_START_POLICIES = ("trust", "probation", "cold")


class VersioningScheduler(Scheduler):
    name = "versioning"
    supports_versions = True

    def __init__(
        self,
        *,
        lam: int = DEFAULT_LAMBDA,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        estimator: str = "mean",
        estimator_options: Optional[dict] = None,
        grouping: "str | SizeGrouping" = "exact",
        grouping_options: Optional[dict] = None,
        hints: Optional[dict] = None,
        warm_start: str = "trust",
        probation_lam: int = 1,
        fault_aware: bool = False,
        fault_rate_cap: float = 0.9,
        reliable_queue_bound: Optional[int] = None,
    ) -> None:
        super().__init__()
        if lam < 1:
            raise ValueError("lam (λ) must be at least 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")
        if reliable_queue_bound is not None and reliable_queue_bound < 1:
            raise ValueError("reliable_queue_bound must be at least 1")
        if warm_start not in WARM_START_POLICIES:
            raise ValueError(
                f"warm_start must be one of {WARM_START_POLICIES}, got {warm_start!r}"
            )
        if not 1 <= probation_lam <= lam:
            raise ValueError("probation_lam must be in [1, lam]")
        if not 0.0 <= fault_rate_cap < 1.0:
            raise ValueError("fault_rate_cap must be in [0, 1)")
        self.lam = lam
        self.queue_depth = queue_depth
        # When set, the reliable phase also gates dispatch on queue room
        # (late binding): tasks linger in the pool instead of sinking
        # into deep worker queues, which keeps them *stealable* — the
        # cluster scheduler's per-node instances run in this mode.
        self.reliable_queue_bound = reliable_queue_bound
        self.warm_start = warm_start
        self.probation_lam = probation_lam
        self.fault_aware = fault_aware
        self.fault_rate_cap = fault_rate_cap
        if isinstance(grouping, str):
            grouping = make_grouping(grouping, **(grouping_options or {}))
        elif grouping_options:
            raise ValueError("grouping_options only apply when grouping is a name")
        self.table = VersionProfileTable(
            grouping=grouping,
            estimator_kind=estimator,
            estimator_options=estimator_options,
        )
        self.preloaded_entries = 0
        if hints and warm_start != "cold":
            self.preloaded_entries = self.table.preload(hints)
        # λ-credit cap on preloaded executions (None: they count fully)
        self._credit_cap = (
            max(0, lam - probation_lam) if warm_start == "probation" else None
        )
        # the penalty hook is only called when a subclass overrides it
        self._penalized = (
            type(self)._placement_penalty is not VersioningScheduler._placement_penalty
        )
        # ready tasks not yet placed in any worker queue (FIFO)
        self._pool: Deque[TaskInstance] = deque()
        # pooled task uid -> its (task name, size-group key), computed
        # once at ready (kept beside the pool rather than in it: a
        # per-task tuple holding the task would be one more container
        # for the garbage collector to track)
        self._gkey_by_uid: dict[int, tuple[str, Hashable]] = {}
        # bumped by every pool append or steal: a pump that sees it move
        # across a dispatch rescans from the head
        self._pool_edits = 0
        # count of pooled tasks with a non-zero priority clause, kept in
        # step with every _pool mutation: _pump consults it per scan
        # instead of re-walking the pool
        self._prio_in_pool = 0
        self._pumping = False
        # (task name, size-group key) -> its _GroupState, created at the
        # key's first decision
        self._groups: dict[tuple[str, Hashable], _GroupState] = {}
        # task definition -> its VersionPlan, valid for one value of the
        # runtime's liveness epoch (_plans_epoch)
        self._plans: dict[TaskDefinition, VersionPlan] = {}
        self._plans_epoch = -1
        # worker name -> estimated busy time (sum of estimates of queued
        # + running tasks, §IV-B "OmpSs worker estimated busy time")
        self._busy_est: dict[str, float] = {}
        # task uid -> the estimate added at dispatch, and the state of
        # its size group, to undo at finish or requeue (two dicts, not
        # one of tuples, for the same reason as _gkey_by_uid)
        self._est_by_uid: dict[int, float] = {}
        self._state_by_uid: dict[int, _GroupState] = {}
        # diagnostics for tests/benches
        self.learning_dispatches = 0
        self.reliable_dispatches = 0
        # per-(task name, size-group key) dispatch counters, consumed by
        # the trace sanitizer's λ-consistency check (SAN-T005)
        self.group_dispatches: dict[tuple, dict[str, int]] = {}
        # (task name, size-group key) -> simulated time of the group's
        # first reliable-phase dispatch — the per-group end of learning;
        # time_to_reliable_phase() aggregates these for the warm-start
        # benches
        self.group_reliable_at: dict[tuple, float] = {}

    # ------------------------------------------------------------------
    def bind(self, runtime) -> None:  # type: ignore[override]
        super().bind(runtime)
        self._busy_est = {w.name: 0.0 for w in runtime.workers}
        # plans name the previous runtime's workers: drop every one
        self._plans.clear()
        self._plans_epoch = -1
        for state in self._groups.values():
            state.plan = state.graduated = None

    # ------------------------------------------------------------------
    # Introspection helpers (used by tests and the Figure 5 bench)
    # ------------------------------------------------------------------
    def estimated_busy_time(self, worker: "Worker") -> float:
        """§IV-B: sum of estimated execution times of the worker's queue."""
        return self._busy_est[worker.name]

    def pool_size(self) -> int:
        return len(self._pool)

    def learning_credit(self, group: SizeGroupProfile, version_name: str) -> int:
        """Executions of ``version_name`` that count toward λ under this
        scheduler's warm-start policy.

        ``trust`` counts preloaded executions fully; ``probation`` caps
        their credit at ``λ - probation_lam`` so at least
        ``probation_lam`` live runs are still required; live executions
        always count in full.  (Under ``cold`` nothing was preloaded, so
        all three collapse to the raw execution count.)
        """
        return learning_credit(group.profile(version_name), self._credit_cap)

    def in_learning_phase(self, group: SizeGroupProfile, version_names: list[str]) -> bool:
        """True while any candidate version lacks λ credited executions."""
        return any(self.learning_credit(group, n) < self.lam for n in version_names)

    def time_to_reliable_phase(self) -> Optional[float]:
        """Simulated time at which the last size group seen so far left
        the learning phase (its first reliable dispatch), or ``None``
        when no group has graduated yet."""
        if not self.group_reliable_at:
            return None
        return max(self.group_reliable_at.values())

    def worker_fault_rate(self, worker: "Worker") -> float:
        """Observed transient-fault rate of ``worker`` (0 when the run
        has no resilience manager or no history)."""
        resilience = getattr(self.rt, "resilience", None)
        if resilience is None:
            return 0.0
        return resilience.worker_fault_rate(worker.name)

    def _plan(self, definition: TaskDefinition) -> VersionPlan:
        """The cached plan of ``definition``: versions that at least one
        live worker can run, with their capable workers.  Plans are
        rebuilt after any worker's liveness changes."""
        assert self.rt is not None
        epoch = self.rt.liveness_epoch
        if epoch != self._plans_epoch:
            self._plans.clear()
            self._plans_epoch = epoch
        plan = self._plans.get(definition)
        if plan is None:
            versions: list[TaskVersion] = []
            pairs: list[tuple[tuple[Worker, str], ...]] = []
            for v in definition.versions:
                workers = self.capable_workers(v)
                if workers:
                    versions.append(v)
                    pairs.append(tuple((w, w.name) for w in workers))
            if not versions:
                raise RuntimeError(
                    "no worker on this machine can run any version of task "
                    f"{definition.name!r}"
                )
            plan = VersionPlan(tuple(versions), tuple(pairs))
            self._plans[definition] = plan
        return plan

    # ------------------------------------------------------------------
    # Runtime hooks
    # ------------------------------------------------------------------
    def task_ready(self, t: TaskInstance) -> None:
        self._pool.append(t)
        self._gkey_by_uid[t.uid] = (t.name, self.table.grouping.key(t.data_bytes))
        self._pool_edits += 1
        if t.priority:
            self._prio_in_pool += 1
        self._pump()

    def task_started(self, t: TaskInstance, worker: "Worker") -> None:
        self._pump()

    def steal_ready_task(self, accept) -> Optional[TaskInstance]:
        """Yield the youngest acceptable pool task to a work thief.

        Stealing from the tail (LIFO for thieves, FIFO for the owner) is
        the classic Cilk discipline: the owner keeps the tasks whose
        inputs it is already staging, the thief takes the coldest work.
        """
        for i in range(len(self._pool) - 1, -1, -1):
            t = self._pool[i]
            if accept(t):
                del self._pool[i]
                del self._gkey_by_uid[t.uid]
                self._pool_edits += 1
                if t.priority:
                    self._prio_in_pool -= 1
                return t
        return None

    def task_finished(self, t: TaskInstance, worker: "Worker", measured: float) -> None:
        est = self._est_by_uid.pop(t.uid, 0.0)
        state = self._state_by_uid.pop(t.uid, None) or self._state(t)
        self._busy_est[worker.name] = max(0.0, self._busy_est[worker.name] - est)
        assert t.chosen_version is not None
        state.record(t.chosen_version.name, measured)
        self._pump()

    # ------------------------------------------------------------------
    # Resilience hooks
    # ------------------------------------------------------------------
    def task_speculated(
        self, t: TaskInstance, worker: "Worker", version: TaskVersion
    ) -> None:
        """Mirror dispatch bookkeeping for a speculative copy: its
        estimate joins the target worker's busy account and a pending
        learning assignment is noted, both undone symmetrically by
        ``task_finished`` (win) or ``task_requeued`` (withdrawal)."""
        state = self._state(t)
        est = state.group.mean_time(version.name)
        est_value = est if est is not None else 0.0
        self._busy_est[worker.name] += est_value
        self._est_by_uid[t.uid] = est_value
        self._state_by_uid[t.uid] = state
        state.group.note_assigned(version.name)

    def task_requeued(self, t: TaskInstance, worker: "Worker") -> None:
        """Undo the dispatch bookkeeping of a task pulled back by fault
        recovery: its busy-time estimate leaves the worker's account and
        its pending learning assignment is released — no duration is
        recorded, so the profile tables stay valid."""
        est = self._est_by_uid.pop(t.uid, None)
        if est is not None:
            self._busy_est[worker.name] = max(0.0, self._busy_est[worker.name] - est)
        state = self._state_by_uid.pop(t.uid, None)
        if t.chosen_version is not None:
            (state or self._state(t)).group.note_unassigned(t.chosen_version.name)

    def worker_down(self, worker: "Worker") -> None:
        # per-task estimates were already released via task_requeued when
        # the runtime drained the queue; zero the account to kill any
        # floating-point residue (the worker never hosts work again)
        self._busy_est[worker.name] = 0.0

    def worker_up(self, worker: "Worker") -> None:
        self._pump()

    # ------------------------------------------------------------------
    # Dispatch pump
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Place pool tasks into worker queues while there is room.

        One scan in priority-then-FIFO order.  A group whose task found
        no placement is *blocked* for the rest of the scan: a placement
        only adds queue load, busy time and pending assignments of other
        groups, so it cannot unblock it.  The scan restarts from the
        head only when the pool itself changes under a dispatch (a
        steal or a re-entrant ready task).

        Reentrancy guard: dispatching starts tasks, which calls back
        into ``task_started`` -> ``_pump``.
        """
        if self._pumping:
            return
        assert self.rt is not None
        self._pumping = True
        pool = self._pool
        gkeys = self._gkey_by_uid
        try:
            rescan = True
            while rescan and pool:
                rescan = False
                blocked: set = set()
                # scan by the priority clause first (stable sort keeps
                # FIFO within equal priorities); the counter tracks pool
                # mutations, so zero-priority pools skip the sort in O(1)
                if self._prio_in_pool:
                    scan = sorted(pool, key=_neg_priority)
                else:
                    scan = list(pool)
                for t in scan:
                    gkey = gkeys[t.uid]
                    if gkey in blocked:
                        continue
                    state, decision = self._decide(t, gkey)
                    if decision is None:
                        blocked.add(gkey)
                        continue
                    pool.remove(t)
                    del gkeys[t.uid]
                    if t.priority:
                        self._prio_in_pool -= 1
                    self._book(t, gkey, state, decision)
                    edits = self._pool_edits
                    self.rt.dispatch(t, decision[1], decision[0])
                    if self._pool_edits != edits:
                        rescan = True
                        break
        finally:
            self._pumping = False

    def _state(
        self, t: TaskInstance, gkey: Optional[tuple[str, Hashable]] = None
    ) -> _GroupState:
        """The state of ``t``'s size group, created on first use."""
        if gkey is None:
            gkey = (t.name, self.table.grouping.key(t.data_bytes))
        state = self._groups.get(gkey)
        if state is None:
            state = _GroupState(self.table.group(t.name, t.data_bytes))
            self._groups[gkey] = state
        return state

    def _decide(
        self, t: TaskInstance, gkey: tuple[str, Hashable]
    ) -> tuple[_GroupState, Optional[Decision]]:
        """Run the decision kernel for ``t`` on the scheduler's state."""
        assert self.rt is not None
        state = self._state(t, gkey)
        plan = self._plan(t.definition)
        decision = decide(
            plan, state.group, state.means_for(plan), self._busy_est, self.rt.engine.now,
            lam=self.lam,
            credit_cap=self._credit_cap,
            graduated=state.graduated is plan,
            room=self.queue_depth,
            reliable_room=self.reliable_queue_bound,
            avoid=t.failed_pairs,
            fault_rates=self._fault_rates() if self.fault_aware else None,
            penalty=partial(self._placement_penalty, t) if self._penalized else None,
        )
        if decision is not None and decision[2] == "reliable":
            state.graduated = plan
        return state, decision

    def _book(
        self, t: TaskInstance, gkey: tuple[str, Hashable],
        state: _GroupState, decision: Decision,
    ) -> None:
        """Dispatch-time bookkeeping of one decision."""
        assert self.rt is not None
        version, worker, phase, _, est = decision
        self._busy_est[worker.name] += est
        self._est_by_uid[t.uid] = est
        self._state_by_uid[t.uid] = state
        state.group.note_assigned(version.name)
        counters = self.group_dispatches.get(gkey)
        if counters is None:
            counters = self.group_dispatches[gkey] = {"learning": 0, "reliable": 0}
        counters[phase] += 1
        if phase == "learning":
            self.learning_dispatches += 1
        else:
            self.reliable_dispatches += 1
            if gkey not in self.group_reliable_at:
                self.group_reliable_at[gkey] = self.rt.engine.now

    def _fault_rates(self) -> dict[str, float]:
        """Worker name -> transient-fault rate, capped, for rates above 0."""
        rates: dict[str, float] = {}
        for w in self.workers:
            rate = self.worker_fault_rate(w)
            if rate > 0.0:
                rates[w.name] = min(rate, self.fault_rate_cap)
        return rates

    def _placement_penalty(
        self, t: TaskInstance, version: TaskVersion, worker: "Worker"
    ) -> float:
        """Extra cost of placing ``t`` on this worker (0 here; the
        locality variant adds estimated transfer time)."""
        return 0.0


def _neg_priority(t: TaskInstance) -> int:
    return -t.priority


class _GroupState:
    """The scheduler's view of one size group.

    ``graduated`` is the plan under which the group left the learning
    phase: λ-credit only grows (executions are only ever added; preload
    happens at construction), so the credit check is skipped while that
    plan holds.  ``means`` are the group's recorded means aligned with
    ``plan.names``; the scheduler is the only writer of the profiles,
    so :meth:`record` re-reads the one mean it changes and every other
    decision reuses them.
    """

    __slots__ = ("group", "graduated", "plan", "means")

    def __init__(self, group: SizeGroupProfile) -> None:
        self.group = group
        self.graduated: Optional[VersionPlan] = None
        self.plan: Optional[VersionPlan] = None
        self.means: list[Optional[float]] = []

    def means_for(self, plan: VersionPlan) -> list[Optional[float]]:
        if self.plan is not plan:
            self.means = [self.group.mean_time(n) for n in plan.names]
            self.plan = plan
        return self.means

    def record(self, version_name: str, measured: float) -> None:
        self.group.record(version_name, measured)
        if self.plan is None:
            return
        try:
            i = self.plan.names.index(version_name)
        except ValueError:  # a version the plan dropped: reload on next use
            self.plan = None
            return
        self.means[i] = self.group.mean_time(version_name)
