"""The versioning decision kernel (§IV-B), as one pure function.

:func:`decide` places one ready task.  It reads plain data: a
:class:`VersionPlan` (the task definition's runnable versions and their
capable workers), the size group's version profiles and recorded
means, the busy-estimate dict, ``now``, the queue-room bounds, the task's avoid set, fault rates
and an optional placement penalty.  It writes nothing; the scheduler
that calls it keeps the bookkeeping (pool, busy estimates, pending
assignments, counters).

The rule, stated once:

* **Learning phase** — while any version's λ-credit (recorded
  executions, with preloaded history capped under ``probation``) is
  below λ.  Round-robin over the versions that still lack λ runs
  *underway* (credit + pending assignments): fewest underway first,
  declaration order on ties, a version whose every available worker is
  in the avoid set last.  The chosen version goes to its least-booked
  available worker — not yet failed on, then lowest busy estimate, then
  lowest queue load, then name — regardless of queue room: the λ runs
  are mandatory.  When every version already has λ runs underway (or
  the round-robin pick is exhausted), the task *overflows* to the
  earliest executor restricted to workers with queue room, where a
  version with no recorded mean is charged the slowest known mean (0
  when none is known), so an unprofiled version never looks free.
* **Reliable phase** — the earliest executor: over every (version,
  worker) pair with an available worker, minimise busy estimate +
  version mean, inflated by ``1 / (1 - fault rate)`` and increased by
  the placement penalty.  Ties go to the lower worker name, then the
  lower version name.  Queue room gates the search only when a
  reliable-phase bound is set (late binding).
* In either earliest-executor search, pairs in the avoid set are
  skipped while an alternative exists; if none does, the search is
  repeated without the avoid set rather than deadlocking.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, Optional

from repro.core.profile import SizeGroupProfile, VersionProfile
from repro.runtime.task import TaskVersion

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.worker import Worker

#: (version, worker, phase, predicted finish, busy-time estimate).
#: ``phase`` is ``"learning"`` or ``"reliable"``; the predicted finish
#: is the earliest-executor cost of the chosen pair (``None`` for a
#: round-robin pick of a version with no recorded mean); the estimate
#: is the version's recorded mean (0 when unknown), the amount the
#: dispatch adds to the worker's busy account.
Decision = tuple[TaskVersion, "Worker", str, Optional[float], float]

#: placement penalty of a (version, worker) pair, in seconds
Penalty = Callable[[TaskVersion, "Worker"], float]


class VersionPlan:
    """What one task definition can run on the live workers.

    ``versions`` are the definition's versions with at least one capable
    live worker, in declaration order; ``names`` their names;
    ``pairs[i]`` the ``(worker, worker name)`` pairs of ``versions[i]``
    in the machine's worker order.  A plan is valid until a worker's
    liveness changes.
    """

    __slots__ = ("versions", "names", "pairs")

    def __init__(
        self,
        versions: tuple[TaskVersion, ...],
        pairs: tuple[tuple[tuple["Worker", str], ...], ...],
    ) -> None:
        if not versions:
            raise ValueError("a plan needs at least one runnable version")
        self.versions = versions
        self.names = tuple(v.name for v in versions)
        self.pairs = pairs


def learning_credit(p: VersionProfile, cap: Optional[int]) -> int:
    """Executions of ``p`` that count toward λ: all of them, except that
    preloaded history counts for at most ``cap`` when a cap is set
    (the ``probation`` warm-start policy)."""
    count = p.estimator.count
    if cap is None or p.preloaded <= 0:
        return count
    return max(0, count - p.preloaded) + min(p.preloaded, cap)


def decide(
    plan: VersionPlan,
    group: SizeGroupProfile,
    means: list[Optional[float]],
    busy: Mapping[str, float],
    now: float,
    *,
    lam: int,
    credit_cap: Optional[int],
    graduated: bool,
    room: int,
    reliable_room: Optional[int],
    avoid: "set[tuple[str, str]] | frozenset[tuple[str, str]]",
    fault_rates: Optional[Mapping[str, float]],
    penalty: Optional[Penalty],
) -> Optional[Decision]:
    """Place one task by the rule in the module docstring.

    ``group`` holds the size group's version profiles (λ-credit and
    pending assignments); ``means[i]`` is the recorded mean of
    ``plan.names[i]`` in that group (``None`` before its first run).
    ``graduated`` asserts the group already left the learning phase
    under this plan (credit only grows, so the check may be skipped).
    ``room`` is the per-worker queue bound of the learning overflow;
    ``reliable_room`` the optional bound of the reliable phase.
    ``fault_rates`` maps worker names to their (capped) transient-fault
    rate; absent names count as 0.  Returns ``None`` when no worker can
    take the task now.
    """
    # reliable phase: the paper pushes at ready time into unbounded
    # per-worker queues (Figure 5's deep task lists); a reliable bound
    # room-gates the push instead, so tasks wait in the pool, stealable
    phase, allow_unknown, bound = "reliable", False, reliable_room
    if not graduated:
        profiles = [group.profile(n) for n in plan.names]
        credits = [learning_credit(p, credit_cap) for p in profiles]
        if min(credits) < lam:
            pick = _round_robin(plan, profiles, credits, busy, now, lam, avoid)
            if pick is not None:
                i, w, wname = pick
                mean = means[i]
                if mean is None:
                    return plan.versions[i], w, "learning", None, 0.0
                return plan.versions[i], w, "learning", busy[wname] + mean, mean
            # overflow: every version has λ runs underway (or its pick is
            # exhausted); keep feeding workers with queue room so none
            # idles while the λ runs retire
            phase, allow_unknown, bound = "learning", True, room
    choice = _earliest(plan, means, busy, now, allow_unknown, bound, avoid, fault_rates, penalty)
    if choice is None and avoid:
        choice = _earliest(plan, means, busy, now, allow_unknown, bound, (), fault_rates, penalty)
    if choice is None:
        return None
    i, w, finish = choice
    mean = means[i]
    return plan.versions[i], w, phase, finish, 0.0 if mean is None else mean


def _round_robin(
    plan: VersionPlan,
    profiles: list[VersionProfile],
    credits: list[int],
    busy: Mapping[str, float],
    now: float,
    lam: int,
    avoid: "set[tuple[str, str]] | frozenset[tuple[str, str]]",
) -> Optional[tuple[int, "Worker", str]]:
    """λ-capped round-robin: (version index, worker, worker name).

    A version stops receiving learning dispatches once λ runs are
    underway, so a burst of ready tasks does not flood a slow version's
    worker before any feedback arrives.  Queue room is not checked:
    waiting for room would starve a version whose device is saturated
    (the GPU ``potrf`` case in Cholesky).
    """
    best: Optional[tuple[bool, int, int]] = None
    for i, p in enumerate(profiles):
        underway = credits[i] + p.assigned
        if underway >= lam:
            continue
        vname = plan.names[i]
        exhausted = all(
            (vname, wname) in avoid for w, wname in plan.pairs[i] if w.available(now)
        )
        key = (exhausted, underway, i)
        if best is None or key < best:
            best = key
    if best is None or best[0]:
        return None
    i = best[2]
    vname = plan.names[i]
    w, wname = min(
        ((w, wname) for w, wname in plan.pairs[i] if w.available(now)),
        key=lambda pair: (
            (vname, pair[1]) in avoid, busy[pair[1]], pair[0].load(), pair[1]
        ),
    )
    return i, w, wname


def _earliest(
    plan: VersionPlan,
    means: list[Optional[float]],
    busy: Mapping[str, float],
    now: float,
    allow_unknown: bool,
    room: Optional[int],
    avoid: "set[tuple[str, str]] | frozenset[tuple[str, str]] | tuple[()]",
    fault_rates: Optional[Mapping[str, float]],
    penalty: Optional[Penalty],
) -> Optional[tuple[int, "Worker", float]]:
    """Earliest executor: (version index, worker, predicted finish)."""
    known = [m for m in means if m is not None]
    fallback = max(known) if known else 0.0
    best_finish = 0.0
    best_tie: tuple[str, str] = ("", "")
    best: Optional[tuple[int, "Worker", float]] = None
    for i, mean in enumerate(means):
        if mean is None:
            if not allow_unknown:
                continue
            mean = fallback
        vname = plan.names[i]
        version = plan.versions[i]
        for w, wname in plan.pairs[i]:
            if not w.available(now):
                continue
            if avoid and (vname, wname) in avoid:
                continue
            if room is not None and w.load() >= room:
                continue
            finish = busy[wname] + mean
            if fault_rates:
                rate = fault_rates.get(wname)
                if rate:
                    finish /= 1.0 - rate
            if penalty is not None:
                finish += penalty(version, w)
            if (
                best is None
                or finish < best_finish
                or (finish == best_finish and (wname, vname) < best_tie)
            ):
                best_finish = finish
                best_tie = (wname, vname)
                best = (i, w, finish)
    return best
