"""The decision kernel against a reference oracle transcribed from §IV-B.

The oracle below is written straight from the paper's description of
the versioning scheduler, over plain dicts, with no caching and no
shortcuts: it enumerates every candidate and takes a ``min``.  Two
differential checks hold the kernel to it:

* Hypothesis-generated single decisions — random workers, versions,
  credits, pending assignments, means, loads, quarantines, avoid sets,
  fault rates and penalties;
* whole runs on seeded DAG families (wide, deep, irregular,
  priority-heavy) with random machines, size groups, warm-start credit,
  transient faults and dead workers, checking every decision the
  scheduler makes against the oracle evaluated on the same state.  The
  oracle reads the means and λ-credit afresh from the profile table, so
  the scheduler's cached means and graduation flags are checked too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.versioning as versioning
from repro.core.decision import VersionPlan, decide
from repro.core.profile import SizeGroupProfile
from repro.resilience import FaultPlan, TaskFaultRule, WorkerFailure
from repro.runtime.directives import task
from repro.runtime.runtime import OmpSsRuntime
from repro.sim.perfmodel import FixedCostModel
from repro.sim.topology import minotauro_node
from tests.conftest import MB, region


# ----------------------------------------------------------------------
# The oracle (§IV-B)
# ----------------------------------------------------------------------
@dataclass
class State:
    versions: list[str]                 # runnable, declaration order
    workers: dict[str, list[str]]       # version -> capable live workers
    available: dict[str, bool]          # worker -> accepts work now
    load: dict[str, int]                # worker -> queued + running
    busy: dict[str, float]              # worker -> estimated busy time
    credit: dict[str, int]              # version -> executions toward λ
    assigned: dict[str, int]            # version -> dispatched, not retired
    mean: dict[str, Optional[float]]    # version -> mean time (None: unseen)
    lam: int
    room: int                           # queue bound while learning
    reliable_room: Optional[int]        # queue bound once reliable
    avoid: set = field(default_factory=set)        # (version, worker) faulted
    rate: dict = field(default_factory=dict)       # worker -> fault rate
    penalty: Callable[[str, str], float] = lambda v, w: 0.0


def oracle(s: State) -> Optional[tuple[str, str, str]]:
    """(version, worker, phase), or None when the task must wait."""
    # "we force the scheduler to run each task version at least λ times"
    if any(s.credit[v] < s.lam for v in s.versions):
        def live(v):
            return [w for w in s.workers[v] if s.available[w]]

        def exhausted(v):
            return all((v, w) in s.avoid for w in live(v))

        # round-robin over versions still short of λ runs underway
        short = [v for v in s.versions if s.credit[v] + s.assigned[v] < s.lam]
        if short:
            v = min(short, key=lambda v: (
                exhausted(v), s.credit[v] + s.assigned[v], s.versions.index(v)))
            if not exhausted(v):
                w = min(live(v), key=lambda w: (
                    (v, w) in s.avoid, s.busy[w], s.load[w], w))
                return v, w, "learning"
        pair = earliest_executor(s, unknown_ok=True, room=s.room)
        return None if pair is None else (*pair, "learning")
    # "reliable information": the earliest executor
    pair = earliest_executor(s, unknown_ok=False, room=s.reliable_room)
    return None if pair is None else (*pair, "reliable")


def earliest_executor(s: State, unknown_ok: bool, room: Optional[int]):
    """Minimise busy time + mean time over (version, worker) pairs."""
    seen = [m for m in s.mean.values() if m is not None]
    slowest = max(seen) if seen else 0.0

    def pairs(avoid):
        out = []
        for v in s.versions:
            m = s.mean[v]
            if m is None and not unknown_ok:
                continue
            m = slowest if m is None else m
            for w in s.workers[v]:
                if not s.available[w] or (v, w) in avoid:
                    continue
                if room is not None and s.load[w] >= room:
                    continue
                cost = (s.busy[w] + m) / (1.0 - s.rate.get(w, 0.0)) + s.penalty(v, w)
                out.append((cost, w, v))
        return out

    scored = pairs(s.avoid) or pairs(set())
    if not scored:
        return None
    _, w, v = min(scored)
    return v, w


def oracle_credit(p, cap: Optional[int]) -> int:
    """Live executions count fully; preloaded ones up to ``cap``."""
    if cap is None:
        return p.executions
    return p.live_executions + min(p.preloaded, cap)


def state_of(plan, group, busy, now, kw) -> State:
    """The oracle's view of one kernel call, read afresh from the table."""
    workers = {n: [wn for _, wn in pairs] for n, pairs in zip(plan.names, plan.pairs)}
    objs = {wn: w for pairs in plan.pairs for w, wn in pairs}
    penalty = kw["penalty"]
    by_name = dict(zip(plan.names, plan.versions))
    return State(
        versions=list(plan.names),
        workers=workers,
        available={wn: w.available(now) for wn, w in objs.items()},
        load={wn: w.load() for wn, w in objs.items()},
        busy=dict(busy),
        credit={n: oracle_credit(group.profile(n), kw["credit_cap"]) for n in plan.names},
        assigned={n: group.profile(n).assigned for n in plan.names},
        mean={n: group.mean_time(n) for n in plan.names},
        lam=kw["lam"],
        room=kw["room"],
        reliable_room=kw["reliable_room"],
        avoid=set(kw["avoid"]),
        rate=dict(kw["fault_rates"] or {}),
        penalty=(lambda v, w: 0.0) if penalty is None
        else (lambda v, w: penalty(by_name[v], objs[w])),
    )


# ----------------------------------------------------------------------
# Single decisions on random states
# ----------------------------------------------------------------------
class StubWorker:
    def __init__(self, name: str, available: bool, load: int) -> None:
        self.name = name
        self._available = available
        self._load = load

    def available(self, now: float) -> bool:
        return self._available

    def load(self) -> int:
        return self._load


class StubVersion:
    def __init__(self, name: str) -> None:
        self.name = name


@st.composite
def decision_cases(draw):
    n_workers = draw(st.integers(1, 5))
    workers = [
        StubWorker(f"w{i}", draw(st.booleans() | st.just(True)), draw(st.integers(0, 3)))
        for i in range(n_workers)
    ]
    n_versions = draw(st.integers(1, 3))
    names = [f"v{i}" for i in range(n_versions)]
    pairs = []
    for _ in names:
        ws = draw(st.lists(st.sampled_from(workers), min_size=1, unique=True))
        ws.sort(key=lambda w: w.name)
        pairs.append(tuple((w, w.name) for w in ws))
    plan = VersionPlan(tuple(StubVersion(n) for n in names), tuple(pairs))
    lam = draw(st.integers(1, 4))
    group = SizeGroupProfile(MB, MB)
    for n in names:
        p = group.profile(n)
        count = draw(st.integers(0, lam + 2))
        if count:
            # coarse means make exact ties (and the tie-break) likely
            p.estimator.preload(draw(st.sampled_from([0.001, 0.002, 0.004])), count)
            p.preloaded = draw(st.integers(0, count))
        p.assigned = draw(st.integers(0, lam))
    cap = draw(st.none() | st.integers(0, lam - 1))
    busy = {w.name: draw(st.sampled_from([0.0, 0.001, 0.003, 0.0045])) for w in workers}
    all_pairs = [(n, wn) for n, ps in zip(names, pairs) for _, wn in ps]
    avoid = set(draw(st.lists(st.sampled_from(all_pairs), max_size=4)))
    rates = draw(st.none() | st.dictionaries(
        st.sampled_from([w.name for w in workers]), st.sampled_from([0.1, 0.5, 0.9])))
    table = draw(st.none() | st.dictionaries(
        st.tuples(st.sampled_from(names), st.sampled_from([w.name for w in workers])),
        st.sampled_from([0.0, 0.0005, float("inf")])))
    penalty = None if table is None else (lambda v, w: table.get((v.name, w.name), 0.0))
    kw = dict(
        lam=lam,
        credit_cap=cap,
        room=draw(st.integers(1, 3)),
        reliable_room=draw(st.none() | st.integers(1, 3)),
        avoid=avoid,
        fault_rates=rates,
        penalty=penalty,
    )
    return plan, group, busy, kw


@settings(max_examples=400, deadline=None, derandomize=True)
@given(decision_cases())
def test_kernel_matches_oracle_on_random_states(case):
    plan, group, busy, kw = case
    means = [group.mean_time(n) for n in plan.names]
    want = oracle(state_of(plan, group, busy, 0.0, kw))
    got = decide(plan, group, means, busy, 0.0, graduated=False, **kw)
    assert (None if got is None else (got[0].name, got[1].name, got[2])) == want
    if got is not None:
        mean = group.mean_time(got[0].name)
        assert got[4] == (0.0 if mean is None else mean)
    if want is not None and want[2] == "reliable":
        # a graduated group skips the credit check and decides the same
        again = decide(plan, group, means, busy, 0.0, graduated=True, **kw)
        assert again == got


# ----------------------------------------------------------------------
# Every decision of whole runs on seeded DAG families
# ----------------------------------------------------------------------
FAMILIES = ("wide", "deep", "irregular", "priority")
SIZES = (MB, 2 * MB, 3 * MB)


def _definitions(rng: random.Random, family: str, has_gpu: bool, machine):
    """2-3 task kinds: an SMP main version, optionally a CUDA and a
    second SMP implementation, random fixed costs."""
    registry: dict = {}
    fns = []
    for k in range(rng.randint(2, 3)):
        name = f"k{k}"
        prio = rng.randint(0, 3) if family == "priority" else 0
        main = task(inputs=["x"], outputs=["y"], device="smp", name=name,
                    priority=prio, registry=registry)(lambda x, y: None)
        machine.register_kernel_for_kind("smp", name, FixedCostModel(rng.uniform(2e-3, 2e-2)))
        if has_gpu and rng.random() < 0.8:
            task(inputs=["x"], outputs=["y"], device="cuda", implements=name,
                 name=f"{name}_gpu", registry=registry)(lambda x, y: None)
            machine.register_kernel_for_kind(
                "cuda", f"{name}_gpu", FixedCostModel(rng.uniform(5e-4, 5e-3)))
        if rng.random() < 0.4:
            task(inputs=["x"], outputs=["y"], device="smp", implements=name,
                 name=f"{name}_alt", registry=registry)(lambda x, y: None)
            machine.register_kernel_for_kind(
                "smp", f"{name}_alt", FixedCostModel(rng.uniform(2e-3, 2e-2)))
        fns.append(main)
    return fns


def _calls(rng: random.Random, family: str, fns):
    """(task, in-region, out-region) calls shaped by the family."""
    n = rng.randint(20, 45)
    size = {}

    def reg(key):
        size.setdefault(key, rng.choice(SIZES))
        return region(key, size[key])

    calls = []
    if family == "deep":
        chains = rng.randint(1, 3)
        for i in range(n):
            c = i % chains
            calls.append((rng.choice(fns), reg(("c", c, i // chains)),
                          reg(("c", c, i // chains + 1))))
    else:
        for i in range(n):
            if family == "wide" or i == 0 or rng.random() < 0.3:
                src = reg(("in", i))
            else:  # irregular and priority: read an earlier output
                src = reg(("out", rng.randrange(i)))
            calls.append((rng.choice(fns), src, reg(("out", i))))
    return calls


def _hints(rng: random.Random, fns):
    tasks = {}
    for fn in fns:
        if rng.random() < 0.5:
            d = fn.definition
            tasks[d.name] = [{
                "representative_bytes": rng.choice(SIZES),
                "versions": {
                    v.name: {"mean_time": rng.uniform(1e-3, 1e-2),
                             "executions": rng.randint(1, 5)}
                    for v in d.versions if rng.random() < 0.7
                },
            }]
    return {"tasks": tasks}


def run_checked(family: str, seed: int) -> int:
    """Run one random program; assert every decision against the
    oracle; return the number of decisions checked."""
    rng = random.Random(seed)
    n_smp, n_gpu = rng.randint(1, 3), rng.randint(0, 2)
    machine = minotauro_node(n_smp, n_gpu, noise_cv=rng.choice([0.0, 0.05]), seed=seed)
    fns = _definitions(rng, family, n_gpu > 0, machine)
    lam = rng.randint(1, 4)
    options = dict(
        lam=lam,
        queue_depth=rng.randint(1, 3),
        reliable_queue_bound=rng.choice([None, 1, 2]),
        grouping=rng.choice(["exact", "relative"]),
        warm_start=rng.choice(["trust", "probation", "cold"]),
        probation_lam=rng.randint(1, lam),
        fault_aware=rng.random() < 0.5,
        hints=_hints(rng, fns),
    )
    failures = tuple(
        WorkerFailure(f"gpu{g}", rng.uniform(0.005, 0.05))
        for g in range(n_gpu) if rng.random() < 0.5
    )
    faults = (TaskFaultRule(at_starts=tuple(sorted(rng.sample(range(1, 30), 2)))),)
    plan = FaultPlan(seed=seed, task_faults=faults, worker_failures=failures)
    scheduler = rng.choice(["versioning", "versioning-locality"])

    checked = 0
    real = versioning.decide

    def checked_decide(plan, group, means, busy, now, **kw):
        nonlocal checked
        got = real(plan, group, means, busy, now, **kw)
        want = oracle(state_of(plan, group, busy, now, kw))
        assert (None if got is None else (got[0].name, got[1].name, got[2])) == want
        checked += 1
        return got

    rt = OmpSsRuntime(machine, scheduler, scheduler_options=options, fault_plan=plan)
    with mock.patch.object(versioning, "decide", checked_decide):
        with rt:
            for fn, *args in _calls(rng, family, fns):
                fn(*args)
    assert rt.result().tasks_completed > 0
    return checked


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(FAMILIES), st.integers(0, 2**16))
def test_every_run_decision_matches_oracle(family, seed):
    assert run_checked(family, seed) > 0


@pytest.mark.parametrize("family", FAMILIES)
def test_each_family_checks_many_decisions(family):
    # a fixed seed per family, so every family is exercised on each run
    assert run_checked(family, 1) >= 20
