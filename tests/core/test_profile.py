"""Tests for the TaskVersionSet data model (Table I)."""

from types import SimpleNamespace

import pytest

from repro.core.decision import VersionPlan, decide
from repro.core.estimator import EWMA
from repro.core.grouping import ExactSizeGrouping, RelativeSizeGrouping
from repro.core.profile import (
    SizeGroupProfile,
    TaskVersionSet,
    VersionProfile,
    VersionProfileTable,
)

MB = 1024**2


class IdleWorker:
    def __init__(self, name):
        self.name = name

    def available(self, now):
        return True

    def load(self):
        return 0


def kernel_pick(group, names, lam=3):
    """(version, phase) the decision kernel picks for one task of
    ``group`` when every version has an idle worker of its own."""
    workers = [IdleWorker(f"w{i}") for i in range(len(names))]
    plan = VersionPlan(
        tuple(SimpleNamespace(name=n) for n in names),
        tuple(((w, w.name),) for w in workers),
    )
    got = decide(
        plan, group, [group.mean_time(n) for n in names],
        {w.name: 0.0 for w in workers}, 0.0,
        lam=lam, credit_cap=None, graduated=False, room=2, reliable_room=None,
        avoid=set(), fault_rates=None, penalty=None,
    )
    return got[0].name, got[2]


class TestVersionProfile:
    def test_record_updates_mean_and_count(self):
        p = VersionProfile("v1")
        p.record(0.010)
        p.record(0.020)
        assert p.executions == 2
        assert p.mean_time == pytest.approx(0.015)

    def test_assigned_decrements_on_record(self):
        p = VersionProfile("v1")
        p.assigned = 2
        p.record(0.01)
        assert p.assigned == 1


class TestSizeGroupProfile:
    def test_profiles_created_on_demand(self):
        g = SizeGroupProfile(2 * MB, 2 * MB)
        assert g.executions("v1") == 0
        assert g.mean_time("v1") is None

    def test_in_learning_until_lambda_everywhere(self):
        g = SizeGroupProfile(MB, MB)
        names = ["a", "b"]
        for _ in range(3):
            g.record("a", 0.01)
        assert kernel_pick(g, names) == ("b", "learning")  # b still unlearned
        for _ in range(3):
            g.record("b", 0.02)
        assert kernel_pick(g, names) == ("a", "reliable")

    def test_least_assigned_round_robins(self):
        g = SizeGroupProfile(MB, MB)
        names = ["a", "b", "c"]
        picks = []
        for _ in range(6):
            v, _ = kernel_pick(g, names)
            g.note_assigned(v)
            picks.append(v)
        assert picks == ["a", "b", "c", "a", "b", "c"]

    def test_least_assigned_counts_executions(self):
        g = SizeGroupProfile(MB, MB)
        g.record("a", 0.01)
        assert kernel_pick(g, ["a", "b"]) == ("b", "learning")

    def test_least_assigned_empty_rejected(self):
        # the kernel's candidate set is a plan; an empty one is an error
        with pytest.raises(ValueError):
            VersionPlan((), ())

    def test_fastest_version(self):
        g = SizeGroupProfile(MB, MB)
        g.record("slow", 0.030)
        g.record("fast", 0.018)
        g.record("mid", 0.025)
        assert kernel_pick(g, ["slow", "fast", "mid"], lam=1) == ("fast", "reliable")

    def test_fastest_requires_data(self):
        # no recorded run: the earliest-executor rule is never applied
        assert kernel_pick(SizeGroupProfile(MB, MB), ["a"], lam=1) == ("a", "learning")

    def test_total_executions(self):
        g = SizeGroupProfile(MB, MB)
        g.record("a", 0.01)
        g.record("b", 0.01)
        g.record("a", 0.01)
        assert g.total_executions() == 3

    def test_estimator_prototype_cloned(self):
        g = SizeGroupProfile(MB, MB, estimator_proto=EWMA(0.5))
        p = g.profile("v")
        assert isinstance(p.estimator, EWMA)
        assert p.estimator.alpha == 0.5


class TestTaskVersionSet:
    def test_groups_by_size(self):
        s = TaskVersionSet("task1")
        g1 = s.group_for(2 * MB)
        g2 = s.group_for(3 * MB)
        assert g1 is not g2
        assert s.group_for(2 * MB) is g1
        assert len(s) == 2

    def test_relative_grouping_merges_close_sizes(self):
        s = TaskVersionSet("t", grouping=RelativeSizeGrouping(0.1))
        assert s.group_for(MB) is s.group_for(MB + 1)


class TestVersionProfileTable:
    def make_table_like_paper(self):
        """Reproduce Table I's contents exactly."""
        t = VersionProfileTable()
        g1 = t.group("task1", 2 * MB)
        for v, ms, n in (("task1-v1", 30, 200), ("task1-v2", 18, 350),
                         ("task1-v3", 25, 230)):
            g1.profile(v).estimator.preload(ms / 1e3, n)
        g2 = t.group("task1", 3 * MB)
        for v, ms, n in (("task1-v1", 45, 80), ("task1-v2", 25, 300),
                         ("task1-v3", 40, 120)):
            g2.profile(v).estimator.preload(ms / 1e3, n)
        g3 = t.group("task2", 5 * MB)
        for v, ms, n in (("task2-v1", 15, 40), ("task2-v2", 20, 3)):
            g3.profile(v).estimator.preload(ms / 1e3, n)
        return t

    def test_render_contains_paper_rows(self):
        out = self.make_table_like_paper().render()
        assert "task1" in out and "task2" in out
        assert "2 MB" in out and "3 MB" in out and "5 MB" in out
        assert "<task1-v2, 18.0ms, 350>" in out
        assert "<task2-v2, 20.0ms, 3>" in out

    def test_fastest_executor_matches_paper(self):
        t = self.make_table_like_paper()
        names = ["task1-v1", "task1-v2", "task1-v3"]
        assert kernel_pick(t.group("task1", 2 * MB), names) == ("task1-v2", "reliable")
        assert kernel_pick(t.group("task1", 3 * MB), names) == ("task1-v2", "reliable")

    def test_to_dict_roundtrip_via_preload(self):
        t = self.make_table_like_paper()
        snap = t.to_dict()
        t2 = VersionProfileTable()
        t2.preload(snap)
        g = t2.group("task1", 2 * MB)
        assert g.mean_time("task1-v2") == pytest.approx(0.018)
        assert g.executions("task1-v2") == 350

    def test_preload_skips_empty_versions(self):
        t = VersionProfileTable()
        t.preload({"tasks": {"t": [{"representative_bytes": 100,
                                    "versions": {"v": {"mean_time": None,
                                                       "executions": 0}}}]}})
        assert t.group("t", 100).executions("v") == 0

    def test_preload_regroups_with_own_grouping(self):
        src = VersionProfileTable()
        src.group("t", MB).profile("v").estimator.preload(0.01, 5)
        src.group("t", MB + 1).profile("v").estimator.preload(0.02, 5)
        dst = VersionProfileTable(grouping=RelativeSizeGrouping(0.1))
        dst.preload(src.to_dict())
        # both source groups merge into one under relative grouping
        assert len(dst.version_set("t")) == 1
        assert dst.group("t", MB).executions("v") == 5

    def test_contains(self):
        t = VersionProfileTable()
        assert "t" not in t
        t.group("t", 1)
        assert "t" in t


class TestVarianceRoundTrip:
    def test_profile_exposes_variance_and_stddev(self):
        p = VersionProfile("v1")
        for x in (0.010, 0.020, 0.030):
            p.record(x)
        assert p.variance == pytest.approx(1e-4)
        assert p.stddev == pytest.approx(0.01)

    def test_variance_none_below_two_samples(self):
        p = VersionProfile("v1")
        assert p.variance is None and p.stddev is None
        p.record(0.01)
        assert p.variance is None and p.stddev is None

    def test_to_dict_carries_variance_and_preload_restores_it(self):
        t = VersionProfileTable()
        g = t.group("t", MB)
        for x in (0.010, 0.020, 0.030):
            g.record("v", x)
        snap = t.to_dict()
        entry = snap["tasks"]["t"][0]["versions"]["v"]
        assert entry["variance"] == pytest.approx(1e-4)

        t2 = VersionProfileTable()
        t2.preload(snap)
        p2 = t2.group("t", MB).profile("v")
        assert p2.executions == 3
        assert p2.variance == pytest.approx(1e-4)
        assert p2.stddev == pytest.approx(0.01)

    def test_to_dict_omits_variance_when_unknown(self):
        t = VersionProfileTable()
        t.group("t", MB).record("v", 0.01)  # one sample: no variance yet
        entry = t.to_dict()["tasks"]["t"][0]["versions"]["v"]
        assert "variance" not in entry

    def test_preload_without_variance_still_works(self):
        t = VersionProfileTable()
        t.preload({"tasks": {"t": [{"representative_bytes": MB,
                                    "versions": {"v": {"mean_time": 0.01,
                                                       "executions": 5}}}]}})
        p = t.group("t", MB).profile("v")
        assert p.mean_time == pytest.approx(0.01)
        assert p.variance is None or p.variance == pytest.approx(0.0)
