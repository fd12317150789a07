"""The ``TaskVersionSet`` data model (Table I of the paper).

The versioning scheduler "keeps and updates several data structures
during the whole application execution that collect information related
to each set of task implementations.  The information is divided into
TaskVersionSet's ... each set is divided into different groups,
according to the amount of data needed by each task instance.  For each
group of data set size, the information is kept per task implementation:
the number of executions #Exec and their mean execution time ExecTime."

The hierarchy here matches the table column-for-column::

    VersionProfileTable
      └── TaskVersionSet        (one per task, e.g. "task1")
            └── SizeGroupProfile  (one per data-set size group, e.g. "2 MB")
                  └── VersionProfile  (one per implementation: ExecTime, #Exec)
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.core.estimator import Estimator, RunningMean, make_estimator
from repro.core.grouping import ExactSizeGrouping, SizeGrouping


class VersionProfile:
    """ExecTime / #Exec for one implementation at one data-set size."""

    __slots__ = ("version_name", "estimator", "assigned", "preloaded")

    def __init__(self, version_name: str, estimator: Optional[Estimator] = None) -> None:
        self.version_name = version_name
        self.estimator: Estimator = estimator if estimator is not None else RunningMean()
        #: dispatches not yet retired — used to round-robin fairly during
        #: the learning phase when many tasks are assigned before any
        #: timing feedback arrives.
        self.assigned = 0
        #: executions imported from an external hints file / profile
        #: store rather than observed in this run.  Warm-start policies
        #: (trust vs probation) decide how much λ-credit these carry.
        self.preloaded = 0

    @property
    def executions(self) -> int:
        return self.estimator.count

    @property
    def live_executions(self) -> int:
        """Executions actually observed in this run (excludes preloads)."""
        return max(0, self.estimator.count - self.preloaded)

    @property
    def mean_time(self) -> Optional[float]:
        return self.estimator.value

    @property
    def variance(self) -> Optional[float]:
        """Spread of the observed durations (``None`` below two samples)."""
        return getattr(self.estimator, "variance", None)

    @property
    def stddev(self) -> Optional[float]:
        var = self.variance
        return None if var is None else var ** 0.5

    def record(self, duration: float) -> None:
        self.estimator.add(duration)
        if self.assigned > 0:
            self.assigned -= 1

    def preload(self, mean: float, count: int,
                variance: Optional[float] = None) -> None:
        """Seed from external history: ``count`` runs averaging ``mean``
        (optionally with the variance of those runs, so warm-started
        straggler deadlines inherit ``mean + k·sigma`` immediately)."""
        preload = getattr(self.estimator, "preload", None)
        if preload is None:
            raise TypeError(
                f"estimator {type(self.estimator).__name__} cannot be preloaded"
            )
        if variance is None:
            preload(float(mean), int(count))
        else:
            preload(float(mean), int(count), float(variance))
        self.preloaded = int(count)

    def __repr__(self) -> str:
        t = "-" if self.mean_time is None else f"{self.mean_time * 1e3:.2f}ms"
        return f"<{self.version_name}: {t}, #Exec={self.executions}>"


class SizeGroupProfile:
    """All version profiles for one (task, data-set-size-group) pair."""

    def __init__(
        self,
        size_key: Hashable,
        representative_bytes: int,
        estimator_proto: Optional[Estimator] = None,
    ) -> None:
        self.size_key = size_key
        self.representative_bytes = representative_bytes
        self._proto = estimator_proto
        self._versions: dict[str, VersionProfile] = {}

    # ------------------------------------------------------------------
    def profile(self, version_name: str) -> VersionProfile:
        """Get or create the profile for one implementation."""
        p = self._versions.get(version_name)
        if p is None:
            est = self._proto.clone() if self._proto is not None else None
            p = VersionProfile(version_name, est)
            self._versions[version_name] = p
        return p

    def versions(self) -> list[VersionProfile]:
        return list(self._versions.values())

    def executions(self, version_name: str) -> int:
        return self.profile(version_name).executions

    def mean_time(self, version_name: str) -> Optional[float]:
        return self.profile(version_name).mean_time

    def record(self, version_name: str, duration: float) -> None:
        self.profile(version_name).record(duration)

    def note_assigned(self, version_name: str) -> None:
        self.profile(version_name).assigned += 1

    def note_unassigned(self, version_name: str) -> None:
        """Release a pending assignment that will never be recorded
        (the dispatch was revoked by fault recovery)."""
        p = self.profile(version_name)
        if p.assigned > 0:
            p.assigned -= 1

    # ------------------------------------------------------------------
    def total_executions(self) -> int:
        return sum(p.executions for p in self._versions.values())


class TaskVersionSet:
    """Profiles for all data-set-size groups of one task."""

    def __init__(
        self,
        task_name: str,
        grouping: Optional[SizeGrouping] = None,
        estimator_proto: Optional[Estimator] = None,
    ) -> None:
        self.task_name = task_name
        self.grouping = grouping if grouping is not None else ExactSizeGrouping()
        self._proto = estimator_proto
        self._groups: dict[Hashable, SizeGroupProfile] = {}

    def group_for(self, nbytes: int) -> SizeGroupProfile:
        key = self.grouping.key(nbytes)
        g = self._groups.get(key)
        if g is None:
            g = SizeGroupProfile(key, nbytes, self._proto)
            self._groups[key] = g
        return g

    def groups(self) -> list[SizeGroupProfile]:
        return [self._groups[k] for k in sorted(self._groups, key=repr)]

    def __len__(self) -> int:
        return len(self._groups)


class VersionProfileTable:
    """The full Table I: every TaskVersionSet the scheduler has seen."""

    def __init__(
        self,
        grouping: Optional[SizeGrouping] = None,
        estimator_kind: str = "mean",
        estimator_options: Optional[dict] = None,
    ) -> None:
        self.grouping = grouping if grouping is not None else ExactSizeGrouping()
        self.estimator_kind = estimator_kind
        self.estimator_options = dict(estimator_options or {})
        self._sets: dict[str, TaskVersionSet] = {}
        # fail fast on a bad estimator spec rather than at first dispatch
        self._make_proto()

    def _make_proto(self) -> Estimator:
        return make_estimator(self.estimator_kind, **self.estimator_options)

    def version_set(self, task_name: str) -> TaskVersionSet:
        s = self._sets.get(task_name)
        if s is None:
            s = TaskVersionSet(task_name, self.grouping, self._make_proto())
            self._sets[task_name] = s
        return s

    def group(self, task_name: str, nbytes: int) -> SizeGroupProfile:
        return self.version_set(task_name).group_for(nbytes)

    def sets(self) -> list[TaskVersionSet]:
        return [self._sets[k] for k in sorted(self._sets)]

    def __contains__(self, task_name: str) -> bool:
        return task_name in self._sets

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Render the table in the layout of the paper's Table I."""
        name_w = max([len("TaskVersionSet")] + [len(s.task_name) for s in self.sets()])
        header = (
            f"{'TaskVersionSet':<{name_w}} {'DataSetSize':<14} "
            f"{'<VersionId, ExecTime, #Exec>'}"
        )
        lines = [header, "-" * len(header)]
        for vset in self.sets():
            first_task = True
            for grp in vset.groups():
                first_size = True
                for prof in grp.versions():
                    task_col = vset.task_name if first_task else ""
                    size_col = vset.grouping.label(grp.size_key) if first_size else ""
                    t = "-" if prof.mean_time is None else f"{prof.mean_time * 1e3:.1f}ms"
                    lines.append(
                        f"{task_col:<{name_w}} {size_col:<14} "
                        f"<{prof.version_name}, {t}, {prof.executions}>"
                    )
                    first_task = False
                    first_size = False
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serialisable snapshot (used by the hints file, §VII)."""
        out: dict = {
            "grouping": self.grouping.name,
            "estimator": self.estimator_kind,
            "tasks": {},
        }
        for vset in self.sets():
            groups = []
            for grp in vset.groups():
                groups.append(
                    {
                        "representative_bytes": grp.representative_bytes,
                        "versions": {
                            p.version_name: (
                                {
                                    "mean_time": p.mean_time,
                                    "executions": p.executions,
                                }
                                if p.variance is None
                                else {
                                    "mean_time": p.mean_time,
                                    "executions": p.executions,
                                    "variance": p.variance,
                                }
                            )
                            for p in grp.versions()
                            if p.executions > 0
                        },
                    }
                )
            out["tasks"][vset.task_name] = groups
        return out

    def preload(self, snapshot: dict) -> int:
        """Warm-start from a snapshot produced by :meth:`to_dict`.

        Group membership is recomputed with *this* table's grouping, so
        hints recorded under exact grouping remain usable under range
        grouping and vice versa.  Returns the number of (group, version)
        entries preloaded; each entry is marked as preloaded so
        warm-start policies can distinguish imported from observed
        executions.
        """
        loaded = 0
        for task_name, groups in snapshot.get("tasks", {}).items():
            for g in groups:
                grp = self.group(task_name, int(g["representative_bytes"]))
                for vname, stats in g.get("versions", {}).items():
                    mean = stats.get("mean_time")
                    count = int(stats.get("executions", 0))
                    if mean is None or count <= 0:
                        continue
                    variance = stats.get("variance")
                    grp.profile(vname).preload(
                        float(mean), count,
                        None if variance is None else float(variance),
                    )
                    loaded += 1
        return loaded
