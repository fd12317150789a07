"""The paper's contribution: the versioning scheduler and its data model.

* :mod:`repro.core.estimator` — execution-time estimators (arithmetic
  running mean, as in the paper, plus the weighted-mean option its
  footnote 3 sketches),
* :mod:`repro.core.grouping` — data-set-size grouping strategies (exact
  match, as implemented in the paper, plus the range-based grouping its
  future-work section proposes),
* :mod:`repro.core.profile` — the ``TaskVersionSet`` bookkeeping of
  Table I,
* :mod:`repro.core.decision` — the policy's placement rule, one pure
  function over plain data,
* :mod:`repro.core.versioning` — the scheduling policy itself,
* :mod:`repro.core.locality` — the locality-aware variant sketched in
  §VII,
* :mod:`repro.core.hints` — external hint files (XML/JSON) for
  warm-starting the learning phase, also from §VII.
"""

from repro.core.estimator import EWMA, Estimator, RunningMean, make_estimator
from repro.core.grouping import (
    ExactSizeGrouping,
    FixedBinGrouping,
    RelativeSizeGrouping,
    SizeGrouping,
    make_grouping,
)
from repro.core.profile import SizeGroupProfile, TaskVersionSet, VersionProfile, VersionProfileTable
from repro.core.versioning import VersioningScheduler
from repro.core.locality import LocalityVersioningScheduler
from repro.core.hints import load_hints, save_hints

__all__ = [
    "Estimator",
    "RunningMean",
    "EWMA",
    "make_estimator",
    "SizeGrouping",
    "ExactSizeGrouping",
    "RelativeSizeGrouping",
    "FixedBinGrouping",
    "make_grouping",
    "VersionProfile",
    "SizeGroupProfile",
    "TaskVersionSet",
    "VersionProfileTable",
    "VersioningScheduler",
    "LocalityVersioningScheduler",
    "load_hints",
    "save_hints",
]
