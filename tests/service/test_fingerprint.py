"""Canonical graph fingerprints: stable in-process and across processes,
and equal whether taken from a capture or from a run's own graph."""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps.cholesky import CholeskyApp
from repro.apps.matmul import MatmulApp
from repro.apps.pbpi import PBPIApp
from repro.runtime.fingerprint import (
    GraphCapture,
    app_graph_fingerprint,
    graph_fingerprint,
)
from repro.runtime.runtime import OmpSsRuntime
from repro.service.spec import SubmissionSpec


def _run_fingerprint(spec: SubmissionSpec) -> str:
    """Fingerprint of the graph a real run of ``spec`` builds."""
    machine = spec.build_machine()
    app = spec.build_app()
    app.register_cost_models(machine)
    rt = OmpSsRuntime(
        machine,
        spec.scheduler,
        config=spec.build_config(),
        scheduler_options=dict(spec.scheduler_options),
    )
    with rt:
        app.master(rt)
    return graph_fingerprint(rt.result().graph)


def test_identical_apps_identical_fingerprint():
    a = app_graph_fingerprint(MatmulApp(n_tiles=3, variant="hyb"))
    b = app_graph_fingerprint(MatmulApp(n_tiles=3, variant="hyb"))
    assert a == b
    assert a.startswith("gfp:")


def test_fingerprint_ignores_uid_counter():
    # burn task uids between the two captures: the run-global counter
    # must not leak into the hash
    first = app_graph_fingerprint(MatmulApp(n_tiles=3, variant="hyb"))
    app_graph_fingerprint(CholeskyApp(n_blocks=4, variant="gpu"))
    second = app_graph_fingerprint(MatmulApp(n_tiles=3, variant="hyb"))
    assert first == second


def test_distinct_graphs_distinct_fingerprints():
    fps = {
        app_graph_fingerprint(MatmulApp(n_tiles=3, variant="hyb")),
        app_graph_fingerprint(MatmulApp(n_tiles=4, variant="hyb")),
        app_graph_fingerprint(MatmulApp(n_tiles=3, variant="gpu")),
        app_graph_fingerprint(MatmulApp(n_tiles=3, tile_size=512, variant="hyb")),
        app_graph_fingerprint(CholeskyApp(n_blocks=3, variant="hyb")),
        app_graph_fingerprint(PBPIApp(generations=2, n_blocks=3, variant="hyb")),
    }
    assert len(fps) == 6


def test_capture_does_not_simulate():
    cap = GraphCapture()
    with cap:
        MatmulApp(n_tiles=2, variant="hyb").master(cap)  # type: ignore[arg-type]
    assert len(cap.tasks) == 2 * 2 * 2
    assert len(cap.graph._tasks) == len(cap.tasks)


def test_priority_clause_enters_fingerprint():
    base = app_graph_fingerprint(CholeskyApp(n_blocks=3, variant="hyb"))
    prio = app_graph_fingerprint(CholeskyApp(n_blocks=3, variant="hyb", potrf_priority=5))
    assert base != prio


# ----------------------------------------------------------------------
# A run's own graph fingerprints like a capture of the same app
# ----------------------------------------------------------------------
#: per app: its variants (matmul has no smp one) and a small size draw
_DIFF_APPS = {
    "matmul": (("hyb", "gpu"), lambda rng: {
        "n_tiles": rng.randint(2, 3), "tile_size": rng.choice((256, 512, 1024))}),
    "cholesky": (("hyb", "smp", "gpu"), lambda rng: {
        "n_blocks": rng.randint(2, 4), "block_size": rng.choice((512, 1024, 2048))}),
    "pbpi": (("hyb", "smp", "gpu"), lambda rng: {
        "generations": rng.randint(1, 3), "n_blocks": rng.randint(2, 4)}),
}

#: every service-settable config field that can change when (or whether)
#: tasks are submitted relative to the simulation
_SUBMISSION_CONFIGS = [
    None,
    {"max_in_flight_tasks": 2},
    {"flush_on_wait": False},
    {"execute_bodies": False},
    {"check_aliasing": True},
    {"prefetch_window": 1},
]


@pytest.mark.parametrize(
    "config", _SUBMISSION_CONFIGS, ids=lambda c: "default" if c is None else next(iter(c))
)
@pytest.mark.parametrize(
    "app,variant",
    [(app, v) for app, (variants, _) in _DIFF_APPS.items() for v in variants],
)
def test_run_graph_fingerprint_equals_capture(app, variant, config):
    sizes = _DIFF_APPS[app][1]
    rng = random.Random(f"{app}-{variant}-{config}")
    for _ in range(2):
        spec = SubmissionSpec(
            app=app,
            app_args=dict(sizes(rng), variant=variant),
            machine_args={"n_smp": rng.randint(2, 4), "n_gpus": rng.randint(1, 2)},
            seed=rng.randint(0, 999),
            config=config,
            share_scheduler=False,
        )
        assert _run_fingerprint(spec) == app_graph_fingerprint(spec.build_app()), spec


#: literal digests of three small graphs.  Cache keys persist across
#: processes and releases: a change to the canonical bytes turns every
#: persisted cache cold, so it must show up here, not in production.
_PINNED = [
    ("matmul", {"n_tiles": 2, "variant": "hyb"}, "gfp:c0de8e5412b2d6f6"),
    ("cholesky", {"n_blocks": 3, "variant": "gpu"}, "gfp:184a86b0d86d8e7a"),
    ("pbpi", {"generations": 2, "n_blocks": 3, "variant": "smp"}, "gfp:308191636330b6bd"),
]


@pytest.mark.parametrize("app,app_args,digest", _PINNED, ids=[p[0] for p in _PINNED])
def test_pinned_digests(app, app_args, digest):
    spec = SubmissionSpec(app=app, app_args=app_args, share_scheduler=False)
    assert app_graph_fingerprint(spec.build_app()) == digest
    assert _run_fingerprint(spec) == digest


_SUBPROCESS_SNIPPET = """
import json
from repro.apps.cholesky import CholeskyApp
from repro.apps.matmul import MatmulApp
from repro.runtime.fingerprint import app_graph_fingerprint, graph_fingerprint
from repro.runtime.runtime import OmpSsRuntime
from repro.service.spec import SubmissionSpec

spec = SubmissionSpec(app="cholesky", app_args={"n_blocks": 4, "variant": "hyb"})
machine = spec.build_machine()
app = spec.build_app()
app.register_cost_models(machine)
rt = OmpSsRuntime(machine, spec.scheduler)
with rt:
    app.master(rt)
print(json.dumps({
    "matmul": app_graph_fingerprint(MatmulApp(n_tiles=3, variant="hyb")),
    "cholesky": app_graph_fingerprint(CholeskyApp(n_blocks=4, variant="hyb")),
    "cholesky_run": graph_fingerprint(rt.result().graph),
}))
"""


def _fingerprints_under(hashseed: str) -> dict:
    src = str(Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SNIPPET],
        env={"PYTHONPATH": src, "PYTHONHASHSEED": hashseed, "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout)


def test_fingerprint_is_process_stable():
    """Regression: the hash must not depend on PYTHONHASHSEED or any
    other per-process state (dict order, uid counters, object ids)."""
    runs = [_fingerprints_under(seed) for seed in ("1", "42", "random")]
    assert runs[0] == runs[1] == runs[2]
    # and the parent process (whatever its hash seed) agrees
    assert runs[0]["matmul"] == app_graph_fingerprint(MatmulApp(n_tiles=3, variant="hyb"))
    assert runs[0]["cholesky"] == app_graph_fingerprint(
        CholeskyApp(n_blocks=4, variant="hyb")
    )
    # a run's own graph hashes like the capture, in every process
    assert runs[0]["cholesky_run"] == runs[0]["cholesky"]
