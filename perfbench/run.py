"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload node-paper --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no probes installed;
``--trace 1`` runs half the time untraced and half with the layer probes
of ``probes.py``, and reports per-layer self time and work counts (plus
the residual no span covers and the tracing overhead).  The run context,
the deterministic work counters and every metric are printed by name
with their unit; the last line of standard output is the JSON result.
See ``perfbench/README.md`` for the workloads and the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    SRC,
    context,
    emit,
    log,
    metric,
)

WORKLOADS = ("node-paper", "cluster-sharded", "service-mixed")


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--slowdown", default=None, metavar="TARGET:FRAC",
        help="inject extra cost into one public function (sensitivity test only)",
    )
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"error: the program's sources are missing ({SRC / 'repro'} not found)")
        return 2
    sys.path.insert(0, str(SRC))

    import service_mixed

    ctx = context(
        args.workload, args.seed, args.seconds, bool(args.trace),
        service_rate_rps=service_mixed.RATE_RPS,
        service_latency_limit_ms=service_mixed.LATENCY_LIMIT_MS,
        slowdown=args.slowdown,
    )
    print("context " + json.dumps(ctx, sort_keys=True), flush=True)

    if args.workload == "service-mixed":
        run = service_mixed.traced if args.trace else service_mixed.end_to_end
        values, info, failures = run(args.seed, args.seconds, args.slowdown)
        attempted, failed = info["requests"], len(failures)
    else:
        import batch
        from probes import Probes, inject_slowdown, parse_slowdown

        probes = Probes()
        slowdown = parse_slowdown(args.slowdown)
        if slowdown is not None:
            inject_slowdown(probes, *slowdown)
        try:
            run = batch.traced if args.trace else batch.end_to_end
            values, bench, info = run(args.workload, args.seed, args.seconds)
        finally:
            probes.uninstall()
        attempted, failed = bench.attempted, bench.failed

    units = PER_LAYER if args.trace else END_TO_END
    print("info " + json.dumps(info, sort_keys=True), flush=True)
    for name, unit in units.items():
        print(f"{name:40s} {values[name]:>14.6g} {unit}", flush=True)
    emit({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metric(values[name], unit) for name, unit in units.items()},
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
