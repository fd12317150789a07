"""The scheduler service for ``service-mixed``, with optional probes.

Runs ``python -m repro.service serve`` in this process.  With
``--trace-out`` the layer probes are installed first and, once SIGTERM
has drained the server, the spans and their aggregates are written to
that file.  ``--slowdown target:frac`` injects the sensitivity test's
extra cost (see :func:`probes.inject_slowdown`).
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from probes import Probes, Tracer, inject_slowdown, install, parse_slowdown  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--slowdown", default=None)
    args, serve_args = ap.parse_known_args()

    from repro.service.__main__ import main as service_main

    probes = Probes()
    slowdown = parse_slowdown(args.slowdown)
    if slowdown is not None:
        inject_slowdown(probes, *slowdown)
    tracer = None
    if args.trace_out:
        tracer = Tracer()
        install(tracer, probes, service=True)
    try:
        return service_main(["serve", *serve_args])
    finally:
        probes.uninstall()
        if tracer is not None:
            tracer.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
