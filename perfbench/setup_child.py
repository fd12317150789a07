"""Set-up of one batch workload in a fresh process, for ``setup_s``.

Imports the program, builds the workload's apps and machine and
registers their cost models — everything before the first timed
iteration — then prints ``ready`` and exits.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from batch import build  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    import repro.runtime.runtime  # noqa: F401  the runtime the first iteration builds

    build(args.workload, args.seed)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
