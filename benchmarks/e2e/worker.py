"""One workload in one fresh process: the child ``run.py`` spawns.

Prints a single JSON object as the last line of its standard output.
A process runs one workload and exits: ``fig_sweep`` re-imports the
program every epoch, which leaves this process's other imports stale.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]


def peak_rss_mb() -> float:
    """Peak resident set of this process or, when larger, of a forked
    shard worker it has waited for (``ru_maxrss`` is in KiB on Linux)."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    if args.trace:
        import perlayer

        result = perlayer.profile(args.workload, args.seed, args.quick)
    else:
        import workloads

        result = workloads.measure(
            args.workload, args.seed, args.seconds, args.quick
        )
        result["metrics"]["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
