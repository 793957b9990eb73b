"""Compare two result files of ``run.py --out``: parent A, change B.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per workload x end-to-end metric, judged against the bound that
``BENCHMARK.json`` fixes for the metric:

- ``worse``: B's median is worse than A's by more than the bound;
- ``unresolved``: the run-to-run spread (quartile distance over median,
  the wider of the two sides) exceeds the bound, so the medians settle
  nothing — unless every run of B beats every run of A;
- ``better``: B's median is better by more than that spread;
- ``within-bound``: anything else.

Simulated observables and the fingerprint must repeat exactly for equal
seeds; a difference is reported as ``CHANGED`` (a behaviour change must
say so). Exit status is non-zero on any ``worse`` row or when B fails a
larger share of its operations than A. Run on two result files of one
commit, this is the A/A check.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List

from run import FORMAT, load_declaration


def load(path: str) -> Dict[str, Any]:
    with open(path) as stream:
        document = json.load(stream)
    if document.get("format") != FORMAT:
        raise SystemExit(f"{path}: not a {FORMAT} result file")
    return document


def verdict(
    a: Dict[str, Any], b: Dict[str, Any],
    a_runs: List[float], b_runs: List[float],
    lower_is_better: bool, bound: float,
) -> str:
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    spread = max(
        (side["q3"] - side["q1"]) / side["median"] for side in (a, b)
    )
    if spread > bound:
        if lower_is_better:
            clear_win = max(b_runs) < min(a_runs)
        else:
            clear_win = min(b_runs) > max(a_runs)
        return "better" if clear_win else "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > spread:
        return "better"
    return "within-bound"


def failed_share(workload: Dict[str, Any]) -> float:
    return workload["ops_failed"] / workload["ops_attempted"]


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        raise SystemExit(__doc__)
    first, second = load(argv[0]), load(argv[1])
    declared = load_declaration()["end_to_end"]
    status = 0
    for name, a in first["workloads"].items():
        b = second["workloads"].get(name)
        if b is None:
            print(f"{name}: missing from {argv[1]}")
            continue
        for metric in declared:
            key = metric["name"]
            row = verdict(
                a["end_to_end"][key], b["end_to_end"][key],
                [run["metrics"][key] for run in a["runs"]],
                [run["metrics"][key] for run in b["runs"]],
                metric["better"] == "lower", metric["bound"],
            )
            print(
                f"{name:18s} {key:18s} A={a['end_to_end'][key]['median']:<12.6g} "
                f"B={b['end_to_end'][key]['median']:<12.6g} "
                f"bound={metric['bound']:<5} {row}"
            )
            if row == "worse":
                status = 1
        same = (
            a["sim_fingerprint"] == b["sim_fingerprint"] and a["sim"] == b["sim"]
        )
        print(f"{name:18s} simulated results  {'identical' if same else 'CHANGED'}")
        if failed_share(b) > failed_share(a):
            print(
                f"{name:18s} ops_failed share rose: "
                f"{failed_share(a):.4f} -> {failed_share(b):.4f}"
            )
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
