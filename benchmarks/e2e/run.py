"""The repo benchmark: seven closed-loop MOM workloads, end to end and
layer by layer. ``BENCHMARK.json`` at the repo root declares every name
printed here; ``README.md`` beside this file explains them.

One run (what ``BENCHMARK.json``'s command is given)::

    python3 benchmarks/e2e/run.py --workload churn_w8 --seed 1 --seconds 10 --trace 0

measures the workload for ``--seconds`` with tracing off and prints the
end-to-end metrics; ``--trace 1`` runs the fixed-work traced phase and
prints the per-layer metrics. The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

The whole suite (no ``--trace``)::

    python3 benchmarks/e2e/run.py [--workload NAME] [--repeats N] [--quick] [--out FILE]

runs every workload ``--repeats`` times timed and once traced, one child
process at a time, gates correctness and writes everything to ``--out``
for ``compare.py``. Exit status is non-zero on any correctness failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
FORMAT = "repro.e2e-bench/v1"


def load_declaration() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as stream:
        return json.load(stream)


def run_child(
    workload: str, seed: int, seconds: float, trace: int, quick: bool
) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter and return its result.

    The child gets a fixed hash seed and none of the program's ``REPRO_*``
    switches; a flight-recorder dump, should a run crash, stays inside
    the checkout.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_OBS_DIR"] = str(ROOT / ".bench_out" / "obs")
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: worker exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    return result


def check_names(result: Dict[str, Any], declared: List[Dict[str, Any]]) -> None:
    """The names printed are exactly the names ``BENCHMARK.json`` declares."""
    emitted, expected = set(result["metrics"]), {m["name"] for m in declared}
    if emitted != expected:
        result["failures"].append(
            f"metric names differ from BENCHMARK.json: "
            f"{sorted(emitted ^ expected)}"
        )
        result["ops_failed"] = result["ops_attempted"]


def print_metrics(
    workload: str, result: Dict[str, Any], declared: List[Dict[str, Any]]
) -> None:
    for metric in declared:
        value = result["metrics"].get(metric["name"])
        print(f"{workload:18s} {metric['name']:40s} {value!r:>24} {metric['unit']}")
    print(
        f"{workload:18s} ops_attempted={result['ops_attempted']} "
        f"ops_failed={result['ops_failed']} "
        f"sim_fingerprint={result['sim_fingerprint']} "
        f"epochs={result['epochs_run']} params={result['params']}"
    )
    for failure in result["failures"]:
        print(f"{workload:18s} FAILED: {failure}")


def single_run(args: argparse.Namespace, declaration: Dict[str, Any]) -> int:
    """One workload, one mode: the contract of ``BENCHMARK.json``."""
    declared = declaration["per_layer" if args.trace else "end_to_end"]
    result = run_child(args.workload, args.seed, args.seconds, args.trace, args.quick)
    check_names(result, declared)
    print_metrics(args.workload, result, declared)
    units = {m["name"]: m["unit"] for m in declared}
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in units.items() if name in result["metrics"]
        },
    }))
    return 1 if result["failures"] else 0


def summarize(values: List[float]) -> Dict[str, Any]:
    """Median and quartiles over the repeats, with the sample count."""
    quartiles = (
        statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    )
    return {
        "median": statistics.median(values),
        "q1": quartiles[0], "q3": quartiles[2], "n": len(values),
    }


def suite(args: argparse.Namespace, declaration: Dict[str, Any]) -> int:
    """Every workload: ``--repeats`` timed runs, then the traced phase."""
    began = time.time()
    names = [w["name"] for w in declaration["workloads"]]
    selected = [args.workload] if args.workload else names
    document: Dict[str, Any] = {
        "format": FORMAT,
        "hygiene": {
            "seed": args.seed, "repeats": args.repeats,
            "seconds": args.seconds, "quick": args.quick,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg_1m_before": os.getloadavg()[0],
        },
        "workloads": {},
    }
    failed = False
    for workload in selected:
        # one child at a time: workloads never overlap
        runs = []
        for _ in range(args.repeats):
            run = run_child(workload, args.seed, args.seconds, 0, args.quick)
            check_names(run, declaration["end_to_end"])
            print_metrics(workload, run, declaration["end_to_end"])
            runs.append(run)
        traced = run_child(workload, args.seed, args.seconds, 1, args.quick)
        check_names(traced, declaration["per_layer"])
        print_metrics(workload, traced, declaration["per_layer"])

        fingerprints = {r["sim_fingerprint"] for r in runs + [traced]}
        gate = [f for r in runs + [traced] for f in r["failures"]]
        if len(fingerprints) > 1:
            gate.append(
                f"sim_fingerprint differs between runs of one seed: "
                f"{sorted(fingerprints)}"
            )
        summary = {
            metric["name"]: dict(
                summarize([r["metrics"][metric["name"]] for r in runs]),
                unit=metric["unit"],
            )
            for metric in declaration["end_to_end"]
            if all(metric["name"] in r["metrics"] for r in runs)
        }
        for name, row in summary.items():
            print(
                f"{workload:18s} {name:18s} median={row['median']:.6g} "
                f"q1={row['q1']:.6g} q3={row['q3']:.6g} n={row['n']} {row['unit']}"
            )
        for failure in gate:
            print(f"{workload:18s} GATE FAILED: {failure}")
        failed = failed or bool(gate)
        attempted = sum(r["ops_attempted"] for r in runs + [traced])
        document["workloads"][workload] = {
            "params": runs[0]["params"],
            "sim_fingerprint": runs[0]["sim_fingerprint"],
            "sim": runs[0]["sim"],
            "ops_attempted": attempted,
            "ops_failed": attempted if gate else 0,
            "failures": gate,
            "end_to_end": summary,
            "runs": runs,
            "traced": traced,
        }
    document["hygiene"]["loadavg_1m_after"] = os.getloadavg()[0]
    document["hygiene"]["wall_s"] = time.time() - began
    document["correct"] = not failed
    print(f"hygiene: {json.dumps(document['hygiene'])}")
    if args.out:
        with open(args.out, "w") as stream:
            json.dump(document, stream, indent=1)
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    declaration = load_declaration()
    names = [w["name"] for w in declaration["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float,
        help="how long one timed run measures (default: BENCHMARK.json's "
        "run_seconds; with --quick, one pass over the epoch inputs)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="one run: 0 = timed, end-to-end metrics; 1 = traced, per-layer",
    )
    parser.add_argument(
        "--repeats", type=int,
        help="suite only: timed runs per workload (default 3; 1 with --quick)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke run: one epoch input, a tenth of the round trips",
    )
    parser.add_argument("--out", help="suite only: write the results here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else float(declaration["run_seconds"])
    if args.repeats is None:
        args.repeats = 1 if args.quick else 3
    if not (ROOT / "src" / "repro").is_dir():
        print(f"program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.trace is None:
        return suite(args, declaration)
    if not args.workload:
        parser.error("--trace needs --workload")
    return single_run(args, declaration)


if __name__ == "__main__":
    sys.exit(main())
