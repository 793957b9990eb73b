#!/usr/bin/env python3
"""The wall-clock gate: time live commands against the bands in
``tools/bench_baseline.json``.

The baseline is a schema'd list of bands::

    {
     "format": "repro.bench-gate/v2",
     "runtime": [
      {"name": "analysis-lint-cold",
       "argv": ["{python}", "-m", "repro.analysis", "lint", "src",
                "--cache", "{cache}"],
       "env": {"PYTHONPATH": "src"},
       "max_seconds": 10.0}
     ]
    }

Each entry spawns ``argv`` in the repo root (placeholders: ``{python}``
→ this interpreter, ``{cache}`` → a fresh per-entry temp file) with
``env`` merged over the inherited environment, and fails if the
command exits non-zero or the wall clock exceeds ``max_seconds``.
``"warmup": true`` runs the command once untimed first (so a
cache-backed entry measures the warm path); ``"best_of": N`` takes the
fastest of N timed runs to damp scheduler noise.

Simulated observables are deterministic, so they are not banded here:
``tests/test_bench_contract.py`` pins them exactly on the live tree.

Exit status 0 when every band holds, 1 otherwise::

    python tools/bench_gate.py -v
    python tools/bench_gate.py --baseline tools/bench_baseline.json --root .

The gate itself is stdlib-only; the commands it times import ``repro``
and so need its dependencies (numpy, networkx).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Tuple

FORMAT = "repro.bench-gate/v2"


def run_runtime_entry(
    entry: dict, root: str
) -> Tuple[bool, str]:
    """Time one live command against its wall-clock band."""
    name = entry["name"]
    limit = float(entry["max_seconds"])
    rounds = int(entry.get("best_of", 1))
    env = dict(os.environ)
    env.update(entry.get("env", {}))
    with tempfile.TemporaryDirectory(prefix="bench-gate-") as tmp:
        subst: Dict[str, str] = {
            "python": sys.executable,
            "cache": os.path.join(tmp, "cache.json"),
        }
        argv = [arg.format(**subst) for arg in entry["argv"]]
        runs = rounds + (1 if entry.get("warmup") else 0)
        best = None
        for index in range(runs):
            started = time.perf_counter()
            proc = subprocess.run(
                argv, cwd=root, env=env, capture_output=True, text=True
            )
            elapsed = time.perf_counter() - started
            if proc.returncode != 0:
                tail = (proc.stderr or proc.stdout or "").strip()
                tail = tail.splitlines()[-1] if tail else ""
                return False, (
                    f"FAIL  runtime {name}: exit {proc.returncode} ({tail})"
                )
            if index == 0 and entry.get("warmup"):
                continue
            best = elapsed if best is None else min(best, elapsed)
    assert best is not None
    if best > limit:
        return False, (
            f"FAIL  runtime {name} = {best:.2f}s > max {limit:g}s"
        )
    return True, f"ok    runtime {name} = {best:.2f}s (<= {limit:g}s)"


def validate_baseline(baseline: dict) -> List[str]:
    """Schema errors in the baseline itself (a broken gate must not pass)."""
    errors = []
    if baseline.get("format") != FORMAT:
        errors.append(
            f"baseline format {baseline.get('format')!r} != {FORMAT!r}"
        )
    runtime = baseline.get("runtime")
    if not isinstance(runtime, list) or not runtime:
        return errors + ["'runtime' must be a non-empty list"]
    for ri, entry in enumerate(runtime):
        where = f"runtime[{ri}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: not an object")
            continue
        if not isinstance(entry.get("name"), str):
            errors.append(f"{where}: missing 'name'")
        argv = entry.get("argv")
        if (
            not isinstance(argv, list)
            or not argv
            or not all(isinstance(arg, str) for arg in argv)
        ):
            errors.append(f"{where}: 'argv' must be a non-empty string list")
        limit = entry.get("max_seconds")
        if not isinstance(limit, (int, float)) or isinstance(limit, bool) \
                or limit <= 0:
            errors.append(f"{where}: 'max_seconds' must be a positive number")
        env = entry.get("env", {})
        if not isinstance(env, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in env.items()
        ):
            errors.append(f"{where}: 'env' must map strings to strings")
        best_of = entry.get("best_of", 1)
        if not isinstance(best_of, int) or isinstance(best_of, bool) \
                or best_of < 1:
            errors.append(f"{where}: 'best_of' must be a positive integer")
    return errors


def run_gate(baseline_path: str, root: str, verbose: bool = False) -> int:
    with open(baseline_path) as stream:
        baseline = json.load(stream)
    schema_errors = validate_baseline(baseline)
    if schema_errors:
        for error in schema_errors:
            print(f"FAIL  baseline schema: {error}")
        return 1
    failures = 0
    entries = baseline["runtime"]
    for entry in entries:
        ok, verdict = run_runtime_entry(entry, root)
        if not ok:
            failures += 1
        if verbose or not ok:
            print(verdict)
    if failures:
        print(f"bench gate: {failures}/{len(entries)} checks FAILED")
        return 1
    print(f"bench gate: all {len(entries)} checks passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="time live commands against baseline wall-clock bands"
    )
    default_root = os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    )
    parser.add_argument(
        "--baseline",
        default=os.path.join(default_root, "tools", "bench_baseline.json"),
    )
    parser.add_argument(
        "--root",
        default=default_root,
        help="directory the timed commands run in",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    return run_gate(args.baseline, args.root, verbose=args.verbose)


if __name__ == "__main__":
    sys.exit(main())
