"""Cost of the always-on accounting layer (``repro.metrics``).

The claims that keep "always-on" honest:

1. **Observation-only** — an accounted run is bit-identical to a
   disabled one on every simulated observable (metrics snapshot, sim
   time): accounting never schedules events, never draws randomness,
   never touches the experiment metrics.
2. **Hot-path budget** — the per-event cost is a resolved-handle
   increment, so the churn benchmark with accounting on stays within
   1.10x of the accounting-off run; a negative control pads one edge
   and checks the same measurement then fails.

The run is :func:`repro.bench.harness.run_holdback_churn`.
``tests/test_bench_contract.py`` pins its simulated observables exactly
and checks claim 1's bit-identity; this module times it.
"""

import gc
import os
import time
from unittest import mock

import pytest

from conftest import bench_once
from repro.bench.harness import run_holdback_churn
from repro.mom.accounting import BusAccounting

_METRICS_OFF = {"REPRO_METRICS": "0"}


def _churn(accounting=True, sends=25):
    """The churn run's bus; ``accounting=False`` builds it under
    ``REPRO_METRICS=0``, the one accounting switch."""
    with mock.patch.dict(os.environ, {} if accounting else _METRICS_OFF):
        return run_holdback_churn(sends=sends)[0]


def test_accounted_churn(benchmark):
    mom = bench_once(benchmark, _churn)
    benchmark.extra_info["sim_ms"] = round(mom.sim.now, 3)
    snapshot = mom.cost_snapshot()
    benchmark.extra_info["instruments"] = len(snapshot["instruments"])
    assert mom.check_app_causality().respects_causality


def test_unaccounted_churn(benchmark):
    mom = bench_once(benchmark, lambda: _churn(accounting=False))
    benchmark.extra_info["sim_ms"] = round(mom.sim.now, 3)
    assert mom.cost_snapshot() is None


def _overhead(pairs=8):
    """Best-of-``pairs`` wall clock of the 8x-longer churn (~250ms a run),
    accounting off and on, as ``(on/off, off_s, on_s)``.

    One untimed warm pair runs first, the side that runs first alternates
    per pair, and every timed run starts from a collected heap: a fixed
    order, or a collection of the previous run's buses landing inside a
    timed run, charges what an earlier run left behind to one side only,
    which can fake a 10-20% overhead on its own."""
    _churn(accounting=False, sends=200)
    _churn(accounting=True, sends=200)
    best = {False: float("inf"), True: float("inf")}
    for pair in range(pairs):
        for accounting in (pair % 2 == 1, pair % 2 == 0):
            gc.collect()  # the previous run's buses are cyclic garbage
            start = time.perf_counter()
            _churn(accounting=accounting, sends=200)
            elapsed = time.perf_counter() - start
            best[accounting] = min(best[accounting], elapsed)
    off_s, on_s = best[False], best[True]
    return (on_s / off_s if off_s > 0 else 0.0), off_s, on_s


def test_overhead_within_budget():
    """Accounting on the churn run stays within the 1.10x acceptance
    band (see :func:`_overhead` for how the two sides are timed)."""
    ratio, off_s, on_s = _overhead()
    assert ratio <= 1.10, (
        f"accounting overhead {ratio:.3f}x exceeds the 1.10x budget "
        f"(off={off_s:.4f}s on={on_s:.4f}s)"
    )


def test_overhead_budget_catches_slow_accounting(monkeypatch):
    """Negative control: a ``channel_commit`` edge padded to add ~35% to
    the run must fail the very measurement above."""
    start = time.perf_counter()
    mom = _churn(accounting=False, sends=200)
    off_s = time.perf_counter() - start
    commits = mom.metrics.snapshot()["channel.hops_delivered"]
    pad_s = 0.35 * off_s / commits
    commit = BusAccounting.channel_commit

    def slow_commit(self, server, envelope, merged_cells):
        commit(self, server, envelope, merged_cells)
        until = time.perf_counter() + pad_s
        while time.perf_counter() < until:
            pass

    monkeypatch.setattr(BusAccounting, "channel_commit", slow_commit)
    ratio, _, _ = _overhead()
    assert ratio > 1.10, f"a ~1.35x accounting edge measured {ratio:.3f}x"


def test_env_kill_switch(monkeypatch):
    """REPRO_METRICS=0 in the environment disables accounting."""
    monkeypatch.setenv("REPRO_METRICS", "0")
    mom = _churn(accounting=True)
    assert mom.accounting is None
    assert mom.cost_observer is None
    assert mom._obs is None
    assert mom.cost_snapshot() is None


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
