"""Cost of the observability layer (``repro.obs``).

Two claims to hold the tracer to:

1. **Off means off** — an un-traced bus reports each lifecycle edge to
   its accounting observer through one ``if self._obs is not None``
   guard, and skips the tracer-only edges on ``_obs.tracing``; tracing
   adds no second hook, so its untraced wall time must stay where it was.
2. **On is observation-only** — with a tracer attached, the run may be
   slower in wall-clock, but every simulated observable (metrics
   snapshot, sim time) must be bit-identical: the tracer never touches
   metrics, never schedules events, never draws randomness.

The run is :func:`repro.bench.harness.run_holdback_churn`.
``tests/test_bench_contract.py`` pins its simulated observables exactly
and checks claim 2's bit-identity; this module times it.
"""

import pytest

from conftest import bench_once
from repro.bench.harness import run_holdback_churn


def test_untraced_churn(benchmark):
    mom, _ = bench_once(benchmark, run_holdback_churn)
    benchmark.extra_info["sim_ms"] = round(mom.sim.now, 3)
    assert mom.check_app_causality().respects_causality


def test_traced_churn(benchmark):
    mom, tracer = bench_once(
        benchmark, lambda: run_holdback_churn(trace=True)
    )
    benchmark.extra_info["sim_ms"] = round(mom.sim.now, 3)
    benchmark.extra_info["events"] = tracer.ring.next_seq
    benchmark.extra_info["histograms"] = len(tracer.histograms)
    assert tracer.ring.next_seq > 0
    assert tracer.hist("holdback_dwell_ms").count > 0


def test_overhead_ratio_bounded():
    """Tracer overhead on the churn run stays within 3x.

    A limit against pathological regressions (accidental O(n) work per
    event, dump-on-every-record), not a tight perf gate: best-of-3 of
    this measurement reads 1.0-1.5x on a 2-core x86 host, and CI
    machines are noisy."""
    import time

    def best_of(fn, repeat=3):
        best = float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    bare_s = best_of(run_holdback_churn)
    traced_s = best_of(lambda: run_holdback_churn(trace=True))
    assert traced_s < bare_s * 3.0, (
        f"tracer overhead {traced_s / bare_s:.1f}x exceeds the 3x "
        "pathological-regression bound"
    )


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
