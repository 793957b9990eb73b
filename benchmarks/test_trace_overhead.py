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

The companion exporter (``export_bench.py --trace``) records the same
ratio into ``BENCH_hotpath.json`` under ``trace_overhead``.
"""

import pytest

from conftest import bench_once
from repro.mom import BusConfig, EchoAgent, FunctionAgent, MessageBus
from repro.obs.tracer import attach
from repro.simulation.network import UniformLatency
from repro.topology import single_domain


def _churn(trace=False):
    """The export_bench hold-back churn scenario: 4 senders flood one
    echo across a jittery 12-server domain."""
    mom = MessageBus(
        BusConfig(
            topology=single_domain(12),
            seed=11,
            latency=UniformLatency(0.1, 20.0),
        )
    )
    tracer = attach(mom) if trace else None
    echo_id = mom.deploy(EchoAgent(), 11)
    for src in range(4):
        sender = FunctionAgent(lambda ctx, s, p: None)

        def boot(ctx, echo_id=echo_id):
            for i in range(25):
                ctx.send(echo_id, i)

        sender.on_boot = boot
        mom.deploy(sender, src)
    mom.start()
    mom.run_until_idle()
    return mom, tracer


def test_untraced_churn(benchmark):
    mom, _ = bench_once(benchmark, _churn)
    benchmark.extra_info["sim_ms"] = round(mom.sim.now, 3)
    assert mom.check_app_causality().respects_causality


def test_traced_churn(benchmark):
    mom, tracer = bench_once(benchmark, lambda: _churn(trace=True))
    benchmark.extra_info["sim_ms"] = round(mom.sim.now, 3)
    benchmark.extra_info["events"] = tracer.ring.next_seq
    benchmark.extra_info["histograms"] = len(tracer.histograms)
    assert tracer.ring.next_seq > 0
    assert tracer.hist("holdback_dwell_ms").count > 0


def test_tracing_is_observation_only():
    """Same seed, same workload: traced and untraced runs agree on every
    simulated observable."""
    bare, _ = _churn()
    traced, tracer = _churn(trace=True)
    assert traced.metrics.snapshot() == bare.metrics.snapshot()
    assert traced.sim.now == bare.sim.now
    assert tracer.ring.next_seq > 0


def test_overhead_ratio_bounded():
    """Tracer overhead on the churn run stays within a generous bound.

    This is a smoke limit against pathological regressions (accidental
    O(n) work per event, dump-on-every-record), not a tight perf gate:
    CI machines are noisy, so we only fail beyond 10x.
    """
    import time

    def best_of(fn, repeat=3):
        best = float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    bare_s = best_of(lambda: _churn())
    traced_s = best_of(lambda: _churn(trace=True))
    assert traced_s < bare_s * 10, (
        f"tracer overhead {traced_s / bare_s:.1f}x exceeds the 10x "
        "pathological-regression bound"
    )


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
