"""The traced phase: per-layer metrics of one workload.

Runs, on the workload's own epoch inputs and always with fixed work:

1. one untraced *reference* epoch per epoch input (the simulated
   observables and the fingerprint, identical to the timed run's);
2. A/B twins of the first epoch: cost accounting off, and where the
   workload has them the ``repro.obs`` tracer off, the sanitizer on, the
   sequential twin of the sharded bus;
3. the first epoch once more under the span recorder
   (:mod:`layers`) — for the sharded workload its sequential twin, since
   the shards' own split comes from ``ShardedBus.shard_telemetry()``;
4. three micro-benchmarks of the kernel and the clock cores.

Each A/B ratio rests on one pair of epochs; per-layer metrics carry no
regression bound.
"""

from __future__ import annotations

import gc
import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List

from repro.analysis import sanitizer
from repro.protocol import get_core
from repro.simulation.kernel import Simulator

import layers
import workloads
from workloads import Epoch

RUN = f"{layers.BENCH}.run"
CLOCK_SIZE = 150


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@contextmanager
def _environ(key: str, value: str) -> Iterator[None]:
    previous = os.environ.get(key)
    os.environ[key] = value
    try:
        yield
    finally:
        if previous is None:
            del os.environ[key]
        else:
            os.environ[key] = previous


def _timed_ns(fn: Callable[[], Any], operations: int) -> float:
    gc.collect()
    started = time.perf_counter_ns()
    fn()
    return (time.perf_counter_ns() - started) / operations


def micro_metrics(quick: bool = False) -> Dict[str, float]:
    """Layer costs with nothing around them: 200k no-op kernel events;
    ping-pong and fan-in on 150-server clocks through the core API
    (a tenth of each with ``quick``)."""
    scale = 10 if quick else 1
    events = 200_000 // scale

    def kernel() -> None:
        sim = Simulator()
        for _ in range(events):
            sim.schedule_local(0, 1.0, _noop)
        sim.run()

    iterations = 1000 // scale
    rounds = 10 // scale

    def pingpong(core_name: str) -> Callable[[], None]:
        core = get_core(core_name)
        first = core.create_clock(CLOCK_SIZE, 0)
        second = core.create_clock(CLOCK_SIZE, 1)

        def run() -> None:
            for _ in range(iterations):
                core.merge(second, core.stamp(first, 1))
                core.merge(first, core.stamp(second, 0))

        run()  # steady-state deltas
        return run

    def fan_in() -> Callable[[], None]:
        core = get_core("matrix")
        receiver = core.create_clock(CLOCK_SIZE, 0)
        peers = [core.create_clock(CLOCK_SIZE, i) for i in range(1, CLOCK_SIZE)]

        def run() -> None:
            for _ in range(rounds):
                for peer in peers:
                    core.merge(receiver, core.stamp(peer, 0))

        run()
        return run

    return {
        "kernel.micro_ns_per_event": _timed_ns(kernel, events),
        # one ping-pong iteration is two stamp+merge operations
        "clocks.micro_pingpong_s150_ns": _timed_ns(
            pingpong("matrix"), 2 * iterations
        ),
        "clocks.micro_updates_pingpong_s150_ns": _timed_ns(
            pingpong("updates"), 2 * iterations
        ),
        "clocks.micro_fanin_s150_ns": _timed_ns(
            fan_in(), rounds * (CLOCK_SIZE - 1)
        ),
    }


def _noop() -> None:
    pass


def layer_metrics(agg: layers.Aggregate, epoch: Epoch) -> Dict[str, float]:
    """The span-derived metrics of one traced epoch. Shares are of the
    ``bench.run`` region; counts come from the span boundaries, outcomes
    (held back, resent, dropped ...) from the program's own counters."""
    counters = epoch.harvest.counters
    deliveries = epoch.deliveries
    hops = counters["channel.hops_sent"]
    run_rows = agg.rows[RUN]
    run_self = sum(row.self_ns for row in run_rows.values())

    def self_ns(layer: str) -> float:
        return agg.layer_self_ns(RUN, layer)

    def share(layer: str) -> float:
        return _ratio(self_ns(layer), run_self)

    fired = counters["kernel.events"]
    scheduled = sum(
        agg.calls(f"kernel.{name}")
        for name in ("schedule_setup", "schedule_local_at", "schedule_arrival")
    )
    packets = agg.calls("network.transmit")
    sends = agg.calls("transport.send")
    clock_calls = sum(
        row.calls for rows in agg.rows.values()
        for name, row in rows.items() if name.startswith("clocks.")
    )
    writes = sum(
        agg.calls(f"persistence.{name}")
        for name in ("save", "put_entry", "delete_entry")
    )
    lookup_names = ("routing.next_hop", "routing.shared_domain")
    lookups = sum(agg.calls(name) for name in lookup_names)
    lookup_self = sum(
        run_rows[name].self_ns for name in lookup_names if name in run_rows
    )
    unattributed = self_ns(layers.UNATTRIBUTED) + self_ns(layers.BENCH)

    def per_call_ns(name: str) -> float:
        return _ratio(agg.total_ns(name), agg.calls(name))

    return {
        "kernel.events_fired": fired,
        "kernel.events_per_delivery": _ratio(fired, deliveries),
        "kernel.fired_per_scheduled": _ratio(fired, scheduled),
        "kernel.self_ns_per_event": _ratio(self_ns("kernel"), fired),
        "kernel.share": share("kernel"),
        "network.packets": packets,
        "network.dropped_ratio": _ratio(
            counters["network.packets_dropped"],
            counters["network.packets_sent"],
        ),
        "network.self_ns_per_packet": _ratio(self_ns("network"), packets),
        "network.share": share("network"),
        "transport.sends": sends,
        "transport.retransmit_ratio": _ratio(
            counters["transport.retransmissions"], sends
        ),
        "transport.dup_suppressed_ratio": _ratio(
            counters["transport.duplicates_suppressed"], sends
        ),
        "transport.self_ns_per_send": _ratio(self_ns("transport"), sends),
        "transport.share": share("transport"),
        "channel.hops_per_delivery": _ratio(hops, deliveries),
        "channel.heldback_ratio": _ratio(counters["channel.heldback"], hops),
        "channel.resent_ratio": _ratio(counters["channel.hops_resent"], hops),
        "channel.duplicate_ratio": _ratio(
            counters["channel.duplicates"], hops
        ),
        "channel.self_ns_per_hop": _ratio(self_ns("channel"), hops),
        "channel.share": share("channel"),
        "engine.reactions": counters["engine.reactions"],
        "engine.self_ns_per_reaction": _ratio(
            self_ns("engine"), counters["engine.reactions"]
        ),
        "engine.share": share("engine"),
        "bus.self_ns_per_delivery": _ratio(self_ns("bus"), deliveries),
        "bus.share": share("bus"),
        "clocks.calls_per_hop": _ratio(clock_calls, hops),
        "clocks.stamp_ns": per_call_ns("clocks.stamp"),
        "clocks.deliverable_ns": per_call_ns("clocks.deliverable"),
        "clocks.merge_ns": per_call_ns("clocks.merge"),
        # every committed hop follows exactly one successful probe
        "clocks.deliverable_true_ratio": _ratio(
            counters["channel.hops_delivered"],
            agg.calls("clocks.deliverable"),
        ),
        "clocks.self_ns_per_hop": _ratio(self_ns("clocks"), hops),
        "clocks.share": share("clocks"),
        "persistence.writes_per_hop": _ratio(writes, hops),
        "persistence.loads": agg.calls("persistence.load"),
        "persistence.self_ns_per_write": _ratio(self_ns("persistence"), writes),
        "persistence.share": share("persistence"),
        "routing.build_s": agg.total_ns("routing.build_routing_tables") / 1e9,
        "routing.lookups_per_hop": _ratio(lookups, hops),
        "routing.self_ns_per_lookup": _ratio(lookup_self, lookups),
        "routing.share": share("routing"),
        "obs.events_per_delivery": _ratio(counters["obs.events"], deliveries),
        "obs.share": share("obs"),
        "trace.unattributed_share": _ratio(unattributed, run_self),
    }


def parallel_metrics(sharded: Epoch, twin: Epoch) -> Dict[str, float]:
    """The shards' own split, from ``ShardedBus.shard_telemetry()``."""
    assert sharded.telemetry is not None
    sim = sharded.telemetry["sim"]
    per_shard = sim["events_per_shard"]
    width = sim["window_width_ms"]
    return {
        "parallel.speedup_w2": _ratio(twin.run_wall_s, sharded.run_wall_s),
        "parallel.sync_overhead_fraction": sharded.telemetry["wallclock"][
            "sync_overhead_fraction"
        ],
        "parallel.grants": sim["grants"],
        "parallel.window_ms_mean": _ratio(width["sum"], width["count"]),
        "parallel.shard_imbalance": _ratio(
            max(per_shard), sum(per_shard) / len(per_shard)
        ),
        "parallel.cross_shard_msgs_per_delivery": _ratio(
            sim["cross_shard"]["messages"], sharded.deliveries
        ),
    }


def profile(name: str, seed: int, quick: bool = False) -> Dict[str, Any]:
    """Every per-layer metric of workload ``name``, with the gate's view
    of the epochs run on the way (see the module docstring)."""
    spec = workloads.SPECS[name].scaled(quick)
    first_seed = seed * 1000
    epochs: List[Epoch] = []
    failures: List[str] = []

    def epoch(label: str, epoch_seed: int = first_seed, **options: Any) -> Epoch:
        result = workloads.run_epoch(
            name, epoch_seed, quick, reimport=False, **options
        )
        failures.extend(f"{label}: {f}" for f in result.failures)
        epochs.append(result)
        return result

    references = [
        epoch(f"reference {index}", first_seed + index)
        for index in range(spec.epochs)
    ]
    # the sequential run the spans and the A/B twins describe
    base = epoch("sequential twin", sharded=False) if spec.sharded else references[0]
    if base.fingerprint != references[0].fingerprint:
        failures.append("sharded fingerprint differs from its sequential twin")
    metrics = dict.fromkeys(
        (
            "obs.overhead_ratio", "sanitizer.overhead_ratio",
            "parallel.speedup_w2", "parallel.sync_overhead_fraction",
            "parallel.grants", "parallel.window_ms_mean",
            "parallel.shard_imbalance", "parallel.cross_shard_msgs_per_delivery",
        ),
        0.0,
    )
    if spec.sharded:
        metrics.update(parallel_metrics(references[0], base))

    with _environ("REPRO_METRICS", "0"):
        unaccounted = epoch("accounting off", sharded=False)
    metrics["metrics.overhead_ratio"] = _ratio(
        base.run_wall_s, unaccounted.run_wall_s
    )
    metrics["metrics.setup_share"] = max(
        0.0, _ratio(base.setup_s - unaccounted.setup_s, base.setup_s)
    )
    if spec.obs:
        untraced = epoch("obs off", obs=False)
        metrics["obs.overhead_ratio"] = _ratio(
            base.run_wall_s, untraced.run_wall_s
        )
    if spec.sanitizer_ab:
        sanitizer.install()
        try:
            sanitized = epoch("sanitizer on")
        finally:
            sanitizer.uninstall()
        metrics["sanitizer.overhead_ratio"] = _ratio(
            sanitized.run_wall_s, base.run_wall_s
        )

    recorder = layers.SpanRecorder()
    recorder.install()
    try:
        recorder.calibrate()
        traced = epoch("traced", region=recorder.region, sharded=False)
    finally:
        recorder.uninstall()
    if traced.fingerprint != base.fingerprint:
        failures.append("the span recorder changed the simulated result")
    aggregate = recorder.aggregate()
    metrics.update(layer_metrics(aggregate, traced))
    metrics["trace.overhead_ratio"] = _ratio(
        _ratio(traced.run_wall_s, traced.deliveries),
        _ratio(base.run_wall_s, base.deliveries),
    )
    metrics["causality.verify_ns_per_message"] = _ratio(
        base.verify_s * 1e9, base.harvest.notifications
    )
    metrics["causality.verify_share"] = _ratio(base.verify_s, base.wall_s)
    metrics.update(micro_metrics(quick))
    metrics.update(workloads.sim_metrics(references))

    attempted = sum(e.ops_attempted for e in epochs)
    incomplete = attempted - sum(e.ops_completed for e in epochs)
    if incomplete:
        failures.append(f"{incomplete} round trip(s) not completed")
    return {
        "params": workloads.params(spec),
        "epochs_run": len(epochs),
        "ops_attempted": attempted,
        "ops_failed": attempted if failures else 0,
        "failures": failures,
        "sim_fingerprint": workloads.run_fingerprint(references),
        "spans": aggregate.span_count,
        "metrics": metrics,
        "span_table": {
            span: [row.calls, round(row.self_ns), row.total_ns]
            for span, row in sorted(aggregate.rows[RUN].items())
        },
    }
