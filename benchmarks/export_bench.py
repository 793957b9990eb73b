"""Export hot-path wall-clock benchmarks to ``BENCH_hotpath.json``.

This is the before/after ledger for the flat-buffer clock core and the
O(1) hold-back wake-up. It times the scenarios the optimization targets —
the s=150 clock microbenches, the fan-in merge loop, a jittery hold-back
churn run, and the 1000-server scale points — using only APIs that exist
in both the seed and the optimized tree, so the *same script* can measure
either side:

    # current tree ("after")
    PYTHONPATH=src python benchmarks/export_bench.py --label after

    # a pristine seed checkout ("before")
    PYTHONPATH=<seed>/src python benchmarks/export_bench.py --label before

Each run merges its numbers under its label into the output JSON (default
``BENCH_hotpath.json`` next to this script's repo root) and recomputes the
``speedup`` section whenever both labels are present. Simulated-time
observables (sim_ms / wire_cells / causal_ok) are recorded alongside so a
reader can verify the two sides ran *identical experiments* — the
optimization must move wall-clock only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from unittest import mock


def _time(fn, repeat: int = 3):
    """Best-of-``repeat`` wall time in seconds, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, result


def bench_pingpong(clock_cls, size: int, iterations: int = 2000):
    a = clock_cls(size, 0)
    b = clock_cls(size, 1)
    for _ in range(3):
        b.deliver(a.prepare_send(1))
        a.deliver(b.prepare_send(0))

    def run():
        for _ in range(iterations):
            b.deliver(a.prepare_send(1))
            a.deliver(b.prepare_send(0))

    secs, _ = _time(run)
    return {"wall_s": round(secs, 4), "iterations": iterations}


def bench_fan_in(clock_cls, size: int, rounds: int = 50):
    receiver = clock_cls(size, 0)
    peers = [clock_cls(size, i) for i in range(1, size)]
    for peer in peers:
        receiver.deliver(peer.prepare_send(0))

    def run():
        for _ in range(rounds):
            for peer in peers:
                receiver.deliver(peer.prepare_send(0))

    secs, _ = _time(run)
    return {"wall_s": round(secs, 4), "deliveries": rounds * (size - 1)}


def _run_churn(trace: bool = False, accounting: bool = True,
               sends: int = 25):
    """One jittery hold-back churn run; optionally with the obs tracer."""
    from repro.mom import BusConfig, EchoAgent, FunctionAgent, MessageBus
    from repro.simulation.network import UniformLatency
    from repro.topology import single_domain

    # REPRO_METRICS=0 is the one accounting switch, read at construction
    off = {} if accounting else {"REPRO_METRICS": "0"}
    with mock.patch.dict(os.environ, off):
        mom = MessageBus(
            BusConfig(
                topology=single_domain(12),
                seed=11,
                latency=UniformLatency(0.1, 20.0),
            )
        )
    if trace:
        from repro.obs.tracer import attach

        attach(mom)
    echo_id = mom.deploy(EchoAgent(), 11)
    for src in range(4):
        sender = FunctionAgent(lambda ctx, s, p: None)

        def boot(ctx, echo_id=echo_id):
            for i in range(sends):
                ctx.send(echo_id, i)

        sender.on_boot = boot
        mom.deploy(sender, src)
    mom.start()
    mom.run_until_idle()
    return mom


def bench_holdback_churn():
    secs, mom = _time(_run_churn)
    snapshot = mom.metrics.snapshot()
    return {
        "wall_s": round(secs, 4),
        "heldback": snapshot["channel.heldback"],
        "hops_delivered": snapshot["channel.hops_delivered"],
        "sim_ms": round(mom.sim.now, 3),
    }


def bench_scale(topology: str, rounds: int = 3):
    from repro.bench import run_remote_unicast

    def run():
        return run_remote_unicast(1000, topology=topology, rounds=rounds)

    secs, result = _time(run, repeat=2)
    return {
        "wall_s": round(secs, 4),
        "sim_ms": round(result.mean_turnaround_ms, 3),
        "wire_cells": result.wire_cells,
        "causal_ok": result.causal_ok,
    }


def bench_trace_overhead() -> dict:
    """Wall-clock cost of the obs tracer on the hold-back churn workload.

    Runs the identical experiment with and without a tracer attached and
    records the ratio. The simulated observables must match exactly —
    tracing is observation-only — so any divergence is a hard error.
    """
    untraced_s, untraced = _time(_run_churn)
    traced_s, traced = _time(lambda: _run_churn(trace=True))
    before, after = untraced.metrics.snapshot(), traced.metrics.snapshot()
    if before != after:
        diff = {
            k: (before.get(k), after.get(k))
            for k in set(before) | set(after)
            if before.get(k) != after.get(k)
        }
        raise SystemExit(f"DIVERGENCE: tracing changed metrics: {diff}")
    tracer = traced._obs_tracer
    return {
        "untraced_wall_s": round(untraced_s, 4),
        "traced_wall_s": round(traced_s, 4),
        "overhead_ratio": round(traced_s / untraced_s, 3)
        if untraced_s > 0
        else 0.0,
        "events_recorded": tracer.ring.next_seq,
        "metrics_identical": True,
    }


def _run_accounted(topology, rounds: int = 6):
    """A ping-pong across ``topology`` with cost accounting on; returns
    (bus, notifications) after quiescence."""
    from repro.mom import BusConfig, EchoAgent, MessageBus
    from repro.mom.workloads import PingPongDriver

    mom = MessageBus(BusConfig(topology=topology, seed=0))
    echo_id = mom.deploy(EchoAgent(), topology.server_count - 1)
    driver = PingPongDriver(rounds)
    driver.bind(echo_id)
    mom.deploy(driver, 0)
    mom.start()
    mom.run_until_idle()
    return mom


def bench_metrics_costs(sizes=(16, 64, 150)) -> dict:
    """Per-message causality costs from repro.metrics, flat vs decomposed.

    The paper's §6 claim, read straight off the accounting registry: with
    one flat domain the stamp on every hop is 8·n² bytes, so bytes/message
    grows quadratically in the server count; with the bus-of-domains
    decomposition at the paper's √n domain size every hop's stamp is
    8·(√n)² = 8·n bytes over a constant 3-hop route, so bytes/message
    grows linearly. ``merge_cells`` shrinks the same way (cells actually
    advanced per commit).
    """
    from repro.metrics import total as metrics_total
    from repro.topology import builders

    out: dict = {}
    for size in sizes:
        row: dict = {}
        for label, topology in (
            ("flat", builders.single_domain(size)),
            ("bus", builders.bus(size)),  # default √n leaves (linear cost)
        ):
            mom = _run_accounted(topology)
            snapshot = mom.cost_snapshot()
            assert snapshot is not None
            messages = metrics_total(snapshot, "bus_notifications_total")
            stamp_bytes = metrics_total(snapshot, "channel_stamp_bytes_total")
            merges = metrics_total(snapshot, "channel_merge_cells_total")
            commits = metrics_total(snapshot, "channel_commits_total")
            row[label] = {
                "messages": int(messages),
                "stamp_bytes_per_msg": round(stamp_bytes / messages, 2),
                "merge_cells_per_msg": round(merges / messages, 2),
                "commits": int(commits),
                "clock_state_cells": int(
                    metrics_total(snapshot, "clock_state_cells")
                ),
                "sim_ms": round(mom.sim.now, 3),
            }
        row["bytes_ratio_flat_over_bus"] = round(
            row["flat"]["stamp_bytes_per_msg"]
            / row["bus"]["stamp_bytes_per_msg"],
            2,
        )
        out[f"s{size}"] = row
    return out


def bench_metrics_overhead() -> dict:
    """Wall-clock cost of always-on accounting on the hold-back churn
    workload, accounting-on vs accounting-off. The simulated observables
    must match exactly — accounting is observation-only — so any
    divergence is a hard error. The 1.10x budget is enforced by
    ``benchmarks/test_metrics_overhead.py`` and ``tools/bench_gate.py``.
    """
    # The default churn run is ~25ms — small enough that scheduler
    # jitter can fake a 10% "overhead". Measure on an 8x-longer run
    # (~250ms) with the two sides interleaved and best-of-5 each, which
    # cancels drift and keeps the ratio stable across invocations.
    off_s = on_s = float("inf")
    off = on = None
    for _ in range(5):
        start = time.perf_counter()
        off = _run_churn(accounting=False, sends=200)
        off_s = min(off_s, time.perf_counter() - start)
        start = time.perf_counter()
        on = _run_churn(accounting=True, sends=200)
        on_s = min(on_s, time.perf_counter() - start)
    before, after = off.metrics.snapshot(), on.metrics.snapshot()
    if before != after or off.sim.now != on.sim.now:
        diff = {
            k: (before.get(k), after.get(k))
            for k in set(before) | set(after)
            if before.get(k) != after.get(k)
        }
        raise SystemExit(f"DIVERGENCE: accounting changed results: {diff}")
    snapshot = on.cost_snapshot()
    return {
        "disabled_wall_s": round(off_s, 4),
        "enabled_wall_s": round(on_s, 4),
        "overhead_ratio": round(on_s / off_s, 3) if off_s > 0 else 0.0,
        "instruments": len(snapshot["instruments"]),
        "sim_identical": True,
    }


def _run_fan_in(parallel: str, workers: int = 0, servers: int = 150,
                senders: int = 12, count: int = 40):
    """The s=150 fan-in workload of the parallel-speedup bench: one
    open-loop sender per (roughly) leaf domain, all converging on a
    single sink across the bus-of-domains — heavy per-shard stamping and
    channel work, constant cross-shard traffic through every window."""
    from repro.mom.config import BusConfig
    from repro.mom.parallel import ShardedBus, make_bus
    from repro.mom.workloads import OpenLoopDriver, SinkAgent
    from repro.topology import builders

    topology = builders.bus(servers)
    bus = make_bus(
        BusConfig(
            topology=topology, seed=5, parallel=parallel, workers=workers
        )
    )
    if parallel == "auto" and not isinstance(bus, ShardedBus):
        raise SystemExit(
            "parallel-speedup bench: the fan-in workload was expected to "
            "be shard-eligible but fell back to sequential"
        )
    sink_server = topology.servers[-1]
    sink = SinkAgent()
    sink_id = bus.deploy(sink, sink_server)
    plain = [
        s for s in topology.servers
        if not topology.is_router(s) and s != sink_server
    ]
    step = max(1, len(plain) // senders)
    for src in plain[::step][:senders]:
        driver = OpenLoopDriver(period_ms=5.0, count=count)
        driver.bind(sink_id)
        bus.deploy(driver, src)
    bus.start()
    bus.run_until_idle()
    return bus, sink


def bench_parallel_speedup(workers: int = 4) -> dict:
    """Wall-clock of the sharded kernel vs sequential on the s=150
    fan-in, with the bit-identity contract enforced: the two runs must
    produce byte-identical cost snapshots and delivery counts, or the
    bench aborts. The speedup ratio itself is only recorded on hosts
    with at least ``workers`` CPUs — a 1-core container can verify
    identity but cannot honestly measure parallel speedup."""
    sequential_s, (seq_bus, seq_sink) = _time(
        lambda: _run_fan_in("off"), repeat=2
    )
    sharded_s, (par_bus, par_sink) = _time(
        lambda: _run_fan_in("auto", workers=workers), repeat=2
    )
    seq_obs = (
        round(seq_bus.sim.now, 6),
        seq_sink.received,
        json.dumps(seq_bus.cost_snapshot(), sort_keys=True),
    )
    par_obs = (
        round(par_bus.sim.now, 6),
        par_sink.received,
        json.dumps(par_bus.cost_snapshot(), sort_keys=True),
    )
    if seq_obs != par_obs:
        raise SystemExit(
            "DIVERGENCE: sharded run changed simulated observables "
            f"(sim_ms {seq_obs[0]} vs {par_obs[0]}, deliveries "
            f"{seq_obs[1]} vs {par_obs[1]}, snapshots "
            f"{'equal' if seq_obs[2] == par_obs[2] else 'DIFFER'})"
        )
    cpus = os.cpu_count() or 1
    out = {
        "workers": workers,
        "cpu_count": cpus,
        "sequential_wall_s": round(sequential_s, 4),
        "sharded_wall_s": round(sharded_s, 4),
        "observables_identical": True,
        "sim_ms": round(seq_bus.sim.now, 3),
        "deliveries": seq_sink.received,
    }
    if cpus >= workers:
        out["speedup"] = (
            round(sequential_s / sharded_s, 2) if sharded_s > 0 else 0.0
        )
    else:
        out["speedup_skipped"] = (
            f"host has {cpus} CPU(s); need >= {workers} for an honest "
            "parallel-speedup measurement"
        )
    telemetry = par_bus.shard_telemetry()
    if telemetry is not None:
        # the sim section is deterministic (grant counts, window widths,
        # cross-shard message counts are pinned by the gate); the sync
        # overhead fraction is wall-clock and only band-checked [0, 1]
        sim = telemetry["sim"]
        out["shardmon"] = {
            "sim": {
                "grants": sim["grants"],
                "window_width_ms": sim["window_width_ms"],
                "events_total": sim["events_total"],
                "events_per_shard": sim["events_per_shard"],
                "cross_shard_messages": sim["cross_shard"]["messages"],
                "cross_shard_bytes": sim["cross_shard"]["bytes"],
            },
            "sync_overhead_fraction": round(
                telemetry["wallclock"]["sync_overhead_fraction"], 4
            ),
        }
    return out


def bench_profile_overhead() -> dict:
    """Wall-clock cost of the critical-path profiler on the churn run.

    The analysis is post-hoc (it only reads the event ring), so the cost
    model is: traced run + full critpath extraction (a breakdown for
    every delivery, the run-level path, the category summary) vs the
    traced run alone. Gated at <= 1.15x by ``tools/bench_gate.py``. The
    summary's exactness flag — every delivery's five categories sum
    bit-identically to its measured end-to-end latency — rides along and
    is gated to ``true``.
    """
    from repro.obs.critpath import CriticalPathAnalyzer

    # Interleaved best-of-7, like bench_metrics_overhead above: the
    # analysis side is ~40ms, small enough that scheduler drift between
    # two separately-timed phases can fake (or hide) a 5% "overhead".
    # Timing run and analysis back-to-back in each round cancels it.
    traced_s = analysis_s = float("inf")
    summary = steps = None
    for _ in range(7):
        start = time.perf_counter()
        traced = _run_churn(trace=True, sends=200)
        traced_s = min(traced_s, time.perf_counter() - start)
        events = traced._obs_tracer.ring.events()
        start = time.perf_counter()
        analyzer = CriticalPathAnalyzer(events)
        steps = analyzer.run_critical_path()
        summary = analyzer.category_summary()
        analysis_s = min(analysis_s, time.perf_counter() - start)
    ratio = (
        (traced_s + analysis_s) / traced_s if traced_s > 0 else 0.0
    )
    return {
        "traced_wall_s": round(traced_s, 4),
        "critpath_wall_s": round(analysis_s, 4),
        "overhead_ratio": round(ratio, 3),
        "deliveries": summary["deliveries"],
        "e2e_ms_total": round(summary["e2e_ms_total"], 3),
        "critical_path_len": len(steps),
        "sum_exact": summary["exact"],
    }


def trace_histograms() -> dict:
    """Histogram snapshots of traced runs, for BENCH_trace_histograms.json:
    the Fig-10 remote unicast (percentile extras via the bench harness)
    and the jittery churn run (full tracer snapshots, hold-back engaged).
    """
    from repro.bench import run_remote_unicast

    fig10 = run_remote_unicast(50, topology="bus", rounds=20, trace=True)
    churn_tracer = _run_churn(trace=True)._obs_tracer
    return {
        "fig10_remote_unicast_n50": {
            k: v for k, v in sorted(fig10.extras.items())
        },
        "holdback_churn": churn_tracer.histogram_snapshot(),
    }


def measure() -> dict:
    from repro.clocks import MatrixClock, UpdatesClock

    scenarios = {}
    for size in (50, 150):
        scenarios[f"pingpong_matrix_s{size}"] = bench_pingpong(
            MatrixClock, size
        )
        scenarios[f"pingpong_updates_s{size}"] = bench_pingpong(
            UpdatesClock, size
        )
        scenarios[f"fan_in_matrix_s{size}"] = bench_fan_in(MatrixClock, size)
    scenarios["holdback_churn"] = bench_holdback_churn()
    scenarios["scale_bus_1000"] = bench_scale("bus")
    scenarios["scale_tree_1000"] = bench_scale("tree")
    return scenarios


def merge(path: str, label: str, scenarios: dict) -> dict:
    doc = {}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc[label] = scenarios
    before, after = doc.get("before"), doc.get("after")
    if before and after:
        speedup = {}
        for name, b in before.items():
            a = after.get(name)
            if a and a["wall_s"] > 0:
                speedup[name] = round(b["wall_s"] / a["wall_s"], 2)
        doc["speedup"] = speedup
        # the point of the exercise: same experiments, faster clock
        for name, b in before.items():
            a = after.get(name)
            if not a:
                continue
            for key in ("sim_ms", "wire_cells", "causal_ok", "heldback"):
                if key in b and b[key] != a.get(key):
                    raise SystemExit(
                        f"DIVERGENCE: {name}.{key} before={b[key]} "
                        f"after={a.get(key)} — optimization changed results"
                    )
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return doc


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", choices=["before", "after"],
                        default="after")
    parser.add_argument(
        "--trace",
        action="store_true",
        help="measure obs-tracer overhead (merged under 'trace_overhead') "
        "and the critical-path profiler cost (merged under "
        "'profile_overhead'), and export traced-run histograms to "
        "BENCH_trace_histograms.json instead of re-running the hot-path "
        "scenarios",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="measure repro.metrics cost accounting: per-message stamp "
        "bytes / merge cells flat-vs-decomposed (merged under 'metrics') "
        "and the accounting wall-clock overhead on the churn workload "
        "(merged under 'metrics_overhead')",
    )
    parser.add_argument(
        "--parallel",
        action="store_true",
        help="measure the sharded-parallel kernel against sequential on "
        "the s=150 fan-in workload (merged under 'parallel_speedup'); "
        "always verifies bit-identical observables, and records the "
        "wall-clock speedup when the host has enough CPUs",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_hotpath.json",
        ),
    )
    args = parser.parse_args()
    if args.parallel:
        # like 'trace_overhead'/'metrics', this section lives outside the
        # before/after labels; merge()'s bookkeeping never walks it
        section = bench_parallel_speedup()
        doc = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                doc = json.load(fh)
        doc["parallel_speedup"] = section
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        shown = section.get("speedup", section.get("speedup_skipped"))
        print(
            f"parallel fan-in s=150: sequential "
            f"{section['sequential_wall_s']}s vs sharded "
            f"{section['sharded_wall_s']}s ({shown}) -> {args.out}"
        )
        return
    if args.metrics:
        # like 'trace_overhead', these live outside the before/after
        # labels: merge()'s speedup/divergence bookkeeping never sees them
        doc = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                doc = json.load(fh)
        doc["metrics"] = bench_metrics_costs()
        doc["metrics_overhead"] = bench_metrics_overhead()
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        for size, row in sorted(doc["metrics"].items()):
            print(
                f"{size}: flat {row['flat']['stamp_bytes_per_msg']} B/msg "
                f"vs bus {row['bus']['stamp_bytes_per_msg']} B/msg "
                f"({row['bytes_ratio_flat_over_bus']}x)"
            )
        print(
            f"accounting overhead "
            f"{doc['metrics_overhead']['overhead_ratio']}x -> {args.out}"
        )
        return
    if args.trace:
        # 'trace_overhead' lives outside the before/after labels on
        # purpose: the speedup/divergence bookkeeping in merge() only
        # walks those two, so trace numbers never leak into it.
        overhead = bench_trace_overhead()
        profile = bench_profile_overhead()
        doc = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                doc = json.load(fh)
        doc["trace_overhead"] = overhead
        doc["profile_overhead"] = profile
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        hist_path = os.path.join(
            os.path.dirname(args.out), "BENCH_trace_histograms.json"
        )
        with open(hist_path, "w") as fh:
            json.dump(trace_histograms(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(
            f"trace overhead {overhead['overhead_ratio']}x "
            f"({overhead['events_recorded']} events) -> {args.out}"
        )
        print(
            f"critpath profile overhead {profile['overhead_ratio']}x "
            f"({profile['deliveries']} deliveries, "
            f"sum_exact={profile['sum_exact']})"
        )
        print(f"wrote traced-run histograms to {hist_path}")
        return
    scenarios = measure()
    doc = merge(args.out, args.label, scenarios)
    print(f"wrote {args.label} ({len(scenarios)} scenarios) to {args.out}")
    if "speedup" in doc:
        for name, ratio in sorted(doc["speedup"].items()):
            print(f"  {name}: {ratio}x")


if __name__ == "__main__":
    sys.exit(main())
