"""Differential oracle: sharded-parallel runs are bit-identical to sequential.

The parallel kernel's whole contract (docs/parallel.md) is that sharding
is *invisible*: for every seed scenario the sequential and sharded
executions must produce

- byte-identical ``bus.cost_snapshot()`` JSON,
- identical per-agent delivery orders (the app trace, event for event),
- identical experiment metrics and simulated clocks,

with the causality sanitizer attached inside every shard worker (it is
installed by monkeypatching ``MessageBus.__init__``, which forked workers
inherit), so any window-boundary reordering the conservative sync might
smuggle in is caught twice: once by the byte comparison, once as a
``SanitizerViolation`` shipped back from the worker.

The scenario zoo deliberately spans the risky behaviors: multi-domain
relay chains, open-loop churn, crash/failover, partitions, broadcast
fan-out, and the cross-domain ordering patterns of the ordering-zoo
bench.
"""

import json
import os

import pytest

from repro.analysis import sanitizer
from repro.mom.agent import Agent, EchoAgent
from repro.mom.config import BusConfig
from repro.mom.parallel import ShardedBus, make_bus
from repro.mom.workloads import (
    BroadcastDriver,
    OpenLoopDriver,
    PingPongDriver,
    SinkAgent,
)
from repro.topology import builders


class Recorder(Agent):
    """Logs every delivery as (sender, payload, now) — the raw order."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def react(self, ctx, sender, payload):
        self.seen.append((repr(sender), payload, ctx.now))


@pytest.fixture(autouse=True)
def config_controls_parallel(monkeypatch):
    """These tests pin the execution mode via the config field; a
    suite-level ``REPRO_PARALLEL`` override (the CI parallel job) would
    otherwise turn the sequential oracle itself sharded."""
    monkeypatch.delenv("REPRO_PARALLEL", raising=False)


@pytest.fixture(autouse=True)
def sanitized():
    """Attach the causality sanitizer to every bus — including the ones
    the forked shard workers build (they inherit the patched class).

    A ``REPRO_SANITIZE=1`` suite run installs the hook once in conftest;
    uninstalling it here would also strip any tracer patch stacked on
    top of it (``REPRO_SANITIZE=1 REPRO_TRACE=1``), so only remove what
    this fixture itself installed."""
    installed_here = not sanitizer.is_installed()
    if installed_here:
        sanitizer.install()
    yield
    if installed_here:
        sanitizer.uninstall()


def _config(parallel, *, seed=0, clock="matrix", topology=None, workers=4):
    return BusConfig(
        topology=topology if topology is not None else builders.bus(12, 4),
        clock_algorithm=clock,
        seed=seed,
        parallel=parallel,
        workers=workers,
        record_hop_trace=True,
    )


def _trace_dump(trace):
    return {
        str(process): [
            (event.kind.name, repr(event.message))
            for event in trace.events_of(process)
        ]
        for process in trace.processes
    }


def _observe(bus, agents):
    """Everything the differential comparison pins, JSON-canonical."""
    return {
        "now": bus.sim.now,
        "cost": json.dumps(bus.cost_snapshot(), sort_keys=True),
        "metrics": bus.metrics.snapshot(),
        "stats": bus.stats_table(),
        "app_trace": _trace_dump(bus.app_trace),
        "hop_trace": _trace_dump(bus.hop_trace),
        "causal": bus.check_app_causality().respects_causality,
        "wire_cells": bus.network.cells_transmitted,
        "persisted": bus.total_persisted_cells(),
        "deliveries": {
            name: list(getattr(agent, attr))
            for name, (agent, attr) in agents.items()
        },
    }


def _explain_divergence(seq_bus, par_bus):
    """Self-explanation of a failed differential (the diff --watch mode):
    with tracing on, run the causal diff over both event streams, write
    both dumps as flight-recorder artifacts (CI uploads those on
    failure), and return the first-divergence report."""
    from repro.obs import flight_recorder, shardmon, watch_explain
    from repro.obs.export import TraceDump, write_jsonl

    tracer = getattr(seq_bus, "_obs_tracer", None)
    if tracer is None:
        return (
            "observations diverged (re-run with REPRO_TRACE=1 for a "
            "causal diff of the two event streams)"
        )
    try:
        seq_dump = TraceDump.from_tracer(tracer)
        par_dump = shardmon.merged_trace_dump(par_bus)
        artifact = flight_recorder.dump(tracer, "differential")
        with open(
            os.path.join(artifact, "parallel-events.jsonl"), "w"
        ) as stream:
            write_jsonl(par_dump, stream)
        report = watch_explain(seq_dump, par_dump)
    except Exception as exc:  # diagnosis must never mask the failure
        return f"observations diverged (causal diff unavailable: {exc})"
    if report is None:
        return (
            "observations diverged but the canonical event streams "
            f"match — check non-traced state (dumps: {artifact})"
        )
    return f"{report}\n  dumps: {artifact}"


def _differential(build, **config_kwargs):
    """Run ``build`` sequentially and sharded; the observations must match
    byte for byte. Returns the sequential bus for extra checks.

    On a mismatch with tracing installed (REPRO_TRACE=1), the failure
    explains itself: the assertion message carries the causal diff of
    the two runs and the paths of the dumped event streams."""
    seq_bus, seq_agents = build(_config("off", **config_kwargs))
    seq_bus.start()
    seq_bus.run_until_idle()
    seq = _observe(seq_bus, seq_agents)

    par_bus, par_agents = build(_config("auto", **config_kwargs))
    assert isinstance(par_bus, ShardedBus), "scenario must be shard-eligible"
    par_bus.start()
    par_bus.run_until_idle()
    par = _observe(par_bus, par_agents)

    if par != seq:
        pytest.fail(
            "sequential and sharded runs diverged:\n"
            + _explain_divergence(seq_bus, par_bus)
        )
    assert par["causal"]
    return seq_bus


# ----------------------------------------------------------------------
# The scenario zoo
# ----------------------------------------------------------------------


@pytest.mark.parametrize("clock", ["matrix", "updates"])
@pytest.mark.parametrize("seed", [0, 7])
def test_multi_domain_pingpong(clock, seed):
    """Cross-domain ping-pong over the 3-domain bus organization."""

    def build(config):
        bus = make_bus(config)
        echo_id = bus.deploy(EchoAgent(), 9)
        driver = PingPongDriver(12)
        driver.bind(echo_id)
        bus.deploy(driver, 0)
        return bus, {"rtts": (driver, "rtts")}

    _differential(build, clock=clock, seed=seed)


def test_churn_open_loop():
    """Open-loop churn: three paced streams crossing domain borders at
    once, so every LBTS window carries in-transit traffic both ways."""

    def build(config):
        bus = make_bus(config)
        agents = {}
        for i, (src, dst) in enumerate([(0, 9), (9, 0), (4, 11)]):
            sink = SinkAgent()
            sink_id = bus.deploy(sink, dst)
            driver = OpenLoopDriver(period_ms=7.0, count=15)
            driver.bind(sink_id)
            bus.deploy(driver, src)
            agents[f"sojourn{i}"] = (sink, "sojourn_ms")
        return bus, agents

    _differential(build)


@pytest.mark.parametrize("victim", [5, 9])
def test_crash_failover(victim):
    """A mid-run crash + recovery on a router (5) and a leaf (9): the
    retransmission/failover machinery must replay identically."""

    def build(config):
        bus = make_bus(config)
        echo_id = bus.deploy(EchoAgent(), 9)
        driver = PingPongDriver(10)
        driver.bind(echo_id)
        bus.deploy(driver, 0)
        bus.schedule_crash(40.0, victim, 300.0)
        return bus, {"rtts": (driver, "rtts")}

    seq_bus = _differential(build)
    # servers no edge touched hold no instruments: each shard renders
    # their rows from the topology, and the merge above compared them
    rows = seq_bus.cost_snapshot()["instruments"]
    assert len(seq_bus.accounting) < len(rows)


def test_partition_heal():
    """A scripted partition between two routers, healing mid-run."""

    def build(config):
        bus = make_bus(config)
        echo_id = bus.deploy(EchoAgent(), 11)
        driver = PingPongDriver(10)
        driver.bind(echo_id)
        bus.deploy(driver, 0)
        bus.schedule_partition(30.0, 3, 4, 200.0)
        return bus, {"rtts": (driver, "rtts")}

    _differential(build)


def test_broadcast_fan_in():
    """Broadcast to an echo on every server: maximal cross-shard fan-out
    and fan-in through the routers each round."""

    def build(config):
        bus = make_bus(config)
        targets = [
            bus.deploy(EchoAgent(), server)
            for server in config.topology.servers
            if server != 0
        ]
        driver = BroadcastDriver(3)
        driver.bind(targets)
        bus.deploy(driver, 0)
        return bus, {"rounds": (driver, "round_times")}

    _differential(build)


@pytest.mark.parametrize("clock", ["matrix", "updates"])
def test_ordering_zoo_scripted(clock):
    """The ordering zoo: concurrent scripted sends from three domains into
    one sink, interleaved with relayed traffic — the delivery order at the
    sink is exactly the causal order the sequential kernel computes."""

    def build(config):
        bus = make_bus(config)
        sink = Recorder()
        sink_id = bus.deploy(sink, 6)
        senders = [bus.deploy(EchoAgent(), server) for server in (0, 4, 11)]
        for step in range(8):
            for i, sender in enumerate(senders):
                bus.schedule_send(
                    1.0 + 3.0 * step + 0.5 * i, sender, sink_id,
                    ("zoo", i, step),
                )
        return bus, {"seen": (sink, "seen")}

    _differential(build, clock=clock, topology=builders.daisy(16, 4))


def test_tree_topology_deep_routes():
    """Tree organization: deliveries relayed through several domains, so
    cross-shard packets themselves cross shards again downstream."""

    def build(config):
        bus = make_bus(config)
        leaf = max(config.topology.servers)
        echo_id = bus.deploy(EchoAgent(), leaf)
        driver = PingPongDriver(8)
        driver.bind(echo_id)
        bus.deploy(driver, 0)
        return bus, {"rtts": (driver, "rtts")}

    _differential(build, topology=builders.tree(14, fanout=2, domain_size=4))


def test_obs_trace_rings_merge_across_shards():
    """With the observability tracer installed (REPRO_TRACE=1 semantics),
    every worker's bus auto-attaches a tracer through the forked class
    patch; the parent merges the per-shard event rings into one
    time-ordered stream carrying exactly the sequential run's events."""
    from collections import Counter

    from repro.obs import install as obs_install
    from repro.obs import is_installed as obs_is_installed
    from repro.obs import uninstall as obs_uninstall

    def run(parallel):
        bus = make_bus(_config(parallel))
        echo_id = bus.deploy(EchoAgent(), 9)
        driver = PingPongDriver(5)
        driver.bind(echo_id)
        bus.deploy(driver, 0)
        bus.start()
        bus.run_until_idle()
        return bus

    # only install (and later remove) the hook if a REPRO_TRACE=1 suite
    # run has not already done so: uninstalling the conftest's hook here
    # would un-pair it from the sanitizer fixture's own class patch and
    # silently untrace the rest of the suite
    installed_here = not obs_is_installed()
    if installed_here:
        obs_install()
    try:
        seq_bus = run("off")
        par_bus = run("auto")
    finally:
        if installed_here:
            obs_uninstall()
    assert isinstance(par_bus, ShardedBus)

    def key(event):
        # ring seq numbers are per-worker; compare everything else
        return (event.t, event.kind, event.server, event.domain,
                event.src, event.dst, event.hop_seq, repr(event.value))

    seq_events = seq_bus._obs_tracer.ring.events()
    par_events = par_bus.trace_events()
    assert Counter(map(key, seq_events)) == Counter(map(key, par_events))
    assert [e.t for e in par_events] == sorted(e.t for e in par_events)


def test_windowed_runs_match_single_run():
    """Stepping the sharded clock in run(until) windows syncs the merged
    state mid-flight and still lands on the sequential endpoint.

    A sharded sync pulls the snapshot collectors inside every worker, so
    it *is* an observation — the high-water marks of pulled gauges record
    it, exactly as a mid-run ``cost_snapshot()`` does sequentially. The
    oracle therefore drives both buses through the same observation
    schedule (run to t, snapshot, repeat) and pins the final bytes."""

    def build(config):
        bus = make_bus(config)
        echo_id = bus.deploy(EchoAgent(), 9)
        driver = PingPongDriver(10)
        driver.bind(echo_id)
        bus.deploy(driver, 0)
        return bus, driver

    checkpoints = (50.0, 300.0, 800.0)

    seq_bus, seq_driver = build(_config("off"))
    seq_bus.start()
    seq_snaps = []
    for until in checkpoints:
        seq_bus.run(until=until)
        seq_snaps.append(json.dumps(seq_bus.cost_snapshot(), sort_keys=True))
    seq_bus.run_until_idle()

    par_bus, par_driver = build(_config("auto"))
    assert isinstance(par_bus, ShardedBus)
    par_bus.start()
    par_snaps = []
    for until in checkpoints:
        par_bus.run(until=until)
        assert par_bus.sim.now == until
        par_snaps.append(json.dumps(par_bus.cost_snapshot(), sort_keys=True))
    par_bus.run_until_idle()

    assert par_snaps == seq_snaps
    assert par_bus.sim.now == seq_bus.sim.now
    assert par_driver.rtts == seq_driver.rtts
    assert json.dumps(par_bus.cost_snapshot(), sort_keys=True) == json.dumps(
        seq_bus.cost_snapshot(), sort_keys=True
    )


# ----------------------------------------------------------------------
# Critical-path profiler and the why machinery on merged traces
# ----------------------------------------------------------------------


def _traced_pair(build):
    """Run ``build`` sequentially and sharded with the obs tracer
    installed; returns the two event streams (sequential ring, merged
    per-shard rings)."""
    from repro.obs import install as obs_install
    from repro.obs import is_installed as obs_is_installed
    from repro.obs import uninstall as obs_uninstall

    # leave a suite-wide REPRO_TRACE=1 hook alone (see
    # test_obs_trace_rings_merge_across_shards)
    installed_here = not obs_is_installed()
    if installed_here:
        obs_install()
    try:
        seq_bus = build(_config("off"))
        seq_bus.start()
        seq_bus.run_until_idle()
        par_bus = build(_config("auto"))
        assert isinstance(par_bus, ShardedBus)
        par_bus.start()
        par_bus.run_until_idle()
    finally:
        if installed_here:
            obs_uninstall()
    return seq_bus._obs_tracer.ring.events(), par_bus.trace_events()


def _churn_bus(config):
    bus = make_bus(config)
    for src, dst in [(0, 9), (9, 0), (4, 11)]:
        sink = SinkAgent()
        sink_id = bus.deploy(sink, dst)
        driver = OpenLoopDriver(period_ms=7.0, count=15)
        driver.bind(sink_id)
        bus.deploy(driver, src)
    return bus


def test_merged_resequencing_orders_ties_stably_by_seq():
    """Regression guard for replay/diff alignment: the merged ring's
    re-sequencing sorts per-shard events by ``(t, shard, seq)``, so
    events with identical ``(t, shard)`` must keep their per-shard
    recording order (seq), and the merged stream must carry exactly the
    sequential run's per-server event sequences."""
    from repro.obs.diff import event_signature

    seq_events, par_events = _traced_pair(_churn_bus)

    # re-sequenced ids are consecutive from 0 (a sequential-shaped dump)
    assert [e.seq for e in par_events] == list(range(len(par_events)))
    # globally time-ordered
    times = [e.t for e in par_events]
    assert times == sorted(times)
    # ties actually occur, or this guard tests nothing
    assert len(times) != len(set(times)), "churn zoo must produce t-ties"

    # a server lives on exactly one shard, so per-server subsequences are
    # the partition-independent view; stable tie-breaking by seq must
    # reproduce the sequential run's order event for event
    def per_server(events):
        out = {}
        for event in events:
            out.setdefault(event.server, []).append(
                event_signature(event)
            )
        return out

    assert per_server(par_events) == per_server(seq_events)

    # and the canonical alignment the diff uses is therefore identical
    def canonical(events):
        return [
            event_signature(e)
            for e in sorted(events, key=lambda e: (e.t, e.server))
        ]

    assert canonical(par_events) == canonical(seq_events)


def test_critpath_attribution_identical_across_kernels():
    """Every delivered message's five-way latency attribution — computed
    from the merged per-shard rings — is bit-identical to the sequential
    run's, and exact in both: the categories sum to the measured
    end-to-end sim-time latency with no float slack."""
    from repro.obs.critpath import CriticalPathAnalyzer

    seq_events, par_events = _traced_pair(_churn_bus)
    seq = CriticalPathAnalyzer(seq_events)
    par = CriticalPathAnalyzer(par_events)

    nids = seq.delivered_nids()
    assert nids, "churn zoo must complete deliveries"
    assert nids == par.delivered_nids()
    for nid in nids:
        a = seq.breakdown(nid)
        b = par.breakdown(nid)
        assert a is not None and b is not None, f"nid {nid} incomplete"
        assert a.is_exact(), f"nid {nid}: sequential attribution inexact"
        assert b.is_exact(), f"nid {nid}: sharded attribution inexact"
        assert a.totals == b.totals, f"nid {nid}: category sums diverged"
        assert a.as_dict() == b.as_dict()
        assert [s[:5] for s in a.segments] == [s[:5] for s in b.segments]

    seq_summary = seq.category_summary()
    assert seq_summary["exact"] is True
    assert seq_summary == par.category_summary()


def test_why_waits_identical_on_merged_trace():
    """The ``repro.obs why`` machinery — hold-back dwells resolved to the
    releasing commit — answers identically on a ShardedBus merged trace.
    This leans on the merged ring's global re-sequencing: blocker_of
    orders commits by ``seq``, which per-shard numbering would break."""
    from repro.obs.critpath import CriticalPathAnalyzer

    seq_events, par_events = _traced_pair(_churn_bus)
    assert any(e.kind == "holdback_enter" for e in seq_events), (
        "scenario must exercise the hold-back store"
    )
    seq = CriticalPathAnalyzer(seq_events)
    par = CriticalPathAnalyzer(par_events)
    checked_waits = 0
    for nid in seq.delivered_nids():
        seq_waits = seq.waits(nid)
        assert seq_waits == par.waits(nid), f"nid {nid}: waits diverged"
        checked_waits += sum(
            1 for w in seq_waits if w["blocker_nid"] is not None
        )
    assert checked_waits > 0, "no resolved blockers exercised"
