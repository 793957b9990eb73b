"""Time-travel replay: the identity oracle and the cursor machinery.

The contract under test (docs/observability.md): for any sim-time ``T``,
:class:`repro.obs.replay.Replayer` seeked to ``T`` over a trace dump
produces *byte-identical* canonical JSON to a live bus of the same
configuration running ``run(until=T)`` and taking
:meth:`~repro.mom.bus.MessageBus.protocol_snapshot` — clock matrices,
hold-back queues, in-flight sets and delivered prefixes included. The
oracle is asserted for every scenario-zoo scenario under every registered
core, on sequential dumps *and* on ``REPRO_PARALLEL=2`` merged-parallel
dumps (:func:`repro.obs.shardmon.merged_trace_dump`).
"""

import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.mom.agent import EchoAgent
from repro.mom.bus import MessageBus
from repro.mom.config import BusConfig
from repro.mom.parallel import ShardedBus, make_bus
from repro.mom.workloads import OpenLoopDriver, PingPongDriver, SinkAgent
from repro.obs import shardmon
from repro.obs.export import TraceDump
from repro.obs.replay import (
    Replayer,
    check_dump_complete,
    watch_deliverable,
    watch_holdback_exceeds,
)
from repro.obs.tracer import attach
from repro.topology import builders


@pytest.fixture(autouse=True)
def config_controls_parallel(monkeypatch):
    """Pin execution mode via the config field (the CI parallel job sets
    REPRO_PARALLEL suite-wide, which would shard the live oracle too)."""
    monkeypatch.delenv("REPRO_PARALLEL", raising=False)


#: every registered core; the replayer drives each dump's own
CLOCKS = ("matrix", "updates", "histories", "fifo")


def _config(parallel="off", clock="matrix"):
    return BusConfig(
        topology=builders.bus(12, 4),
        record_delivered_log=True,
        parallel=parallel,
        workers=2,
        clock_algorithm=clock,
    )


# ----------------------------------------------------------------------
# Scenario zoo (mirrors tests/test_parallel_differential.py)
# ----------------------------------------------------------------------


def _pingpong(bus):
    echo_id = bus.deploy(EchoAgent(), 9)
    driver = PingPongDriver(10)
    driver.bind(echo_id)
    bus.deploy(driver, 0)
    return bus


def _churn(bus):
    for src, dst in [(0, 9), (9, 0), (4, 11)]:
        sink_id = bus.deploy(SinkAgent(), dst)
        driver = OpenLoopDriver(period_ms=7.0, count=15)
        driver.bind(sink_id)
        bus.deploy(driver, src)
    return bus


def _crash_failover(bus):
    _pingpong(bus)
    bus.schedule_crash(40.0, 5, 300.0)
    return bus


def _router_crash(bus):
    """Crash the router the ping-pong crosses, after its clocks were
    persisted, so recovery reloads them."""
    _pingpong(bus)
    bus.schedule_crash(40.0, 3, 300.0)
    return bus


SCENARIOS = {
    "pingpong": _pingpong,
    "churn": _churn,
    "crash_failover": _crash_failover,
    "router_crash": _router_crash,
}

#: crash scenarios are not shard-eligible-relevant here — they are, but
#: the merged-dump matrix keeps to the steady-state scenarios plus one
#: failover to bound runtime
MERGED_SCENARIOS = ("pingpong", "churn", "crash_failover")


def _sequential_dump(populate, clock="matrix"):
    """Record one traced sequential run; returns (dump, end_time)."""
    bus = populate(MessageBus(_config(clock=clock)))
    tracer = attach(bus)
    bus.start()
    bus.run_until_idle()
    return TraceDump.from_tracer(tracer), bus.sim.now


def _merged_dump(populate, monkeypatch, clock):
    """Record one REPRO_PARALLEL=2 sharded run; returns (dump, end)."""
    from repro.obs import install, is_installed, uninstall

    monkeypatch.setenv("REPRO_PARALLEL", "2")
    installed_here = not is_installed()
    if installed_here:
        install()
    try:
        bus = populate(make_bus(_config("auto", clock)))
        assert isinstance(bus, ShardedBus), "scenario must be shard-eligible"
        bus.start()
        bus.run_until_idle()
        dump = shardmon.merged_trace_dump(bus)
        end = bus.sim.now
    finally:
        if installed_here:
            uninstall()
    monkeypatch.delenv("REPRO_PARALLEL", raising=False)
    return dump, end


def _oracle_points(replay, end):
    """A spread of instants: fractions of the run plus exact event times
    (the boundary case — run(until=T) drains everything scheduled at T)."""
    events = replay.events
    points = sorted(
        {0.0, end * 0.25, end * 0.5, end * 0.75, end}
        | {events[len(events) // 3].t, events[(2 * len(events)) // 3].t}
    )
    return points


def _assert_identity(dump, populate, end, clock):
    replay = Replayer(dump)
    live = populate(MessageBus(_config(clock=clock)))
    live.start()
    for t in _oracle_points(replay, end):
        live_json = json.dumps(live.snapshot_at(t), sort_keys=True)
        replay.seek(t)
        assert replay.snapshot_json() == live_json, (
            f"replayed state diverges from the live snapshot at t={t}"
        )


def _cases(scenarios):
    """scenario × core; the matrix case keeps the bare scenario id."""
    return [
        pytest.param(
            scenario,
            clock,
            id=scenario if clock == "matrix" else f"{scenario}-{clock}",
        )
        for scenario in sorted(scenarios)
        for clock in CLOCKS
    ]


@pytest.mark.parametrize("scenario, clock", _cases(SCENARIOS))
def test_replay_identity_sequential(scenario, clock):
    """Byte-equality of replayed and live state on sequential dumps."""
    dump, end = _sequential_dump(SCENARIOS[scenario], clock)
    assert dump.meta["clock"] == clock
    _assert_identity(dump, SCENARIOS[scenario], end, clock)


@pytest.mark.parametrize("scenario, clock", _cases(MERGED_SCENARIOS))
def test_replay_identity_merged_parallel(scenario, clock, monkeypatch):
    """Byte-equality holds replaying a REPRO_PARALLEL=2 merged dump —
    the merged ring carries exactly the sequential run's events, so the
    live oracle stays the (bit-identical) sequential bus."""
    dump, end = _merged_dump(SCENARIOS[scenario], monkeypatch, clock)
    assert dump.meta["clock"] == clock
    _assert_identity(dump, SCENARIOS[scenario], end, clock)


def test_recover_reloads_replayed_clocks_like_the_live_channel():
    """At ``recover`` the live channel reloads every persisted clock,
    which opens a new merge-window epoch on a matrix clock; the replayed
    clocks do the same, so they match beyond their cells."""
    dump, end = _sequential_dump(_router_crash)
    replay = Replayer(dump)
    replay.seek(end)
    live = _router_crash(MessageBus(_config()))
    live.start()
    live.run_until_idle()
    epochs = [
        (server, domain, clock._log_epoch)
        for server, state in sorted(replay._states.items())
        for domain, clock in sorted(state.clocks.items())
    ]
    assert epochs == [
        (server, domain, item.clock._log_epoch)
        for server, srv in sorted(live.servers.items())
        for domain, item in sorted(srv.channel.domain_items.items())
    ]
    assert any(epoch > 0 for *_, epoch in epochs)


# ----------------------------------------------------------------------
# Cursor: step_forward / step_back / seek
# ----------------------------------------------------------------------


def test_step_back_is_exact_inverse():
    dump, _ = _sequential_dump(_crash_failover)
    replay = Replayer(dump)
    replay.seek(math.inf)
    assert replay.cursor == len(replay.events)
    for back in (1, 7, 100):
        before = replay.cursor
        for _ in range(back):
            replay.step_back()
        mid_cursor = replay.cursor
        mid_state = replay.snapshot_json()
        for _ in range(back):
            replay.step_forward()
        assert replay.cursor == before
        for _ in range(back):
            replay.step_back()
        assert replay.cursor == mid_cursor
        assert replay.snapshot_json() == mid_state
        for _ in range(back):
            replay.step_forward()


def test_seek_backward_matches_fresh_replay():
    dump, end = _sequential_dump(_churn)
    replay = Replayer(dump)
    replay.seek(end)
    replay.seek(end * 0.3)
    fresh = Replayer(dump)
    fresh.seek(end * 0.3)
    assert replay.cursor == fresh.cursor
    assert replay.snapshot_json() == fresh.snapshot_json()


def test_step_forward_returns_events_in_order_and_ends_none():
    dump, _ = _sequential_dump(_pingpong)
    replay = Replayer(dump)
    seen = []
    while True:
        event = replay.step_forward()
        if event is None:
            break
        seen.append(event)
    assert seen == replay.events
    assert replay.step_forward() is None


# ----------------------------------------------------------------------
# Watchpoints
# ----------------------------------------------------------------------


def test_watch_holdback_exceeds_stops_at_first_crossing():
    dump, _ = _sequential_dump(_churn)
    probe = Replayer(dump)
    depths = {}
    while probe.step_forward() is not None:
        for event in [probe.events[probe.cursor - 1]]:
            if event.kind == "holdback_enter":
                depths.setdefault(event.server, []).append(
                    probe.holdback_depth(event.server)
                )
    assert depths, "churn scenario must exercise the hold-back store"
    server = max(depths, key=lambda s: max(depths[s]))
    threshold = max(depths[server]) - 1
    replay = Replayer(dump)
    hit = replay.run_until(watch_holdback_exceeds(server, threshold))
    assert hit is not None
    assert hit.kind == "holdback_enter" and hit.server == server
    assert replay.holdback_depth(server) == threshold + 1


def test_watch_deliverable_fires_before_the_commit():
    dump, _ = _sequential_dump(_churn)
    held_nids = {
        e.nid for e in dump.events if e.kind == "holdback_release"
    }
    assert held_nids, "churn scenario must hold something back"
    nid = sorted(held_nids)[0]
    replay = Replayer(dump)
    hit = replay.run_until(watch_deliverable(nid))
    assert hit is not None
    assert replay.is_deliverable(nid)
    committed = any(
        e.kind == "reaction_commit" and e.nid == nid
        for e in replay.events[: replay.cursor]
    )
    assert not committed, "watchpoint must fire before the final delivery"


def test_run_until_respects_limit():
    dump, end = _sequential_dump(_pingpong)
    replay = Replayer(dump)
    never = replay.run_until(lambda r, e: False, limit=end * 0.5)
    assert never is None
    assert replay.now <= end * 0.5


# ----------------------------------------------------------------------
# Refusals: wrapped rings, partial dumps
# ----------------------------------------------------------------------


def test_replay_refuses_wrapped_ring():
    dump, _ = _sequential_dump(_pingpong)
    dump.meta["dropped"] = 17
    with pytest.raises(ConfigurationError, match="wrapped ring"):
        Replayer(dump)


@pytest.mark.parametrize(
    "meta, message",
    [
        ({}, "meta 'clock' is None"),
        ({"clock": "nosuch"}, "meta 'clock' is 'nosuch'"),
    ],
    ids=["missing", "unregistered"],
)
def test_replay_refuses_a_dump_without_a_registered_core(meta, message):
    dump, _ = _sequential_dump(_pingpong)
    fields = {k: v for k, v in dump.meta.items() if k != "clock"}
    with pytest.raises(ConfigurationError, match=message):
        Replayer(
            TraceDump(dict(fields, **meta), dump.events, dump.cpu,
                      dump.histograms)
        )


def test_check_dump_complete_names_the_missing_kind():
    dump, _ = _sequential_dump(_pingpong)
    partial = TraceDump(
        dict(dump.meta),
        [e for e in dump.events if e.kind != "arrive"],
        dump.cpu,
        dump.histograms,
    )
    with pytest.raises(ConfigurationError) as exc:
        check_dump_complete(partial)
    assert "missing event kind 'arrive'" in str(exc.value)
    assert "re-record with REPRO_TRACE=1 full hooks" in str(exc.value)


def test_check_dump_complete_accepts_full_and_wrapped_dumps():
    dump, _ = _sequential_dump(_churn)
    check_dump_complete(dump)  # full hooks: no raise
    wrapped = TraceDump(
        dict(dump.meta, dropped=3),
        [e for e in dump.events if e.kind != "arrive"],
        dump.cpu,
        dump.histograms,
    )
    check_dump_complete(wrapped)  # wraparound: degradation, not an error


# ----------------------------------------------------------------------
# Snapshot shape details
# ----------------------------------------------------------------------


def test_snapshot_without_delivered_matches_unlogged_live_bus():
    """include_delivered=False is the byte-shape of a live bus running
    without record_delivered_log."""
    populate = _pingpong
    dump, end = _sequential_dump(populate)
    config = _config()
    config.record_delivered_log = False
    live = populate(MessageBus(config))
    live.start()
    replay = Replayer(dump)
    replay.seek(end * 0.5)
    live_json = json.dumps(live.snapshot_at(end * 0.5), sort_keys=True)
    assert replay.snapshot_json(include_delivered=False) == live_json


def test_snapshot_at_refuses_time_travel_into_the_past():
    bus = _pingpong(MessageBus(_config()))
    bus.start()
    bus.run(until=100.0)
    with pytest.raises(ConfigurationError, match="already at"):
        bus.snapshot_at(50.0)


def test_delivered_prefix_matches_engine_log():
    dump, end = _sequential_dump(_churn)
    replay = Replayer(dump)
    replay.seek(end)
    live = _churn(MessageBus(_config()))
    live.start()
    live.run_until_idle()
    snapshot = replay.snapshot()
    for server_id, server in live.servers.items():
        log = server.engine.delivered_log
        assert snapshot["servers"][str(server_id)]["delivered"] == log
