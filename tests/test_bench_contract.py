"""The simulated contract: §6's scaling claim in exact numbers.

Every value here is a deterministic simulated observable of the live
tree, so each is pinned exactly; a change that moves one must say why.
The wall-clock side (tracer, accounting and sharded-kernel overheads)
lives in ``benchmarks/`` and ``benchmarks/e2e``.

- flat vs bus-of-√n-domains ping-pong at s = 16/64/150: stamp bytes per
  message grow as 8·s² flat and linearly on the bus (8·s per hop);
- the hold-back churn run (:func:`repro.bench.harness.run_holdback_churn`)
  and its observation-only twins (accounting off, tracer on);
- the n = 1000 remote-unicast turn-arounds on the bus and the tree;
- the critical-path profiler over the traced 200-send churn: every
  delivery's categories sum exactly to its end-to-end latency.
"""

import pytest

from repro.bench import run_remote_unicast
from repro.bench.harness import run_holdback_churn
from repro.metrics import total
from repro.mom import BusConfig, EchoAgent, MessageBus
from repro.mom.workloads import PingPongDriver
from repro.obs.critpath import CriticalPathAnalyzer
from repro.topology import builders

# size -> stamp bytes per message, flat and bus
STAMP_BYTES = {
    16: (2048.0, 256.0),
    64: (32768.0, 1024.0),
    150: (180000.0, 2504.0),
}
MIN_RATIO_FLAT_OVER_BUS = {16: 7.0, 64: 28.0, 150: 60.0}
# at s = 150: (clock_state_cells, sim_ms), flat and bus
S150 = ((3375000, 7549.5), (25278, 1241.459))


def _pingpong(topology):
    """Six ping-pong rounds from server 0 to an echo on the last server,
    accounting on; returns the quiescent bus."""
    bus = MessageBus(BusConfig(topology=topology, seed=0))
    echo_id = bus.deploy(EchoAgent(), topology.server_count - 1)
    driver = PingPongDriver(6)
    driver.bind(echo_id)
    bus.deploy(driver, 0)
    bus.start()
    bus.run_until_idle()
    return bus


@pytest.mark.parametrize("size", sorted(STAMP_BYTES))
def test_stamp_bytes_flat_vs_bus(size):
    per_msg = []
    topologies = (builders.single_domain(size), builders.bus(size))
    for index, topology in enumerate(topologies):
        bus = _pingpong(topology)
        snapshot = bus.cost_snapshot()
        messages = total(snapshot, "bus_notifications_total")
        assert messages == 12
        per_msg.append(total(snapshot, "channel_stamp_bytes_total") / messages)
        assert round(per_msg[-1], 2) == STAMP_BYTES[size][index]
        if size == 150:
            state_cells, sim_ms = S150[index]
            assert total(snapshot, "clock_state_cells") == state_cells
            assert round(bus.sim.now, 3) == sim_ms
    assert per_msg[0] / per_msg[1] >= MIN_RATIO_FLAT_OVER_BUS[size]


def test_holdback_churn():
    bus, _ = run_holdback_churn()
    snapshot = bus.metrics.snapshot()
    assert round(bus.sim.now, 3) == 3609.988
    assert snapshot["channel.heldback"] == 95
    assert snapshot["channel.hops_delivered"] == 200


def test_tracing_is_observation_only():
    bare, _ = run_holdback_churn()
    traced, _ = run_holdback_churn(trace=True)
    assert traced.metrics.snapshot() == bare.metrics.snapshot()
    assert traced.sim.now == bare.sim.now


def test_accounting_is_observation_only(monkeypatch):
    monkeypatch.setenv("REPRO_METRICS", "0")
    off, _ = run_holdback_churn(sends=200)
    monkeypatch.delenv("REPRO_METRICS")
    on, _ = run_holdback_churn(sends=200)
    assert off.cost_snapshot() is None
    assert on.cost_snapshot() is not None
    assert on.metrics.snapshot() == off.metrics.snapshot()
    assert on.sim.now == off.sim.now
    assert on.total_persisted_cells() == off.total_persisted_cells()


@pytest.mark.parametrize(
    "kind, wire_cells, sim_ms",
    [("bus", 18444, 323.848), ("tree", 24960, 488.32)],
)
def test_remote_unicast_at_1000_servers(kind, wire_cells, sim_ms):
    result = run_remote_unicast(1000, topology=kind, rounds=3)
    assert result.causal_ok
    assert result.wire_cells == wire_cells
    assert round(result.mean_turnaround_ms, 3) == sim_ms


def test_critical_path_of_the_traced_churn():
    _, tracer = run_holdback_churn(sends=200, trace=True)
    analyzer = CriticalPathAnalyzer(tracer.ring.events())
    steps = analyzer.run_critical_path()
    summary = analyzer.category_summary()
    assert summary["deliveries"] == 1600
    assert round(summary["e2e_ms_total"], 3) == 15849616.617
    assert summary["exact"] is True
    assert len(steps) >= 1
