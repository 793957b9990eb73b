"""End-to-end tracer behaviour on live buses.

The two headline guarantees:

- the trace id (the notification's nid) survives router hops, so one id
  pulls the whole multi-domain causal path out of the ring;
- tracing is observation-only: a traced run is bit-identical to an
  untraced one (metrics snapshot, sim clock).
"""

import io

import pytest

from repro.bench.harness import run_lossy_jittery as run_jittery
from repro.metrics import write_json
from repro.mom.agent import EchoAgent
from repro.mom.workloads import PingPongDriver
from repro.mom.bus import MessageBus
from repro.mom.config import BusConfig
from repro.obs import attach, detach, install, is_installed, uninstall
from repro.topology.builders import bus as bus_topology
from repro.topology.builders import single_domain


def make_pingpong_bus(topology, rounds=5, target_server=None):
    """EchoAgent on the last server, bound PingPongDriver on server 0."""
    if target_server is None:
        target_server = topology.server_count - 1
    mom = MessageBus(BusConfig(topology=topology))
    echo_id = mom.deploy(EchoAgent(), target_server)
    driver = PingPongDriver(rounds)
    driver.bind(echo_id)
    mom.deploy(driver, 0)
    return mom, driver


def cost_json(mom):
    out = io.StringIO()
    write_json(mom.cost_snapshot(), out)
    return out.getvalue()


class TestTraceIdPropagation:
    def test_one_nid_spans_router_hops(self):
        """Server 0 -> server 11 on a bus of domains is a multi-hop route;
        every hop's events must carry the original nid."""
        mom, driver = make_pingpong_bus(bus_topology(12, 4), rounds=3)
        tracer = attach(mom)
        mom.start()
        mom.run_until_idle()
        assert driver.mean_rtt > 0

        forwards = [e for e in tracer.events() if e.kind == "route_forward"]
        assert forwards, "bus(12,4) end-to-end traffic must cross routers"
        nid = forwards[0].nid
        path = tracer.events_of(nid)

        domains = {e.domain for e in path if e.kind == "stamp"}
        assert len(domains) >= 2, (
            f"nid {nid} should be re-stamped in each domain it crosses, "
            f"saw {domains}"
        )
        kinds = [e.kind for e in path]
        assert kinds[0] == "post"
        for expected in ("stamp", "transmit", "commit", "route_forward",
                         "enqueue_in", "reaction_start", "reaction_commit"):
            assert expected in kinds
        # one post at the origin, one final delivery at the target
        assert kinds.count("post") == 1
        assert kinds.count("reaction_commit") == 1

    def test_hop_events_chronological(self):
        mom, _ = make_pingpong_bus(bus_topology(12, 4), rounds=2)
        tracer = attach(mom)
        mom.start()
        mom.run_until_idle()
        for nid in {e.nid for e in tracer.events() if e.nid >= 0}:
            path = tracer.events_of(nid)
            assert [e.t for e in path] == sorted(e.t for e in path)
            assert [e.seq for e in path] == sorted(e.seq for e in path)

    def test_e2e_histogram_counts_remote_deliveries(self):
        mom, _ = make_pingpong_bus(bus_topology(12, 4), rounds=3)
        tracer = attach(mom)
        mom.start()
        mom.run_until_idle()
        # 3 pings + 3 pongs, all remote
        assert tracer.hist("e2e_delivery_ms").count == 6


class TestObservationOnly:
    def test_traced_run_bit_identical_to_untraced(self):
        bare, _ = run_jittery(7)
        traced, tracer = run_jittery(7, trace=True)
        assert traced.metrics.snapshot() == bare.metrics.snapshot()
        assert traced.sim.now == bare.sim.now
        assert tracer.ring.next_seq > 0

    def test_lossy_run_records_retransmits(self):
        _, tracer = run_jittery(7, trace=True)
        kinds = {e.kind for e in tracer.events()}
        assert "retransmit" in kinds

    def test_jittery_run_exercises_holdback(self):
        # seed chosen so out-of-order arrival actually happens
        _, tracer = run_jittery(7, trace=True)
        enters = sum(
            1 for e in tracer.events() if e.kind == "holdback_enter"
        )
        releases = sum(
            1 for e in tracer.events() if e.kind == "holdback_release"
        )
        assert enters == releases
        assert tracer.hist("holdback_dwell_ms").count == releases

    def test_trace_is_the_same_with_accounting_off(self, monkeypatch):
        """The tracer does the accounting work itself, into a private
        registry when the bus has none: what it records must not depend
        on whether the bus accounts."""
        _, accounted = run_jittery(7, trace=True, crash=True)
        monkeypatch.setenv("REPRO_METRICS", "0")
        mom, unaccounted = run_jittery(7, trace=True, crash=True)
        assert mom.cost_snapshot() is None
        assert {e.kind for e in accounted.events()} >= {
            "crash", "holdback_release", "retransmit"
        }
        assert unaccounted.events() == accounted.events()
        assert (
            unaccounted.histogram_snapshot() == accounted.histogram_snapshot()
        )


class TestAttachDetach:
    def test_attach_is_idempotent(self):
        mom, _ = make_pingpong_bus(single_domain(4))
        tracer = attach(mom)
        assert attach(mom) is tracer

    def test_detach_restores_hooks(self):
        mom, driver = make_pingpong_bus(single_domain(4), rounds=2)
        tracer = attach(mom)
        detach(mom)
        mom.start()
        mom.run_until_idle()
        assert driver.mean_rtt > 0
        assert tracer.ring.next_seq == 0
        assert mom._obs is mom.cost_observer is not None
        for server in mom.servers.values():
            assert server._obs is server.channel._obs is mom.cost_observer
            assert server.processor._obs is server.transport._obs is None

    def test_detach_keeps_accounting(self):
        """An attached-then-detached bus accounts exactly like one that
        was never traced."""
        bare, _ = make_pingpong_bus(bus_topology(12, 4), rounds=3)
        detached, _ = make_pingpong_bus(bus_topology(12, 4), rounds=3)
        attach(detached)
        detach(detached)
        for mom in (bare, detached):
            mom.start()
            mom.run_until_idle()
        assert cost_json(detached) == cost_json(bare)

    def test_install_patches_new_buses(self):
        if is_installed():
            pytest.skip("tracer globally installed via REPRO_TRACE=1")
        install()
        try:
            assert is_installed()
            mom, _ = make_pingpong_bus(single_domain(4), rounds=2)
            mom.start()
            mom.run_until_idle()
            assert mom._obs_tracer.ring.next_seq > 0
        finally:
            uninstall()
        assert not is_installed()

    def test_install_capacity_env(self, monkeypatch):
        if is_installed():
            pytest.skip("tracer globally installed via REPRO_TRACE=1")
        monkeypatch.setenv("REPRO_TRACE_CAPACITY", "128")
        install()
        try:
            mom, _ = make_pingpong_bus(single_domain(4))
            assert mom._obs_tracer.ring.capacity == 128
        finally:
            uninstall()
