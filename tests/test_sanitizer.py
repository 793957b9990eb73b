"""Tests for the runtime sanitizer (:mod:`repro.analysis.sanitizer`).

Three obligations: (1) real violations — stamp mutation after publish,
FIFO skips, monotonicity regressions, causal-order breaks, holdback
leaks — raise :class:`SanitizerViolation` with a message naming the
culprit; (2) clean runs raise nothing (zero false positives); (3) a
sanitized run is observationally identical to a bare one — same simulated
end time, same metrics — because the sanitizer only watches.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.sanitizer import (
    BusSanitizer,
    OrderChecker,
    SanitizerViolation,
    _CheckingCore,
    _StampRegistry,
    install,
    is_installed,
    uninstall,
)
from repro.clocks.matrix import MatrixClock
from repro.clocks.updates import UpdatesClock
from repro.mom.agent import Agent, EchoAgent, FunctionAgent
from repro.mom.bus import MessageBus
from repro.mom.config import BusConfig
from repro.mom.identifiers import AgentId
from repro.mom.payloads import Notification
from repro.mom.workloads import PingPongDriver
from repro.protocol import get_core
from repro.simulation.network import UniformLatency
from repro.topology.builders import bus as bus_topology
from repro.topology.builders import from_domain_map, single_domain


class _Host:
    """The one thing the checking core reads off a server: its epoch."""

    epoch = 0


def checked_pair(core_name, size=3):
    """A checking core watching two clocks of one domain on one host."""
    core = _CheckingCore(get_core(core_name), _StampRegistry())
    host = _Host()
    sender = core.create_clock(size, 0)
    receiver = core.create_clock(size, 1)
    core.watch(sender, "server 0, domain 'X'", host)
    core.watch(receiver, "server 1, domain 'X'", host)
    return core, sender, receiver, host


class TestStampFreeze:
    def test_mutating_published_matrix_stamp_names_clock_and_cell(self):
        core, sender, receiver, _ = checked_pair("matrix")
        stamp = core.stamp(sender, 1)
        stamp._buf[2] = 99  # tamper with the COW-shared buffer
        with pytest.raises(SanitizerViolation) as excinfo:
            core.deliverable(receiver, stamp)
        message = str(excinfo.value)
        assert "stamp-mutation" in message
        assert "server 0, domain 'X'" in message
        assert "cell (0, 2)" in message

    def test_mutating_updates_stamp_detected(self):
        core, sender, receiver, _ = checked_pair("updates")
        stamp = core.stamp(sender, 1)
        stamp._updates = ()  # replace the published delta
        with pytest.raises(SanitizerViolation, match="stamp-mutation"):
            core.deliverable(receiver, stamp)

    def test_untouched_stamp_flows_through(self):
        core, sender, receiver, _ = checked_pair("matrix")
        stamp = core.stamp(sender, 1)
        assert core.deliverable(receiver, stamp)
        assert not core.duplicate(receiver, stamp)
        core.merge(receiver, stamp)
        assert receiver.cell(0, 1) == 1

    def test_quiesce_reverifies_every_retained_stamp(self):
        core, sender, _, _ = checked_pair("matrix")
        stamps = [core.stamp(sender, 1) for _ in range(5)]
        stamps[2]._buf[0] = 41
        with pytest.raises(SanitizerViolation, match="stamp-mutation"):
            core.registry.verify_all()


class TestClockChecks:
    def test_fifo_skip_raises_before_clock_error(self):
        core, sender, receiver, _ = checked_pair("matrix")
        core.stamp(sender, 1)  # first message never delivered
        second = core.stamp(sender, 1)
        with pytest.raises(SanitizerViolation, match="fifo") as excinfo:
            core.merge(receiver, second)
        assert "server 1, domain 'X'" in str(excinfo.value)
        assert "cell (0, 1) expects 1" in str(excinfo.value)

    def test_monotonicity_regression_detected(self):
        core, clock, _, _ = checked_pair("matrix")
        core.stamp(clock, 1)
        clock._buf[clock._size * 0 + 1] = 0  # regress a cell
        with pytest.raises(SanitizerViolation, match="monotonicity") as exc:
            core.stamp(clock, 2)
        assert "server 0, domain 'X': cell (0, 1)" in str(exc.value)

    def test_restore_rebaselines_instead_of_flagging(self):
        core, clock, _, host = checked_pair("matrix")
        image = clock.sync_image()
        core.stamp(clock, 1)
        host.epoch += 1  # a crash, then recovery restores the clock
        clock.restore(image)
        core.stamp(clock, 1)  # must not raise

    def test_rollback_without_a_crash_is_flagged(self):
        core, clock, _, _ = checked_pair("matrix")
        image = clock.sync_image()
        core.stamp(clock, 1)
        clock.restore(image)  # same epoch: no recovery explains it
        with pytest.raises(SanitizerViolation, match="monotonicity"):
            core.stamp(clock, 2)

    def test_delegation_preserves_protocol_surface(self):
        inner = get_core("updates")
        core, sender, receiver, _ = checked_pair("updates")
        assert isinstance(sender, UpdatesClock)
        assert (sender.size, sender.owner) == (3, 0)
        stamp = core.stamp(sender, 1)
        assert core.holdback_key(stamp) == inner.holdback_key(stamp)
        assert core.next_expected(receiver, 0) == 1
        core.merge(receiver, stamp)
        assert core.next_expected(receiver, 0) == 2
        assert sender.dirty_cells() == 1
        assert stamp.wire_cells >= 1


def _leaky_prepare_send(original):
    published = []

    def prepare_send(self, dest):
        if published:
            published[-1]._buf[0] += 1  # write through a published stamp
        stamp = original(self, dest)
        published.append(stamp)
        return stamp

    return prepare_send


def _regressing_deliver(original):
    def deliver(self, stamp):
        original(self, stamp)
        if self.cell(0, 2) > 1:
            self._own_buf()[2] = 0  # cell (0, 2) of the 3x3 matrix

    return deliver


#: (patched MatrixClock method, the mutant built from the original, the
#: echo servers server 0 sends to, round robin)
_MUTANTS = {
    "stamp-mutation": ("prepare_send", _leaky_prepare_send, (1, 2)),
    "fifo": ("can_deliver", lambda original: lambda self, s: True, (1,)),
    "monotonicity": ("deliver", _regressing_deliver, (1, 2)),
}


def run_burst(echo_servers, sends=20):
    """A sanitized 3-server domain over jittered links: server 0 sends
    ``sends`` messages at boot to echo agents on ``echo_servers``."""
    mom = MessageBus(
        BusConfig(
            topology=single_domain(3),
            seed=5,
            latency=UniformLatency(0.1, 20.0),
        )
    )
    BusSanitizer(mom).attach()
    echoes = [mom.deploy(EchoAgent(), server) for server in echo_servers]
    sender = FunctionAgent(lambda ctx, s, p: None)

    def boot(ctx):
        for i in range(sends):
            ctx.send(echoes[i % len(echoes)], i)

    sender.on_boot = boot
    mom.deploy(sender, 0)
    mom.start()
    mom.run_until_idle()
    return mom


class TestLiveBusMutants:
    """Negative controls on a real bus: each broken clock step raises its
    named kind, and the same run unmutated is silent."""

    @pytest.mark.parametrize("kind", sorted(_MUTANTS))
    def test_mutant_raises_its_kind(self, kind, monkeypatch):
        method, mutant, echo_servers = _MUTANTS[kind]
        original = getattr(MatrixClock, method)
        monkeypatch.setattr(MatrixClock, method, mutant(original))
        with pytest.raises(SanitizerViolation) as excinfo:
            run_burst(echo_servers)
        assert excinfo.value.kind == kind

    @pytest.mark.parametrize("echo_servers", [(1,), (1, 2)])
    def test_unmutated_run_is_silent(self, echo_servers):
        mom = run_burst(echo_servers)
        assert mom.check_app_causality().respects_causality


def note(nid, sender, target, now=0.0):
    return Notification(
        nid=nid, sender=sender, target=target, payload=None, sent_at=now
    )


class TestOrderChecker:
    def test_out_of_order_delivery_raises(self):
        a, b, c = AgentId(0, 0), AgentId(1, 0), AgentId(2, 0)
        checker = OrderChecker()
        m1 = note(1, a, c)
        m3 = note(2, a, b)
        checker.on_send(m1)
        checker.on_send(m3)
        checker.on_receive(m3)
        m2 = note(3, b, c)  # sent by b after receiving m3: m1 ≺ m2
        checker.on_send(m2)
        with pytest.raises(SanitizerViolation, match="causal-order"):
            checker.on_receive(m2)  # delivered at c while m1 still pending

    def test_causal_order_respected_is_silent(self):
        a, b, c = AgentId(0, 0), AgentId(1, 0), AgentId(2, 0)
        checker = OrderChecker()
        m1 = note(1, a, c)
        m3 = note(2, a, b)
        checker.on_send(m1)
        checker.on_send(m3)
        checker.on_receive(m3)
        m2 = note(3, b, c)
        checker.on_send(m2)
        checker.on_receive(m1)  # FIFO-consistent order
        checker.on_receive(m2)

    def test_concurrent_messages_any_order(self):
        a, b, c = AgentId(0, 0), AgentId(1, 0), AgentId(2, 0)
        checker = OrderChecker()
        m1 = note(1, a, c)
        m2 = note(2, b, c)  # concurrent with m1
        checker.on_send(m1)
        checker.on_send(m2)
        checker.on_receive(m2)
        checker.on_receive(m1)

    def test_self_sends_ignored(self):
        a = AgentId(0, 0)
        checker = OrderChecker()
        checker.on_send(note(1, a, a))
        checker.on_receive(note(1, a, a))


def build_pingpong(**config_kwargs):
    topology = bus_topology(9, 3)
    mom = MessageBus(BusConfig(topology=topology, **config_kwargs))
    echo_id = mom.deploy(EchoAgent(), 8)
    driver = PingPongDriver(5)
    driver.bind(echo_id)
    mom.deploy(driver, 0)
    return mom, driver


def holdback_store(server):
    """The hold-back store of ``server``'s first domain; server 4 is off
    the ping-pong route, so this is the domain's first touch."""
    channel = server.channel
    domain_id = server.domains[0].domain_id
    channel.item(domain_id)
    return channel._holdback[domain_id]


class _RelayAgent(Agent):
    def __init__(self):
        super().__init__()
        self.next_hop = None

    def react(self, ctx, sender, payload):
        if self.next_hop is not None:
            ctx.send(self.next_hop, payload)


def build_cyclic_race(seed=4):
    """The theorem test's Figure-4(a) race on a cyclic ring topology."""
    topology = from_domain_map({"d0": [0, 1], "d1": [1, 2], "d2": [2, 0]})
    mom = MessageBus(BusConfig(topology=topology, validate=False, seed=seed))
    sink_order = []
    sink = FunctionAgent(lambda ctx, s, p: sink_order.append(p))
    sink_id = mom.deploy(sink, 2)
    relay = _RelayAgent()
    relay_id = mom.deploy(relay, 1)
    relay.next_hop = sink_id
    starter = FunctionAgent(lambda ctx, s, p: None)

    def boot(ctx):
        ctx.send(sink_id, "n-direct")
        ctx.send(relay_id, "m-chain")

    starter.on_boot = boot
    mom.deploy(starter, 0)
    mom.network.partition(0, 2)
    mom.sim.schedule_at(500.0, mom.network.heal, 0, 2)
    return mom, sink_order


class TestBusSanitizer:
    def test_clean_run_is_silent_and_reaches_quiescence(self):
        mom, driver = build_pingpong()
        BusSanitizer(mom).attach()
        mom.start()
        mom.run_until_idle()
        assert driver.mean_rtt > 0

    def test_sanitized_run_observationally_identical(self):
        bare, bare_driver = build_pingpong(seed=7)
        bare.start()
        bare.run_until_idle()

        sanitized, san_driver = build_pingpong(seed=7)
        BusSanitizer(sanitized).attach()
        sanitized.start()
        sanitized.run_until_idle()

        assert sanitized.sim.now == bare.sim.now
        assert san_driver.mean_rtt == bare_driver.mean_rtt
        assert sanitized.metrics.snapshot() == bare.metrics.snapshot()

    def test_holdback_leak_flagged_at_quiesce(self):
        mom, _ = build_pingpong()
        sanitizer = BusSanitizer(mom).attach()
        mom.start()
        mom.run_until_idle()
        store = holdback_store(mom.servers[4])
        store.count = 1  # fake a stuck held-back envelope
        with pytest.raises(SanitizerViolation, match="holdback-leak"):
            sanitizer.check_quiesce()

    def test_crashed_server_suspends_quiesce_hygiene(self):
        mom, _ = build_pingpong()
        sanitizer = BusSanitizer(mom).attach()
        mom.start()
        mom.run_until_idle()
        store = holdback_store(mom.servers[4])
        store.count = 1
        mom.servers[4].crash()
        sanitizer.check_quiesce()  # held-back is legitimate while down
        mom.servers[4].recover()
        store.count = 0
        mom.run_until_idle()

    def test_cyclic_mom_violation_caught_online(self):
        mom, _ = build_cyclic_race()
        BusSanitizer(mom, force_order_check=True).attach()
        mom.start()
        with pytest.raises(SanitizerViolation, match="causal-order"):
            mom.run_until_idle()

    def test_cyclic_mom_without_forcing_is_tolerated(self):
        # validate=False topologies promise nothing; the theorem tests
        # depend on observing the violation, not on a sanitizer crash
        mom, sink_order = build_cyclic_race()
        BusSanitizer(mom).attach()
        mom.start()
        mom.run_until_idle()
        assert sink_order == ["m-chain", "n-direct"]
        assert not mom.check_app_causality().respects_causality


@pytest.mark.skipif(
    os.environ.get("REPRO_SANITIZE") == "1",
    reason="install()/uninstall() would toggle the suite-wide sanitizer",
)
class TestInstall:
    def test_install_instruments_new_buses(self):
        assert not is_installed()
        install()
        try:
            assert is_installed()
            mom, driver = build_pingpong()
            assert isinstance(mom._sanitizer, BusSanitizer)
            mom.start()
            mom.run_until_idle()
            assert driver.mean_rtt > 0
        finally:
            uninstall()
        assert not is_installed()
        mom, _ = build_pingpong()
        assert not hasattr(mom, "_sanitizer")

    def test_install_is_idempotent(self):
        install()
        install()
        try:
            mom, _ = build_pingpong()
            assert isinstance(mom._sanitizer, BusSanitizer)
        finally:
            uninstall()
            uninstall()

    def test_fifo_buses_not_clock_wrapped(self):
        install()
        try:
            topology = bus_topology(6, 3)
            mom = MessageBus(
                BusConfig(topology=topology, clock_algorithm="fifo")
            )
            assert mom._sanitizer.core is None
            fifo = get_core("fifo")
            assert all(
                server.channel._core is fifo
                for server in mom.servers.values()
            )
        finally:
            uninstall()
