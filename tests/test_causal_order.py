"""Unit tests for the causal-precedence relation ≺ and the delivery
predicates (§4.2)."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.model import Send, check_scenario
from repro.analysis.sanitizer import OrderChecker, SanitizerViolation
from repro.causality import (
    CausalOrder,
    Membership,
    Message,
    Trace,
    build_violation_trace,
    check_all_domains,
    check_trace,
    find_cycle_path,
)
from repro.causality.order import DeliveryOracle
from repro.causality.trace import EventKind
from repro.errors import TraceError
from repro.mom import BusConfig, EchoAgent, FunctionAgent, MessageBus
from repro.mom.payloads import Notification
from repro.mom.workloads import PingPongDriver
from repro.protocol import get_core
from repro.topology import bus as bus_topology
from repro.topology.builders import from_domain_map, single_domain


def msg(mid, src, dst):
    return Message(mid, src, dst)


class TestPrecedenceRules:
    def test_rule1_same_sender(self):
        trace = Trace()
        m1, m2 = msg(1, "p", "q"), msg(2, "p", "r")
        trace.record_send(m1)
        trace.record_send(m2)
        order = CausalOrder(trace)
        assert order.precedes(m1, m2)
        assert not order.precedes(m2, m1)

    def test_rule2_receive_then_send(self):
        trace = Trace()
        m1, m2 = msg(1, "p", "q"), msg(2, "q", "r")
        trace.record_send(m1)
        trace.record_receive(m1)
        trace.record_send(m2)
        order = CausalOrder(trace)
        assert order.precedes(m1, m2)

    def test_rule2_requires_receive_before_send(self):
        trace = Trace()
        m2 = msg(2, "q", "r")
        m1 = msg(1, "p", "q")
        trace.record_send(m2)      # q sends first...
        trace.record_send(m1)
        trace.record_receive(m1)   # ...then receives m1
        order = CausalOrder(trace)
        assert not order.precedes(m1, m2)

    def test_rule3_transitivity(self):
        trace = Trace()
        m1 = msg(1, "p", "q")
        m2 = msg(2, "q", "r")
        m3 = msg(3, "r", "s")
        trace.record_send(m1)
        trace.record_receive(m1)
        trace.record_send(m2)
        trace.record_receive(m2)
        trace.record_send(m3)
        order = CausalOrder(trace)
        assert order.precedes(m1, m3)

    def test_no_spurious_link_send_then_receive(self):
        """p sends m1 then receives m2: neither precedes the other through
        p (receives link forward only to later sends)."""
        trace = Trace()
        m1 = msg(1, "p", "q")
        m2 = msg(2, "r", "p")
        trace.record_send(m1)
        trace.record_send(m2)
        trace.record_receive(m2)
        order = CausalOrder(trace)
        assert order.concurrent(m1, m2)

    def test_irreflexive(self):
        trace = Trace()
        m = msg(1, "p", "q")
        trace.record_send(m)
        order = CausalOrder(trace)
        assert not order.precedes(m, m)

    def test_concurrent_symmetric(self):
        trace = Trace()
        ma = msg(1, "a", "c")
        mb = msg(2, "b", "c")
        trace.record_send(ma)
        trace.record_send(mb)
        order = CausalOrder(trace)
        assert order.concurrent(ma, mb)
        assert order.concurrent(mb, ma)


class TestCorrectness:
    def test_ordinary_trace_is_correct(self):
        trace = Trace()
        m = msg(1, "p", "q")
        trace.record_send(m)
        trace.record_receive(m)
        assert CausalOrder(trace).is_correct()

    def test_cyclic_precedence_detected(self):
        """Figure 12(a)-style break: build ≺-antisymmetry violation via
        from_histories (receives placed before sends locally)."""
        l = msg("l", "p", "q")
        m = msg("m", "q", "p")
        trace = Trace.from_histories(
            {
                # p receives m, then sends l  => m ≺ l
                "p": [(EventKind.RECEIVE, m), (EventKind.SEND, l)],
                # q receives l, then sends m  => l ≺ m
                "q": [(EventKind.RECEIVE, l), (EventKind.SEND, m)],
            }
        )
        assert not CausalOrder(trace).is_correct()


class TestDeliveryPredicate:
    def test_in_order_delivery_respects(self):
        trace = Trace()
        m1, m2 = msg(1, "p", "q"), msg(2, "p", "q")
        trace.record_send(m1)
        trace.record_send(m2)
        trace.record_receive(m1)
        trace.record_receive(m2)
        order = CausalOrder(trace)
        assert order.respects_causality()
        assert order.delivery_violations() == []

    def test_fifo_violation_detected(self):
        trace = Trace()
        m1, m2 = msg(1, "p", "q"), msg(2, "p", "q")
        trace.record_send(m1)
        trace.record_send(m2)
        trace.record_receive(m2)
        trace.record_receive(m1)
        order = CausalOrder(trace)
        violations = order.delivery_violations()
        assert len(violations) == 1
        process, earlier, later = violations[0]
        assert process == "q"
        assert earlier == m1
        assert later == m2

    def test_triangle_violation_detected(self):
        """p→q direct slower than p→r→q relay: classic causal anomaly."""
        n = msg("n", "p", "q")
        m1 = msg("m1", "p", "r")
        m2 = msg("m2", "r", "q")
        trace = Trace.from_histories(
            {
                "p": [(EventKind.SEND, n), (EventKind.SEND, m1)],
                "r": [(EventKind.RECEIVE, m1), (EventKind.SEND, m2)],
                "q": [(EventKind.RECEIVE, m2), (EventKind.RECEIVE, n)],
            }
        )
        order = CausalOrder(trace)
        assert order.is_correct()
        assert not order.respects_causality()

    def test_concurrent_any_order_is_fine(self):
        trace = Trace()
        ma = msg(1, "a", "c")
        mb = msg(2, "b", "c")
        trace.record_send(ma)
        trace.record_send(mb)
        trace.record_receive(mb)
        trace.record_receive(ma)
        assert CausalOrder(trace).respects_causality()


class TestFromHistoriesValidation:
    def test_receive_with_other_endpoints_than_sent_is_rejected(self):
        """Same mid, different endpoints: record_receive rejects it, so
        from_histories must too — the link-keyed oracle would otherwise
        file the receive on a link the send never used."""
        sent = msg(1, "p", "q")
        forged = msg(1, "r", "q")
        with pytest.raises(TraceError, match="different endpoints"):
            Trace.from_histories(
                {
                    "p": [(EventKind.SEND, sent)],
                    "q": [(EventKind.RECEIVE, forged)],
                }
            )
        # order of presentation must not matter (receiver listed first)
        with pytest.raises(TraceError, match="different endpoints"):
            Trace.from_histories(
                {
                    "q": [(EventKind.RECEIVE, forged)],
                    "p": [(EventKind.SEND, sent)],
                }
            )


# ----------------------------------------------------------------------
# The one delivery oracle against a brute-force pairwise reference
# ----------------------------------------------------------------------


def random_execution(rng, processes, steps, reorder, drop):
    """A random computation: ``(trace, log)`` where ``log`` is the global
    order of ``(EventKind, Message)`` the trace was recorded in.

    ``reorder`` is the probability that a delivery picks a random
    in-flight message instead of the oldest; ``drop`` the probability
    that a message is never received.
    """
    trace, log, in_flight = Trace(), [], []

    def receive(message):
        if rng.random() >= drop:
            trace.record_receive(message)
            log.append((EventKind.RECEIVE, message))

    for mid in range(steps):
        if in_flight and rng.random() < 0.5:
            at = rng.randrange(len(in_flight)) if rng.random() < reorder else 0
            receive(in_flight.pop(at))
        else:
            src, dst = rng.sample(range(processes), 2)
            message = msg(mid, src, dst)
            trace.record_send(message)
            log.append((EventKind.SEND, message))
            in_flight.append(message)
    for message in in_flight:
        receive(message)
    return trace, log


def pairwise_reference(trace):
    """The definition, spelled out: compare every pair of receives per
    process with ``precedes()``; correct iff ≺ is antisymmetric."""
    order = CausalOrder(trace)
    violations = set()
    for process in trace.processes:
        received = trace.received_in_order(process)
        for i, first in enumerate(received):
            for later in received[i + 1 :]:
                if order.precedes(later, first):
                    violations.add((process, later.mid, first.mid))
    messages = trace.messages
    correct = not any(
        order.precedes(a, b) and order.precedes(b, a)
        for a in messages
        for b in messages
    )
    return violations, correct


def swept(trace):
    order = CausalOrder(trace)
    listed = order.delivery_violations()
    as_set = {(p, earlier.mid, later.mid) for p, earlier, later in listed}
    assert len(as_set) == len(listed), "a violation was reported twice"
    assert order.respects_causality() == (not listed)
    return as_set, order.is_correct()


class TestOracleAgainstPairwiseReference:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        processes=st.integers(2, 6),
        steps=st.integers(1, 80),
        reorder=st.sampled_from([0.0, 0.2, 1.0]),
        drop=st.sampled_from([0.0, 0.1, 0.4]),
    )
    def test_random_executions(self, seed, processes, steps, reorder, drop):
        trace, _ = random_execution(
            random.Random(seed), processes, steps, reorder, drop
        )
        assert swept(trace) == pairwise_reference(trace)

    def test_a_thousand_executions_with_a_real_share_of_violations(self):
        rng = random.Random(22)
        violating = 0
        for _ in range(1000):
            trace, _ = random_execution(
                rng,
                rng.randint(2, 6),
                rng.randint(5, 60),
                rng.choice([0.0, 0.1, 0.5, 1.0]),  # FIFO .. fully reordered
                rng.choice([0.0, 0.1, 0.3]),  # never-received messages
            )
            violations, correct = swept(trace)
            assert (violations, correct) == pairwise_reference(trace)
            assert correct  # a recorded execution cannot be cyclic
            violating += bool(violations)
        assert 200 <= violating <= 800, violating

    @pytest.mark.parametrize("ring", [3, 4, 6])
    def test_figure_4a_counterexamples(self, ring):
        membership = Membership(
            {f"d{i}": [i, (i + 1) % ring] for i in range(ring)}
        )
        path = find_cycle_path(membership)
        trace, direct, chain = build_violation_trace(path, membership)
        violations, correct = swept(trace)
        assert (violations, correct) == pairwise_reference(trace)
        assert correct
        assert violations == {
            (chain.destination, direct.mid, chain.messages[-1].mid)
        }
        for report in check_all_domains(trace, membership).values():
            assert report.respects_causality

    def test_fifo_core_triangle_relay(self):
        """Per-pair FIFO admits the p→q direct vs p→r→q relay race."""
        result = check_scenario(
            get_core("fifo"),
            single_domain(3),
            [Send(0, 2, "n"), Send(0, 1, "m1")],
            lambda receiver, tag: (
                [Send(1, 2, "m2")] if (receiver, tag) == (1, "m1") else []
            ),
        )
        assert result.kind == "causal-violation"
        violations, correct = swept(result.witness)
        assert (violations, correct) == pairwise_reference(result.witness)
        assert correct and len(violations) == 1

    def test_hand_built_cyclic_traces(self):
        """On an incorrect trace both agree that ≺ has a cycle; the sweep
        reports the violations it reached before the cycle stopped it,
        all of them genuine."""
        l, m = msg("l", "p", "q"), msg("m", "q", "p")
        two_cycle = Trace.from_histories(
            {
                "p": [(EventKind.RECEIVE, m), (EventKind.SEND, l)],
                "q": [(EventKind.RECEIVE, l), (EventKind.SEND, m)],
            }
        )
        assert swept(two_cycle) == pairwise_reference(two_cycle) == (set(), False)

        # a FIFO violation on r→s upstream of a three-process cycle
        a, b, c = msg("a", "p", "q"), msg("b", "q", "r"), msg("c", "r", "p")
        x1, x2 = msg("x1", "r", "s"), msg("x2", "r", "s")
        mixed = Trace.from_histories(
            {
                "r": [
                    (EventKind.SEND, x1),
                    (EventKind.SEND, x2),
                    (EventKind.RECEIVE, b),
                    (EventKind.SEND, c),
                ],
                "s": [(EventKind.RECEIVE, x2), (EventKind.RECEIVE, x1)],
                "p": [(EventKind.RECEIVE, c), (EventKind.SEND, a)],
                "q": [(EventKind.RECEIVE, a), (EventKind.SEND, b)],
            }
        )
        assert swept(mixed) == pairwise_reference(mixed) == (
            {("s", "x1", "x2")},
            False,
        )

        # receives that wait on the cycle are not swept: subset, same flag
        y1, y2 = msg("y1", "p", "s"), msg("y2", "p", "s")
        downstream = Trace.from_histories(
            {
                "p": [
                    (EventKind.RECEIVE, m),
                    (EventKind.SEND, y1),
                    (EventKind.SEND, y2),
                    (EventKind.SEND, l),
                ],
                "q": [(EventKind.RECEIVE, l), (EventKind.SEND, m)],
                "s": [(EventKind.RECEIVE, y2), (EventKind.RECEIVE, y1)],
            }
        )
        found, correct = swept(downstream)
        expected, expected_correct = pairwise_reference(downstream)
        assert correct is expected_correct is False
        assert found <= expected == {("s", "y1", "y2")}

    def test_precedes_is_lazy_and_unchanged_after_a_sweep(self):
        trace, _ = random_execution(random.Random(5), 4, 60, 0.5, 0.1)
        order = CausalOrder(trace)
        order.delivery_violations()
        assert order._succ is None  # the sweep never built the graph
        fresh = CausalOrder(trace)
        for a in trace.messages:
            for b in trace.messages:
                assert order.precedes(a, b) == fresh.precedes(a, b)


def note_of(message):
    return Notification(
        nid=message.mid,
        sender=message.src,
        target=message.dst,
        payload=None,
        sent_at=0.0,
    )


def online_verdict(log):
    """Feed a global order of ``(EventKind, notification)`` through the
    sanitizer's adaptor; True iff it raised a causal-order violation."""
    checker = OrderChecker()
    try:
        for kind, notification in log:
            if kind is EventKind.SEND:
                checker.on_send(notification)
            else:
                checker.on_receive(notification)
    except SanitizerViolation as violation:
        assert violation.kind == "causal-order"
        return True
    return False


class TestOnlineEqualsOffline:
    def test_random_executions_where_everything_arrives(self):
        rng = random.Random(7)
        raised = 0
        for _ in range(300):
            trace, log = random_execution(
                rng, rng.randint(2, 5), rng.randint(5, 60),
                rng.choice([0.0, 0.2, 1.0]), drop=0.0,
            )
            offline = bool(check_trace(trace).violations)
            online = online_verdict([(k, note_of(m)) for k, m in log])
            assert online == offline
            raised += offline
        assert 50 <= raised <= 250, raised

    def test_copied_oracle_evolves_independently(self):
        """The model checker forks one oracle per explored state."""
        oracle = DeliveryOracle(["p", "q", "r"])
        oracle.send(1, "p", "r")
        oracle.send(2, "p", "q")
        fork = oracle.copy()
        assert fork.receive(2) == []
        fork.send(3, "q", "r")
        assert fork.receive(3) == [1]
        assert oracle.vectors() == ((2, 0, 0), (0, 0, 0), (0, 0, 0))
        assert oracle.receive(1) == []

    @pytest.mark.parametrize("cyclic", [False, True])
    def test_recorded_mom_run(self, cyclic):
        """Replay a real bus run's app-level hook order through the
        online adaptor: it raises iff the recorded trace is in violation
        (the cyclic ring of the theorem tests; a validated bus is clean)."""
        if cyclic:
            topology = from_domain_map(
                {"d0": [0, 1], "d1": [1, 2], "d2": [2, 0]}
            )
            mom = MessageBus(BusConfig(topology=topology, validate=False, seed=4))
            sink_id = mom.deploy(FunctionAgent(lambda ctx, s, p: None), 2)
            relay_id = mom.deploy(
                FunctionAgent(lambda ctx, s, p: ctx.send(sink_id, p)), 1
            )
            starter = FunctionAgent(lambda ctx, s, p: None)

            def boot(ctx):
                ctx.send(sink_id, "n-direct")
                ctx.send(relay_id, "m-chain")

            starter.on_boot = boot
            mom.deploy(starter, 0)
            mom.network.partition(0, 2)
            mom.sim.schedule_at(500.0, mom.network.heal, 0, 2)
        else:
            mom = MessageBus(BusConfig(topology=bus_topology(9, 3), seed=4))
            echo_id = mom.deploy(EchoAgent(), 8)
            driver = PingPongDriver(5)
            driver.bind(echo_id)
            mom.deploy(driver, 0)
        log = []
        record_send, record_receive = mom.record_app_send, mom.record_app_receive

        def on_send(notification):
            record_send(notification)
            log.append((EventKind.SEND, notification))

        def on_receive(notification):
            record_receive(notification)
            log.append((EventKind.RECEIVE, notification))

        mom.record_app_send, mom.record_app_receive = on_send, on_receive
        mom.start()
        mom.run_until_idle()
        report = mom.check_app_causality()
        assert online_verdict(log) == bool(report.violations) == cyclic

    def test_online_flags_a_predecessor_that_never_arrives(self):
        """The one deliberate difference: offline, a never-received
        message cannot violate; online, nobody knows it never will."""
        lost, m1, m2 = msg(1, "p", "q"), msg(2, "p", "r"), msg(3, "r", "q")
        trace = Trace()
        log = []
        for kind, message in [
            (EventKind.SEND, lost),
            (EventKind.SEND, m1),
            (EventKind.RECEIVE, m1),
            (EventKind.SEND, m2),
            (EventKind.RECEIVE, m2),
        ]:
            if kind is EventKind.SEND:
                trace.record_send(message)
            else:
                trace.record_receive(message)
            log.append((kind, message))
        assert check_trace(trace).respects_causality
        assert online_verdict([(k, note_of(m)) for k, m in log])


def causal_churn_trace(rng, processes, messages):
    """A long causal execution: every destination drains its arrivals in
    global send order (so no delivery can overtake a predecessor), while
    the choice of *which* destination delivers next is random."""
    trace = Trace()
    queues = {p: [] for p in range(processes)}
    sent = 0
    while sent < messages or any(queues.values()):
        backlog = [p for p in range(processes) if queues[p]]
        if sent < messages and (not backlog or rng.random() < 0.5):
            src, dst = rng.sample(range(processes), 2)
            message = msg(sent, src, dst)
            trace.record_send(message)
            queues[dst].append(message)
            sent += 1
        else:
            trace.record_receive(queues[rng.choice(backlog)].pop(0))
    return trace


class TestScale:
    def test_sixteen_thousand_messages_in_under_two_seconds(self):
        """ROADMAP item 5: the pairwise checker needed ≈ 56 s here."""
        trace = causal_churn_trace(random.Random(16), 24, 16_200)
        assert len(trace.messages) == 16_200
        started = time.perf_counter()
        report = check_trace(trace)
        elapsed = time.perf_counter() - started
        assert report.respects_causality and report.correct
        assert elapsed < 2.0, f"{elapsed:.2f} s for 16 200 messages"

    def test_bus400_hop_trace_per_domain_in_a_fifth_of_a_second(self):
        topology = bus_topology(400)
        mom = MessageBus(BusConfig(topology=topology, record_hop_trace=True))
        membership = topology.membership()
        routers = set(membership.routers())
        leaves = [s for s in sorted(mom.servers) if s not in routers]
        random.Random(3).shuffle(leaves)
        for k in range(40):
            echo_id = mom.deploy(EchoAgent(), leaves[2 * k + 1])
            driver = PingPongDriver(20)
            driver.bind(echo_id)
            mom.deploy(driver, leaves[2 * k])
        mom.start()
        mom.run_until_idle()
        assert len(mom.hop_trace.messages) >= 4_000
        elapsed = float("inf")
        for _ in range(3):  # best of three: other tenants only add time
            started = time.perf_counter()
            reports = check_all_domains(mom.hop_trace, membership)
            elapsed = min(elapsed, time.perf_counter() - started)
        assert all(r.respects_causality for r in reports.values())
        assert elapsed < 0.2, f"{elapsed:.3f} s for {len(reports)} domains"
